"""The committee phases with one record per validator: the reference for counted records.

These are the game scripts' committee phases as they stood before votes and
evidences were counted: `_open_chain` seeds one vote record per pre-game
voter, `_attest` sends one per attestor, `SelfishMiningGame._stage_fork` one
per follower, and `_aggregate` one evidence per signer.  They take the
phases' inputs as the games pass them: each committee a range of validator
indices, a scripted committee with no profile, and a label read by its
(slot, role, actor) key.  `per_voter_phases`
swaps them into `reorglab.games`, so a run of any engine game sends exactly
the votes and signatures a counted run sends, one record each; the tests
check that both runs export the same trace and settle the same payoffs.
"""

from __future__ import annotations

import contextlib
from unittest import mock

from reorglab import games
from reorglab.chain import Block, BlockId, EvidenceRecord, VoteRecord
from reorglab.engine import Role, Simulation, Tip, VoteFor, propose_tick, vote_tick


def open_chain(config, seeded: dict, start: int = 0) -> games.Checkpoint:
    sim = Simulation(config.boost, config.tie_break)
    blocks: list[Block] = []
    for slot, (proposer, voters) in seeded.items():
        parent = blocks[-1].id if blocks else None
        block = Block(sim.tree.new_id(), slot, parent, proposer, is_empty=parent is None)
        sim.tree.insert_block(block)
        for v in voters:
            sim.tree.add_vote(VoteRecord(slot, v, block.id, vote_tick(slot)))
        blocks.append(block)
    sim.advance(start)
    return games.Checkpoint(start, sim, tuple(blocks))


_SCRIPTED = object()


def attest(game, sim: Simulation, profile, slot: int, voters, compliant_tip=None):
    table = game.CANDIDATES[Role.ATTESTOR]
    targets: dict = {}
    for v in voters:
        label = _SCRIPTED if profile is None else profile.get((slot, Role.ATTESTOR, v))
        if label in targets:
            target = targets[label]
        else:
            act = VoteFor(Tip()) if label is _SCRIPTED else table.get(label)
            target = sim.resolve(act.target, compliant_tip) if isinstance(act, VoteFor) else None
            targets[label] = target
        if target is not None:
            sim.emit_vote(slot, v, target)


def aggregate(sim: Simulation, slot: int, signers) -> None:
    seen = tuple(vote for vote in sim.tree.votes if vote.slot == slot)
    if seen:
        for signer in signers:
            sim.emit_evidence(EvidenceRecord(signer, seen))


def stage_fork(game, sim, genesis, profile) -> tuple[list[BlockId], int]:
    publish = propose_tick(game.horizon)
    table = game.CANDIDATES[Role.ATTESTOR]
    fork_ids: list[BlockId] = []
    parent = genesis.id
    compliant_votes = 0
    for s_i in game.adv_slots:
        votes = [
            sim.emit_vote(s_i - 1, v, parent, publish)
            for v in game.committees[s_i - 1]
            if isinstance(table.get(profile.get((s_i - 1, Role.ATTESTOR, v))), games.FollowRule)
        ]
        compliant_votes += len(votes)
        parent = sim.propose(s_i, parent, game.adversary, votes=votes, release=publish).id
        fork_ids.append(parent)
    return fork_ids, compliant_votes


@contextlib.contextmanager
def per_voter_phases():
    """Within the block, every game script sends one record per voter and per signer."""
    with mock.patch.object(games, "_open_chain", open_chain), \
            mock.patch.object(games, "_attest", attest), \
            mock.patch.object(games, "_aggregate", aggregate), \
            mock.patch.object(games.SelfishMiningGame, "_stage_fork", stage_fork):
        yield
