"""Per-validator forms of counted vote and evidence records, for the independent oracles.

A counted `VoteRecord` stands for the identical votes of `span` consecutive
validators, and a counted `EvidenceRecord` for the identical signatures of
`span` consecutive signers.  The oracles under `tests/` never read that
form: each reads a record, block, tree or trace through the functions here,
which rewrite every counted vote into one span-1 record per voter, in index
order, with the record's slot, target and broadcast time, and every counted
evidence into one span-1 record per signer, in index order, over the
expanded votes.  Blocks are rebuilt over the expanded records.

An `EquilibriumReport` likewise holds one entry per run of a symmetry
class's members; `report_members` gives it member by member, and `owner`
names the player that moves at one decision point.
"""

from __future__ import annotations

from itertools import groupby

from reorglab.chain import Block, BlockTree, EvidenceRecord, VoteRecord
from reorglab.engine import DecisionPoint, RunTrace, TraceEvent


def expand_vote(vote: VoteRecord) -> list[VoteRecord]:
    """One span-1 record per voter of `vote`."""
    return [VoteRecord(vote.slot, vote.voter + k, vote.target, vote.broadcast_time)
            for k in range(vote.span)]


def expand_votes(votes) -> list[VoteRecord]:
    return [one for vote in votes for one in expand_vote(vote)]


def expand_evidence(ev: EvidenceRecord) -> list[EvidenceRecord]:
    """One span-1 record per signer of `ev`, each over `ev`'s votes expanded."""
    votes = tuple(expand_votes(ev.votes))
    return [EvidenceRecord(signer, votes) for signer in ev.signers]


def expand_evidences(evidences) -> list[EvidenceRecord]:
    return [one for ev in evidences for one in expand_evidence(ev)]


class Expander:
    """Expands the records of one run, giving each block one expanded copy."""

    def __init__(self) -> None:
        self._blocks: dict[int, Block] = {}

    def block(self, block: Block) -> Block:
        kept = self._blocks.get(block.id)
        if kept is None:
            kept = self._blocks[block.id] = Block(
                block.id, block.slot, block.parent, block.proposer, block.is_empty,
                tuple(expand_votes(block.included_votes)),
                tuple(expand_evidences(block.included_evidences)),
            )
        return kept

    def tree(self, tree: BlockTree) -> BlockTree:
        return BlockTree(
            {bid: self.block(b) for bid, b in tree.blocks.items()},
            {bid: list(kids) for bid, kids in tree.children.items()},
            {slot: list(ids) for slot, ids in tree.by_slot.items()},
            expand_votes(tree.votes),
            tree.genesis,
            tree._next_id,
        )

    def event(self, ev: TraceEvent) -> list[TraceEvent]:
        if ev.kind == "block":
            return [TraceEvent(ev.tick, ev.kind, ev.release_tick, self.block(ev.message))]
        if ev.kind == "vote":
            return [TraceEvent(ev.tick, ev.kind, ev.release_tick, one)
                    for one in expand_vote(ev.message)]
        return [TraceEvent(ev.tick, ev.kind, ev.release_tick, one)
                for one in expand_evidence(ev.message)]

    def trace(self, trace: RunTrace) -> RunTrace:
        return RunTrace(
            [one for ev in trace.events for one in self.event(ev)],
            list(trace.tips),
            self.tree(trace.tree),
            list(trace.final_chain),
            trace.final_slot,
            dict(trace.labels),
            dict(trace.payoffs),
        )


def expand_trace(trace: RunTrace) -> RunTrace:
    """The run as one record per voter: events, tree and blocks alike, the rest copied."""
    return Expander().trace(trace)


def owner(game, dp):
    """The player moving at `dp`: its actor, or the pool the actor belongs to."""
    for name, members in game.pools.items():
        if dp.actor in members:
            return name
    return dp.actor


def report_members(report) -> tuple[list[tuple], list[tuple]]:
    """The report per member: `(player, label, baseline, deviated)`s and `(DecisionPoint, payoffs)`s.

    The deviations of one run of players list player by player, then label
    by label; each subgame entry lists its actors in order.
    """
    deviations = []
    for players, entries in groupby(report.deviations, lambda d: d.players):
        entries = list(entries)
        deviations += [(p, d.label, d.baseline, d.deviated) for p in players for d in entries]
    subgames = [(DecisionPoint(e.slot, e.role, actor), e.payoffs)
                for e in report.subgame_table for actor in e.actors]
    return deviations, subgames
