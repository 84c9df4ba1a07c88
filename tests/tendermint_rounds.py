"""Both Tendermint games played one honest validator at a time: the reference.

Here each honest validator keeps its own `RoundState` and steps it in turn,
and each step's message joins the view before the next validator steps.
The anchor's `quorum_b` and `finalized` are read off the view by distinct
senders.  The games step one replica for all honest validators and read
those quorums off the round's vote maps; the tests check that both give the
same run.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import Optional

from reorglab.games import AssumptionViolated
from reorglab.tendermint import (
    NIL,
    AnchorGame,
    MsgKind,
    RoundRun,
    RoundState,
    TendermintMsg,
    WithholdingGame,
    evidence_counts,
    tm_step,
    tm_vote_reward,
)


def quorum(view, kind: MsgKind, height: int, rho: int, value, f: int) -> bool:
    senders = {
        m.sender
        for m in view
        if m.kind is kind and m.height == height and m.rho == rho and m.value == value
    }
    return len(senders) >= 2 * f + 1


def pays(game, prevote_counts: dict[int, int], precommit_counts: dict[int, int],
         vote: tuple[int, int], inclusion: tuple[int, int]) -> dict[int, Fraction]:
    """r to each sender whose (rho, height) votes both pay when included, else 0."""
    paid = lambda count: tm_vote_reward(*vote, *inclusion, count, game.f)
    return {v: game.r_unit if paid(prevote_counts[v]) and paid(precommit_counts[v]) else Fraction(0)
            for v in prevote_counts}


def honest_votes(states: dict[int, RoundState], view: list[TendermintMsg], phase: MsgKind,
                 f: int) -> dict[int, Optional[int]]:
    """Each honest validator steps its own state; its vote joins `view` at once."""
    values = {}
    for v, state in states.items():
        msg = tm_step(state, view, phase, v, f)
        values[v] = msg.value
        view.append(msg)
    return values


def play_withholding(game: WithholdingGame, profile) -> RoundRun:
    f, m, height = game.f, game.m, 1
    deviators = game._playing("honest-r1", profile)
    everyone, pack = frozenset(range(game.n)), frozenset(game.pack)
    outside = everyone - pack
    states = {v: RoundState(height=height) for v in game.honest}
    view: list[TendermintMsg] = []
    payoffs = {v: Fraction(0) for v in range(game.n)}
    for rho in range(1, m + 1):
        leader = game.honest[(rho - 1) % len(game.honest)]
        for state in states.values():
            state.rho = rho
        proposal = tm_step(states[leader], view, MsgKind.PROPOSAL, leader, f, fresh_value=100 + rho)
        view.append(proposal)
        block = proposal.value
        prevotes = honest_votes(states, view, MsgKind.PREVOTE, f)
        backers = deviators if rho == 1 else set()
        for v in game.pack:
            prevotes[v] = block if v in backers else NIL
        view += [TendermintMsg(MsgKind.PREVOTE, height, rho, block, v) for v in sorted(backers)]
        public = set(game.honest) | backers
        if sum(value == block for value in prevotes.values()) >= 2 * f + 1:
            raise AssumptionViolated("withheld round unexpectedly reached quorum")
        honest_precommits = honest_votes(states, view, MsgKind.PRECOMMIT, f)
        if any(value is not NIL for value in honest_precommits.values()):
            raise AssumptionViolated("honest precommit without a quorum")
        precommits = dict.fromkeys(prevotes, NIL)
        pv = evidence_counts(prevotes, lambda v: everyone if v in public else pack)
        pc = evidence_counts(precommits, lambda v: pack if v in pack else outside)
        for v, paid in pays(game, pv, pc, (rho, height), (m + 1, height)).items():
            payoffs[v] += paid
    return RoundRun(m + 1, MappingProxyType(payoffs))


def play_anchor(game: AnchorGame, profile) -> RoundRun:
    f, height, rho, block = game.f, 1, 1, 100
    leader = game.honest[0]
    backers = game._playing("prevote-b", profile)
    states = {v: RoundState(height=height) for v in game.honest}
    view: list[TendermintMsg] = []
    view.append(tm_step(states[leader], view, MsgKind.PROPOSAL, leader, f, block))
    prevotes = honest_votes(states, view, MsgKind.PREVOTE, f)
    for v in game.rational:
        prevotes[v] = block if v in backers else NIL
        view.append(TendermintMsg(MsgKind.PREVOTE, height, rho, prevotes[v], v))
    precommits = honest_votes(states, view, MsgKind.PRECOMMIT, f)
    quorum_b = quorum(view, MsgKind.PREVOTE, height, rho, block, f)
    for v in game.rational:
        precommits[v] = block if quorum_b else NIL
        view.append(TendermintMsg(MsgKind.PRECOMMIT, height, rho, precommits[v], v))
    finalized = quorum(view, MsgKind.PRECOMMIT, height, rho, block, f)
    everyone = frozenset(range(game.n))
    pv = evidence_counts(prevotes, lambda v: everyone)
    pc = evidence_counts(precommits, lambda v: everyone)
    payoffs = pays(game, pv, pc, (rho, height), (1, height + 1))
    return RoundRun(rho if finalized else -1, MappingProxyType(payoffs))


def play(game, profile) -> RoundRun:
    """The reference run of `profile` in `game`, either Tendermint game."""
    return play_withholding(game, profile) if isinstance(game, WithholdingGame) else play_anchor(game, profile)
