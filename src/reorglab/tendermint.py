"""Tendermint rounds with the decentralized evidence-based reward mechanism.

Heights split into rounds of three lock-step phases (proposal, prevote,
precommit).  A prevote or precommit earns its reward only when it is
included in a finalized block of later coordinates and carries 2f+1 unique
evidences: signatures by validators that either sent the matching message
themselves or verified the forwarded justification.  The round state machine
follows Buchman, Kwon and Milosevic, "The latest gossip on BFT consensus"
(arXiv:1807.04938).

Two scenarios from the analysis are executable.  Both pay through clause (i)
of the evidence rule alone (`evidence_counts`); they differ only in who sees
which message:

* withholding: a 2f+1 pack of non-honest validators nil-votes privately for
  m honest-led rounds while signing each other's messages, then surfaces
  everything in round m+1 and still collects full rewards - a liveness
  failure that is nevertheless a Nash equilibrium;
* honest anchor: with f+1 honest validators, a rational validator that
  nil-prevotes an honest proposal finds no honest evidence for it and
  forfeits the round, so honest-led rounds finalize in all equilibria.

Round numbers are held in fields named `rho` to keep them apart from the
reward unit r.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Mapping, Optional, Sequence

from .engine import Role, StrategyProfile
from .equilibrium import EquilibriumReport, best_response, verify_nash
from .games import AssumptionViolated, GameModel


class TendermintError(Exception):
    pass


class MsgKind(enum.Enum):
    PROPOSAL = "proposal"
    PREVOTE = "prevote"
    PRECOMMIT = "precommit"


NIL = None


@dataclass(frozen=True)
class TendermintMsg:
    kind: MsgKind
    height: int
    rho: int
    value: Optional[int]  # block id, None = nil
    sender: int
    vr: int = -1  # proposals only


@dataclass
class RoundState:
    height: int = 1
    rho: int = 1
    locked_round: int = -1
    locked_value: Optional[int] = None
    valid_round: int = -1
    valid_value: Optional[int] = None

    def check_invariant(self) -> None:
        assert self.valid_round >= self.locked_round
        assert (self.locked_value is None) == (self.locked_round == -1)


def _quorum(view: Sequence[TendermintMsg], kind: MsgKind, height: int, rho: int,
            value, f: int) -> bool:
    senders = {
        m.sender
        for m in view
        if m.kind is kind and m.height == height and m.rho == rho and m.value == value
    }
    return len(senders) >= 2 * f + 1


def tm_step(
    state: RoundState,
    view: Sequence[TendermintMsg],
    phase: MsgKind,
    me: int,
    f: int,
    fresh_value: Optional[int] = None,
) -> TendermintMsg:
    """One honest step of the round state machine; returns the emitted message.

    Proposal: the leader `me` re-proposes its validValue when it has one,
    else the fresh block.  Prevote: back the proposal if unlocked, locked on
    the same value, or shown a lock proof at least as recent as our own;
    otherwise nil.  Precommit: on a 2f+1 prevote quorum for the proposal,
    else nil.
    """
    h, rho = state.height, state.rho
    if phase is MsgKind.PROPOSAL:
        value = state.valid_value if state.valid_round > -1 else fresh_value
        return TendermintMsg(MsgKind.PROPOSAL, h, rho, value, me, vr=state.valid_round)
    proposal = next(
        (
            m
            for m in view
            if m.kind is MsgKind.PROPOSAL and m.height == h and m.rho == rho
        ),
        None,
    )
    if phase is MsgKind.PREVOTE:
        if proposal is None or proposal.value is None:
            return TendermintMsg(MsgKind.PREVOTE, h, rho, NIL, me)
        b = proposal.value
        ok = (
            state.locked_round == -1
            or b == state.locked_value
            or (
                proposal.vr >= state.locked_round
                and _quorum(view, MsgKind.PREVOTE, h, proposal.vr, b, f)
            )
        )
        return TendermintMsg(MsgKind.PREVOTE, h, rho, b if ok else NIL, me)
    if phase is MsgKind.PRECOMMIT:
        if proposal is not None and proposal.value is not None and _quorum(
            view, MsgKind.PREVOTE, h, rho, proposal.value, f
        ):
            state.locked_round = rho
            state.locked_value = proposal.value
            state.valid_round = rho
            state.valid_value = proposal.value
            state.check_invariant()
            return TendermintMsg(MsgKind.PRECOMMIT, h, rho, proposal.value, me)
        return TendermintMsg(MsgKind.PRECOMMIT, h, rho, NIL, me)
    raise TendermintError(f"unknown phase {phase}")


def tm_vote_reward(
    vote_rho: int,
    vote_height: int,
    inclusion_rho: int,
    inclusion_height: int,
    evidence_count: int,
    f: int,
) -> bool:
    """Rewarded iff correct (strictly earlier coordinates) and 2f+1-evidenced."""
    correct = vote_height < inclusion_height or (
        vote_height == inclusion_height and vote_rho < inclusion_rho
    )
    return correct and evidence_count >= 2 * f + 1


def evidence_counts(
    values: Mapping[int, Optional[int]], audience: Callable[[int], frozenset[int]]
) -> dict[int, int]:
    """Clause (i) signatures on each sender's message of one round and kind.

    `values` maps each sender to the value of its message, and
    `audience(sender)` is the set of validators that see that message.  A
    signer signs a sender's message, its own included, when it is in the
    message's audience and its own message carries the same value; a
    validator that sent no message signs nothing.  The count is per audience:
    the values of each distinct audience are tallied once, and every sender
    whose message reaches it reads its count off that tally.  A round with a
    few audiences thus costs O(senders) rather than one check per (signer,
    sender) pair.
    """
    tallies: dict[frozenset[int], Counter] = {}
    counts = {}
    for sender, value in values.items():
        seen_by = audience(sender)
        if seen_by not in tallies:
            tallies[seen_by] = Counter(values[s] for s in seen_by if s in values)
        counts[sender] = tallies[seen_by][value]
    return counts


def _honest_votes(state: RoundState, honest: Sequence[int], view: list[TendermintMsg],
                  phase: MsgKind, f: int) -> dict[int, Optional[int]]:
    """Each honest validator's `phase` vote; one message per sender joins `view`.

    `state` stands for every validator in `honest` and is stepped once.  That is exact
    while they share one state and one view: `tm_step` reads no message of the phase it
    steps (a prevote reads the proposal and the prevotes of round vr < rho, a precommit
    the round-rho prevotes), so each would emit the same value and make the same lock
    update.  Honest validators with different states or views must each be stepped.
    """
    msg = tm_step(state, view, phase, honest[0], f)
    view += [TendermintMsg(msg.kind, msg.height, msg.rho, msg.value, v) for v in honest]
    return dict.fromkeys(honest, msg.value)


@dataclass(frozen=True)
class RoundRun:
    """What one play of a Tendermint game determines."""

    finalized_round: int  # -1 when no round finalized
    payoffs: Mapping[int, Fraction]  # per validator that sent votes


class _TendermintGame(GameModel):
    """Nash-game adapter: one round-1 choice per rational validator.

    Each label of the attestor table in `CANDIDATES` is its own action, and a
    candidate of every rational validator; `PROFILES` names the playable
    profiles in which all of them take the same one.  Each distinct profile
    is played once per game object: `simulate` keeps the run, keyed by the
    profile's runs, which equal for equal profiles.  The players
    take `GameModel.symmetry_classes`' shared key: every rational validator
    has one decision point, at slot 1 as an attestor, so two of them share a
    class when they take the same label.  That is sound because a run reads
    its rational validators only as sets (`_playing`, the audiences of
    `evidence_counts`, `sorted(backers)` into a view whose order no quorum
    reads): swapping two of one label changes no set, so each one's
    deviation pays it what the other's pays the other.
    """

    def __init__(self, f: int, r_unit: Fraction):
        self.f = f
        self.r_unit = Fraction(r_unit)
        self.n = 3 * f + 1
        self._runs: dict[frozenset, RoundRun] = {}

    def _decision_points(self):
        return [(1, Role.ATTESTOR, self.rational)]

    def simulate(self, profile: StrategyProfile) -> RoundRun:
        key = frozenset(profile.runs.items())
        if key not in self._runs:
            self._runs[key] = self._play(profile)
        return self._runs[key]

    def payoffs(self, profile: StrategyProfile, start=None) -> dict[int, Fraction]:
        """Each rational validator's payoff; `start` is always None, as `play` records no checkpoint."""
        run = self.simulate(profile)
        return {v: run.payoffs[v] for v in self.rational}

    def play(self, profile: StrategyProfile):
        return self.payoffs(profile), {}

    def _playing(self, label: str, profile: StrategyProfile) -> set[int]:
        """The rational validators playing `label`, read off the profile's runs."""
        (slot, role, actors), = self.groups
        return {v for first, span, played in profile.over(slot, role, actors) if played == label
                for v in range(first, first + span)}

    def _paid(self, prevote_counts: dict[int, int], precommit_counts: dict[int, int],
              vote: tuple[int, int], inclusion: tuple[int, int]) -> set[int]:
        """The senders whose (rho, height) votes both pay r when included."""
        pays = lambda count: tm_vote_reward(*vote, *inclusion, count, self.f)
        return {v for v in prevote_counts if pays(prevote_counts[v]) and pays(precommit_counts[v])}


# ---------------------------------------------------------------------------
# scenario: withholding liveness attack
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WithholdingResult:
    stalled_rounds: int
    finalized_round: int
    payoff_per_nonhonest: Fraction
    payoffs: Mapping[int, Fraction]
    report: EquilibriumReport


class WithholdingGame(_TendermintGame):
    """Each rational validator follows or breaks the pack.

    n = 3f+1 validators; the first m rounds are led (with reuse) by fewer
    than f+1 honest validators, so the non-honest pack keeps a 2f+1 quorum
    of evidence signers.  Candidates per rational player: follow the script,
    or prevote the round-1 honest proposal openly; not all of them at once,
    as with the honest ones they would reach a quorum.
    """

    CANDIDATES = {Role.ATTESTOR: {"script": "script", "honest-r1": "honest-r1"}}
    PROFILES = {"script": ("script",)}

    def __init__(self, f: int, m: int, r_unit: Fraction):
        super().__init__(f, r_unit)
        self.m = m
        n_honest = min(max(m, 1), f)
        if m > 0 and n_honest == 0:
            raise AssumptionViolated("no honest validator to lead the withheld rounds")
        self.honest = list(range(n_honest))
        self.adversarial = list(range(n_honest, n_honest + f))
        self.rational = range(n_honest + f, self.n)
        self.pack = [*self.adversarial, *self.rational]

    def _play(self, profile: StrategyProfile) -> RoundRun:
        f, m, height = self.f, self.m, 1
        deviators = self._playing("honest-r1", profile)
        everyone, pack = frozenset(range(self.n)), frozenset(self.pack)
        outside = everyone - pack
        state = RoundState(height=height)  # every honest validator's
        view: list[TendermintMsg] = []  # the public messages
        paid_rounds = dict.fromkeys(range(self.n), 0)
        for rho in range(1, m + 1):
            leader = self.honest[(rho - 1) % len(self.honest)]
            state.rho = rho
            proposal = tm_step(state, view, MsgKind.PROPOSAL, leader, f, fresh_value=100 + rho)
            view.append(proposal)
            block = proposal.value
            # honest validators follow the state machine, round-1 deviators
            # back the proposal openly, the rest of the pack nil-votes in
            # private
            prevotes = _honest_votes(state, self.honest, view, MsgKind.PREVOTE, f)
            backers = deviators if rho == 1 else set()
            for v in self.pack:
                prevotes[v] = block if v in backers else NIL
            view += [TendermintMsg(MsgKind.PREVOTE, height, rho, block, v) for v in sorted(backers)]
            public = set(self.honest) | backers
            if sum(value == block for value in prevotes.values()) >= 2 * f + 1:
                raise AssumptionViolated("withheld round unexpectedly reached quorum")
            honest_precommits = _honest_votes(state, self.honest, view, MsgKind.PRECOMMIT, f)
            if any(value is not NIL for value in honest_precommits.values()):
                raise AssumptionViolated("honest precommit without a quorum")
            # everyone sees the public prevotes, and only the pack its private
            # ones (every sender outside `public` is in the pack); precommits are
            # all nil (no quorum), and each side signs its own side's with the
            # next prevotes
            precommits = dict.fromkeys(prevotes, NIL)
            pv = evidence_counts(prevotes, lambda v: everyone if v in public else pack)
            pc = evidence_counts(precommits, lambda v: pack if v in pack else outside)
            # included in round m+1, where everything surfaces and finalizes
            for v in self._paid(pv, pc, (rho, height), (m + 1, height)):
                paid_rounds[v] += 1
        # a validator earns r per paid round: one product per distinct count
        amounts = {k: self.r_unit * k for k in set(paid_rounds.values())}
        return RoundRun(m + 1, MappingProxyType({v: amounts[k] for v, k in paid_rounds.items()}))


def withholding_attack_scenario(
    f: int, m: int, r_unit: Fraction = Fraction(1), max_joint_actions: int = 10**6
) -> WithholdingResult:
    """Stall m honest-led rounds, finalize at m+1, pay the pack r*m each."""
    game = WithholdingGame(f, m, Fraction(r_unit))
    script = game.profile("script")
    report = verify_nash(game, script, max_joint_actions=max_joint_actions)
    run = game.simulate(script)
    return WithholdingResult(m, run.finalized_round, run.payoffs[game.pack[0]], run.payoffs, report)


# ---------------------------------------------------------------------------
# scenario: honest anchor
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnchorResult:
    first_finalized_round: int
    reorg_resilient: bool
    payoffs: Mapping[int, Fraction]
    deviation_forfeits: bool
    report: EquilibriumReport


class AnchorGame(_TendermintGame):
    """Round led by an honest leader with f+1 honest validators present."""

    CANDIDATES = {Role.ATTESTOR: {"prevote-b": "prevote-b", "prevote-nil": "prevote-nil"}}
    PROFILES = {"prevote-b": ("prevote-b",), "prevote-nil": ("prevote-nil",)}

    def __init__(self, f: int, r_unit: Fraction = Fraction(1)):
        super().__init__(f, r_unit)
        self.honest = list(range(f + 1))
        self.rational = range(f + 1, 2 * f + 1)
        self.adversarial = list(range(2 * f + 1, self.n))  # silent, worst case

    def _play(self, profile: StrategyProfile) -> RoundRun:
        f, height, rho, block = self.f, 1, 1, 100
        leader = self.honest[0]
        backers = self._playing("prevote-b", profile)
        state = RoundState(height=height)  # every honest validator's
        view: list[TendermintMsg] = []  # every message is public
        view.append(tm_step(state, view, MsgKind.PROPOSAL, leader, f, block))
        prevotes = _honest_votes(state, self.honest, view, MsgKind.PREVOTE, f)
        for v in self.rational:
            prevotes[v] = block if v in backers else NIL
            view.append(TendermintMsg(MsgKind.PREVOTE, height, rho, prevotes[v], v))
        precommits = _honest_votes(state, self.honest, view, MsgKind.PRECOMMIT, f)
        # each map holds one vote per sender, so a count of its values is a quorum
        quorum_b = sum(value == block for value in prevotes.values()) >= 2 * f + 1
        precommits.update(dict.fromkeys(self.rational, block if quorum_b else NIL))
        finalized = sum(value == block for value in precommits.values()) >= 2 * f + 1
        everyone = frozenset(range(self.n))
        pv = evidence_counts(prevotes, lambda v: everyone)
        pc = evidence_counts(precommits, lambda v: everyone)
        paid = self._paid(pv, pc, (rho, height), (1, height + 1))
        r, zero = self.r_unit, Fraction(0)
        payoffs = {v: r if v in paid else zero for v in pv}
        return RoundRun(rho if finalized else -1, MappingProxyType(payoffs))


def honest_anchor_scenario(
    f: int, r_unit: Fraction = Fraction(1), max_joint_actions: int = 10**6
) -> AnchorResult:
    """First honest-led round finalizes; nil-prevoting forfeits the round."""
    game = AnchorGame(f, r_unit)
    profile = game.profile("prevote-b")
    report = verify_nash(game, profile, max_joint_actions=max_joint_actions)
    run = game.simulate(profile)
    if run.finalized_round != 1:
        raise AssumptionViolated("honest-led round failed to finalize")
    # a nil-prevote earns no honest evidence and forfeits the round; `simulate`
    # returns the deviations `verify_nash` has just played for each run's first member
    forfeits = all(best_response(game, profile, members[0]) == {"prevote-b"}
                   for _, members in game.symmetry_classes(profile))
    return AnchorResult(run.finalized_round, reorg_resilient=True, payoffs=run.payoffs,
                        deviation_forfeits=forfeits, report=report)
