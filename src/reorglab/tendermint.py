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
which message.  Every set of validators is held as chain.py's runs
`(first, span, value)`: a message stands for a run of senders, and a round's
votes, audiences, counts and pay are runs, so a round costs O(runs) at any
f:

* withholding: a 2f+1 pack of non-honest validators nil-votes privately for
  m honest-led rounds while signing each other's messages, then surfaces
  everything in round m+1 and still collects full rewards - a liveness
  failure that is nevertheless a Nash equilibrium;
* honest anchor: with f+1 honest validators, a rational validator that
  nil-prevotes an honest proposal finds no honest evidence for it and
  forfeits the round.  What is checked is the one profile `prevote-b`:
  every deviation from it strictly loses, and its run finalizes.  It is
  not the only equilibrium: at f >= 2 `prevote-nil` is a weak Nash
  equilibrium that stalls, since a lone `prevote-b` stays short of the
  2f+1 quorum and ties.  `reorg_resilient` is reported as a literal, not
  computed from the equilibrium set.

Round numbers are held in fields named `rho` to keep them apart from the
reward unit r.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .chain import Run, fold, over, put
from .engine import Role, StrategyProfile
from .equilibrium import EquilibriumReport, best_response, verify_nash
from .games import AssumptionViolated, GameModel, _Payoffs
from .rewards import SettledPayoffs


class TendermintError(Exception):
    pass


class MsgKind(enum.Enum):
    PROPOSAL = "proposal"
    PREVOTE = "prevote"
    PRECOMMIT = "precommit"


NIL = None


@dataclass(frozen=True)
class TendermintMsg:
    """Senders `sender` .. `sender + span - 1` each send this message.

    A message of span 1 is one validator's.  A counted message, of a larger
    span, stands for the identical messages of that run of validators, as a
    counted `VoteRecord` does in chain.py.
    """

    kind: MsgKind
    height: int
    rho: int
    value: Optional[int]  # block id, None = nil
    sender: int
    vr: int = -1  # proposals only
    span: int = 1


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
    """Whether 2f+1 distinct senders sent the message: overlapping messages are joined with `put`."""
    senders: tuple[Run, ...] = ()
    for m in view:
        if m.kind is kind and m.height == height and m.rho == rho and m.value == value:
            senders = put(senders, m.sender, m.span, True)
    return sum(span for _, span, _ in senders) >= 2 * f + 1


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


def evidence_counts(values: tuple[Run, ...], audiences: tuple[Run, ...]) -> tuple[Run, ...]:
    """Clause (i) signatures on each sender's message of one round and kind, as runs.

    `values` holds runs `(first, span, value)`: senders `first` ..
    `first + span - 1` each sent a message of that value.  `audiences`
    holds runs that partition the same senders: each of a run's senders'
    messages is seen by the validators of its `audience`, itself runs
    `(first, span, True)`.  A signer signs a sender's message, its own
    included, when it is in the message's audience and its own message
    carries the same value; a validator that sent no message signs nothing.
    The count is per audience: the values of each distinct audience are
    tallied once, over the runs where value and audience are both constant,
    and every run of senders whose messages reach it reads its count off
    that tally.  The counts come back as runs `(first, span, count)` over
    the senders, so a round costs O(runs), whatever the number of senders.
    """
    # the runs where both are constant, (value, audience) never None, so a
    # stretch that `over` reports as None sent no message
    cells = tuple((first, span, (value, seen_by)) for v_first, v_span, value in values
                  for first, span, seen_by in over(audiences, v_first, v_first + v_span))
    tallies: dict[tuple[Run, ...], Counter] = {}
    counts = []
    for first, span, (value, seen_by) in cells:
        if seen_by not in tallies:
            tally = tallies[seen_by] = Counter()
            for a_first, a_span, _ in seen_by:
                for _, n, cell in over(cells, a_first, a_first + a_span):
                    if cell is not None:
                        tally[cell[0]] += n
        counts.append((first, span, tallies[seen_by][value]))
    return fold(counts)


def _honest_votes(state: RoundState, honest: range, view: list[TendermintMsg],
                  phase: MsgKind, f: int) -> Optional[int]:
    """The `phase` vote every honest validator sends; one counted message for all of them joins `view`.

    `state` stands for every validator in `honest` and is stepped once.  That is exact
    while they share one state and one view: `tm_step` reads no message of the phase it
    steps (a prevote reads the proposal and the prevotes of round vr < rho, a precommit
    the round-rho prevotes), so each would emit the same value and make the same lock
    update.  Honest validators with different states or views must each be stepped.
    """
    msg = tm_step(state, view, phase, honest.start, f)
    view.append(TendermintMsg(msg.kind, msg.height, msg.rho, msg.value, msg.sender, msg.vr, len(honest)))
    return msg.value


@dataclass(frozen=True)
class RoundRun:
    """What one play of a Tendermint game determines."""

    finalized_round: int  # -1 when no round finalized
    payoffs: SettledPayoffs  # per validator that sent votes: r per paid round


def _credit(rounds: tuple[Run, ...], paid: tuple[Run, ...]) -> tuple[Run, ...]:
    """`rounds`, runs `(first, span, paid rounds)`, with one more for each validator of `paid`'s runs."""
    for first, span, _ in paid:
        for piece_first, piece_span, count in over(rounds, first, first + span):
            rounds = put(rounds, piece_first, piece_span, count + 1)
    return rounds


class _TendermintGame(GameModel):
    """Nash-game adapter: one round-1 choice per rational validator.

    Each label of the attestor table in `CANDIDATES` is its own action, and a
    candidate of every rational validator; `PROFILES` names the playable
    profiles in which all of them take the same one.  Each distinct profile
    is played once per game object: `simulate` keeps the run, keyed by the
    profile's runs, which equal for equal profiles.  The rosters (`honest`,
    `adversarial`, `rational`) are ranges of indices, and a play reads the
    rational validators only as the profile's runs, so neither `__init__`
    nor a play works per validator.  The players take
    `GameModel.symmetry_classes`' shared key: every rational validator has
    one decision point, at slot 1 as an attestor, so two of them share a
    class when they take the same label.  That is sound because a run treats
    the validators of one label alike (`_playing`, the audiences of
    `evidence_counts`, the counted messages into a view whose quorums count
    distinct senders): swapping two of one label changes no run, so each
    one's deviation pays it what the other's pays the other.
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

    def payoffs(self, profile: StrategyProfile, start=None) -> Mapping[int, Fraction]:
        """A view of each rational validator's payoff; `start` is always None, as `play` records no checkpoint."""
        return _Payoffs(self, self.simulate(profile).payoffs.__getitem__)

    def play(self, profile: StrategyProfile):
        return self.payoffs(profile), {}

    def _playing(self, label: str, profile: StrategyProfile) -> tuple[Run, ...]:
        """The runs `(first, span, label)` of rational validators playing `label`, off the profile's runs."""
        (slot, role, actors), = self.groups
        return tuple(run for run in profile.over(slot, role, actors) if run[2] == label)

    def _paid(self, prevote_counts: tuple[Run, ...], precommit_counts: tuple[Run, ...],
              vote: tuple[int, int], inclusion: tuple[int, int]) -> tuple[Run, ...]:
        """The runs `(first, span, True)` of senders whose (rho, height) votes both pay r when included.

        Both counts are `evidence_counts` runs over the same senders.
        """
        pays = lambda count: tm_vote_reward(*vote, *inclusion, count, self.f)
        return fold((first, span, True) for pv_first, pv_span, count in prevote_counts if pays(count)
                    for first, span, count in over(precommit_counts, pv_first, pv_first + pv_span)
                    if pays(count))

    def _settled(self, paid_rounds: tuple[Run, ...]) -> SettledPayoffs:
        """r per paid round to each validator of the runs `(first, span, paid rounds)`."""
        return SettledPayoffs(tuple((first, span, (count, 0)) for first, span, count in paid_rounds),
                              self.r_unit, Fraction(0))


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
        self.honest = range(n_honest)
        self.adversarial = range(n_honest, n_honest + f)
        self.rational = range(n_honest + f, self.n)
        self.pack = range(n_honest, self.n)

    def _play(self, profile: StrategyProfile) -> RoundRun:
        f, m, height, honest = self.f, self.m, 1, self.honest
        n, k = self.n, len(honest)  # honest validators 0 .. k-1, the pack k .. n-1
        deviators = self._playing("honest-r1", profile)
        # the audiences: everyone, the pack and the rest, each one run
        everyone, pack, outside = ((0, n, True),), ((k, n - k, True),), ((0, k, True),)
        # precommits (all nil, as no round reaches a quorum): each side signs
        # its own side's with the next prevotes, alike in every round
        pc = evidence_counts(((0, n, NIL),), ((0, k, outside), (k, n - k, pack)))
        state = RoundState(height=height)  # every honest validator's
        view: list[TendermintMsg] = []  # the public messages
        paid_rounds: tuple[Run, ...] = ((0, n, 0),)
        for rho in range(1, m + 1):
            leader = honest[(rho - 1) % len(honest)]
            state.rho = rho
            proposal = tm_step(state, view, MsgKind.PROPOSAL, leader, f, fresh_value=100 + rho)
            view.append(proposal)
            block = proposal.value
            # honest validators follow the state machine, round-1 deviators
            # back the proposal openly, the rest of the pack nil-votes in
            # private; everyone sees the public prevotes, and only the pack
            # its private ones
            honest_prevote = _honest_votes(state, honest, view, MsgKind.PREVOTE, f)
            backers = deviators if rho == 1 else ()
            view += [TendermintMsg(MsgKind.PREVOTE, height, rho, block, first, span=span)
                     for first, span, _ in backers]
            prevotes = fold(((0, k, honest_prevote), (k, n - k, NIL)))
            audiences = ((0, k, everyone), (k, n - k, pack))
            for first, span, _ in backers:
                prevotes = put(prevotes, first, span, block)
                audiences = put(audiences, first, span, everyone)
            if sum(span for _, span, value in prevotes if value == block) >= 2 * f + 1:
                raise AssumptionViolated("withheld round unexpectedly reached quorum")
            if _honest_votes(state, honest, view, MsgKind.PRECOMMIT, f) is not NIL:
                raise AssumptionViolated("honest precommit without a quorum")
            pv = evidence_counts(prevotes, audiences)
            # included in round m+1, where everything surfaces and finalizes
            paid_rounds = _credit(paid_rounds, self._paid(pv, pc, (rho, height), (m + 1, height)))
        return RoundRun(m + 1, self._settled(paid_rounds))


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
        self.honest = range(f + 1)
        self.rational = range(f + 1, 2 * f + 1)
        self.adversarial = range(2 * f + 1, self.n)  # silent, worst case

    def _play(self, profile: StrategyProfile) -> RoundRun:
        f, height, rho, block = self.f, 1, 1, 100
        honest, rational = self.honest, self.rational
        state = RoundState(height=height)  # every honest validator's
        view: list[TendermintMsg] = []  # every message is public
        view.append(tm_step(state, view, MsgKind.PROPOSAL, honest.start, f, block))
        honest_prevote = _honest_votes(state, honest, view, MsgKind.PREVOTE, f)
        rational_prevotes = ((rational.start, len(rational), NIL),)
        for first, span, _ in self._playing("prevote-b", profile):
            rational_prevotes = put(rational_prevotes, first, span, block)
        view += [TendermintMsg(MsgKind.PREVOTE, height, rho, value, first, span=span)
                 for first, span, value in rational_prevotes]
        honest_precommit = _honest_votes(state, honest, view, MsgKind.PRECOMMIT, f)
        # the runs hold one vote per sender, so their summed spans are a quorum
        prevotes = fold(((honest.start, len(honest), honest_prevote), *rational_prevotes))
        quorum_b = sum(span for _, span, value in prevotes if value == block) >= 2 * f + 1
        precommits = fold(((honest.start, len(honest), honest_precommit),
                           (rational.start, len(rational), block if quorum_b else NIL)))
        finalized = sum(span for _, span, value in precommits if value == block) >= 2 * f + 1
        audiences = ((0, rational.stop, ((0, self.n, True),)),)  # every sender's seen by everyone
        pv, pc = evidence_counts(prevotes, audiences), evidence_counts(precommits, audiences)
        paid = self._paid(pv, pc, (rho, height), (1, height + 1))
        return RoundRun(rho if finalized else -1, self._settled(_credit(((0, rational.stop, 0),), paid)))


def honest_anchor_scenario(
    f: int, r_unit: Fraction = Fraction(1), max_joint_actions: int = 10**6
) -> AnchorResult:
    """Check `prevote-b`: Nash, its first honest-led round finalizes, and nil-prevoting forfeits.

    `deviation_forfeits` holds when, for each class's first member,
    `best_response` is `prevote-b` alone: it strictly beats every other
    label by `_sign`.  No other profile is checked, so `reorg_resilient`
    is a literal.
    """
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
