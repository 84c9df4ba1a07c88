"""Tendermint rounds with the decentralized evidence-based reward mechanism.

Heights split into rounds of three lock-step phases (proposal, prevote,
precommit).  A prevote or precommit earns its reward only when it is
included in a finalized block of later coordinates and carries 2f+1 unique
evidences: signatures by validators that either sent the matching message
themselves or verified the forwarded justification.

Two scenarios from the analysis are executable:

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
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .engine import DecisionPoint, Role, StrategyProfile
from .equilibrium import EquilibriumReport, verify_nash
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


@dataclass(frozen=True)
class TmEvidence:
    kind: MsgKind  # kind of the attested message
    signer: int
    attested: TendermintMsg
    justification: tuple[TendermintMsg, ...] = ()

    def key(self):
        a = self.attested
        return (self.kind, self.signer, a.sender, a.height, a.rho, a.value)


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
    is_leader: bool,
    f: int,
    fresh_value: Optional[int] = None,
) -> Optional[TendermintMsg]:
    """One honest step of the round state machine; returns the emitted message.

    Proposal: a leader re-proposes its validValue when it has one, else the
    fresh block.  Prevote: back the proposal if unlocked, locked on the same
    value, or shown a lock proof at least as recent as our own; otherwise
    nil.  Precommit: on a 2f+1 prevote quorum for the proposal, else nil.
    """
    h, rho = state.height, state.rho
    if phase is MsgKind.PROPOSAL:
        if not is_leader:
            return None
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


def prevote_evidence_valid(
    ev: TmEvidence,
    signer_prevote: Optional[TendermintMsg],
    proposal_value: Optional[int],
    proposal_vr: int,
    f: int,
) -> bool:
    """Validity of a signature over another validator's (rho, h) prevote.

    (i) the signer sent the same-value prevote itself; or (ii) the attested
    prevote is nil, the signer prevoted the proposal, and the nil-prevoter
    forwarded a 2f+1 lock proof for a conflicting block from a round at
    least vr.
    """
    a = ev.attested
    if a.kind is not MsgKind.PREVOTE:
        return False
    if signer_prevote is not None and signer_prevote.value == a.value:
        return True
    if a.value is not NIL:
        return False
    if signer_prevote is None or proposal_value is None:
        return False
    if signer_prevote.value != proposal_value:
        return False
    just = ev.justification
    if not just:
        return False
    rounds = {m.rho for m in just}
    values = {m.value for m in just}
    senders = {m.sender for m in just}
    if len(rounds) != 1 or len(values) != 1:
        return False
    (r_prime,) = rounds
    (b_pp,) = values
    return (
        all(m.kind is MsgKind.PREVOTE and m.height == a.height for m in just)
        and b_pp is not NIL
        and b_pp != proposal_value
        and r_prime >= proposal_vr
        and len(senders) >= 2 * f + 1
    )


def precommit_evidence_valid(
    ev: TmEvidence,
    signer_precommit: Optional[TendermintMsg],
    expected_rho: int,
    expected_height: int,
    f: int,
) -> bool:
    """Validity of a signature over a previous-round (or -height) precommit.

    The attested coordinates must match the round preceding the signer's
    prevote (the last round of the previous height when the signer is in
    round 1).  (i) the signer precommitted the same value then; or (ii) the
    precommitter forwarded the 2f+1 prevotes that justified it.
    """
    a = ev.attested
    if a.kind is not MsgKind.PRECOMMIT:
        return False
    if a.rho != expected_rho or a.height != expected_height:
        return False
    if signer_precommit is not None and signer_precommit.value == a.value:
        return True
    just = ev.justification
    senders = {m.sender for m in just}
    return (
        len(just) > 0
        and all(
            m.kind is MsgKind.PREVOTE
            and m.height == a.height
            and m.rho == a.rho
            and m.value == a.value
            for m in just
        )
        and len(senders) >= 2 * f + 1
    )


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


# ---------------------------------------------------------------------------
# scenario: withholding liveness attack
# ---------------------------------------------------------------------------


@dataclass
class WithholdingResult:
    stalled_rounds: int
    finalized_round: int
    payoff_per_nonhonest: Fraction
    payoffs: dict[int, Fraction]
    report: Optional[EquilibriumReport] = None  # set once verify_nash has run


class WithholdingGame(GameModel):
    """Nash-game adapter: each rational validator follows or breaks the pack.

    n = 3f+1 validators; the first m rounds are led (with reuse) by fewer
    than f+1 honest validators, so the non-honest pack keeps a 2f+1 quorum
    of evidence signers.  Candidates per rational player: follow the script,
    or prevote the round-1 honest proposal openly.
    """

    PROFILES = {"script": ("script",), "honest-r1": ("honest-r1",)}

    def __init__(self, f: int, m: int, r_unit: Fraction):
        self.f = f
        self.m = m
        self.r_unit = Fraction(r_unit)
        self.n = 3 * f + 1
        n_honest = min(m, f) if m > 0 else min(1, f)
        self.honest = list(range(n_honest))
        self.adversarial = list(range(n_honest, n_honest + f))
        self.rational = list(range(n_honest + f, self.n))
        self.pack = self.adversarial + self.rational
        if m > 0 and len(self.pack) < 2 * f + 1:
            raise AssumptionViolated("the pack must keep a 2f+1 evidence quorum")

    def decision_points(self):
        return [DecisionPoint(1, Role.ATTESTOR, v) for v in self.rational]

    def dp_candidates(self, dp):
        return [("script", "script"), ("honest-r1", "honest-r1")]

    def simulate(self, profile: StrategyProfile) -> WithholdingResult:
        f, m, r = self.f, self.m, self.r_unit
        height = 1
        deviators = {
            dp.actor
            for dp in self.decision_points()
            if profile.get(dp) == "honest-r1"
        }
        # evidence signers per (kind, rho, sender)
        signers: dict[tuple, set[int]] = {}

        def sign(kind: MsgKind, rho: int, sender: int, signer: int) -> None:
            signers.setdefault((kind, rho, sender), set()).add(signer)

        honest_states = {v: RoundState(height=height) for v in self.honest}
        prevote_value: dict[tuple[int, int], Optional[int]] = {}
        view_public: list[TendermintMsg] = []

        for rho in range(1, m + 1):
            leader = self.honest[(rho - 1) % len(self.honest)]
            for v in self.honest:
                honest_states[v].rho = rho
            proposal = tm_step(
                honest_states[leader], view_public, MsgKind.PROPOSAL,
                leader, True, f, fresh_value=100 + rho,
            )
            view_public.append(proposal)
            block = proposal.value
            # prevotes: honest follow the state machine, round-1 deviators
            # back the proposal openly, the rest of the pack nil-votes in
            # private
            for v in self.honest:
                msg = tm_step(
                    honest_states[v], view_public, MsgKind.PREVOTE, v, v == leader, f
                )
                prevote_value[(rho, v)] = msg.value
                view_public.append(msg)
            for v in self.pack:
                if rho == 1 and v in deviators:
                    prevote_value[(rho, v)] = block
                    view_public.append(
                        TendermintMsg(MsgKind.PREVOTE, height, rho, block, v)
                    )
                else:
                    prevote_value[(rho, v)] = NIL
            backers = [v for v in self.n_range() if prevote_value[(rho, v)] == block]
            if len(backers) >= 2 * f + 1:
                raise AssumptionViolated("withheld round unexpectedly reached quorum")
            for v in self.honest:
                msg = tm_step(
                    honest_states[v], view_public, MsgKind.PRECOMMIT, v, v == leader, f
                )
                if msg.value is not NIL:
                    raise AssumptionViolated("honest precommit without a quorum")
                view_public.append(msg)
            # precommits are nil everywhere (no quorum); evidence creation:
            # honest sign matching public prevotes, the pack signs the pack
            for signer in self.honest:
                for v in self.n_range():
                    public = v in self.honest or (rho == 1 and v in deviators)
                    if public and prevote_value[(rho, v)] == block:
                        sign(MsgKind.PREVOTE, rho, v, signer)
            for signer in self.pack:
                mine = prevote_value[(rho, signer)]
                for v in self.pack:
                    if prevote_value[(rho, v)] == mine:
                        sign(MsgKind.PREVOTE, rho, v, signer)
                if rho == 1 and signer in deviators:
                    for v in self.n_range():
                        if prevote_value[(rho, v)] == block:
                            sign(MsgKind.PREVOTE, rho, v, signer)
            # precommit evidences for the pack's nil precommits (created with
            # the next round's prevotes, self-signing included)
            for signer in self.pack:
                for v in self.pack:
                    sign(MsgKind.PRECOMMIT, rho, v, signer)
            for signer in self.honest:
                for v in self.honest:
                    sign(MsgKind.PRECOMMIT, rho, v, signer)

        # round m+1: everything surfaces, a non-honest leader finalizes
        finalized_round = m + 1
        payoffs: dict[int, Fraction] = {v: Fraction(0) for v in self.n_range()}
        for v in self.n_range():
            for rho in range(1, m + 1):
                pv = len(signers.get((MsgKind.PREVOTE, rho, v), ()))
                pc = len(signers.get((MsgKind.PRECOMMIT, rho, v), ()))
                prevote_ok = tm_vote_reward(rho, height, finalized_round, height, pv, f)
                precommit_ok = tm_vote_reward(rho, height, finalized_round, height, pc, f)
                if prevote_ok and precommit_ok:
                    payoffs[v] += r
        per_nonhonest = payoffs[self.pack[0]] if self.pack else Fraction(0)
        return WithholdingResult(
            stalled_rounds=m,
            finalized_round=finalized_round,
            payoff_per_nonhonest=per_nonhonest,
            payoffs=payoffs,
        )

    def n_range(self):
        return range(self.n)

    def payoffs(self, profile: StrategyProfile) -> dict[int, Fraction]:
        result = self.simulate(profile)
        return {v: result.payoffs[v] for v in self.rational}


def withholding_attack_scenario(
    f: int, m: int, r_unit: Fraction = Fraction(1), max_joint_actions: int = 10**6
) -> WithholdingResult:
    """Stall m honest-led rounds, finalize at m+1, pay the pack r*m each."""
    game = WithholdingGame(f, m, Fraction(r_unit))
    result = game.simulate(game.profile("script"))
    result.report = verify_nash(game, game.profile("script"), max_joint_actions=max_joint_actions)
    return result


# ---------------------------------------------------------------------------
# scenario: honest anchor
# ---------------------------------------------------------------------------


@dataclass
class AnchorResult:
    first_finalized_round: int
    reorg_resilient: bool
    payoffs: dict[int, Fraction]
    # set by honest_anchor_scenario once the deviations have been played
    deviation_forfeits: Optional[bool] = None
    report: Optional[EquilibriumReport] = None


class AnchorGame(GameModel):
    """Round led by an honest leader with f+1 honest validators present."""

    PROFILES = {"prevote-b": ("prevote-b",), "prevote-nil": ("prevote-nil",)}

    def __init__(self, f: int, r_unit: Fraction = Fraction(1)):
        self.f = f
        self.r_unit = Fraction(r_unit)
        self.n = 3 * f + 1
        self.honest = list(range(f + 1))
        self.rational = list(range(f + 1, 2 * f + 1))
        self.adversarial = list(range(2 * f + 1, self.n))  # silent, worst case

    def decision_points(self):
        return [DecisionPoint(1, Role.ATTESTOR, v) for v in self.rational]

    def dp_candidates(self, dp):
        return [("prevote-b", "prevote-b"), ("prevote-nil", "prevote-nil")]

    def simulate(self, profile: StrategyProfile) -> AnchorResult:
        f, r = self.f, self.r_unit
        height, rho = 1, 1
        block = 100
        leader = self.honest[0]
        states = {v: RoundState(height=height) for v in self.honest}
        view: list[TendermintMsg] = []
        proposal = tm_step(
            states[leader], view, MsgKind.PROPOSAL, leader, True, f, fresh_value=block
        )
        view.append(proposal)
        prevotes: dict[int, Optional[int]] = {}
        for v in self.honest:
            msg = tm_step(states[v], view, MsgKind.PREVOTE, v, v == leader, f)
            prevotes[v] = msg.value
            view.append(msg)
        for v in self.rational:
            choice = profile.get(DecisionPoint(1, Role.ATTESTOR, v))
            value = block if choice == "prevote-b" else NIL
            prevotes[v] = value
            view.append(TendermintMsg(MsgKind.PREVOTE, height, rho, value, v))

        precommits: dict[int, Optional[int]] = {}
        for v in self.honest:
            msg = tm_step(states[v], view, MsgKind.PRECOMMIT, v, v == leader, f)
            precommits[v] = msg.value
            view.append(msg)
        quorum_b = _quorum(view, MsgKind.PREVOTE, height, rho, block, f)
        for v in self.rational:
            precommits[v] = block if quorum_b else NIL
            view.append(TendermintMsg(MsgKind.PRECOMMIT, height, rho, precommits[v], v))
        finalized = _quorum(view, MsgKind.PRECOMMIT, height, rho, block, f)

        # evidence: clause (i) signatures among matching public messages
        signers: dict[tuple, set[int]] = {}
        participants = self.honest + self.rational
        for signer in participants:
            for v in participants:
                if prevotes[v] == prevotes[signer]:
                    signers.setdefault((MsgKind.PREVOTE, v), set()).add(signer)
                if precommits[v] == precommits[signer]:
                    signers.setdefault((MsgKind.PRECOMMIT, v), set()).add(signer)

        payoffs: dict[int, Fraction] = {}
        for v in participants:
            pv = len(signers.get((MsgKind.PREVOTE, v), ()))
            pc = len(signers.get((MsgKind.PRECOMMIT, v), ()))
            prevote_ok = tm_vote_reward(rho, height, 1, height + 1, pv, f)
            precommit_ok = tm_vote_reward(rho, height, 1, height + 1, pc, f)
            payoffs[v] = r if (prevote_ok and precommit_ok) else Fraction(0)
        return AnchorResult(
            first_finalized_round=1 if finalized else -1,
            reorg_resilient=finalized,
            payoffs=payoffs,
        )

    def payoffs(self, profile: StrategyProfile) -> dict[int, Fraction]:
        result = self.simulate(profile)
        return {v: result.payoffs[v] for v in self.rational}


def honest_anchor_scenario(
    f: int, r_unit: Fraction = Fraction(1), max_joint_actions: int = 10**6
) -> AnchorResult:
    """First honest-led round finalizes; nil-prevoting forfeits the round."""
    game = AnchorGame(f, r_unit)
    profile = game.profile("prevote-b")
    result = game.simulate(profile)
    if result.first_finalized_round != 1:
        raise AssumptionViolated("honest-led round failed to finalize")
    result.report = verify_nash(game, profile, max_joint_actions=max_joint_actions)
    # a nil-prevote deviation earns no honest evidence and forfeits the round
    forfeits = True
    for dp in game.decision_points():
        dev = profile.with_action(dp, game.action(dp, "prevote-nil"))
        if game.payoffs(dev)[dp.actor] >= result.payoffs[dp.actor]:
            forfeits = False
    result.deviation_forfeits = forfeits
    return result
