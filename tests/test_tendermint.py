from fractions import Fraction

import pytest

from reorglab.engine import DecisionPoint, Role
from reorglab.equilibrium import Verdict
from reorglab.tendermint import (
    AnchorGame,
    MsgKind,
    NIL,
    RoundState,
    TendermintMsg,
    TmEvidence,
    WithholdingGame,
    honest_anchor_scenario,
    prevote_evidence_valid,
    precommit_evidence_valid,
    tm_step,
    tm_vote_reward,
    withholding_attack_scenario,
)


def proposal(h=1, rho=1, value=100, sender=0, vr=-1):
    return TendermintMsg(MsgKind.PROPOSAL, h, rho, value, sender, vr)


def prevote(h=1, rho=1, value=100, sender=0):
    return TendermintMsg(MsgKind.PREVOTE, h, rho, value, sender)


def precommit(h=1, rho=1, value=100, sender=0):
    return TendermintMsg(MsgKind.PRECOMMIT, h, rho, value, sender)


class TestTmStep:
    def test_unlocked_prevotes_fresh_proposal(self):
        state = RoundState()
        view = [proposal()]
        msg = tm_step(state, view, MsgKind.PREVOTE, me=3, is_leader=False, f=1)
        assert msg.value == 100

    def test_locked_on_other_value_prevotes_nil(self):
        state = RoundState(rho=2, locked_round=1, locked_value=200,
                           valid_round=1, valid_value=200)
        view = [proposal(rho=2, value=100, vr=-1)]
        msg = tm_step(state, view, MsgKind.PREVOTE, me=3, is_leader=False, f=1)
        assert msg.value is NIL

    def test_lock_proof_unlocks(self):
        state = RoundState(rho=3, locked_round=1, locked_value=200,
                           valid_round=1, valid_value=200)
        view = [proposal(rho=3, value=100, vr=2)]
        view += [prevote(rho=2, value=100, sender=s) for s in range(3)]
        msg = tm_step(state, view, MsgKind.PREVOTE, me=3, is_leader=False, f=1)
        assert msg.value == 100

    def test_quorum_precommits_and_locks(self):
        state = RoundState()
        view = [proposal()] + [prevote(sender=s) for s in range(3)]
        msg = tm_step(state, view, MsgKind.PRECOMMIT, me=3, is_leader=False, f=1)
        assert msg.value == 100
        assert state.locked_round == 1 and state.locked_value == 100
        state.check_invariant()

    def test_no_quorum_precommits_nil(self):
        state = RoundState()
        view = [proposal()] + [prevote(sender=s) for s in range(2)]
        msg = tm_step(state, view, MsgKind.PRECOMMIT, me=3, is_leader=False, f=1)
        assert msg.value is NIL

    def test_leader_reproposes_valid_value(self):
        state = RoundState(rho=4, valid_round=2, valid_value=777)
        msg = tm_step(state, [], MsgKind.PROPOSAL, me=0, is_leader=True, f=1,
                      fresh_value=111)
        assert msg.value == 777 and msg.vr == 2


class TestPrevoteEvidence:
    def test_clause_i_same_value(self):
        ev = TmEvidence(MsgKind.PREVOTE, 5, prevote(sender=1, value=100))
        assert prevote_evidence_valid(ev, prevote(sender=5, value=100), 100, -1, f=1)

    def test_nil_with_lock_proof(self):
        just = tuple(prevote(rho=2, value=300, sender=s) for s in range(3))
        ev = TmEvidence(MsgKind.PREVOTE, 5, prevote(rho=3, value=NIL, sender=1), just)
        assert prevote_evidence_valid(
            ev, prevote(rho=3, value=100, sender=5), 100, 1, f=1
        )

    def test_nil_without_justification(self):
        ev = TmEvidence(MsgKind.PREVOTE, 5, prevote(value=NIL, sender=1))
        assert not prevote_evidence_valid(ev, prevote(sender=5, value=100), 100, -1, f=1)

    def test_stale_lock_proof_rejected(self):
        # rounds below the proposal's vr do not justify the nil prevote
        just = tuple(prevote(rho=1, value=300, sender=s) for s in range(3))
        ev = TmEvidence(MsgKind.PREVOTE, 5, prevote(rho=3, value=NIL, sender=1), just)
        assert not prevote_evidence_valid(
            ev, prevote(rho=3, value=100, sender=5), 100, 2, f=1
        )


class TestPrecommitEvidence:
    def test_clause_i(self):
        ev = TmEvidence(MsgKind.PRECOMMIT, 5, precommit(rho=2, sender=1, value=100))
        assert precommit_evidence_valid(ev, precommit(rho=2, sender=5, value=100),
                                        expected_rho=2, expected_height=1, f=1)

    def test_justified_by_forwarded_prevotes(self):
        just = tuple(prevote(rho=2, value=100, sender=s) for s in range(3))
        ev = TmEvidence(MsgKind.PRECOMMIT, 5, precommit(rho=2, sender=1, value=100), just)
        assert precommit_evidence_valid(ev, None, 2, 1, f=1)

    def test_threshold_short(self):
        just = tuple(prevote(rho=2, value=100, sender=s) for s in range(2))
        ev = TmEvidence(MsgKind.PRECOMMIT, 5, precommit(rho=2, sender=1, value=100), just)
        assert not precommit_evidence_valid(ev, None, 2, 1, f=1)

    def test_previous_height_linkage(self):
        # a round-1 prevote signs the last round of the previous height
        ev = TmEvidence(
            MsgKind.PRECOMMIT, 5, precommit(h=4, rho=7, sender=1, value=100)
        )
        assert precommit_evidence_valid(
            ev, precommit(h=4, rho=7, sender=5, value=100), 7, 4, f=1
        )
        assert not precommit_evidence_valid(
            ev, precommit(h=4, rho=7, sender=5, value=100), 6, 4, f=1
        )


class TestVoteReward:
    def test_earlier_round_same_height(self):
        assert tm_vote_reward(1, 5, 3, 5, evidence_count=3, f=1)

    def test_threshold(self):
        assert not tm_vote_reward(1, 5, 3, 5, evidence_count=2, f=1)

    def test_later_height_never(self):
        assert not tm_vote_reward(1, 6, 3, 5, evidence_count=5, f=1)

    def test_monotone_in_evidence(self):
        results = [tm_vote_reward(1, 5, 3, 5, n, f=1) for n in range(8)]
        assert results == sorted(results)


class TestWithholding:
    def test_acceptance_case(self):
        res = withholding_attack_scenario(1, 2, Fraction(1))
        assert res.stalled_rounds == 2
        assert res.finalized_round == 3
        assert res.payoff_per_nonhonest == 2
        assert res.report.verdict is Verdict.NASH

    @pytest.mark.parametrize("f", [1, 2, 3])
    @pytest.mark.parametrize("m", [0, 1, 2, 4])
    def test_stalls_exactly_m_rounds(self, f, m):
        res = withholding_attack_scenario(f, m, Fraction(1))
        assert res.stalled_rounds == m
        assert res.finalized_round == m + 1
        assert res.payoff_per_nonhonest == m

    def test_honest_validators_earn_nothing(self):
        game = WithholdingGame(1, 2, Fraction(1))
        res = game.simulate(game.profile("script"))
        for v in game.honest:
            assert res.payoffs[v] == 0

    def test_deviation_strictly_loses_a_round(self):
        game = WithholdingGame(1, 2, Fraction(1))
        profile = game.profile("script")
        deviator = game.rational[0]
        dp = DecisionPoint(1, Role.ATTESTOR, deviator)
        deviated = profile.with_action(dp, "honest-r1")
        assert game.payoffs(deviated)[deviator] == 1
        assert game.payoffs(profile)[deviator] == 2


class TestAnchor:
    @pytest.mark.parametrize("f", [1, 2, 3])
    def test_finalizes_first_honest_round(self, f):
        res = honest_anchor_scenario(f)
        assert res.first_finalized_round == 1
        assert res.reorg_resilient
        assert res.report.verdict is Verdict.NASH

    def test_nil_prevote_forfeits(self):
        res = honest_anchor_scenario(1)
        assert res.deviation_forfeits

    def test_compliant_rational_paid(self):
        game = AnchorGame(2)
        res = game.simulate(game.profile("prevote-b"))
        for v in game.rational:
            assert res.payoffs[v] == 1

    def test_simulation_claims_no_verdict(self):
        # a bare simulation has verified nothing; only the scenario fills these
        game = AnchorGame(2)
        res = game.simulate(game.profile("prevote-b"))
        assert res.report is None and res.deviation_forfeits is None
        game = WithholdingGame(1, 2, Fraction(1))
        assert game.simulate(game.profile("script")).report is None

    def test_state_invariant_held(self):
        state = RoundState()
        view = [proposal()] + [prevote(sender=s) for s in range(3)]
        tm_step(state, view, MsgKind.PRECOMMIT, me=9, is_leader=False, f=1)
        state.check_invariant()
