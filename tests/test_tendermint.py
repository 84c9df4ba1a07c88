"""Tendermint round machine, evidence rules and the two scenarios.

The payoff table below pins every validator's payoff in both games under the
prescribed profile and its deviations; print its fresh digest with

    PYTHONPATH=src python tests/test_tendermint.py
"""

import hashlib
import itertools
import json
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from reorglab import tendermint
from reorglab.engine import DecisionPoint, Role
from reorglab.equilibrium import Verdict
from reorglab.games import AssumptionViolated
from reorglab.tendermint import (
    AnchorGame,
    MsgKind,
    NIL,
    RoundState,
    TendermintMsg,
    WithholdingGame,
    evidence_counts,
    honest_anchor_scenario,
    tm_step,
    tm_vote_reward,
    withholding_attack_scenario,
)

import tendermint_rounds
from tendermint_evidence import TmEvidence, precommit_evidence_valid, prevote_evidence_valid


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
        msg = tm_step(state, view, MsgKind.PREVOTE, me=3, f=1)
        assert msg.value == 100

    def test_locked_on_other_value_prevotes_nil(self):
        state = RoundState(rho=2, locked_round=1, locked_value=200,
                           valid_round=1, valid_value=200)
        view = [proposal(rho=2, value=100, vr=-1)]
        msg = tm_step(state, view, MsgKind.PREVOTE, me=3, f=1)
        assert msg.value is NIL

    def test_lock_proof_unlocks(self):
        state = RoundState(rho=3, locked_round=1, locked_value=200,
                           valid_round=1, valid_value=200)
        view = [proposal(rho=3, value=100, vr=2)]
        view += [prevote(rho=2, value=100, sender=s) for s in range(3)]
        msg = tm_step(state, view, MsgKind.PREVOTE, me=3, f=1)
        assert msg.value == 100

    def test_quorum_precommits_and_locks(self):
        state = RoundState()
        view = [proposal()] + [prevote(sender=s) for s in range(3)]
        msg = tm_step(state, view, MsgKind.PRECOMMIT, me=3, f=1)
        assert msg.value == 100
        assert state.locked_round == 1 and state.locked_value == 100
        state.check_invariant()

    def test_no_quorum_precommits_nil(self):
        state = RoundState()
        view = [proposal()] + [prevote(sender=s) for s in range(2)]
        msg = tm_step(state, view, MsgKind.PRECOMMIT, me=3, f=1)
        assert msg.value is NIL

    def test_leader_reproposes_valid_value(self):
        state = RoundState(rho=4, valid_round=2, valid_value=777)
        msg = tm_step(state, [], MsgKind.PROPOSAL, me=0, f=1,
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


VALUES = st.sampled_from([NIL, 100, 200])
SENDERS = range(7)
VALIDATORS = st.integers(0, 9)  # 7-9 never send, so they must never sign


def pairwise_evidence_counts(values, audience) -> dict[int, int]:
    """The clause-(i) count as one check per (signer, sender) pair: the reference."""
    return {
        sender: sum(1 for signer, mine in values.items()
                    if mine == value and signer in audience(sender))
        for sender, value in values.items()
    }


@st.composite
def audiences(draw, senders):
    """Each sender's audience: one of a few shared sets, a set of its own, or itself alone."""
    shared = draw(st.lists(st.frozensets(VALIDATORS), min_size=1, max_size=3))
    audience = {}
    for sender in senders:
        kind = draw(st.sampled_from(["shared", "own", "alone"]))
        if kind == "shared":
            audience[sender] = draw(st.sampled_from(shared))
        elif kind == "own":
            audience[sender] = draw(st.frozensets(VALIDATORS))
        else:
            audience[sender] = frozenset({sender})
    return audience


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), values=st.dictionaries(st.sampled_from(SENDERS), VALUES, min_size=1))
def test_evidence_counts_match_the_pairwise_count(data, values):
    audience = data.draw(audiences(sorted(values)))
    assert evidence_counts(values, audience.__getitem__) == pairwise_evidence_counts(
        values, audience.__getitem__
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(values=st.dictionaries(st.integers(0, 6), VALUES, min_size=1), proposed=VALUES)
def test_evidence_counts_match_clause_i(values, proposed):
    # with every message visible, the scenarios' signature count is the number
    # of signers whose unjustified evidence the spec predicates accept
    everyone = frozenset(values)
    counts = evidence_counts(values, lambda sender: everyone)
    for sender, value in values.items():
        pv, pc = prevote(value=value, sender=sender), precommit(value=value, sender=sender)
        prevote_signers = sum(
            prevote_evidence_valid(TmEvidence(MsgKind.PREVOTE, s, pv), prevote(value=mine, sender=s),
                                   proposed, -1, f=1)
            for s, mine in values.items()
        )
        precommit_signers = sum(
            precommit_evidence_valid(TmEvidence(MsgKind.PRECOMMIT, s, pc),
                                     precommit(value=mine, sender=s), 1, 1, f=1)
            for s, mine in values.items()
        )
        assert counts[sender] == prevote_signers == precommit_signers


def test_evidence_counts_sign_only_what_the_signer_sees():
    # no payoff in either scenario turns on visibility (the withheld
    # prevotes are nil, and only the pack votes nil), so pin it here
    values = {0: 100, 1: 100, 2: NIL, 3: NIL}
    alone = evidence_counts(values, lambda sender: frozenset({sender}))
    assert alone == {0: 1, 1: 1, 2: 1, 3: 1}
    everyone = frozenset(range(6))  # 4 and 5 sent nothing, so they sign nothing
    hidden_3 = evidence_counts(values, lambda sender: frozenset({3}) if sender == 3 else everyone)
    assert hidden_3 == {0: 2, 1: 2, 2: 2, 3: 1}


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
        deviated = profile.with_actions({dp: "honest-r1"})
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
        # at r = 0 a nil-prevote pays what prevote-b pays, so it forfeits nothing
        assert not honest_anchor_scenario(1, Fraction(0)).deviation_forfeits

    def test_compliant_rational_paid(self):
        game = AnchorGame(2)
        res = game.simulate(game.profile("prevote-b"))
        for v in game.rational:
            assert res.payoffs[v] == 1

    def test_simulation_claims_no_verdict(self):
        # a bare simulation has verified nothing; only the scenarios carry these
        game = AnchorGame(2)
        res = game.simulate(game.profile("prevote-b"))
        assert not hasattr(res, "report") and not hasattr(res, "deviation_forfeits")
        game = WithholdingGame(1, 2, Fraction(1))
        assert not hasattr(game.simulate(game.profile("script")), "report")

    def test_state_invariant_held(self):
        state = RoundState()
        view = [proposal()] + [prevote(sender=s) for s in range(3)]
        tm_step(state, view, MsgKind.PRECOMMIT, me=9, f=1)
        state.check_invariant()


def _played(game, profile):
    """Every validator's payoff in one play, or the exception it raised."""
    try:
        run = game.simulate(profile)
    except AssumptionViolated as exc:
        return f"{type(exc).__name__}: {exc}"
    return {str(v): str(p) for v, p in sorted(run.payoffs.items())}


def payoff_table() -> dict[str, object]:
    """Both games over small f: prescribed profiles and their deviations."""
    table = {}
    for f, m in itertools.product(range(1, 5), range(5)):
        game = WithholdingGame(f, m, Fraction(1))
        script = game.profile("script")
        profiles = {"script": script}
        dps = game.points
        for dp in dps:
            profiles[f"dev-{dp.actor}"] = script.with_actions({dp: "honest-r1"})
        a, b = dps[:2]
        profiles[f"dev-{a.actor}-{b.actor}"] = script.with_actions(
            {a: "honest-r1", b: "honest-r1"})
        for name, profile in profiles.items():
            table[f"withholding f={f} m={m} {name}"] = _played(game, profile)
    for f in range(1, 5):
        game = AnchorGame(f)
        dps = game.points
        for labels in itertools.product(("prevote-b", "prevote-nil"), repeat=len(dps)):
            chosen = dict(zip(dps, labels))
            profile = game.labelled(chosen.__getitem__)
            table[f"anchor f={f} {' '.join(labels)}"] = _played(game, profile)
    return table


def table_digest() -> str:
    text = json.dumps(payoff_table(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


PAYOFF_TABLE_SHA256 = "d7de1bdd0088ac6a948049a3ea8cf01fb0e838fe0bf4f8089aa7e0f3057323f8"


def test_payoff_table_unchanged():
    assert table_digest() == PAYOFF_TABLE_SHA256


@st.composite
def tendermint_plays(draw):
    """A Tendermint game with f <= 40, at f > 5 in about one example of ten, and a
    profile: every rational validator takes one label, or each a random one."""
    f = draw(st.integers(6, 40) if draw(st.integers(0, 9)) == 0 else st.integers(1, 5))
    r_unit = Fraction(draw(st.integers(1, 3)))
    if draw(st.booleans()):
        game = WithholdingGame(f, draw(st.integers(0, 4)), r_unit)
    else:
        game = AnchorGame(f, r_unit)
    dps = game.points
    offered = list(game.candidates(dps[0]))
    if draw(st.booleans()):
        labels = [draw(st.sampled_from(offered))] * len(dps)
    else:
        labels = draw(st.lists(st.sampled_from(offered), min_size=len(dps), max_size=len(dps)))
    return game, game.labelled(dict(zip(dps, labels)).__getitem__)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(played=tendermint_plays())
def test_games_match_the_per_validator_reference(played):
    # the games step one replica for all honest validators; the reference
    # steps each validator's own state and appends each message as it is sent
    game, profile = played

    def outcome(play):
        try:
            run = play(game, profile)
        except AssumptionViolated as exc:
            return f"AssumptionViolated: {exc}"
        return run.finalized_round, dict(run.payoffs)

    assert outcome(type(game).simulate) == outcome(tendermint_rounds.play)


def _count_calls(monkeypatch, game_class) -> Counter:
    """Counts the profiles `game_class` plays (`simulate` plays each distinct one
    once) and the `tm_step` calls they make."""
    calls = Counter()
    play, step = game_class._play, tendermint.tm_step

    def playing(self, profile):
        calls["plays"] += 1
        return play(self, profile)

    def stepping(*args, **kwargs):
        calls["steps"] += 1
        return step(*args, **kwargs)

    monkeypatch.setattr(game_class, "_play", playing)
    monkeypatch.setattr(tendermint, "tm_step", stepping)
    return calls


@pytest.mark.parametrize("f", [1, 3, 14, 120])
def test_anchor_plays_two_profiles_at_any_f(monkeypatch, f):
    # the base profile and one nil-prevote deviation for the whole class of
    # rational validators, which the forfeit check reads again from the cache;
    # each play steps the honest replica once per phase
    calls = _count_calls(monkeypatch, AnchorGame)
    res = honest_anchor_scenario(f)
    assert calls == {"plays": 2, "steps": 2 * 3}
    assert res.report.checked == 2 * f and res.deviation_forfeits


@pytest.mark.parametrize("f", [1, 3, 14, 120])
def test_withholding_plays_two_profiles_at_any_f(monkeypatch, f):
    # the script and one honest-r1 deviation for the whole pack, each stepping
    # the honest replica once per phase of each of the m = 3 withheld rounds
    calls = _count_calls(monkeypatch, WithholdingGame)
    res = withholding_attack_scenario(f, 3)
    assert calls == {"plays": 2, "steps": 2 * 3 * 3}
    assert res.report.checked == 2 * len(WithholdingGame(f, 3, Fraction(1)).rational)


def test_withholding_without_honest_leader_rejected():
    with pytest.raises(AssumptionViolated, match="honest"):
        withholding_attack_scenario(0, 1)


if __name__ == "__main__":
    for key, value in payoff_table().items():
        print(key, value)
    print(table_digest(), file=sys.stderr)
