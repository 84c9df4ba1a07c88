import itertools
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reorglab import equilibrium
from reorglab.engine import DecisionPoint, Role, StrategyProfile, VoteFor
from reorglab.games import (
    DagVotesGame,
    ExtendedGame,
    GameConfig,
    GameError,
    PoolSpec,
    SelfishMiningGame,
    SimpleGame,
    StrongSimpleGame,
)
from reorglab.equilibrium import (
    Dominance,
    ExplosionGuard,
    Verdict,
    best_response,
    dag_security_scenario,
    dominance_check,
    verify_nash,
    verify_spne,
)
from reorglab.tendermint import AnchorGame

import closed_forms
from engine_games import games, labelled_profile
from expansion import report_members


def simple_config(**kw):
    base = dict(committee_size=4, boost=2)
    base.update(kw)
    return GameConfig(**base)


class TestBestResponse:
    def test_compliance_unique_best_against_compliant_others(self):
        game = SimpleGame(simple_config())
        profile = game.profile("compliant-all")
        player = game.players()[0]
        assert best_response(game, profile, player) == {"C"}

    def test_all_tied_when_attack_fails_anyway(self):
        game = SimpleGame(simple_config())
        profile = game.profile("vote-bt-all")
        player = game.players()[0]
        # everyone else votes B_t: any action earns 0
        assert best_response(game, profile, player) == {"C", "NC", "abstain"}

    def test_single_candidate(self):
        game = SimpleGame(simple_config())
        profile = game.profile("compliant-all")
        player = game.players()[0]
        dp = DecisionPoint(SimpleGame.SLOT_T, Role.ATTESTOR, player)
        only = [("C", {dp: "C"})]
        assert best_response(game, profile, player, only) == {"C"}


class TestVerifyNash:
    def test_compliant_profile_nash(self):
        game = SimpleGame(simple_config())
        report = verify_nash(game, game.profile("compliant-all"))
        assert report.verdict is Verdict.NASH

    def test_failing_profile_also_nash(self):
        game = SimpleGame(simple_config())
        report = verify_nash(game, game.profile("vote-bt-all"))
        assert report.verdict is Verdict.NASH

    def test_deviation_found_and_sound(self):
        # one hold-out voting B_t against compliant others loses r; the lab
        # must find the compliant deviation and its replay must match
        game = SimpleGame(simple_config())
        profile = game.profile("compliant-all")
        hold_out = game.players()[-1]
        dp = DecisionPoint(SimpleGame.SLOT_T, Role.ATTESTOR, hold_out)
        profile = profile.with_actions({dp: "NC"})
        report = verify_nash(game, profile)
        assert report.verdict is Verdict.NOT_EQUILIBRIUM
        _, label, baseline, deviated = next(d for d in report_members(report)[0] if d[0] == hold_out)
        assert label == "C"
        replayed = game.payoffs(profile.with_actions({dp: "C"}))
        assert replayed[hold_out] == deviated
        assert deviated - baseline == Fraction(1)

    def test_constant_payoff_game_always_nash(self):
        game = SimpleGame(simple_config(r=Fraction(0), R=Fraction(0)))
        for name in ("compliant-all", "vote-bt-all", "abstain-all"):
            assert verify_nash(game, game.profile(name)).verdict is Verdict.NASH

    def test_exhaustive_unilateral_count(self):
        game = SimpleGame(simple_config())
        report = verify_nash(game, game.profile("compliant-all"))
        expected = sum(len(game.assignments(p)) for p in game.players())
        assert report.checked == expected

    @pytest.mark.parametrize("pool", [None, PoolSpec(2)])
    def test_roster_listed_once(self, pool, monkeypatch):
        # the decision points are listed a number of times that does not grow with W
        def roster_calls(W):
            game = SimpleGame(simple_config(committee_size=W, boost=W * 2 // 5, pool=pool))
            profile = game.profile("compliant-all")
            calls = {"_decision_points": 0}
            for name in calls:
                def counted(self, *args, _name=name, _fn=getattr(SimpleGame, name)):
                    calls[_name] += 1
                    return _fn(self, *args)

                monkeypatch.setattr(SimpleGame, name, counted)
            verify_nash(game, profile)
            monkeypatch.undo()
            return calls

        small, large = roster_calls(8), roster_calls(32)
        assert large["_decision_points"] == small["_decision_points"]

    def test_vote_actions_built_do_not_grow_with_w(self, monkeypatch):
        # a profile names its actions by label, so a check reads each game's
        # table and builds only the votes its runs cast for honest voters
        built = []
        init = VoteFor.__init__

        def counted(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(VoteFor, "__init__", counted)
        counts = []
        for W in (128, 512):
            game = SimpleGame(simple_config(committee_size=W, boost=W * 2 // 5))
            built.clear()
            assert verify_nash(game, game.profile("compliant-all")).verdict is Verdict.NASH
            counts.append(len(built))
        assert counts[0] == counts[1]

    def test_explosion_guard(self):
        game = SimpleGame(simple_config())
        with pytest.raises(ExplosionGuard):
            verify_nash(game, game.profile("compliant-all"), max_joint_actions=3)

    def test_guard_counts_before_any_run(self, monkeypatch):
        # the count is 3 candidates per attestor, fixed before the base run
        W = 2048
        game = SimpleGame(simple_config(committee_size=W, boost=W * 2 // 5))
        profile = game.profile("compliant-all")

        def refuse(*args):
            raise AssertionError("a run was played before the guard")

        with monkeypatch.context() as patched:
            for name in ("play", "run", "payoffs"):
                patched.setattr(game, name, refuse)
            with pytest.raises(ExplosionGuard, match=f"{3 * W} deviation simulations"):
                verify_nash(game, profile, max_joint_actions=3 * W - 1)
        assert verify_nash(game, profile, max_joint_actions=3 * W).checked == 3 * W

    @pytest.mark.parametrize("hold_outs", [(), ("NC", "abstain")])
    def test_label_reads_count_runs_not_voters(self, monkeypatch, hold_outs):
        # a check reads labels run by run: a few dozen reads at W=4096, where
        # one read per voter per run would make about 16k
        W = 4096
        game = SimpleGame(simple_config(committee_size=W, boost=W * 2 // 5))
        (slot, role, actors), = game.groups
        profile = game.profile("compliant-all").with_actions(
            {DecisionPoint(slot, role, v): label for v, label in zip((actors[1], actors[W // 2]), hold_outs)})
        reads = []
        get, over = StrategyProfile.get, StrategyProfile.over

        def counted_over(self, *args):
            for run in over(self, *args):
                reads.append(run)
                yield run

        monkeypatch.setattr(StrategyProfile, "get", lambda self, dp: reads.append(dp) or get(self, dp))
        monkeypatch.setattr(StrategyProfile, "over", counted_over)
        report = verify_nash(game, profile)
        assert report.checked == 3 * W
        assert 0 < len(reads) <= 64

    @pytest.mark.parametrize("hold_outs,n_classes", [(("NC", "NC"), 2), (("NC", "abstain"), 3)])
    def test_one_assignment_list_and_one_run_per_class(self, monkeypatch, hold_outs, n_classes):
        W = 512
        game = SimpleGame(simple_config(committee_size=W, boost=W * 2 // 5))
        players = game.players()
        label = dict(zip((players[1], players[W // 2]), hold_outs))
        profile = game.labelled(lambda dp: label.get(dp.actor, "C"))
        assert len({cls for cls, _ in game.symmetry_classes(profile)}) == n_classes
        listed, deviated = [], []
        assignments, deviate = game.assignments, equilibrium._deviate
        monkeypatch.setattr(game, "assignments", lambda p: listed.append(p) or assignments(p))
        monkeypatch.setattr(equilibrium, "_deviate",
                            lambda *args: deviated.append(args[3]) or deviate(*args))
        report = verify_nash(game, profile)
        assert report.verdict is Verdict.NOT_EQUILIBRIUM
        assert listed == [players[0], players[1], players[W // 2]][:n_classes]
        assert len(deviated) == 3 * n_classes <= 9
        assert report.checked == 3 * W

    @pytest.mark.parametrize("coalition_bound,runs", [(1, 1 + 2), (2, 1 + 2 + 6 * 8)])
    def test_profile_played_once(self, monkeypatch, coalition_bound, runs):
        # the base run, then every candidate the profile does not already
        # play: 2 of 3 for the one class the four compliant players form,
        # 8 of 9 per pair
        game = SimpleGame(simple_config())
        played = []
        run = game.run
        monkeypatch.setattr(
            game, "run", lambda profile, *start: played.append(profile) or run(profile, *start)
        )
        report = verify_nash(game, game.profile("compliant-all"), coalition_bound=coalition_bound)
        assert len(played) == runs
        assert report.checked == 4 * 3 + (6 * 9 if coalition_bound == 2 else 0)


class TestStrongNash:
    def test_strong_simple_all_compliant(self):
        config = GameConfig(committee_size=4, boost=2)
        game = StrongSimpleGame(config)
        report = verify_nash(game, game.profile("compliant-all"), coalition_bound=4)
        assert report.verdict is Verdict.STRONG_NASH

    def test_strong_simple_failing_profile_not_nash(self):
        # the later-epoch hook makes compliance strictly dominant, so the
        # all-defect profile stops being an equilibrium
        config = GameConfig(committee_size=4, boost=2)
        game = StrongSimpleGame(config)
        report = verify_nash(game, game.profile("vote-bt-all"))
        assert report.verdict is Verdict.NOT_EQUILIBRIUM
        assert all(d.gain == Fraction(1, 32) for d in report.deviations)

    def test_simple_failing_profile_nash_but_not_strong(self):
        # all-vote-B_t survives unilateral deviations, but a coalition of
        # three switching to compliance flips the outcome and pays each of
        # them r - Nash without being strong Nash
        game = SimpleGame(simple_config())
        profile = game.profile("vote-bt-all")
        assert verify_nash(game, profile).verdict is Verdict.NASH
        report = verify_nash(game, profile, coalition_bound=4)
        assert report.verdict is Verdict.NOT_EQUILIBRIUM
        assert all(d.gain > 0 for d in report.deviations)


class TestVerifySpne:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_extended_compliant_spne_with_exact_tables(self, p):
        config = GameConfig(committee_size=4, boost=2, horizon=p)
        game = ExtendedGame(config)
        report = verify_spne(game, game.profile("compliant-all"))
        assert report.verdict is Verdict.SPNE
        for dp, payoffs in report_members(report)[1]:
            on_path = config.r if dp.role is Role.ATTESTOR else config.R
            assert payoffs["C"] == on_path
            for label, value in payoffs.items():
                if label != "C":
                    assert value == 0

    def test_extended_failing_profile_spne(self):
        config = GameConfig(committee_size=4, boost=2, horizon=2)
        game = ExtendedGame(config)
        report = verify_spne(game, game.profile("extend-original-all"))
        assert report.verdict is Verdict.SPNE

    def test_defecting_last_leader_not_equilibrium(self):
        config = GameConfig(committee_size=4, boost=2, horizon=2)
        game = ExtendedGame(config)
        profile = game.profile("compliant-all")
        dp = DecisionPoint(2, Role.LEADER, game.leaders[2].index)
        profile = profile.with_actions({dp: "NC"})
        report = verify_spne(game, profile)
        assert report.verdict is Verdict.NOT_EQUILIBRIUM
        _, _, baseline, deviated = next(
            d for d in report_members(report)[0] if d[0] == game.leaders[2].index)
        assert deviated - baseline == config.R

    @pytest.mark.parametrize("p", [1, 2])
    def test_spne_implies_nash(self, p):
        config = GameConfig(committee_size=4, boost=2, horizon=p)
        game = ExtendedGame(config)
        for name in ("compliant-all", "extend-original-all"):
            profile = game.profile(name)
            if verify_spne(game, profile).verdict is Verdict.SPNE:
                assert verify_nash(game, profile).verdict is Verdict.NASH


class TestDominance:
    def test_simple_weak(self):
        game = SimpleGame(simple_config())
        player = game.players()[-1]
        verdict = dominance_check(game, player, "C", ["C", "NC"])
        assert verdict is Dominance.WEAKLY_DOMINANT

    def test_strong_simple_strict(self):
        config = GameConfig(committee_size=4, boost=2)
        game = StrongSimpleGame(config)
        player = game.players()[-1]
        verdict = dominance_check(game, player, "C", ["C", "NC"])
        assert verdict is Dominance.STRICTLY_DOMINANT

    def test_duplicate_action_neither(self):
        game = SimpleGame(simple_config())
        player = game.players()[-1]
        verdict = dominance_check(game, player, "C", ["C", "C"])
        assert verdict is Dominance.NEITHER

    def test_each_cell_played_once(self, monkeypatch):
        # the player's own action is played once per condition, not once per alternative
        runs = []
        run = SimpleGame.run
        monkeypatch.setattr(SimpleGame, "run", lambda game, profile: runs.append(1) or run(game, profile))
        game = SimpleGame(simple_config())
        verdict = dominance_check(game, game.players()[-1], "C", ["C", "NC", "abstain"])
        assert verdict is Dominance.WEAKLY_DOMINANT
        assert len(runs) == 6

    def test_cells_played_in_order_up_to_the_first_loss(self, monkeypatch):
        # the action's cell for a condition is played beside the first
        # alternative's, each cell once, and a loss ends the check before any
        # later cell, which might not be realizable
        cells = []
        payoff = SimpleGame.conditioned_payoff
        monkeypatch.setattr(SimpleGame, "conditioned_payoff",
                            lambda game, *cell: cells.append(cell[1:]) or payoff(game, *cell))
        game = SimpleGame(simple_config())
        player = game.players()[-1]
        assert dominance_check(game, player, "C", ["NC", "C", "NC", "abstain"]) is Dominance.WEAKLY_DOMINANT
        assert cells == [("C", "succeed"), ("NC", "succeed"), ("C", "fail"), ("NC", "fail"),
                         ("abstain", "succeed"), ("abstain", "fail")]
        cells.clear()
        assert dominance_check(game, player, "abstain", ["NC", "C"]) is Dominance.NEITHER
        assert cells == [("abstain", "succeed"), ("NC", "succeed"), ("abstain", "fail"), ("NC", "fail"),
                         ("C", "succeed")]

    def test_no_condition_rejected(self):
        # an empty partition compares nothing, so it cannot certify dominance
        game = SimpleGame(simple_config())
        with pytest.raises(GameError, match="at least one condition"):
            dominance_check(game, game.players()[-1], "C", ["C", "NC"], conditions=[])


class TestDagScenario:
    def config(self, **kw):
        base = dict(committee_size=5, boost=0)
        base.update(kw)
        return GameConfig(**base)

    def test_prescribed_profile_spne(self):
        result = dag_security_scenario(self.config())
        assert result.report.verdict is Verdict.SPNE
        assert result.outcome.extras["adversary_votes"] == 0
        assert result.outcome.extras["adversary_reorged"]
        assert result.outcome.extras["rational_blocks_reorged"] == []

    def test_dag_game_settles_under_dag_votes(self):
        # the config carries no kind, so the game class alone picks the
        # settlement: under DAG votes the evidence credits 23 validators and
        # pays the slot-4 leader 10 (next-slot inclusion: 18 and 5)
        game = DagVotesGame(self.config())
        payoffs = game.run(game.profile("prescribed")).trace.payoffs
        assert len(payoffs) == 23
        assert payoffs[game.leaders[4].index] == payoffs[28] == 10
        assert dag_security_scenario(self.config()).outcome.trace.payoffs == payoffs

    def test_attestor_rewards_survive_hostile_leader(self):
        # the committee voting right before the adversarial slot still earns
        # r through majority evidence
        result = dag_security_scenario(self.config())
        game = DagVotesGame(self.config())
        pre_committee = game.committees[game.adv_slot - 1]
        for v in pre_committee:
            assert result.outcome.trace.payoffs.get(v, 0) == 1

    def test_on_tip_adversary_block_survives(self):
        result = dag_security_scenario(self.config(adversary_on_tip=True))
        assert result.report.verdict is Verdict.SPNE
        assert not result.outcome.extras["adversary_reorged"]

    def test_ethereum_swap_flips_to_not_equilibrium(self):
        result = dag_security_scenario(self.config(), check_ethereum_flip=True)
        assert result.ethereum_report is not None
        assert result.ethereum_report.verdict is Verdict.NOT_EQUILIBRIUM
        assert any(d.label == "C" and d.gain > 0 for d in result.ethereum_report.deviations)

    def test_small_boost_generalization(self):
        # with W > 2 + boost solo attestors the argument carries a positive
        # boost; the threshold itself stays at W/2
        result = dag_security_scenario(self.config(boost=1))
        assert result.report.verdict is Verdict.SPNE
        assert result.outcome.extras["adversary_reorged"]

    def test_prescribed_profile_played_once(self, monkeypatch):
        # the outcome's run is the SPNE base; of the 33 deviations, one per
        # rational leader and two per attestor class (one class per slot) run
        runs = []
        run = DagVotesGame.run
        monkeypatch.setattr(
            DagVotesGame, "run", lambda game, prof, *start: runs.append(prof) or run(game, prof, *start)
        )
        result = dag_security_scenario(self.config())
        assert result.report.checked == 33
        assert len(runs) == 1 + 3 + 3 * 2

    def test_boost_too_large_rejected(self):
        from reorglab.equilibrium import AssumptionViolated

        with pytest.raises(AssumptionViolated):
            dag_security_scenario(self.config(boost=3))


class TestNothingToCheck:
    """A search over a game without decision points is an error, not a verdict."""

    def test_selfish_without_adversarial_slots_nash(self):
        game = SelfishMiningGame(GameConfig(
            committee_size=4, boost=2, n_adversarial_slots=0,
            n_non_adversarial_slots=1, allow_condition_violation=True,
        ))
        with pytest.raises(GameError):
            verify_nash(game, game.profile("compliant-all"))

    def test_extended_horizon_zero_spne(self):
        game = ExtendedGame(GameConfig(committee_size=4, boost=2, horizon=0))
        with pytest.raises(GameError):
            verify_spne(game, game.profile("compliant-all"))

    def test_tendermint_anchor_without_rational_players(self):
        game = AnchorGame(0)
        with pytest.raises(GameError):
            verify_nash(game, game.profile("prevote-b"))


def test_one_assumption_violated():
    from reorglab.equilibrium import AssumptionViolated
    from reorglab.tendermint import AssumptionViolated as TendermintAssumption

    assert AssumptionViolated is TendermintAssumption
    assert issubclass(AssumptionViolated, GameError)


# -- Table 1 at scale -------------------------------------------------------


def check_table1(W: int, boost: int, credibility_assumed: bool, r: Fraction, name: str,
                 max_joint_actions: int = 10**6) -> None:
    """The payoffs `verify_nash` plays for a uniform simple profile are Table 1's closed form.

    The one class's first member plays each candidate; its base payoff and
    each deviation's payoff must be the closed form's, and the report must
    list every member's gaining labels with the closed form's amounts.
    """
    config = GameConfig(W, boost=boost, r=r, credibility_assumed=credibility_assumed)
    game = SimpleGame(config)
    played = []
    deviate = equilibrium._deviate

    def recorded(game_, profile, base_played, assignment):
        result = deviate(game_, profile, base_played, assignment)
        (dp, label), = assignment.items()
        played.append((dp.actor, label, base_played[0][dp.actor], result[0][dp.actor]))
        return result

    with mock.patch.object(equilibrium, "_deviate", recorded):
        report = verify_nash(game, game.profile(name), max_joint_actions=max_joint_actions)
    base, deviated = closed_forms.simple_table1(config, name)
    first = game.committee.start
    assert played == [(first, label, base, deviated[label]) for label in ("C", "NC", "abstain")]
    gaining = [label for label in ("C", "NC", "abstain") if deviated[label] > base]
    # compared one by one, so a wide committee's report is not copied
    members = report_members(report)[0]
    assert len(members) == W * len(gaining)
    assert all(d == (p, label, base, deviated[label])
               for d, (p, label) in zip(members, itertools.product(game.committee, gaining)))
    assert report.verdict is (Verdict.NOT_EQUILIBRIUM if gaining else Verdict.NASH)
    assert report.checked == 3 * W


UNIFORM = st.sampled_from(sorted(closed_forms.SIMPLE_UNIFORM))
REWARD = st.fractions(min_value=Fraction(1, 8), max_value=8, max_denominator=8)


@given(data=st.data(), W=st.integers(1, 64), cred=st.booleans(), r=REWARD, name=UNIFORM)
@settings(max_examples=120, deadline=None)
def test_nash_payoffs_follow_table1(data, W, cred, r, name):
    boost = data.draw(st.integers(0, W + 1), label="boost")
    check_table1(W, boost, cred, r, name)


@given(data=st.data(), W=st.sampled_from([512, 1024, 4096, 2**16, 2**20]), cred=st.booleans(),
       r=REWARD, name=UNIFORM)
@settings(max_examples=10, deadline=None)
def test_nash_payoffs_follow_table1_at_scale(data, W, cred, r, name):
    # the verdicts flip at the boundaries of boost: 0, W - 1, W and W + 1; the
    # guard is raised to the 3 W candidates the check counts
    boost = data.draw(st.sampled_from([0, 1, W * 2 // 5, W - 1, W, W + 1]) | st.integers(0, W + 1),
                      label="boost")
    check_table1(W, boost, cred, r, name, max_joint_actions=3 * W)


def test_nash_at_scale_keeps_no_per_validator_state():
    # the roster, the profile, each run's votes, emission guard, fork-choice
    # store and settlement, and the players' payoffs are all runs of
    # validators, so a check at W = 2^20 allocates a few kB, where one entry
    # per validator would take hundreds of MB
    W = 2**20
    tracemalloc.start()
    try:
        game = SimpleGame(GameConfig(W, boost=W * 2 // 5))
        report = verify_nash(game, game.profile("compliant-all"), max_joint_actions=3 * W)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.verdict is Verdict.NASH and report.checked == 3 * W
    assert peak < 2 * 2**20


def test_failing_check_at_scale_holds_one_deviation():
    # with boost W every attestor of `vote-bt-all` gains r by complying; the
    # committee is one class run, so the report holds one entry for it, and
    # the check allocates a few kB where one entry per member would take
    # over 100 MB
    W = 2**20
    tracemalloc.start()
    try:
        game = SimpleGame(GameConfig(W, boost=W))
        report = verify_nash(game, game.profile("vote-bt-all"), max_joint_actions=3 * W)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.verdict is Verdict.NOT_EQUILIBRIUM and report.checked == 3 * W
    [deviation] = report.deviations
    assert (deviation.players, deviation.label, deviation.gain) == (game.committee, "C", game.config.r)
    assert peak < 2 * 2**20


@pytest.mark.parametrize("W", [65, 65537])
def test_dag_spne_holds_one_subgame_entry_per_class_run(W):
    # three rational leaders and three attestor committees, each one class
    # run at one seat: six entries at any W, and a few kB for the check
    game = DagVotesGame(GameConfig(committee_size=W, boost=0))
    profile = game.profile("prescribed")
    tracemalloc.start()
    try:
        report = verify_spne(game, profile)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.verdict is Verdict.SPNE and report.checked == 3 + 3 * 2 * W
    assert [(e.role, len(e.actors)) for e in report.subgame_table] == [
        (Role.LEADER, 1), (Role.ATTESTOR, W), (Role.LEADER, 1), (Role.ATTESTOR, W),
        (Role.ATTESTOR, W), (Role.LEADER, 1)]
    assert peak < 2 * 2**20


def per_player_plan(game, bound: int) -> int:
    """The joint assignments of every coalition of 1 to `bound` players, counted player by player."""
    e = [1] + [0] * bound  # e[k]: the coalitions of k players so far, weighted by their moves
    for player in game.players():
        m = len(game.assignments(player))
        for k in range(bound, 0, -1):
            e[k] += e[k - 1] * m
    return sum(e[1:])


@given(game=games(), rnd=st.randoms(use_true_random=False), bound=st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_nash_guards_its_whole_plan_before_any_run(game, rnd, bound):
    # the plan, unilateral and joint, is counted from the classes: one over
    # it exits before the base run, and a strong-Nash verdict checks all of it
    plan = per_player_plan(game, bound)
    assume(plan)  # a game with no player has nothing to check
    profile = labelled_profile(game, rnd)
    runs = []
    run = game.run
    with mock.patch.object(game, "run", lambda *args: runs.append(args) or run(*args)):
        with pytest.raises(ExplosionGuard, match=f"deviation simulations exceed bound {plan - 1}"):
            verify_nash(game, profile, coalition_bound=bound, max_joint_actions=plan - 1)
        assert runs == []
        if plan > 2000:  # a strong-Nash verdict plays every joint assignment
            return
        report = verify_nash(game, profile, coalition_bound=bound, max_joint_actions=plan)
    assert runs
    assert report.checked <= plan
    if report.verdict is Verdict.STRONG_NASH or bound == 1 and report.verdict is Verdict.NASH:
        assert report.checked == plan


def test_spne_guards_before_any_decision_point(monkeypatch):
    # the count comes from the groups, so a check over the bound exits before
    # it builds the 393,219 decision points of a W=131072 DAG-votes game
    game = DagVotesGame(GameConfig(131072, boost=0))
    profile = game.profile("prescribed")
    built = []
    new = DecisionPoint.__new__
    monkeypatch.setattr(DecisionPoint, "__new__", lambda cls, *args: built.append(args) or new(cls, *args))
    with pytest.raises(ExplosionGuard, match="1179654 deviation simulations exceed bound 1"):
        verify_spne(game, profile, 1)
    assert built == []
