import dataclasses
import itertools
import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings

from reorglab.chain import TieBreakPolicy, Validator
from reorglab.engine import DecisionPoint, Role, Simulation, StrategyProfile, aggregate_tick
from reorglab.games import (
    ConditionViolated,
    ConditioningUnrealizable,
    DagVotesGame,
    ExtendedGame,
    GameConfig,
    GameError,
    GameModel,
    NoBoostGame,
    PoolSpec,
    SelfishMiningGame,
    SimpleGame,
    StrongSimpleGame,
    pool_payoff_simple,
    simple_payoff_matrix,
)
from reorglab.tendermint import AnchorGame, WithholdingGame

import closed_forms
from closed_forms import pool_payoff_selfish, pool_slot_sets
from committees import assign_committees
from engine_games import games
from expansion import expand_trace, expand_votes, owner


def simple_config(**kw):
    base = dict(committee_size=4, boost=2)
    base.update(kw)
    return GameConfig(**base)


class TestSimpleGame:
    def test_compliant_profile_succeeds(self):
        game = SimpleGame(simple_config())
        out = game.run(game.profile("compliant-all"))
        assert out.success
        assert out.final_chain == [out.trace.labels["B_prev"], out.trace.labels["B_A"]]
        assert out.reorged == [out.trace.labels["B_t"]]
        for v in game.committee:
            assert out.trace.payoffs.get(v, 0) == 1

    def test_boost_threshold_blocks_reorg(self):
        # exactly W_p defectors: the adversary backs down and extends B_t
        game = SimpleGame(simple_config(committee_size=5, boost=2))
        actions = {dp: "NC" if n < 2 else "C" for n, dp in enumerate(game.points)}
        out = game.run(StrategyProfile(actions))
        assert not out.success
        b_t = out.trace.labels["B_t"]
        assert out.trace.tree.blocks[out.trace.labels["B_A"]].parent == b_t
        # zero compliant head rewards in the failure branch
        for v in game.committee:
            assert out.trace.payoffs.get(v, 0) == 0

    def test_zero_boost_never_succeeds(self):
        game = SimpleGame(simple_config(boost=0))
        out = game.run(game.profile("abstain-all"))
        assert not out.success

    def test_matrix_table1(self):
        m = simple_payoff_matrix(SimpleGame(simple_config(r=Fraction(1))))
        assert m.cell("succeed", "C") == 1
        assert m.cell("succeed", "NC") == 0
        assert m.cell("fail", "C") == 0
        assert m.cell("fail", "NC") == 0

    def test_matrix_degenerate_reward(self):
        m = simple_payoff_matrix(SimpleGame(simple_config(r=Fraction(0))))
        assert all(v == 0 for v in m.values.values())

    def test_matrix_against_exhaustive_joint_actions(self):
        # every joint C/NC profile's realized payoffs match the matrix cell
        # for the realized outcome
        config = simple_config()
        game = SimpleGame(config)
        matrix = simple_payoff_matrix(game)
        dps = game.points
        for joint in itertools.product("CN", repeat=4):
            actions = {dp: "C" if choice == "C" else "NC" for dp, choice in zip(dps, joint)}
            out = game.run(StrategyProfile(actions))
            row = "succeed" if out.success else "fail"
            votes_for_bt = joint.count("N")
            assert out.success == (votes_for_bt < config.boost)
            for dp, choice in zip(dps, joint):
                col = "C" if choice == "C" else "NC"
                assert out.trace.payoffs.get(dp.actor, 0) == matrix.cell(row, col)

    @pytest.mark.parametrize("W", [1, 2, 3, 4, 5, 6])
    def test_success_threshold_exhaustive(self, W):
        # success iff strictly fewer than W_p attestors vote for B_t, over
        # every joint action profile including abstentions
        boost = max(1, W // 2)
        config = simple_config(committee_size=W, boost=boost)
        game = SimpleGame(config)
        dps = game.points
        label = {"C": "C", "N": "NC", "A": "abstain"}
        for joint in itertools.product("CNA", repeat=W):
            actions = {dp: label[choice] for dp, choice in zip(dps, joint)}
            out = game.run(StrategyProfile(actions))
            assert out.success == (joint.count("N") < boost)

    def test_unrealizable_conditioning(self):
        # with W_p = 1 a lone non-compliant probe forces failure, so the
        # (succeed, NC) cell cannot be realized
        game = SimpleGame(simple_config(boost=1))
        probe = game._roster[-1][-1][-1]  # the last solo player
        with pytest.raises(ConditioningUnrealizable):
            game.conditioned_payoff(probe, "NC", "succeed")

    def test_credibility_dependence(self):
        # without the credible exclusion threat, defecting to B_t pays r when
        # the attack fails, so the threat loses its teeth
        naive = simple_config(credibility_assumed=False)
        game = SimpleGame(naive)
        probe = game._roster[-1][-1][-1]  # the last solo player
        assert game.conditioned_payoff(probe, "NC", "fail") == 1
        credible = SimpleGame(simple_config())
        assert credible.conditioned_payoff(probe, "NC", "fail") == 0


class TestPoolSimple:
    def test_appendix_pattern(self):
        game = SimpleGame(simple_config(pool=PoolSpec(1)))
        assert pool_payoff_simple(game, "C", "succeed") == (0, 1)
        assert pool_payoff_simple(game, "NC", "succeed") == (0, 0)
        assert pool_payoff_simple(game, "C", "fail") == (1, 0)
        assert pool_payoff_simple(game, "NC", "fail") == (1, 0)

    def test_scales_with_members(self):
        game = SimpleGame(simple_config(committee_size=6, boost=3, pool=PoolSpec(2)))
        assert pool_payoff_simple(game, "C", "succeed") == (0, 2)
        assert pool_payoff_simple(game, "C", "fail") == (2, 0)

    def test_no_pool_raises(self):
        with pytest.raises(Exception):
            pool_payoff_simple(SimpleGame(simple_config()), "C", "succeed")

    def test_empty_pool(self):
        game = SimpleGame(simple_config(pool=PoolSpec(0)))
        for row in ("succeed", "fail"):
            for col in ("C", "NC"):
                assert pool_payoff_simple(game, col, row) == (0, 0)

    def test_unknown_label_rejected_without_attestors(self):
        with pytest.raises(GameError, match="unknown action"):
            pool_payoff_simple(SimpleGame(simple_config(pool=PoolSpec(0))), "X", "succeed")

    def test_table7_closed_form(self):
        # each cell the run realizes pays Table 7's closed form; every other raises
        realized = unrealizable = 0
        for W, cred, r in itertools.product(range(2, 9), (True, False), (1, Fraction(3, 2))):
            for boost in range(W + 2):
                for m in range(1, min(boost, W)):  # the table needs m < boost
                    config = simple_config(committee_size=W, boost=boost, pool=PoolSpec(m),
                                           credibility_assumed=cred, r=Fraction(r))
                    game = SimpleGame(config)
                    for row, col in itertools.product(("succeed", "fail"), ("C", "NC")):
                        try:
                            cell = pool_payoff_simple(game, col, row)
                        except ConditioningUnrealizable:
                            unrealizable += 1
                            continue
                        assert cell == closed_forms.pool_payoff_simple(config, col, row)
                        realized += 1
        assert (realized, unrealizable) == (1168, 624)


def test_tables_reject_games_they_do_not_play():
    # each table plays only its own games, never a simple game in their place
    config = GameConfig(
        committee_size=4, boost=2, pool=PoolSpec(1),
        n_adversarial_slots=2, n_non_adversarial_slots=2,
    )
    games = [
        SimpleGame(config), StrongSimpleGame(config), NoBoostGame(replace(config, boost=0)),
        ExtendedGame(config), SelfishMiningGame(config), DagVotesGame(config),
    ]
    for game in games:
        game_class = type(game)
        if game_class not in (SimpleGame, StrongSimpleGame):
            with pytest.raises(GameError, match="plays no"):
                simple_payoff_matrix(game)
        if game_class is not SimpleGame:
            with pytest.raises(GameError, match="plays no"):
                pool_payoff_simple(game, "C", "succeed")


class TestStrongSimple:
    def config(self, **kw):
        base = dict(committee_size=4, boost=2)
        base.update(kw)
        return GameConfig(**base)

    def test_table2(self):
        m = simple_payoff_matrix(StrongSimpleGame(self.config()))
        assert m.cell("succeed", "C") == Fraction(1) + Fraction(1, 32)
        assert m.cell("fail", "C") == Fraction(1, 32)
        assert m.cell("succeed", "NC") == 0
        assert m.cell("fail", "NC") == 0

    def test_fixed_attestor_certainty(self):
        m = simple_payoff_matrix(StrongSimpleGame(self.config(epoch_length=1)))
        assert m.cell("succeed", "C") == 2
        assert m.cell("fail", "C") == 1

    def test_integer_reward_keeps_payoffs_exact(self):
        game = StrongSimpleGame(self.config(r=1))
        payoffs = game.payoffs(game.profile("compliant-all"))
        assert all(type(v) is Fraction for v in payoffs.values())
        assert set(payoffs.values()) == {Fraction(33, 32)}

    def test_membership_probability_monte_carlo(self):
        # sampled schedules: a fixed validator lands in a fixed slot's
        # committee with frequency 1/epoch_length
        committee, epochs = 2, 32
        n = committee * epochs
        draws = 100_000
        hits = 0
        for seed in range(draws):
            sched = assign_committees(seed, n, committee, epochs)
            if 0 in [v.index for v in sched.committee(7)]:
                hits += 1
        p = 1 / 32
        sigma = (p * (1 - p) / draws) ** 0.5
        assert abs(hits / draws - p) <= 3 * sigma


class TestNoBoost:
    def config(self, W=5):
        return GameConfig(committee_size=W, boost=0)

    def _run_split(self, game, n_compliant):
        dps = game.points
        return game.run(StrategyProfile({dp: "NC" if n >= n_compliant else "C"
                                         for n, dp in enumerate(dps)}))

    def test_majority_wins(self):
        game = NoBoostGame(self.config(5))
        out = self._run_split(game, 3)
        assert out.success
        # compliant voters get paid on the adversarial chain
        for n, dp in enumerate(game.points):
            assert out.trace.payoffs.get(dp.actor, 0) == (1 if n < 3 else 0)

    def test_tie_goes_to_adversary(self):
        game = NoBoostGame(self.config(4))
        assert self._run_split(game, 2).success

    def test_tie_lexicographic_fails(self):
        config = GameConfig(
            committee_size=4, boost=0,
            tie_break=TieBreakPolicy.LEXICOGRAPHIC,
        )
        game = NoBoostGame(config)
        assert not self._run_split(game, 2).success

    def test_unanimous_defection_fails(self):
        game = NoBoostGame(self.config(5))
        out = game.run(game.profile("vote-bt-all"))
        assert not out.success
        for dp in game.points:
            assert out.trace.payoffs.get(dp.actor, 0) == 0  # non-compliant votes excluded


def extended_config(p, **kw):
    base = dict(committee_size=4, boost=2, horizon=p)
    base.update(kw)
    return GameConfig(**base)


class TestExtendedGame:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_compliant_run_reorgs_p_blocks(self, p):
        game = ExtendedGame(extended_config(p))
        out = game.run(game.profile("compliant-all"))
        assert out.success
        assert len(out.reorged) == p
        chain = out.final_chain
        tree = out.trace.tree
        assert [tree.blocks[b].slot for b in chain] == [-p] + list(range(1, p + 2))
        assert all(tree.blocks[b].is_empty for b in chain[1:-1])

    def test_p1_degenerates_to_simple_shape(self):
        # one empty block plus B_A reorging B_0, the simple game's shape with
        # an empty-block requirement
        game = ExtendedGame(extended_config(1))
        out = game.run(game.profile("compliant-all"))
        simple = SimpleGame(simple_config())
        simple_out = simple.run(simple.profile("compliant-all"))
        assert out.success and simple_out.success
        assert len(out.reorged) == len(simple_out.reorged) == 1

    def test_compliance_marks_exhaustive(self):
        # under the all-compliant profile exactly the blocks B^e_1..B^e_p and
        # their votes are compliant, and each vote-time tip is that slot's block
        for p in (1, 2, 3, 4):
            for W in (2, 3, 4, 5):
                boost = max(1, W // 2)
                game = ExtendedGame(extended_config(p, committee_size=W, boost=boost))
                out = game.run(game.profile("compliant-all"))
                tracker = out.extras["tracker"]
                tree = out.trace.tree
                compliant_blocks = [b for b, ok in tracker.block_marks.items() if ok]
                expected = out.extras["compliant_chain"]
                assert sorted(compliant_blocks) == sorted(expected)
                for slot in range(1, p + 1):
                    bid = tracker.compliant_block_of_slot(tree, slot)
                    assert tree.blocks[bid].slot == slot
                    assert tracker.vote_tips[slot] == bid
                    marks = [tracker.is_vote_compliant(v) for v in tree.votes if v.slot == slot]
                    assert marks and all(marks)

    def test_defecting_leader_keeps_attack_alive(self):
        # the compliant chain skips the defected slot and the fork still
        # carries every other player's reward
        game = ExtendedGame(extended_config(3))
        profile = game.profile("compliant-all")
        leader_dp = DecisionPoint(2, Role.LEADER, game.leaders[2].index)
        deviated = profile.with_actions({leader_dp: "NC"})
        out = game.run(deviated)
        payoffs = game.payoffs(deviated)
        assert payoffs[game.leaders[2].index] == 0

    def test_honest_minority_needs_longer_run(self):
        # one honest attestor per slot starves the fork: 3 compliant votes
        # per slot plus the boost cannot outweigh the full-vote original
        # chain reinforced by honest tip votes, so the 2-slot attack fails -
        # consistent with the required length 2*4/(4-2) = 4
        game = ExtendedGame(extended_config(2, committee_size=4, honest_per_slot=1))
        out = game.run(game.profile("compliant-all"))
        assert not out.success
        from closed_forms import required_attack_length

        assert required_attack_length(2, 4, 1) == 4


class TestSelfishMining:
    def config(self, na, nna, **kw):
        base = dict(
            committee_size=100, boost=40,
            n_adversarial_slots=na, n_non_adversarial_slots=nna,
            allow_condition_violation=True,
        )
        base.update(kw)
        return GameConfig(**base)

    @pytest.mark.parametrize(
        "na,nna,adv_w,nonadv_w,wins",
        [(2, 2, 240, 200, True), (3, 2, 340, 200, True), (2, 3, 240, 300, False)],
    )
    def test_fork_weights(self, na, nna, adv_w, nonadv_w, wins):
        game = SelfishMiningGame(self.config(na, nna))
        out = game.run(game.profile("compliant-all"))
        assert out.extras["fork_weight_adversarial"] == adv_w
        assert out.extras["fork_weight_non_adversarial"] == nonadv_w
        assert out.success == wins
        assert out.success == (adv_w > nonadv_w)

    def test_whole_committee_defection(self):
        game = SelfishMiningGame(self.config(2, 2))
        profile = game.profile("compliant-all")
        for dp in game.points:
            if dp.slot == game.player_slots[0]:
                profile = profile.with_actions({dp: "NC"})
        out = game.run(profile)
        assert out.extras["fork_weight_adversarial"] == 140
        assert out.extras["fork_weight_non_adversarial"] == 300
        assert not out.success

    def test_condition_violation(self):
        with pytest.raises(ConditionViolated):
            SelfishMiningGame(
                GameConfig(
                    committee_size=10, boost=4,
                    n_adversarial_slots=1, n_non_adversarial_slots=2,
                )
            )

    def test_no_adversarial_slots_vacuous(self):
        game = SelfishMiningGame(self.config(0, 2))
        out = game.run(StrategyProfile({}))
        assert not out.success

    def test_success_monotone_in_margin(self):
        results = []
        for na, nna in ((2, 3), (2, 2), (3, 2), (4, 2)):
            game = SelfishMiningGame(self.config(na, nna))
            out = game.run(game.profile("compliant-all"))
            results.append((na - nna, out.success))
        results.sort()
        seen_true = False
        for _, success in results:
            if seen_true:
                assert success
            seen_true = seen_true or success

    def test_table8_and_trace_agree(self):
        config = self.config(2, 2, pool=PoolSpec(1))
        game = SelfishMiningGame(config)
        s_a, s_na = pool_slot_sets(game)
        assert len(s_a) == 2 and len(s_na) == 1
        for row in ("succeed", "fail"):
            for col in ("C", "NC"):
                formula = pool_payoff_selfish(game, col, row)
                # solo attestors comply exactly when the fork should win
                solo = "C" if row == "succeed" else "NC"
                out = game.run(
                    game.labelled(lambda dp: col if owner(game, dp) in game.pools else solo)
                )
                assert out.success == (row == "succeed")
                sim_total = sum(
                    (
                        out.trace.payoffs.get(v, 0)
                        for slot in range(1, game.horizon)
                        for v in game.committees[slot]
                        if v in game.pools["P"]
                    ),
                    Fraction(0),
                )
                assert sim_total == formula

    def test_table8_shape(self):
        config = self.config(3, 2, pool=PoolSpec(2))
        game = SelfishMiningGame(config)
        s_a, s_na = pool_slot_sets(game)
        assert pool_payoff_selfish(game, "C", "succeed") == 2 * len(s_a)
        assert pool_payoff_selfish(game, "NC", "succeed") == 0
        assert pool_payoff_selfish(game, "C", "fail") == 2 * len(s_na)
        assert pool_payoff_selfish(game, "NC", "fail") == 2 * len(s_na)

    def test_empty_pool(self):
        game = SelfishMiningGame(self.config(2, 2, pool=PoolSpec(0)))
        assert pool_payoff_selfish(game, "C", "succeed") == 0
        assert pool_payoff_selfish(game, "NC", "fail") == 0

    def test_table8_sweep(self):
        # each cell the run realizes pays Table 8's closed form; every other raises
        realized = unrealizable = 0
        grid = itertools.product((4, 10), (0, .2, .4, .6), range(5), range(1, 5), range(1, 4))
        for W, x, na, nna, m in grid:
            config = self.config(na, nna, committee_size=W, boost=round(x * W), pool=PoolSpec(m))
            game = SelfishMiningGame(config)
            for row, col in itertools.product(("succeed", "fail"), ("C", "NC")):
                try:
                    cell = game.conditioned_payoff("P", col, row)
                except ConditioningUnrealizable:
                    unrealizable += 1
                    continue
                assert cell == pool_payoff_selfish(game, col, row)
                realized += 1
        assert (realized, unrealizable) == (1274, 646)

    def test_conditioning_without_decision_points(self):
        # the label is checked against the attestor candidates, not a decision point
        game = SelfishMiningGame(self.config(0, 1, committee_size=4, boost=2, pool=PoolSpec(1)))
        assert game.points == ()
        with pytest.raises(GameError, match="unknown action 'X'"):
            game.conditioned_payoff("P", "X", "fail")
        with pytest.raises(ConditioningUnrealizable):
            game.conditioned_payoff("P", "C", "succeed")
        assert game.conditioned_payoff("P", "C", "fail") == 0

    def test_adversarial_slots_fill_the_window(self):
        # slots 2..n_a below the window's end, plus the end itself
        for na in range(9):
            for nna in range(1, 9):
                game = SelfishMiningGame(self.config(na, nna, committee_size=2, boost=1))
                assert len(set(game.adv_slots)) == na
                assert all(2 <= s <= game.horizon for s in game.adv_slots)

    def test_pool_is_first_members_of_window_committees(self):
        # the pool record is game.pools alone: validators carry no pool name
        assert "pool" not in {f.name for f in dataclasses.fields(Validator)}
        game = SelfishMiningGame(self.config(2, 2, committee_size=4, boost=2, pool=PoolSpec(2)))
        expected = {v for slot in range(1, game.horizon) for v in game.committees[slot][:2]}
        assert game.pools == {"P": frozenset(expected)}

    def test_pool_larger_than_committee_rejected(self):
        # the closed form would pay m members per slot where only W exist
        config = self.config(2, 2, committee_size=4, boost=2, pool=PoolSpec(6))
        with pytest.raises(GameError):
            SelfishMiningGame(config)

    def test_no_equivocation_anywhere(self):
        game = SelfishMiningGame(self.config(3, 2))
        out = game.run(game.profile("compliant-all"))
        seen = {}
        for ev in expand_trace(out.trace).events:
            if ev.kind != "vote":
                continue
            (payload,) = ev.payloads
            key = (payload["voter"], payload["slot"])
            assert key not in seen
            seen[key] = payload["target"]


# -- every action is named by one label lookup -----------------------------------

LABELLED_GAMES = {
    "simple": lambda: SimpleGame(simple_config()),
    "simple-pool": lambda: SimpleGame(simple_config(pool=PoolSpec(1))),
    "strong-simple": lambda: StrongSimpleGame(simple_config()),
    "simple-no-boost": lambda: NoBoostGame(simple_config(boost=0)),
    "extended": lambda: ExtendedGame(extended_config(2)),
    "selfish-mining": lambda: SelfishMiningGame(
        simple_config(n_adversarial_slots=2,
                      n_non_adversarial_slots=1, pool=PoolSpec(1))
    ),
    "dag-votes": lambda: DagVotesGame(simple_config(committee_size=5, boost=0)),
    "tendermint-withholding": lambda: WithholdingGame(2, 1, Fraction(1)),
    "tendermint-anchor": lambda: AnchorGame(2),
}


@pytest.mark.parametrize(
    "kind,name",
    [(kind, name) for kind, make in LABELLED_GAMES.items() for name in make().PROFILES],
)
def test_labelled_agrees_with_named_profile(kind, name):
    game = LABELLED_GAMES[kind]()
    profile = game.profile(name)
    labels = {}
    for dp in game.points:
        labels[dp] = profile.get(dp)
        assert labels[dp] in game.candidates(dp) and labels[dp] in game.PROFILES[name]
        assert labels[dp] == next(x for x in game.PROFILES[name] if x in game.candidates(dp))
    assert game.labelled(labels.__getitem__) == profile
    with pytest.raises(GameError, match="unknown action 'Z' for slot"):
        game.action(game.points[0], "Z")


@pytest.mark.parametrize("kind", list(LABELLED_GAMES))
def test_named_profile_without_a_pick_rejected(kind):
    game = LABELLED_GAMES[kind]()
    with pytest.raises(GameError, match="unknown profile 'Z'"):
        game.profile("Z")
    # a profile whose labels no table offers picks nothing for any role
    game.PROFILES = {"odd": ("Z",)}
    with pytest.raises(GameError, match=f"profile 'odd' picks no {game.points[0].role.value} action"):
        game.profile("odd")


@pytest.mark.parametrize(
    "kind,name",
    [(kind, name) for kind, make in LABELLED_GAMES.items() if not kind.startswith("tendermint")
     for name in make().PROFILES],
)
def test_one_payoff_hook(kind, name):
    # a game's payoffs are its payoff hook applied to the run, whoever calls it
    game = LABELLED_GAMES[kind]()
    profile = game.profile(name)
    assert game._payoffs_from(game.run(profile)) == game.payoffs(profile)


def test_config_names_no_kind():
    # the game class is the kind: no config field can name another game
    assert "kind" not in {f.name for f in dataclasses.fields(GameConfig)}


# -- a DAG-votes proposal carries what its parent's chain lacks ------------------


def lacked_by_chain(sim, parent):
    """The delivered votes and evidences that no block from genesis to `parent` includes."""
    votes, evidences = set(), set()
    cur = parent
    while cur is not None:
        block = sim.tree.blocks[cur]
        votes.update((v.voter, v.slot) for v in block.included_votes)
        evidences.update(key for e in block.included_evidences for key in e.keys())
        cur = block.parent
    return (
        tuple(v for v in sim.tree.votes if (v.voter, v.slot) not in votes),
        tuple(e for e in sim.delivered_evidences if not evidences.issuperset(e.keys())),
    )


@pytest.mark.parametrize("committee_size", [3, 4, 5, 8])
def test_dag_proposals_carry_what_the_parent_chain_lacks(committee_size, monkeypatch):
    # every proposal of random labelled profiles (off-tip leaders, attestors
    # voting parent-of-tip or abstaining) against a walk of its parent's chain
    propose = Simulation.propose
    proposals = []

    def checked(sim, slot, parent, proposer, votes=(), evidences=(), **kw):
        carried = (tuple(votes), tuple(evidences))
        assert carried == lacked_by_chain(sim, parent)
        proposals.append((parent != max(sim.tree.blocks), bool(carried[1])))
        return propose(sim, slot, parent, proposer, *carried, **kw)

    monkeypatch.setattr(Simulation, "propose", checked)
    rng = random.Random(committee_size)
    configs = list(itertools.product([0, 1], TieBreakPolicy, [False, True]))
    for boost, tie_break, adversary_on_tip in configs:
        game = DagVotesGame(simple_config(
            committee_size=committee_size, boost=boost,
            tie_break=tie_break, adversary_on_tip=adversary_on_tip,
        ))
        for _ in range(12):
            game.run(game.labelled(lambda dp: rng.choice(list(game.candidates(dp)))))
    assert len(proposals) == len(configs) * 12 * DagVotesGame.n_slots
    # some proposals fork off the latest block, and some carry evidence
    assert any(off_latest for off_latest, _ in proposals)
    assert any(evidence for _, evidence in proposals)


# -- a DAG-votes committee signs its slot's votes in one counted evidence ---------


@pytest.mark.parametrize("committee_size", [3, 5, 8])
def test_dag_one_counted_evidence_per_slot(committee_size, monkeypatch):
    # random labelled profiles, plus one where every attestor abstains, so
    # some slots have several votes and some have none
    emit = Simulation.emit_evidence
    sent = []

    def recorded(sim, ev, release=None):
        sent.append((sim.tick, ev))
        return emit(sim, ev, release)

    monkeypatch.setattr(Simulation, "emit_evidence", recorded)
    rng = random.Random(committee_size)
    sizes = set()
    for boost, tie_break, adversary_on_tip in itertools.product([0, 1], TieBreakPolicy, [False, True]):
        game = DagVotesGame(simple_config(
            committee_size=committee_size, boost=boost,
            tie_break=tie_break, adversary_on_tip=adversary_on_tip,
        ))
        pickers = [lambda dp: rng.choice(list(game.candidates(dp)))] * 6
        pickers.append(lambda dp: "abstain" if dp.role is Role.ATTESTOR else "on-tip")
        for pick in pickers:
            sent.clear()
            trace = game.run(game.labelled(pick)).trace
            votes = expand_votes(trace.tree.votes)
            want_calls, want_lines = [], []
            for slot in range(DagVotesGame.n_slots):
                tick = aggregate_tick(slot)
                # the slot's votes in view at its aggregation tick, in delivery order
                seen = [v for v in votes if v.slot == slot and v.broadcast_time < tick]
                sizes.add(len(seen))
                calls = [(t, ev) for t, ev in sent if t == tick]
                # one record over the whole next committee, none for a slot without votes
                assert [list(ev.signers) for _, ev in calls] == (
                    [list(game.committees[slot + 1])] if seen else []
                )
                for _, ev in calls:
                    assert expand_votes(ev.votes) == seen
                want_calls += calls
                want_lines += [
                    {"tick": tick, "kind": "evidence", "release_tick": tick,
                     "payload": {"key": [v, vote.voter, vote.slot, vote.target]}}
                    for v in (game.committees[slot + 1] if seen else ())
                    for vote in seen
                ]
            assert want_calls == sent
            lines = [json.loads(line) for line in trace.export_lines()]
            assert [line for line in lines if line["kind"] == "evidence"] == want_lines
    assert 0 in sizes and max(sizes) > 1


def assert_candidate_tables_hold(game):
    """Each decision point offers its role's declared table, whose actions are distinct."""
    assert all("candidates" not in vars(cls) for cls in type(game).__mro__ if cls is not GameModel)
    for dp in game.points:
        table = game.candidates(dp)
        assert table is type(game).CANDIDATES[dp.role]
        # one action per label, so equal labels are equal actions and back
        actions = list(table.values())
        assert all(a != b for a, b in itertools.combinations(actions, 2)), table
        for picks in game.PROFILES.values():
            assert any(label in table for label in picks), (dp, picks)
        if owner(game, dp) in game.pools:
            assert set(game.POOL_LABELS) <= set(table)


@given(game=games())
@settings(max_examples=100, deadline=None)
def test_engine_candidate_tables(game):
    assert_candidate_tables_hold(game)


@pytest.mark.parametrize("make", [lambda: WithholdingGame(2, 1, Fraction(1)), lambda: AnchorGame(2)],
                         ids=["withholding", "anchor"])
def test_tendermint_candidate_tables(make):
    assert_candidate_tables_hold(make())


@pytest.mark.parametrize("hold_outs, resolves", [({}, 1), ({3: "NC", 5: "abstain", 9: "NC"}, 2)])
def test_attest_resolves_each_action_once_per_phase(monkeypatch, hold_outs, resolves):
    # the tick's head is fixed while the tick runs, so one resolve serves
    # every voter of the phase that plays the same action
    game = SimpleGame(simple_config(committee_size=64, boost=25))
    labels = {v: hold_outs.get(n, "C") for n, v in enumerate(game.committee)}
    profile = game.labelled(lambda dp: labels[dp.actor])
    calls = []
    resolve = Simulation.resolve
    monkeypatch.setattr(Simulation, "resolve", lambda sim, *a: calls.append(a) or resolve(sim, *a))
    outcome = game.run(profile)
    assert len(calls) == resolves
    votes = [ev.message for ev in expand_trace(outcome.trace).events if ev.kind == "vote"]
    assert len(votes) == 64 - list(hold_outs.values()).count("abstain")
    b_t = outcome.trace.labels["B_t"]
    assert sorted(v.voter for v in votes if v.target == b_t) == sorted(
        game.committee[n] for n, label in hold_outs.items() if label == "NC")


# -- a validator is its index: committees are ranges, proposers are Validators ----

WIDE_ROSTERS = {
    "simple": (lambda W: SimpleGame(simple_config(committee_size=W, boost=W // 2)), 3),
    "strong-simple": (lambda W: StrongSimpleGame(simple_config(committee_size=W, boost=W // 2)), 3),
    "simple-no-boost": (lambda W: NoBoostGame(simple_config(committee_size=W, boost=0)), 3),
    # p leaders, p+1 pre-game leaders and the adversary
    "extended": (lambda W: ExtendedGame(extended_config(2, committee_size=W, honest_per_slot=3)), 6),
    # the leaders of the non-adversarial slots 1 and 3, the adversary, the genesis proposer
    "selfish-mining": (lambda W: SelfishMiningGame(simple_config(
        committee_size=W, n_adversarial_slots=2, n_non_adversarial_slots=2, pool=PoolSpec(3))), 4),
    "dag-votes": (lambda W: DagVotesGame(simple_config(committee_size=W, boost=0)), 5),
}


@pytest.mark.parametrize("kind", sorted(WIDE_ROSTERS))
def test_building_a_game_constructs_a_validator_per_proposer_only(kind, monkeypatch):
    make, proposers = WIDE_ROSTERS[kind]
    built = []
    init = Validator.__init__
    monkeypatch.setattr(Validator, "__init__", lambda v, *a: init(v, *a) or built.append(v))
    game = make(1024)
    attestors = {dp.actor for dp in game.points if dp.role is Role.ATTESTOR}
    assert len(game.players()) >= 1024
    assert len(built) == proposers
    assert attestors.isdisjoint(v.index for v in built)


def test_roster_numbering():
    # committees from index 0 in slot order, then each game's single validators
    # in a fixed order; scenario overrides name validators by these indices
    W, p = 5, 3
    simple = SimpleGame(simple_config(committee_size=W))
    assert (simple.prev_committee, simple.committee) == (range(0, 5), range(5, 10))
    assert [simple.leader_t.index, simple.adversary.index, simple.genesis_proposer.index] == [
        10, 11, 12]
    extended = ExtendedGame(extended_config(p, committee_size=W, honest_per_slot=1))
    assert extended.committees == {
        slot: range((slot + p) * W, (slot + p + 1) * W) for slot in range(-p, p + 1)}
    base = (2 * p + 1) * W  # the pre-game voters, then the slot 1..p committees
    assert {s: v.index for s, v in extended.leaders.items()} == {1: base, 2: base + 1, 3: base + 2}
    assert [extended.pre_leaders[s].index for s in range(-p, 1)] == list(range(base + 3, base + 7))
    assert extended.adversary.index == base + 7
    selfish = SelfishMiningGame(simple_config(
        committee_size=W, n_adversarial_slots=2, n_non_adversarial_slots=2))
    assert selfish.committees == {slot: range(slot * W, (slot + 1) * W) for slot in range(4)}
    assert {s: v.index for s, v in selfish.leaders.items()} == {1: 20, 3: 21}
    assert [selfish.adversary.index, selfish.genesis_proposer.index] == [22, 23]
    dag = DagVotesGame(simple_config(committee_size=W, boost=0))
    assert dag.committees == {slot: range(slot * W, (slot + 1) * W) for slot in range(5)}
    assert {s: v.index for s, v in dag.leaders.items()} == {1: 25, 2: 26, 3: 27, 4: 28}
    assert dag.genesis_proposer.index == 29
