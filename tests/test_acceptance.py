"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.  Every tolerance is pinned here; nothing defers to calibration.
"""

import io
import json
import time
from fractions import Fraction

import pytest

from reorglab.cli import bundled_scenarios, render_report, run_scenario
from reorglab.compliance import compliant_tip
from reorglab.engine import Role
from reorglab.equilibrium import (
    Verdict,
    dag_security_scenario,
    verify_nash,
    verify_spne,
)
from reorglab.games import (
    ExtendedGame,
    GameConfig,
    PoolSpec,
    SelfishMiningGame,
    SimpleGame,
    StrongSimpleGame,
    pool_payoff_simple,
    simple_payoff_matrix,
)
from reorglab.overhead import (
    OverheadParams,
    aggregator_comm_overhead_bytes,
    aggregator_cost,
    current_block_aggregate_bytes,
    optimistic_block_space,
    optimistic_evidence_bytes,
    proposer_extra_cost,
    verifier_cost,
    worst_case_evidence_bytes,
)
from reorglab.rewards import (
    InclusionRewardBreakdown,
    altair_block_inclusion_reward,
    attack_gain_summary,
)
from reorglab.tendermint import honest_anchor_scenario, withholding_attack_scenario

from closed_forms import pool_payoff_selfish, pool_slot_sets
from test_compliance import CASES, LEX, W, WP, marks_for, oracle_tip
from test_properties import (
    test_fork_choice_oracle_exhaustive_shapes_to_six_blocks,
    test_fork_choice_oracle_exhaustive_small_trees,
)


def report(n: int, text: str) -> None:
    print(f"\nACCEPTANCE {n:02d}: {text} ... PASS")


def test_criterion_01_table1():
    start = time.monotonic()
    game = SimpleGame(GameConfig(committee_size=4, boost=2, r=Fraction(1)))
    matrix = simple_payoff_matrix(game)
    assert matrix.cell("succeed", "C") == 1
    assert matrix.cell("succeed", "NC") == 0
    assert matrix.cell("fail", "C") == 0
    assert matrix.cell("fail", "NC") == 0
    # each cell equals settle_payoffs on the conditioned simulation
    probe = game.solo_players()[-1]
    for row in ("succeed", "fail"):
        for col in ("C", "NC"):
            outcome = game.conditioned_run(probe, col, row)
            assert outcome.trace.payoffs.get(probe, 0) == matrix.cell(row, col)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(1, f"Table 1 exact, cells equal settled payoffs ({elapsed:.2f}s)")


def test_criterion_02_table2():
    config = GameConfig(
        committee_size=4, boost=2, r=Fraction(1), epoch_length=32
    )
    matrix = simple_payoff_matrix(StrongSimpleGame(config))
    assert matrix.cell("succeed", "C") == Fraction(1) + Fraction(1, 32)
    assert matrix.cell("fail", "C") == Fraction(1, 32)
    assert matrix.cell("succeed", "NC") == 0
    assert matrix.cell("fail", "NC") == 0
    report(2, "Table 2 expected payoffs r + r/32 and r/32 exact")


def test_criterion_03_nash_both_profiles():
    start = time.monotonic()
    config = GameConfig(committee_size=4, boost=2)
    game = SimpleGame(config)
    compliant = verify_nash(game, game.profile("compliant-all"))
    failing = verify_nash(game, game.profile("vote-bt-all"))
    assert compliant.verdict is Verdict.NASH
    assert failing.verdict is Verdict.NASH
    # exhaustive over the full candidate product per player
    per_player = 3  # vote B_{t-1}, vote B_t, abstain
    assert compliant.checked == len(game.players()) * per_player
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(3, f"both simple-game profiles certified Nash ({elapsed:.2f}s)")


def test_criterion_04_extended_spne_tables():
    for p in (1, 2, 3):
        config = GameConfig(committee_size=4, boost=2, horizon=p)
        game = ExtendedGame(config)
        rep = verify_spne(game, game.profile("compliant-all"))
        assert rep.verdict is Verdict.SPNE
        for entry in rep.subgame_table:
            expected = config.r if entry.dp.role is Role.ATTESTOR else config.R
            assert entry.payoffs["C"] == expected
            assert all(v == 0 for k, v in entry.payoffs.items() if k != "C")
    report(4, "extended game SPNE for p in {1,2,3} with exact subgame tables")


def test_criterion_05_compliant_tip_oracle():
    assert len(CASES) >= 10
    names = [c[0] for c in CASES]
    assert "p2-be1-beats-b0" in names
    for name, p, i, builder, expected in CASES:
        tree, ids = builder()
        marks = marks_for(name, tree, ids, p)
        got = compliant_tip(tree, i, p, W, WP, marks, LEX)
        assert got == oracle_tip(tree, i, p, W, WP, marks), name
        assert got == ids[expected], name
    report(5, f"compliant tip equals hand-executed oracle on {len(CASES)} trees")


def test_criterion_06_selfish_mining():
    expectations = {(2, 2): True, (3, 2): True, (2, 3): False}
    for (na, nna), wins in expectations.items():
        config = GameConfig(
            committee_size=100, boost=40,
            n_adversarial_slots=na, n_non_adversarial_slots=nna,
            allow_condition_violation=True,
        )
        game = SelfishMiningGame(config)
        out = game.run(game.profile("compliant-all"))
        adv = out.extras["fork_weight_adversarial"]
        nonadv = out.extras["fork_weight_non_adversarial"]
        assert adv == na * 100 + 40
        assert nonadv == nna * 100
        assert out.success == wins == (adv > nonadv)
    # Table 8 closed forms cross-checked against full-trace settlement
    config = GameConfig(
        committee_size=100, boost=40,
        n_adversarial_slots=2, n_non_adversarial_slots=2, pool=PoolSpec(1),
    )
    game = SelfishMiningGame(config)
    s_a, s_na = pool_slot_sets(game)
    for row in ("succeed", "fail"):
        for col in ("C", "NC"):
            formula = pool_payoff_selfish(game, col, row)
            if row == "succeed" and col == "C":
                assert formula == len(s_a) * config.r
            elif row == "fail":
                assert formula == len(s_na) * config.r
            else:
                assert formula == 0
            # solo attestors comply exactly when the fork should win
            solo = "C" if row == "succeed" else "NC"
            out = game.run(game.labelled(lambda dp: col if game.owner(dp) in game.pools else solo))
            settled = sum(
                (
                    out.trace.payoffs.get(v, 0)
                    for slot in range(1, game.horizon)
                    for v in game.committees[slot]
                    if v in game.pools["P"]
                ),
                Fraction(0),
            )
            assert settled == formula
    report(6, "selfish-mining fork weights N_NA*W vs N_A*W+W_p and Table 8 exact")


def test_criterion_07_pool_matrix():
    for m in (1,):
        game = SimpleGame(GameConfig(committee_size=4, boost=2, pool=PoolSpec(m)))
        assert pool_payoff_simple(game, "C", "succeed") == (0, m)
        assert pool_payoff_simple(game, "NC", "succeed") == (0, 0)
        assert pool_payoff_simple(game, "C", "fail") == (m, 0)
        assert pool_payoff_simple(game, "NC", "fail") == (m, 0)
    report(7, "pool payoff matrix pattern (0+mr, 0+0, mr+0, mr+0) exact")


def test_criterion_08_dag_votes():
    config = GameConfig(committee_size=5, boost=0)
    result = dag_security_scenario(config, check_ethereum_flip=True)
    assert result.report.verdict is Verdict.SPNE
    assert result.outcome.extras["adversary_votes"] == 0
    assert result.outcome.extras["adversary_reorged"]
    assert result.outcome.extras["rational_blocks_reorged"] == []
    assert result.ethereum_report.verdict is Verdict.NOT_EQUILIBRIUM
    assert any(d.gain > 0 for d in result.ethereum_report.deviations)
    report(8, "DAG-votes SPNE, hostile block dies, Ethereum swap flips verdict")


def test_criterion_09_tendermint():
    res = withholding_attack_scenario(1, 2, Fraction(1))
    assert res.stalled_rounds == 2
    assert res.finalized_round == 3
    assert res.payoff_per_nonhonest == 2
    assert res.report.verdict is Verdict.NASH
    for f in (1, 2):
        anchor = honest_anchor_scenario(f)
        assert anchor.first_finalized_round == 1
        assert anchor.report.verdict is Verdict.NASH
    report(9, "withholding stalls 2 rounds paying 2 each; anchors finalize round 1")


def test_criterion_10_quantification():
    inc = altair_block_inclusion_reward(1_073_375, 32 * 10**9)
    eth = InclusionRewardBreakdown.as_eth
    assert eth(inc.all_three_votes) == pytest.approx(0.0446, rel=0.01)
    assert eth(inc.success_case) == pytest.approx(0.0777, rel=0.01)
    assert eth(inc.head_only) == pytest.approx(0.0115, rel=0.02)
    summary = attack_gain_summary(
        inc, Fraction("0.082"), Fraction("0.12"), Fraction("0.278")
    )
    assert summary.delta_eth == pytest.approx(0.0711, rel=0.02)
    assert summary.pool_head_loss_eth == pytest.approx(0.0225, rel=0.02)
    assert summary.pool_net_eth == pytest.approx(0.0486, rel=0.02)
    assert inc.head_only / inc.all_three_votes == Fraction(14, 54)
    assert inc.success_case / inc.all_three_votes == Fraction(94, 54)
    report(10, "gwei-level attack-gain quantification within stated tolerances")


def test_criterion_11_overhead():
    p16 = OverheadParams(n_agg=16, n_limit=8)
    p128 = OverheadParams(n_agg=128, n_limit=64)
    assert current_block_aggregate_bytes(p16) == 20_672
    assert optimistic_evidence_bytes(p16) == 33_216
    assert optimistic_evidence_bytes(p128) == 35_008
    assert worst_case_evidence_bytes(p16) == 527_360
    assert worst_case_evidence_bytes(p128) == 4_218_880
    d16, d128 = optimistic_block_space(p16), optimistic_block_space(p128)
    assert (d16.delta_bytes, d128.delta_bytes) == (12_544, 14_336)
    assert round(float(d16.pct_of_avg_block) * 100, 2) == 12.36
    assert round(float(d128.pct_of_avg_block) * 100, 2) == 14.12
    for p in (p16, p128):
        agg = aggregator_cost(p, "practical")
        assert (agg.pair, agg.add, agg.mul) == (2 * (p.n_att + 1), 2 * (p.n_att - 1), 2)
        opt = proposer_extra_cost(p, "optimistic")
        assert (opt.pair, opt.add) == (128 * p.n_agg, 64 * (p.n_agg - 1))
        worst = proposer_extra_cost(p, "worst")
        assert (worst.pair, worst.add) == (128 * p.n_agg, 0)
        vopt = verifier_cost(p, "optimistic")
        assert (vopt.add, vopt.pair) == (64 * (2 * p.n_att + p.n_agg - 3), 384)
        vworst = verifier_cost(p, "worst")
        assert (vworst.add, vworst.pair) == (
            64 * (p.n_att - 1) * (p.n_agg + 1),
            64 * (2 + 4 * p.n_agg),
        )
    assert aggregator_comm_overhead_bytes(p16) == 192
    report(11, "block-space and cost formulas exact, communication 192 bytes")


def test_criterion_12_property_suites(tmp_path):
    # fork-choice oracle equivalence, exhaustive enumeration
    test_fork_choice_oracle_exhaustive_small_trees()
    test_fork_choice_oracle_exhaustive_shapes_to_six_blocks()
    # determinism: byte-identical reports and traces across 3 repeated runs
    for name, text in sorted(bundled_scenarios().items()):
        renders = set()
        traces = set()
        trace_path = tmp_path / f"{name}.jsonl"
        for _ in range(3):
            rep = run_scenario(io.StringIO(text), trace_path=str(trace_path))
            renders.add(render_report(rep, "json"))
            if trace_path.exists():
                traces.add(trace_path.read_text())
        assert len(renders) == 1, name
        assert len(traces) <= 1, name
    # slashing invariant over the bundled game scenarios
    for name, text in sorted(bundled_scenarios().items()):
        doc = json.loads(text)
        if doc["game"].get("kind") in ("tendermint", "quantify", "overhead"):
            continue
        trace_path = tmp_path / f"slash-{name}.jsonl"
        run_scenario(io.StringIO(text), trace_path=str(trace_path))
        if not trace_path.exists():
            continue
        seen: dict = {}
        for line in trace_path.read_text().splitlines():
            event = json.loads(line)
            if event.get("kind") == "vote":
                key = (event["payload"]["voter"], event["payload"]["slot"])
                target = event["payload"]["target"]
                assert seen.setdefault(key, target) == target, name
    # DAG timeliness monotonicity under randomized evidence insertion
    from test_properties import test_dag_timeliness_monotone_randomized

    test_dag_timeliness_monotone_randomized()
    report(12, "oracle equivalence, determinism, slashing, DAG monotonicity")
