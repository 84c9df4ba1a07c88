import pytest

from reorglab.overhead import (
    CostVector,
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

P16 = OverheadParams(n_agg=16, n_limit=8)
P128 = OverheadParams(n_agg=128, n_limit=64)


class TestBlockSpace:
    def test_current_aggregates(self):
        assert current_block_aggregate_bytes(P16) == 20_672

    def test_current_with_empty_lists(self):
        assert current_block_aggregate_bytes(OverheadParams(n_att=0, n_agg=16)) == 12_288

    def test_current_with_one_byte_lists(self):
        assert current_block_aggregate_bytes(OverheadParams(n_att=8, n_agg=16)) == 12_416

    def test_optimistic(self):
        assert optimistic_evidence_bytes(P16) == 33_216
        assert optimistic_evidence_bytes(P128) == 35_008

    def test_optimistic_intercept(self):
        p0 = OverheadParams(n_agg=0, n_limit=0)
        assert optimistic_evidence_bytes(p0) == 32_960

    def test_optimistic_deltas(self):
        d16 = optimistic_block_space(P16)
        assert d16.delta_bytes == 12_544
        assert round(float(d16.pct_of_avg_block) * 100, 2) == 12.36
        d128 = optimistic_block_space(P128)
        assert d128.delta_bytes == 14_336
        assert round(float(d128.pct_of_avg_block) * 100, 2) == 14.12

    def test_worst_case(self):
        assert worst_case_evidence_bytes(P16) == 527_360
        assert worst_case_evidence_bytes(P128) == 4_218_880
        assert worst_case_evidence_bytes(OverheadParams(n_agg=1, n_limit=0)) == 32_960

    def test_closed_form_identity(self):
        # optimistic bytes = 32960 + 16 * n_agg at the default list width
        for n_agg in range(0, 513, 8):
            p = OverheadParams(n_agg=n_agg, n_limit=max(0, n_agg - 1))
            assert optimistic_evidence_bytes(p) == 32_960 + 16 * n_agg

    def test_worst_dominates_optimistic(self):
        # from two aggregators up; with a single aggregator the individual
        # evidence is 16 bytes lighter than the aggregated form, which
        # carries an n_agg-bit evidence list the individual one lacks
        for n_agg in range(2, 257, 5):
            p = OverheadParams(n_agg=n_agg, n_limit=max(0, n_agg - 1))
            assert worst_case_evidence_bytes(p) >= optimistic_evidence_bytes(p)
        p1 = OverheadParams(n_agg=1, n_limit=0)
        assert optimistic_evidence_bytes(p1) - worst_case_evidence_bytes(p1) == 16

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            OverheadParams(n_agg=8, n_limit=8)


class TestCosts:
    def test_aggregator_practical(self):
        assert aggregator_cost(P16, "practical") == CostVector(add=1046, mul=2, pair=1050)

    def test_aggregator_single_attestation(self):
        p = OverheadParams(n_att=1, n_agg=16)
        assert aggregator_cost(p, "current") == CostVector(add=0, mul=1, pair=2)

    def test_practical_minus_current(self):
        for n_att in (1, 7, 524):
            p = OverheadParams(n_att=n_att, n_agg=16)
            practical, current = aggregator_cost(p, "practical"), aggregator_cost(p, "current")
            delta = CostVector(practical.add - current.add, practical.mul - current.mul,
                               practical.pair - current.pair)
            assert delta == CostVector(add=n_att - 1, mul=1, pair=2)

    def test_proposer(self):
        assert proposer_extra_cost(P16, "optimistic") == CostVector(add=960, pair=2048)
        assert proposer_extra_cost(P16, "worst") == CostVector(add=0, pair=2048)
        p1 = OverheadParams(n_agg=1, n_limit=0)
        assert proposer_extra_cost(p1, "optimistic") == CostVector(add=0, pair=128)

    def test_verifier(self):
        assert verifier_cost(P16, "optimistic") == CostVector(add=67_904, pair=384)
        assert verifier_cost(P16, "worst") == CostVector(add=569_024, pair=4224)
        p1 = OverheadParams(n_att=1, n_agg=16)
        assert verifier_cost(p1, "current") == CostVector(add=0, pair=128)

    def test_non_negative(self):
        for mode in ("optimistic", "worst"):
            v = verifier_cost(P16, mode)
            assert v.add >= 0 and v.mul >= 0 and v.pair >= 0


class TestCommunication:
    def test_default(self):
        assert aggregator_comm_overhead_bytes(P16) == 192

    def test_scales_with_signature(self):
        assert aggregator_comm_overhead_bytes(
            OverheadParams(sig_bytes=48, n_agg=16)
        ) == 96

    def test_zero(self):
        assert aggregator_comm_overhead_bytes(
            OverheadParams(sig_bytes=0, n_agg=16)
        ) == 0
