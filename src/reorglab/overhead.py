"""Block-space, computational and communication overhead of practical DAG votes.

Closed forms only, evaluated exactly: byte totals are integers (tracked in
bits internally, since aggregation lists are one bit per attestor), costs
are integer coefficient vectors over the abstract elliptic-curve operations
C_add, C_mul and C_pair.  A kilobyte is 1000 bytes throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

# Ethereum mainnet's deployment
SUBCOMMITTEES_PER_SLOT = 64
AGGREGATES_PER_BLOCK = 128
AVG_BLOCK_BYTES = 101_500


@dataclass(frozen=True)
class OverheadParams:
    n_att: int = 524  # attestors per sub-committee (aggregation-list bits)
    n_agg: int = 16  # aggregators per sub-committee
    n_limit: Optional[int] = None  # evidences needed for timeliness; min(8, n_agg - 1) if None
    sig_bytes: int = 96

    def __post_init__(self):
        if self.n_limit is None:
            object.__setattr__(self, "n_limit", min(8, max(0, self.n_agg - 1)))
        if self.n_agg > 0 and self.n_limit >= self.n_agg:
            raise ValueError("evidence threshold must stay below the aggregator count")
        for name in ("n_att", "n_agg", "sig_bytes"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class CostVector:
    add: int = 0
    mul: int = 0
    pair: int = 0

    def __str__(self) -> str:
        return f"{self.add}*C_add + {self.mul}*C_mul + {self.pair}*C_pair"


def _bits_to_bytes(bits: int) -> int:
    if bits % 8:
        raise ValueError(f"{bits} bits is not a whole number of bytes")
    return bits // 8


def current_block_aggregate_bytes(p: OverheadParams) -> int:
    """Aggregated signature plus aggregation list, per aggregate, per block."""
    bits = AGGREGATES_PER_BLOCK * (8 * p.sig_bytes + p.n_att)
    return _bits_to_bytes(bits)


def optimistic_evidence_bytes(p: OverheadParams) -> int:
    """One aggregated evidence per sub-committee replaces each aggregate.

    Each carries two signatures plus both aggregation lists (evidence list
    of n_agg bits, attestation list of n_att bits).
    """
    bits = AGGREGATES_PER_BLOCK * (2 * 8 * p.sig_bytes + p.n_agg + p.n_att)
    return _bits_to_bytes(bits)


def worst_case_evidence_bytes(p: OverheadParams) -> int:
    """Every aggregator's evidence is distinct: n_agg per sub-committee."""
    bits = AGGREGATES_PER_BLOCK * p.n_agg * (2 * 8 * p.sig_bytes + p.n_att)
    return _bits_to_bytes(bits)


@dataclass(frozen=True)
class BlockSpaceDelta:
    baseline_bytes: int
    evidence_bytes: int
    delta_bytes: int
    pct_of_avg_block: Fraction


def optimistic_block_space(p: OverheadParams) -> BlockSpaceDelta:
    base = current_block_aggregate_bytes(p)
    ev = optimistic_evidence_bytes(p)
    return BlockSpaceDelta(base, ev, ev - base, Fraction(ev - base, AVG_BLOCK_BYTES))


def worst_case_block_space(p: OverheadParams) -> BlockSpaceDelta:
    base = current_block_aggregate_bytes(p)
    ev = worst_case_evidence_bytes(p)
    return BlockSpaceDelta(base, ev, ev - base, Fraction(ev - base, AVG_BLOCK_BYTES))


def aggregator_cost(p: OverheadParams, mode: str) -> CostVector:
    """Per-aggregator work: verify the sub-committee, aggregate, sign.

    The practical mechanism additionally verifies and signs the strongest
    previous-slot aggregate, doubling the pairing-heavy part.
    """
    if mode == "current":
        return CostVector(add=p.n_att - 1, mul=1, pair=2 * p.n_att)
    if mode == "practical":
        return CostVector(add=2 * (p.n_att - 1), mul=2, pair=2 * (p.n_att + 1))
    raise ValueError(f"unknown mode {mode!r}")


def proposer_extra_cost(p: OverheadParams, mode: str) -> CostVector:
    """Extra proposer work to verify and aggregate evidences, all sub-committees."""
    if mode == "optimistic":
        return CostVector(
            add=SUBCOMMITTEES_PER_SLOT * (p.n_agg - 1),
            pair=2 * SUBCOMMITTEES_PER_SLOT * p.n_agg,
        )
    if mode == "worst":
        return CostVector(pair=2 * SUBCOMMITTEES_PER_SLOT * p.n_agg)
    raise ValueError(f"unknown mode {mode!r}")


def verifier_cost(p: OverheadParams, mode: str) -> CostVector:
    """Consensus-data verification cost of one block."""
    n, a, s = p.n_att, p.n_agg, SUBCOMMITTEES_PER_SLOT
    if mode == "current":
        return CostVector(add=s * (n - 1), pair=2 * s)
    if mode == "optimistic":
        return CostVector(add=s * (2 * n + a - 3), pair=6 * s)
    if mode == "worst":
        return CostVector(add=s * (n - 1) * (a + 1), pair=s * (2 + 4 * a))
    raise ValueError(f"unknown mode {mode!r}")


def aggregator_comm_overhead_bytes(p: OverheadParams) -> int:
    """Extra bytes per aggregator: the previous aggregate plus one signature."""
    return 2 * p.sig_bytes


def overhead_grid(params_list: list[OverheadParams]) -> list[dict]:
    """Tabular report rows for the CLI: one row per parameter set and mode."""
    rows = []
    for p in params_list:
        for mode, space in (
            ("optimistic", optimistic_block_space(p)),
            ("worst", worst_case_block_space(p)),
        ):
            rows.append(
                {
                    "n_att": p.n_att,
                    "n_agg": p.n_agg,
                    "mode": mode,
                    "baseline_bytes": space.baseline_bytes,
                    "evidence_bytes": space.evidence_bytes,
                    "delta_bytes": space.delta_bytes,
                    "pct_of_avg_block": f"{float(space.pct_of_avg_block) * 100:.2f}%",
                    "proposer_extra": str(proposer_extra_cost(p, mode)),
                    "verifier": str(verifier_cost(p, mode)),
                    "aggregator_practical": str(aggregator_cost(p, "practical")),
                    "comm_overhead_bytes": aggregator_comm_overhead_bytes(p),
                }
            )
    return rows
