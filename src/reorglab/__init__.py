"""Deterministic LMD GHOST simulator and commitment-attack game laboratory."""

from .chain import (
    Block,
    BlockId,
    BlockTree,
    EvidenceRecord,
    TieBreakPolicy,
    Validator,
    ValidatorKind,
    VoteRecord,
    detect_reorg,
)
from .compliance import (
    ComplianceTracker,
    compliant_tip,
)
from .engine import (
    DecisionPoint,
    Role,
    RunTrace,
    Simulation,
    StrategyProfile,
)
from .equilibrium import (
    Dominance,
    EquilibriumReport,
    ExplosionGuard,
    Verdict,
    best_response,
    dag_security_scenario,
    dominance_check,
    verify_nash,
    verify_spne,
)
from .games import (
    DagVotesGame,
    ExtendedGame,
    GameConfig,
    GameOutcome,
    NoBoostGame,
    PayoffMatrix,
    PoolSpec,
    SelfishMiningGame,
    SimpleGame,
    StrongSimpleGame,
    pool_payoff_simple,
    simple_payoff_matrix,
)
from .overhead import (
    CostVector,
    OverheadParams,
    aggregator_comm_overhead_bytes,
    aggregator_cost,
    current_block_aggregate_bytes,
    optimistic_evidence_bytes,
    proposer_extra_cost,
    verifier_cost,
    worst_case_evidence_bytes,
)
from .rewards import (
    Mechanism,
    PayoffLedger,
    RewardParams,
    altair_block_inclusion_reward,
    attack_gain_summary,
    head_vote_timely_dag,
    head_vote_timely_ethereum,
    settle_payoffs,
)
from .tendermint import (
    honest_anchor_scenario,
    tm_step,
    tm_vote_reward,
    withholding_attack_scenario,
)

__version__ = "0.1.0"
