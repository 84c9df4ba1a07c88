"""Head-vote rewards under the next-slot-inclusion and DAG-votes rules.

A head vote earns its attestation reward r (and the includer's leader the
inclusion reward R) only if the vote is included in the canonical chain and
is both correct and timely.  Correctness is shared by both mechanisms: the
vote must name the last block at or before its slot on the chain.  The two
mechanisms differ on timeliness:

* next-slot inclusion: the vote must sit in the block of exactly the
  following slot - the lever every commitment attack pulls on;
* DAG votes: inclusion in the following slot's block still qualifies, but
  so does a strict majority (> W/2) of unique next-slot attestor signatures
  over the vote appearing anywhere later on the chain.  The committee's
  signatures travel as counted evidence records, indexed per vote record.

A counted vote record (chain.py) is judged as it stands: its voters share
its slot, target, inclusions and signers, so every test here answers for
all of them at once, and settlement pays each of them.

DAG settlement is O(1) per vote in W: the next-slot test asks the block's
vote set (`Block.included_vote_set`), and the signer count reads the one
signer set a single block holds for the vote, taking a union only when
several chain blocks carry signatures over it.

The module also carries the gwei-level quantification of what a one-block
reorg is worth to the attacking proposer, using the standard Altair reward
constants (increment 1e9 gwei, base factor 64, vote weights 14/26/14 and
proposer share 8/56 of a 64-part split).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .chain import Block, BlockId, BlockTree, VoteRecord
from .engine import RunTrace


class RewardError(Exception):
    pass


class TargetNotOnChainQueryable(RewardError):
    pass


class ZeroStake(RewardError):
    pass


class Mechanism(enum.Enum):
    ETHEREUM = "ethereum"
    DAG_VOTES = "dag-votes"


# Altair's flag weights of a 64-part split, and the proposer's share of them
SOURCE_WEIGHT, TARGET_WEIGHT, HEAD_WEIGHT, WEIGHT_DENOMINATOR = 14, 26, 14, 64
PROPOSER_SHARE = Fraction(8, 56)


@dataclass(frozen=True)
class RewardParams:
    r: Fraction = Fraction(1)
    R: Fraction = Fraction(1)
    mechanism: Mechanism = Mechanism.ETHEREUM
    committee_size: int = 0  # W, needed for the DAG evidence threshold


# the two units a credit counts: r for a correct, timely vote, R for its inclusion
ATTESTATION, INCLUSION = 0, 1


@dataclass
class PayoffLedger:
    """Head-vote credits being settled: integer counts per unit, amounts made once.

    Every credit is a whole number of r (correct, timely votes) or of R
    (their inclusion), so the ledger counts them per validator and
    multiplies by the units once, in `payoffs`.  A validator counted only in
    units of 0 keeps its key, with amount 0.
    """

    r: Fraction
    R: Fraction
    # validator -> (r count, R count), in order of first credit
    counts: dict[int, tuple[int, int]] = field(default_factory=dict)

    def credit(self, validators: Sequence[int], unit: int, times: int = 1) -> None:
        """Count `times` of `unit` (ATTESTATION: r, INCLUSION: R) for each of `validators`.

        Validators credited for the first time, as a counted vote's voters
        are, are entered in one `dict.fromkeys`, with no loop per validator.
        """
        counts = self.counts
        if counts.keys().isdisjoint(validators):
            fresh = (times, 0) if unit == ATTESTATION else (0, times)
            counts.update(dict.fromkeys(validators, fresh))
            return
        for v in validators:
            r, R = counts.get(v, (0, 0))
            counts[v] = (r + times, R) if unit == ATTESTATION else (r, R + times)

    @property
    def payoffs(self) -> dict[int, Fraction]:
        """Every credited validator's amount; each distinct count pair is multiplied out once."""
        counts = self.counts
        amounts = {pair: self.r * pair[0] + self.R * pair[1] for pair in set(counts.values())}
        return {v: amounts[pair] for v, pair in counts.items()}


def correctness_target(chain: list[BlockId], tree: BlockTree, slot: int) -> Optional[BlockId]:
    """Last block on `chain` with slot <= `slot` (the required vote target)."""
    last = None
    for bid in chain:
        if tree.blocks[bid].slot <= slot:
            last = bid
        else:
            break
    return last


def head_vote_correct(vote: VoteRecord, chain: list[BlockId], tree: BlockTree) -> bool:
    if vote.target not in tree.blocks:
        raise TargetNotOnChainQueryable(f"vote target {vote.target} unknown")
    return correctness_target(chain, tree, vote.slot) == vote.target


def head_vote_timely_ethereum(vote: VoteRecord, including_block: Block) -> bool:
    return including_block.slot == vote.slot + 1


def head_vote_timely_dag(
    vote: VoteRecord, chain: list[BlockId], tree: BlockTree, committee_size: int
) -> bool:
    """Timely if next-slot-included on chain, or evidenced by > W/2 signers.

    Only evidences sitting in chain blocks strictly after the correctness
    target count, and each signer counts once however many blocks carry its
    signature; the threshold is strict, so W even with exactly W/2 signers is
    untimely.  Slots strictly increase along a chain, so the blocks after the
    target are exactly those with a slot above the vote's.  The next-slot
    test asks the block's vote set (`Block.included_vote_set`).  A block's
    signers are one frozenset of `Block.evidence_signers`: a single
    contributing block's set is counted as it stands, and only several are
    united, so no W-size set is copied in the common case.
    """
    next_slot = vote.slot + 1
    key = signed = None
    for bid in chain:
        block = tree.blocks[bid]
        if block.slot <= vote.slot:
            continue
        if block.slot == next_slot and vote in block.included_vote_set:
            return True
        if block.included_evidences:
            if key is None:
                key = (vote.voter, vote.slot, vote.target)
            signers = block.evidence_signers.get(key)
            if signers:
                signed = signers if signed is None else signed | signers
    return signed is not None and 2 * len(signed) > committee_size


def _slot_targets(chain: list[BlockId], tree: BlockTree) -> Callable[[int], Optional[BlockId]]:
    """`correctness_target(chain, tree, slot)` for every slot, from one forward pass over `chain`."""
    if not chain:
        return lambda slot: None
    targets: dict[int, BlockId] = {}
    for bid, child in zip(chain, chain[1:]):
        targets.update(dict.fromkeys(range(tree.blocks[bid].slot, tree.blocks[child].slot), bid))
    last, last_slot = chain[-1], tree.blocks[chain[-1]].slot
    return lambda slot: last if slot >= last_slot else targets.get(slot)


def settle_payoffs(trace: RunTrace, params: RewardParams) -> dict[int, Fraction]:
    """Credit r per correct+timely included head vote, R to its includer.

    A counted record is judged once for all its voters, which share its
    slot, target and inclusions: it credits r to each voter and R times its
    span to the includer.  Returns every credited validator's amount, in
    order of first credit.  A record included in several chain blocks is
    credited at most once; it is known by its first voter and slot, since
    the records of one run never share a voter.  All votes of one slot share
    one correctness target, so the targets come from one pass over the
    chain rather than one walk per vote.
    """
    ledger = PayoffLedger(params.r, params.R)
    credit = ledger.credit
    tree = trace.tree
    chain = trace.final_chain
    target_of = _slot_targets(chain, tree)
    ethereum = params.mechanism is Mechanism.ETHEREUM
    credited: set[tuple[int, int]] = set()
    for bid in chain:
        block = tree.blocks[bid]
        includer = block.proposer.index
        for vote in block.included_votes:
            key = (vote.voter, vote.slot)
            if key in credited:
                continue
            if vote.target not in tree.blocks:
                raise TargetNotOnChainQueryable(f"vote target {vote.target} unknown")
            if target_of(vote.slot) != vote.target:
                continue
            if ethereum:
                timely = head_vote_timely_ethereum(vote, block)
            else:
                timely = head_vote_timely_dag(vote, chain, tree, params.committee_size)
            if not timely:
                continue
            credited.add(key)
            credit(vote.voters, ATTESTATION)
            credit((includer,), INCLUSION, vote.span)
    return ledger.payoffs


# -- Altair-weight quantification -------------------------------------------


@dataclass(frozen=True)
class InclusionRewardBreakdown:
    """Average per-block attestation inclusion rewards, in gwei (exact)."""

    all_three_votes: Fraction
    source_target_only: Fraction
    head_only: Fraction
    attestor_head_committee_total: Fraction

    @property
    def success_case(self) -> Fraction:
        # a reorging block collects a full committee's worth of fresh
        # inclusion rewards plus the reorged slot's source/target share
        return self.all_three_votes + self.source_target_only

    @staticmethod
    def as_eth(gwei: Fraction) -> float:
        return float(gwei / 10**9)


def altair_block_inclusion_reward(
    n_validators: int,
    stake_per_validator_gwei: int = 32 * 10**9,
) -> InclusionRewardBreakdown:
    """Per-block proposer inclusion rewards split by vote weights.

    base reward per increment = 1e9 * 64 / isqrt(total stake in gwei); a
    validator holds stake/1e9 increments.  The proposer share of an included
    attestation with flag weight w is base * (w / 64) * (8 / 56); one block
    includes the attestations of one committee of n/32 validators.
    """
    if n_validators <= 0 or stake_per_validator_gwei <= 0:
        raise ZeroStake("total stake must be positive")
    total_stake = n_validators * stake_per_validator_gwei
    base_per_increment = Fraction(10**9 * 64, math.isqrt(total_stake))
    increments = stake_per_validator_gwei // 10**9
    base_reward = increments * base_per_increment
    committee = Fraction(n_validators, 32)

    def inclusion_total(weight_sum: int) -> Fraction:
        per_attester = base_reward * Fraction(weight_sum, WEIGHT_DENOMINATOR) * PROPOSER_SHARE
        return per_attester * committee

    head_attester_total = base_reward * Fraction(HEAD_WEIGHT, WEIGHT_DENOMINATOR) * committee
    return InclusionRewardBreakdown(
        all_three_votes=inclusion_total(SOURCE_WEIGHT + TARGET_WEIGHT + HEAD_WEIGHT),
        source_target_only=inclusion_total(SOURCE_WEIGHT + TARGET_WEIGHT),
        head_only=inclusion_total(HEAD_WEIGHT),
        attestor_head_committee_total=head_attester_total,
    )


@dataclass(frozen=True)
class AttackGainSummary:
    delta_gwei: Fraction
    delta_pct: Fraction  # relative to the no-attack block reward
    pool_head_loss_gwei: Fraction
    pool_net_gwei: Fraction

    @property
    def delta_eth(self) -> float:
        return float(self.delta_gwei / 10**9)

    @property
    def pool_net_eth(self) -> float:
        return float(self.pool_net_gwei / 10**9)

    @property
    def pool_head_loss_eth(self) -> float:
        return float(self.pool_head_loss_gwei / 10**9)


def attack_gain_summary(
    inclusion: InclusionRewardBreakdown,
    mev_fail_eth: Fraction,
    mev_success_eth: Fraction,
    pool_share: Fraction = Fraction(0),
) -> AttackGainSummary:
    """Reward delta of a successful one-block reorg; MEV averages are inputs.

    A pool reorging the slot t block forfeits the head-vote rewards of its
    own slot t-1 attestors, hence pool_net = delta - share * committee head
    reward.
    """
    gwei = Fraction(10**9)
    fail_total = inclusion.all_three_votes + mev_fail_eth * gwei
    success_total = inclusion.success_case + mev_success_eth * gwei
    delta = success_total - fail_total
    pool_loss = pool_share * inclusion.attestor_head_committee_total
    return AttackGainSummary(
        delta_gwei=delta,
        delta_pct=delta / fail_total if fail_total else Fraction(0),
        pool_head_loss_gwei=pool_loss,
        pool_net_gwei=delta - pool_loss,
    )
