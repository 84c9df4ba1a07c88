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
all of them at once, and settlement pays each of them.  Settlement holds no
per-validator container either: the ledger appends one run of validators
per credited record and one per block's includer (`PayoffLedger`), and
`settle_payoffs` returns the amounts as a read-only mapping over chain.py's
runs of validators, each holding one count pair (`SettledPayoffs`), which
multiplies each distinct pair out once, on first read.  So settling a run
costs O(records), whatever the committee size.

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
from collections.abc import ItemsView, Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from typing import Callable, Iterator, Optional

from .chain import Block, BlockId, BlockTree, Run, VoteRecord, find, fold
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


class SettledPayoffs(Mapping):
    """A run's settled amounts by validator: read-only, held as runs of validators.

    Each run of consecutive validators credited one (r count, R count) pair
    is one `(first, span, pair)` run (chain.py), so the mapping holds no
    entry per validator.  An amount is `r * (r count) + R * (R count)`,
    multiplied out once per distinct pair, when first read.  The keys are
    every credited validator, in ascending index order; one counted only in
    units of 0 keeps its key, with amount 0.  Nothing writes to it.
    """

    __slots__ = ("_runs", "_r", "_R", "_amounts")

    def __init__(self, runs: tuple[Run, ...], r: Fraction, R: Fraction):
        self._runs, self._r, self._R = runs, r, R
        self._amounts: dict[tuple[int, int], Fraction] = {}

    def _amount(self, pair: tuple[int, int]) -> Fraction:
        amount = self._amounts.get(pair)
        if amount is None:
            amount = self._amounts[pair] = self._r * pair[0] + self._R * pair[1]
        return amount

    def __getitem__(self, validator: int) -> Fraction:
        hit = find(self._runs, validator, validator + 1) if isinstance(validator, int) else None
        if hit is None:
            raise KeyError(validator)
        return self._amount(hit[1])

    def __iter__(self) -> Iterator[int]:
        for first, span, _ in self._runs:
            yield from range(first, first + span)

    def items(self) -> ItemsView:
        """The (validator, amount) pairs in key order, each run's amount read once, with no `find`."""
        return _SettledItems(self)

    def __len__(self) -> int:
        return sum(span for _, span, _ in self._runs)

    def __repr__(self) -> str:
        return f"SettledPayoffs({dict(self)!r})"


class _SettledItems(ItemsView):
    def __iter__(self) -> Iterator[tuple[int, Fraction]]:
        for first, span, pair in self._mapping._runs:
            yield from zip(range(first, first + span), repeat(self._mapping._amount(pair)))


@dataclass
class PayoffLedger:
    """Head-vote credits being settled: one run of validators per credit.

    Every credit is a whole number of r (correct, timely votes) or of R
    (their inclusion) for each validator of a range, so the ledger appends
    one `(first, stop, unit, times)` run per credit and adds the counts up,
    run against run, once, in `payoffs`.
    """

    r: Fraction
    R: Fraction
    # (first, stop, unit, times): `times` of `unit` for validators first .. stop - 1
    runs: list[tuple[int, int, int, int]] = field(default_factory=list)

    def credit(self, validators: range, unit: int, times: int = 1) -> None:
        """Count `times` of `unit` (ATTESTATION: r, INCLUSION: R) for each of `validators`."""
        self.runs.append((validators.start, validators.stop, unit, times))

    @property
    def payoffs(self) -> SettledPayoffs:
        """Every credited validator's amount, as runs of validators with one count pair.

        One sweep over the credits' edges adds up the (r, R) counts of each
        stretch between two edges, so overlapping credits add and the work
        is O(credits log credits), not O(validators).
        """
        deltas: dict[int, list[int]] = {}  # edge -> the change there of (cover, r count, R count)
        for first, stop, unit, times in self.runs:
            for edge, sign in ((first, 1), (stop, -1)):
                delta = deltas.setdefault(edge, [0, 0, 0])
                delta[0] += sign
                delta[1 + unit] += sign * times
        pieces = []
        cover = r = R = 0
        edges = sorted(deltas)
        for edge, after in zip(edges, edges[1:]):
            d_cover, d_r, d_R = deltas[edge]
            cover, r, R = cover + d_cover, r + d_r, R + d_R
            if cover:
                pieces.append((edge, after - edge, (r, R)))
        return SettledPayoffs(fold(pieces), self.r, self.R)


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
    """The last block on `chain` at or before each slot (a vote's correctness target), from one pass."""
    if not chain:
        return lambda slot: None
    targets: dict[int, BlockId] = {}
    for bid, child in zip(chain, chain[1:]):
        targets.update(dict.fromkeys(range(tree.blocks[bid].slot, tree.blocks[child].slot), bid))
    last, last_slot = chain[-1], tree.blocks[chain[-1]].slot
    return lambda slot: last if slot >= last_slot else targets.get(slot)


def settle_payoffs(trace: RunTrace, params: RewardParams) -> SettledPayoffs:
    """Credit r per correct+timely included head vote, R to its includer.

    A counted record is judged once for all its voters, which share its
    slot, target and inclusions: it credits r to its voters as one range.
    A block's includer is credited once, R times the summed span of the
    block's credited records.  Returns every credited validator's amount as
    a read-only `SettledPayoffs`, in ascending index order, so a run's
    settlement holds no per-validator container.  A record included in
    several chain blocks is credited at most once; it is known by its first
    voter and slot, since the records of one run never share a voter.  All
    votes of one slot share one correctness target, so the targets come
    from one pass over the chain rather than one walk per vote.
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
        included = 0  # the voters of the block's credited records
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
            included += vote.span
        if included:
            includer = block.proposer.index
            credit(range(includer, includer + 1), INCLUSION, included)
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
