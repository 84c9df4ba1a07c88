"""Block tree and the LMD GHOST fork-choice rule with proposer boost.

Blocks form a tree rooted at a genesis block; each block carries the votes
and evidences it includes on-chain, and when first asked builds a set of its
votes and an index of its evidences' signers per vote.  Fork-choice weight,
however, is computed from the *delivered* votes known to the tree,
independent of inclusion: a vote influences the fork choice as soon as it is
in view, and earns rewards only once included (see rewards.py).

Vote and evidence records are counted: each stands for the identical
messages of `span` consecutive validators, as a phase0 `Attestation`
carries aggregation bits over its committee.  The tree weighs a vote record
by its span.  Latest messages stay exact because no validator is
covered by two records when either is counted: `latest_votes` raises on
such an overlap, while one-validator records keep the full LMD rule.  The
fold holds every voter it has seen as runs, which each record's range
bisects, so the tree keeps no per-validator container and `fork` copies its
store in O(records).

Every map over validators (a profile's labels, the vote guards, the settled
payoffs) is one representation, defined here: a sorted tuple of disjoint,
maximal `(first, span, value)` runs, which `fold`, `put`, `find` and `over`
build, write, search and walk, never validator by validator.

The fork choice keeps a store that is folded per write, as the spec's
`store.latest_messages` is updated per attestation and proto-array moves
subtree weights by per-vote deltas.  `votes` is append-only (a caller
replaces it by assigning a new list), and the next read folds in the blocks
and vote records written since the last one: a new block enters with weight
0 and pushes its adversarial slot up its ancestors, and a record that
becomes a voter's latest adds its span along its target's ancestor path
while the record it replaces subtracts its own.  So the LMD subtree weights
and the adversary tie-break keys are shared by every query on one tree
state, and a query adds only its own virtual votes and boost along their
blocks' ancestor paths, at O(depth).

Block ids are plain increasing integers rather than hashes: the simulations
need determinism, not collision resistance.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Optional

BlockId = int

# the tie-break key of a subtree that holds no adversarial block
NO_ADVERSARY = -(10**9)


class ChainError(Exception):
    pass


class UnknownParent(ChainError):
    pass


class UnknownBlock(ChainError):
    pass


class DuplicateId(ChainError):
    pass


class EquivocationRejected(ChainError):
    """A non-adversarial proposer attempted a second block for the same slot.

    Proposing two blocks for one slot is a slashable offense, so rational and
    honest agents never do it; the tree rejects the attempt loudly instead of
    silently modelling behavior outside every game's action space.
    """


class OverlappingVote(ChainError):
    """A counted vote record covers a validator that another record already covers.

    The latest message of a voter inside a counted record is that record
    whole, so a second vote by it cannot be folded exactly; no validator
    votes twice in one game run, and the tree refuses the record that would.
    """


class ValidatorKind(enum.Enum):
    RATIONAL = "rational"
    ADVERSARIAL = "adversarial"


@dataclass(frozen=True, slots=True)
class Validator:
    index: int
    kind: ValidatorKind

    def __repr__(self) -> str:
        return f"V{self.index}({self.kind.value[0]})"


@dataclass(frozen=True, slots=True)
class VoteRecord:
    """Head votes: attestors `voter` .. `voter + span - 1` saw `target` as the chain tip at `slot`.

    A record of span 1 is one validator's vote.  A counted record, of a
    larger span, stands for the identical votes of that run of consecutive
    validators, all broadcast at `broadcast_time`: the fork choice weighs it
    `span`, settlement pays each of its voters, and the exported trace
    renders one line per voter.
    """

    slot: int
    voter: int
    target: BlockId
    broadcast_time: int = 0
    span: int = 1

    @property
    def voters(self) -> range:
        return range(self.voter, self.voter + self.span)


@dataclass(frozen=True, slots=True)
class EvidenceRecord:
    """Next-slot attestors `signer` .. `signer + span - 1` sign the votes they saw on time.

    `votes` holds the slot-s vote records delivered on time, counted ones
    included.  The key of a signed vote is (signer, voter, slot, target),
    and duplicates collapse when counted.
    """

    signer: int
    votes: tuple[VoteRecord, ...]
    span: int = 1

    @property
    def signers(self) -> range:
        return range(self.signer, self.signer + self.span)

    def keys(self) -> list[tuple[int, int, int, BlockId]]:
        """The key of each vote signed: signer-major, then one per voter of each record, in tuple order."""
        return [(signer, voter, v.slot, v.target)
                for signer in self.signers for v in self.votes for voter in v.voters]


@dataclass
class Block:
    """A proposed block and what it includes on-chain.

    A block is never changed once inserted, and every fork of a run shares
    it, so the lookups that settlement asks of it are built on first read
    and kept: `included_vote_set` answers "is this vote included here?" in
    O(1), and `evidence_signers` gives each signed vote's distinct signers
    as one ready frozenset.
    """

    id: BlockId
    slot: int
    parent: Optional[BlockId]
    proposer: Validator
    is_empty: bool = False
    included_votes: tuple[VoteRecord, ...] = ()
    included_evidences: tuple[EvidenceRecord, ...] = ()

    @cached_property
    def included_vote_set(self) -> frozenset[VoteRecord]:
        """`included_votes` as a set, built on first read; membership is full `VoteRecord` equality."""
        return frozenset(self.included_votes)

    @cached_property
    def evidence_signers(self) -> dict[tuple[int, int, BlockId], frozenset[int]]:
        """The distinct signers of each vote record its evidences sign, keyed (voter, slot, target).

        Built on first read.  A counted vote record is keyed by its first
        voter, as the records of one run never share a voter.  Each
        evidence's signers are taken as they stand, united only where several
        evidences sign one record.
        """
        index: dict[tuple[int, int, BlockId], frozenset[int]] = {}
        for e in self.included_evidences:
            signed = frozenset(e.signers)
            for v in e.votes:
                key = (v.voter, v.slot, v.target)
                have = index.get(key)
                index[key] = signed if have is None else have | signed
        return index


Run = tuple[int, int, object]  # (first, span, value): validators first .. first + span - 1 hold value
_FIRST = itemgetter(0)


def fold(pieces: Iterable[Run]) -> tuple[Run, ...]:
    """Sorted, disjoint pieces as maximal runs: two that meet with one value become one."""
    runs: list[Run] = []
    for first, span, value in pieces:
        if runs and runs[-1][2] == value and runs[-1][0] + runs[-1][1] == first:
            runs[-1] = (runs[-1][0], runs[-1][1] + span, value)
        else:
            runs.append((first, span, value))
    return tuple(runs)


def put(runs: tuple[Run, ...], first: int, span: int, value: object) -> tuple[Run, ...]:
    """`runs` with validators `first` .. `first + span - 1` holding `value`, over whatever they held.

    Only the runs the range touches or meets are cut and joined again; a
    range past the last run, the common case, needs no bisect.
    """
    last_first, last_span, last_value = runs[-1] if runs else (first, 0, value)
    if last_first + last_span <= first:
        if last_first + last_span == first and last_value == value:
            return (*runs[:-1], (last_first, last_span + span, value))
        return (*runs, (first, span, value))
    stop = first + span
    i = bisect_left(runs, first, key=_FIRST)  # the runs from `i` on start at or past `first`
    lo = i - 1 if i and runs[i - 1][0] + runs[i - 1][1] >= first else i
    hi = bisect_right(runs, stop, lo=i, key=_FIRST)  # runs[lo:hi] touch or meet the range
    pieces = [(first, span, value)]
    if lo < hi and runs[lo][0] < first:  # the first of them may start before the range
        pieces.insert(0, (runs[lo][0], first - runs[lo][0], runs[lo][2]))
    if lo < hi and runs[hi - 1][0] + runs[hi - 1][1] > stop:  # and the last end past it
        pieces.append((stop, runs[hi - 1][0] + runs[hi - 1][1] - stop, runs[hi - 1][2]))
    return runs[:lo] + fold(pieces) + runs[hi:]


def find(runs: tuple[Run, ...], first: int, stop: int) -> Optional[tuple[int, object]]:
    """The smallest of validators `first` .. `stop - 1` that a run covers, and that run's value.

    None when no run covers any of them, or they are none.
    """
    i = bisect_right(runs, first, key=_FIRST)  # the runs from `i` on start past `first`
    if i and first < stop and runs[i - 1][0] + runs[i - 1][1] > first:
        return first, runs[i - 1][2]
    if i < len(runs) and runs[i][0] < stop:
        return runs[i][0], runs[i][2]
    return None


def over(runs: tuple[Run, ...], first: int, stop: int) -> Iterator[Run]:
    """The runs across validators `first` .. `stop - 1`, clipped to them, in index order.

    They cover the range exactly: a stretch no run covers comes as a run
    holding None.
    """
    for start, span, value in runs[bisect_right(runs, first, key=lambda run: run[0] + run[1]):]:
        if start >= stop or first >= stop:  # past the range, or it is empty
            break
        if start > first:
            yield first, start - first, None
            first = start
        end = start + span if start + span < stop else stop
        yield first, end - first, value
        first = end
    if first < stop:
        yield first, stop - first, None


class TieBreakPolicy(enum.Enum):
    """How equal-weight sibling subtrees are resolved.

    ADVERSARY_FAVORING prefers the child whose subtree holds the most recent
    adversarial block (all the attack analyses assume the adversary breaks
    ties), falling back to the lowest block id.  LEXICOGRAPHIC always takes
    the lowest id.
    """

    ADVERSARY_FAVORING = "adversary-favoring"
    LEXICOGRAPHIC = "lexicographic"


@dataclass
class BlockTree:
    """A tree of blocks plus the multiset of delivered votes.

    The fork choice reads a store of three private maps, which
    `latest_votes` folds from what was written since the last read: the
    latest-message map, the LMD subtree weights and the adversary
    tie-break keys.  The fold edits them in place, so `fork` copies them;
    the runs of folded voters are a tuple, which it shares.
    """

    blocks: dict[BlockId, Block] = field(default_factory=dict)
    children: dict[BlockId, list[BlockId]] = field(default_factory=dict)
    by_slot: dict[int, list[BlockId]] = field(default_factory=dict)  # ids in insertion order
    # append-only (`add_vote`); a caller that wants other votes assigns a new list
    votes: list[VoteRecord] = field(default_factory=list)
    genesis: Optional[BlockId] = None
    _next_id: int = 0
    # the latest record per first voter, and every voter of any record as
    # runs, folded from the first `_folded_votes` records of `_folded_list`
    _latest: dict[int, VoteRecord] = field(default_factory=dict, init=False, repr=False, compare=False)
    _covered: tuple[Run, ...] = field(default=(), init=False, repr=False, compare=False)
    _folded_list: Optional[list[VoteRecord]] = field(default=None, init=False, repr=False, compare=False)
    _folded_votes: int = field(default=0, init=False, repr=False, compare=False)
    # the LMD subtree weights of those records, and the latest adversarial
    # slot per subtree, over the first `_folded_blocks` blocks
    _lmd: dict[BlockId, int] = field(default_factory=dict, init=False, repr=False, compare=False)
    _adv: dict[BlockId, int] = field(default_factory=dict, init=False, repr=False, compare=False)
    _folded_blocks: int = field(default=0, init=False, repr=False, compare=False)

    def new_id(self) -> BlockId:
        bid = self._next_id
        self._next_id += 1
        return bid

    def fork(self) -> BlockTree:
        """A copy to write to independently of this tree.

        The containers are copied and the blocks and votes, which nothing
        writes to, are shared, as are the runs of folded voters.  The fold
        edits the store's maps in place, so they are copied: the tie-break
        keys always, and the latest messages and subtree weights, keyed to
        the copy's `votes` list, when they were folded from this tree's
        list.  Otherwise (the list was replaced, or its fold raised) the
        copy folds its votes from the start, as this tree would.
        """
        votes = list(self.votes)
        tree = BlockTree(
            dict(self.blocks),
            {bid: list(kids) for bid, kids in self.children.items()},
            {slot: list(ids) for slot, ids in self.by_slot.items()},
            votes,
            self.genesis,
            self._next_id,
        )
        tree._adv, tree._folded_blocks = dict(self._adv), self._folded_blocks
        if self._folded_list is self.votes:
            tree._latest, tree._covered = dict(self._latest), self._covered
            tree._lmd, tree._folded_list, tree._folded_votes = dict(self._lmd), votes, self._folded_votes
        return tree

    def insert_block(self, block: Block) -> None:
        if block.id in self.blocks:
            raise DuplicateId(f"block id {block.id} already in tree")
        if self.genesis is None:
            if block.parent is not None:
                raise UnknownParent("genesis must have no parent")
            self.genesis = block.id
        else:
            if block.parent not in self.blocks:
                raise UnknownParent(f"parent {block.parent} not in tree")
            parent = self.blocks[block.parent]
            if block.slot <= parent.slot:
                raise ChainError(
                    f"slot {block.slot} not greater than parent slot {parent.slot}"
                )
            if block.proposer.kind is not ValidatorKind.ADVERSARIAL and any(
                self.blocks[other].proposer.index == block.proposer.index
                for other in self.by_slot.get(block.slot, ())
            ):
                raise EquivocationRejected(
                    f"proposer {block.proposer.index} already has a "
                    f"block at slot {block.slot}"
                )
        self.blocks[block.id] = block
        self.children.setdefault(block.id, [])
        self.by_slot.setdefault(block.slot, []).append(block.id)
        if block.parent is not None:
            self.children.setdefault(block.parent, []).append(block.id)

    def add_vote(self, vote: VoteRecord) -> None:
        if vote.span < 1:
            raise ChainError(f"a vote record of span {vote.span} covers no validator")
        if vote.target not in self.blocks:
            raise UnknownBlock(f"vote target {vote.target} not in tree")
        if self.blocks[vote.target].slot > vote.slot:
            raise ChainError(
                f"slot {vote.slot} vote for a slot "
                f"{self.blocks[vote.target].slot} block is invalid"
            )
        self.votes.append(vote)

    def ancestors(self, bid: BlockId) -> list[BlockId]:
        """Path from genesis to `bid`, inclusive."""
        if bid not in self.blocks:
            raise UnknownBlock(f"block {bid} not in tree")
        path = []
        cur: Optional[BlockId] = bid
        while cur is not None:
            path.append(cur)
            cur = self.blocks[cur].parent
        path.reverse()
        return path

    def latest_votes(self) -> list[VoteRecord]:
        """Each voter's latest vote record (LMD), each record listed once, after folding the store.

        The latest of two one-voter records is the larger `(slot,
        broadcast_time, -target)`.  A counted record is folded whole: each of
        its voters has that record as its only message, so a record that
        covers a voter some other record covers, where either is counted,
        raises `OverlappingVote`: every voter folded so far is held as runs
        (`put`), which a record's range bisects (`find`), not per voter.

        Only what was written since the last fold is folded.  A new block
        enters with weight 0 and pushes its adversarial slot up its
        ancestors, stopping at the first that holds a later one already.  A
        record that becomes a voter's latest adds its span along its
        target's ancestor path, and the record it replaces subtracts its
        own.  A fresh tree, a `votes` list that was replaced and one that
        got shorter fold their votes from the start; so does the call after
        one that raised, which raises again.  Records come in the order of
        their first voter's first vote.
        """
        blocks, votes = self.blocks, self.votes
        if votes is not self._folded_list or len(votes) < self._folded_votes:
            self._latest, self._covered, self._lmd = {}, (), dict.fromkeys(blocks, 0)
            self._folded_list, self._folded_votes = votes, 0
        lmd, adv = self._lmd, self._adv
        # insertion order puts every parent before its children
        for block in reversed(list(islice(reversed(blocks.values()), len(blocks) - self._folded_blocks))):
            lmd[block.id] = 0
            if block.proposer.kind is ValidatorKind.ADVERSARIAL:
                adv[block.id] = slot = block.slot
                cur = block.parent
                while cur is not None and adv[cur] < slot:
                    adv[cur] = slot
                    cur = blocks[cur].parent
            else:
                adv[block.id] = NO_ADVERSARY
        self._folded_blocks = len(blocks)

        def lift(bid: Optional[BlockId], amount: int) -> None:
            while bid is not None:
                lmd[bid] += amount
                bid = blocks[bid].parent

        best, covered = self._latest, self._covered
        try:
            for v in votes[self._folded_votes:]:
                if v.span == 1:
                    cur = best.get(v.voter)
                    if cur is None and find(covered, v.voter, v.voter + 1) is None:
                        covered = put(covered, v.voter, 1, None)
                        lift(v.target, 1)
                    elif cur is None or cur.span > 1:
                        raise OverlappingVote(f"validator {v.voter} already has a counted vote")
                    elif (v.slot, v.broadcast_time, -v.target) <= (
                        cur.slot,
                        cur.broadcast_time,
                        -cur.target,
                    ):
                        continue
                    elif v.target != cur.target:
                        lift(cur.target, -1)
                        lift(v.target, 1)
                    best[v.voter] = v
                else:
                    if find(covered, v.voter, v.voter + v.span) is not None:
                        raise OverlappingVote(
                            f"the counted vote of validators {v.voter}..{v.voter + v.span - 1} "
                            "covers a validator that already voted"
                        )
                    covered = put(covered, v.voter, v.span, None)
                    best[v.voter] = v
                    lift(v.target, v.span)
        except OverlappingVote:
            self._folded_list = None  # the next call folds from the start, and raises again
            raise
        self._covered, self._folded_votes = covered, len(votes)
        return list(best.values())

    def store(self) -> tuple[dict[BlockId, int], dict[BlockId, int]]:
        """The LMD subtree weights and the adversary tie-break keys of this tree state.

        Folds what was written since the last read first (`latest_votes`).
        The maps are the store's own, edited in place by later folds:
        callers only read them.  A block's tie-break key is the latest slot
        of an adversarial block in its subtree, `NO_ADVERSARY` if none.
        """
        if not (
            self._folded_blocks == len(self.blocks)
            and self._folded_list is self.votes
            and self._folded_votes == len(self.votes)
        ):
            self.latest_votes()
        return self._lmd, self._adv

    def _weights(
        self,
        current_slot: int,
        boosted: Optional[BlockId],
        boost: int,
        virtual_votes: Optional[Mapping[BlockId, int]],
    ) -> tuple[dict[BlockId, int], dict[BlockId, int]]:
        """Subtree weights under the LMD rule plus boost, as (base, overlay).

        A block's weight is `base[b] + overlay.get(b, 0)`.  `base` is the
        store's LMD weights (`store`), each latest record weighing its span,
        folded per write and shared by every query on one tree state.
        `overlay` is this query's own: each virtual vote, and the boost, is
        added along the ancestor path of its block, at O(depth).
        """
        base, _ = self.store()
        blocks = self.blocks
        extra = list(virtual_votes.items()) if virtual_votes else []
        for bid, _ in extra:
            if bid not in blocks:
                raise UnknownBlock(f"virtual weight target {bid} not in tree")
        if boosted is not None and boost > 0 and boosted in blocks and blocks[boosted].slot == current_slot:
            extra.append((boosted, boost))
        overlay: dict[BlockId, int] = {}
        for bid, amount in extra:
            cur: Optional[BlockId] = bid
            while cur is not None:
                overlay[cur] = overlay.get(cur, 0) + amount
                cur = blocks[cur].parent
        return base, overlay

    def subtree_weight(
        self,
        root: BlockId,
        current_slot: int,
        boosted: Optional[BlockId] = None,
        boost: int = 0,
        virtual_votes: Optional[Mapping[BlockId, int]] = None,
    ) -> int:
        if root not in self.blocks:
            raise UnknownBlock(f"block {root} not in tree")
        base, overlay = self._weights(current_slot, boosted, boost, virtual_votes)
        return base[root] + overlay.get(root, 0)

    def fork_choice(
        self,
        current_slot: int,
        boosted: Optional[BlockId] = None,
        boost: int = 0,
        tie_break: TieBreakPolicy = TieBreakPolicy.ADVERSARY_FAVORING,
        virtual_votes: Optional[Mapping[BlockId, int]] = None,
    ) -> BlockId:
        """Descend from genesis into the heaviest child subtree at each step.

        The weight of a subtree is the number of voters whose latest vote
        lands in it, plus `boost` if it holds the `boosted` block and
        that block was proposed for `current_slot`.  `virtual_votes` lets
        callers add hypothetical weight at a block (used by the compliant-tip
        procedure); it participates in every subtree containing that block,
        exactly as real votes would.

        Under ADVERSARY_FAVORING the tie-break key of a subtree is the latest
        slot of an adversarial block in it.  The vote weights and the
        tie-break keys are the store's, folded per write and shared by every
        query on one tree state (see `latest_votes`), so a query costs
        O(depth) for its virtual votes and boost plus the descent, and needs
        no recursion, however deep the tree.
        """
        if self.genesis is None:
            raise ChainError("empty tree")
        base, overlay = self._weights(current_slot, boosted, boost, virtual_votes)
        if tie_break is TieBreakPolicy.ADVERSARY_FAVORING:
            adv = self._adv
            key = lambda c: (base[c] + overlay.get(c, 0), adv[c], -c)
        else:
            key = lambda c: (base[c] + overlay.get(c, 0), -c)
        cur = self.genesis
        while kids := self.children[cur]:
            cur = kids[0] if len(kids) == 1 else max(kids, key=key)
        return cur

    def canonical_chain(
        self,
        current_slot: int,
        boosted: Optional[BlockId] = None,
        boost: int = 0,
        tie_break: TieBreakPolicy = TieBreakPolicy.ADVERSARY_FAVORING,
        virtual_votes: Optional[Mapping[BlockId, int]] = None,
    ) -> list[BlockId]:
        tip = self.fork_choice(current_slot, boosted, boost, tie_break, virtual_votes)
        return self.ancestors(tip)

def detect_reorg(
    chain_before: Iterable[BlockId], chain_after: Iterable[BlockId]
) -> list[BlockId]:
    """Blocks canonical at the earlier query but absent at the later one."""
    after = set(chain_after)
    return [b for b in chain_before if b not in after]
