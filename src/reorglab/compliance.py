"""Compliant-tip identification and compliance marks judged from the recorded tips.

The extended attack coordinates leaders and attestors of slots 1..p onto a
fork of empty blocks built from B_{-p}.  Everyone locates the block to build
on (the *compliant tip*) with the same procedure: the best-ranked block that
lies on its own hypothetical chain.  A block's hypothetical chain is the
fork choice once the block's subtree gains the weight (p - i + 1) * W + W_p
it would get if all remaining committees voted below it and the
adversary's boosted block extended that chain.

The rank prefers the block whose prefix contains the fewest-recent
non-compliant block (a fully compliant prefix beats any non-compliant one),
then the largest slot (the deepest block of the compliant chain), then the
lowest id.  The depth preference is what makes the procedure return the
previous slot's compliant block once all earlier slots have complied, which
the whole backward-induction argument rests on.  Ranks end in the id, so
they are unique and the best one is a single block.

The hypothetical weight of a block is added along its own ancestor path
only.  So a block lies on its hypothetical chain exactly when, at each edge
on the path from the root to it, the child's fork-choice key with that
weight added beats every sibling's key as it stands.  One top-down pass over
the tree's store, which the fork choice folds per write and shares with
every query, decides this for every block at once, and the answer is the
least rank among the survivors: nothing is sorted, and no block or vote of
the tree changes.  One fork choice with the answer's hypothetical weight
then confirms it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Mapping, Optional

from .chain import Block, BlockId, BlockTree, TieBreakPolicy, VoteRecord


class EmptyCandidateSet(Exception):
    """No block survived the membership check.

    Cannot happen on trees rooted at B_{-p}: the root is on every chain the
    fork choice can return, so it always qualifies.  Raised as a defect
    assertion.
    """


class UnconfirmedTip(Exception):
    """The fork choice with the answer's hypothetical weight does not pass through it.

    Cannot happen: the one-pass membership test reads the same weights and
    tie-break keys as the fork choice.  Raised as a defect assertion.
    """


def prefix_noncompliance_indices(
    tree: BlockTree, marks: Mapping[BlockId, bool]
) -> dict[BlockId, Optional[int]]:
    """Each block's largest non-compliant slot on its path from the root, else None.

    One pass over the tree: a parent is inserted before its children, so its
    index is known when a child is reached; slots grow along a chain, so a
    non-compliant block is the latest non-compliant block of its own prefix.
    """
    worst: dict[BlockId, Optional[int]] = {}
    for bid, block in tree.blocks.items():
        if not marks.get(bid, False):
            worst[bid] = block.slot
        else:
            worst[bid] = None if block.parent is None else worst[block.parent]
    return worst


def compliant_tip(
    tree: BlockTree,
    slot_i: int,
    p: int,
    committee_size: int,
    boost: int,
    compliance_marks: Mapping[BlockId, bool],
    tie_break: TieBreakPolicy = TieBreakPolicy.ADVERSARY_FAVORING,
) -> BlockId:
    """The block a compliant slot-`slot_i` proposal or vote must build on.

    The best-ranked block on its own hypothetical chain.  A block survives
    when its parent does and, among its siblings, it is the heaviest child
    or its key `(weight + hypothetical, adversarial slot, -id)` beats the
    heaviest child's; LEXICOGRAPHIC drops the adversarial slot, and the
    query has no boost.  `slot_i` may be p+1 (the adversary's own run: no
    committees remain, the hypothetical weight degenerates to the proposer
    boost alone).
    """
    hypothetical = (p - slot_i + 1) * committee_size + boost
    weight, adv = tree.store()
    blocks, children = tree.blocks, tree.children
    if tie_break is TieBreakPolicy.ADVERSARY_FAVORING:
        key = lambda c, lift=0: (weight[c] + lift, adv[c], -c)
    else:
        key = lambda c, lift=0: (weight[c] + lift, -c)
    # top-down, so a block is reached only when its parent survived: at a
    # fork the heaviest child survives, and every sibling the lift carries past it
    survivors = [] if tree.genesis is None else [tree.genesis]
    for parent in survivors:
        kids = children[parent]
        if len(kids) > 1:
            top = max(kids, key=key)
            bar = key(top)
            kids = [c for c in kids if c == top or key(c, hypothetical) > bar]
        survivors.extend(kids)
    if not survivors:
        raise EmptyCandidateSet("no candidate lies on its own hypothetical chain")
    prefix_worst = prefix_noncompliance_indices(tree, compliance_marks)

    def rank(bid: BlockId) -> tuple:
        worst = prefix_worst[bid]
        # None (fully compliant prefix) sorts before every slot number
        return (worst is not None, worst or 0, -blocks[bid].slot, bid)

    best = min(survivors, key=rank)
    cur = tree.fork_choice(slot_i, None, 0, tie_break, {best: hypothetical})
    # slots grow along a chain: walk up from the head to the answer's slot
    slot = blocks[best].slot
    while blocks[cur].slot > slot:
        cur = blocks[cur].parent
    if cur != best:
        raise UnconfirmedTip(f"block {best} is not on its own hypothetical chain")
    return best


@dataclass
class ComplianceTracker:
    """Compliance marks judged from each slot's two recorded compliant tips.

    `tip_at_leader_time` and `tip_at_vote_time` record a slot's tips before
    any of its blocks or votes exist, and they never change; so each block
    is judged once, and `block_marks` keeps the judgment.
    """

    p: int
    committee_size: int
    boost: int
    tie_break: TieBreakPolicy = TieBreakPolicy.ADVERSARY_FAVORING
    block_marks: dict[BlockId, bool] = field(default_factory=dict)
    leader_tips: dict[int, BlockId] = field(default_factory=dict)
    vote_tips: dict[int, BlockId] = field(default_factory=dict)

    def fork(self) -> ComplianceTracker:
        """A copy to play on independently: the marks and the tips."""
        return ComplianceTracker(
            self.p, self.committee_size, self.boost, self.tie_break,
            dict(self.block_marks), dict(self.leader_tips), dict(self.vote_tips),
        )

    def tip_at_leader_time(self, tree: BlockTree, slot_i: int) -> BlockId:
        return self._tip(tree, slot_i, self.leader_tips)

    def tip_at_vote_time(self, tree: BlockTree, slot_i: int) -> BlockId:
        return self._tip(tree, slot_i, self.vote_tips)

    def _tip(self, tree: BlockTree, slot_i: int, tips: dict[int, BlockId]) -> BlockId:
        """Judge the blocks inserted since the last query, then record in `tips` the compliant tip of `slot_i`.

        Each query judges the tree's blocks in insertion order, so the
        judged ones are its first `len(block_marks)`.
        """
        marks, blocks = self.block_marks, tree.blocks
        new = islice(reversed(blocks.values()), len(blocks) - len(marks))
        for block in reversed(list(new)):
            marks[block.id] = self.is_block_compliant(block)
        tips[slot_i] = tip = compliant_tip(
            tree, slot_i, self.p, self.committee_size, self.boost, marks, self.tie_break,
        )
        return tip

    def is_block_compliant(self, block: Block) -> bool:
        """Whether `block` is the root B_{-p} or a compliant slot-1..p block.

        A slot-i block is compliant when it is empty, builds on the compliant
        tip of its leader tick and, for slots past the first, carries only
        compliant previous-slot votes for its parent.
        """
        if block.parent is None:
            return True
        slot_i = block.slot
        if not 1 <= slot_i <= self.p:
            return False
        if not block.is_empty or block.parent != self.leader_tips.get(slot_i):
            return False
        return slot_i == 1 or all(
            v.slot == slot_i - 1 and v.target == block.parent and self.is_vote_compliant(v)
            for v in block.included_votes
        )

    def is_vote_compliant(self, vote: VoteRecord) -> bool:
        """A slot-i vote is compliant iff it names the vote-time compliant tip."""
        return 1 <= vote.slot <= self.p and self.vote_tips.get(vote.slot) == vote.target

    def compliant_block_of_slot(self, tree: BlockTree, slot_i: int) -> Optional[BlockId]:
        for bid in tree.by_slot.get(slot_i, ()):
            if self.block_marks.get(bid, False):
                return bid
        return None
