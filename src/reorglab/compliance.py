"""Compliant-tip identification and compliance marks judged from the recorded tips.

The extended attack coordinates leaders and attestors of slots 1..p onto a
fork of empty blocks built from B_{-p}.  Everyone locates the block to build
on (the *compliant tip*) with the same procedure: rank the tree's blocks,
then take the first one that lies on its own hypothetical chain.  A block's
hypothetical chain is the fork choice once the block's subtree gains the
weight (p - i + 1) * W + W_p it would get if all remaining committees voted
below it and the adversary's boosted block extended that chain.

The rank prefers the block whose prefix contains the fewest-recent
non-compliant block (a fully compliant prefix beats any non-compliant one),
then the largest slot (the deepest block of the compliant chain), then the
lowest id.  The depth preference is what makes the procedure return the
previous slot's compliant block once all earlier slots have complied, which
the whole backward-induction argument rests on.  Ranks end in the id, so
they are unique and the first survivor is the best-ranked one.

The hypothetical weights are applied as virtual votes, so the scan fills
only the tree's private fork-choice caches and changes none of its blocks
or votes: subtree weights after the scan equal those before.  The queries
of one scan differ only in their virtual votes, so they share one sweep of
the tree's vote weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from .chain import Block, BlockId, BlockTree, TieBreakPolicy, VoteRecord


class HonestMajority(Exception):
    pass


class EmptyCandidateSet(Exception):
    """No block survived the membership check.

    Cannot happen on trees rooted at B_{-p}: the root is on every chain the
    fork choice can return, so it always qualifies.  Raised as a defect
    assertion.
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

    Rank, then the first block on its own hypothetical chain.  `slot_i` may
    be p+1 (the adversary's own run: no committees remain, the hypothetical
    weight degenerates to the proposer boost alone).
    """
    hypothetical = (p - slot_i + 1) * committee_size + boost
    prefix_worst = prefix_noncompliance_indices(tree, compliance_marks)

    def rank(bid: BlockId) -> tuple:
        worst = prefix_worst[bid]
        # None (fully compliant prefix) sorts before every slot number
        return ((0, 0) if worst is None else (1, worst), -tree.blocks[bid].slot, bid)

    blocks = tree.blocks
    for bid in sorted(blocks, key=rank):
        cur = tree.fork_choice(slot_i, None, 0, tie_break, {bid: hypothetical})
        # slots grow along a chain: walk up from the head to the candidate's slot
        slot = blocks[bid].slot
        while blocks[cur].slot > slot:
            cur = blocks[cur].parent
        if cur == bid:
            return bid
    raise EmptyCandidateSet("no candidate lies on its own hypothetical chain")


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
        """Judge the blocks not judged yet, then record in `tips` the compliant tip of `slot_i`."""
        marks = self.block_marks
        for bid, block in tree.blocks.items():
            if bid not in marks:
                marks[bid] = self.is_block_compliant(block)
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


def required_attack_length(p: int, committee_size: int, honest_per_slot: int) -> int:
    """Slots the extended attack must run against W_h honest attestors per slot.

    ceil(p * W / (W - 2 * W_h)); an honest majority per committee makes the
    attack impossible.
    """
    if 2 * honest_per_slot >= committee_size:
        raise HonestMajority(
            f"{honest_per_slot} honest attestors out of {committee_size} "
            "cannot be outvoted"
        )
    num = p * committee_size
    den = committee_size - 2 * honest_per_slot
    return -(-num // den)
