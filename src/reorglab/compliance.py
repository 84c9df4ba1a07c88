"""Compliant-tip identification and iterative compliance classification.

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
    """Iteratively judged compliance marks for blocks and votes.

    Seeded with B_{-p} compliant and the original chain B_{-p+1}..B_0
    non-compliant.  Each compliant-tip query (`tip_at_leader_time`,
    `tip_at_vote_time`) first classifies what the tree gained since the last
    one (`observe`), so the extended-game script only asks for tips.
    """

    p: int
    committee_size: int
    boost: int
    tie_break: TieBreakPolicy = TieBreakPolicy.ADVERSARY_FAVORING
    block_marks: dict[BlockId, bool] = field(default_factory=dict)
    vote_marks: dict[tuple[int, int, BlockId], bool] = field(default_factory=dict)
    leader_tips: dict[int, BlockId] = field(default_factory=dict)
    vote_tips: dict[int, BlockId] = field(default_factory=dict)
    # how many of the tree's blocks and votes `observe` has already seen
    seen_blocks: int = field(default=0, init=False)
    seen_votes: int = field(default=0, init=False)

    def fork(self) -> ComplianceTracker:
        """A copy to classify on independently: the marks, tips and seen counts."""
        tracker = ComplianceTracker(
            self.p, self.committee_size, self.boost, self.tie_break,
            dict(self.block_marks), dict(self.vote_marks),
            dict(self.leader_tips), dict(self.vote_tips),
        )
        tracker.seen_blocks, tracker.seen_votes = self.seen_blocks, self.seen_votes
        return tracker

    def seed(self, genesis: BlockId, originals: list[BlockId]) -> None:
        self.block_marks[genesis] = True
        for bid in originals:
            self.block_marks[bid] = False

    def observe(self, tree: BlockTree) -> None:
        """Classify the slot-1..p blocks and votes delivered since the last call."""
        blocks = list(tree.blocks.values())
        for block in blocks[self.seen_blocks:]:
            if 1 <= block.slot <= self.p:
                self.classify_block(block)
        for vote in tree.votes[self.seen_votes:]:
            if 1 <= vote.slot <= self.p:
                self.classify_vote(vote)
        self.seen_blocks, self.seen_votes = len(blocks), len(tree.votes)

    def tip_at_leader_time(self, tree: BlockTree, slot_i: int) -> BlockId:
        return self._tip(tree, slot_i, self.leader_tips)

    def tip_at_vote_time(self, tree: BlockTree, slot_i: int) -> BlockId:
        return self._tip(tree, slot_i, self.vote_tips)

    def _tip(self, tree: BlockTree, slot_i: int, tips: dict[int, BlockId]) -> BlockId:
        """Observe `tree`, then record in `tips` the compliant tip of `slot_i`."""
        self.observe(tree)
        tips[slot_i] = tip = compliant_tip(
            tree, slot_i, self.p, self.committee_size, self.boost,
            self.block_marks, self.tie_break,
        )
        return tip

    def classify_block(self, block: Block) -> bool:
        """Judge a slot-i block against the compliant tip of its leader tick.

        Compliant means: empty, proposed on the compliant tip, and (for
        slots past the first) carrying only the compliant previous-slot
        votes for its parent.
        """
        slot_i = block.slot
        expected_parent = self.leader_tips.get(slot_i)
        ok = (
            block.is_empty
            and expected_parent is not None
            and block.parent == expected_parent
        )
        if ok and slot_i >= 2:
            for vote in block.included_votes:
                if vote.slot != slot_i - 1 or vote.target != block.parent:
                    ok = False
                    break
                if not self.vote_marks.get((vote.slot, vote.voter, vote.target), False):
                    ok = False
                    break
        self.block_marks[block.id] = ok
        return ok

    def classify_vote(self, vote: VoteRecord) -> bool:
        """A slot-i vote is compliant iff it names the vote-time compliant tip."""
        ok = self.vote_tips.get(vote.slot) == vote.target
        self.vote_marks[(vote.slot, vote.voter, vote.target)] = ok
        return ok

    def is_vote_compliant(self, vote: VoteRecord) -> bool:
        return self.vote_marks.get((vote.slot, vote.voter, vote.target), False)

    def compliant_block_of_slot(self, tree: BlockTree, slot_i: int) -> Optional[BlockId]:
        for bid in sorted(tree.blocks):
            if tree.blocks[bid].slot == slot_i and self.block_marks.get(bid, False):
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
