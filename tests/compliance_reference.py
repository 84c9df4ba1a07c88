"""The compliance tracker that judges what the tree gained since its last tip query: the reference.

Here each compliant-tip query first classifies the slot-1..p blocks and
votes delivered since the previous query, keeps a mark per vote, and
counts how much of the tree it has seen.  The one change from that
tracker as it stood in the package: `observe` seeds B_{-p} compliant and
the original chain B_{-p+1}..B_0 non-compliant on its first call, as the
extended game's opening used to.  The package's tracker keeps only the
recorded tips and judges every mark from them; the tests check that both
give the same run.  The reference reads every vote record through
`expansion`, one record per voter, and so marks each voter's vote.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from reorglab.chain import Block, BlockId, BlockTree, TieBreakPolicy, VoteRecord
from reorglab.compliance import compliant_tip

from expansion import expand_vote, expand_votes


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
        if self.seen_blocks == 0:  # the opening: B_{-p}, then B_{-p+1}..B_0
            genesis, *originals = blocks
            self.seed(genesis.id, [b.id for b in originals])
        for block in blocks[self.seen_blocks:]:
            if 1 <= block.slot <= self.p:
                self.classify_block(block)
        votes = expand_votes(tree.votes)
        for vote in votes[self.seen_votes:]:
            if 1 <= vote.slot <= self.p:
                self.classify_vote(vote)
        self.seen_blocks, self.seen_votes = len(blocks), len(votes)

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
            for vote in expand_votes(block.included_votes):
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
        """Whether every voter's vote of the record is marked compliant."""
        return all(self.vote_marks.get((v.slot, v.voter, v.target), False) for v in expand_vote(vote))

    def compliant_block_of_slot(self, tree: BlockTree, slot_i: int) -> Optional[BlockId]:
        for bid in sorted(tree.blocks):
            if tree.blocks[bid].slot == slot_i and self.block_marks.get(bid, False):
                return bid
        return None
