import pytest

from reorglab.chain import (
    Block,
    BlockTree,
    ChainError,
    DuplicateId,
    EquivocationRejected,
    TieBreakPolicy,
    UnknownBlock,
    UnknownParent,
    Validator,
    VoteRecord,
    detect_reorg,
)

from conftest import ADVERSARIAL, RATIONAL, make_tree, oracle_fork_choice, oracle_weight, vote

LEX = TieBreakPolicy.LEXICOGRAPHIC
ADV = TieBreakPolicy.ADVERSARY_FAVORING


class TestInsertBlock:
    def test_genesis_base_case(self):
        tree = make_tree([None])
        assert len(tree.blocks) == 1
        assert tree.genesis == 0

    def test_single_chain(self):
        tree = make_tree([None, 0])
        assert len(tree.blocks) == 2
        assert tree.ancestors(1) == [0, 1]

    def test_rational_equivocation_rejected(self):
        tree = make_tree([None, 0])
        proposer = tree.blocks[1].proposer
        with pytest.raises(EquivocationRejected):
            tree.insert_block(Block(tree.new_id(), slot=1, parent=0, proposer=proposer))

    def test_adversarial_equivocation_tolerated(self):
        tree = make_tree([None])
        adv = Validator(7, ADVERSARIAL)
        tree.insert_block(Block(tree.new_id(), 1, 0, adv))
        tree.insert_block(Block(tree.new_id(), 1, 0, adv))
        assert len(tree.blocks) == 3

    def test_unknown_parent(self):
        tree = make_tree([None])
        with pytest.raises(UnknownParent):
            tree.insert_block(Block(tree.new_id(), 1, 99, Validator(1, RATIONAL)))

    def test_duplicate_id(self):
        tree = make_tree([None])
        with pytest.raises(DuplicateId):
            tree.insert_block(Block(0, 1, 0, Validator(1, RATIONAL)))

    def test_slot_must_increase(self):
        tree = make_tree([None, 0])
        with pytest.raises(Exception):
            tree.insert_block(Block(tree.new_id(), 1, 1, Validator(2, RATIONAL)))


class TestSubtreeWeight:
    def test_no_votes_no_boost(self):
        tree = make_tree([None, 0])
        assert tree.subtree_weight(1, current_slot=1) == 0

    def test_full_committee(self):
        tree = make_tree([None, 0, 1])
        for voter in range(100):
            vote(tree, voter, 2)
        assert tree.subtree_weight(0, current_slot=2) == 100
        assert tree.subtree_weight(1, current_slot=2) == 100

    def test_lmd_latest_vote_only(self):
        # same voter votes slot 3 for A and slot 5 for B in disjoint subtrees
        tree = make_tree([None, 0, 0])  # A = 1, B = 2
        tree.add_vote(VoteRecord(3, 9, 1))
        tree.add_vote(VoteRecord(5, 9, 2))
        assert tree.subtree_weight(1, current_slot=5) == 0
        assert tree.subtree_weight(2, current_slot=5) == 1

    def test_vote_for_old_slot_rejected(self):
        tree = make_tree([None, 0])
        with pytest.raises(Exception):
            tree.add_vote(VoteRecord(0, 1, 1))  # slot-0 vote for a slot-1 block

    def test_unknown_target(self):
        tree = make_tree([None])
        with pytest.raises(UnknownBlock):
            tree.add_vote(VoteRecord(0, 1, 42))


class TestForkChoice:
    def test_genesis_only(self):
        tree = make_tree([None])
        assert tree.fork_choice(current_slot=0) == 0

    def test_boost_beats_39_votes(self):
        # child A holds 39 votes, child B is the boosted current proposal
        tree = make_tree([None, 0, 0])
        for voter in range(39):
            vote(tree, voter, 1)
        assert tree.fork_choice(current_slot=2, boosted=2, boost=40) == 2
        assert oracle_fork_choice(tree, 2, boosted=2, boost=40) == 2

    def test_fork_weights_from_committed_committees(self):
        # non-adversarial fork N_NA*W = 200 vs adversarial N_A*W + W_p = 240
        kinds = [RATIONAL, RATIONAL, RATIONAL, ADVERSARIAL, ADVERSARIAL]
        tree = make_tree([None, 0, 1, 0, 3], kinds)
        for voter in range(200):
            vote(tree, voter, 2)
        for voter in range(200, 400):
            vote(tree, voter, 4)
        tip = tree.fork_choice(current_slot=4, boosted=4, boost=40)
        assert tip == 4
        assert tree.subtree_weight(1, 4, boosted=4, boost=40) == 200
        assert tree.subtree_weight(3, 4, boosted=4, boost=40) == 240

    def test_deterministic(self):
        tree = make_tree([None, 0, 0, 1])
        vote(tree, 0, 3)
        vote(tree, 1, 2)
        first = tree.fork_choice(current_slot=3, tie_break=LEX)
        for _ in range(5):
            assert tree.fork_choice(current_slot=3, tie_break=LEX) == first

    def test_tie_breaks(self):
        # equal weights: lexicographic takes lowest id, adversary-favoring
        # the subtree holding the most recent adversarial block
        tree = make_tree([None, 0, 0], [RATIONAL, RATIONAL, ADVERSARIAL])
        vote(tree, 0, 1)
        vote(tree, 1, 2)
        assert tree.fork_choice(current_slot=2, tie_break=LEX) == 1
        assert tree.fork_choice(current_slot=2, tie_break=ADV) == 2

    def test_adversary_favoring_prefers_most_recent(self):
        tree = make_tree(
            [None, 0, 0, 1, 2],
            [RATIONAL, RATIONAL, RATIONAL, ADVERSARIAL, ADVERSARIAL],
        )
        # both branches hold an adversarial block; slot 4 > slot 3
        assert tree.fork_choice(current_slot=4, tie_break=ADV) == 4

    def test_virtual_votes_do_not_mutate(self):
        tree = make_tree([None, 0, 0])
        vote(tree, 0, 1)
        before = {b: tree.subtree_weight(b, 2) for b in tree.blocks}
        tree.fork_choice(current_slot=2, virtual_votes={2: 10})
        after = {b: tree.subtree_weight(b, 2) for b in tree.blocks}
        assert before == after

    def test_deep_chain_returns_tip(self):
        # far deeper than the interpreter's recursion limit; the adversarial
        # tip gives the adversary-favoring key something to carry up
        n = 5000
        tree = make_tree([None] + list(range(n - 1)), [RATIONAL] * (n - 1) + [ADVERSARIAL])
        vote(tree, 0, n // 2)
        for policy in (ADV, LEX):
            assert tree.fork_choice(current_slot=n - 1, tie_break=policy) == n - 1


class TestWarmCaches:
    """Errors and answers once queries have filled the tree's caches."""

    @staticmethod
    def warm_tree():
        tree = make_tree([None, 0, 0, 1], [RATIONAL, RATIONAL, ADVERSARIAL, RATIONAL])
        vote(tree, 0, 1)
        vote(tree, 1, 2)
        vote(tree, 0, 3)
        for policy in (ADV, LEX):
            tree.fork_choice(3, boosted=3, boost=2, tie_break=policy, virtual_votes={2: 1})
        tree.subtree_weight(1, 3)
        return tree

    @staticmethod
    def assert_matches_oracle(tree):
        for policy in (ADV, LEX):
            for virtual in ({}, {2: 2}):
                assert tree.fork_choice(3, 3, 1, policy, virtual) == oracle_fork_choice(
                    tree, 3, 3, 1, policy, virtual)
        for bid in tree.blocks:
            assert tree.subtree_weight(bid, 3, 3, 1, {2: 2}) == oracle_weight(
                tree, bid, 3, 3, 1, {2: 2})

    def test_empty_tree(self):
        with pytest.raises(ChainError):
            BlockTree().fork_choice(current_slot=0)

    def test_unknown_virtual_target_or_root_still_raises(self):
        tree = self.warm_tree()
        with pytest.raises(UnknownBlock):
            tree.fork_choice(3, virtual_votes={99: 1})
        with pytest.raises(UnknownBlock):
            tree.subtree_weight(99, 3)
        with pytest.raises(UnknownBlock):
            tree.subtree_weight(1, 3, virtual_votes={99: 1})
        self.assert_matches_oracle(tree)

    def test_rejected_vote_leaves_votes_unchanged(self):
        tree = self.warm_tree()
        before = list(tree.votes)
        with pytest.raises(UnknownBlock):
            tree.add_vote(VoteRecord(5, 7, 99))
        with pytest.raises(ChainError):
            tree.add_vote(VoteRecord(0, 7, 3))  # slot-0 vote for a slot-3 block
        assert tree.votes == before
        self.assert_matches_oracle(tree)
        vote(tree, 1, 3, slot=4)  # voter 1 moves from block 2 to block 3
        self.assert_matches_oracle(tree)


class TestCanonicalChain:
    def test_genesis_only(self):
        tree = make_tree([None])
        assert tree.canonical_chain(0) == [0]

    def test_linear_chain(self):
        tree = make_tree([None, 0, 1])
        for voter, target in ((0, 1), (1, 2)):
            vote(tree, voter, target)
        assert tree.canonical_chain(2) == [0, 1, 2]

    def test_post_attack_chain_skips_victim(self):
        # after a successful simple attack the chain is [B_{t-1}, B_A]
        tree = make_tree([None, 0, 0], [RATIONAL, RATIONAL, ADVERSARIAL])
        assert tree.canonical_chain(2, boosted=2, boost=40) == [0, 2]


class TestDetectReorg:
    def test_identical(self):
        assert detect_reorg([0, 1, 2], [0, 1, 2]) == []

    def test_simple_attack(self):
        assert detect_reorg([0, 1], [0, 2]) == [1]

    def test_extended_attack(self):
        before = [0, 1, 2, 3]
        after = [0, 4, 5, 6]
        assert detect_reorg(before, after) == [1, 2, 3]


def test_boost_monotonicity():
    # raising the boost never moves the tip off the boosted block's chain
    tree = make_tree([None, 0, 0, 1])
    for voter in range(3):
        vote(tree, voter, 3)
    vote(tree, 3, 2)
    for boost in range(0, 8):
        tip = tree.fork_choice(current_slot=3, boosted=3, boost=boost)
        assert 3 in tree.ancestors(tip) or tip in tree.ancestors(3)
        assert tip == 3
