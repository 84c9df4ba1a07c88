"""Compliant-tip procedure against an independent hand-executed oracle.

The oracle rebuilds the full candidate scan from scratch: a fork choice for
every block by brute-force vote counting and greedy chain descent, explicit
prefix walks, and the best rank among the survivors.  The scripted trees
cover attack lengths up to 3, defections, membership pruning and ties; a
property test compares random trees under both tie-break policies.  The
tracker's marks are checked against the observing tracker kept in
`compliance_reference.py`.
"""

import io
import json
from typing import Optional
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from reorglab import compliance, games
from reorglab.chain import Block, BlockTree, TieBreakPolicy, Validator, VoteRecord
from reorglab.cli import run_scenario
from reorglab.compliance import (
    ComplianceTracker,
    compliant_tip,
    prefix_noncompliance_indices,
)
from reorglab.games import ExtendedGame, GameConfig

import compliance_reference
from closed_forms import HonestMajority, required_attack_length
from conftest import ADVERSARIAL, RATIONAL, make_tree, oracle_fork_choice, vote
from engine_games import POLICIES, labelled_profile

LEX = TieBreakPolicy.LEXICOGRAPHIC


def build(blocks, votes=()):
    """blocks: list of (slot, parent_index_or_None); votes: (slot, voter, target_index)."""
    tree = BlockTree()
    ids = []
    for n, (slot, parent) in enumerate(blocks):
        bid = tree.new_id()
        tree.insert_block(
            Block(bid, slot, None if parent is None else ids[parent],
                  Validator(500 + n, RATIONAL), is_empty=(parent is None))
        )
        ids.append(bid)
    for slot, voter, target in votes:
        tree.add_vote(VoteRecord(slot, voter, ids[target]))
    return tree, ids


def oracle_prefix_index(tree, bid, marks):
    """Largest slot of an unmarked or non-compliant block, walking bid to the root."""
    worst = None
    cur = bid
    while cur is not None:
        if not marks.get(cur, False):
            slot = tree.blocks[cur].slot
            worst = slot if worst is None else max(worst, slot)
        cur = tree.blocks[cur].parent
    return worst


def oracle_tip(tree, slot_i, p, W, Wp, marks, tie_break=LEX):
    """From-scratch candidate scan: every block's fork choice, then the best survivor."""
    hypothetical = (p - slot_i + 1) * W + Wp
    best_rank, best = None, None
    for bid in sorted(tree.blocks):
        tip = oracle_fork_choice(tree, slot_i, None, 0, tie_break, extra={bid: hypothetical})
        chain = []
        cur: Optional[int] = tip
        while cur is not None:
            chain.append(cur)
            cur = tree.blocks[cur].parent
        if bid not in chain:
            continue
        worst = oracle_prefix_index(tree, bid, marks)
        rank = ((0, 0) if worst is None else (1, worst), -tree.blocks[bid].slot, bid)
        if best_rank is None or rank < best_rank:
            best_rank, best = rank, bid
    return best


def original_chain(p, W):
    """B_{-p}..B_0 with W votes per block; voters get distinct ids."""
    blocks = [(-p, None)] + [(s, s + p - 1 + 1) for s in range(-p + 1, 1)]
    blocks = [(-p, None)]
    for n, s in enumerate(range(-p + 1, 1)):
        blocks.append((s, n))
    votes = []
    voter = 0
    for n, s in enumerate(range(-p, 1)):
        for _ in range(W):
            votes.append((s, voter, n))
            voter += 1
    return blocks, votes, voter


def seed_marks(ids, p):
    marks = {ids[0]: True}
    for bid in ids[1 : p + 1]:
        marks[bid] = False
    return marks


CASES = []  # (name, p, i, builder) -> expected index into ids


def case(name, p, i, expected_index):
    def wrap(fn):
        CASES.append((name, p, i, fn, expected_index))
        return fn

    return wrap


W, WP = 4, 2


@case("p1-original-only", 1, 1, 0)
def tree_p1_original(p=1):
    blocks, votes, _ = original_chain(1, W)
    return build(blocks, votes)


@case("p2-original-only", 2, 1, 0)
def tree_p2_original(p=2):
    blocks, votes, _ = original_chain(2, W)
    return build(blocks, votes)


@case("p3-original-only", 3, 1, 0)
def tree_p3_original(p=3):
    blocks, votes, _ = original_chain(3, W)
    return build(blocks, votes)


@case("p2-be1-beats-b0", 2, 2, 3)
def tree_be1_leader_time():
    # B^e_1 on B_{-2} carries the slot-1 committee: its fully compliant
    # prefix beats the original chain's index 0
    blocks, votes, voter = original_chain(2, W)
    blocks.append((1, 0))  # ids[3] = B^e_1
    for k in range(W):
        votes.append((1, voter + k, 3))
    return build(blocks, votes)


@case("p2-be1-no-votes-vote-time", 2, 1, 3)
def tree_be1_vote_time():
    # slot-1 voting time: B^e_1 just proposed, no votes yet; the
    # hypothetical 2W + Wp lifts it past the original 2W
    blocks, votes, _ = original_chain(2, W)
    blocks.append((1, 0))
    return build(blocks, votes)


@case("p2-adversary-time", 2, 3, 4)
def tree_p2_adversary():
    # full compliant chain B^e_1, B^e_2 with committee votes; i = p+1 runs
    # with the bare boost
    blocks, votes, voter = original_chain(2, W)
    blocks.append((1, 0))  # ids[3]
    blocks.append((2, 3))  # ids[4]
    for k in range(W):
        votes.append((1, voter + k, 3))
    for k in range(W):
        votes.append((2, voter + W + k, 4))
    return build(blocks, votes)


@case("p3-complied-through-2", 3, 3, 5)
def tree_p3_through_2():
    # all slots complied through i-1: tip is the deepest compliant block
    blocks, votes, voter = original_chain(3, W)
    blocks.append((1, 0))  # ids[4]
    blocks.append((2, 4))  # ids[5]
    for k in range(W):
        votes.append((1, voter + k, 4))
    for k in range(W):
        votes.append((2, voter + W + k, 5))
    return build(blocks, votes)


@case("p2-defected-slot1", 2, 2, 0)
def tree_defected():
    # the slot-1 leader defected: its block on B_0 is non-compliant and no
    # compliant block exists, so the tip falls back to B_{-p}
    blocks, votes, voter = original_chain(2, W)
    blocks.append((1, 2))  # non-compliant block on B_0
    for k in range(W):
        votes.append((1, voter + k, 0))  # compliant votes went to the root
    return build(blocks, votes)


@case("p2-be1-vs-defector", 2, 2, 3)
def tree_be1_and_defector():
    blocks, votes, voter = original_chain(2, W)
    blocks.append((1, 0))  # ids[3] compliant B^e_1
    blocks.append((1, 2))  # ids[4] rival non-compliant block on B_0
    for k in range(W):
        votes.append((1, voter + k, 3))
    return build(blocks, votes)


@case("p3-membership-pruned", 3, 3, 0)
def tree_membership_pruned():
    # B^e_1 exists but gathered no votes; with only one committee left the
    # hypothetical W + Wp cannot outweigh the 3W original chain, so the
    # candidate is pruned and the tip resets to B_{-p}
    blocks, votes, _ = original_chain(3, W)
    blocks.append((1, 0))
    return build(blocks, votes)


@case("p1-adversary-time", 1, 2, 2)
def tree_p1_adversary():
    blocks, votes, voter = original_chain(1, W)
    blocks.append((1, 0))  # ids[2] = B^e_1
    for k in range(W):
        votes.append((1, voter + k, 2))
    return build(blocks, votes)


@case("p2-equal-slot-tie", 2, 2, 3)
def tree_equal_tie():
    # two blocks marked compliant at slot 1 (synthetic marks), each heavy
    # enough to clear membership: equal prefix rank and equal slot resolve
    # to the lowest id
    blocks, votes, voter = original_chain(2, W)
    blocks.append((1, 0))  # ids[3]
    blocks.append((1, 0))  # ids[4]
    for k in range(3):
        votes.append((1, voter + k, 3))
    for k in range(3):
        votes.append((1, voter + 3 + k, 4))
    return build(blocks, votes)


def marks_for(name, tree, ids, p):
    marks = seed_marks(ids, p)
    for bid, block in tree.blocks.items():
        if bid in marks:
            continue
        # scripted compliance: empty-slot game blocks hanging off the
        # compliant chain are compliant, rivals on the original chain not
        parent_ok = marks.get(block.parent, False)
        marks[bid] = parent_ok
    return marks


@pytest.mark.parametrize("name,p,i,builder,expected", CASES, ids=[c[0] for c in CASES])
def test_compliant_tip_matches_oracle(name, p, i, builder, expected):
    tree, ids = builder()
    marks = marks_for(name, tree, ids, p)
    got = compliant_tip(tree, i, p, W, WP, marks, LEX)
    want = oracle_tip(tree, i, p, W, WP, marks)
    assert got == want
    assert got == ids[expected]


@st.composite
def tip_queries(draw):
    """A random tree (some proposers adversarial), votes, marks and query slot."""
    n = draw(st.integers(1, 8))
    parents = [None] + [draw(st.integers(0, k - 1)) for k in range(1, n)]
    kinds = draw(st.lists(st.sampled_from((RATIONAL, ADVERSARIAL)), min_size=n, max_size=n))
    tree = make_tree(parents, kinds)
    # voters may vote several times: only the latest counts
    for voter, target in draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, n - 1)),
                                       max_size=10)):
        vote(tree, voter, target)
    # an unmarked block counts as non-compliant
    marks = draw(st.dictionaries(st.integers(0, n - 1), st.booleans()))
    p = draw(st.integers(1, 4))
    return tree, draw(st.integers(1, p + 1)), p, marks


@settings(max_examples=300, deadline=None)
@given(tip_queries(), st.integers(1, 4), st.integers(0, 3), st.sampled_from(POLICIES))
def test_compliant_tip_matches_full_scan(query, committee_size, boost, tie_break):
    tree, slot_i, p, marks = query
    got = compliant_tip(tree, slot_i, p, committee_size, boost, marks, tie_break)
    assert got == oracle_tip(tree, slot_i, p, committee_size, boost, marks, tie_break)


@settings(max_examples=200, deadline=None)
@given(tip_queries())
def test_prefix_indices_match_walks(query):
    tree, _, _, marks = query
    swept = prefix_noncompliance_indices(tree, marks)
    assert list(swept) == list(tree.blocks)
    for bid in tree.blocks:
        assert swept[bid] == oracle_prefix_index(tree, bid, marks)


@pytest.mark.parametrize("tie_break, expected", [(LEX, 1), (POLICIES[0], 2)], ids=["lex", "adv"])
def test_tie_break_decides_survival(tie_break, expected):
    # the deepest block 2 (adversarial) ties its rival 1 once given its
    # hypothetical weight W_p = 1: only the adversary-favoring policy keeps
    # it on its own chain, so the lexicographic tip is the next-ranked 1
    tree = make_tree([None, 0, 0], [RATIONAL, RATIONAL, ADVERSARIAL])
    vote(tree, 0, 1)
    marks = dict.fromkeys(tree.blocks, True)
    got = compliant_tip(tree, 2, 1, 1, 1, marks, tie_break)
    assert got == oracle_tip(tree, 2, 1, 1, 1, marks, tie_break) == expected


@pytest.mark.parametrize("profile", ["compliant-all", "extend-original-all"])
def test_one_fork_choice_per_tip_query(monkeypatch, profile):
    fork_choices, tips = [], []
    fork_choice, tip = BlockTree.fork_choice, compliance.compliant_tip
    monkeypatch.setattr(
        BlockTree, "fork_choice", lambda tree, *a, **k: fork_choices.append(a) or fork_choice(tree, *a, **k)
    )
    monkeypatch.setattr(compliance, "compliant_tip", lambda *a: tips.append(a) or tip(*a))
    game = ExtendedGame(GameConfig(4, boost=2, horizon=7))
    trace = game.run(game.profile(profile)).trace
    # one head per tick, the final chain, and one hypothetical chain per
    # query: the best-ranked block survives on every path of both profiles
    assert (len(trace.tips), len(tips)) == (22, 15)
    assert len(fork_choices) == len(trace.tips) + 1 + len(tips) == 38


def test_fork_choices_of_an_extended_spne_check(monkeypatch):
    # a deterministic cost guard, in calls rather than time: the SPNE check
    # of extended W=4 p=16 makes 2,155 fork choices (5,251 when each tip
    # query ranked the blocks and ran a fork choice per candidate), and each
    # tip query makes exactly one
    fork_choices, per_tip = [0], []
    fork_choice, tip = BlockTree.fork_choice, compliance.compliant_tip

    def counted_fork_choice(tree, *a, **k):
        fork_choices[0] += 1
        return fork_choice(tree, *a, **k)

    def counted_tip(*a):
        before = fork_choices[0]
        try:
            return tip(*a)
        finally:
            per_tip.append(fork_choices[0] - before)

    monkeypatch.setattr(BlockTree, "fork_choice", counted_fork_choice)
    monkeypatch.setattr(compliance, "compliant_tip", counted_tip)
    doc = {
        "scenario": "extended-w4-p16", "seed": 1,
        "game": {"kind": "extended", "committee_size": 4, "horizon": 16, "boost": 2,
                 "tie_break": "adversary-favoring", "r": "1", "R": "1"},
        "checks": [{"type": "spne", "profile": {"base": "compliant-all"}}],
    }
    report = run_scenario(io.StringIO(json.dumps(doc)))
    assert report["results"][0]["equilibrium"]["verdict"] == "spne"
    assert (fork_choices[0], len(per_tip)) == (2155, 865)
    assert set(per_tip) == {1}


@pytest.mark.parametrize("p", range(1, 7))
@settings(max_examples=8, deadline=None, derandomize=True)
@given(boost=st.integers(0, 3), honest=st.integers(0, 2),
       tie_break=st.sampled_from(POLICIES), rnd=st.randoms(use_true_random=False))
def test_compliant_tip_of_real_runs_matches_full_scan(p, boost, honest, tie_break, rnd):
    # every tip query an extended run makes, on the tree and marks of that
    # moment, answers as the full scan does under both tie-breaks.  Real
    # trees hold counted committee votes and the branches that defections
    # make; they hold no adversarial block before the last query, so the
    # adversary tie-break key is left to the random trees above
    queries = []
    tip = compliance.compliant_tip

    def checked_tip(tree, slot_i, p, committee_size, boost, marks, tie_break):
        for policy in POLICIES:
            assert tip(tree, slot_i, p, committee_size, boost, marks, policy) == oracle_tip(
                tree, slot_i, p, committee_size, boost, marks, policy)
        queries.append(slot_i)
        return tip(tree, slot_i, p, committee_size, boost, marks, tie_break)

    game = ExtendedGame(GameConfig(3, boost=boost, horizon=p, honest_per_slot=honest,
                                   tie_break=tie_break))
    with mock.patch.object(compliance, "compliant_tip", checked_tip):
        game.run(labelled_profile(game, rnd))
    assert len(queries) == 2 * p + 1


def test_scan_restores_subtree_weights():
    tree, ids = tree_p2_adversary()
    marks = marks_for("", tree, ids, 2)
    before = {b: tree.subtree_weight(b, 3) for b in tree.blocks}
    compliant_tip(tree, 3, 2, W, WP, marks, LEX)
    after = {b: tree.subtree_weight(b, 3) for b in tree.blocks}
    assert before == after


def test_prefix_index():
    tree, ids = tree_be1_leader_time()
    marks = marks_for("", tree, ids, 2)
    worst = prefix_noncompliance_indices(tree, marks)
    assert worst[ids[0]] is None
    assert worst[ids[2]] == 0
    assert worst[ids[3]] is None


class TestClassification:
    def _tracker(self):
        return ComplianceTracker(2, W, WP, LEX)

    def test_empty_block_on_root_compliant(self):
        tree, ids = build([(-2, None), (-1, 0), (0, 1)])
        tracker = self._tracker()
        tracker.tip_at_leader_time(tree, 1)
        block = Block(tree.new_id(), 1, ids[0], Validator(9, RATIONAL), is_empty=True)
        tree.insert_block(block)
        assert tracker.is_block_compliant(block)

    def test_non_empty_block_not_compliant(self):
        tree, ids = build([(-2, None), (-1, 0), (0, 1)])
        tracker = self._tracker()
        tracker.tip_at_leader_time(tree, 1)
        block = Block(tree.new_id(), 1, ids[0], Validator(9, RATIONAL), is_empty=False)
        tree.insert_block(block)
        assert not tracker.is_block_compliant(block)

    def test_block_with_noncompliant_vote_not_compliant(self):
        blocks, votes, voter = original_chain(2, W)
        tree, ids = build(blocks, votes)
        tracker = self._tracker()
        tracker.tip_at_leader_time(tree, 1)
        be1 = Block(tree.new_id(), 1, ids[0], Validator(9, RATIONAL), is_empty=True)
        tree.insert_block(be1)
        assert tracker.is_block_compliant(be1)
        tracker.tip_at_vote_time(tree, 1)
        good_votes = [VoteRecord(1, voter + k, be1.id) for k in range(3)]
        bad = VoteRecord(1, voter + 3, ids[0])  # not for the vote-time tip
        for v in good_votes:
            tree.add_vote(v)
            assert tracker.is_vote_compliant(v)
        tree.add_vote(bad)
        assert not tracker.is_vote_compliant(bad)
        assert tracker.tip_at_leader_time(tree, 2) == be1.id
        be2 = Block(tree.new_id(), 2, be1.id, Validator(10, RATIONAL), is_empty=True,
                    included_votes=(*good_votes, bad))
        tree.insert_block(be2)
        assert not tracker.is_block_compliant(be2)
        clean = Block(tree.new_id(), 2, be1.id, Validator(11, RATIONAL), is_empty=True,
                      included_votes=tuple(good_votes))
        tree.insert_block(clean)
        assert tracker.is_block_compliant(clean)


@st.composite
def extended_plays(draw):
    """An extended game, W 2-5 and p 1-5 (p=5 in about one example of ten), and
    a random labelled profile."""
    W = draw(st.integers(2, 5), label="W")
    p = 5 if draw(st.integers(0, 9)) == 0 else draw(st.integers(1, 4), label="p")
    game = ExtendedGame(GameConfig(
        W, boost=draw(st.integers(0, W), label="boost"), horizon=p,
        honest_per_slot=draw(st.integers(0, W - 1), label="honest_per_slot"),
        tie_break=draw(st.sampled_from(POLICIES), label="tie_break"),
    ))
    return game, labelled_profile(game, draw(st.randoms(use_true_random=False)))


def probe_blocks(tree, tracker, p):
    """Blocks each slot's leader could propose on its leader-time tip besides
    the scripted one: empty with every delivered previous-slot vote, and
    non-empty with none."""
    for slot in range(1, p + 1):
        parent = tracker.leader_tips[slot]
        votes = tuple(v for v in tree.votes if v.slot == slot - 1)
        leader = Validator(-1, RATIONAL)
        yield Block(-slot, slot, parent, leader, is_empty=True, included_votes=votes)
        yield Block(-slot, slot, parent, leader, is_empty=False)


def played_marks(game, profile, judge) -> tuple:
    """A run's trace, verdict, payoffs, tips, the marks of its blocks and
    votes, and `judge`'s verdict on the probe blocks."""
    out = game.run(profile)
    tracker, tree = out.extras["tracker"], out.trace.tree
    return (
        out.trace.export_lines(),
        out.success,
        out.extras["compliant_chain"],
        game._payoffs_from(out),
        tracker.leader_tips,
        tracker.vote_tips,
        {bid: tracker.block_marks.get(bid, False) for bid in tree.blocks},
        [tracker.is_vote_compliant(v) for v in tree.votes],
        [judge(tracker, block) for block in probe_blocks(tree, tracker, game.p)],
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(played=extended_plays())
def test_tracker_matches_the_observing_reference(played):
    # the reference classifies what the tree gained at each tip query and
    # keeps a mark per vote; the package judges every mark from the tips.
    # A scripted leader's block is empty exactly when it builds on the
    # compliant tip with compliant votes only, so the scripted blocks alone
    # would pass with the emptiness or the vote rule dropped; the probes
    # would not.
    game, profile = played
    reference_tracker = compliance_reference.ComplianceTracker
    with mock.patch.object(games, "ComplianceTracker", reference_tracker):
        reference = played_marks(game, profile, reference_tracker.classify_block)
    assert played_marks(game, profile, ComplianceTracker.is_block_compliant) == reference


def test_each_block_judged_once(monkeypatch):
    # the tip queries judge only the blocks not judged yet: without the memo
    # each of the 17 queries would judge the whole tree again
    judged = []
    judge = ComplianceTracker.is_block_compliant
    monkeypatch.setattr(ComplianceTracker, "is_block_compliant",
                        lambda self, block: judged.append(block.id) or judge(self, block))
    game = ExtendedGame(GameConfig(4, boost=2, horizon=8))
    tree = game.run(game.profile("compliant-all")).trace.tree
    assert judged and len(judged) <= len(tree.blocks)


class TestRequiredAttackLength:
    def test_formula(self):
        assert required_attack_length(4, 100, 25) == 8

    def test_no_honest(self):
        assert required_attack_length(3, 10, 0) == 3

    def test_rounds_up(self):
        assert required_attack_length(2, 10, 3) == 5

    def test_honest_majority(self):
        with pytest.raises(HonestMajority):
            required_attack_length(4, 100, 50)
