"""Cross-cutting property suites.

The fork-choice oracle equivalence enumerates every tree shape with up to
six blocks (slots strictly increasing along parent links, so each parent
assignment is one shape).  Vote assignments are exhaustive over six voters
for the smaller trees and over three voters for the five- and six-block
shapes, where the full six-voter product would be millions of cases; ties,
boosts and both tie-break policies are exercised throughout.
"""

import functools
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reorglab.chain import (
    Block,
    BlockTree,
    EvidenceRecord,
    OverlappingVote,
    TieBreakPolicy,
    Validator,
    VoteRecord,
    detect_reorg,
)
from reorglab.cli import bundled_scenarios, render_report, run_scenario
from reorglab.rewards import head_vote_timely_dag

from conftest import (
    ADVERSARIAL,
    RATIONAL,
    make_tree,
    oracle_fork_choice,
    oracle_latest_votes,
    oracle_weight,
)

POLICIES = (TieBreakPolicy.ADVERSARY_FAVORING, TieBreakPolicy.LEXICOGRAPHIC)


def tree_shapes(max_blocks: int):
    """Every parent assignment: block i (slot i) picks a parent below it."""
    yield (None,)
    for n in range(2, max_blocks + 1):
        for parents in itertools.product(*(range(k) for k in range(1, n))):
            yield (None, *parents)


def kind_pattern(parents):
    # deterministic adversarial sprinkling so tie-breaks differ per shape
    return [ADVERSARIAL if (i * 7 + len(parents)) % 3 == 0 else RATIONAL
            for i in range(len(parents))]


def set_votes(tree, assignment):
    """Replace the tree's votes: voter i votes for block assignment[i], or abstains on None."""
    tree.votes = [
        VoteRecord(tree.blocks[target].slot, voter, target)
        for voter, target in enumerate(assignment)
        if target is not None
    ]


def assert_matches_oracle(tree, current_slot, boosted, boost, policy):
    got = tree.fork_choice(current_slot, boosted, boost, policy)
    want = oracle_fork_choice(tree, current_slot, boosted, boost, policy)
    assert got == want


@functools.cache
def exhaustive_small_trees() -> int:
    """Trees with <= 4 blocks: every assignment of 6 voters over {each block, abstain}.

    Each case must match the oracle; returns how many were checked.  Cached,
    like the six-block enumeration below, so that it runs once per test run
    however many tests ask for it.
    """
    checked = 0
    for parents in tree_shapes(4):
        n = len(parents)
        targets = list(range(n)) + [None]
        tree = make_tree(list(parents), kind_pattern(parents))
        for assignment in itertools.product(targets, repeat=6):
            set_votes(tree, assignment)
            policy = POLICIES[checked % 2]
            assert_matches_oracle(tree, n - 1, None, 0, policy)
            checked += 1
    return checked


@functools.cache
def exhaustive_shapes_to_six_blocks() -> tuple[tuple, int]:
    """Every 5- and 6-block shape: every assignment of 3 voters, plus a boosted variant.

    Each case must match the oracle; returns the shapes and how many cases
    were checked.
    """
    shapes = tuple(p for p in tree_shapes(6) if len(p) >= 5)
    checked = 0
    for parents in shapes:
        n = len(parents)
        targets = list(range(n)) + [None]
        tree = make_tree(list(parents), kind_pattern(parents))
        for assignment in itertools.product(targets, repeat=3):
            set_votes(tree, assignment)
            policy = POLICIES[checked % 2]
            boosted = checked % n if checked % 3 == 0 else None
            assert_matches_oracle(tree, n - 1, boosted, 2, policy)
            checked += 1
    return shapes, checked


def test_fork_choice_oracle_exhaustive_small_trees():
    assert exhaustive_small_trees() > 100_000


def test_fork_choice_oracle_exhaustive_shapes_to_six_blocks():
    shapes, checked = exhaustive_shapes_to_six_blocks()
    assert len(shapes) == 24 + 120
    assert checked == sum((len(p) + 1) ** 3 for p in shapes)


def test_fork_choice_oracle_with_lmd_double_votes():
    # voters re-vote at later slots; only the latest message may count
    rng = random.Random(7)
    for case in range(2000):
        parents = rng.choice(list(tree_shapes(6)))
        tree = make_tree(list(parents), kind_pattern(parents))
        n = len(parents)
        for voter in range(rng.randint(0, 6)):
            for _ in range(rng.randint(1, 3)):
                target = rng.randrange(n)
                slot = rng.randint(tree.blocks[target].slot, n + 2)
                tree.add_vote(VoteRecord(slot, voter, target, rng.randint(0, 5)))
        policy = POLICIES[case % 2]
        boosted = rng.randrange(n) if case % 3 == 0 else None
        assert_matches_oracle(tree, n - 1, boosted, rng.randint(0, 3), policy)


@given(
    parents=st.integers(min_value=0, max_value=10**9),
    votes=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=12),
    boost=st.integers(0, 4),
)
@settings(max_examples=300, deadline=None)
def test_fork_choice_oracle_hypothesis(parents, votes, boost):
    shapes = list(tree_shapes(6))
    shape = shapes[parents % len(shapes)]
    tree = make_tree(list(shape), kind_pattern(shape))
    n = len(shape)
    for voter, target in votes:
        target %= n
        tree.add_vote(VoteRecord(tree.blocks[target].slot, voter, target))
    for policy in POLICIES:
        assert_matches_oracle(tree, n - 1, n - 1, boost, policy)


@st.composite
def shuffled_trees(draw):
    """A tree whose block ids are a random permutation of its insertion order.

    Parents are still inserted first, slots rise by 1-3 along each parent
    link, and votes may be stale or share a slot with the same voter's
    other votes.  Returns the tree, the slot queried, and the boosted
    block, boost and virtual votes to query it with.
    """
    n = draw(st.integers(1, 9))
    ids = draw(st.permutations(range(n)))
    kinds = draw(st.lists(st.sampled_from([RATIONAL, ADVERSARIAL]), min_size=n, max_size=n))
    tree = BlockTree()
    for i in range(n):
        parent = draw(st.integers(0, i - 1)) if i else None
        slot = 0 if parent is None else tree.blocks[ids[parent]].slot + draw(st.integers(1, 3))
        tree.insert_block(Block(ids[i], slot, None if parent is None else ids[parent],
                                Validator(1000 + i, kinds[i])))
    for voter, target, late, time in draw(st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, n - 1), st.integers(0, 2),
                      st.integers(0, 2)), max_size=14)):
        tree.add_vote(VoteRecord(tree.blocks[target].slot + late, voter, target, time))
    virtual = draw(st.dictionaries(st.integers(0, n - 1), st.integers(0, 3), max_size=3))
    boosted = draw(st.none() | st.integers(0, n - 1))
    current_slot = draw(st.sampled_from(sorted({b.slot for b in tree.blocks.values()})))
    return tree, current_slot, boosted, draw(st.integers(0, 4)), virtual


@given(case=shuffled_trees())
@settings(max_examples=300, deadline=None)
def test_fork_choice_oracle_with_shuffled_ids(case):
    # the weight sweep follows insertion order, never id order
    tree, current_slot, boosted, boost, virtual = case
    for bid in tree.blocks:
        assert tree.subtree_weight(bid, current_slot, boosted, boost, virtual) == oracle_weight(
            tree, bid, current_slot, boosted, boost, virtual)
    for policy in POLICIES:
        assert tree.fork_choice(current_slot, boosted, boost, policy, virtual) == oracle_fork_choice(
            tree, current_slot, boosted, boost, policy, virtual)


def overlapping(votes) -> bool:
    """Whether some validator is covered by two records, one of them counted."""
    records: dict[int, int] = {}
    counted: set[int] = set()
    for v in votes:
        for voter in v.voters:
            records[voter] = records.get(voter, 0) + 1
            if v.span > 1:
                counted.add(voter)
    return any(records[voter] > 1 for voter in counted)


def counted_records():
    """(voter, span) of a counted record over validators 4..26: it may overlap
    voter 4's one-voter votes, or another counted record."""
    return st.tuples(st.integers(4, 24), st.integers(2, 3))


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_fork_choice_oracle_after_every_interleaved_write(data):
    # the tree folds its latest votes, subtree weights and tie-break keys
    # per write on the next read; queries between writes fold, so every
    # later write (a block, a one-voter or counted vote record, or a
    # wholesale `votes` reassignment as `set_votes` does, shorter, longer or
    # of equal length) must be seen.  A fork copies the store, and it and
    # its original are then written to independently: each must see its own
    # writes only.  A counted record that overlaps another makes every read
    # raise, of the tree and of a fork taken after it, until `votes` is
    # replaced
    n = data.draw(st.integers(1, 8), label="blocks")
    ids = data.draw(st.permutations(range(n)), label="ids")
    trees: list[tuple[BlockTree, list[int]]] = [(BlockTree(), [])]
    for _ in range(data.draw(st.integers(1, 16), label="writes")):
        op = data.draw(st.sampled_from(("block", "vote", "vote", "counted", "assign")))
        tree, inserted = trees[data.draw(st.integers(0, len(trees) - 1), label="tree")]
        if not inserted or (op == "block" and len(inserted) < n):
            parent = data.draw(st.sampled_from(inserted)) if inserted else None
            slot = 0 if parent is None else tree.blocks[parent].slot + data.draw(st.integers(1, 3))
            kind = data.draw(st.sampled_from([RATIONAL, ADVERSARIAL]))
            bid = ids[len(inserted)]
            tree.insert_block(Block(bid, slot, parent, Validator(1000 + bid, kind)))
            inserted.append(bid)
        elif op == "assign":
            records = st.tuples(st.integers(0, 4), st.just(1)) | counted_records()
            tree.votes = [
                VoteRecord(tree.blocks[target].slot + late, voter, target, time, span)
                for (voter, span), target, late, time in data.draw(st.lists(
                    st.tuples(records, st.sampled_from(inserted),
                              st.integers(0, 2), st.integers(0, 2)),
                    max_size=len(tree.votes) + 2))
            ]
        else:
            # one voter at several slots, and stale votes for old blocks
            voter, span = data.draw(counted_records() if op == "counted"
                                    else st.tuples(st.integers(0, 4), st.just(1)))
            target = data.draw(st.sampled_from(inserted))
            late, time = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 2))
            tree.add_vote(VoteRecord(tree.blocks[target].slot + late, voter, target, time, span))
        # a fork taken before the queries that would fold the writes
        if len(trees) < 3 and data.draw(st.booleans(), label="fork"):
            trees.append((tree.fork(), list(inserted)))
        for tree, inserted in trees:
            current_slot = data.draw(st.sampled_from(sorted({b.slot for b in tree.blocks.values()})))
            boosted = data.draw(st.none() | st.sampled_from(inserted))
            boost = data.draw(st.integers(0, 4))
            virtual = data.draw(st.dictionaries(st.sampled_from(inserted), st.integers(0, 3), max_size=2))
            if overlapping(tree.votes):
                for read in (tree.latest_votes, lambda: tree.fork_choice(current_slot),
                             lambda: tree.subtree_weight(inserted[0], current_slot)):
                    with pytest.raises(OverlappingVote):
                        read()
                continue
            latest = oracle_latest_votes(tree.votes)
            for bid in inserted:
                assert tree.subtree_weight(bid, current_slot, boosted, boost, virtual) == oracle_weight(
                    tree, bid, current_slot, boosted, boost, virtual, latest)
            for policy in POLICIES:
                assert tree.fork_choice(current_slot, boosted, boost, policy, virtual) == oracle_fork_choice(
                    tree, current_slot, boosted, boost, policy, virtual)
                assert tree.fork_choice(current_slot, tie_break=policy) == oracle_fork_choice(
                    tree, current_slot, tie_break=policy)


@given(
    shape_pick=st.integers(min_value=0, max_value=10**9),
    votes=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=10),
    boost_lo=st.integers(0, 3),
    boost_hi=st.integers(0, 3),
)
@settings(max_examples=200, deadline=None)
def test_boost_monotonicity_property(shape_pick, votes, boost_lo, boost_hi):
    # if the boosted block's chain wins at a lower boost, it still wins at a
    # higher one
    lo, hi = sorted((boost_lo, boost_hi))
    shapes = list(tree_shapes(5))
    shape = shapes[shape_pick % len(shapes)]
    tree = make_tree(list(shape))
    n = len(shape)
    for voter, target in votes:
        target %= n
        tree.add_vote(VoteRecord(tree.blocks[target].slot, voter, target))
    boosted = n - 1
    tip_lo = tree.fork_choice(n - 1, boosted, lo, TieBreakPolicy.LEXICOGRAPHIC)
    tip_hi = tree.fork_choice(n - 1, boosted, hi, TieBreakPolicy.LEXICOGRAPHIC)
    if boosted in tree.ancestors(tip_lo) or tip_lo in tree.ancestors(boosted):
        assert boosted in tree.ancestors(tip_hi) or tip_hi in tree.ancestors(boosted)


@given(
    n_attestors=st.integers(1, 8),
    included=st.lists(st.booleans(), min_size=8, max_size=8),
    r=st.integers(1, 5),
    R=st.integers(1, 5),
)
@settings(max_examples=200, deadline=None)
def test_ledger_conservation_property(n_attestors, included, r, R):
    # total attestor payout r * k and leader payout R * k for the k
    # correct+timely included votes, regardless of inclusion pattern
    from fractions import Fraction

    from reorglab.engine import RunTrace
    from reorglab.rewards import RewardParams, settle_payoffs

    tree = make_tree([None])
    votes = tuple(
        VoteRecord(0, i, 0)
        for i in range(n_attestors)
        if included[i % len(included)]
    )
    block = Block(tree.new_id(), 1, 0, Validator(50, RATIONAL), included_votes=votes)
    tree.insert_block(block)
    trace = RunTrace()
    trace.tree = tree
    trace.final_chain = [0, block.id]
    payoffs = settle_payoffs(trace, RewardParams(r=Fraction(r), R=Fraction(R)))
    k = len(votes)
    assert sum(payoffs.get(i, 0) for i in range(n_attestors)) == k * r
    assert payoffs.get(50, 0) == k * R


def test_lmd_uniqueness_bounds_child_weights():
    rng = random.Random(3)
    for _ in range(500):
        shape = rng.choice(list(tree_shapes(5)))
        tree = make_tree(list(shape))
        n = len(shape)
        voters = rng.randint(0, 6)
        for voter in range(voters):
            for _ in range(rng.randint(1, 2)):
                target = rng.randrange(n)
                tree.add_vote(
                    VoteRecord(rng.randint(tree.blocks[target].slot, 9), voter, target)
                )
        for bid in tree.blocks:
            kids = tree.children.get(bid, [])
            total = sum(tree.subtree_weight(k, n - 1) for k in kids)
            assert total <= voters


def test_detect_reorg_reflexive():
    rng = random.Random(5)
    for _ in range(100):
        chain = list(range(rng.randint(0, 10)))
        assert detect_reorg(chain, chain) == []


def test_dag_timeliness_monotone_randomized():
    # inserting extra evidences never flips a vote from timely to untimely
    rng = random.Random(11)
    committee = 10
    for _ in range(10_000):
        tree = make_tree([None, 0])
        vote = VoteRecord(1, 99, 1)
        n_before = rng.randint(0, 8)
        evs = [EvidenceRecord(200 + i, (vote,)) for i in range(n_before)]
        block = Block(tree.new_id(), 3, 1, Validator(50, RATIONAL),
                      included_votes=(vote,), included_evidences=tuple(evs))
        tree.insert_block(block)
        chain = [0, 1, block.id]
        before = head_vote_timely_dag(vote, chain, tree, committee)

        extra = rng.randint(1, 4)
        evs2 = evs + [EvidenceRecord(300 + i, (vote,)) for i in range(extra)]
        tree2 = make_tree([None, 0])
        block2 = Block(tree2.new_id(), 3, 1, Validator(50, RATIONAL),
                       included_votes=(vote,), included_evidences=tuple(evs2))
        tree2.insert_block(block2)
        after = head_vote_timely_dag(vote, [0, 1, block2.id], tree2, committee)
        assert after >= before  # True never degrades to False


def test_bundled_scenarios_deterministic():
    import io

    for name, text in sorted(bundled_scenarios().items()):
        outputs = {
            render_report(run_scenario(io.StringIO(text)), "json") for _ in range(3)
        }
        assert len(outputs) == 1, name


def test_no_equivocation_in_bundled_games(tmp_path):
    # the engine raises on any slashable emission, so completing a run
    # certifies the invariant; the exported traces are re-scanned anyway
    import io

    for name, text in sorted(bundled_scenarios().items()):
        doc = json.loads(text)
        if doc["game"].get("kind") in ("tendermint", "quantify", "overhead"):
            continue
        trace_path = tmp_path / f"{name}.jsonl"
        run_scenario(io.StringIO(text), trace_path=str(trace_path))
        if not trace_path.exists():
            continue
        votes_seen: dict = {}
        blocks_seen: dict = {}
        for line in trace_path.read_text().splitlines():
            event = json.loads(line)
            if event.get("kind") == "vote":
                key = (event["payload"]["voter"], event["payload"]["slot"])
                assert votes_seen.setdefault(key, event["payload"]["target"]) == (
                    event["payload"]["target"]
                ), name
            elif event.get("kind") == "block":
                key = (event["payload"]["proposer"], event["payload"]["slot"])
                blocks_seen.setdefault(key, []).append(event["payload"]["id"])
        # adversarial proposers own several slots but never double a slot in
        # any bundled scenario either
        assert all(len(ids) == 1 for ids in blocks_seen.values()), name
