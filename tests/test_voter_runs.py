"""Runs of validators, and the vote guards held as runs, against per-voter references.

chain.py's run operations (`fold`, `put`, `find`, `over`) are checked
against a dict with one entry per validator: random writes keep the runs
sorted, disjoint and maximal, and every read answers as the dict does.
`Simulation.emit_vote` keeps the validators that voted, and
`BlockTree.latest_votes` every voter it folded, as such runs, which a
record's range bisects.  The references here keep the same state one entry
per voter, a dict and sets, and decide each record voter by voter.  Random
records, and forks taken between them, must meet the same accept or refuse
decision with the same message on both sides; the examples pin records that
abut, straddle two earlier runs, fall inside a counted record or cover an
earlier single voter, and that follow a fork.  A fork shares the guards
until one side writes.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reorglab
from reorglab.chain import Block, BlockTree, OverlappingVote, Validator, VoteRecord, find, fold, over, put
from reorglab.engine import InvalidAction, Simulation

from conftest import RATIONAL, oracle_weight

# a vote: ("vote", slot, first, span, branch); a fork: ("fork", branch), which
# forks that branch into a new one; a branch is picked modulo their number
SPANS = st.sampled_from([1, 1, 1, 2, 3, 4, 7, 12])
OPS = st.lists(st.one_of(
    st.tuples(st.just("vote"), st.integers(0, 3), st.integers(0, 40), SPANS, st.integers(0, 7)),
    st.tuples(st.just("fork"), st.integers(0, 7)),
), min_size=1, max_size=30)

ABUT = [("vote", 1, 10, 4, 0), ("vote", 1, 14, 2, 0), ("vote", 1, 8, 2, 0), ("vote", 2, 7, 1, 0),
        ("vote", 1, 16, 1, 0)]
STRADDLE = [("vote", 1, 10, 4, 0), ("vote", 2, 20, 4, 0), ("vote", 1, 12, 10, 0),
            ("vote", 3, 14, 6, 0), ("vote", 3, 5, 30, 0)]
INSIDE = [("vote", 1, 10, 4, 0), ("vote", 2, 12, 1, 0), ("vote", 2, 30, 1, 0),
          ("vote", 3, 28, 4, 0), ("vote", 3, 30, 1, 0)]
FORKED = [("vote", 1, 10, 4, 0), ("fork", 0), ("vote", 2, 14, 3, 1), ("vote", 2, 14, 3, 0),
          ("vote", 1, 9, 2, 1), ("fork", 1), ("vote", 3, 16, 1, 2), ("vote", 3, 16, 1, 1)]


class VotedReference:
    """`Simulation`'s emission guard, one dict entry per voter that voted."""

    def __init__(self, voted: Optional[dict[int, int]] = None):
        self.voted = dict(voted or {})

    def fork(self) -> VotedReference:
        return VotedReference(self.voted)

    def emit(self, slot: int, first: int, span: int) -> Optional[str]:
        """The refusal message, or None after marking the record's voters."""
        for v in range(first, first + span):
            if v in self.voted:
                return f"validator {v} already voted at slot {self.voted[v]}"
        self.voted.update((v, slot) for v in range(first, first + span))
        return None


@given(ops=OPS)
@example(ops=ABUT)
@example(ops=STRADDLE)
@example(ops=INSIDE)
@example(ops=FORKED)
@settings(max_examples=300, deadline=None)
def test_emit_vote_guard_matches_the_per_voter_reference(ops):
    branches = [(Simulation(boost=0), VotedReference())]
    for op in ops:
        if op[0] == "fork":
            sim, ref = branches[op[1] % len(branches)]
            branches.append((sim.fork(), ref.fork()))
            continue
        _, slot, first, span, pick = op
        sim, ref = branches[pick % len(branches)]
        want = ref.emit(slot, first, span)
        try:
            sim.emit_vote(slot, first, 0, span=span)
            got = None
        except InvalidAction as refused:
            got = str(refused)
        assert got == want
    for sim, ref in branches:
        # each branch sent exactly the votes its reference accepted
        sent = {v: ev.message.slot for ev in sim.trace.events for v in ev.message.voters}
        assert sent == ref.voted


class LatestReference:
    """`BlockTree.latest_votes`' fold, one entry per voter: its latest record, counted or not."""

    def __init__(self):
        self.latest: dict[int, VoteRecord] = {}
        self.counted: set[int] = set()
        self.error: Optional[str] = None

    def fork(self) -> LatestReference:
        copy = LatestReference()
        copy.latest, copy.counted, copy.error = dict(self.latest), set(self.counted), self.error
        return copy

    def fold(self, v: VoteRecord) -> None:
        if self.error is not None:
            return
        if v.span == 1:
            if v.voter in self.counted:
                self.error = f"validator {v.voter} already has a counted vote"
                return
            cur = self.latest.get(v.voter)
            if cur is None or (v.slot, v.broadcast_time, -v.target) > (
                    cur.slot, cur.broadcast_time, -cur.target):
                self.latest[v.voter] = v
            return
        if any(u in self.latest for u in v.voters):
            self.error = (f"the counted vote of validators {v.voter}..{v.voter + v.span - 1} "
                          "covers a validator that already voted")
            return
        self.counted.update(v.voters)
        self.latest.update(dict.fromkeys(v.voters, v))

    def records(self) -> list[VoteRecord]:
        """Each latest record once, in order of its first voter's first accepted record."""
        out: list[VoteRecord] = []
        for v in self.latest.values():
            if not any(v is seen for seen in out):
                out.append(v)
        return out


def small_tree() -> BlockTree:
    tree = BlockTree()
    for bid, slot, parent in [(0, 0, None), (1, 1, 0), (2, 2, 0), (3, 3, 1)]:
        tree.insert_block(Block(bid, slot, parent, Validator(900 + bid, RATIONAL), parent is None))
    return tree


@given(ops=OPS, targets=st.lists(st.integers(0, 3), min_size=30, max_size=30))
@example(ops=ABUT, targets=[1] * 30)
@example(ops=STRADDLE, targets=[2, 3] * 15)
@example(ops=INSIDE, targets=[3, 1, 2] * 10)
@example(ops=FORKED, targets=[1, 2, 3] * 10)
@settings(max_examples=300, deadline=None)
def test_latest_votes_guard_matches_the_per_voter_reference(ops, targets):
    branches = [(small_tree(), LatestReference())]
    for n, op in enumerate(ops):
        if op[0] == "fork":
            tree, ref = branches[op[1] % len(branches)]
            branches.append((tree.fork(), ref.fork()))
            continue
        _, slot, first, span, pick = op
        tree, ref = branches[pick % len(branches)]
        target = targets[n]
        vote = VoteRecord(max(slot, tree.blocks[target].slot), first, target, n % 3, span)
        tree.add_vote(vote)
        ref.fold(vote)
        try:
            latest = tree.latest_votes()
            got = None
        except OverlappingVote as refused:
            got = str(refused)
        assert got == ref.error
        if got is not None:
            # a refused fold is not half kept: the next read raises the same
            with pytest.raises(OverlappingVote) as again:
                tree.latest_votes()
            assert str(again.value) == got
            continue
        assert latest == ref.records()
        for bid in tree.blocks:
            assert tree.subtree_weight(bid, 3) == oracle_weight(tree, bid, 3, None, 0)


def test_voter_runs_merge_and_find_the_smallest_covered():
    runs = ()
    for first, stop, value in [(10, 14, 1), (20, 22, 2), (14, 16, 1), (8, 10, 1), (16, 20, 2)]:
        runs = put(runs, first, stop - first, value)
    assert runs == ((8, 8, 1), (16, 6, 2))
    assert find(runs, 0, 8) is None and find(runs, 22, 30) is None
    assert find(runs, 5, 9) == (8, 1)
    assert find(runs, 15, 40) == (15, 1)
    assert find(runs, 9, 9) is None  # no validator
    copy = put(runs, 30, 1, 3)
    assert find(runs, 30, 31) is None and find(copy, 29, 40) == (30, 3)


# a write: (first, span, value) over validators 0 .. 51
WRITES = st.lists(st.tuples(st.integers(0, 40), SPANS, st.integers(0, 3)), min_size=1, max_size=25)
RANGES = st.lists(st.tuples(st.integers(0, 50), st.integers(0, 20)), min_size=1, max_size=8)


def check_runs(runs, ref: dict[int, int]) -> None:
    """`runs` are sorted, disjoint, maximal and hold exactly the reference's map."""
    assert all(span >= 1 for _, span, _ in runs)
    for (a, a_span, a_value), (b, _, b_value) in zip(runs, runs[1:]):
        assert a + a_span <= b  # sorted and disjoint
        assert a + a_span < b or a_value != b_value  # maximal
    assert {v: value for first, span, value in runs for v in range(first, first + span)} == ref


@given(writes=WRITES, reads=RANGES)
# abut a run on either side; straddle several runs; land inside one; rewrite a run with its own value
@example(writes=[(10, 4, 1), (14, 2, 1), (8, 2, 1), (20, 3, 2), (23, 1, 1)], reads=[(0, 30)])
@example(writes=[(10, 4, 1), (16, 4, 2), (22, 3, 3), (12, 12, 0)], reads=[(9, 20), (24, 3)])
@example(writes=[(10, 12, 1), (14, 3, 2), (15, 1, 1)], reads=[(15, 1), (16, 10)])
@example(writes=[(10, 7, 1), (20, 3, 2), (10, 7, 1), (17, 3, 1)], reads=[(0, 40)])
@settings(max_examples=300, deadline=None)
def test_run_operations_match_a_per_validator_dict(writes, reads):
    runs, ref = (), {}
    for first, span, value in writes:
        runs = put(runs, first, span, value)
        ref.update(dict.fromkeys(range(first, first + span), value))
        check_runs(runs, ref)
    assert fold(((v, 1, ref[v]) for v in sorted(ref))) == runs
    for first, length in reads:
        stop = first + length
        hits = [v for v in range(first, stop) if v in ref]
        assert find(runs, first, stop) == ((hits[0], ref[hits[0]]) if hits else None)
        pieces = list(over(runs, first, stop))
        assert all(span >= 1 for _, span, _ in pieces)
        assert [v for start, span, _ in pieces for v in range(start, start + span)] == list(range(first, stop))
        assert all(ref.get(v) == value for start, span, value in pieces for v in range(start, start + span))


def test_forks_share_the_guards_until_one_side_writes():
    sim = Simulation(boost=0)
    sim.emit_vote(1, 10, 0, span=4)
    with pytest.raises(InvalidAction) as before:
        sim.emit_vote(2, 12, 0, span=4)
    copy = sim.fork()
    assert copy._voted is sim._voted
    voted = sim._voted
    copy.emit_vote(2, 14, 0, span=3)
    assert copy._voted is not voted and sim._voted is voted
    with pytest.raises(InvalidAction) as after:
        sim.emit_vote(2, 12, 0, span=4)
    assert str(after.value) == str(before.value) == "validator 12 already voted at slot 1"
    with pytest.raises(InvalidAction, match="validator 14 already voted at slot 2"):
        copy.emit_vote(3, 14, 0)
    sim.emit_vote(3, 14, 0)  # the fork's vote is not the parent's

    tree = small_tree()
    tree.add_vote(VoteRecord(1, 10, 1, 0, 4))
    tree.latest_votes()
    branch = tree.fork()
    assert branch._covered is tree._covered
    covered = tree._covered
    branch.add_vote(VoteRecord(2, 14, 2, 0, 3))
    branch.latest_votes()
    assert branch._covered is not covered and tree._covered is covered
    tree.add_vote(VoteRecord(2, 14, 2, 0, 3))  # the branch's voters are free on the parent
    assert len(tree.latest_votes()) == 2


def test_chain_is_the_only_module_that_bisects():
    # the run representation stays behind chain.py: every other module joins,
    # splits and searches runs through its operations
    package = Path(reorglab.__file__).parent
    importers = sorted(
        path.name for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.module == "bisect"
        or isinstance(node, ast.Import) and any(alias.name == "bisect" for alias in node.names))
    assert importers == ["chain.py"]


def _calls(name: str) -> list[tuple[str, str, object]]:
    """(module, top-level function, innermost loop's iterable or None) of each call of `name`."""
    def callers(node, function=None, loop=None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and getattr(child.func, "id", None) == name:
                yield function, loop
            if isinstance(child, ast.FunctionDef) and function is None:
                yield from callers(child, child.name, None)
            elif isinstance(child, (ast.For, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                inner = child.iter if isinstance(child, ast.For) else child.generators[-1].iter
                yield from callers(child, function, ast.unparse(inner))
            else:
                yield from callers(child, function, loop)

    package = Path(reorglab.__file__).parent
    return [(path.name, *where) for path in sorted(package.glob("*.py"))
            for where in callers(ast.parse(path.read_text()))]


def test_one_deviation_runner():
    # every check, the coalition pass included, reduces over `_row`, so only
    # `_row` calls `_deviate`
    assert _calls("_deviate") == [("equilibrium.py", "_row", "candidates")]


def test_each_check_guards_its_plan_once():
    # a check counts its whole plan and guards it with one call, before any
    # loop plays a run
    assert _calls("_estimate") == [("equilibrium.py", "verify_nash", None),
                                   ("equilibrium.py", "verify_spne", None)]
