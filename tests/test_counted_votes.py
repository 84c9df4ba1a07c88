"""Counted records: one record per run of consecutive validators sending the same message.

The game scripts send one `VoteRecord` per maximal run of consecutive
committee members with one target, and one `EvidenceRecord` per committee
signing a slot's votes; the tree, settlement and the trace
count their voters and signers.  Exactness rests on one invariant, that no
validator votes twice in a run; the engine asserts it, and the tests here
check it over random profiles of every engine game.  The per-voter scripts of
`per_voter.py` are the reference: a counted run must export the per-voter
run's trace and settle its payoffs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reorglab.chain import (
    Block,
    BlockTree,
    ChainError,
    EvidenceRecord,
    OverlappingVote,
    Validator,
    VoteRecord,
)
from reorglab.engine import InvalidAction, Simulation, StrategyProfile
from reorglab.games import (
    DagVotesGame,
    ExtendedGame,
    GameConfig,
    PoolSpec,
    SelfishMiningGame,
    SimpleGame,
    _RECORD,
    _aggregate,
)

from conftest import ADVERSARIAL, RATIONAL, oracle_fork_choice, oracle_weight
from engine_games import POLICIES, games, labelled_profile
from expansion import expand_trace
from per_voter import per_voter_phases


def summary(game, outcome) -> tuple:
    """What the counted run must share with the per-voter one."""
    trace = outcome.trace
    return (trace.export_lines(), trace.tips, trace.final_chain, trace.payoffs,
            game._payoffs_from(outcome), outcome.success, outcome.reorged)


def assert_counted_equals_per_voter(game, profile) -> None:
    counted = game.run(profile)
    with per_voter_phases():
        per_voter = game.run(profile)
    assert summary(game, counted) == summary(game, per_voter)
    # record for record, once expanded: the events, the tree's votes and its blocks
    expanded = expand_trace(counted.trace)
    assert expanded.events == per_voter.trace.events
    assert expanded.tree.votes == per_voter.trace.tree.votes
    assert expanded.tree.blocks == per_voter.trace.tree.blocks


@given(game=games(), rnd=st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_counted_run_equals_the_per_voter_run(game, rnd):
    assert_counted_equals_per_voter(game, labelled_profile(game, rnd))


WIDE_GAMES = {
    "simple": lambda tb: SimpleGame(GameConfig(64, boost=25, pool=PoolSpec(3), tie_break=tb)),
    "extended": lambda tb: ExtendedGame(GameConfig(9, boost=4, horizon=3, honest_per_slot=2,
                                                   tie_break=tb)),
    "selfish-mining": lambda tb: SelfishMiningGame(GameConfig(
        16, boost=6, n_adversarial_slots=3, n_non_adversarial_slots=2, tie_break=tb)),
    "dag-votes": lambda tb: DagVotesGame(GameConfig(17, boost=2, tie_break=tb)),
}


@pytest.mark.parametrize("tie_break", POLICIES, ids=lambda p: p.value)
@pytest.mark.parametrize("kind", sorted(WIDE_GAMES))
@settings(max_examples=4, deadline=None)
@given(rnd=st.randoms(use_true_random=False))
def test_counted_run_equals_the_per_voter_run_wide(kind, tie_break, rnd):
    # committees wide enough for long runs, split by a few random hold-outs
    game = WIDE_GAMES[kind](tie_break)
    base = game.profile(next(iter(game.PROFILES)))
    moved = rnd.sample(game.points, min(len(game.points), rnd.randint(0, 5)))
    profile = StrategyProfile({**base.actions, **{
        dp: rnd.choice(sorted(game.candidates(dp))) for dp in moved}})
    assert_counted_equals_per_voter(game, profile)


# -- no validator votes twice in a run --------------------------------------------


def assert_one_vote_per_validator(trace) -> None:
    sent = [voter for ev in trace.events if ev.kind == "vote" for voter in ev.message.voters]
    assert len(sent) == len(set(sent))
    # the opening's seeded votes too, which the tree holds without a message
    held = [voter for vote in trace.tree.votes for voter in vote.voters]
    assert len(held) == len(set(held))


@given(game=games(), rnd=st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_one_vote_per_validator_per_run(game, rnd):
    # from the opening, and resumed from each checkpoint under a profile that
    # agrees with the recorded one before the checkpoint's tick
    profile = labelled_profile(game, rnd)
    base = game.run(profile, _RECORD)
    assert_one_vote_per_validator(base.trace)
    for tick, checkpoint in base.checkpoints.items():
        resumed = StrategyProfile({
            dp: rnd.choice(sorted(game.candidates(dp))) if dp.tick >= tick else label
            for dp, label in profile.actions.items()
        })
        assert_one_vote_per_validator(game.run(resumed, checkpoint).trace)


def sim_at(tick: int) -> Simulation:
    sim = Simulation(boost=0)
    sim.tree.insert_block(Block(sim.tree.new_id(), 0, None, Validator(0, RATIONAL), True))
    sim.advance(tick)
    return sim


def test_emit_vote_refuses_a_record_over_a_voter_that_voted():
    sim = sim_at(4)
    sim.emit_vote(1, 10, 0, span=4)
    for voter, span in [(13, 1), (8, 3), (12, 5), (10, 4)]:
        with pytest.raises(InvalidAction, match="already voted at slot 1"):
            sim.emit_vote(1, voter, 0, span=span)
    # a validator that voted at one slot votes at no other
    with pytest.raises(InvalidAction):
        sim.emit_vote(2, 11, 0)
    sim.emit_vote(1, 14, 0, span=2)
    sim.emit_vote(1, 9, 0)
    assert [ev.message.voters for ev in sim.trace.events] == [range(10, 14), range(14, 16), range(9, 10)]


def test_a_record_covers_at_least_one_validator():
    # a span-0 record would replace voter 5's latest vote and weigh nothing
    tree = BlockTree()
    tree.insert_block(Block(tree.new_id(), 0, None, Validator(0, RATIONAL), True))
    tree.insert_block(Block(tree.new_id(), 1, 0, Validator(1, RATIONAL)))
    tree.add_vote(VoteRecord(1, 5, 1))
    with pytest.raises(ChainError, match="covers no validator"):
        tree.add_vote(VoteRecord(1, 5, 1, span=0))
    assert tree.subtree_weight(1, 1) == 1
    sim = sim_at(4)
    for span in (0, -2):
        with pytest.raises(InvalidAction, match="covers no validator"):
            sim.emit_vote(1, 7, 0, span=span)
        with pytest.raises(InvalidAction, match="covers no validator"):
            sim.emit_evidence(EvidenceRecord(20, (VoteRecord(1, 7, 0),), span))
    assert sim.trace.events == [] and sim.pending == []
    # the refused records left their validators free
    assert sim.emit_vote(1, 7, 0, span=2).voters == range(7, 9)


def test_aggregate_sends_one_evidence_per_run_of_signers():
    # a signing committee is one range of indices, so one run: one counted evidence
    sim = sim_at(4)
    vote = sim.emit_vote(1, 7, 0, span=3)
    sim.advance(5)
    _aggregate(sim, 1, range(20, 26))
    _aggregate(sim, 2, range(20, 26))  # no slot-2 votes in view: no evidence
    assert [ev.message for ev in sim.trace.events[1:]] == [EvidenceRecord(20, (vote,), 6)]


def test_latest_votes_refuses_an_overlapping_counted_record():
    def tree_with(*votes) -> BlockTree:
        tree = BlockTree()
        tree.insert_block(Block(tree.new_id(), 0, None, Validator(0, RATIONAL), True))
        tree.insert_block(Block(tree.new_id(), 1, 0, Validator(1, RATIONAL)))
        for vote in votes:
            tree.add_vote(vote)
        return tree

    counted = VoteRecord(1, 10, 1, span=4)
    # one-voter records keep the LMD rule, next to a disjoint counted record
    tree = tree_with(VoteRecord(0, 9, 0), counted, VoteRecord(1, 9, 1), VoteRecord(1, 14, 0))
    assert sorted(tree.latest_votes(), key=lambda v: v.voter) == [
        VoteRecord(1, 9, 1), counted, VoteRecord(1, 14, 0)]
    assert tree.subtree_weight(1, 1) == 5
    for overlapping in [
        (counted, VoteRecord(2, 12, 1)),  # a later vote by a counted voter
        (VoteRecord(0, 13, 0), counted),  # a counted record over an earlier voter
        (counted, VoteRecord(2, 8, 1, span=3)),  # two counted records sharing voter 10
        (counted, counted),
    ]:
        tree = tree_with(*overlapping)
        with pytest.raises(OverlappingVote):
            tree.fork_choice(2)
        # the refused fold is not half kept: asking again raises again
        with pytest.raises(OverlappingVote):
            tree.latest_votes()


@st.composite
def counted_trees(draw):
    """A random tree and random counted and one-voter records, never overlapping a counted one.

    Counted records take disjoint voter ranges; one-voter records come from
    voters outside every range, and may repeat a voter, stale or not.
    """
    n = draw(st.integers(1, 7))
    kinds = draw(st.lists(st.sampled_from([RATIONAL, ADVERSARIAL]), min_size=n, max_size=n))
    tree = BlockTree()
    for i in range(n):
        parent = draw(st.integers(0, i - 1)) if i else None
        slot = 0 if parent is None else tree.blocks[parent].slot + draw(st.integers(1, 2))
        tree.insert_block(Block(i, slot, parent, Validator(1000 + i, kinds[i])))
    voter = 100
    for _ in range(draw(st.integers(0, 8))):
        target, late, time = draw(st.tuples(st.integers(0, n - 1), st.integers(0, 2), st.integers(0, 2)))
        if draw(st.booleans()):
            span = draw(st.integers(1, 6))
            tree.add_vote(VoteRecord(tree.blocks[target].slot + late, voter, target, time, span))
            voter += span + draw(st.integers(0, 2))
        else:
            tree.add_vote(VoteRecord(tree.blocks[target].slot + late, draw(st.integers(0, 4)),
                                     target, time))
    boosted = draw(st.none() | st.integers(0, n - 1))
    current_slot = draw(st.sampled_from(sorted({b.slot for b in tree.blocks.values()})))
    virtual = draw(st.dictionaries(st.integers(0, n - 1), st.integers(0, 3), max_size=2))
    return tree, current_slot, boosted, draw(st.integers(0, 4)), virtual


@given(case=counted_trees())
@settings(max_examples=200, deadline=None)
def test_counted_fork_choice_matches_the_per_voter_oracle(case):
    # the oracles read the votes one record per voter (`expansion`)
    tree, current_slot, boosted, boost, virtual = case
    for bid in tree.blocks:
        assert tree.subtree_weight(bid, current_slot, boosted, boost, virtual) == oracle_weight(
            tree, bid, current_slot, boosted, boost, virtual)
    for policy in POLICIES:
        assert tree.fork_choice(current_slot, boosted, boost, policy, virtual) == oracle_fork_choice(
            tree, current_slot, boosted, boost, policy, virtual)


def test_counted_record_renders_one_line_per_voter():
    sim = sim_at(4)
    vote = sim.emit_vote(1, 7, 0, span=3)
    sim.emit_evidence(EvidenceRecord(20, (vote,)))
    sim.propose(2, 0, Validator(30, RATIONAL), votes=[vote],
                evidences=[EvidenceRecord(21, (vote,))])
    sim.advance(7)
    lines = sim.finalize(2).export_lines()
    assert lines[:7] == [
        '{"kind": "vote", "payload": {"slot": 1, "target": 0, "voter": 7}, "release_tick": 4, "tick": 4}',
        '{"kind": "vote", "payload": {"slot": 1, "target": 0, "voter": 8}, "release_tick": 4, "tick": 4}',
        '{"kind": "vote", "payload": {"slot": 1, "target": 0, "voter": 9}, "release_tick": 4, "tick": 4}',
        '{"kind": "evidence", "payload": {"key": [20, 7, 1, 0]}, "release_tick": 4, "tick": 4}',
        '{"kind": "evidence", "payload": {"key": [20, 8, 1, 0]}, "release_tick": 4, "tick": 4}',
        '{"kind": "evidence", "payload": {"key": [20, 9, 1, 0]}, "release_tick": 4, "tick": 4}',
        '{"kind": "block", "payload": {"empty": false, "evidences": [[21, 7, 1, 0], [21, 8, 1, 0], '
        '[21, 9, 1, 0]], "id": 1, "parent": 0, "proposer": 30, "slot": 2, '
        '"votes": [[7, 1], [8, 1], [9, 1]]}, "release_tick": 4, "tick": 4}',
    ]
