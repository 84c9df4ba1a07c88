import pickle
from dataclasses import FrozenInstanceError, fields, replace

import pytest

from reorglab.chain import Block, BlockTree, EvidenceRecord, Validator, ValidatorKind, VoteRecord
from reorglab.engine import (
    DecisionPoint,
    EngineError,
    InvalidAction,
    Role,
    Simulation,
    TraceEvent,
    aggregate_tick,
    propose_tick,
    slot_of,
    vote_tick,
)
from reorglab.games import DagVotesGame, GameConfig, SimpleGame

from committees import InsufficientValidators, assign_committees

RATIONAL = ValidatorKind.RATIONAL
ADVERSARIAL = ValidatorKind.ADVERSARIAL


def test_clock_phases():
    assert propose_tick(5) == 15
    assert vote_tick(5) == 16
    assert aggregate_tick(5) == 17
    assert slot_of(16) == 5
    assert {slot_of(t) for t in (propose_tick(5), vote_tick(5), aggregate_tick(5))} == {5}


class TestAssignCommittees:
    def test_every_validator_exactly_once(self):
        sched = assign_committees(0, 128, 4, 32)
        seen = [v.index for s in range(32) for v in sched.committee(s)]
        assert sorted(seen) == list(range(128))

    def test_adversarial_slot_leader(self):
        sched = assign_committees(0, 128, 4, 32, adversarial_slots={5})
        assert sched.leader(5).kind is ADVERSARIAL
        assert sched.leader(6).kind is RATIONAL

    def test_leader_in_committee(self):
        sched = assign_committees(3, 128, 4, 32)
        for s in range(32):
            assert sched.leader(s).index in [v.index for v in sched.committee(s)]

    def test_fixed_attestor_set(self):
        sched = assign_committees(0, 4, 4, 32, fixed_attestor_set=True)
        first = [v.index for v in sched.committee(0)]
        for s in range(32):
            assert [v.index for v in sched.committee(s)] == first

    def test_insufficient_validators(self):
        with pytest.raises(InsufficientValidators):
            assign_committees(0, 100, 4, 32)

    def test_seed_determinism(self):
        a = assign_committees(7, 128, 4, 32)
        b = assign_committees(7, 128, 4, 32)
        assert a.committees == b.committees

    def test_committees_disjoint(self):
        sched = assign_committees(1, 128, 4, 32)
        all_members = [v.index for s in range(32) for v in sched.committee(s)]
        assert len(all_members) == len(set(all_members))


class TestDelivery:
    def _sim(self):
        sim = Simulation(boost=0)
        genesis = Block(sim.tree.new_id(), 0, None, Validator(0, RATIONAL), True)
        sim.tree.insert_block(genesis)
        return sim

    def test_release_visible_next_tick(self):
        sim = self._sim()
        sim.advance(2)
        sim.emit_vote(0, 1, 0, release=5)
        sim.advance(5)
        assert sim.visible_votes_for(0) == 0  # released at 5, not yet in view
        sim.advance(6)
        assert sim.visible_votes_for(0) == 1

    def test_cannot_release_before_creation(self):
        sim = self._sim()
        sim.advance(5)
        with pytest.raises(InvalidAction):
            sim.emit_vote(0, 1, 0, release=4)
        with pytest.raises(InvalidAction):
            sim.emit_evidence(EvidenceRecord(2, (VoteRecord(0, 1, 0),)), release=4)
        with pytest.raises(InvalidAction):
            sim.propose(1, 0, Validator(3, RATIONAL), release=4)

    def test_refused_vote_leaves_its_voter_free(self):
        # an early release is refused before the guard records the vote
        sim = self._sim()
        sim.tree.insert_block(Block(sim.tree.new_id(), 1, 0, Validator(3, RATIONAL)))
        sim.advance(5)
        with pytest.raises(InvalidAction, match="before creating"):
            sim.emit_vote(1, 1, 0, release=4)
        sent = sim.emit_vote(1, 1, 1)
        assert [ev.message for ev in sim.trace.events] == [sent]

    def test_refused_block_leaves_its_proposer_free(self):
        sim = self._sim()
        sim.advance(5)
        leader = Validator(3, RATIONAL)
        with pytest.raises(InvalidAction, match="before creating"):
            sim.propose(1, 0, leader, release=4)
        sent = sim.propose(1, 0, leader)
        assert [ev.message for ev in sim.trace.events] == [sent]

    def test_refused_block_takes_no_id(self):
        sim = self._sim()
        sim.advance(5)
        leader = Validator(3, RATIONAL)
        with pytest.raises(InvalidAction, match="before creating"):
            sim.propose(1, 0, leader, release=4)
        assert sim.propose(1, 0, leader).id == 1
        # nor does a second proposal for one slot, refused for its rational proposer
        with pytest.raises(InvalidAction, match="already proposed"):
            sim.propose(1, 0, leader)
        assert sim.propose(1, 0, Validator(4, RATIONAL)).id == 2

    def test_double_vote_rejected(self):
        sim = self._sim()
        sim.tree.insert_block(Block(sim.tree.new_id(), 1, 0, Validator(3, RATIONAL)))
        sim.advance(4)
        sim.emit_vote(1, 1, 0)
        with pytest.raises(InvalidAction):
            sim.emit_vote(1, 1, 1)

    def test_double_propose_rejected_for_rational(self):
        sim = self._sim()
        sim.advance(3)
        v = Validator(3, RATIONAL)
        sim.propose(1, 0, v)
        with pytest.raises(InvalidAction):
            sim.propose(1, 0, v)

    def test_adversarial_double_propose_tolerated(self):
        sim = self._sim()
        sim.advance(3)
        v = Validator(3, ADVERSARIAL)
        sim.propose(1, 0, v)
        sim.propose(1, 0, v)
        assert [ev.kind for ev in sim.trace.events] == ["block", "block"]

    @pytest.mark.parametrize("release", [None, 6])
    def test_messages_stamped_at_the_tick_in_progress(self, release):
        sim = self._sim()
        sim.advance(4)
        sent_vote = sim.emit_vote(1, 1, 0, release=release)
        evidence = EvidenceRecord(2, (sent_vote,))
        sim.emit_evidence(evidence, release=release)
        block = sim.propose(2, 0, Validator(3, RATIONAL), votes=[sent_vote], release=release)
        released = 4 if release is None else release
        assert sent_vote == VoteRecord(1, 1, 0, broadcast_time=released)
        # the tree's next id: the genesis took 0
        assert block == Block(1, 2, 0, Validator(3, RATIONAL), included_votes=(sent_vote,))
        assert [(ev.tick, ev.kind, ev.release_tick, ev.message) for ev in sim.trace.events] == [
            (4, "vote", released, sent_vote),
            (4, "evidence", released, evidence),
            (4, "block", released, block),
        ]

    @pytest.mark.parametrize("release", [None, 6])
    def test_vote_built_once_with_its_release(self, release):
        # the record returned is the one sent: no unstamped copy precedes it
        sim = self._sim()
        sim.advance(4)
        sent_vote = sim.emit_vote(1, 1, 0, release=release)
        assert sent_vote is sim.trace.events[-1].message
        assert sent_vote.broadcast_time == (4 if release is None else release)


def honest_run(n_slots: int = 3, committee: int = 4) -> Simulation:
    """All-honest baseline: every leader proposes on the tip and includes the
    previous slot's votes; every attestor votes the tip."""
    sim = Simulation(boost=max(1, committee // 2))
    genesis = Block(sim.tree.new_id(), 0, None, Validator(900, RATIONAL), True)
    sim.tree.insert_block(genesis)
    committees = {
        s: [Validator(s * committee + i, RATIONAL) for i in range(committee)]
        for s in range(n_slots + 1)
    }
    leaders = {s: Validator(800 + s, RATIONAL) for s in range(1, n_slots + 1)}
    for v in committees[0]:
        sim.tree.add_vote(VoteRecord(0, v.index, genesis.id, 1))

    sim.advance(0)
    for slot in range(1, n_slots + 1):
        sim.advance(propose_tick(slot))
        prev_votes = tuple(v for v in sim.tree.votes if v.slot == slot - 1)
        sim.propose(slot, sim.tip(), leaders[slot], votes=prev_votes)
        if slot == n_slots:
            break  # the run ends at the last proposal
        sim.advance(vote_tick(slot))
        for v in committees[slot]:
            sim.emit_vote(slot, v.index, sim.tip())
    sim.finalize(n_slots)
    return sim


def test_honest_run_builds_full_chain():
    sim = honest_run(3)
    chain = sim.trace.final_chain
    assert len(chain) == 4  # genesis + 3 proposals
    slots = [sim.tree.blocks[b].slot for b in chain]
    assert slots == [0, 1, 2, 3]
    assert all(not sim.tree.blocks[b].is_empty for b in chain[1:])


def test_honest_run_every_vote_rewarded():
    from fractions import Fraction

    from reorglab.rewards import RewardParams, settle_payoffs

    sim = honest_run(3, committee=4)
    payoffs = settle_payoffs(sim.trace, RewardParams(r=Fraction(1), R=Fraction(1)))
    # committees of slots 0..2 are rewarded (slot-3 votes have no next block)
    for s in range(0, 3):
        for i in range(4):
            assert payoffs.get(s * 4 + i, 0) == 1
    # each leader includes 4 correct timely votes
    for s in range(1, 4):
        assert payoffs.get(800 + s, 0) == 4


def test_trace_determinism():
    lines_a = honest_run(3).trace.export_lines()
    lines_b = honest_run(3).trace.export_lines()
    assert lines_a == lines_b


def test_advance_records_each_tick_once():
    sim = Simulation(boost=0)
    genesis = Block(sim.tree.new_id(), 0, None, Validator(0, RATIONAL), True)
    sim.tree.insert_block(genesis)
    sim.advance(3)  # the first call starts the clock
    sim.propose(1, 0, Validator(1, RATIONAL))
    sim.advance(3)  # the tick in progress: nothing happens
    assert sim.trace.tips == []
    sim.advance(5)
    assert sim.trace.tips == [(3, 0), (4, 1)]
    assert sim.tick == 5 and sim.visible_votes_for(1) == 0
    with pytest.raises(EngineError):
        sim.advance(4)
    sim.finalize(1)
    assert sim.trace.tips == [(3, 0), (4, 1), (5, 1)]


def test_tip_is_the_head_of_the_tick_in_progress():
    sim = Simulation(boost=0)
    sim.tree.insert_block(Block(sim.tree.new_id(), 0, None, Validator(0, RATIONAL), True))
    with pytest.raises(EngineError):
        sim.tip()  # the clock has not started
    sim.advance(3)
    block = sim.propose(1, sim.tip(), Validator(1, RATIONAL))
    assert sim.tip() == 0  # the block sent at tick 3 is in view from tick 4
    sim.advance(4)
    assert sim.tip() == block.id
    sim.finalize(1)
    with pytest.raises(EngineError):
        sim.tip()  # the clock has stopped


@pytest.mark.parametrize(
    "game_class, size, boost, profile, fork_choices",
    [(SimpleGame, 8, 4, "vote-bt-all", 8), (DagVotesGame, 5, 0, "prescribed", 16)],
    ids=["simple", "dag-votes"],
)
def test_one_fork_choice_per_tick(monkeypatch, game_class, size, boost, profile, fork_choices):
    calls = []
    fork_choice = BlockTree.fork_choice
    monkeypatch.setattr(
        BlockTree, "fork_choice", lambda tree, *a, **k: calls.append(a) or fork_choice(tree, *a, **k)
    )
    game = game_class(GameConfig(size, boost=boost))
    trace = game.run(game.profile(profile)).trace
    # one head per tick, plus the final chain
    assert len(calls) == len(trace.tips) + 1 == fork_choices


def test_withheld_release_recorded():
    sim = Simulation(boost=0)
    genesis = Block(sim.tree.new_id(), 0, None, Validator(0, RATIONAL), True)
    sim.tree.insert_block(genesis)
    sim.advance(1)
    sim.emit_vote(0, 5, 0, release=9)
    event = sim.trace.events[-1]
    assert event.tick == 1
    assert event.release_tick == 9


def test_sent_message_is_its_event():
    sim = Simulation(boost=0)
    genesis = Block(sim.tree.new_id(), 0, None, Validator(0, RATIONAL), True)
    sim.tree.insert_block(genesis)
    block = Block(sim.tree.new_id(), 1, 0, Validator(1, RATIONAL))
    vote = VoteRecord(1, 2, 0)
    evidence = EvidenceRecord(3, (vote,))
    sim.advance(3)
    sim.emit_block(block)
    sim.advance(4)
    sim.emit_vote(vote.slot, vote.voter, vote.target, release=6)
    sim.advance(5)
    sim.emit_evidence(evidence)
    sent_block, sent_vote, sent_evidence = sim.trace.events
    assert [ev.tick for ev in sim.trace.events] == [3, 4, 5]
    assert sent_block.message is block
    assert sent_vote.message == replace(vote, broadcast_time=6)
    assert sent_evidence.message is evidence
    assert [ev.kind for ev in sim.trace.events] == ["block", "vote", "evidence"]


def test_same_release_delivery_order():
    # released together at tick 6: blocks, then votes, then evidences, each
    # kind in sending order, withheld messages included
    sim = Simulation(boost=0)
    genesis = Block(sim.tree.new_id(), 0, None, Validator(0, RATIONAL), True)
    sim.tree.insert_block(genesis)
    delivered = []
    sim.tree.insert_block = delivered.append
    sim.tree.add_vote = delivered.append
    sim.delivered_evidences = delivered
    withheld_block = Block(sim.tree.new_id(), 1, 0, Validator(1, ADVERSARIAL))
    withheld_vote = VoteRecord(1, 5, withheld_block.id)
    first_evidence = EvidenceRecord(9, (withheld_vote,))
    sim.advance(3)
    sim.emit_block(withheld_block, release=6)
    sim.advance(4)
    sim.emit_vote(withheld_vote.slot, withheld_vote.voter, withheld_vote.target, release=6)
    sim.advance(5)
    sim.emit_evidence(first_evidence, release=6)
    vote = VoteRecord(2, 2, 0)
    evidence = EvidenceRecord(1, (withheld_vote,))
    block = Block(sim.tree.new_id(), 2, withheld_block.id, Validator(3, RATIONAL))
    sim.advance(6)
    sim.emit_evidence(evidence)
    sim.emit_vote(vote.slot, vote.voter, vote.target)
    sim.emit_block(block)
    sim.advance(7)
    assert delivered == [
        withheld_block,
        block,
        replace(withheld_vote, broadcast_time=6),
        replace(vote, broadcast_time=6),
        first_evidence,
        evidence,
    ]
    assert sim.pending == []


_VOTE = VoteRecord(1, 2, 3, 4)
RECORDS = [
    TraceEvent(4, "vote", 4, _VOTE),
    _VOTE,
    EvidenceRecord(5, (_VOTE,)),
    Validator(6, ValidatorKind.RATIONAL),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_slotted_record_pickles_and_stays_frozen(record):
    assert not hasattr(record, "__dict__")
    copy = pickle.loads(pickle.dumps(record))
    assert copy == record and hash(copy) == hash(record)
    for f in fields(record):
        with pytest.raises(FrozenInstanceError):
            setattr(record, f.name, getattr(record, f.name))


def test_decision_point_is_its_key():
    # a script reads a label by the plain (slot, role, actor) tuple
    dp = DecisionPoint(1, Role.ATTESTOR, 3)
    key = (1, Role.ATTESTOR, 3)
    assert dp == key and hash(dp) == hash(key)
    assert {dp: "C"}.get(key) == "C" and {key: "C"}.get(dp) == "C"
    assert not hasattr(dp, "__dict__")
    copy = pickle.loads(pickle.dumps(dp))
    assert copy == dp and type(copy) is DecisionPoint and copy.tick == vote_tick(1)
    for name in DecisionPoint._fields:
        with pytest.raises(AttributeError):
            setattr(dp, name, getattr(dp, name))
    with pytest.raises(AttributeError):
        dp.label = "C"


def test_role_hashes_by_identity_and_unpickles_to_itself():
    for role in Role:
        assert pickle.loads(pickle.dumps(role)) is role
        assert hash(role) == object.__hash__(role)
    assert pickle.loads(pickle.dumps(Role.ATTESTOR)) is Role.ATTESTOR
