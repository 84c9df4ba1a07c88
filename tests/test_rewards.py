import dataclasses
import io
import itertools
import json
from dataclasses import replace
from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from reorglab.chain import Block, BlockId, BlockTree, EvidenceRecord, TieBreakPolicy, Validator, VoteRecord
from reorglab.cli import run_scenario
from reorglab.engine import Role, RunTrace
from reorglab.games import (
    DagVotesGame,
    ExtendedGame,
    GameConfig,
    GameOutcome,
    SelfishMiningGame,
    SimpleGame,
)
from reorglab.rewards import (
    InclusionRewardBreakdown,
    Mechanism,
    PayoffLedger,
    RewardParams,
    SettledPayoffs,
    TargetNotOnChainQueryable,
    ZeroStake,
    _slot_targets,
    altair_block_inclusion_reward,
    attack_gain_summary,
    head_vote_timely_dag,
    head_vote_timely_ethereum,
    settle_payoffs,
)

from conftest import ADVERSARIAL, RATIONAL, make_tree
from expansion import expand_evidences, expand_trace, expand_votes


def correctness_target(chain: list[BlockId], tree: BlockTree, slot: int) -> Optional[BlockId]:
    """Last block on `chain` with slot <= `slot` (the required vote target): the per-slot reference."""
    last = None
    for bid in chain:
        if tree.blocks[bid].slot <= slot:
            last = bid
        else:
            break
    return last


def head_vote_correct(vote: VoteRecord, chain: list[BlockId], tree: BlockTree) -> bool:
    if vote.target not in tree.blocks:
        raise TargetNotOnChainQueryable(f"vote target {vote.target} unknown")
    return correctness_target(chain, tree, vote.slot) == vote.target


class TestCorrectness:
    def test_vote_for_own_slot_tip(self):
        tree = make_tree([None, 0, 1])
        assert head_vote_correct(VoteRecord(2, 1, 2), [0, 1, 2], tree)

    def test_compliant_vote_on_post_attack_chain(self):
        # chain [B_{t-1}, B_A]: a slot-t vote for B_{t-1} is correct
        tree = make_tree([None, 0, 0], [RATIONAL, RATIONAL, ADVERSARIAL])
        assert head_vote_correct(VoteRecord(1, 1, 0), [0, 2], tree)

    def test_compliant_vote_when_victim_survives(self):
        # chain [B_{t-1}, B_t, B_A]: the same vote is no longer correct
        tree = make_tree([None, 0, 1])
        assert not head_vote_correct(VoteRecord(1, 1, 0), [0, 1, 2], tree)

    def test_unknown_target(self):
        tree = make_tree([None])
        with pytest.raises(TargetNotOnChainQueryable):
            head_vote_correct(VoteRecord(1, 1, 42), [0], tree)


class TestTimelyEthereum:
    def test_next_slot(self):
        block = Block(9, 6, None, Validator(0, RATIONAL))
        assert head_vote_timely_ethereum(VoteRecord(5, 1, 0), block)

    def test_two_slots_late(self):
        block = Block(9, 7, None, Validator(0, RATIONAL))
        assert not head_vote_timely_ethereum(VoteRecord(5, 1, 0), block)

    def test_same_slot(self):
        block = Block(9, 5, None, Validator(0, RATIONAL))
        assert not head_vote_timely_ethereum(VoteRecord(5, 1, 0), block)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 3), max_size=5), st.integers(0, 2))
def test_slot_targets_match_correctness_target(gaps, first):
    # one pass over the chain gives every slot's target, before, inside and past it
    tree = BlockTree()
    chain = []
    for slot in itertools.accumulate([first, *gaps]):
        block = Block(tree.new_id(), slot, chain[-1] if chain else None, Validator(1000 + slot, RATIONAL))
        tree.insert_block(block)
        chain.append(block.id)
    target_of = _slot_targets(chain, tree)
    for slot in range(tree.blocks[chain[-1]].slot + 3):
        assert target_of(slot) == correctness_target(chain, tree, slot)
    assert _slot_targets([], tree)(0) is None


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 4), st.tuples(st.integers(0, 2), st.integers(0, 2))),
                max_size=6),
       st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(0)]))
def test_settled_items_match_the_mapping(pieces, r):
    # runs read in key order, each amount once: the pairs are the Mapping's own, in its order
    runs, first = [], 0
    for gap, span, pair in pieces:
        runs.append((first + gap, span, pair))
        first += gap + span
    payoffs = SettledPayoffs(tuple(runs), r, Fraction(2))
    assert list(payoffs.items()) == [(k, payoffs[k]) for k in payoffs]
    assert len(payoffs.items()) == len(payoffs)


def _dag_tree(n_evidences: int, unique_signers: int = None):
    """Chain genesis - B1 - B2; a slot-1 vote included in B2 with evidences."""
    unique = n_evidences if unique_signers is None else unique_signers
    tree = make_tree([None, 0])
    v = VoteRecord(1, 7, 1)
    evs = []
    for i in range(n_evidences):
        signer = 100 + min(i, unique - 1)
        evs.append(EvidenceRecord(signer, (v,)))
    block = Block(tree.new_id(), 3, 1, Validator(50, RATIONAL),
                  included_votes=(v,), included_evidences=tuple(evs))
    tree.insert_block(block)
    return tree, v, block


class TestTimelyDag:
    def test_majority_evidence(self):
        tree, v, block = _dag_tree(6)
        assert head_vote_timely_dag(v, [0, 1, block.id], tree, committee_size=10)

    def test_exact_half_is_untimely(self):
        tree, v, block = _dag_tree(5)
        assert not head_vote_timely_dag(v, [0, 1, block.id], tree, committee_size=10)

    def test_duplicate_signers_collapse(self):
        # 7 evidences but 3 share one signer: 5 unique, below threshold
        tree, v, block = _dag_tree(7, unique_signers=5)
        signers = {e.signer for e in block.included_evidences}
        assert len(signers) == 5
        assert not head_vote_timely_dag(v, [0, 1, block.id], tree, committee_size=10)

    def test_next_slot_inclusion_still_counts(self):
        tree = make_tree([None, 0])
        v = VoteRecord(1, 7, 1)
        block = Block(tree.new_id(), 2, 1, Validator(50, RATIONAL), included_votes=(v,))
        tree.insert_block(block)
        assert head_vote_timely_dag(v, [0, 1, block.id], tree, committee_size=10)

    def test_monotone_in_evidence(self):
        for n in range(0, 11):
            tree, v, block = _dag_tree(n)
            timely = head_vote_timely_dag(v, [0, 1, block.id], tree, committee_size=10)
            assert timely == (n > 5)


def signers_after_target(vote, blocks) -> set:
    """Distinct signers of the vote's key in chain blocks after the last one at or before its slot.

    The evidences are read one record per signer (`expand_evidences`).
    """
    key = (vote.voter, vote.slot, vote.target)
    return {
        e.signer
        for b in blocks if b.slot > vote.slot
        for e in expand_evidences(b.included_evidences)
        for signed in e.votes
        if (signed.voter, signed.slot, signed.target) == key
    }


def brute_timely_dag(vote, blocks, committee_size) -> bool:
    next_slot = any(b.slot == vote.slot + 1 and vote in b.included_votes for b in blocks)
    return next_slot or 2 * len(signers_after_target(vote, blocks)) > committee_size


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_timely_dag_counts_distinct_signers_after_the_target(data):
    # a chain whose blocks carry per-signer and counted evidences over
    # overlapping vote tuples: signer ranges overlap within and across
    # blocks, blocks at or before the vote's correctness target (and an
    # off-chain block) carry evidence too, and W is drawn around twice the
    # distinct-signer count so that the exactly-W/2 case comes up
    slots = [0, *itertools.accumulate(data.draw(st.lists(st.integers(1, 2), min_size=1, max_size=5)))]
    vote = VoteRecord(data.draw(st.integers(0, slots[-1])), 7,
                      data.draw(st.integers(0, len(slots) - 1)), data.draw(st.integers(0, 3)))
    pool = [
        vote,
        replace(vote, broadcast_time=vote.broadcast_time + 1),  # the same key
        replace(vote, target=vote.target + 1),
        replace(vote, slot=vote.slot + 1),
        replace(vote, voter=8),
    ]
    tuples = [tuple(data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4)))
              for _ in range(data.draw(st.integers(1, 3)))]

    def evidences():
        drawn = data.draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, len(tuples) - 1),
                                             st.booleans(), st.integers(1, 4) | st.just(1)),
                                   max_size=6))
        # a copied tuple is equal to, but not the same object as, the shared one
        return tuple(EvidenceRecord(100 + signer, tuple(list(tuples[i])) if copy else tuples[i], span)
                     for signer, i, copy, span in drawn)

    tree = BlockTree()
    chain = []
    for slot in slots:
        included = (vote,) if data.draw(st.booleans()) else ()
        block = Block(tree.new_id(), slot, chain[-1] if chain else None,
                      Validator(1000 + slot, RATIONAL), included_votes=included,
                      included_evidences=evidences() if chain else ())
        tree.insert_block(block)
        chain.append(block.id)
    tree.insert_block(Block(tree.new_id(), 1, chain[0], Validator(999, RATIONAL),
                            included_votes=(vote,), included_evidences=evidences()))
    blocks = [tree.blocks[bid] for bid in chain]
    count = len(signers_after_target(vote, blocks))
    committee_size = data.draw(st.one_of(
        st.integers(1, 12), st.sampled_from(sorted({2 * count, 2 * count + 1, max(2 * count - 1, 1)}))
    ))
    assert head_vote_timely_dag(vote, chain, tree, committee_size) == brute_timely_dag(
        vote, blocks, committee_size
    )


def test_dag_settlement_makes_no_vote_scan(monkeypatch):
    # next-slot membership is a set lookup, not a scan of the block's W votes:
    # settling a prescribed W=129 run compares at most one vote per included
    # chain vote (a scan compares tens of thousands)
    game = DagVotesGame(GameConfig(committee_size=129, boost=0))
    trace = game.run(game.profile("prescribed")).trace
    included = sum(len(expand_votes(trace.tree.blocks[bid].included_votes))
                   for bid in trace.final_chain)
    compared = []
    equal = VoteRecord.__eq__
    monkeypatch.setattr(VoteRecord, "__eq__", lambda self, other: compared.append(1) or equal(self, other))
    params = RewardParams(mechanism=Mechanism.DAG_VOTES, committee_size=129)
    assert settle_payoffs(trace, params) == trace.payoffs
    assert included > 129
    assert len(compared) <= included


def _trace_for(tree, chain):
    trace = RunTrace()
    trace.tree = tree
    trace.final_chain = chain
    return trace


class TestSettle:
    def test_ledger_conservation(self):
        tree = make_tree([None])
        votes = tuple(VoteRecord(0, i, 0) for i in range(4))
        block = Block(tree.new_id(), 1, 0, Validator(50, RATIONAL), included_votes=votes)
        tree.insert_block(block)
        params = RewardParams(r=Fraction(3), R=Fraction(5))
        payoffs = settle_payoffs(_trace_for(tree, [0, 1]), params)
        attestor_total = sum(payoffs.get(i, 0) for i in range(4))
        assert attestor_total == 4 * params.r
        assert payoffs.get(50, 0) == 4 * params.R

    def test_exclusion_means_zero(self):
        # a correct vote not included in the next-slot block earns nothing
        tree = make_tree([None, 0])
        v = VoteRecord(0, 9, 0)
        block = Block(tree.new_id(), 3, 1, Validator(50, RATIONAL), included_votes=(v,))
        tree.insert_block(block)
        payoffs = settle_payoffs(_trace_for(tree, [0, 1, block.id]), RewardParams())
        assert payoffs.get(9, 0) == 0

    def test_no_double_credit(self):
        tree = make_tree([None])
        v = VoteRecord(0, 9, 0)
        b1 = Block(tree.new_id(), 1, 0, Validator(50, RATIONAL), included_votes=(v,))
        tree.insert_block(b1)
        b2 = Block(tree.new_id(), 2, b1.id, Validator(51, RATIONAL), included_votes=(v,))
        tree.insert_block(b2)
        payoffs = settle_payoffs(_trace_for(tree, [0, b1.id, b2.id]), RewardParams())
        assert payoffs.get(9, 0) == 1


# -- settled ledgers against a per-vote Fraction oracle ---------------------------

LEDGER_GAMES = {
    "simple": (SimpleGame, dict(committee_size=4, boost=2)),
    "selfish-mining": (SelfishMiningGame, dict(committee_size=4, boost=2,
                                               n_adversarial_slots=2, n_non_adversarial_slots=1)),
    "extended": (ExtendedGame, dict(committee_size=4, boost=2, horizon=2)),
    "dag-votes": (DagVotesGame, dict(committee_size=5, boost=0)),
}
UNITS = (Fraction(0), Fraction(1), Fraction(3, 7), Fraction(5, 11), Fraction(7, 2))


def oracle_payoffs(trace, r, R, dag: bool, committee_size: int) -> dict:
    """Walk the final chain and add r (voter) and R (includer) per credited vote.

    The trace is read with one vote record per voter (`expand_trace`).  A
    vote is credited once, at its first chain inclusion, when it names the
    last chain block at or before its slot and is timely: included in the
    next slot's block, or (DAG votes) included in a next-slot chain block
    anywhere, or signed by more than W/2 distinct signers in chain blocks
    after its target.
    """
    trace = expand_trace(trace)
    blocks = [trace.tree.blocks[bid] for bid in trace.final_chain]
    paid: dict = {}
    seen = set()
    for block in blocks:
        for vote in block.included_votes:
            if (vote.voter, vote.slot) in seen:
                continue
            at_or_before = [b for b in blocks if b.slot <= vote.slot]
            if not at_or_before or at_or_before[-1].id != vote.target:
                continue
            if dag:
                target_slot = at_or_before[-1].slot
                signers = {
                    e.signer
                    for b in blocks if b.slot > target_slot
                    for e in b.included_evidences
                    for signed in e.votes
                    if (signed.voter, signed.slot, signed.target)
                    == (vote.voter, vote.slot, vote.target)
                }
                timely = 2 * len(signers) > committee_size or any(
                    b.slot == vote.slot + 1 and vote in b.included_votes for b in blocks
                )
            else:
                timely = block.slot == vote.slot + 1
            if not timely:
                continue
            seen.add((vote.voter, vote.slot))
            paid[vote.voter] = paid.get(vote.voter, Fraction(0)) + r
            includer = block.proposer.index
            paid[includer] = paid.get(includer, Fraction(0)) + R
    return paid


def assert_ledger_matches_oracle(game_class, params, r, R, tie_break, labels_of) -> None:
    config = GameConfig(r=r, R=R, tie_break=tie_break, **params)
    game = game_class(config)
    labels = labels_of(game)
    trace = game.run(game.labelled(labels.__getitem__)).trace
    dag = game_class is DagVotesGame
    want = oracle_payoffs(trace, r, R, dag, config.committee_size)
    assert trace.payoffs == want
    assert {v: str(a) for v, a in trace.payoffs.items()} == {v: str(a) for v, a in want.items()}


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(sorted(LEDGER_GAMES)),
    st.sampled_from(UNITS),
    st.sampled_from(UNITS),
    st.sampled_from(list(TieBreakPolicy)),
    st.data(),
)
def test_settled_ledger_matches_oracle(kind, r, R, tie_break, data):
    game_class, params = LEDGER_GAMES[kind]
    assert_ledger_matches_oracle(game_class, params, r, R, tie_break, lambda game: {
        dp: data.draw(st.sampled_from(sorted(game.candidates(dp))))
        for dp in game.points
    })


@settings(max_examples=3, deadline=None)
@given(
    st.sampled_from(UNITS),
    st.sampled_from(UNITS),
    st.sampled_from(list(TieBreakPolicy)),
    st.data(),
)
def test_settled_ledger_matches_oracle_dag_at_scale(r, R, tie_break, data):
    # the evidence path beyond the toy committee: DAG votes at W=65, each
    # leader on or off the tip, and up to W attestors off the prescribed vote;
    # an off-tip leader leaves votes that only their W next-slot signers make
    # timely
    def labels_of(game):
        labels = {
            dp: data.draw(st.sampled_from(["on-tip", "off-tip"])) if dp.role is Role.LEADER else "tip"
            for dp in game.points
        }
        attestors = [dp for dp in labels if dp.role is Role.ATTESTOR]
        overrides = st.tuples(st.sampled_from(attestors), st.sampled_from(["parent-of-tip", "abstain"]))
        labels.update(data.draw(st.lists(overrides, max_size=65)))
        return labels

    assert_ledger_matches_oracle(DagVotesGame, dict(committee_size=65, boost=0), r, R, tie_break,
                                 labels_of)


def test_zero_unit_keeps_credited_voters(tmp_path):
    # with r = 0 every credited voter still appears, with amount "0"
    doc = {"scenario": "zero-r",
           "game": {"kind": "simple", "committee_size": 4, "boost": 2, "r": "0"},
           "checks": [{"type": "outcome", "profile": "compliant-all"}]}
    path = tmp_path / "trace.jsonl"
    report = run_scenario(io.StringIO(json.dumps(doc)), trace_path=str(path))
    assert path.read_text().splitlines()[-1] == (
        '{"final_chain": [0, 2], "final_slot": 2, "kind": "summary", '
        '"payoffs": {"4": "0", "5": "0", "6": "0", "7": "0", "9": "4"}, '
        '"tips": [[0, 0], [1, 0], [2, 0], [3, 0], [4, 1], [5, 1], [6, 1]]}'
    )
    assert report["results"][0]["outcome"]["payoffs"] == {
        "4": "0", "5": "0", "6": "0", "7": "0", "9": "4"
    }


def test_settlement_has_one_home(monkeypatch):
    # the settled amounts live on the trace alone: settlement makes them once
    # per run, and an outcome report reads them off the trace
    assert "ledger" not in {f.name for f in dataclasses.fields(GameOutcome)}
    assert not hasattr(PayoffLedger, "get")
    reads = []
    amounts = PayoffLedger.payoffs.fget
    counted = property(lambda self: reads.append(1) or amounts(self))
    monkeypatch.setattr(PayoffLedger, "payoffs", counted)
    doc = {"scenario": "one-outcome",
           "game": {"kind": "simple", "committee_size": 4, "boost": 2, "r": "1", "R": "1"},
           "checks": [{"type": "outcome", "profile": "compliant-all"}]}
    report = run_scenario(io.StringIO(json.dumps(doc)))
    assert len(reads) == 1
    assert report["results"][0]["outcome"]["payoffs"] == {
        "4": "1", "5": "1", "6": "1", "7": "1", "9": "4"
    }
    game = SimpleGame(GameConfig(committee_size=4, boost=2))
    trace = game.run(game.profile("compliant-all")).trace
    assert type(settle_payoffs(trace, RewardParams())) is SettledPayoffs


class CountingUnit(Fraction):
    """A reward unit that records each product taken of it."""

    products: list = []

    def __mul__(self, other):
        CountingUnit.products.append(other)
        return Fraction(self) * other


def test_settled_payoffs_are_read_only_and_multiply_each_pair_once(monkeypatch):
    # proposer 50 also votes, so the runs hold the pairs (1, 0), (1, 4), (0, 4) and (0, 2)
    tree = make_tree([None])
    chain = [0]
    for slot, proposer, votes in [
        (1, 50, [VoteRecord(0, 0, 0, span=4)]),
        (2, 51, [VoteRecord(1, 10, 1, span=3), VoteRecord(1, 50, 1)]),
        (3, 52, [VoteRecord(2, 20, 2, span=2)]),
    ]:
        block = Block(tree.new_id(), slot, chain[-1], Validator(proposer, RATIONAL),
                      included_votes=tuple(votes))
        tree.insert_block(block)
        chain.append(block.id)
    monkeypatch.setattr(CountingUnit, "products", [])
    # with R = 1000 r, an amount tells its (r count, R count) pair apart
    settled = settle_payoffs(_trace_for(tree, chain), RewardParams(CountingUnit(1), CountingUnit(1000)))
    voter = next(iter(settled))
    with pytest.raises(TypeError):
        settled[voter] = Fraction(0)
    with pytest.raises(TypeError):
        del settled[voter]
    assert not hasattr(settled, "update")
    amounts = [settled[v] for v in settled] + [amount for _, amount in settled.items()]
    pairs = len(set(amounts))
    assert pairs == 4 and len(settled) == 12
    # r and R each multiplied once per distinct pair, on its first read
    assert len(CountingUnit.products) == 2 * pairs


class TestAltairQuantification:
    N = 1_073_375

    def test_reported_eth_figures(self):
        inc = altair_block_inclusion_reward(self.N)
        eth = InclusionRewardBreakdown.as_eth
        assert eth(inc.all_three_votes) == pytest.approx(0.0446, rel=0.01)
        assert eth(inc.success_case) == pytest.approx(0.0777, rel=0.01)
        assert eth(inc.head_only) == pytest.approx(0.0115, rel=0.02)

    def test_exact_weight_ratios(self):
        inc = altair_block_inclusion_reward(self.N)
        assert inc.head_only / inc.all_three_votes == Fraction(14, 54)
        assert inc.success_case / inc.all_three_votes == Fraction(94, 54)

    def test_attack_gain(self):
        inc = altair_block_inclusion_reward(self.N)
        s = attack_gain_summary(inc, Fraction("0.082"), Fraction("0.12"), Fraction("0.278"))
        assert s.delta_eth == pytest.approx(0.0711, rel=0.02)
        assert s.pool_head_loss_eth == pytest.approx(0.0225, rel=0.02)
        assert s.pool_net_eth == pytest.approx(0.0486, rel=0.02)
        assert float(s.delta_pct) == pytest.approx(0.56, abs=0.01)

    def test_mev_free_delta(self):
        inc = altair_block_inclusion_reward(self.N)
        s = attack_gain_summary(inc, Fraction(0), Fraction(0))
        assert s.delta_gwei == inc.success_case - inc.all_three_votes

    def test_zero_stake(self):
        with pytest.raises(ZeroStake):
            altair_block_inclusion_reward(0)
