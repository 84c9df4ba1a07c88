"""Per-voter forms of counted vote records, for the independent oracles.

A counted `VoteRecord` stands for the identical votes of `span` consecutive
validators.  The oracles under `tests/` never read that form: each reads a
record, block, tree or trace through the functions here, which rewrite every
counted record into one span-1 record per voter, in index order, with the
record's slot, target and broadcast time.  Evidences and blocks are rebuilt
over the expanded records, each shared `votes` tuple once, so the expanded
evidences of one slot still share one tuple.
"""

from __future__ import annotations

from reorglab.chain import Block, BlockTree, EvidenceRecord, VoteRecord
from reorglab.engine import RunTrace, TraceEvent


def expand_vote(vote: VoteRecord) -> list[VoteRecord]:
    """One span-1 record per voter of `vote`."""
    return [VoteRecord(vote.slot, vote.voter + k, vote.target, vote.broadcast_time)
            for k in range(vote.span)]


def expand_votes(votes) -> list[VoteRecord]:
    return [one for vote in votes for one in expand_vote(vote)]


class Expander:
    """Expands the records of one run, giving each block and shared vote tuple one expanded copy."""

    def __init__(self) -> None:
        self._blocks: dict[int, Block] = {}
        self._tuples: dict[int, tuple[tuple[VoteRecord, ...], tuple[VoteRecord, ...]]] = {}

    def votes(self, votes: tuple[VoteRecord, ...]) -> tuple[VoteRecord, ...]:
        kept = self._tuples.get(id(votes))
        if kept is None or kept[0] is not votes:
            kept = self._tuples[id(votes)] = (votes, tuple(expand_votes(votes)))
        return kept[1]

    def evidence(self, ev: EvidenceRecord) -> EvidenceRecord:
        return EvidenceRecord(ev.signer, self.votes(ev.votes))

    def block(self, block: Block) -> Block:
        kept = self._blocks.get(block.id)
        if kept is None:
            kept = self._blocks[block.id] = Block(
                block.id, block.slot, block.parent, block.proposer, block.is_empty,
                tuple(expand_votes(block.included_votes)),
                tuple(self.evidence(e) for e in block.included_evidences),
            )
        return kept

    def tree(self, tree: BlockTree) -> BlockTree:
        return BlockTree(
            {bid: self.block(b) for bid, b in tree.blocks.items()},
            {bid: list(kids) for bid, kids in tree.children.items()},
            {slot: list(ids) for slot, ids in tree.by_slot.items()},
            expand_votes(tree.votes),
            tree.genesis,
            tree._next_id,
        )

    def event(self, ev: TraceEvent) -> list[TraceEvent]:
        if ev.kind == "block":
            return [TraceEvent(ev.tick, ev.kind, ev.release_tick, self.block(ev.message))]
        if ev.kind == "vote":
            return [TraceEvent(ev.tick, ev.kind, ev.release_tick, one)
                    for one in expand_vote(ev.message)]
        return [TraceEvent(ev.tick, ev.kind, ev.release_tick, self.evidence(ev.message))]

    def trace(self, trace: RunTrace) -> RunTrace:
        return RunTrace(
            [one for ev in trace.events for one in self.event(ev)],
            list(trace.tips),
            self.tree(trace.tree),
            list(trace.final_chain),
            trace.final_slot,
            dict(trace.labels),
            dict(trace.payoffs),
        )


def expand_trace(trace: RunTrace) -> RunTrace:
    """The run as one record per voter: events, tree and blocks alike, the rest copied."""
    return Expander().trace(trace)
