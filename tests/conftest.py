"""Shared test helpers: tree builders and independent oracles.

The oracles here deliberately recompute everything from scratch with their
own data flow (plain dict scans, recursive descent) so that they share no
code path with the implementations they check.
"""

from __future__ import annotations

from typing import Optional

from reorglab.chain import (
    Block,
    BlockId,
    BlockTree,
    TieBreakPolicy,
    Validator,
    ValidatorKind,
    VoteRecord,
)

from expansion import expand_votes

RATIONAL = ValidatorKind.RATIONAL
ADVERSARIAL = ValidatorKind.ADVERSARIAL


def make_tree(parents: list[Optional[int]], kinds: Optional[list[ValidatorKind]] = None) -> BlockTree:
    """Build a tree from a parent list; block i sits at slot i with id i."""
    tree = BlockTree()
    for i, parent in enumerate(parents):
        kind = kinds[i] if kinds else RATIONAL
        tree.insert_block(
            Block(tree.new_id(), slot=i, parent=parent, proposer=Validator(1000 + i, kind),
                  is_empty=(parent is None))
        )
    return tree


def vote(tree: BlockTree, voter: int, target: BlockId, slot: Optional[int] = None,
         time: int = 0) -> None:
    tree.add_vote(VoteRecord(tree.blocks[target].slot if slot is None else slot,
                             voter, target, time))


def oracle_latest_votes(votes) -> dict[int, VoteRecord]:
    """Independent LMD filter over the per-voter votes: latest slot wins, then
    broadcast time, then lowest target id."""
    best: dict[int, VoteRecord] = {}
    for v in expand_votes(votes):
        cur = best.get(v.voter)
        if cur is None:
            best[v.voter] = v
            continue
        if (v.slot, v.broadcast_time, -v.target) > (cur.slot, cur.broadcast_time, -cur.target):
            best[v.voter] = v
    return best


def oracle_weight(tree: BlockTree, root: BlockId, current_slot: int,
                  boosted: Optional[BlockId], boost: int,
                  extra: Optional[dict] = None,
                  latest: Optional[dict[int, VoteRecord]] = None) -> int:
    """Recount the subtree weight of `root` by scanning every vote.

    `latest` is `oracle_latest_votes(tree.votes)` when the caller has it
    already; it is computed here otherwise.
    """

    def in_subtree(bid: BlockId) -> bool:
        cur: Optional[BlockId] = bid
        while cur is not None:
            if cur == root:
                return True
            cur = tree.blocks[cur].parent
        return False

    total = 0
    if latest is None:
        latest = oracle_latest_votes(tree.votes)
    for v in latest.values():
        if in_subtree(v.target):
            total += 1
    if extra:
        for bid, amount in extra.items():
            if in_subtree(bid):
                total += amount
    if boosted is not None and in_subtree(boosted) and tree.blocks[boosted].slot == current_slot:
        total += boost
    return total


def _oracle_adv_slot(tree: BlockTree, root: BlockId) -> int:
    best = -(10**9)
    for b in tree.blocks.values():
        cur: Optional[BlockId] = b.id
        while cur is not None:
            if cur == root:
                if b.proposer.kind is ADVERSARIAL:
                    best = max(best, b.slot)
                break
            cur = tree.blocks[cur].parent
    return best


def oracle_fork_choice(tree: BlockTree, current_slot: int,
                       boosted: Optional[BlockId] = None, boost: int = 0,
                       tie_break: TieBreakPolicy = TieBreakPolicy.ADVERSARY_FAVORING,
                       extra: Optional[dict] = None) -> BlockId:
    """Greedy descent recomputing every child weight from one LMD filter of the votes."""
    latest = oracle_latest_votes(tree.votes)
    cur = tree.genesis
    while True:
        kids = tree.children.get(cur, [])
        if not kids:
            return cur
        scored = []
        for kid in kids:
            w = oracle_weight(tree, kid, current_slot, boosted, boost, extra, latest)
            if tie_break is TieBreakPolicy.ADVERSARY_FAVORING:
                scored.append((w, _oracle_adv_slot(tree, kid), -kid, kid))
            else:
                scored.append((w, 0, -kid, kid))
        scored.sort(reverse=True)
        cur = scored[0][3]
