"""Lock-step clock, the run's message log and its delivery.

Time is measured in ticks with the network delay normalized to one tick.
Slot t spans ticks 3t..3t+2: proposal at 3t, attestation at 3t+1 and
aggregation (evidence emission under the DAG-votes mechanism) at 3t+2.
A message is created at the tick in progress and released then or, when
withheld, later; released at tick tau, it is in every agent's view at tau+1
and thereafter: all agents share one view at lock-step times.  A tick's view
and fork-choice head are fixed when the tick starts: delivery is the only
write to a running simulation's tree (`games._open_chain` writes the opening
chain before the clock starts), so the clock weighs the head once, right after
delivering, and every reader of the tick uses it.  Each message sent is one
event of the run's append-only log (`RunTrace.events`); the events not yet
delivered are the pending queue.  A block is one message.  A vote message is
one counted record (chain.py's `VoteRecord`): the identical votes of a run
of consecutive validators, which the game scripts send as one message, and
the exported trace renders as one line per voter.  An evidence message is
one counted record too, rendered as one line per signer per vote it signs.
So the exported trace reads as if every validator had sent its own
messages.  No validator votes twice in a run: `emit_vote` refuses a record
that covers a validator that already voted, which is what keeps the counted
latest-message fold exact.  The validators that voted are held as runs
(chain.py's `put` and `find`), which a `fork` shares, and the settled
payoffs are a read-only mapping over runs (rewards.py's `SettledPayoffs`),
so a run holds no per-validator container.

Agents act through a StrategyProfile that names one candidate action per
decision point by its label.  A decision point is its (slot, role, actor)
key: a `DecisionPoint` equals and hashes as that plain tuple.  A profile
holds its labels as runs: for each (slot, role), the maximal runs of
consecutive validators that play one label (chain.py's runs).  A script
reads a committee's labels run by run (`StrategyProfile.over`) and a single
actor's by its key (`StrategyProfile.get`), so a run builds no
`DecisionPoint` and reads no label per voter.  A validator is its index; only a block's proposer is a
`Validator`.  The records built per message (`TraceEvent`, and chain.py's
`VoteRecord`, `EvidenceRecord`, `Validator`) are frozen and slotted.  A game
is a straight-line script over one Simulation: it advances the clock to the
tick of its next action (`Simulation.advance`), then acts (`propose`,
`emit_vote`, `emit_evidence`).
Its scripted adversary counts votes, withholds blocks and releases them
later the same way.

A script reads a decision point's action only at or after the point's tick
(the read-tick rule).  So a run's state as tick t starts depends only on the
actions of the decision points before t, and every profile that agrees
with the run's there shares that state.  `Simulation.fork` copies a run so
far, which makes that state a checkpoint (`games.Checkpoint`): a deviation
plays on from a fork of it instead of replaying the ticks before t.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple, Optional

from .chain import (
    Block,
    BlockId,
    BlockTree,
    EvidenceRecord,
    Run,
    TieBreakPolicy,
    Validator,
    ValidatorKind,
    VoteRecord,
    find,
    fold,
    over,
    put,
)


class EngineError(Exception):
    pass


class InvalidAction(EngineError):
    """An agent attempted a slashable or out-of-range action."""


def slot_of(tick: int) -> int:
    return tick // 3


def propose_tick(slot: int) -> int:
    return 3 * slot


def vote_tick(slot: int) -> int:
    return 3 * slot + 1


def aggregate_tick(slot: int) -> int:
    return 3 * slot + 2


class Role(enum.Enum):
    LEADER = "leader"
    ATTESTOR = "attestor"

    # each member is a singleton and compares by identity, so the C-level
    # identity hash agrees with equality; Enum's own hashes the name in Python
    __hash__ = object.__hash__


def decision_tick(slot: int, role: Role) -> int:
    """The tick at which a `role` decision point of `slot` acts."""
    return propose_tick(slot) if role is Role.LEADER else vote_tick(slot)


class DecisionPoint(NamedTuple):
    """A decision point as its (slot, role, actor) key; it equals and hashes as that tuple."""

    slot: int
    role: Role
    actor: int  # validator index

    @property
    def tick(self) -> int:
        return decision_tick(self.slot, self.role)


# -- target selectors --------------------------------------------------------
#
# Profile actions name their targets symbolically so that a deviation branch
# (where the tree looks different) still resolves to a meaningful block.


@dataclass(frozen=True)
class Tip:
    """The canonical chain tip in view at the action tick."""


@dataclass(frozen=True)
class ParentOfTip:
    pass


@dataclass(frozen=True)
class CompliantTip:
    """The tip prescribed by the extended game's compliant-tip procedure."""


@dataclass(frozen=True)
class FixedBlock:
    block: BlockId


Selector = object  # Tip | ParentOfTip | CompliantTip | FixedBlock


@dataclass(frozen=True)
class Propose:
    parent: Selector
    empty: bool = False


@dataclass(frozen=True)
class VoteFor:
    target: Selector


@dataclass(frozen=True)
class Abstain:
    pass


def _runs_of(assignment: Mapping) -> dict[tuple[int, Role], tuple[Run, ...]]:
    """The runs of `assignment`, by (slot, role); a later key wins where two overlap.

    A key is a decision point, or a (slot, role, range) group of them.
    """
    pieces: dict[tuple[int, Role], list[Run]] = {}
    for (slot, role, who), label in assignment.items():
        first, span = (who.start, len(who)) if isinstance(who, range) else (who, 1)
        if span:
            pieces.setdefault((slot, role), []).append((first, span, label))
    out = {}
    for seat, seq in pieces.items():
        ordered = sorted(seq, key=itemgetter(0))
        if all(a[0] + a[1] <= b[0] for a, b in zip(ordered, ordered[1:])):
            out[seat] = fold(ordered)
        else:  # overlapping keys: each plays over the ones before it
            out[seat] = ()
            for piece in seq:
                out[seat] = put(out[seat], *piece)
    return out


class StrategyProfile:
    """One candidate label per decision point, held as runs of equal labels.

    `runs` maps each (slot, role) to a sorted tuple of maximal runs
    `(first, span, label)`: validators `first` .. `first + span - 1` play
    `label` there.  Runs do not overlap, and two that meet have different
    labels, so two profiles that give every decision point the same label
    hold equal runs.  A decision point no run covers has no label.  Nothing
    writes to a profile: an override builds a new one (`with_actions`).
    `actions`, the per-point mapping, is derived from the runs on first
    read, for the readers that list points.
    """

    __slots__ = ("runs", "_actions")

    def __init__(self, actions: Optional[Mapping] = None, *, runs: Optional[Mapping] = None):
        """A profile of `actions` (see `with_actions` for its keys), or of ready `runs`.

        Ready runs are a fresh dict, each seat's runs sorted, maximal and
        not empty, as `with_actions` builds them.
        """
        self.runs: Mapping[tuple[int, Role], tuple[Run, ...]] = MappingProxyType(
            _runs_of(actions or {}) if runs is None else runs)
        self._actions: Optional[Mapping[DecisionPoint, str]] = None

    def get(self, dp: tuple[int, Role, int]) -> Optional[str]:
        """The label of one decision point, by its (slot, role, actor) key: a bisect over its runs."""
        slot, role, actor = dp
        hit = find(self.runs.get((slot, role), ()), actor, actor + 1)
        return None if hit is None else hit[1]

    def over(self, slot: int, role: Role, voters: range) -> Iterator[Run]:
        """The runs of (slot, role) across `voters`, clipped to it, in index order.

        They cover `voters` exactly: a stretch no run covers comes as a run
        labelled None.
        """
        return over(self.runs.get((slot, role), ()), voters.start, voters.stop)

    @property
    def actions(self) -> Mapping[DecisionPoint, str]:
        """The label of each decision point a run covers, read-only, built on first read."""
        if self._actions is None:
            self._actions = MappingProxyType({
                DecisionPoint(slot, role, v): label
                for (slot, role), runs in self.runs.items()
                for first, span, label in runs
                for v in range(first, first + span)
            })
        return self._actions

    def with_actions(self, assignment: Mapping) -> StrategyProfile:
        """This profile with each key of `assignment` playing its label there.

        A key is a decision point, or a (slot, role, range) group of them;
        a later key wins where two overlap.  The work is in the runs of the
        profile and of `assignment`, not in the validators they cover.
        """
        runs = dict(self.runs)
        for seat, new in _runs_of(assignment).items():
            for piece in new:
                runs[seat] = put(runs.get(seat, ()), *piece)
        return StrategyProfile(runs=runs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, StrategyProfile) and self.runs == other.runs

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"StrategyProfile(runs={dict(self.runs)!r})"


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One message sent: its creation tick, kind, release tick and the message itself."""

    tick: int
    kind: str  # "block" | "vote" | "evidence"
    release_tick: int
    message: object  # the Block, VoteRecord or EvidenceRecord sent

    @property
    def payloads(self) -> list[dict]:
        """The message as the exported trace renders it, one payload per line.

        A block is one line, listing the sorted (voter, slot) key of each
        voter of its vote records and the sorted keys of every vote its
        evidences sign.  A vote record is one line per voter, in index order.
        An evidence is one line per signer per vote it signs, signer-major
        and then in the order of its `votes`, each keyed (signer, voter,
        slot, target).
        """
        m = self.message
        if self.kind == "block":
            return [{
                "id": m.id,
                "slot": m.slot,
                "parent": m.parent,
                "proposer": m.proposer.index,
                "empty": m.is_empty,
                "votes": sorted((voter, v.slot) for v in m.included_votes for voter in v.voters),
                "evidences": sorted(key for e in m.included_evidences for key in e.keys()),
            }]
        if self.kind == "vote":
            return [{"slot": m.slot, "voter": voter, "target": m.target} for voter in m.voters]
        return [{"key": key} for key in m.keys()]


# `json.dumps(obj, sort_keys=True)` builds an encoder per call; one serves every line
_ENCODER = json.JSONEncoder(sort_keys=True)


@dataclass
class RunTrace:
    """Append-only record of a run, which `export_lines` renders.

    It holds the run's message log, the tip of each tick, the final chain
    and the settled payoffs.
    """

    events: list[TraceEvent] = field(default_factory=list)
    tips: list[tuple[int, BlockId]] = field(default_factory=list)
    tree: BlockTree = field(default_factory=BlockTree)
    final_chain: list[BlockId] = field(default_factory=list)
    final_slot: int = 0
    labels: dict[str, BlockId] = field(default_factory=dict)
    # settled, by validator: a read-only mapping (`rewards.SettledPayoffs` once settled)
    payoffs: Mapping[int, Fraction] = field(default_factory=dict)

    def export_lines(self) -> list[str]:
        """The trace as a file holds it: the lines of each sent message, then a summary line."""
        encode = _ENCODER.encode
        lines = []
        for ev in self.events:
            for payload in ev.payloads:
                lines.append(encode({
                    "tick": ev.tick,
                    "kind": ev.kind,
                    "release_tick": ev.release_tick,
                    "payload": payload,
                }))
        lines.append(encode({
            "kind": "summary",
            "final_chain": list(self.final_chain),
            "final_slot": self.final_slot,
            "tips": self.tips,
            "payoffs": {v: str(amount) for v, amount in sorted(self.payoffs.items())},
        }))
        return lines


_KIND_ORDER = {"block": 0, "vote": 1, "evidence": 2}


class Simulation:
    """Single-threaded lock-step run.

    The per-run state is self-contained, so disjoint simulations can run in
    parallel under independent drivers with no shared mutable state.
    """

    def __init__(
        self, boost: int, tie_break: TieBreakPolicy = TieBreakPolicy.ADVERSARY_FAVORING
    ):
        self.boost = boost
        self.tie_break = tie_break
        self.tree = BlockTree()  # the delivered view, shared by all agents
        self.pending: list[TraceEvent] = []  # the undelivered events, in sending order
        self.delivered_evidences: list[EvidenceRecord] = []
        self.trace = RunTrace(tree=self.tree)
        self.tick = 0
        self._head: Optional[BlockId] = None  # the tick's head; None when no tick is in progress
        self._voted: tuple[Run, ...] = ()  # the validators that voted, as runs holding their vote's slot
        self._proposed: dict[tuple[int, int], BlockId] = {}

    def fork(self) -> Simulation:
        """A copy of the run so far, to play on independently of this one.

        Every container is copied: the tree (`BlockTree.fork`), the pending
        queue, the delivered evidences, the trace's events and tips, and the
        proposal guard.  The messages, the voted runs and the settled
        payoffs, which nothing writes to, are shared.
        """
        sim = Simulation(self.boost, self.tie_break)
        sim.tree = self.tree.fork()
        sim.pending = list(self.pending)
        sim.delivered_evidences = list(self.delivered_evidences)
        t = self.trace
        sim.trace = RunTrace(
            list(t.events), list(t.tips), sim.tree, list(t.final_chain), t.final_slot,
            dict(t.labels), t.payoffs,
        )
        sim.tick, sim._head = self.tick, self._head
        sim._voted, sim._proposed = self._voted, dict(self._proposed)
        return sim

    # -- message emission ------------------------------------------------

    def _send(self, kind: str, message: object, release: Optional[int]) -> None:
        release = self.tick if release is None else release
        if release < self.tick:
            raise InvalidAction("cannot release a message before creating it")
        if kind != "block" and message.span < 1:
            raise InvalidAction(f"a {kind} record of span {message.span} covers no validator")
        event = TraceEvent(self.tick, kind, release, message)
        self.trace.events.append(event)
        self.pending.append(event)

    def emit_block(self, block: Block, release: Optional[int] = None) -> None:
        """Send `block`; a refused block leaves its proposer free to propose."""
        key = (block.proposer.index, block.slot)
        if key in self._proposed and block.proposer.kind is not ValidatorKind.ADVERSARIAL:
            raise InvalidAction(
                f"validator {block.proposer.index} already proposed for slot {block.slot}"
            )
        self._send("block", block, release)
        self._proposed[key] = block.id

    def emit_vote(self, slot: int, voter: int, target: BlockId,
                  release: Optional[int] = None, span: int = 1) -> VoteRecord:
        """Build the slot-`slot` vote for `target` of validators `voter` .. `voter + span - 1`; send it.

        The record is built once, stamped with its release tick; it is
        returned as sent.  A validator votes once per run: a record covering
        one that already voted is refused, and so are a span below 1 and an
        early release, which leave its voters free to vote.  The voters are
        checked and marked as one range against the runs of those that voted.
        """
        hit = find(self._voted, voter, voter + span)
        if hit is not None:
            raise InvalidAction(f"validator {hit[0]} already voted at slot {hit[1]}")
        vote = VoteRecord(slot, voter, target, self.tick if release is None else release, span)
        self._send("vote", vote, vote.broadcast_time)
        self._voted = put(self._voted, voter, span, slot)
        return vote

    def emit_evidence(self, ev: EvidenceRecord, release: Optional[int] = None) -> None:
        self._send("evidence", ev, release)

    def propose(self, slot: int, parent: Optional[BlockId], proposer: Validator, votes=(),
                evidences=(), empty: bool = False, release: Optional[int] = None) -> Block:
        """Build the tree's next block, carrying `votes` and `evidences`; send it, taking no id if refused."""
        block = Block(
            self.tree._next_id, slot, parent, proposer, is_empty=empty,
            included_votes=tuple(votes), included_evidences=tuple(evidences),
        )
        self.emit_block(block, release)
        self.tree.new_id()
        return block

    # -- view helpers ------------------------------------------------------

    def visible_votes_for(self, target: BlockId, slot: Optional[int] = None) -> int:
        """How many delivered votes, counted records by their span, name `target`."""
        return sum(
            v.span
            for v in self.tree.votes
            if v.target == target and (slot is None or v.slot == slot)
        )

    def boosted_block(self, query_slot: int) -> Optional[BlockId]:
        """The proposal of `query_slot` currently in view, if any."""
        return max(self.tree.by_slot.get(query_slot, ()), default=None)

    def tip(self) -> BlockId:
        """The fork-choice head of the tick in progress, weighed when that tick started."""
        if self._head is None:
            raise EngineError("no tick is in progress")
        return self._head

    def resolve(self, selector: Selector, compliant_tip: Optional[BlockId] = None) -> BlockId:
        if isinstance(selector, FixedBlock):
            return selector.block
        if isinstance(selector, Tip):
            return self.tip()
        if isinstance(selector, ParentOfTip):
            tip = self.tip()
            parent = self.tree.blocks[tip].parent
            return tip if parent is None else parent
        if isinstance(selector, CompliantTip):
            if compliant_tip is None:
                raise InvalidAction("no compliant tip available in this game")
            return compliant_tip
        raise InvalidAction(f"unknown selector {selector!r}")

    # -- clock -------------------------------------------------------------

    def deliver(self) -> None:
        """Make every message released strictly before the current tick visible."""
        due = [ev for ev in self.pending if ev.release_tick < self.tick]
        # a stable sort: sending order breaks ties within a kind
        due.sort(key=lambda ev: (ev.release_tick, _KIND_ORDER[ev.kind]))
        self.pending = [ev for ev in self.pending if ev.release_tick >= self.tick]
        for ev in due:
            if ev.kind == "block":
                self.tree.insert_block(ev.message)  # type: ignore[arg-type]
            elif ev.kind == "vote":
                self.tree.add_vote(ev.message)  # type: ignore[arg-type]
            else:
                self.delivered_evidences.append(ev.message)  # type: ignore[arg-type]

    def advance(self, tick: int) -> None:
        """Run the clock to `tick` and leave it in progress for the caller's actions.

        The first call starts the clock at `tick`.  After that, the tick in
        progress and each later tick before `tick` record their tips as they
        end.  Each tick that starts delivers what is due and then weighs its
        head, which stays fixed until the tick ends.  Advancing to the tick
        already in progress does nothing.
        """
        if self._head is not None and tick < self.tick:
            raise EngineError(f"the clock is past tick {tick}")
        for t in range(self.tick + 1 if self._head is not None else tick, tick + 1):
            self._end_tick()
            self.tick = t
            self.deliver()
            slot = slot_of(t)
            self._head = self.tree.fork_choice(
                slot, self.boosted_block(slot), self.boost, self.tie_break
            )

    def _end_tick(self) -> None:
        if self._head is not None:
            self.trace.tips.append((self.tick, self.tip()))
            self._head = None

    def finalize(self, final_slot: int) -> RunTrace:
        """Deliver everything outstanding and fix the final canonical chain.

        The final chain is evaluated from the perspective of `final_slot`, so
        that slot's proposal still enjoys the proposer boost; behavior after
        the game ends is assumed not to disturb it.  The tick in progress
        ends first.
        """
        self._end_tick()
        if self.pending:
            self.tick = max(ev.release_tick for ev in self.pending) + 1
            self.deliver()
        boosted = self.boosted_block(final_slot)
        self.trace.final_slot = final_slot
        self.trace.final_chain = self.tree.canonical_chain(
            final_slot, boosted, self.boost, self.tie_break
        )
        return self.trace
