"""Executable commitment-attack games.

Each game couples a scripted adversary (the committed strategy it announces
to the validators) with a set of rational players whose actions come from a
StrategyProfile.  Running a profile yields a full lock-step trace; payoffs
are settled from that trace, so every payoff matrix in this module is a
summary of simulation: each cell of a table is the settlement of one run
conditioned on the attack's outcome (`_ConditionedGame.conditioned_run`).
The paper's closed forms live only in the tests, as oracles.

Games implemented:

* simple          - one adversarial leader reorgs the previous block by
                    threatening to exclude non-compliant votes;
* strong simple   - the same threat extended to a supporting slot in a
                    later epoch, which each attestor joins with probability
                    1/epoch_length;
* simple no-boost - a withheld-block race that works with zero proposer
                    boost when both neighbors of the victim slot are
                    adversarial;
* extended        - a chain of empty blocks reorgs p blocks, coordinated by
                    the compliant-tip procedure (compliance.py);
* selfish mining  - adversarial fork built from withheld committee votes,
                    profitable for staking pools of any size;
* DAG votes       - the mitigation scenario: with majority-evidence
                    timeliness the off-tip adversarial proposal dies and
                    honest play is an equilibrium.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .chain import (
    Block,
    BlockId,
    EvidenceRecord,
    TieBreakPolicy,
    Validator,
    ValidatorKind,
    VoteRecord,
    detect_reorg,
    fold,
    over,
)
from .compliance import ComplianceTracker
from .engine import (
    Abstain,
    CompliantTip,
    DecisionPoint,
    FixedBlock,
    ParentOfTip,
    Propose,
    Role,
    RunTrace,
    Simulation,
    StrategyProfile,
    Tip,
    VoteFor,
    aggregate_tick,
    decision_tick,
    propose_tick,
    vote_tick,
)
from .rewards import Mechanism, RewardParams, settle_payoffs


class GameError(Exception):
    pass


class AssumptionViolated(GameError):
    """The parameters break an assumption the analysis of a scenario rests on."""


class ConditionViolated(GameError):
    """Selfish-mining run configured with fewer adversarial than rival slots."""


class ConditioningUnrealizable(GameError):
    """The requested matrix cell cannot occur under the given parameters."""


@dataclass(frozen=True)
class PoolSpec:
    """A staking pool controlling `members_per_slot` attestors in each slot."""

    members_per_slot: int
    name: str = "P"


@dataclass(frozen=True)
class GameConfig:
    """The parameters of a game; the game class it is passed to is the kind."""

    committee_size: int  # W
    boost: int = 0  # W_p
    horizon: int = 1  # p, the number of blocks the extended game reorgs
    r: Fraction = Fraction(1)
    R: Fraction = Fraction(1)
    epoch_length: int = 32
    honest_per_slot: int = 0
    n_adversarial_slots: int = 0  # selfish mining
    n_non_adversarial_slots: int = 0
    pool: Optional[PoolSpec] = None
    credibility_assumed: bool = True
    tie_break: TieBreakPolicy = TieBreakPolicy.ADVERSARY_FAVORING
    adversary_on_tip: bool = False  # dag-votes variant
    allow_condition_violation: bool = False


@dataclass(frozen=True)
class Checkpoint:
    """A run's state as tick `tick` starts, before the script reads any action of it.

    A script reads a decision point's action only at or after the point's
    tick, so the state at `tick` depends only on the actions of the decision
    points before it: the checkpoint is valid for every profile that agrees
    there with the profile it was recorded under.  It holds the simulation,
    the blocks the script's opening made, and the extended game's compliance
    tracker.  Nothing writes to a checkpoint: each resume plays on a fork.
    """

    tick: int
    sim: Simulation
    blocks: tuple[Block, ...]
    tracker: Optional[ComplianceTracker] = None

    def fork(self) -> Checkpoint:
        """A copy to play on: the simulation and the tracker forked, the blocks shared."""
        tracker = self.tracker.fork() if self.tracker is not None else None
        return Checkpoint(self.tick, self.sim.fork(), self.blocks, tracker)


@dataclass
class GameOutcome:
    success: bool
    reorged: list[BlockId]
    trace: RunTrace  # its `payoffs` are the run's settlement
    extras: dict = field(default_factory=dict)
    # by tick, one per decision tick of a run that records them (`play`); none otherwise
    checkpoints: dict[int, Checkpoint] = field(default_factory=dict)

    @property
    def final_chain(self) -> list[BlockId]:
        return self.trace.final_chain


@dataclass
class PayoffMatrix:
    rows: tuple[str, ...]
    cols: tuple[str, ...]
    values: dict[tuple[str, str], Fraction]

    def cell(self, row: str, col: str) -> Fraction:
        return self.values[(row, col)]


PlayerId = object  # int for solo validators, str for pools


class _Payoffs(Mapping):
    """A run's payoffs by player, read-only: `amount(player)` reads one from the run on demand.

    The keys are the game's `players()`, in that order, looked up in `pools`
    and the roster's pieces (`_roster`), so no view or read works per player.
    """

    __slots__ = ("_game", "_amount", "_read")

    def __init__(self, game: GameModel, amount: Callable[[PlayerId], Fraction]):
        self._game, self._amount, self._read = game, amount, {}  # player -> amount, once read

    def __getitem__(self, player: PlayerId) -> Fraction:
        read = self._read
        if player not in read:
            if not self._game.is_player(player):
                raise KeyError(player)
            read[player] = self._amount(player)
        return read[player]

    def __iter__(self) -> Iterator[PlayerId]:
        return iter(self._game.players())

    def __len__(self) -> int:
        return sum(len(members) for *_, members in self._game._roster) + len(self._game.pools)


class GameModel:
    """Roster and named profiles of a game driven by the equilibrium lab.

    A validator is its index: each committee is a `range` of consecutive
    indices (`_committees`), and only a proposer is a `Validator`, because
    a block carries it.  A game lists its decision points once, as
    `(slot, role, range)` groups (`_decision_points`, read by `groups`);
    `points` is the per-member view, built on first read.  It declares the
    labelled candidate actions of each role once (`CANDIDATES`, read
    through `candidates`), and plays a profile (`run`, `payoffs`) from its
    opening or from a checkpoint (`start`) recorded by an earlier run
    (`play`, which starts from `_RECORD`) of a profile that agrees with it
    before the checkpoint's tick.  A script reads a committee's labels run
    by run (`profile.over`) and one actor's by its key (`profile.get`).
    The roster follows: a decision point belongs to its actor, unless the
    actor is a member of one of `pools`, whose members move together;
    `_roster` holds the solo players as runs of a group's actors.  Under a
    profile the players fall into symmetry classes (`symmetry_classes`),
    read off the roster and the profile's runs.  Named profiles follow
    from `PROFILES`.
    """

    # role -> label -> action, built once per class and shared by every
    # decision point of the role, so no caller may mutate it
    CANDIDATES: dict[Role, dict[str, object]] = {}
    # profile name -> candidate labels; each decision point takes the first
    # of them that it offers
    PROFILES: dict[str, tuple[str, ...]] = {}
    # a pool's joint actions: all its members take the label, and a pool
    # never abstains
    POOL_LABELS = ("C", "NC")
    # pool name -> indices of the member validators whose payoffs it sums
    pools: dict[PlayerId, frozenset[int]] = {}

    @cached_property
    def groups(self) -> tuple[tuple[int, Role, range], ...]:
        """The decision points as (slot, role, actors) groups, in `points` order, listed once."""
        return tuple(self._decision_points())

    @cached_property
    def points(self) -> tuple[DecisionPoint, ...]:
        """Every decision point, group by group: every reader shares these objects."""
        return tuple(DecisionPoint(slot, role, v) for slot, role, actors in self.groups for v in actors)

    @cached_property
    def _roster(self) -> tuple[tuple[int, Role, range], ...]:
        """The solo players in decision-point order, as (slot, role, members) pieces.

        Each group's actors cut at the runs of pool members.  No game seats
        a validator in two groups, so each solo player is in one piece.
        """
        pooled = fold((v, 1, True) for v in sorted(frozenset().union(*self.pools.values())))
        return tuple((slot, role, range(first, first + span)) for slot, role, actors in self.groups
                     for first, span, pool in over(pooled, actors.start, actors.stop) if pool is None)

    def players(self) -> list[PlayerId]:
        """Solo players in decision-point order, then the pools."""
        return [*(p for *_, members in self._roster for p in members), *self.pools]

    def is_player(self, player: PlayerId) -> bool:
        """Whether `player` is one of `players()`, looked up in `pools` and the roster's pieces."""
        return player in self.pools or isinstance(player, int) and any(
            player in members for *_, members in self._roster)

    def seats(self, player: PlayerId) -> tuple[DecisionPoint, ...]:
        """`player`'s decision points in `points` order: a pool's are its members'."""
        members = sorted(self.pools[player]) if player in self.pools else (player,)
        return tuple(DecisionPoint(slot, role, v)
                     for slot, role, actors in self.groups for v in members if v in actors)

    @cached_property
    def _decision_ticks(self) -> frozenset[int]:
        return frozenset(decision_tick(slot, role) for slot, role, actors in self.groups if actors)

    def play(self, profile: StrategyProfile) -> tuple[Mapping[PlayerId, Fraction], dict[int, Checkpoint]]:
        """The profile's payoffs, and the checkpoints its run recorded."""
        outcome = self.run(profile, _RECORD)
        return self._payoffs_from(outcome), outcome.checkpoints

    def symmetry_classes(self, profile: StrategyProfile) -> list[tuple[object, Sequence[PlayerId]]]:
        """The players' symmetry classes under `profile`, as `(key, members)` runs in roster order.

        Players of one class are interchangeable: the permutation of
        validator indices that swaps two of them maps the roster, `pools`,
        the committees and `profile` onto themselves.  A game's committee
        members of one slot and role differ in nothing but their index, so
        each run of `profile` over the roster's solo players that plays a
        candidate label is a range of members of the class
        `((slot, role, label),)`.  Any other player (a pool, or a solo player
        whose label is missing or no candidate) is its own class.  The
        Tendermint games read their rational validators only as runs of
        one label, so they take this key too.
        """
        runs: list[tuple[object, Sequence[PlayerId]]] = []
        for slot, role, members in self._roster:
            table = self.CANDIDATES[role]
            for first, span, label in profile.over(slot, role, members):
                if label in table:
                    runs.append((((slot, role, label),), range(first, first + span)))
                else:
                    runs.extend((v, (v,)) for v in range(first, first + span))
        runs.extend((name, (name,)) for name in self.pools)
        return runs

    def candidates(self, dp: DecisionPoint) -> dict[str, object]:
        """The labelled candidate actions of `dp`: its role's shared table."""
        return self.CANDIDATES[dp.role]

    def action(self, dp: DecisionPoint, label: str) -> object:
        """The candidate of `dp` labelled `label`."""
        candidates = self.candidates(dp)
        if label not in candidates:
            raise GameError(f"unknown action {label!r} for slot {dp.slot} {dp.role.value}")
        return candidates[label]

    def labelled(self, label_of) -> StrategyProfile:
        """Profile in which each decision point plays its candidate `label_of(dp)`."""
        labels = {dp: label_of(dp) for dp in self.points}
        for dp, label in labels.items():
            self.action(dp, label)  # rejects a label that `dp` does not offer
        return StrategyProfile(labels)

    def assignments(self, player: PlayerId) -> list[tuple[str, dict[DecisionPoint, str]]]:
        """Joint candidate assignments over all decision points of `player`, as labels."""
        dps = self.seats(player)
        if player in self.pools:
            return [(label, dict.fromkeys(dps, label)) for label in self.POOL_LABELS]
        return [(label, {dp: label}) for dp in dps for label in self.candidates(dp)]

    def profile(self, name: str) -> StrategyProfile:
        """Named profile: each group takes its role's pick from `PROFILES[name]`, as one run."""
        if name not in self.PROFILES:
            raise GameError(f"unknown profile {name!r}")
        picks = self.PROFILES[name]
        pick = {role: next(x for x in picks if x in table)
                for role, table in self.CANDIDATES.items() if not table.keys().isdisjoint(picks)}
        try:
            return StrategyProfile({(slot, role, actors): pick[role]
                                    for slot, role, actors in self.groups})
        except KeyError as missing:
            raise GameError(f"profile {name!r} picks no {missing.args[0].value} action") from None

    def _payoffs_from(self, outcome: GameOutcome) -> Mapping[PlayerId, Fraction]:
        """A view of each solo player's settled amount, and each pool's total over its members."""
        settled, zero = outcome.trace.payoffs, Fraction(0)
        return _Payoffs(self, lambda p: sum((settled.get(v, zero) for v in self.pools[p]), zero)
                        if p in self.pools else settled.get(p, zero))


def _committees(slots: Iterable[int], size: int) -> tuple[dict[int, range], Iterator[int]]:
    """One committee of `size` consecutive indices per slot of `slots`, in order from index 0.

    Returns them by slot, and the indices after them, for the game's single
    validators.
    """
    committees = {slot: range(n * size, (n + 1) * size) for n, slot in enumerate(slots)}
    return committees, itertools.count(len(committees) * size)


def _pools(config: GameConfig, committees: Iterable[range]) -> dict[PlayerId, frozenset[int]]:
    """The config's pool: the first `members_per_slot` validators of each of `committees`."""
    if not config.pool:
        return {}
    m = config.pool.members_per_slot
    if not 0 <= m <= config.committee_size:
        raise GameError(f"pool members per slot {m} outside 0..{config.committee_size}")
    return {config.pool.name: frozenset(v for c in committees for v in c[:m])}


def _require(game: GameModel, *games: type) -> None:
    """Reject a game of a class other than `games`, the games a table plays."""
    if type(game) not in games:
        raise GameError(f"this table plays no {type(game).__name__}")


# -- the phases every game script shares ----------------------------------------


# `run`'s `start` for a play from the opening that records its checkpoints
_RECORD = object()


class _Script:
    """One play of a game script, from its opening or resumed from a checkpoint.

    The script passes the tick of each phase that a checkpoint can lie past
    to `at` first.  A phase before the tick the play started at is already
    in the state it started from, so `at` skips it; otherwise it runs the
    clock to the tick.  A play from the opening that was started with
    `_RECORD` records a checkpoint as each decision tick starts, before the
    phase reads any action of that tick.
    """

    def __init__(self, game: GameModel, start, opening: Callable[[], Checkpoint]):
        state = opening() if start is None or start is _RECORD else start.fork()
        self._record = game._decision_ticks if start is _RECORD else frozenset()
        self.sim, self.blocks, self.tracker = state.sim, state.blocks, state.tracker
        self._first_tick = state.tick
        self.checkpoints: dict[int, Checkpoint] = {}

    def at(self, tick: int) -> bool:
        """Whether the phase at `tick` is played; if so, the clock is at `tick`."""
        if tick < self._first_tick:
            return False
        self.sim.advance(tick)
        if tick in self._record:
            self.checkpoints[tick] = Checkpoint(tick, self.sim, self.blocks, self.tracker).fork()
        return True


def _open_chain(config: GameConfig, seeded: dict, start: int = 0) -> Checkpoint:
    """Start a run on a chain voted for before the game.

    `seeded` maps each slot, ascending, to its proposer and the committee
    voting for its block, which sends one counted vote; the first block is
    an empty genesis.  Returns the run's opening: its clock started at tick
    `start`, holding the chain's blocks.
    """
    sim = Simulation(config.boost, config.tie_break)
    blocks: list[Block] = []
    for slot, (proposer, voters) in seeded.items():
        parent = blocks[-1].id if blocks else None
        block = Block(sim.tree.new_id(), slot, parent, proposer, is_empty=parent is None)
        sim.tree.insert_block(block)
        sim.tree.add_vote(VoteRecord(slot, voters.start, block.id, vote_tick(slot), len(voters)))
        blocks.append(block)
    sim.advance(start)
    return Checkpoint(start, sim, tuple(blocks))


# `_attest`'s label for a scripted voter, which votes the tip
_SCRIPTED = object()


def _attest(game: GameModel, sim: Simulation, profile, slot: int, voters: range,
            compliant_tip=None):
    """Attestor phase of `slot` at the tick in progress.

    Each voter plays the action its profile label names at its decision
    point; the labels are read run by run (`profile.over`), none per voter.
    Scripted voters, passed with `profile` None, vote the tip.  Actions
    other than votes, and a missing label, cast nothing.  The tick's head is
    fixed while the tick runs, so each distinct action's target is resolved
    once per phase, and each maximal run of consecutive voters with one
    target sends one counted vote (chain.py's `fold` of the runs that cast).
    """
    table = game.CANDIDATES[Role.ATTESTOR]
    labelled = (profile.over(slot, Role.ATTESTOR, voters) if profile is not None
                else [(voters.start, len(voters), _SCRIPTED)] if voters else [])
    targets: dict = {}  # label (or _SCRIPTED) -> its vote's target; None when it casts none
    cast = []
    for first, span, label in labelled:
        if label not in targets:
            act = VoteFor(Tip()) if label is _SCRIPTED else table.get(label)
            targets[label] = sim.resolve(act.target, compliant_tip) if isinstance(act, VoteFor) else None
        if targets[label] is not None:
            cast.append((first, span, targets[label]))
    for first, span, target in fold(cast):
        sim.emit_vote(slot, first, target, span=span)


def _aggregate(sim: Simulation, slot: int, signers: range) -> None:
    """`signers` sign the slot-`slot` votes in view, if any, in one counted evidence."""
    seen = tuple(vote for vote in sim.tree.votes if vote.slot == slot)
    if seen:
        sim.emit_evidence(EvidenceRecord(signers.start, seen, len(signers)))


def _close(
    sim: Simulation,
    config: GameConfig,
    final_slot: int,
    labels: dict,
    mechanism: Mechanism = Mechanism.ETHEREUM,
):
    """Finish a run: finalize, settle payoffs onto the trace, label its blocks.

    Head votes are paid under `mechanism`: next-slot inclusion unless the
    game's script asks for another.  Returns the trace and the blocks of the
    canonical chain in view at the last tick (the chain to that tick's head)
    that the final chain dropped.
    """
    before = sim.tree.ancestors(sim.tip())
    trace = sim.finalize(final_slot)
    params = RewardParams(config.r, config.R, mechanism, config.committee_size)
    trace.payoffs = settle_payoffs(trace, params)
    trace.labels = labels
    return trace, detect_reorg(before, trace.final_chain)


# ---------------------------------------------------------------------------
# the conditioning every payoff table reads
# ---------------------------------------------------------------------------


class _ConditionedGame(GameModel):
    """A game whose payoff tables condition on the attack's outcome.

    A cell of a table is one run, `conditioned_run`: a profile in which the
    player plays the cell's label and every other attestor complies (`C`),
    except under `fail`, where those of the free attestors (all but the
    player's, as `(slot, role, range)` runs in `points` order) that the
    game's `_failing(free)` picks vote `NC` instead.  The picks are all a
    game declares; every decision point of these games is an attestor's.
    """

    def conditioned_run(self, player: PlayerId, label: str, condition: str) -> GameOutcome:
        """Run with `player`'s attestors playing `label`, the others realizing `condition`.

        The profile is built from `groups` with one `with_actions`, in runs.
        Raises ConditioningUnrealizable when the run does not reach `condition`.
        """
        if label not in self.CANDIDATES[Role.ATTESTOR]:
            raise GameError(f"unknown action {label!r} for an attestor")
        if condition not in ("succeed", "fail"):
            raise GameError(f"unknown condition {condition!r}")
        seats = dict.fromkeys(self.seats(player), label)
        seated = StrategyProfile(seats)
        free = [(slot, role, range(first, first + span)) for slot, role, actors in self.groups
                for first, span, mark in seated.over(slot, role, actors) if mark is None]
        against = self._failing(free) if condition == "fail" else ()
        outcome = self.run(StrategyProfile({group: "C" for group in self.groups}).with_actions(
            {**dict.fromkeys(against, "NC"), **seats}))
        if outcome.success != (condition == "succeed"):
            raise ConditioningUnrealizable(
                f"condition {condition!r} not realizable: run "
                f"{'succeeded' if outcome.success else 'failed'}"
            )
        return outcome

    def conditioned_payoff(self, player: PlayerId, label: str, condition: str) -> Fraction:
        """`player`'s payoff in `conditioned_run`: a pool's is its members' settled total."""
        return self._payoffs_from(self.conditioned_run(player, label, condition))[player]


# ---------------------------------------------------------------------------
# the one-committee games
# ---------------------------------------------------------------------------


class _VictimSlotGame(GameModel):
    """Roster shared by the games whose players are one slot-`SLOT_T` committee.

    The previous committee votes for the genesis block before the game, a
    rational leader proposes the victim block at slot `SLOT_T`, and the
    adversary leads a neighbouring slot.
    """

    SLOT_T: int

    def __init__(self, config: GameConfig):
        self.config = config
        committees, ids = _committees((0, self.SLOT_T), config.committee_size)
        self.prev_committee, self.committee = committees.values()
        self.leader_t = Validator(next(ids), ValidatorKind.RATIONAL)
        self.adversary = Validator(next(ids), ValidatorKind.ADVERSARIAL)
        self.genesis_proposer = Validator(next(ids), ValidatorKind.RATIONAL)

    def _decision_points(self) -> list[tuple[int, Role, range]]:
        return [(self.SLOT_T, Role.ATTESTOR, self.committee)]


class SimpleGame(_VictimSlotGame, _ConditionedGame):
    """Slot t+1 is adversarial; slot t attestors choose whose block to back.

    Slots are normalized so that B_{t-1} is the genesis block at slot 0, the
    victim block B_t is proposed at slot 1, and the adversary proposes B_A
    at slot 2.  The previous committee's votes for B_{t-1} are pre-scripted,
    which is what a staking pool stands to lose when B_t is reorged.
    """

    SLOT_PREV, SLOT_T, SLOT_ADV = 0, 1, 2
    genesis_id: BlockId = 0  # the first block `_opening` makes
    CANDIDATES = {Role.ATTESTOR: {
        "C": VoteFor(FixedBlock(genesis_id)), "NC": VoteFor(Tip()), "abstain": Abstain(),
    }}
    PROFILES = {
        "compliant-all": ("C",),
        "vote-bt-all": ("NC",),
        "abstain-all": ("abstain",),
    }

    def __init__(self, config: GameConfig):
        if config.pool and config.pool.members_per_slot >= config.committee_size:
            raise GameError("pool cannot fill the whole committee")
        super().__init__(config)
        self.pools = _pools(config, (self.prev_committee, self.committee))

    # -- simulation -----------------------------------------------------------

    def _opening(self) -> Checkpoint:
        """The run up to the slot-t vote: the seeded genesis and the victim block B_t."""
        opening = _open_chain(self.config, {0: (self.genesis_proposer, self.prev_committee)})
        sim, (genesis,) = opening.sim, opening.blocks
        sim.advance(propose_tick(self.SLOT_T))
        # the seeded slot-0 votes are all the tree holds yet
        b_t = sim.propose(self.SLOT_T, genesis.id, self.leader_t, votes=sim.tree.votes)
        return Checkpoint(sim.tick, sim, (genesis, b_t))

    def run(self, profile: StrategyProfile, start: Optional[Checkpoint] = None) -> GameOutcome:
        cfg = self.config
        script = _Script(self, start, self._opening)
        sim, (genesis, b_t) = script.sim, script.blocks
        script.at(vote_tick(self.SLOT_T))  # the one decision tick
        _attest(self, sim, profile, self.SLOT_T, self.committee)
        sim.advance(propose_tick(self.SLOT_ADV))
        reorg = sim.visible_votes_for(b_t.id, slot=self.SLOT_T) < cfg.boost
        included = [v for v in sim.tree.votes if v.slot == self.SLOT_T]
        if cfg.credibility_assumed:
            included = [v for v in included if v.target == genesis.id]
        b_a = sim.propose(self.SLOT_ADV, genesis.id if reorg else b_t.id, self.adversary,
                          votes=included)
        labels = {"B_prev": genesis.id, "B_t": b_t.id, "B_A": b_a.id}
        trace, reorged = _close(sim, cfg, self.SLOT_ADV, labels)
        success = trace.final_chain == [genesis.id, b_a.id]
        return GameOutcome(success, reorged, trace, checkpoints=script.checkpoints)

    def payoffs(self, profile: StrategyProfile, start=None) -> Mapping[PlayerId, Fraction]:
        return self._payoffs_from(self.run(profile, start))

    def _failing(self, free: list[tuple[int, Role, range]]) -> list[tuple[int, Role, range]]:
        """The first `boost`, whose votes for B_t meet the threshold whatever the player plays."""
        boost, count = self.config.boost, sum(len(actors) for *_, actors in free)
        if count < boost:
            raise ConditioningUnrealizable(f"cannot script {boost} votes for B_t with {count} free attestors")
        picked = []
        for slot, role, actors in free:  # the first `boost` of the runs, in order
            picked.append((slot, role, actors[:boost - sum(len(a) for *_, a in picked)]))
        return picked


def simple_payoff_matrix(game: SimpleGame) -> PayoffMatrix:
    """Table of a solo slot-t attestor's payoff by attack outcome and action.

    Every cell comes from a conditioned simulation of the full game; in the
    strong simple game the payoffs are the expected ones of that game.
    """
    _require(game, SimpleGame, StrongSimpleGame)
    probe = game._roster[-1][-1][-1]  # the last solo player
    values = {}
    for row in ("succeed", "fail"):
        for col in ("C", "NC"):
            values[(row, col)] = game.conditioned_payoff(probe, col, row)
    return PayoffMatrix(("succeed", "fail"), ("C", "NC"), values)


def pool_payoff_simple(
    game: SimpleGame, pool_action: str, others_condition: str
) -> tuple[Fraction, Fraction]:
    """Pool payoff under the simple game, split into (slot t-1, slot t) parts.

    The pool's earlier committee loses its already-cast rewards when the
    victim block is reorged; the later committee earns only inside the
    adversary's block.
    """
    _require(game, SimpleGame)
    config = game.config
    if not config.pool:
        raise GameError("config carries no pool")
    if config.pool.members_per_slot >= config.boost:
        raise GameError("pool payoff table assumes fewer pool members than the boost")
    outcome = game.conditioned_run(config.pool.name, pool_action, others_condition)
    # a member votes in one slot and never proposes, so its whole payoff is that slot's
    members, settled = game.pools[config.pool.name], outcome.trace.payoffs
    return tuple(
        sum((settled.get(v, 0) for v in members if v in committee), Fraction(0))
        for committee in (game.prev_committee, game.committee)
    )


# ---------------------------------------------------------------------------
# strong simple game
# ---------------------------------------------------------------------------


class StrongSimpleGame(SimpleGame):
    """Simple game plus a supporting adversarial slot t'+1 two epochs out.

    A slot-t attestor sits on the unknown slot-t' committee with probability
    1/epoch_length; the adversary excludes the t' votes of anyone who was
    non-compliant at slot t.  Payoffs are expected values, computed exactly
    with the closed-form membership probability; sampled schedules are used
    only as a cross-check in the tests.
    """

    def _payoffs_from(self, outcome: GameOutcome) -> Mapping[PlayerId, Fraction]:
        """Settled payoffs plus r/epoch_length for each slot-t attestor that complied."""
        settled = super()._payoffs_from(outcome)
        bonus = Fraction(self.config.r, self.config.epoch_length)
        compliant = [v.voters for v in outcome.trace.tree.votes
                     if v.slot == self.SLOT_T and v.target == self.genesis_id]
        return _Payoffs(self, lambda p: settled[p] + bonus * sum(
            v in voters for v in self.pools.get(p, (p,)) for voters in compliant))


# ---------------------------------------------------------------------------
# simple attack without proposer boost
# ---------------------------------------------------------------------------


class NoBoostGame(_VictimSlotGame):
    """Withheld-block variant that needs no boost but two adversarial slots.

    Genesis B_0 sits at slot 0.  The adversary, leading slots 1 and 3,
    withholds its slot-1 block until the honest slot-2 proposal appears,
    releasing both to the slot-2 attestors at once; whichever side gathers
    more of their votes is extended by the adversary's slot-3 block.
    """

    SLOT_GENESIS, SLOT_WITHHELD, SLOT_T, SLOT_NEXT = 0, 1, 2, 3
    b_adv_id, b_t_id = 1, 2  # `_opening` makes the genesis block, then B_adv, then B_t
    CANDIDATES = {Role.ATTESTOR: {
        "C": VoteFor(FixedBlock(b_adv_id)), "NC": VoteFor(FixedBlock(b_t_id)), "abstain": Abstain(),
    }}
    PROFILES = {"compliant-all": ("C",), "vote-bt-all": ("NC",)}

    def __init__(self, config: GameConfig):
        if config.boost != 0:
            raise GameError("the no-boost game requires boost = 0")
        super().__init__(config)

    def _opening(self) -> Checkpoint:
        """The run up to the slot-2 vote: genesis, the withheld B_adv and the honest B_t."""
        opening = _open_chain(self.config, {0: (self.genesis_proposer, self.prev_committee)})
        sim, (genesis,) = opening.sim, opening.blocks
        sim.advance(propose_tick(self.SLOT_WITHHELD))
        # dual release together with the honest slot-2 proposal
        b_adv = sim.propose(self.SLOT_WITHHELD, genesis.id, self.adversary,
                            release=propose_tick(self.SLOT_T))
        sim.advance(propose_tick(self.SLOT_T))
        b_t = sim.propose(self.SLOT_T, sim.tip(), self.leader_t)
        return Checkpoint(sim.tick, sim, (genesis, b_adv, b_t))

    def run(self, profile: StrategyProfile, start: Optional[Checkpoint] = None) -> GameOutcome:
        cfg = self.config
        script = _Script(self, start, self._opening)
        sim, (genesis, b_adv, b_t) = script.sim, script.blocks
        script.at(vote_tick(self.SLOT_T))  # the one decision tick
        _attest(self, sim, profile, self.SLOT_T, self.committee)
        sim.advance(propose_tick(self.SLOT_NEXT))
        k_adv = sim.visible_votes_for(b_adv.id, slot=self.SLOT_T)
        k_t = sim.visible_votes_for(b_t.id, slot=self.SLOT_T)
        takes_fork = k_adv > k_t or (k_adv == k_t and cfg.tie_break is TieBreakPolicy.ADVERSARY_FAVORING)
        included = tuple(v for v in sim.tree.votes if v.slot == self.SLOT_T and v.target == b_adv.id)
        b_next = sim.propose(self.SLOT_NEXT, b_adv.id if takes_fork else b_t.id, self.adversary,
                             votes=included)
        labels = {"B_0": genesis.id, "B_adv": b_adv.id, "B_t": b_t.id, "B_next": b_next.id}
        trace, reorged = _close(sim, cfg, self.SLOT_NEXT, labels)
        success = trace.final_chain == [genesis.id, b_adv.id, b_next.id]
        return GameOutcome(success, reorged, trace, checkpoints=script.checkpoints)

    def payoffs(self, profile: StrategyProfile, start=None) -> Mapping[PlayerId, Fraction]:
        return self._payoffs_from(self.run(profile, start))


# ---------------------------------------------------------------------------
# extended game
# ---------------------------------------------------------------------------


class ExtendedGame(GameModel):
    """Reorg of p blocks by a chain of empty blocks from B_{-p}.

    Slots run -p..p+1; the original chain B_{-p}..B_0 (W votes per block) is
    seeded before the game.  Leaders and attestors of slots 1..p are the
    players; the adversary leads slot p+1 and commits to including only the
    compliant slot-p votes.

    Attestor payoffs come from the settled trace.  A leader's payoff is the
    block-level proposing reward R earned exactly when its block lies in the
    prefix of the adversary's block B_A: the subgame analysis presumes the
    attack carries in every branch (full-weight original chains would
    otherwise let a lone defecting leader strand the fork, a slack the
    analysis waves off since reorged blocks rarely hold maximal votes).  The
    per-included-vote accounting of the reward engine stays available on the
    trace's settled payoffs.
    """

    CANDIDATES = {
        Role.LEADER: {"C": Propose(CompliantTip(), empty=True), "NC": Propose(Tip(), empty=False)},
        Role.ATTESTOR: {"C": VoteFor(CompliantTip()), "NC": VoteFor(Tip()), "abstain": Abstain()},
    }
    PROFILES = {"compliant-all": ("C",), "extend-original-all": ("NC",)}

    def __init__(self, config: GameConfig):
        self.config = config
        W = config.committee_size
        p = config.horizon
        if config.honest_per_slot >= W:
            raise GameError("honest attestors cannot fill the whole committee")
        self.p = p
        # slots -p..0 vote before the game; the first honest_per_slot of each later one are honest
        self.committees, ids = _committees(range(-p, p + 1), W)
        kind = ValidatorKind.RATIONAL
        self.leaders = {slot: Validator(next(ids), kind) for slot in range(1, p + 1)}
        self.pre_leaders = {slot: Validator(next(ids), kind) for slot in range(-p, 1)}
        self.adversary = Validator(next(ids), ValidatorKind.ADVERSARIAL)

    def _decision_points(self) -> list[tuple[int, Role, range]]:
        h = self.config.honest_per_slot
        return [group for slot, leader in self.leaders.items() for group in (
            (slot, Role.LEADER, range(leader.index, leader.index + 1)),
            (slot, Role.ATTESTOR, self.committees[slot][h:]))]

    def _opening(self) -> Checkpoint:
        """The original chain B_{-p}..B_0, W votes per block, and a tracker with no tips yet."""
        cfg, p = self.config, self.p
        seeded = {s: (self.pre_leaders[s], self.committees[s]) for s in range(-p, 1)}
        opening = _open_chain(cfg, seeded, start=propose_tick(1))
        tracker = ComplianceTracker(p, cfg.committee_size, cfg.boost, cfg.tie_break)
        return Checkpoint(opening.tick, opening.sim, opening.blocks[:1], tracker)

    def run(self, profile: StrategyProfile, start: Optional[Checkpoint] = None) -> GameOutcome:
        cfg = self.config
        p, h = self.p, cfg.honest_per_slot
        script = _Script(self, start, self._opening)
        sim, (genesis,), tracker = script.sim, script.blocks, script.tracker
        leading = self.CANDIDATES[Role.LEADER]
        for slot in range(1, p + 1):
            if script.at(propose_tick(slot)):
                ct = tracker.tip_at_leader_time(sim.tree, slot)
                act = leading.get(profile.get((slot, Role.LEADER, self.leaders[slot].index)))
                if act is not None:
                    parent = sim.resolve(act.parent, ct)
                    included = [v for v in sim.tree.votes if v.slot == slot - 1]
                    if act.empty:  # the compliant leader's block: compliant votes for its parent
                        included = [
                            v for v in included
                            if v.target == parent and tracker.is_vote_compliant(v)
                        ]
                    sim.propose(slot, parent, self.leaders[slot], votes=included, empty=act.empty)
            if script.at(vote_tick(slot)):
                ct = tracker.tip_at_vote_time(sim.tree, slot)
                _attest(self, sim, None, slot, self.committees[slot][:h], ct)
                _attest(self, sim, profile, slot, self.committees[slot][h:], ct)
        sim.advance(propose_tick(p + 1))
        ct = tracker.tip_at_leader_time(sim.tree, p + 1)
        included = (v for v in sim.tree.votes if v.slot == p and tracker.is_vote_compliant(v))
        b_a = sim.propose(p + 1, ct, self.adversary, votes=included)
        trace, reorged = _close(sim, cfg, p + 1, {"B_-p": genesis.id, "B_A": b_a.id})
        marked = (tracker.compliant_block_of_slot(sim.tree, slot) for slot in range(1, p + 1))
        compliant_chain = [genesis.id] + [bid for bid in marked if bid is not None]
        expected = compliant_chain + [b_a.id]
        success = len(compliant_chain) == p + 1 and trace.final_chain == expected
        extras = {"tracker": tracker, "compliant_chain": compliant_chain}
        return GameOutcome(success, reorged, trace, extras, script.checkpoints)

    def payoffs(self, profile: StrategyProfile, start=None) -> Mapping[PlayerId, Fraction]:
        return self._payoffs_from(self.run(profile, start))

    def _payoffs_from(self, outcome: GameOutcome) -> Mapping[PlayerId, Fraction]:
        """Settled attestor payoffs; each leader earns R exactly when its block is on the fork."""
        settled = super()._payoffs_from(outcome)
        tree = outcome.trace.tree
        fork = tree.ancestors(outcome.trace.labels["B_A"])
        # a leader proposes only in its own slot, so any fork block it proposed is its slot's
        on_fork = {tree.blocks[bid].proposer.index for bid in fork}
        leaders = {leader.index for leader in self.leaders.values()}
        return _Payoffs(self, lambda p: settled[p] if p not in leaders
                        else self.config.R if p in on_fork else Fraction(0))


# ---------------------------------------------------------------------------
# selfish-mining-inspired game
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FollowRule:
    """Withhold, then vote for the adversary's staged fork block."""


class SelfishMiningGame(_ConditionedGame):
    """Withheld adversarial fork over slots 1..horizon, slot `horizon` adversarial.

    Committees of the slots directly preceding adversarial slots are the
    players: the game rule asks them to withhold and later vote for the
    previous adversarial block.  The whole fork surfaces right before the
    final slot's voting time, too late for non-adversarial leaders to build
    on it.

    Reported fork weights follow the committee-pledge accounting of the
    analysis (adversarial = compliant pledged votes + boost, rival = one
    committee of W per remaining slot of the window), which over-counts both
    true subtree weights by the same margin; the simulated fork choice
    decides the actual outcome.
    """

    CANDIDATES = {Role.ATTESTOR: {"C": FollowRule(), "NC": VoteFor(Tip()), "abstain": Abstain()}}
    PROFILES = {"compliant-all": ("C",), "honest-all": ("NC",)}

    def __init__(self, config: GameConfig):
        n_a, n_na = config.n_adversarial_slots, config.n_non_adversarial_slots
        if n_a < n_na and not config.allow_condition_violation:
            raise ConditionViolated(f"{n_a} adversarial < {n_na} non-adversarial slots")
        if n_na < 1:
            raise GameError("need at least one non-adversarial slot in the window")
        self.config = config
        W = config.committee_size
        self.horizon = n_a + n_na  # slots 1..horizon, horizon adversarial
        if n_a == 0:
            self.adv_slots: list[int] = []
        else:
            self.adv_slots = sorted({self.horizon} | set(range(2, n_a + 1)))
        self.player_slots = [s - 1 for s in self.adv_slots]  # all >= 1
        self.committees, ids = _committees(range(self.horizon), W)
        self.leaders = {slot: Validator(next(ids), ValidatorKind.RATIONAL)
                        for slot in range(1, self.horizon + 1) if slot not in self.adv_slots}
        self.adversary = Validator(next(ids), ValidatorKind.ADVERSARIAL)
        self.genesis_proposer = Validator(next(ids), ValidatorKind.RATIONAL)
        # the pool's stake in the window: its members of slots 1..horizon-1
        self.pools = _pools(config, [self.committees[slot] for slot in range(1, self.horizon)])

    def _decision_points(self) -> list[tuple[int, Role, range]]:
        return [(slot, Role.ATTESTOR, self.committees[slot]) for slot in self.player_slots]

    def run(self, profile: StrategyProfile, start: Optional[Checkpoint] = None) -> GameOutcome:
        cfg = self.config
        W = cfg.committee_size
        script = _Script(self, start, lambda: _open_chain(
            cfg, {0: (self.genesis_proposer, self.committees[0])}))
        sim, (genesis,) = script.sim, script.blocks
        for slot in range(1, self.horizon):
            if script.at(propose_tick(slot)):
                self._lead(sim, slot)
            if script.at(vote_tick(slot)):
                slot_profile = profile if slot in self.player_slots else None
                _attest(self, sim, slot_profile, slot, self.committees[slot])
        # private exchange runs over slot p, after the last recruited
        # committee's nominal voting tick
        sim.advance(vote_tick(self.horizon - 1))
        fork_ids, compliant_votes = self._stage_fork(sim, genesis, profile)
        sim.advance(propose_tick(self.horizon))
        self._lead(sim, self.horizon)
        trace, reorged = _close(sim, cfg, self.horizon, {"B_0": genesis.id})
        success = trace.final_chain == [genesis.id] + fork_ids
        extras = {
            "fork_weight_adversarial": compliant_votes + cfg.boost,
            "fork_weight_non_adversarial": self.horizon * W - compliant_votes,
            "compliant_votes": compliant_votes,
        }
        return GameOutcome(success, reorged, trace, extras, script.checkpoints)

    def _lead(self, sim: Simulation, slot: int) -> None:
        """Slot `slot`'s proposal, at its tick: a rational leader builds on the tip."""
        if slot in self.adv_slots:
            return
        included = (v for v in sim.tree.votes if v.slot == slot - 1)
        sim.propose(slot, sim.tip(), self.leaders[slot], votes=included)

    def _stage_fork(self, sim, genesis, profile) -> tuple[list[BlockId], int]:
        """Slot-p exchange: show each staged block, collect votes, pack the next.

        The attestors whose profile label names FollowRule withheld their
        votes; each now votes the staged block before its adversarial slot,
        one counted vote per maximal run of consecutive followers (`fold`).
        Everything surfaces together before 3(p+1)+1.  Returns the fork's
        block ids and the number of compliant votes it carries.
        """
        publish = propose_tick(self.horizon)
        table = self.CANDIDATES[Role.ATTESTOR]
        fork_ids: list[BlockId] = []
        parent = genesis.id
        compliant_votes = 0
        for s_i in self.adv_slots:
            voters = self.committees[s_i - 1]
            follows = fold((first, span, parent)
                           for first, span, label in profile.over(s_i - 1, Role.ATTESTOR, voters)
                           if isinstance(table.get(label), FollowRule))
            votes = [
                sim.emit_vote(s_i - 1, first, target, publish, span)
                for first, span, target in follows
            ]
            compliant_votes += sum(v.span for v in votes)
            parent = sim.propose(s_i, parent, self.adversary, votes=votes, release=publish).id
            fork_ids.append(parent)
        return fork_ids, compliant_votes

    def payoffs(self, profile: StrategyProfile, start=None) -> Mapping[PlayerId, Fraction]:
        return self._payoffs_from(self.run(profile, start))

    def _failing(self, free: list[tuple[int, Role, range]]) -> list[tuple[int, Role, range]]:
        """Every free attestor votes the tip: only the player's votes can back the fork."""
        return free


# ---------------------------------------------------------------------------
# DAG-votes security scenario game
# ---------------------------------------------------------------------------


class DagVotesGame(GameModel):
    """Multi-slot run under the DAG-votes mechanism with one adversarial leader.

    Slots 1..n_slots extend a genesis at slot 0; the leader of `adv_slot` is
    adversarial and (unless adversary_on_tip) proposes off-tip.  Every
    next-slot attestor signs the votes it saw on time, so votes skipped by a
    missing or hostile next block still become timely through the majority
    evidence rule.  The baseline scenario runs without proposer boost; a
    positive boost is admissible when the committee is large enough to
    outvote it (the security argument then needs W > 2 + boost solo
    attestors, with the evidence threshold left at W/2).

    At slot s's aggregation tick the slot s+1 committee signs the slot-s
    votes delivered on time (`_aggregate`).  Each proposal carries every
    delivered vote and evidence its chain lacks.
    Every vote and every evidence is sent once, so by induction a chain's
    inclusions are exactly a prefix of each delivered log: a child carries
    both logs past the counts its parent's chain includes (`_carried`).
    """

    CANDIDATES = {
        Role.LEADER: {"on-tip": Propose(Tip()), "off-tip": Propose(ParentOfTip())},
        Role.ATTESTOR: {
            "tip": VoteFor(Tip()), "parent-of-tip": VoteFor(ParentOfTip()), "abstain": Abstain(),
        },
    }
    PROFILES = {"prescribed": ("on-tip", "tip")}
    n_slots = 4
    adv_slot = 3

    def __init__(self, config: GameConfig):
        self.config = config
        self.committees, ids = _committees(range(self.n_slots + 1), config.committee_size)
        kind = {self.adv_slot: ValidatorKind.ADVERSARIAL}
        self.leaders = {
            slot: Validator(next(ids), kind.get(slot, ValidatorKind.RATIONAL))
            for slot in range(1, self.n_slots + 1)
        }
        self.genesis_proposer = Validator(next(ids), ValidatorKind.RATIONAL)

    def _decision_points(self) -> list[tuple[int, Role, range]]:
        """Rational leaders first, then the attestors of slots 1..n_slots-1."""
        leaders = [(slot, Role.LEADER, range(leader.index, leader.index + 1))
                   for slot, leader in self.leaders.items() if slot != self.adv_slot]
        return leaders + [(slot, Role.ATTESTOR, self.committees[slot]) for slot in range(1, self.n_slots)]

    def run(self, profile: StrategyProfile, start: Optional[Checkpoint] = None) -> GameOutcome:
        cfg = self.config
        script = _Script(self, start, lambda: _open_chain(
            cfg, {0: (self.genesis_proposer, self.committees[0])}))
        sim, leading = script.sim, self.CANDIDATES[Role.LEADER]
        votes, evidences = sim.tree.votes, sim.delivered_evidences
        for slot in range(self.n_slots + 1):
            if slot >= 1:
                if script.at(propose_tick(slot)):
                    leader = self.leaders[slot]
                    if slot == self.adv_slot:
                        parent = sim.tip() if cfg.adversary_on_tip else sim.resolve(ParentOfTip())
                    else:
                        act = leading.get(profile.get((slot, Role.LEADER, leader.index)))
                        parent = None if act is None else sim.resolve(act.parent)
                    if parent is not None:
                        n, k = _carried(sim.tree, parent)
                        sim.propose(slot, parent, leader, votes=votes[n:], evidences=evidences[k:])
                if script.at(vote_tick(slot)):
                    # the horizon committee is scripted to vote the tip
                    slot_profile = profile if slot < self.n_slots else None
                    _attest(self, sim, slot_profile, slot, self.committees[slot])
            if script.at(aggregate_tick(slot)) and slot < self.n_slots:
                _aggregate(sim, slot, self.committees[slot + 1])
        trace, _ = _close(sim, cfg, self.n_slots, {}, Mechanism.DAG_VOTES)
        chain = set(trace.final_chain)
        # the adversary alone leads its slot, and every block is delivered by now
        adv_block = next(iter(trace.tree.by_slot.get(self.adv_slot, ())), None)
        rational_blocks = [b.id for b in trace.tree.blocks.values()
                           if b.proposer.kind is not ValidatorKind.ADVERSARIAL]
        extras = {
            "adversary_block": adv_block,
            "adversary_votes": sim.visible_votes_for(adv_block) if adv_block is not None else 0,
            "adversary_reorged": adv_block is not None and adv_block not in chain,
            "rational_blocks_reorged": [b for b in rational_blocks if b not in chain],
        }
        success = not extras["adversary_reorged"]
        return GameOutcome(success, [], trace, extras, script.checkpoints)

    def payoffs(self, profile: StrategyProfile, start=None) -> Mapping[PlayerId, Fraction]:
        return self._payoffs_from(self.run(profile, start))


def _carried(tree, bid: BlockId) -> tuple[int, int]:
    """How many votes and evidences the chain ending at `bid` includes."""
    votes = evidences = 0
    cur: Optional[BlockId] = bid
    while cur is not None:
        block = tree.blocks[cur]
        votes += len(block.included_votes)
        evidences += len(block.included_evidences)
        cur = block.parent
    return votes, evidences

