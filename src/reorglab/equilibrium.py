"""Best-response search and Nash/SPNE verification by exhaustive deviation.

The lab verifies *given* profiles, mirroring proof-by-exhibit: it never
solves for equilibria.  Each candidate deviation is evaluated by a complete
simulation of the game with everyone else held fixed.  Each check counts
its whole plan and guards the count once, before its base run, then
reduces over one deviation loop, `_row`: labelled assignments played
through `_deviate`, with every player's payoffs.  The players of one
symmetry class (`GameModel.symmetry_classes`) are interchangeable, so the
unilateral checks run one `_row` per class and give its payoffs to every
other member, each of which still counts them as checked; the swap of two
members also gives them equal payoffs under the profile itself.  A reported
deviation always reproduces its claimed gain when replayed.  A deviation
leaves every tick before its earliest decision point as the profile's own
run played it, so it resumes from that run's checkpoint at that tick.  A
candidate the profile already plays is not simulated again: it reads the
profile's own payoffs, though the Nash checks still count it as checked.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .engine import DecisionPoint, Role, StrategyProfile
from .games import (
    AssumptionViolated,
    Checkpoint,
    DagVotesGame,
    GameConfig,
    GameError,
    GameModel,
    GameOutcome,
    PlayerId,
    SimpleGame,
    _RECORD,
)


class ExplosionGuard(Exception):
    """The deviation search would exceed the configured simulation budget."""


class Verdict(enum.Enum):
    NASH = "nash"
    STRONG_NASH = "strong-nash"
    SPNE = "spne"
    NOT_EQUILIBRIUM = "not-equilibrium"


class Dominance(enum.Enum):
    STRICTLY_DOMINANT = "strictly-dominant"
    WEAKLY_DOMINANT = "weakly-dominant"
    NEITHER = "neither"


@dataclass
class Deviation:
    """Each of `players`, a run of one class's members in report order, gains alike by `label`."""

    players: Sequence[PlayerId]
    label: str
    baseline: Fraction
    deviated: Fraction

    @property
    def gain(self) -> Fraction:
        return self.deviated - self.baseline


@dataclass
class SubgameEntry:
    """The SPNE check's payoff table, by action label, of each actor of `actors` at its (slot, role) seat."""

    slot: int
    role: Role
    actors: range
    payoffs: dict[str, Fraction]


@dataclass
class EquilibriumReport:
    """A verdict, with one entry per run of a class's members, as `symmetry_classes` yields them."""

    verdict: Verdict
    deviations: list[Deviation] = field(default_factory=list)
    subgame_table: list[SubgameEntry] = field(default_factory=list)
    checked: int = 0


def _estimate(count: int, bound: int) -> None:
    if count > bound:
        raise ExplosionGuard(f"{count} deviation simulations exceed bound {bound}")


def _sign(base: Fraction, deviated: Fraction) -> int:
    """+1, 0 or -1 as `deviated` pays more than, as much as or less than `base`: every check's one payoff test."""
    return (deviated > base) - (deviated < base)


Played = tuple[Mapping[PlayerId, Fraction], dict[int, Checkpoint]]  # as `GameModel.play` returns


def _deviate(
    game: GameModel, profile: StrategyProfile, played: Played, assignment: dict
) -> tuple[Mapping[PlayerId, Fraction], bool]:
    """Payoffs once `assignment` is played against `profile`, and whether that deviates.

    `played` is the profile's own payoffs and checkpoints.  An assignment
    the profile already plays is not simulated again: its payoffs are the
    profile's.  Any other resumes from the profile's checkpoint at its
    earliest decision point, when the run recorded one: a pool or a
    coalition moves at several ticks, and the profile holds before the
    earliest of them only.
    """
    base, checkpoints = played
    if all(profile.get(dp) == label for dp, label in assignment.items()):
        return base, False
    start = checkpoints.get(min(dp.tick for dp in assignment))
    return game.payoffs(profile.with_actions(assignment), start), True


def _row(
    game: GameModel, profile: StrategyProfile, played: Played, candidates: Iterable[tuple[object, dict]]
) -> Iterator[tuple[object, Mapping[PlayerId, Fraction], bool]]:
    """`(label, payoffs, deviates)` per labelled assignment, played through `_deviate`."""
    for label, assignment in candidates:
        yield (label, *_deviate(game, profile, played, assignment))


def best_response(
    game: GameModel,
    profile: StrategyProfile,
    player: PlayerId,
    candidates: Optional[Sequence[tuple[str, dict]]] = None,
) -> set[str]:
    """Labels of the candidate assignments whose payoff to `player` no other candidate's beats."""
    candidates = candidates if candidates is not None else game.assignments(player)
    row = [(label, payoffs[player]) for label, payoffs, _ in
           _row(game, profile, game.play(profile), candidates)]
    return {label for label, value in row if not any(_sign(value, other) > 0 for _, other in row)}


def _classes(classes: Sequence[tuple[object, Sequence[PlayerId]]]) -> dict[object, tuple[PlayerId, int]]:
    """Each symmetry class's first member and size, from its runs of players."""
    members: dict[object, tuple[PlayerId, int]] = {}
    for cls, run in classes:
        first, size = members.get(cls, (run[0], 0))
        members[cls] = first, size + len(run)
    return members


def _plan(moves: Sequence[tuple[int, int]], bound: int, cap: int) -> list[int]:
    """e_1, e_2, ...: the joint assignments the coalitions of k <= `bound` players play.

    `moves` holds each class's (size, members' move count m); e_k is the
    degree-k coefficient of Π (1 + m·x)^size.  Newton's identities give it
    from the power sums Σ size·m^i in O(classes) per degree, and the count
    stops once it exceeds `cap` or no coalition of the next size plays.
    """
    e, p = [1], []
    for k in range(1, bound + 1):
        p.append(sum(size * m**k for size, m in moves))
        e.append(sum((-1) ** (i - 1) * p[i - 1] * e[k - i] for i in range(1, k + 1)) // k)
        if not e[k] or sum(e) - 1 > cap:
            break
    return e[1:]


def verify_nash(
    game: GameModel,
    profile: StrategyProfile,
    coalition_bound: int = 1,
    max_joint_actions: int = 10**6,
) -> EquilibriumReport:
    """Exhaustive unilateral (and optionally coalition) deviation search.

    Nash: no single player can strictly improve.  The unilateral pass runs
    one `_row` per symmetry class, for its first member (`_classes`), and
    compares once: swapping two members gives them equal base and deviation
    payoffs, so that decides for every member, which counts each candidate
    as checked and reports each gain once per run of the class.  With
    coalition_bound > 1 the verdict upgrades to strong Nash when no
    coalition up to that size can strictly improve every member's payoff:
    one `_row` plays the joint assignments, and the first that can ends it.
    The whole plan is counted from the classes (`_plan`) and guarded before
    any run and before any per-player list is built.
    """
    classes = game.symmetry_classes(profile)
    if not classes:
        raise GameError("the game has no decision points, so a Nash check would check nothing")
    members = _classes(classes)

    def moves(cls, rep) -> int:
        """How many candidates each member of the class plays, counted before any is built."""
        if rep in game.pools:
            return len(game.POOL_LABELS)
        if isinstance(cls, tuple):
            return sum(len(game.CANDIDATES[role]) for _, role, _ in cls)
        return len(game.assignments(rep))

    plan = _plan([(size, moves(cls, rep)) for cls, (rep, size) in members.items()],
                 max(coalition_bound, 1), max_joint_actions)
    _estimate(sum(plan), max_joint_actions)
    played = game.play(profile)
    base = played[0]

    gains: dict[object, list[tuple[str, Fraction, Fraction]]] = {}  # class -> gaining (label, base, payoff)
    for cls, (rep, _) in members.items():
        row = [(label, base[rep], payoffs[rep]) for label, payoffs, _ in
               _row(game, profile, played, game.assignments(rep)) if _sign(base[rep], payoffs[rep]) > 0]
        if row:
            gains[cls] = row
    if gains:
        deviations = [Deviation(run, label, baseline, value) for cls, run in classes
                      if cls in gains for label, baseline, value in gains[cls]]
        return EquilibriumReport(Verdict.NOT_EQUILIBRIUM, deviations, checked=plan[0])
    if coalition_bound <= 1:
        return EquilibriumReport(Verdict.NASH, checked=plan[0])

    players = game.players()
    assignments = {p: game.assignments(p) for p in players}
    joint = (((coalition, combo), {dp: act for _, a in combo for dp, act in a.items()})
             for size in range(2, min(coalition_bound, len(players)) + 1)
             for coalition in itertools.combinations(players, size)
             for combo in itertools.product(*(assignments[p] for p in coalition)))
    for checked, ((coalition, combo), payoffs, _) in enumerate(
            _row(game, profile, played, joint), plan[0] + 1):
        if all(_sign(base[p], payoffs[p]) > 0 for p in coalition):
            deviations = [Deviation((p,), f"coalition:{label}", base[p], payoffs[p])
                          for p, (label, _) in zip(coalition, combo)]
            return EquilibriumReport(Verdict.NOT_EQUILIBRIUM, deviations, checked=checked)
    return EquilibriumReport(Verdict.STRONG_NASH, checked=sum(plan))


def verify_spne(
    game: GameModel,
    profile: StrategyProfile,
    max_joint_actions: int = 10**6,
    played: Optional[Played] = None,
) -> EquilibriumReport:
    """One-shot deviation check at each decision point of the profile's own history.

    For each decision point, taken from the last to the first, every
    alternative action is played once with the profile fixed everywhere
    else (once per symmetry class: interchangeable owners share the run);
    the owner's prescribed action must be a best response there.  The
    histories that an earlier deviation reaches are not examined, so this
    is not backward induction over every subgame.  The emitted subgame
    table records each owner's payoff per action label.  The check walks
    places: a run of a solo class sits at its class's one (slot, role), and
    a pool, or a solo player of its own class, has one place per seat.  A
    place's table, deviating count and gaining labels come from one `_row`
    per subgame: a solo player holds one decision point, so its class keys
    the subgame, while each point of a pool is its own subgame.  `played`
    is the profile's own payoffs and checkpoints (`GameModel.play`), when
    the caller has already played it.
    """
    count = sum(len(actors) * len(game.CANDIDATES[role]) for _, role, actors in game.groups)
    if not count:
        raise GameError("the game has no decision points, so an SPNE check would check nothing")
    _estimate(count, max_joint_actions)
    if played is None:
        played = game.play(profile)
    base = played[0]

    # (the seat that plays the row, the place's actors, its players from the last, subgame key)
    places: list[tuple[DecisionPoint, range, Sequence[PlayerId], object]] = []
    for cls, run in game.symmetry_classes(profile):
        if isinstance(cls, tuple):
            (slot, role, _), = cls
            places.append((DecisionPoint(slot, role, run[-1]), run, run[::-1], cls))
        else:
            places.extend((dp, range(dp.actor, dp.actor + 1), (cls,), dp if cls in game.pools else cls)
                          for dp in game.seats(cls))
    places.sort(key=lambda place: (place[0].tick, place[1][0]))
    # subgame key -> its payoff table, deviating count and gaining (action, payoff)s
    subgames: dict[object, tuple[dict[str, Fraction], int, list[tuple[str, Fraction]]]] = {}

    deviations: list[Deviation] = []
    table: list[SubgameEntry] = []
    checked = 0
    for dp, actors, players, key in reversed(places):
        owner = players[0]  # the seat's player
        if key not in subgames:
            row = [(label, payoffs[owner], deviates) for label, payoffs, deviates in
                   _row(game, profile, played, [(label, {dp: label}) for label in game.candidates(dp)])]
            subgames[key] = ({label: value for label, value, _ in row}, sum(d for *_, d in row),
                             [(f"{dp.slot}/{dp.role.value}:{label}", value)
                              for label, value, _ in row if _sign(base[owner], value) > 0])
        payoffs, deviating, gaining = subgames[key]
        checked += deviating * len(actors)
        deviations.extend(Deviation(players, action, base[owner], value) for action, value in gaining)
        table.append(SubgameEntry(dp.slot, dp.role, actors, dict(payoffs)))
    table.reverse()
    verdict = Verdict.NOT_EQUILIBRIUM if deviations else Verdict.SPNE
    return EquilibriumReport(verdict, deviations, table, checked)


def dominance_check(
    game,
    player: PlayerId,
    action_label: str,
    candidate_labels: Sequence[str],
    conditions: Sequence[str] = ("succeed", "fail"),
) -> Dominance:
    """Compare an action against alternatives across a conditioning partition.

    The game must expose conditioned_payoff(player, label, condition); the
    partition stands in for full opponent enumeration, the way the payoff
    tables condition on the attack outcome.  Strictly dominant: better in
    every condition against every alternative.  Weakly dominant: never
    worse, strictly better somewhere against each alternative.  An empty
    partition compares nothing, so it is rejected rather than certified.
    """
    if not conditions:
        raise GameError("a dominance check needs at least one condition")
    others = list(dict.fromkeys(c for c in candidate_labels if c != action_label))
    mine: list[Fraction] = []  # the action's payoff per condition, played beside the first alternative
    wins: list[list[int]] = []  # per alternative and condition: the action's `_sign` against it
    for alt in others:
        wins.append([])
        for i, cond in enumerate(conditions):
            if i == len(mine):
                mine.append(game.conditioned_payoff(player, action_label, cond))
            if (sign := _sign(game.conditioned_payoff(player, alt, cond), mine[i])) < 0:
                return Dominance.NEITHER
            wins[-1].append(sign)
    if others and all(map(all, wins)):
        return Dominance.STRICTLY_DOMINANT
    if others and all(map(any, wins)):
        return Dominance.WEAKLY_DOMINANT
    return Dominance.NEITHER


# ---------------------------------------------------------------------------
# DAG-votes security scenario
# ---------------------------------------------------------------------------


@dataclass
class DagScenarioResult:
    report: EquilibriumReport
    outcome: GameOutcome
    ethereum_report: Optional[EquilibriumReport] = None


def dag_security_scenario(
    config: GameConfig,
    check_ethereum_flip: bool = False,
    max_joint_actions: int = 10**6,
) -> DagScenarioResult:
    """Verify the honest profile under DAG votes against one adversarial leader.

    The prescribed profile (vote the tip, create evidences on time, propose
    on the tip) must be an SPNE; the adversarial off-tip block must gather
    zero votes and be reorged, and no rational leader's block may be reorged
    anywhere in the run.

    With check_ethereum_flip, the same committee is re-evaluated under the
    next-slot-inclusion mechanism against a committed simple-game adversary
    (boost restored to 40% of W): facing compliant co-attestors, the honest
    vote-the-tip action strictly loses the attestation reward, so the lab
    reports NotEquilibrium with the compliant deviation.
    """
    # all W attestors are solo here; the committee must clear the strict
    # majority 1 + (W + boost)/2 so the tip always outvotes a boosted rival
    if 2 * config.committee_size <= 2 + config.committee_size + config.boost:
        raise AssumptionViolated(
            "need more than 1 + (W + boost)/2 solo attestors per slot"
        )
    game = DagVotesGame(config)
    profile = game.profile("prescribed")
    outcome = game.run(profile, _RECORD)  # the SPNE check's base run
    if not config.adversary_on_tip:
        if outcome.extras["adversary_votes"] != 0:
            raise AssumptionViolated("off-tip adversarial block gathered votes")
        if not outcome.extras["adversary_reorged"]:
            raise AssumptionViolated("off-tip adversarial block entered the chain")
    if outcome.extras["rational_blocks_reorged"]:
        raise AssumptionViolated(
            f"rational blocks reorged: {outcome.extras['rational_blocks_reorged']}"
        )
    played = (game._payoffs_from(outcome), outcome.checkpoints)
    report = verify_spne(game, profile, max_joint_actions, played)

    ethereum_report = None
    if check_ethereum_flip:
        boost = max(1, round(0.4 * config.committee_size))
        eth_game = SimpleGame(replace(config, boost=boost))
        # the commitment is credible, so the other attestors best-respond by
        # complying; the honest hold-out is the profile under test
        probe = eth_game._roster[-1][-1][-1]  # the last solo player
        eth_profile = eth_game.profile("compliant-all").with_actions(
            {DecisionPoint(eth_game.SLOT_T, Role.ATTESTOR, probe): "NC"})
        ethereum_report = verify_nash(eth_game, eth_profile, max_joint_actions=max_joint_actions)
    return DagScenarioResult(report, outcome, ethereum_report)
