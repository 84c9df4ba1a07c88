"""The per-point profile and the per-player symmetry key: the reference for run-form profiles.

These are `StrategyProfile`, `GameModel.profile` and
`GameModel.symmetry_classes` as they stood before a profile held its labels
as runs: a profile is a dict with one entry per decision point, a named
profile lists every point, and a player's class key is read off each of its
decision points.  `reference_nash` and `reference_spne` are the unilateral
Nash pass and the SPNE check over that key.  `DictProfile.over` reads one
label per voter, so a game script plays a `DictProfile` the way it played a
per-point profile, one label read per voter and one piece per voter, which
`chain.fold` joins into the same counted records.
"""

from __future__ import annotations

from fractions import Fraction

from reorglab.engine import Role
from reorglab.equilibrium import (
    Deviation,
    EquilibriumReport,
    SubgameEntry,
    Verdict,
    _deviate,
    _estimate,
)

from expansion import owner


class DictProfile:
    """One label per decision point, held in a dict keyed by the point."""

    def __init__(self, actions: dict):
        self.actions = dict(actions)

    def get(self, dp):
        return self.actions.get(dp)

    def over(self, slot: int, role: Role, voters: range):
        for v in voters:
            yield v, 1, self.actions.get((slot, role, v))

    def with_actions(self, assignment: dict) -> DictProfile:
        return DictProfile({**self.actions, **assignment})


def named_profile(game, name: str) -> DictProfile:
    """`GameModel.profile`: each decision point takes its role's pick from `PROFILES[name]`."""
    picks = game.PROFILES[name]
    pick = {role: next(x for x in picks if x in table)
            for role, table in game.CANDIDATES.items() if not table.keys().isdisjoint(picks)}
    return DictProfile({dp: pick[dp.role] for dp in game.points})


def seats(game) -> dict:
    """Each player's decision points in `points` order: solo players first, then every pool."""
    found: dict = {}
    for dp in game.points:
        found.setdefault(owner(game, dp), []).append(dp)
    solo = {p: tuple(dps) for p, dps in found.items() if p not in game.pools}
    return solo | {name: tuple(found.get(name, ())) for name in game.pools}


def reference_classes(game, profile) -> dict:
    """Each player's class key: the (slot, role, label) of each of its points, or the player itself.

    A pool, and a solo player whose label somewhere is missing or no
    candidate, is its own class.
    """
    classes = {}
    for player, dps in seats(game).items():
        key = tuple((dp.slot, dp.role, profile.get(dp)) for dp in dps)
        shared = player not in game.pools and all(
            label in game.candidates(dp) for dp, (_, _, label) in zip(dps, key))
        classes[player] = key if shared else player
    return classes


def reference_nash(game, profile, max_joint_actions: int = 10**6) -> EquilibriumReport:
    """The unilateral pass of `verify_nash`, over the per-player key."""
    classes = reference_classes(game, profile)
    members: dict = {}
    for player, cls in classes.items():
        members.setdefault(cls, []).append(player)
    moves = {cls: game.assignments(group[0]) for cls, group in members.items()}
    checked = sum(len(group) * len(moves[cls]) for cls, group in members.items())
    _estimate(checked, max_joint_actions)
    played = game.play(profile)
    base = played[0]
    gains: dict = {}
    for cls, group in members.items():
        rep = group[0]
        for label, assignment in moves[cls]:
            value = _deviate(game, profile, played, assignment)[0][rep]
            if value > base[rep]:
                gains.setdefault(cls, []).append((label, value))
    if gains:
        deviations = [Deviation((p,), label, base[p], value)
                      for p, cls in classes.items() if cls in gains for label, value in gains[cls]]
        return EquilibriumReport(Verdict.NOT_EQUILIBRIUM, deviations, checked=checked)
    return EquilibriumReport(Verdict.NASH, checked=checked)


def reference_spne(game, profile) -> EquilibriumReport:
    """`verify_spne`, over the per-player key and the per-player seats."""
    dps = sorted(game.points, key=lambda d: (d.tick, d.actor))
    played = game.play(profile)
    base = played[0]
    classes = reference_classes(game, profile)
    place = {dp: (player, classes[player], i)
             for player, owned in seats(game).items() for i, dp in enumerate(owned)}
    memo: dict[tuple, tuple[Fraction, bool]] = {}
    deviations, table, checked = [], [], 0
    for dp in reversed(dps):
        player, cls, i = place[dp]
        payoffs = {}
        for label in game.candidates(dp):
            key = (cls, i, label)
            if key not in memo:
                deviated, deviates = _deviate(game, profile, played, {dp: label})
                memo[key] = deviated[player], deviates
            value, deviates = memo[key]
            payoffs[label] = value
            if not deviates:
                continue
            checked += 1
            if value > base[player]:
                deviations.append(Deviation((player,), f"{dp.slot}/{dp.role.value}:{label}",
                                            base[player], value))
        table.append(SubgameEntry(dp.slot, dp.role, range(dp.actor, dp.actor + 1), payoffs))
    table.reverse()
    verdict = Verdict.NOT_EQUILIBRIUM if deviations else Verdict.SPNE
    return EquilibriumReport(verdict, deviations, table, checked)
