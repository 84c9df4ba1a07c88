"""Symmetry classes: interchangeable players share one deviation run.

`GameModel.symmetry_classes` groups the solo players that sit at the same
slot and role and play the same candidate there.  Swapping two of them (the
permutation sigma of their validator indices) maps the roster, the pools,
the committees and the profile onto themselves, so sigma must carry each
deviation's payoffs onto the matching deviation's.  That is what lets
`verify_nash` and `verify_spne` play one member's candidates for its whole
class; their reports must equal a plain loop that plays every candidate
from the opening.  Both are checked over random configurations and labelled
profiles of every engine game, pools and both tie-break policies included.
"""

from dataclasses import replace
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reorglab.engine import DecisionPoint, Role
from reorglab.equilibrium import (
    Deviation,
    EquilibriumReport,
    SubgameEntry,
    Verdict,
    _apply,
    verify_nash,
    verify_spne,
)
from reorglab.games import GameConfig, PoolSpec, SimpleGame
from reorglab.tendermint import WithholdingGame

from engine_games import games


def clustered_profile(game, rnd):
    """A labelled profile drawn from the first few labels, so that players share classes."""
    k = rnd.randint(1, 3)
    return game.labelled(lambda dp: rnd.choice(sorted(game.candidates(dp))[:k]))


def shared_classes(game, profile) -> list[list]:
    """The classes of two or more players, in roster order."""
    members: dict[object, list] = {}
    for player, cls in game.symmetry_classes(profile).items():
        members.setdefault(cls, []).append(player)
    return [group for group in members.values() if len(group) > 1]


@given(game=games(), rnd=st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_swapping_two_class_members_carries_payoffs_over(game, rnd):
    profile = clustered_profile(game, rnd)
    groups = shared_classes(game, profile)
    assume(groups)
    p, q = rnd.sample(rnd.choice(groups), 2)

    def sigma(v):
        return q if v == p else p if v == q else v

    def mapped(payoffs: dict) -> dict:
        return {sigma(v): amount for v, amount in payoffs.items()}

    # every candidate of p, the one it already plays included, against the
    # same candidate of q at the matching decision point
    for label, assignment in game.assignments(p):
        (dp,) = assignment
        image = replace(dp, actor=q)
        ran = game.run(_apply(profile, assignment))
        swapped = game.run(_apply(profile, {image: game.action(image, label)}))
        assert mapped(ran.trace.payoffs) == swapped.trace.payoffs, (p, q, label)
        assert mapped(game._payoffs_from(ran)) == game._payoffs_from(swapped), (p, q, label)
        assert (ran.success, ran.final_chain) == (swapped.success, swapped.final_chain)


def full_nash(game, profile) -> EquilibriumReport:
    """The unilateral pass of `verify_nash`, every candidate played from the opening."""
    base = game.payoffs(profile)
    deviations, checked = [], 0
    for player in game.players():
        for label, assignment in game.assignments(player):
            checked += 1
            value = game.payoffs(_apply(profile, assignment))[player]
            if value > base[player]:
                deviations.append(Deviation(player, label, base[player], value))
    verdict = Verdict.NOT_EQUILIBRIUM if deviations else Verdict.NASH
    return EquilibriumReport(verdict, deviations, checked=checked)


def full_spne(game, profile) -> EquilibriumReport:
    """`verify_spne`, every candidate played from the opening."""
    base = game.payoffs(profile)
    deviations, table, checked = [], [], 0
    for dp in reversed(sorted(game.decision_points(), key=lambda d: (d.tick, d.actor))):
        owner = game.owner(dp)
        payoffs = {}
        for label, action in game.candidates(dp).items():
            value = payoffs[label] = game.payoffs(_apply(profile, {dp: action}))[owner]
            if profile.get(dp) == action:
                continue
            checked += 1
            if value > base[owner]:
                deviations.append(Deviation(owner, f"{dp.slot}/{dp.role.value}:{label}",
                                            base[owner], value))
        table.append(SubgameEntry(dp, payoffs))
    table.reverse()
    verdict = Verdict.NOT_EQUILIBRIUM if deviations else Verdict.SPNE
    return EquilibriumReport(verdict, deviations, table, checked)


def fields(report: EquilibriumReport) -> tuple:
    return (
        report.verdict,
        [(d.player, d.label, d.baseline, d.deviated) for d in report.deviations],
        [(e.dp, list(e.payoffs.items())) for e in report.subgame_table],
        report.checked,
    )


@given(game=games(), rnd=st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_class_quotient_equals_full_enumeration(game, rnd):
    assume(game.decision_points())
    profile = clustered_profile(game, rnd)
    assert fields(verify_nash(game, profile)) == fields(full_nash(game, profile))
    assert fields(verify_spne(game, profile)) == fields(full_spne(game, profile))


class TestClassKey:
    def test_compliant_committee_is_one_class(self):
        game = SimpleGame(GameConfig(4, boost=2))
        classes = game.symmetry_classes(game.profile("compliant-all"))
        assert set(classes.values()) == {((SimpleGame.SLOT_T, Role.ATTESTOR, "C"),)}

    def test_label_splits_and_pool_stands_alone(self):
        game = SimpleGame(GameConfig(5, boost=3, pool=PoolSpec(2)))
        hold_out = game.players()[0]
        profile = game.labelled(lambda dp: "NC" if dp.actor == hold_out else "C")
        classes = game.symmetry_classes(profile)
        assert classes["P"] == "P"
        assert classes[hold_out] == ((SimpleGame.SLOT_T, Role.ATTESTOR, "NC"),)
        assert len({classes[p] for p in game.players()[1:-1]}) == 1

    def test_stray_or_missing_action_stands_alone(self):
        game = SimpleGame(GameConfig(4, boost=2))
        stray = DecisionPoint(SimpleGame.SLOT_T, Role.ATTESTOR, game.players()[0])
        profile = game.profile("compliant-all")
        profile.actions[stray] = "not a candidate"
        assert game.symmetry_classes(profile)[stray.actor] == stray.actor
        del profile.actions[stray]
        assert game.symmetry_classes(profile)[stray.actor] == stray.actor

    def test_tendermint_players_stand_alone(self):
        game = WithholdingGame(f=2, m=1, r_unit=Fraction(1))
        classes = game.symmetry_classes(game.profile("script"))
        assert classes == {p: p for p in game.players()}
