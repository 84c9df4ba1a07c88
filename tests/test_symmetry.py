"""Symmetry classes: interchangeable players share one deviation run.

`GameModel.symmetry_classes` groups the solo players that sit at the same
slot and role and play the same candidate there.  Swapping two of them (the
permutation sigma of their validator indices) maps the roster, the pools,
the committees and the profile onto themselves, so sigma must carry each
deviation's payoffs onto the matching deviation's.  That is what lets
`verify_nash` and `verify_spne` play one member's candidates for its whole
class; their reports must equal a plain loop that plays every candidate
from the opening.  Both are checked over random configurations and labelled
profiles of every engine game, pools and both tie-break policies included,
and of both Tendermint games, whose rational validators take the same key.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reorglab import cli
from reorglab.engine import DecisionPoint, Role, StrategyProfile
from reorglab.equilibrium import (
    Deviation,
    EquilibriumReport,
    SubgameEntry,
    Verdict,
    best_response,
    verify_nash,
    verify_spne,
)
from reorglab.games import AssumptionViolated, GameConfig, PoolSpec, SimpleGame
from reorglab.tendermint import AnchorGame, WithholdingGame

from engine_games import classes_of, games
from expansion import owner, report_members


def clustered_profile(game, rnd):
    """A labelled profile drawn from the first few labels, so that players share classes."""
    k = rnd.randint(1, 3)
    return game.labelled(lambda dp: rnd.choice(sorted(game.candidates(dp))[:k]))


def shared_classes(game, profile) -> list[list]:
    """The classes of two or more players, in roster order."""
    members: dict[object, list] = {}
    for player, cls in classes_of(game, profile).items():
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
        image = dp._replace(actor=q)
        ran = game.run(profile.with_actions(assignment))
        swapped = game.run(profile.with_actions({image: label}))
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
            value = game.payoffs(profile.with_actions(assignment))[player]
            if value > base[player]:
                deviations.append(Deviation((player,), label, base[player], value))
    verdict = Verdict.NOT_EQUILIBRIUM if deviations else Verdict.NASH
    return EquilibriumReport(verdict, deviations, checked=checked)


def full_spne(game, profile) -> EquilibriumReport:
    """`verify_spne`, every candidate played from the opening."""
    base = game.payoffs(profile)
    deviations, table, checked = [], [], 0
    for dp in reversed(sorted(game.points, key=lambda d: (d.tick, d.actor))):
        player = owner(game, dp)
        payoffs = {}
        for label in game.candidates(dp):
            value = payoffs[label] = game.payoffs(profile.with_actions({dp: label}))[player]
            if profile.get(dp) == label:
                continue
            checked += 1
            if value > base[player]:
                deviations.append(Deviation((player,), f"{dp.slot}/{dp.role.value}:{label}",
                                            base[player], value))
        table.append(SubgameEntry(dp.slot, dp.role, range(dp.actor, dp.actor + 1), payoffs))
    table.reverse()
    verdict = Verdict.NOT_EQUILIBRIUM if deviations else Verdict.SPNE
    return EquilibriumReport(verdict, deviations, table, checked)


def fields(report: EquilibriumReport) -> tuple:
    """The report member by member, each subgame's payoffs in table order."""
    deviations, subgames = report_members(report)
    table = [(dp, list(payoffs.items())) for dp, payoffs in subgames]
    return report.verdict, deviations, table, report.checked


@given(game=games(), rnd=st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_class_quotient_equals_full_enumeration(game, rnd):
    assume(game.points)
    profile = clustered_profile(game, rnd)
    assert fields(verify_nash(game, profile)) == fields(full_nash(game, profile))
    assert fields(verify_spne(game, profile)) == fields(full_spne(game, profile))


@pytest.mark.parametrize("W", [64, 512])
@pytest.mark.parametrize("abstainers", [0, 2])
def test_gaining_classes_report_every_member_in_roster_order(W, abstainers):
    # three NC hold-outs gain by complying, one class of several members;
    # abstaining hold-outs between them form a second gaining class, so the
    # report interleaves the two classes player by player
    game = SimpleGame(GameConfig(W, boost=W * 2 // 5))
    players = game.players()
    label = dict.fromkeys((players[1], players[W // 2], players[-1]), "NC")
    label |= dict.fromkeys((players[2], players[W // 2 + 1])[:abstainers], "abstain")
    profile = game.labelled(lambda dp: label.get(dp.actor, "C"))
    report = verify_nash(game, profile)
    assert report.verdict is Verdict.NOT_EQUILIBRIUM
    assert [(p, action) for p, action, *_ in report_members(report)[0]] == [
        (p, "C") for p in players if p in label]
    assert fields(report) == fields(full_nash(game, profile))


class TestClassKey:
    def test_compliant_committee_is_one_class(self):
        game = SimpleGame(GameConfig(4, boost=2))
        classes = classes_of(game, game.profile("compliant-all"))
        assert set(classes.values()) == {((SimpleGame.SLOT_T, Role.ATTESTOR, "C"),)}

    def test_label_splits_and_pool_stands_alone(self):
        game = SimpleGame(GameConfig(5, boost=3, pool=PoolSpec(2)))
        hold_out = game.players()[0]
        profile = game.labelled(lambda dp: "NC" if dp.actor == hold_out else "C")
        classes = classes_of(game, profile)
        assert classes["P"] == "P"
        assert classes[hold_out] == ((SimpleGame.SLOT_T, Role.ATTESTOR, "NC"),)
        assert len({classes[p] for p in game.players()[1:-1]}) == 1

    def test_stray_or_missing_action_stands_alone(self):
        game = SimpleGame(GameConfig(4, boost=2))
        stray = DecisionPoint(SimpleGame.SLOT_T, Role.ATTESTOR, game.players()[0])
        profile = game.profile("compliant-all").with_actions({stray: "not a candidate"})
        assert classes_of(game, profile)[stray.actor] == stray.actor
        profile = StrategyProfile({dp: "C" for dp in game.points if dp != stray})
        assert classes_of(game, profile)[stray.actor] == stray.actor

    def test_tendermint_pack_is_one_class_per_label(self):
        game = WithholdingGame(f=2, m=1, r_unit=Fraction(1))
        script = (1, Role.ATTESTOR, "script")
        assert set(classes_of(game, game.profile("script")).values()) == {(script,)}
        deviator = game.rational[0]
        mixed = game.labelled(lambda dp: "honest-r1" if dp.actor == deviator else "script")
        classes = classes_of(game, mixed)
        assert classes[deviator] == ((1, Role.ATTESTOR, "honest-r1"),)
        assert {classes[p] for p in game.rational[1:]} == {(script,)}


# -- the Tendermint games --------------------------------------------------


@st.composite
def tendermint_games(draw):
    """A constructor of a Tendermint game: withholding with f <= 4 and m <= 3, or the anchor."""
    f = draw(st.integers(1, 4))
    r_unit = Fraction(draw(st.integers(1, 3)))
    if draw(st.booleans()):
        m = draw(st.integers(0, 3))
        return lambda: WithholdingGame(f, m, r_unit)
    return lambda: AnchorGame(f, r_unit)


def mixed_profile(game, rnd):
    """A labelled profile with each rational validator's label drawn at random."""
    return game.labelled(lambda dp: rnd.choice(list(game.candidates(dp))))


def settled(call):
    """What `call()` returns, or the message of the `AssumptionViolated` it raises."""
    try:
        return call()
    except AssumptionViolated as exc:
        return f"AssumptionViolated: {exc}"


@given(make=tendermint_games(), rnd=st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_swapping_two_tendermint_class_members_carries_payoffs_over(make, rnd):
    game = make()
    profile = mixed_profile(game, rnd)
    groups = shared_classes(game, profile)
    assume(groups)
    p, q = rnd.sample(rnd.choice(groups), 2)

    def sigma(v):
        return q if v == p else p if v == q else v

    def played(profile, relabel):
        run = game.simulate(profile)
        return run.finalized_round, {relabel(v): amount for v, amount in run.payoffs.items()}

    # every candidate of p against the same candidate of q; a profile that
    # raises must raise for both
    for label, assignment in game.assignments(p):
        (dp,) = assignment
        image = dp._replace(actor=q)
        ran = settled(lambda: played(profile.with_actions(assignment), sigma))
        swapped = settled(lambda: played(profile.with_actions({image: label}), lambda v: v))
        assert ran == swapped, (p, q, label)


@given(make=tendermint_games(), rnd=st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_tendermint_class_quotient_equals_full_enumeration(make, rnd):
    # each side on its own game object, so neither reads the other's cached runs
    profile = mixed_profile(make(), rnd)
    quotient = settled(lambda: fields(verify_nash(make(), profile)))
    full = settled(lambda: fields(full_nash(make(), profile)))
    assert quotient == full


def test_withholding_with_every_rational_validator_open_raises_on_both_sides():
    profile = WithholdingGame(2, 1, Fraction(1)).labelled(lambda dp: "honest-r1")
    with pytest.raises(AssumptionViolated, match="quorum"):
        verify_nash(WithholdingGame(2, 1, Fraction(1)), profile)
    with pytest.raises(AssumptionViolated, match="quorum"):
        full_nash(WithholdingGame(2, 1, Fraction(1)), profile)


# -- the unilateral verdict as a best response -------------------------------


def pooled_profile(game, rnd):
    """A clustered profile in which each pool's members all play one pool label."""
    pick = {v: label for members in game.pools.values()
            for label in [rnd.choice(game.POOL_LABELS)] for v in members}
    k = rnd.randint(1, 3)
    return game.labelled(lambda dp: pick.get(dp.actor) or rnd.choice(sorted(game.candidates(dp))[:k]))


@given(game=games() | tendermint_games().map(lambda make: make()),
       rnd=st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_a_class_deviates_exactly_when_its_label_is_no_best_response(game, rnd):
    # `verify_nash` reads a class's gains off one `_row` of its first member,
    # and `best_response` takes the maximum of that row: the first member's
    # own label (a pool's, the one its members all play) is a best response
    # exactly when the class reports no deviation
    assume(game.points)
    profile = pooled_profile(game, rnd)
    try:
        report = verify_nash(game, profile)
    except AssumptionViolated:
        assert isinstance(game, WithholdingGame)  # every rational validator open: no quorum
        assume(False)
    classes = classes_of(game, profile)
    deviating = {classes[p] for p, *_ in report_members(report)[0]}
    first = {}
    for player, cls in classes.items():
        first.setdefault(cls, player)
    for cls, player in first.items():
        seats = game.seats(player)
        if not seats:  # a pool none of whose members is seated plays nothing
            assert cls not in deviating
            continue
        own = profile.get(seats[0])
        assert (cls in deviating) == (own not in best_response(game, profile, player)), (cls, own)


@given(game=games(), rnd=st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_cli_renders_each_check_as_its_full_enumeration(game, rnd):
    # the CLI expands the checks' class-run entries member by member; the
    # references hold one entry per member, so both render alike
    assume(game.points)
    profile = rnd.choice((clustered_profile, pooled_profile))(game, rnd)
    assert (cli._report_equilibrium(verify_nash(game, profile))
            == cli._report_equilibrium(full_nash(game, profile)))
    assert (cli._report_equilibrium(verify_spne(game, profile))
            == cli._report_equilibrium(full_spne(game, profile)))


def test_cli_lists_a_gaining_run_player_by_player_then_label_by_label():
    # with no credible threat every abstainer gains by both C and NC: one
    # run of four members with two entries, which a loop over the players
    # reports member-major
    game = SimpleGame(GameConfig(4, boost=1, credibility_assumed=False))
    profile = game.profile("abstain-all")
    report = verify_nash(game, profile)
    assert [(d.players, d.label) for d in report.deviations] == [
        (game.committee, "C"), (game.committee, "NC")]
    assert cli._report_equilibrium(report) == cli._report_equilibrium(full_nash(game, profile))


# -- the roster ---------------------------------------------------------------


@given(game=games() | tendermint_games().map(lambda make: make()))
@settings(max_examples=150, deadline=None)
def test_groups_are_disjoint_and_list_each_player_once(game):
    # `_roster` cuts each group at the pools' members alone, which is sound
    # because no game seats a validator in two groups
    for (*_, a), (*_, b) in itertools.combinations(game.groups, 2):
        assert a.stop <= b.start or b.stop <= a.start
    pooled = frozenset().union(*game.pools.values())
    solo = [dp.actor for dp in game.points if dp.actor not in pooled]
    assert len(set(solo)) == len(solo)
    assert game.players() == [*solo, *game.pools]
