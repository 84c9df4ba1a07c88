"""Run-form profiles against the per-point reference (`profile_reference.py`).

A `StrategyProfile` holds its labels as maximal runs per (slot, role), and
`symmetry_classes` reads the classes off those runs.  Over random
configurations of every engine game, random starting profiles (named,
labelled, or with some points left unlabelled) and random sequences of
overrides (single points, whole groups, stretches of a group, a player's
joint assignment, overlapping keys, labels that are no candidate), each run-form profile must give every decision point the label
the per-point reference gives it, keep its runs sorted and maximal, and
yield the classes and the Nash and SPNE reports that the reference's
per-player key yields.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reorglab.engine import DecisionPoint, StrategyProfile
from reorglab.equilibrium import verify_nash, verify_spne

from engine_games import classes_of, games
from profile_reference import (
    DictProfile,
    named_profile,
    reference_classes,
    reference_nash,
    reference_spne,
)
from test_symmetry import fields

STRAY = "no candidate"


def random_override(game, rnd) -> tuple[dict, dict]:
    """One override as `with_actions` takes it, and the same labels keyed by point."""
    kind = rnd.randrange(5)
    if kind == 0:  # a player's joint assignment, a pool's included
        choices = game.assignments(rnd.choice(game.players()))
        assignment = rnd.choice(choices)[1] if choices else {}
        return assignment, assignment
    slot, role, actors = rnd.choice(game.groups)
    labels = sorted(game.CANDIDATES[role]) + [STRAY]
    point = lambda v: DecisionPoint(slot, role, v)
    if kind == 1:  # several single points
        chosen = rnd.sample(actors, rnd.randint(1, len(actors)))
        assignment = {point(v): rnd.choice(labels) for v in chosen}
        return assignment, assignment
    label = rnd.choice(labels)
    i = rnd.randrange(len(actors))
    stretch = actors if kind in (2, 4) else actors[i:rnd.randrange(i, len(actors)) + 1]
    per_point = dict.fromkeys(map(point, stretch), label)
    if kind == 4 and len(stretch) > 1:
        # points of the group keyed before and after it: the later key wins
        earlier = rnd.choice([x for x in labels if x != label])
        v, later = rnd.choice(stretch[:-1]), rnd.choice(labels)
        assignment = {point(stretch[-1]): earlier, (slot, role, stretch): label, point(v): later}
        return assignment, {**per_point, point(v): later}
    return {(slot, role, stretch): label}, per_point


def assert_sorted_and_maximal(profile: StrategyProfile) -> None:
    for runs in profile.runs.values():
        assert runs and all(span >= 1 for _, span, _ in runs)
        for (first, span, label), (later, _, other) in zip(runs, runs[1:]):
            assert first + span <= later, runs
            assert first + span < later or label != other, runs


@given(game=games(), rnd=st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_run_profile_equals_the_per_point_reference(game, rnd):
    assume(game.points)
    if rnd.random() < 0.4:
        name = rnd.choice(sorted(game.PROFILES))
        profile, reference = game.profile(name), named_profile(game, name)
    else:  # a labelled profile, or one that leaves some points without a label
        dropped = 0.0 if rnd.random() < 0.5 else rnd.random()
        labels = {dp: rnd.choice(sorted(game.candidates(dp)))
                  for dp in game.points if rnd.random() >= dropped}
        profile, reference = StrategyProfile(labels), DictProfile(labels)
    for step in range(rnd.randint(0, 4) + 1):
        if step:
            assignment, per_point = random_override(game, rnd)
            profile, reference = profile.with_actions(assignment), reference.with_actions(per_point)
        assert_sorted_and_maximal(profile)
        assert [profile.get(dp) for dp in game.points] == [reference.get(dp) for dp in game.points]
        assert profile.actions == reference.actions
    assert list(classes_of(game, profile).items()) == list(reference_classes(game, reference).items())
    assert fields(verify_nash(game, profile)) == fields(reference_nash(game, reference))
    assert fields(verify_spne(game, profile)) == fields(reference_spne(game, reference))


def test_equal_labels_make_equal_runs():
    # a profile built point by point, by groups or by overrides holds the same runs
    from reorglab.games import GameConfig, SimpleGame

    game = SimpleGame(GameConfig(8, boost=3))
    (slot, role, actors), = game.groups
    by_point = StrategyProfile({DecisionPoint(slot, role, v): "C" for v in actors})
    split = game.profile("vote-bt-all").with_actions({(slot, role, actors[:3]): "C"})
    assert by_point == game.profile("compliant-all") == split.with_actions({(slot, role, actors[3:]): "C"})
    assert by_point.runs == {(slot, role): ((actors.start, 8, "C"),)}
