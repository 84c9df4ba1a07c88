"""Checkpointed runs: a deviation resumed from the profile's own run equals a fresh run.

A checkpoint is the run's state as a decision tick starts.  It is valid for
every profile that agrees with the recorded one before that tick, which
rests on the read-tick rule: a game script reads a decision point's action
only at or after the point's tick.  Both are checked here over random
configurations and labelled profiles of every engine game.  Only a check's
base run (`GameModel.play`) records checkpoints.
"""

import io
import json
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from reorglab.cli import run_scenario
from reorglab.engine import DecisionPoint, Simulation, StrategyProfile, vote_tick
from reorglab.equilibrium import _deviate
from reorglab.games import GameConfig, SimpleGame, _RECORD, simple_payoff_matrix

from engine_games import games, labelled_profile


def summary(game, outcome) -> tuple:
    """What a run must reproduce: its exported trace, verdict, reorged blocks and payoffs."""
    return (
        outcome.trace.export_lines(),
        outcome.success,
        outcome.reorged,
        game._payoffs_from(outcome),
        outcome.extras.get("compliant_chain"),
    )


@given(game=games(), rnd=st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_resumed_deviation_equals_a_run_from_the_opening(game, rnd):
    profile = labelled_profile(game, rnd)
    base = game.run(profile, _RECORD)
    assert sorted(base.checkpoints) == sorted({dp.tick for dp in game.points})
    # every player's joint assignments, pools spanning several ticks
    # included, and one two-player coalition
    assignments = [a for player in game.players() for _, a in game.assignments(player)]
    if len(assignments) >= 2:
        first, second = rnd.sample(assignments, 2)
        assignments.append({**first, **second})
    played = (game._payoffs_from(base), base.checkpoints)
    for assignment in assignments:
        if not assignment:
            continue
        deviated = StrategyProfile({**profile.actions, **assignment})
        start = base.checkpoints[min(dp.tick for dp in assignment)]
        fresh = summary(game, game.run(deviated))
        assert summary(game, game.run(deviated, start)) == fresh
        # the first resume wrote nothing back into the checkpoint
        assert summary(game, game.run(deviated, start)) == fresh
        # the equilibrium checks pick the same checkpoint
        assert _deviate(game, profile, played, assignment)[0] == fresh[3]
    assert summary(game, game.run(profile)) == summary(game, base)


class ReadLog(StrategyProfile):
    """A profile that records the tick of the simulation in progress at each read.

    A single label is read by its plain (slot, role, actor) key; a run read
    logs every point the run covers, at the tick it is read.
    """

    def __init__(self, actions, clock):
        super().__init__(actions)
        self.clock, self.reads = clock, []

    def get(self, key):
        self.reads.append((DecisionPoint(*key), self.clock[0].tick))
        return super().get(key)

    def over(self, slot, role, voters):
        for first, span, label in super().over(slot, role, voters):
            tick = self.clock[0].tick
            self.reads += [(DecisionPoint(slot, role, v), tick) for v in range(first, first + span)]
            yield first, span, label


@given(game=games(), rnd=st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_actions_are_read_at_or_after_their_tick(game, rnd):
    clock = [None]
    advance = Simulation.advance

    def tracked(sim, tick):
        clock[0] = sim
        advance(sim, tick)

    profile = ReadLog(labelled_profile(game, rnd).actions, clock)
    with mock.patch.object(Simulation, "advance", tracked):
        game.run(profile)
    assert {dp for dp, _ in profile.reads} == set(game.points)
    for dp, tick in profile.reads:
        assert tick >= dp.tick, (dp, tick)



@given(game=games(), rnd=st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_run_builds_no_decision_point(game, rnd):
    # the game's points exist once it has a profile; a run, from the opening
    # or resumed, reads each label by its plain (slot, role, actor) key
    profile = labelled_profile(game, rnd)
    base = game.run(profile, _RECORD)
    assignments = [a for player in game.players() for _, a in game.assignments(player) if a]
    resumed = None
    if assignments:
        assignment = rnd.choice(assignments)
        resumed = (StrategyProfile({**profile.actions, **assignment}),
                   base.checkpoints[min(dp.tick for dp in assignment)])
    built = []
    new = DecisionPoint.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    with mock.patch.object(DecisionPoint, "__new__", counted):
        game.run(profile)
        if resumed is not None:
            game.run(*resumed)
    assert built == []


def test_only_a_checks_base_run_records_checkpoints():
    # each recorded checkpoint forks the run; an outcome check and the payoff
    # table's conditioned runs resume from none of them, so they record none
    forks = []
    fork = Simulation.fork
    outcome_check = {
        "scenario": "outcome-only",
        "game": {"kind": "extended", "committee_size": 4, "boost": 2, "horizon": 3},
        "checks": [{"type": "outcome", "profile": "compliant-all"}],
    }
    with mock.patch.object(Simulation, "fork", lambda sim: forks.append(sim) or fork(sim)):
        run_scenario(io.StringIO(json.dumps(outcome_check)))
        simple_payoff_matrix(SimpleGame(GameConfig(4, boost=2)))
        assert forks == []
        game = SimpleGame(GameConfig(4, boost=2))
        _, checkpoints = game.play(game.profile("compliant-all"))
    assert sorted(checkpoints) == [vote_tick(SimpleGame.SLOT_T)]
    assert len(forks) == 1
