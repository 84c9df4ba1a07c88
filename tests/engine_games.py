"""Hypothesis strategies over the engine games, shared by the property tests."""

from hypothesis import strategies as st

from reorglab.chain import TieBreakPolicy
from reorglab.engine import StrategyProfile
from reorglab.games import (
    DagVotesGame,
    ExtendedGame,
    GameConfig,
    NoBoostGame,
    PoolSpec,
    SelfishMiningGame,
    SimpleGame,
    StrongSimpleGame,
)

POLICIES = (TieBreakPolicy.ADVERSARY_FAVORING, TieBreakPolicy.LEXICOGRAPHIC)


@st.composite
def games(draw):
    """A small game of any engine class, pools and tie-break policy included."""
    W = draw(st.integers(2, 4), label="W")
    tie_break = draw(st.sampled_from(POLICIES), label="tie_break")
    cls = draw(st.sampled_from((SimpleGame, StrongSimpleGame, NoBoostGame, ExtendedGame,
                                SelfishMiningGame, DagVotesGame)), label="game")
    if cls is NoBoostGame:
        return cls(GameConfig(W, boost=0, tie_break=tie_break))
    boost = draw(st.integers(0, W), label="boost")
    if cls is ExtendedGame:
        return cls(GameConfig(W, boost=boost, horizon=draw(st.integers(1, 3)),
                              honest_per_slot=draw(st.integers(0, W - 1)), tie_break=tie_break))
    if cls is DagVotesGame:
        return cls(GameConfig(W, boost=boost, adversary_on_tip=draw(st.booleans()),
                              tie_break=tie_break))
    if cls is SelfishMiningGame:
        pool = draw(st.none() | st.builds(PoolSpec, st.integers(0, W)))
        return cls(GameConfig(W, boost=boost, n_adversarial_slots=draw(st.integers(0, 3)),
                              n_non_adversarial_slots=draw(st.integers(1, 3)), pool=pool,
                              allow_condition_violation=True, tie_break=tie_break))
    pool = draw(st.none() | st.builds(PoolSpec, st.integers(0, W - 1)))
    return cls(GameConfig(W, boost=boost, pool=pool, credibility_assumed=draw(st.booleans()),
                          tie_break=tie_break))


def labelled_profile(game, rnd) -> StrategyProfile:
    return game.labelled(lambda dp: rnd.choice(sorted(game.candidates(dp))))


def classes_of(game, profile) -> dict:
    """Each player's symmetry class key, in roster order, from the runs `symmetry_classes` yields."""
    return {player: cls for cls, run in game.symmetry_classes(profile) for player in run}
