"""The report path: JSON text equal to `json.dumps`'s, and a DAG report that costs O(classes).

`render_report(..., "json")` builds its text by joins rather than through
`json.dumps`, whose `indent` never reaches the C encoder; it must still be
exactly `json.dumps(report, indent=2, sort_keys=True)` and a newline, for any
value.  `verify_spne` builds one payoff table per symmetry class and place,
and the CLI renders each shared table and each distinct amount once, so the
work they do before rendering does not grow with the committee size.
"""

import io
import json
import math
from collections.abc import Mapping
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from reorglab import cli
from reorglab.cli import render_report, run_scenario
from reorglab.equilibrium import dag_security_scenario, verify_spne
from reorglab.games import DagVotesGame, GameConfig

from test_golden import documents


def reference(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


class Index(int):
    """An int subclass: `json.dumps` writes it as `int.__repr__` does."""


class Row(list):
    """A list subclass: `json.dumps` writes it as a list."""


_STRINGS = st.text() | st.sampled_from(["", "\x00\x1f\n\t\"\\/", "é€😀  ", "\x7f\u0080"])
_LEAVES = (
    st.none() | st.booleans() | st.integers() | st.integers(-2**200, 2**200)
    | st.floats(allow_nan=True, allow_infinity=True) | _STRINGS
    | st.builds(Index, st.integers())
)
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.tuples(inner, inner)
        | st.builds(Row, st.lists(inner, max_size=3))
        | st.dictionaries(_STRINGS, inner, max_size=4)
        | st.dictionaries(st.integers(), inner, max_size=3)
    ),
    max_leaves=25,
)


@settings(max_examples=400, deadline=None)
@given(_VALUES)
@example({"nan": math.nan, "inf": [math.inf, -math.inf], "b": True, "n": None, "e": [[], {}]})
@example({"x": (1, "2"), "k": {2: "b", 10: "a"}, "deep": [[[{"z": 1, "y": Row([0])}]]]})
@example(["\ud7ff\ue000", -(10**40), Index(3)])
def test_json_report_is_json_dumps_text(value):
    assert render_report(value, "json") == reference(value)


@pytest.mark.parametrize("name", sorted(documents()))
def test_every_golden_report_renders_as_json_dumps(name):
    report = run_scenario(io.StringIO(json.dumps(documents()[name])))
    assert render_report(report, "json") == reference(report)


# -- a DAG report costs O(classes) before rendering --------------------------------


class CountedReads(Mapping):
    """A payoff view that counts its reads."""

    def __init__(self, payoffs: Mapping):
        self.payoffs, self.reads = payoffs, 0

    def __getitem__(self, player):
        self.reads += 1
        return self.payoffs[player]

    def __iter__(self):
        return iter(self.payoffs)

    def __len__(self):
        return len(self.payoffs)


def report_path_counts(W: int, monkeypatch) -> tuple[int, int]:
    """Base-payoff reads in `verify_spne`, and `Fraction.__str__` calls rendering DAG with the flip."""
    game = DagVotesGame(GameConfig(committee_size=W, boost=0))
    profile = game.profile("prescribed")
    base, checkpoints = game.play(profile)
    counted = CountedReads(base)
    verify_spne(game, profile, played=(counted, checkpoints))

    result = dag_security_scenario(game.config, check_ethereum_flip=True)
    calls = []
    original = Fraction.__str__
    monkeypatch.setattr(Fraction, "__str__", lambda self: calls.append(1) or original(self))
    cli._report_equilibrium(result.report)
    cli._report_equilibrium(result.ethereum_report)
    cli._outcome_json(result.outcome)
    monkeypatch.undo()
    assert len(result.report.subgame_table) > 3 * W  # one entry per point, each rendered
    return counted.reads, len(calls)


def test_dag_report_path_is_per_class(monkeypatch):
    small = report_path_counts(65, monkeypatch)
    assert all(small)
    assert report_path_counts(257, monkeypatch) == small
