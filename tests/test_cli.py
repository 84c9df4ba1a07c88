import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from reorglab import cli, games
from reorglab.cli import (
    EXIT_GUARD,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VALIDATION,
    ParseError,
    ValidationError,
    bundled_scenarios,
    list_scenarios,
    main,
    render_report,
    run_scenario,
)
from reorglab.engine import DecisionPoint, RunTrace, StrategyProfile

BUNDLED = [
    "dag-thm81",
    "extended-spne",
    "overhead-grid",
    "pool-simple-table7",
    "quantify-appendixB",
    "selfish-table8",
    "simple-table1",
    "strong-simple-table2",
    "tendermint-anchor",
    "tendermint-withholding",
]


def bundled(name: str) -> io.StringIO:
    return io.StringIO(bundled_scenarios()[name])


def test_every_game_class_has_one_kinds_row():
    # the class a KINDS row names is the only statement of which game it plays
    rows = [row for kind in cli.KINDS.values()
            for row in (kind.values() if isinstance(kind, dict) else [kind])]
    named = [row.game for row in rows if row.game is not None]
    concrete = {
        cls for cls in vars(games).values()
        if isinstance(cls, type) and issubclass(cls, games.GameModel) and hasattr(cls, "run")
    }
    assert len(named) == len(set(named))
    assert set(named) == concrete


def test_bundled_set_complete():
    assert sorted(bundled_scenarios()) == BUNDLED


def test_list_scenarios_sorted():
    listed = list_scenarios()
    names = [name for name, _ in listed]
    assert names == sorted(names) == BUNDLED
    described = dict(listed)
    assert described["simple-table1"] == "simple game; checks: matrix,outcome,nash,nash,dominance"
    # these kinds take no checks, so none is listed for them
    assert described["tendermint-anchor"] == "tendermint game"
    assert described["quantify-appendixB"] == "quantify game"
    assert described["overhead-grid"] == "overhead game"


def test_list_includes_user_dir(tmp_path):
    (tmp_path / "my-scenario.json").write_text(
        json.dumps({"scenario": "my-scenario", "game": {"kind": "overhead"}})
    )
    names = [name for name, _ in list_scenarios(str(tmp_path))]
    assert "my-scenario" in names
    assert names == sorted(names)


def test_list_with_empty_user_dir(tmp_path):
    names = [name for name, _ in list_scenarios(str(tmp_path))]
    assert names == BUNDLED


def test_trace_summary_carries_payoffs(tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    run_scenario(bundled("simple-table1"), trace_path=str(trace_path))
    summary = json.loads(trace_path.read_text().strip().splitlines()[-1])
    assert summary["payoffs"]  # settled per-validator amounts ride the trace


def test_simple_table1_report():
    report = run_scenario(bundled("simple-table1"))
    matrix = report["results"][0]["matrix"]["cells"]
    assert matrix == {"succeed/C": "1", "succeed/NC": "0", "fail/C": "0", "fail/NC": "0"}
    nash_checks = [r for r in report["results"] if r["check"] == "nash"]
    assert all(r["equilibrium"]["verdict"] == "nash" for r in nash_checks)


def test_failed_attack_still_reports(tmp_path):
    doc = {
        "scenario": "losing-selfish",
        "game": {
            "kind": "selfish-mining", "committee_size": 10, "boost": 4,
            "n_adversarial_slots": 2, "n_non_adversarial_slots": 3,
            "allow_condition_violation": True,
        },
        "checks": [{"type": "outcome", "profile": "compliant-all"}],
    }
    # the run completes with success false, exit code stays 0
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == EXIT_OK
    report = run_scenario(str(path))
    assert report["results"][0]["outcome"]["success"] is False


def test_malformed_file_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["run", str(path)]) == EXIT_PARSE
    with pytest.raises(ParseError):
        run_scenario(str(path))


def test_unknown_key_exit_3(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"scenario": "x", "game": {"kind": "overhead"}, "bogus": 1}))
    assert main(["run", str(path)]) == EXIT_VALIDATION
    with pytest.raises(ValidationError):
        run_scenario(str(path))


def test_bad_game_kind_exit_3(tmp_path):
    path = tmp_path / "bad-kind.json"
    path.write_text(json.dumps({"scenario": "x", "game": {"kind": "sample", "committee_size": 4}}))
    assert main(["run", str(path)]) == EXIT_VALIDATION


def test_semantically_invalid_game_exit_3(tmp_path):
    # a pool filling the whole committee is a config error, not a crash
    path = tmp_path / "bad-pool.json"
    path.write_text(
        json.dumps(
            {
                "scenario": "x",
                "game": {
                    "kind": "simple", "committee_size": 4, "boost": 2,
                    "pool": {"members_per_slot": 4},
                },
                "checks": [{"type": "outcome"}],
            }
        )
    )
    assert main(["run", str(path)]) == EXIT_VALIDATION


def test_explosion_guard_exit_4(tmp_path):
    path = tmp_path / "big.json"
    doc = json.loads(bundled_scenarios()["simple-table1"])
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--max-joint-actions", "2"]) == EXIT_GUARD


def test_explosion_guard_exits_before_any_set_up(tmp_path, monkeypatch):
    # 3 W candidates at W=524288 exceed the default bound; the count comes
    # from the class runs, so the check exits 4 having built no decision point
    W = 524288
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "scenario": "wide",
        "game": {"kind": "simple", "committee_size": W, "boost": W * 2 // 5},
        "checks": [{"type": "nash", "profile": "compliant-all"}],
    }))
    built = []
    new = DecisionPoint.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(DecisionPoint, "__new__", counted)
    assert main(["run", str(path)]) == EXIT_GUARD
    assert built == []


def test_coalition_plan_guarded_before_any_run(tmp_path, monkeypatch):
    # the whole plan, 768 unilateral and C(256, 2)·9 joint candidates, is
    # counted before the base run, so a guard below it plays no run
    path = tmp_path / "coalitions.json"
    path.write_text(json.dumps({
        "scenario": "coalitions",
        "game": {"kind": "simple", "committee_size": 256, "boost": 102},
        "checks": [{"type": "nash", "profile": "compliant-all", "coalition_bound": 2}],
    }))
    runs = []
    run = games.SimpleGame.run
    monkeypatch.setattr(games.SimpleGame, "run", lambda *args: runs.append(args) or run(*args))
    assert main(["run", str(path), "--max-joint-actions", "20000"]) == EXIT_GUARD
    assert main(["run", str(path), "--max-joint-actions", "294527"]) == EXIT_GUARD
    assert runs == []


@pytest.mark.parametrize("name", ["tendermint-withholding", "tendermint-anchor"])
def test_explosion_guard_bounds_tendermint(capsys, name):
    assert main(["run", name, "--max-joint-actions", "1"]) == EXIT_GUARD
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("guard error: ") and err.count("\n") == 1


def test_report_round_trip_identical():
    for name in BUNDLED:
        a = render_report(run_scenario(bundled(name)), "json")
        b = render_report(run_scenario(bundled(name)), "json")
        assert a == b, name


def test_trace_export(tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    run_scenario(bundled("simple-table1"), trace_path=str(trace_path))
    lines = trace_path.read_text().strip().splitlines()
    assert all(json.loads(line) for line in lines)
    assert json.loads(lines[-1])["kind"] == "summary"


@pytest.mark.parametrize("name", ["simple-table1", "dag-thm81"])
def test_trace_rendered_only_when_written(monkeypatch, tmp_path, name):
    # an outcome check and a dag-scenario check each play one reported run
    rendered = []
    export = RunTrace.export_lines
    monkeypatch.setattr(RunTrace, "export_lines", lambda self: rendered.append(self) or export(self))
    run_scenario(bundled(name))
    assert rendered == []
    run_scenario(bundled(name), trace_path=str(tmp_path / "trace.jsonl"))
    assert len(rendered) == 1


def test_selfish_pool_matrix_plays_one_run_per_cell(monkeypatch):
    # every cell of the selfish-mining pool table is the settlement of one run
    doc = _with("selfish-table8", checks=[{"type": "pool-matrix"}])
    played = []
    run = games.SelfishMiningGame.run
    monkeypatch.setattr(games.SelfishMiningGame, "run",
                        lambda self, *args: played.append(args) or run(self, *args))
    report = run_scenario(io.StringIO(json.dumps(doc)))
    assert len(played) == 4
    assert report["results"][0]["matrix"]["cells"] == {
        "succeed/C": "2", "succeed/NC": "0", "fail/C": "1", "fail/NC": "1",
    }


def test_seed_recorded():
    report = run_scenario(io.StringIO(json.dumps(_with("simple-table1", seed=42))))
    assert report["seed"] == 42


def test_profile_overrides(tmp_path):
    # a defecting last leader on top of the compliant base profile must
    # surface as a profitable deviation in the SPNE check
    doc = {
        "scenario": "extended-defect-leader-2",
        "game": {"kind": "extended", "committee_size": 4, "boost": 2, "horizon": 2},
        "checks": [
            {
                "type": "spne",
                "profile": {
                    "base": "compliant-all",
                    "overrides": [{"slot": 2, "role": "leader", "action": "NC"}],
                },
            }
        ],
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    report = run_scenario(str(path))
    entry = report["results"][0]
    assert entry["profile"] == "compliant-all+overrides"
    assert entry["equilibrium"]["verdict"] == "not-equilibrium"
    assert any(d["gain"] == "1" for d in entry["equilibrium"]["deviations"])


def test_profile_override_validation(tmp_path):
    doc = {
        "scenario": "bad-override",
        "game": {"kind": "extended", "committee_size": 4, "boost": 2, "horizon": 2},
        "checks": [
            {
                "type": "outcome",
                "profile": {
                    "base": "compliant-all",
                    "overrides": [{"slot": 9, "role": "leader", "action": "NC"}],
                },
            }
        ],
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == EXIT_VALIDATION


def test_slot_wide_override_builds_one_profile(monkeypatch):
    # every override's labels are gathered first: the base profile, then one more
    game = games.SimpleGame(games.GameConfig(256, boost=102))
    hold_out = game.committee[7]
    spec = cli._profile({"base": "compliant-all", "overrides": [
        {"slot": 1, "action": "NC"}, {"slot": 1, "actor": hold_out, "action": "abstain"},
    ]}, "profile")
    built = []
    init = StrategyProfile.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(StrategyProfile, "__init__", counted)
    profile = cli._resolve_profile(game, spec)
    assert len(built) == 2
    # a later override wins
    assert profile.actions == {
        dp: "abstain" if dp.actor == hold_out else "NC" for dp in game.points
    }


def test_actor_override_matching_nothing_names_the_actor():
    # the slot-wide exit-3 path is `test_profile_override_validation`; an
    # override naming an actor that no point of its slot and role has says so
    game = games.SimpleGame(games.GameConfig(16, boost=6))
    for override, text in [({"slot": 1, "actor": 999}, "slot 1 attestor actor 999"),
                           ({"slot": 1, "role": "leader", "actor": 3}, "slot 1 leader actor 3")]:
        spec = cli._profile({"base": "compliant-all",
                             "overrides": [{**override, "action": "NC"}]}, "profile")
        with pytest.raises(ValidationError,
                           match=f"^override matches no decision point: {text}$"):
            cli._resolve_profile(game, spec)


@pytest.mark.parametrize("offset,inside", [(-1, False), (0, True), (15, True), (16, False)])
def test_actor_override_at_the_edges_of_its_committee(offset, inside):
    # an override reads its slot and role's groups, not a scan of every
    # point: the committee's first and last index match, the indices just
    # outside it (a pre-game voter, the slot-t leader) do not
    game = games.SimpleGame(games.GameConfig(16, boost=6))
    actor = game.committee.start + offset
    spec = cli._profile({"base": "compliant-all",
                         "overrides": [{"slot": 1, "actor": actor, "action": "NC"}]}, "profile")
    if inside:
        profile = cli._resolve_profile(game, spec)
        assert {dp.actor for dp, label in profile.actions.items() if label == "NC"} == {actor}
    else:
        with pytest.raises(ValidationError,
                           match=f"^override matches no decision point: slot 1 attestor actor {actor}$"):
            cli._resolve_profile(game, spec)


def test_output_key_writes_report(tmp_path):
    out_path = tmp_path / "report.json"
    doc = json.loads(bundled_scenarios()["overhead-grid"])
    doc["output"] = {"path": str(out_path), "format": "json"}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    run_scenario(str(path))
    written = json.loads(out_path.read_text())
    assert written["scenario"] == "overhead-grid"


def test_cli_run_bundled_by_id(capsys):
    assert main(["run", "simple-table1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "succeed/C" in out


def test_cli_json_format(capsys):
    assert main(["run", "overhead-grid", "--format", "json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["scenario"] == "overhead-grid"


def test_cli_overhead_subcommand(capsys):
    assert main(["run", "overhead-grid"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "33216" in out and "12544" in out


@pytest.mark.parametrize(
    "argv",
    [["overhead"], ["run", "simple-table1", "--seed", "7"], ["batch", ".", "--seed", "7"]],
    ids=["overhead", "run-seed", "batch-seed"],
)
def test_removed_entry_points_exit_2(capsys, argv):
    # an overhead table is `run overhead-grid`; a document's seed is its `seed` key
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_PARSE
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [["run", "simple-table1", "--max-joint-actions", "-1"],
     ["batch", ".", "--max-joint-actions", "-1"],
     ["batch", ".", "--jobs", "0"]],
    ids=["run-negative-guard", "batch-negative-guard", "batch-no-jobs"],
)
def test_out_of_range_flags_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_PARSE
    out, err = capsys.readouterr()
    assert out == "" and "must be at least" in err


def test_zero_guard_allows_no_simulation(capsys):
    assert main(["run", "simple-table1", "--max-joint-actions", "0"]) == EXIT_GUARD
    assert capsys.readouterr().out == ""


def test_batch_runs_directory(tmp_path, capsys):
    for name in ("simple-table1", "overhead-grid"):
        (tmp_path / f"{name}.json").write_text(bundled_scenarios()[name])
    assert main(["batch", str(tmp_path), "--jobs", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "simple-table1" in out and "overhead-grid" in out


def test_batch_starts_at_most_one_worker_per_file(tmp_path, capsys, monkeypatch):
    asked = []

    class InProcess:
        """Records the pool size it is asked for and maps in this process."""

        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InProcess)
    for name in ("overhead-grid", "tendermint-anchor"):
        (tmp_path / f"{name}.json").write_text(bundled_scenarios()[name])
    assert main(["batch", str(tmp_path), "--jobs", "64"]) == EXIT_OK
    assert asked == [2]
    out = capsys.readouterr().out
    assert "overhead-grid" in out and "tendermint-anchor" in out


def test_importing_the_cli_loads_no_process_pool():
    # only `batch` starts workers, so no other command pays for loading them
    probe = (
        "import sys, reorglab.cli; "
        "print([m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules])"
    )
    src = str(Path(cli.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


@pytest.mark.parametrize("flag", ["--out", "--trace"])
def test_unwritable_path_exit_3(tmp_path, capsys, flag):
    path = tmp_path / "missing" / "out"
    assert main(["run", "simple-table1", flag, str(path)]) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("validation error: ") and err.count("\n") == 1
    assert str(path) in err


@pytest.mark.parametrize("command", ["run", "run-out", "batch"])
def test_lone_surrogate_exit_2(tmp_path, capsys, command):
    # "\ud800" is valid JSON, but no UTF-8 text can hold it: print or write it and the run dies
    path = tmp_path / "s.json"
    path.write_text('{"scenario": "\\ud800", "game": {"kind": "overhead"}}')
    argv = {"run": ["run", str(path)], "run-out": ["run", str(path), "--out", str(tmp_path / "out")],
            "batch": ["batch", str(tmp_path), "--jobs", "1"]}[command]
    assert main(argv) == EXIT_PARSE
    out, err = capsys.readouterr()
    assert out == "" and not (tmp_path / "out").exists()
    assert "parse error: " in err and "surrogate" in err and err.count("\n") == 1
    with pytest.raises(ParseError):
        run_scenario(str(path))


@pytest.mark.parametrize("name", ["overhead-grid", "strong-simple-table2"])
def test_trace_without_a_single_run_exit_3(tmp_path, capsys, name):
    path = tmp_path / "trace.jsonl"
    assert main(["run", name, "--trace", str(path)]) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("validation error: ") and err.count("\n") == 1
    assert str(path) in err
    assert not path.exists()


def test_tendermint_scenarios_via_cli():
    report = run_scenario(bundled("tendermint-withholding"))
    result = report["results"][0]
    assert result["stalled_rounds"] == 2
    assert result["payoff_per_nonhonest"] == "2"
    report = run_scenario(bundled("tendermint-anchor"))
    assert report["results"][0]["first_finalized_round"] == 1


def test_quantify_scenario_via_cli():
    report = run_scenario(bundled("quantify-appendixB"))
    gain = report["results"][0]["attack_gain"]
    assert gain["delta_eth"] == pytest.approx(0.0711, rel=0.02)


def _run_doc(tmp_path, game: dict, checks: list) -> int:
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"scenario": "x", "game": game, "checks": checks}))
    return main(["run", str(path)])


EXTENDED = {"kind": "extended", "committee_size": 4, "boost": 2, "horizon": 2}


@pytest.mark.parametrize(
    "game,check",
    [
        # the simple game's payoff table, printed for another game
        (EXTENDED, {"type": "matrix"}),
        # a traceback: the extended game has no conditioned payoffs
        (EXTENDED, {"type": "dominance", "action": "C", "candidates": ["C", "NC"]}),
        # the DAG-votes game, run for a simple-game document
        ({"kind": "simple", "committee_size": 5, "boost": 0}, {"type": "dag-scenario"}),
    ],
)
def test_check_for_another_game_kind_exit_3(tmp_path, capsys, game, check):
    assert _run_doc(tmp_path, game, [check]) == EXIT_VALIDATION
    assert capsys.readouterr().out == ""


def test_dominance_without_conditions_exit_3(tmp_path, capsys):
    # a dominance check over no condition compares nothing and must not certify
    game = {"kind": "simple", "committee_size": 4, "boost": 2}
    assert _run_doc(tmp_path, game, [{"type": "dominance", "conditions": []}]) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("action, candidates", [("zzz", ["zzz"]), ("zzz", ["C"]), ("C", ["C", "zzz"])])
def test_dominance_unknown_label_exit_3(tmp_path, capsys, action, candidates):
    # an unknown action is rejected whether or not an alternative remains
    # to play against it, and so is an unknown candidate
    game = {"kind": "simple", "committee_size": 4, "boost": 2}
    check = {"type": "dominance", "action": action, "candidates": candidates}
    assert _run_doc(tmp_path, game, [check]) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == ""
    assert "unknown action 'zzz' for slot 1 attestor" in err


@pytest.mark.parametrize("player", [999, 0, "nobody"])
def test_dominance_unknown_player_exit_3(tmp_path, capsys, player):
    # validator 0 votes in the previous committee, so it is no player either
    game = {"kind": "simple", "committee_size": 4, "boost": 2}
    assert _run_doc(tmp_path, game, [{"type": "dominance", "player": player}]) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == ""
    assert f"dominance player {player!r} is not a player of this game" in err


def test_dominance_at_scale_keeps_no_per_validator_state():
    # the check reads the roster's runs and the first group: at W = 2^20 it
    # allocates a few kB, where a per-player list or the decision points
    # would take over 100 MB
    W = 2**20
    doc = {"scenario": "wide-dominance", "game": {"kind": "simple", "committee_size": W, "boost": W * 2 // 5},
           "checks": [{"type": "dominance"}]}
    tracemalloc.start()
    try:
        report = run_scenario(io.StringIO(json.dumps(doc)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report["results"] == [{"check": "dominance", "dominance": "weakly-dominant"}]
    assert peak < 2 * 2**20


@pytest.mark.parametrize("key", ["n_slots", "adv_slot"])
def test_unread_dag_keys_exit_3(tmp_path, key):
    # the DAG-votes game always runs 4 slots with slot 3 adversarial
    game = {"kind": "dag-votes", "committee_size": 5, "boost": 0, key: 2}
    checks = [{"type": "outcome", "profile": "prescribed"}]
    assert _run_doc(tmp_path, game, checks) == EXIT_VALIDATION


def test_empty_pool_exit_3(tmp_path):
    # a pool with no members would enter the Nash check as a player with
    # two empty deviations
    game = {"kind": "simple", "committee_size": 4, "boost": 2, "pool": {"members_per_slot": 0}}
    assert _run_doc(tmp_path, game, [{"type": "nash"}]) == EXIT_VALIDATION
    with pytest.raises(ValidationError):
        run_scenario(io.StringIO(json.dumps({"scenario": "x", "game": game})))


# -- the scenario boundary ------------------------------------------------------


def _bundled_doc(name: str, **game) -> dict:
    doc = json.loads(bundled_scenarios()[name])
    doc["game"].update(game)
    return doc


def _simple_outcome(**game) -> dict:
    doc = _bundled_doc("simple-table1", **game)
    doc["checks"] = [{"type": "outcome"}]
    return doc


def _with(name: str, **top) -> dict:
    return {**json.loads(bundled_scenarios()[name]), **top}


# inputs that must be rejected with one line on stderr; each of them once
# crashed with a traceback, or ran while ignoring or misreading a key
BOUNDARY = {
    "rational-zero-denominator": _simple_outcome(r="1/0"),
    "committee-size-not-int": _simple_outcome(committee_size="abc"),
    "pool-members-not-int": _bundled_doc("pool-simple-table7", pool={"members_per_slot": "q"}),
    # a pool of 6 members per slot in a committee of 4
    "selfish-pool-above-committee": _bundled_doc(
        "selfish-table8", committee_size=4, boost=2, pool={"members_per_slot": 6}
    ),
    # pool-matrix cells whose condition the run cannot realize: a pool that
    # fills every committee wins the fork whenever it follows (fail/C) and
    # loses it whenever it does not (succeed/NC); with no adversarial slot
    # there is no fork to win
    "selfish-pool-fills-committees": _with(
        "selfish-table8",
        game={"kind": "selfish-mining", "committee_size": 4, "boost": 2,
              "n_adversarial_slots": 2, "n_non_adversarial_slots": 2,
              "pool": {"members_per_slot": 4}},
        checks=[{"type": "pool-matrix"}],
    ),
    "selfish-pool-no-adversarial": _with(
        "selfish-table8",
        game={"kind": "selfish-mining", "committee_size": 4, "boost": 2,
              "n_adversarial_slots": 0, "n_non_adversarial_slots": 1,
              "allow_condition_violation": True, "pool": {"members_per_slot": 1}},
        checks=[{"type": "pool-matrix"}],
    ),
    "coalition-bound-not-int": _with(
        "simple-table1", checks=[{"type": "nash", "coalition_bound": "z"}]
    ),
    "override-action-not-a-candidate": _with(
        "simple-table1",
        checks=[{"type": "outcome",
                 "profile": {"overrides": [{"slot": 1, "role": "attestor", "action": "Z"}]}}],
    ),
    "override-slot-not-int": _with(
        "extended-spne",
        checks=[{"type": "outcome",
                 "profile": {"overrides": [{"slot": "x", "role": "leader", "action": "NC"}]}}],
    ),
    "seed-not-int": _with("simple-table1", seed="abc"),
    "overhead-limit-above-aggregators": _bundled_doc(
        "overhead-grid", grids=[{"n_agg": 4, "n_limit": 8}]
    ),
    "quantify-no-validators": _bundled_doc("quantify-appendixB", n_validators=0),
    "committee-size-zero": _simple_outcome(committee_size=0),
    "boost-negative": _simple_outcome(boost=-2),
    "bool-as-string": _simple_outcome(credibility_assumed="false"),
    "f-on-simple": _simple_outcome(f=1),
    "grids-on-simple": _simple_outcome(grids=[]),
    "horizon-on-simple": _simple_outcome(horizon=2),
    "pool-on-no-boost": {
        "scenario": "x",
        "game": {"kind": "simple-no-boost", "committee_size": 4, "boost": 0,
                 "pool": {"members_per_slot": 1}},
    },
    "checks-on-tendermint": _with(
        "tendermint-anchor", checks=[{"type": "nash"}, {"type": "matrix"}]
    ),
    "spne-on-quantify": _with("quantify-appendixB", checks=[{"type": "spne"}]),
    "withholding-without-m": {
        "scenario": "x", "game": {"kind": "tendermint", "variant": "withholding", "f": 1},
    },
    # a dag-scenario whose committee cannot outvote the boost
    "dag-scenario-assumption": _bundled_doc("dag-thm81", committee_size=2),
    # searches that would check nothing
    "extended-horizon-zero": _with(
        "extended-spne", game={**EXTENDED, "horizon": 0}, checks=[{"type": "spne"}]
    ),
    "tendermint-anchor-f-zero": _bundled_doc("tendermint-anchor", f=0),
    "no-checks": _with("simple-table1", checks=[]),
}


@pytest.mark.parametrize("name", sorted(BOUNDARY))
def test_boundary_input_exit_3(tmp_path, capsys, name):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(BOUNDARY[name]))
    assert main(["run", str(path)]) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("validation error: ") and err.count("\n") == 1
    if name == "withholding-without-m":
        assert "requires 'm'" in err
    if name == "override-action-not-a-candidate":
        assert "'Z'" in err


@pytest.mark.parametrize("make", [False, True], ids=["missing", "empty"])
def test_batch_without_scenario_files_exit_2(tmp_path, capsys, make):
    directory = tmp_path / "scenarios"
    if make:
        directory.mkdir()
        (directory / "notes.txt").write_text("not a scenario")
    assert main(["batch", str(directory)]) == EXIT_PARSE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("parse error: ") and err.count("\n") == 1
    assert str(directory) in err


def test_batch_reports_every_file(tmp_path, capsys):
    (tmp_path / "a-good.json").write_text(bundled_scenarios()["overhead-grid"])
    (tmp_path / "b-broken.json").write_text("{not json")
    (tmp_path / "c-invalid.json").write_text(json.dumps(BOUNDARY["committee-size-zero"]))
    (tmp_path / "d-good.json").write_text(bundled_scenarios()["tendermint-anchor"])
    assert main(["batch", str(tmp_path), "--jobs", "1"]) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert "overhead-grid" in out and "tendermint-anchor" in out
    broken, invalid = err.splitlines()
    assert broken.startswith(f"{tmp_path / 'b-broken.json'}: parse error: ")
    assert invalid == (
        f"{tmp_path / 'c-invalid.json'}: validation error: "
        "game.committee_size must be at least 1, got 0"
    )


@pytest.mark.parametrize("make", [False, True], ids=["missing", "file"])
def test_list_with_user_dir_that_is_no_directory_exit_2(tmp_path, capsys, make):
    # rejected as `batch` rejects it, not listed as if no user file existed
    path = tmp_path / "scenarios"
    if make:
        path.write_text("not a directory")
    assert main(["list", "--user-dir", str(path)]) == EXIT_PARSE
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"parse error: {path} is not a directory\n"
    assert main(["batch", str(path)]) == EXIT_PARSE
    assert capsys.readouterr().err == err


def test_list_skips_a_file_that_is_no_object(tmp_path, capsys):
    (tmp_path / "array.json").write_text("[1]")
    (tmp_path / "mine.json").write_text(json.dumps({"scenario": "mine", "game": []}))
    names = [name for name, _ in list_scenarios(str(tmp_path))]
    assert "array" not in names and "mine" in names
    assert "array.json" in capsys.readouterr().err


# -- every mutation of a bundled document is a report or exit 2/3/4 -------------

_ODD_VALUES = [None, True, False, -1, 0, 1, 2, 3, 1.5, "", "x", "1/0", "3/2", "-1",
               [], {}, [1], {"a": 1}, [{"type": "nash"}]]
_SOME_KEYS = [
    "scenario", "game", "profile", "checks", "seed", "output", "kind", "variant",
    "committee_size", "boost", "horizon", "r", "R", "epoch_length", "honest_per_slot",
    "n_adversarial_slots", "n_non_adversarial_slots", "pool", "credibility_assumed",
    "tie_break", "adversary_on_tip", "allow_condition_violation", "f", "m",
    "n_validators", "stake_gwei", "mev_fail_eth", "mev_success_eth", "pool_share",
    "grids", "type", "coalition_bound", "player", "action", "candidates", "conditions",
    "ethereum_flip", "bogus",
]
_CHECK_TYPES = ["matrix", "pool-matrix", "outcome", "nash", "spne", "dominance",
                "dag-scenario", "quantify"]


@st.composite
def mutated_documents(draw):
    doc = json.loads(bundled_scenarios()[draw(st.sampled_from(BUNDLED))])
    for _ in range(draw(st.integers(1, 3))):
        objects = [doc]
        if isinstance(doc.get("game"), dict):
            objects.append(doc["game"])
        if isinstance(doc.get("checks"), list):
            objects += [c for c in doc["checks"] if isinstance(c, dict)]
        target = draw(st.sampled_from(objects))
        op = draw(st.sampled_from(["drop", "retype", "add", "check"]))
        if op in ("drop", "retype") and target:
            key = draw(st.sampled_from(sorted(target)))
            if op == "drop":
                del target[key]
            else:
                target[key] = draw(st.sampled_from(_ODD_VALUES))
        elif op == "add":
            target[draw(st.sampled_from(_SOME_KEYS))] = draw(st.sampled_from(_ODD_VALUES))
        elif isinstance(doc.get("checks", []), list):
            doc.setdefault("checks", []).append({"type": draw(st.sampled_from(_CHECK_TYPES))})
    return doc


@settings(max_examples=80, deadline=None, derandomize=True)
@given(doc=mutated_documents())
def test_mutated_documents_never_crash(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.json"
        path.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["run", str(path), "--max-joint-actions", "60"])
    assert code in (EXIT_OK, EXIT_PARSE, EXIT_VALIDATION, EXIT_GUARD)
