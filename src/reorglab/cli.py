"""Scenario-file parsing, batch execution and report emission.

A scenario is a JSON document naming a game configuration, a strategy
profile, and a list of checks (matrix, nash, spne, dominance, outcome,
quantify, overhead).  Reports are deterministic given (scenario, seed) and
can be emitted as aligned text or JSON.

Exit codes: 0 success (including an attack that fails as expected),
2 parse error, 3 validation error, 4 explosion guard.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Optional

from .chain import TieBreakPolicy
from .equilibrium import ExplosionGuard, dag_security_scenario, verify_nash, verify_spne
from .games import (
    GameConfig,
    GameError,
    GameKind,
    PoolSpec,
    build_game,
    pool_payoff_selfish,
    pool_payoff_simple,
    simple_payoff_matrix,
)
from .overhead import OverheadParams, aggregator_comm_overhead_bytes, overhead_grid
from .rewards import (
    InclusionRewardBreakdown,
    altair_block_inclusion_reward,
    attack_gain_summary,
)
from .tendermint import honest_anchor_scenario, withholding_attack_scenario


class ParseError(Exception):
    pass


class ValidationError(Exception):
    pass


EXIT_OK, EXIT_PARSE, EXIT_VALIDATION, EXIT_GUARD = 0, 2, 3, 4

_TOP_KEYS = {"scenario", "game", "profile", "checks", "seed", "output"}
_GAME_KEYS = {
    "kind", "committee_size", "boost", "horizon", "r", "R", "epoch_length",
    "honest_per_slot", "n_adversarial_slots", "n_non_adversarial_slots", "pool",
    "credibility_assumed", "tie_break", "adversary_on_tip", "allow_condition_violation",
    # tendermint
    "variant", "f", "m",
    # quantify
    "n_validators", "stake_gwei", "mev_fail_eth", "mev_success_eth", "pool_share",
    # overhead
    "grids",
}
_CHECK_KEYS = {
    "type", "profile", "coalition_bound", "player", "action", "candidates",
    "conditions", "ethereum_flip",
}
# checks that tabulate one game's own construction, and the kinds that have it
_CHECK_KINDS = {
    "matrix": {GameKind.SIMPLE, GameKind.STRONG_SIMPLE},
    "dominance": {GameKind.SIMPLE, GameKind.STRONG_SIMPLE},
    "pool-matrix": {GameKind.SIMPLE, GameKind.SELFISH_MINING},
    "dag-scenario": {GameKind.DAG_VOTES},
}


def _fraction(value) -> Fraction:
    if isinstance(value, bool):
        raise ValidationError(f"expected a number, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise ValidationError(f"cannot read rational from {value!r}")


def _reject_unknown(mapping: dict, allowed: set, where: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ValidationError(f"unknown keys in {where}: {sorted(unknown)}")


def load_scenario(source) -> dict:
    if isinstance(source, (str, Path)):
        try:
            text = Path(source).read_text()
        except OSError as exc:
            raise ParseError(f"cannot read scenario file: {exc}") from exc
    else:
        text = source.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"scenario is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("scenario must be a JSON object")
    return doc


def validate_scenario(doc: dict) -> None:
    _reject_unknown(doc, _TOP_KEYS, "scenario")
    if "scenario" not in doc or "game" not in doc:
        raise ValidationError("scenario requires 'scenario' and 'game' keys")
    if not isinstance(doc["game"], dict):
        raise ValidationError("'game' must be an object")
    _reject_unknown(doc["game"], _GAME_KEYS, "game")
    for check in doc.get("checks", []):
        if not isinstance(check, dict):
            raise ValidationError("each check must be an object")
        _reject_unknown(check, _CHECK_KEYS, "check")


def _resolve_profile(game, spec):
    """Build a StrategyProfile from a name or a {base, overrides} object.

    Overrides address decision points by slot and role (and optionally a
    specific actor index) and replace the base action with another candidate
    label, e.g. {"slot": 2, "role": "leader", "action": "NC"}.
    """
    if spec is None:
        spec = "compliant-all"
    if isinstance(spec, str):
        return game.profile(spec)
    if not isinstance(spec, dict):
        raise ValidationError(f"profile must be a name or object, got {spec!r}")
    _reject_unknown(spec, {"base", "overrides"}, "profile")
    profile = game.profile(spec.get("base", "compliant-all"))
    for override in spec.get("overrides", []):
        _reject_unknown(override, {"slot", "role", "actor", "action"}, "override")
        slot = int(override["slot"])
        role = override.get("role", "attestor")
        actor = override.get("actor")
        label = override["action"]
        matched = False
        for dp in game.decision_points():
            if dp.slot != slot or dp.role.value != role:
                continue
            if actor is not None and dp.actor != int(actor):
                continue
            candidates = dict(game.dp_candidates(dp))
            if label not in candidates:
                raise ValidationError(
                    f"unknown action {label!r} for slot {slot} {role}"
                )
            profile = profile.with_action(dp, candidates[label])
            matched = True
        if not matched:
            raise ValidationError(f"override matches no decision point: {override}")
    return profile


def _game_config(game: dict) -> GameConfig:
    try:
        kind = GameKind(game["kind"])
        tie_break = TieBreakPolicy(game.get("tie_break", "adversary-favoring"))
    except (KeyError, ValueError) as exc:
        raise ValidationError(f"bad game kind or tie-break: {exc}") from exc
    if "committee_size" not in game:
        raise ValidationError("game requires committee_size")
    pool = None
    if game.get("pool"):
        _reject_unknown(game["pool"], {"members_per_slot", "name"}, "pool")
        pool = PoolSpec(
            members_per_slot=int(game["pool"]["members_per_slot"]),
            name=game["pool"].get("name", "P"),
        )
        if pool.members_per_slot < 1:
            raise ValidationError("a pool needs at least one member per slot")
    return GameConfig(
        kind=kind,
        committee_size=int(game["committee_size"]),
        boost=int(game.get("boost", 0)),
        horizon=int(game.get("horizon", 1)),
        r=_fraction(game.get("r", 1)),
        R=_fraction(game.get("R", 1)),
        epoch_length=int(game.get("epoch_length", 32)),
        honest_per_slot=int(game.get("honest_per_slot", 0)),
        n_adversarial_slots=int(game.get("n_adversarial_slots", 0)),
        n_non_adversarial_slots=int(game.get("n_non_adversarial_slots", 0)),
        pool=pool,
        credibility_assumed=bool(game.get("credibility_assumed", True)),
        tie_break=tie_break,
        adversary_on_tip=bool(game.get("adversary_on_tip", False)),
        allow_condition_violation=bool(game.get("allow_condition_violation", False)),
    )


def _matrix_json(matrix) -> dict:
    return {
        "rows": list(matrix.rows),
        "cols": list(matrix.cols),
        "cells": {f"{r}/{c}": str(matrix.values[(r, c)]) for r in matrix.rows for c in matrix.cols},
    }


def _report_equilibrium(report) -> dict:
    return {
        "verdict": report.verdict.value,
        "deviations": [
            {
                "player": str(d.player),
                "action": d.label,
                "baseline": str(d.baseline),
                "deviated": str(d.deviated),
                "gain": str(d.gain),
            }
            for d in report.deviations
        ],
        "subgames": [
            {
                "slot": e.dp.slot,
                "role": e.dp.role.value,
                "actor": e.dp.actor,
                "payoffs": {k: str(v) for k, v in sorted(e.payoffs.items())},
            }
            for e in report.subgame_table
        ],
        "checked": report.checked,
    }


def _outcome_json(outcome) -> dict:
    out = {
        "success": outcome.success,
        "final_chain": list(outcome.final_chain),
        "reorged": list(outcome.reorged),
        "labels": dict(outcome.trace.labels),
        "payoffs": {
            str(k): str(v) for k, v in sorted(outcome.ledger.payoffs.items())
        },
    }
    extras = {
        k: v for k, v in outcome.extras.items()
        if isinstance(v, (int, str, bool, list))
    }
    if extras:
        out["extras"] = extras
    return out


def _run_quantify(game: dict) -> dict:
    n = int(game["n_validators"])
    stake = int(game.get("stake_gwei", 32 * 10**9))
    inclusion = altair_block_inclusion_reward(n, stake)
    rows = [
        ("no-attack inclusion (all three votes)", inclusion.all_three_votes),
        ("successful-attack inclusion", inclusion.success_case),
        ("head-vote-only inclusion", inclusion.head_only),
        ("source+target-only inclusion", inclusion.source_target_only),
    ]
    result = {
        "inclusion_rewards": [
            {
                "label": label,
                "gwei": str(gwei),
                "eth": round(InclusionRewardBreakdown.as_eth(gwei), 6),
            }
            for label, gwei in rows
        ]
    }
    if "mev_fail_eth" in game:
        summary = attack_gain_summary(
            inclusion,
            _fraction(game["mev_fail_eth"]),
            _fraction(game["mev_success_eth"]),
            _fraction(game.get("pool_share", 0)),
        )
        result["attack_gain"] = {
            "delta_eth": round(summary.delta_eth, 6),
            "delta_pct": round(float(summary.delta_pct) * 100, 2),
            "pool_head_loss_eth": round(summary.pool_head_loss_eth, 6),
            "pool_net_eth": round(summary.pool_net_eth, 6),
        }
    return result


def _run_overhead(game: dict) -> dict:
    grids = game.get("grids", [{}])
    params = []
    for grid in grids:
        _reject_unknown(grid, {"n_att", "n_agg", "n_limit"}, "overhead grid")
        params.append(
            OverheadParams(
                n_att=int(grid.get("n_att", 524)),
                n_agg=int(grid.get("n_agg", 16)),
                n_limit=int(grid.get("n_limit", min(8, int(grid.get("n_agg", 16)) - 1))),
            )
        )
    return {
        "rows": overhead_grid(params),
        "comm_overhead_bytes": aggregator_comm_overhead_bytes(params[0]),
    }


def _run_tendermint(game: dict) -> dict:
    variant = game.get("variant")
    if variant == "withholding":
        result = withholding_attack_scenario(
            int(game["f"]), int(game["m"]), _fraction(game.get("r", 1))
        )
        return {
            "variant": "withholding",
            "stalled_rounds": result.stalled_rounds,
            "finalized_round": result.finalized_round,
            "payoff_per_nonhonest": str(result.payoff_per_nonhonest),
            "equilibrium": _report_equilibrium(result.report),
        }
    if variant == "anchor":
        result = honest_anchor_scenario(int(game["f"]), _fraction(game.get("r", 1)))
        return {
            "variant": "anchor",
            "first_finalized_round": result.first_finalized_round,
            "reorg_resilient": result.reorg_resilient,
            "deviation_forfeits": result.deviation_forfeits,
            "equilibrium": _report_equilibrium(result.report),
        }
    raise ValidationError(f"unknown tendermint variant {variant!r}")


def run_scenario(
    source,
    seed_override: Optional[int] = None,
    max_joint_actions: int = 10**6,
    trace_path: Optional[str] = None,
) -> dict:
    """Execute one scenario document and return its report dict."""
    doc = load_scenario(source)
    validate_scenario(doc)
    seed = int(doc.get("seed", 0)) if seed_override is None else seed_override
    game_doc = doc["game"]
    kind = game_doc.get("kind")
    report: dict = {"scenario": doc["scenario"], "seed": seed, "results": []}
    trace_lines: list[str] = []

    if kind == "tendermint":
        report["results"].append(_run_tendermint(game_doc))
        return _emit(doc, report, trace_lines, trace_path)
    if kind == "quantify":
        report["results"].append(_run_quantify(game_doc))
        return _emit(doc, report, trace_lines, trace_path)
    if kind == "overhead":
        report["results"].append(_run_overhead(game_doc))
        return _emit(doc, report, trace_lines, trace_path)

    config = _game_config(game_doc)
    game = build_game(config)
    for check in doc.get("checks", [{"type": "outcome"}]):
        ctype = check.get("type")
        profile_spec = check.get("profile", doc.get("profile"))
        profile_label = profile_spec if isinstance(profile_spec, str) else (
            "compliant-all" if profile_spec is None
            else profile_spec.get("base", "compliant-all") + "+overrides"
        )
        entry: dict = {"check": ctype}
        if config.kind not in _CHECK_KINDS.get(ctype, {config.kind}):
            raise ValidationError(f"check {ctype!r} does not apply to a {config.kind.value} game")
        if ctype == "matrix":
            entry["matrix"] = _matrix_json(simple_payoff_matrix(config))
        elif ctype == "pool-matrix":
            if config.kind is GameKind.SELFISH_MINING:
                cells = {}
                for row in ("succeed", "fail"):
                    for col in ("C", "NC"):
                        cells[f"{row}/{col}"] = str(pool_payoff_selfish(config, col, row))
                entry["matrix"] = {"rows": ["succeed", "fail"], "cols": ["C", "NC"], "cells": cells}
            else:
                cells = {}
                for row in ("succeed", "fail"):
                    for col in ("C", "NC"):
                        prev, cur = pool_payoff_simple(config, col, row)
                        cells[f"{row}/{col}"] = f"{prev}+{cur}"
                entry["matrix"] = {"rows": ["succeed", "fail"], "cols": ["C", "NC"], "cells": cells}
        elif ctype == "outcome":
            outcome = game.run(_resolve_profile(game, profile_spec))
            entry["profile"] = profile_label
            entry["outcome"] = _outcome_json(outcome)
            trace_lines = outcome.trace.export_lines()
        elif ctype == "nash":
            result = verify_nash(
                game,
                _resolve_profile(game, profile_spec),
                coalition_bound=int(check.get("coalition_bound", 1)),
                max_joint_actions=max_joint_actions,
            )
            entry["profile"] = profile_label
            entry["equilibrium"] = _report_equilibrium(result)
        elif ctype == "spne":
            result = verify_spne(game, _resolve_profile(game, profile_spec), max_joint_actions)
            entry["profile"] = profile_label
            entry["equilibrium"] = _report_equilibrium(result)
        elif ctype == "dominance":
            from .equilibrium import dominance_check

            player = check.get("player")
            if player is None:
                player = game.players()[-1]
            verdict = dominance_check(
                game,
                player,
                check.get("action", "C"),
                check.get("candidates", ["C", "NC"]),
                check.get("conditions", ["succeed", "fail"]),
            )
            entry["dominance"] = verdict.value
        elif ctype == "dag-scenario":
            result = dag_security_scenario(
                config,
                check_ethereum_flip=bool(check.get("ethereum_flip", False)),
                max_joint_actions=max_joint_actions,
            )
            entry["equilibrium"] = _report_equilibrium(result.report)
            entry["outcome"] = _outcome_json(result.outcome)
            if result.ethereum_report is not None:
                entry["ethereum_equilibrium"] = _report_equilibrium(result.ethereum_report)
            trace_lines = result.outcome.trace.export_lines()
        else:
            raise ValidationError(f"unknown check type {ctype!r}")
        report["results"].append(entry)
    return _emit(doc, report, trace_lines, trace_path)


def _emit(doc: dict, report: dict, trace_lines: list[str], trace_path: Optional[str]) -> dict:
    if trace_path and trace_lines:
        Path(trace_path).write_text("\n".join(trace_lines) + "\n")
        report["trace_path"] = trace_path
    output = doc.get("output")
    if output:
        _reject_unknown(output, {"path", "format"}, "output")
        if output.get("path"):
            Path(output["path"]).write_text(
                render_report(report, output.get("format", "text"))
            )
    return report


# -- bundled scenarios -------------------------------------------------------


def bundled_scenarios() -> dict[str, str]:
    """Map of bundled scenario id -> resource text."""
    out = {}
    for entry in resources.files("reorglab.scenarios").iterdir():
        if entry.name.endswith(".json"):
            out[entry.name[: -len(".json")]] = entry.read_text()
    return out


def list_scenarios(user_dir: Optional[str] = None) -> list[tuple[str, str]]:
    """(id, one-line description) pairs, bundled plus user files, sorted."""
    docs: dict[str, dict] = {}
    for name, text in bundled_scenarios().items():
        docs[name] = json.loads(text)
    if user_dir:
        for path in sorted(Path(user_dir).glob("*.json")):
            docs[path.stem] = json.loads(path.read_text())
    out = []
    for name in sorted(docs):
        doc = docs[name]
        kind = doc.get("game", {}).get("kind", "?")
        checks = ",".join(c.get("type", "?") for c in doc.get("checks", []))
        out.append((name, f"{kind} game; checks: {checks or 'outcome'}"))
    return out


def _render_text(report: dict) -> str:
    lines = [f"scenario: {report['scenario']}  (seed {report['seed']})"]
    for entry in report.get("results", []):
        lines.append("")
        for key, value in entry.items():
            if key == "matrix" and isinstance(value, dict):
                lines.append("  matrix:")
                width = max(len(c) for c in value["cells"]) + 2
                for cell, payoff in value["cells"].items():
                    lines.append(f"    {cell:<{width}} {payoff}")
            elif key in ("equilibrium", "ethereum_equilibrium") and isinstance(value, dict):
                lines.append(f"  {key}: {value['verdict']}")
                for d in value["deviations"]:
                    lines.append(
                        f"    deviation: player {d['player']} -> {d['action']} "
                        f"gain {d['gain']}"
                    )
                for sub in value.get("subgames", []):
                    cells = "  ".join(f"{k}={v}" for k, v in sub["payoffs"].items())
                    lines.append(
                        f"    subgame slot {sub['slot']} {sub['role']} "
                        f"{sub['actor']}: {cells}"
                    )
            elif key == "outcome" and isinstance(value, dict):
                lines.append(
                    f"  outcome: success={value['success']} "
                    f"chain={value['final_chain']} reorged={value['reorged']}"
                )
                if "extras" in value:
                    for k, v in value["extras"].items():
                        lines.append(f"    {k}: {v}")
            elif key == "rows" and isinstance(value, list):
                for row in value:
                    lines.append("  " + "  ".join(f"{k}={v}" for k, v in row.items()))
            else:
                lines.append(f"  {key}: {value}")
    return "\n".join(lines) + "\n"


def render_report(report: dict, fmt: str = "text") -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    return _render_text(report)


def _run_one(args: tuple) -> tuple[str, dict]:
    path, seed, guard = args
    return path, run_scenario(path, seed, guard)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="reorglab")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario file or bundled id")
    p_run.add_argument("scenario")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--trace", default=None)
    p_run.add_argument("--format", choices=("text", "json"), default="text")
    p_run.add_argument("--max-joint-actions", type=int, default=10**6)
    p_run.add_argument("--out", default=None)

    p_list = sub.add_parser("list", help="list bundled and user scenarios")
    p_list.add_argument("--user-dir", default=None)

    p_batch = sub.add_parser("batch", help="run every scenario in a directory")
    p_batch.add_argument("directory")
    p_batch.add_argument("--jobs", type=int, default=2)
    p_batch.add_argument("--format", choices=("text", "json"), default="text")
    p_batch.add_argument("--seed", type=int, default=None)
    p_batch.add_argument("--max-joint-actions", type=int, default=10**6)

    p_ovh = sub.add_parser("overhead", help="print the overhead table")
    p_ovh.add_argument("--n-att", type=int, default=524)
    p_ovh.add_argument("--n-agg", type=int, nargs="+", default=[16, 128])

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            source = args.scenario
            bundled = bundled_scenarios()
            if source in bundled:
                import io

                source = io.StringIO(bundled[args.scenario])
            report = run_scenario(source, args.seed, args.max_joint_actions, args.trace)
            text = render_report(report, args.format)
            if args.out:
                Path(args.out).write_text(text)
            sys.stdout.write(text)
            return EXIT_OK
        if args.command == "list":
            for name, desc in list_scenarios(args.user_dir):
                sys.stdout.write(f"{name:<28} {desc}\n")
            return EXIT_OK
        if args.command == "batch":
            paths = sorted(str(p) for p in Path(args.directory).glob("*.json"))
            jobs = [(p, args.seed, args.max_joint_actions) for p in paths]
            with ProcessPoolExecutor(max_workers=max(1, args.jobs)) as pool:
                for path, report in pool.map(_run_one, jobs):
                    sys.stdout.write(render_report(report, args.format))
            return EXIT_OK
        if args.command == "overhead":
            grids = [{"n_att": args.n_att, "n_agg": a} for a in args.n_agg]
            report = {
                "scenario": "overhead",
                "seed": 0,
                "results": [_run_overhead({"grids": grids})],
            }
            sys.stdout.write(render_report(report, "text"))
            return EXIT_OK
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    except (ValidationError, GameError, KeyError) as exc:
        sys.stderr.write(f"validation error: {exc}\n")
        return EXIT_VALIDATION
    except ExplosionGuard as exc:
        sys.stderr.write(f"explosion guard: {exc}\n")
        return EXIT_GUARD
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
