"""Scenario-file parsing, batch execution and report emission.

A scenario is a JSON document naming a game, a strategy profile and a list
of checks (matrix, pool-matrix, outcome, nash, spne, dominance,
dag-scenario).  The format is defined once, by the tables under "the
scenario format" below: each game kind lists the keys its game object reads
and the checks it supports, and each check type the keys it reads.  A key
that no table lists is rejected, and so is a value of the wrong type or out
of range.  Reports are deterministic given the scenario and can be emitted
as aligned text or JSON.  The scenario `seed` is recorded in the report but
is inert: nothing is drawn at random.

Exit codes: 0 success (including an attack that fails as expected),
2 parse error, 3 validation error, 4 explosion guard.
"""

from __future__ import annotations

import argparse
import io
import json
import re
import sys
from fractions import Fraction
from importlib import resources
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from .chain import TieBreakPolicy
from .engine import DecisionPoint, Role, RunTrace
from .equilibrium import ExplosionGuard, dag_security_scenario, verify_nash, verify_spne
from .games import (
    DagVotesGame,
    ExtendedGame,
    GameConfig,
    GameError,
    GameModel,
    NoBoostGame,
    PoolSpec,
    SelfishMiningGame,
    SimpleGame,
    StrongSimpleGame,
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

# errors that reject a scenario; anything else is a fault of the program
_REJECTED = (ParseError, ValidationError, GameError, ExplosionGuard)

FORMATS = ("text", "json")
DEFAULT_PROFILE = "compliant-all"


def _failure(exc: Exception) -> tuple[int, str]:
    """Exit code and stderr label of an error that rejects a scenario."""
    if isinstance(exc, ParseError):
        return EXIT_PARSE, "parse error"
    if isinstance(exc, ExplosionGuard):
        return EXIT_GUARD, "guard error"
    return EXIT_VALIDATION, "validation error"


# -- readers ------------------------------------------------------------------
#
# A reader takes one JSON value and the path it sits at, and returns the
# value the program takes, or raises ValidationError naming that path.

Reader = Callable[[object, str], object]

REQUIRED = object()  # the key must be present
_OMIT = object()  # an absent key is not passed on: the callee's default applies


class Key(NamedTuple):
    """One key of a JSON object: its reader and what its absence means."""

    read: Reader
    default: object = _OMIT  # REQUIRED, _OMIT, or the value an absent key takes
    arg: Optional[str] = None  # the parameter the value is passed as, if not the key
    requires: tuple[str, ...] = ()  # keys that must be present along with this one


def _int(low: Optional[int] = None) -> Reader:
    def read(value, where):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValidationError(f"{where} must be an integer, got {value!r}")
        if low is not None and value < low:
            raise ValidationError(f"{where} must be at least {low}, got {value}")
        return value

    return read


_RATIONAL = re.compile(r"\d+(/\d+|\.\d+)?")


def _rational(high: Optional[int] = None) -> Reader:
    """A non-negative rational: an integer, or a "p/q" or decimal string."""

    def read(value, where):
        if isinstance(value, bool) or not (
            isinstance(value, int) or isinstance(value, str) and _RATIONAL.fullmatch(value)
        ):
            raise ValidationError(
                f"{where} must be a non-negative integer or a 'p/q' string, got {value!r}"
            )
        try:
            out = Fraction(value)
        except ZeroDivisionError:
            raise ValidationError(f"{where} has a zero denominator: {value!r}") from None
        except ValueError as exc:  # more digits than int() converts
            raise ValidationError(f"{where}: {exc}") from None
        if out < 0:
            raise ValidationError(f"{where} must not be negative, got {value!r}")
        if high is not None and out > high:
            raise ValidationError(f"{where} must be at most {high}, got {value!r}")
        return out

    return read


def _bool(value, where) -> bool:
    if not isinstance(value, bool):
        raise ValidationError(f"{where} must be true or false, got {value!r}")
    return value


def _str(value, where) -> str:
    if not isinstance(value, str):
        raise ValidationError(f"{where} must be a string, got {value!r}")
    return value


def _player(value, where):
    """A player of a game: a validator index or a pool name."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValidationError(f"{where} must be a validator index or a pool name, got {value!r}")
    return value


def _enum(choices, parse: Callable[[str], object] = str) -> Reader:
    def read(value, where):
        if not isinstance(value, str) or value not in choices:
            raise ValidationError(f"{where} must be one of {sorted(choices)}, got {value!r}")
        return parse(value)

    return read


def _list(item: Reader, nonempty: bool = False) -> Reader:
    def read(value, where):
        if not isinstance(value, list):
            raise ValidationError(f"{where} must be a list, got {value!r}")
        if nonempty and not value:
            raise ValidationError(f"{where} must not be empty")
        return [item(v, f"{where}[{i}]") for i, v in enumerate(value)]

    return read


def _read_record(value, keys: dict[str, Key], where: str, what: Optional[str] = None) -> dict:
    """Read a JSON object whose keys are `keys`; returns the values by parameter name."""
    what = what or where
    if not isinstance(value, dict):
        raise ValidationError(f"{where or what} must be an object, got {value!r}")
    unknown = set(value) - set(keys)
    if unknown:
        raise ValidationError(f"unknown keys in {what}: {sorted(unknown)}")
    out = {}
    for key, spec in keys.items():
        if key in value:
            for other in spec.requires:
                if other not in value:
                    raise ValidationError(f"{what}: {key!r} requires {other!r}")
            out[spec.arg or key] = spec.read(value[key], f"{where}.{key}" if where else key)
        elif spec.default is REQUIRED:
            raise ValidationError(f"{what} requires {key!r}")
        elif spec.default is not _OMIT:
            out[spec.arg or key] = spec.default
    return out


def _record(keys: dict[str, Key], build: Callable[..., object] = dict) -> Reader:
    return lambda value, where: build(**_read_record(value, keys, where))


def _select(value, key: str, table: dict, where: str, what: str) -> tuple[str, dict]:
    """Split off the key of `value` that names a row of `table`."""
    if not isinstance(value, dict):
        raise ValidationError(f"{where} must be an object, got {value!r}")
    if key not in value:
        raise ValidationError(f"{what} requires {key!r}")
    name = _enum(table)(value[key], f"{where}.{key}")
    return name, {k: v for k, v in value.items() if k != key}


# -- profiles -----------------------------------------------------------------


class ProfileSpec(NamedTuple):
    """A named base profile, the overrides on top of it, and its report label."""

    base: str = DEFAULT_PROFILE
    overrides: tuple[dict, ...] = ()
    label: str = DEFAULT_PROFILE


_OVERRIDE = {
    "slot": Key(_int(), REQUIRED),
    "role": Key(_enum([r.value for r in Role], Role), default=Role.ATTESTOR),
    "actor": Key(_int()),
    "action": Key(_str, REQUIRED),
}
_PROFILE = {
    "base": Key(_str, default=DEFAULT_PROFILE),
    "overrides": Key(_list(_record(_OVERRIDE)), default=()),
}


def _profile(value, where) -> ProfileSpec:
    if isinstance(value, str):
        return ProfileSpec(value, (), value)
    if not isinstance(value, dict):
        raise ValidationError(f"{where} must be a profile name or an object, got {value!r}")
    spec = _read_record(value, _PROFILE, where)
    return ProfileSpec(spec["base"], tuple(spec["overrides"]), spec["base"] + "+overrides")


def _resolve_profile(game, spec: ProfileSpec):
    """Build a StrategyProfile from a base profile and its overrides.

    Overrides address decision points by slot and role (and optionally a
    specific actor index) and replace the base action with another candidate
    label, e.g. {"slot": 2, "role": "leader", "action": "NC"}; a later one wins.
    Each matches the runs of its slot and role's groups (`game.groups`), or
    its one actor, and the base profile takes every override in one
    `with_actions`.
    """
    assignment: dict = {}  # (slot, role, actors) -> label, in override order
    for override in spec.overrides:
        slot, role, label = override["slot"], override["role"], override["action"]
        actor = override.get("actor")
        matched = [actors if actor is None else range(actor, actor + 1)
                   for s, r, actors in game.groups
                   if s == slot and r is role and actors and (actor is None or actor in actors)]
        if not matched:
            raise ValidationError(
                f"override matches no decision point: slot {slot} {role.value}"
                + (f" actor {actor}" if actor is not None else "")
            )
        game.action(DecisionPoint(slot, role, matched[0].start), label)  # rejects a label it does not offer
        for actors in matched:
            assignment.pop((slot, role, actors), None)  # a later override wins
            assignment[slot, role, actors] = label
    return game.profile(spec.base).with_actions(assignment)


# -- report fragments ---------------------------------------------------------


def _matrix_json(matrix) -> dict:
    return {
        "rows": list(matrix.rows),
        "cols": list(matrix.cols),
        "cells": {f"{r}/{c}": str(matrix.values[(r, c)]) for r in matrix.rows for c in matrix.cols},
    }


def _report_equilibrium(report) -> dict:
    """The report's fields; a class's shared payoff table and gaining amounts are rendered once.

    The renderings are keyed by `id`: `report` holds every object keyed
    until this returns, so no id is reused meanwhile.
    """
    amounts: dict[tuple[int, int], dict] = {}  # ids of (baseline, deviated) -> their strings
    tables: dict[int, dict] = {}  # id of a payoff table -> its rendering
    deviations = []
    for d in report.deviations:
        key = id(d.baseline), id(d.deviated)
        if key not in amounts:
            amounts[key] = {"baseline": str(d.baseline), "deviated": str(d.deviated), "gain": str(d.gain)}
        deviations.append({"player": str(d.player), "action": d.label, **amounts[key]})
    subgames = []
    for e in report.subgame_table:
        if id(e.payoffs) not in tables:
            tables[id(e.payoffs)] = {k: str(v) for k, v in sorted(e.payoffs.items())}
        subgames.append({"slot": e.dp.slot, "role": e.dp.role.value, "actor": e.dp.actor,
                         "payoffs": tables[id(e.payoffs)]})
    return {"verdict": report.verdict.value, "deviations": deviations, "subgames": subgames,
            "checked": report.checked}


def _outcome_json(outcome) -> dict:
    texts: dict[int, str] = {}  # id of an amount -> its string; the sorted pairs hold every amount
    payoffs = {}
    for k, v in sorted(outcome.trace.payoffs.items()):
        if id(v) not in texts:
            texts[id(v)] = str(v)
        payoffs[str(k)] = texts[id(v)]
    out = {
        "success": outcome.success,
        "final_chain": list(outcome.final_chain),
        "reorged": list(outcome.reorged),
        "labels": dict(outcome.trace.labels),
        "payoffs": payoffs,
    }
    extras = {
        k: v for k, v in outcome.extras.items()
        if isinstance(v, (int, str, bool, list))
    }
    if extras:
        out["extras"] = extras
    return out


# -- the games that yield one fixed result ---------------------------------------
#
# Each takes the explosion-guard bound, plus the keys its kind reads, and
# returns its report fields.


def _run_withholding(guard, **params) -> dict:
    result = withholding_attack_scenario(**params, max_joint_actions=guard)
    return {
        "variant": "withholding",
        "stalled_rounds": result.stalled_rounds,
        "finalized_round": result.finalized_round,
        "payoff_per_nonhonest": str(result.payoff_per_nonhonest),
        "equilibrium": _report_equilibrium(result.report),
    }


def _run_anchor(guard, **params) -> dict:
    result = honest_anchor_scenario(**params, max_joint_actions=guard)
    return {
        "variant": "anchor",
        "first_finalized_round": result.first_finalized_round,
        "reorg_resilient": result.reorg_resilient,
        "deviation_forfeits": result.deviation_forfeits,
        "equilibrium": _report_equilibrium(result.report),
    }


_ATTACK_GAIN = ("mev_fail_eth", "mev_success_eth", "pool_share")


def _run_quantify(guard, **params) -> dict:
    gain = {k: params.pop(k) for k in _ATTACK_GAIN if k in params}
    inclusion = altair_block_inclusion_reward(**params)
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
    if gain:
        summary = attack_gain_summary(inclusion, **gain)
        result["attack_gain"] = {
            "delta_eth": round(summary.delta_eth, 6),
            "delta_pct": round(float(summary.delta_pct) * 100, 2),
            "pool_head_loss_eth": round(summary.pool_head_loss_eth, 6),
            "pool_net_eth": round(summary.pool_net_eth, 6),
        }
    return result


def _run_overhead(guard, grids: list[OverheadParams]) -> dict:
    return {
        "rows": overhead_grid(grids),
        "comm_overhead_bytes": aggregator_comm_overhead_bytes(grids[0]),
    }


_GRID = {"n_att": Key(_int(0)), "n_agg": Key(_int(0)), "n_limit": Key(_int(0))}


def _grid(value, where) -> OverheadParams:
    try:
        return OverheadParams(**_read_record(value, _GRID, where))
    except ValueError as exc:
        raise ValidationError(f"{where}: {exc}") from None


# -- checks ---------------------------------------------------------------------
#
# Each check takes the game and the explosion-guard bound, plus the keys it
# reads, and returns its report fields and the trace of the run
# it reports (None if it plays no single run).  The checks call the search
# functions through this module's globals, so a wrapper installed on them
# later sees every call.


def _check_matrix(game, guard):
    return {"matrix": _matrix_json(simple_payoff_matrix(game))}, None


def _check_pool_matrix(game, guard):
    # every cell is one conditioned run; a selfish-mining cell is the pool's settled total
    pool = game.config.pool
    if not pool:
        raise GameError("config carries no pool")
    cells = {}
    for row in ("succeed", "fail"):
        for col in ("C", "NC"):
            if isinstance(game, SelfishMiningGame):
                cells[f"{row}/{col}"] = str(game.conditioned_payoff(pool.name, col, row))
            else:
                prev, cur = pool_payoff_simple(game, col, row)
                cells[f"{row}/{col}"] = f"{prev}+{cur}"
    return {"matrix": {"rows": ["succeed", "fail"], "cols": ["C", "NC"], "cells": cells}}, None


def _check_outcome(game, guard, profile: ProfileSpec):
    outcome = game.run(_resolve_profile(game, profile))
    return {"profile": profile.label, "outcome": _outcome_json(outcome)}, outcome.trace


def _check_nash(game, guard, profile: ProfileSpec, **options):
    result = verify_nash(
        game, _resolve_profile(game, profile), max_joint_actions=guard, **options
    )
    return {"profile": profile.label, "equilibrium": _report_equilibrium(result)}, None


def _check_spne(game, guard, profile: ProfileSpec):
    result = verify_spne(game, _resolve_profile(game, profile), guard)
    return {"profile": profile.label, "equilibrium": _report_equilibrium(result)}, None


def _check_dominance(game, guard, action, candidates, player=None, **options):
    from .equilibrium import dominance_check

    # read as runs, not as `players()` or `points`: the last pool, else the last solo player
    if player is None:
        player = next(reversed(game.pools)) if game.pools else game._roster[-1][-1][-1]
    elif not game.is_player(player):
        raise ValidationError(f"dominance player {player!r} is not a player of this game")
    # every slot-t attestor has the same candidates; a label that is not one of
    # them is rejected even when no alternative would be played against it
    slot, role, actors = game.groups[0]
    for label in (action, *candidates):
        game.action(DecisionPoint(slot, role, actors.start), label)
    verdict = dominance_check(game, player, action, candidates, **options)
    return {"dominance": verdict.value}, None


def _check_dag(game, guard, **options):
    result = dag_security_scenario(game.config, max_joint_actions=guard, **options)
    fields = {
        "equilibrium": _report_equilibrium(result.report),
        "outcome": _outcome_json(result.outcome),
    }
    if result.ethereum_report is not None:
        fields["ethereum_equilibrium"] = _report_equilibrium(result.ethereum_report)
    return fields, result.outcome.trace


# -- the scenario format --------------------------------------------------------


class Check(NamedTuple):
    """A check type: the keys a check object reads besides its "type"."""

    keys: dict[str, Key]
    run: Callable[..., tuple[dict, Optional[RunTrace]]]


CHECKS: dict[str, Check] = {
    "matrix": Check({}, _check_matrix),
    "pool-matrix": Check({}, _check_pool_matrix),
    "outcome": Check({"profile": Key(_profile)}, _check_outcome),
    "nash": Check({"profile": Key(_profile), "coalition_bound": Key(_int(1))}, _check_nash),
    "spne": Check({"profile": Key(_profile)}, _check_spne),
    "dominance": Check(
        {
            "player": Key(_player),
            "action": Key(_str, default="C"),
            "candidates": Key(_list(_str), default=("C", "NC")),
            "conditions": Key(_list(_enum(("succeed", "fail")))),
        },
        _check_dominance,
    ),
    "dag-scenario": Check({"ethereum_flip": Key(_bool, arg="check_ethereum_flip")}, _check_dag),
}


class Kind(NamedTuple):
    """A game kind: the keys its game object reads and what a scenario runs.

    An engine game fills a GameConfig from its keys, plays it as the class
    `game` and runs the `checks` it supports; any other kind yields the one
    result `run` makes from the explosion-guard bound and its keys, and
    takes no checks.
    """

    keys: dict[str, Key]
    game: Optional[type[GameModel]] = None
    checks: tuple[str, ...] = ()
    run: Optional[Callable[..., dict]] = None


# the keys every engine game reads
_ENGINE = {
    "committee_size": Key(_int(1), REQUIRED),
    "boost": Key(_int(0)),
    "r": Key(_rational()),
    "R": Key(_rational()),
    "tie_break": Key(_enum([t.value for t in TieBreakPolicy], TieBreakPolicy)),
}
_POOL = Key(_record({"members_per_slot": Key(_int(1), REQUIRED), "name": Key(_str)}, PoolSpec))
_SIMPLE = {**_ENGINE, "pool": _POOL, "credibility_assumed": Key(_bool)}
_PLAY = ("outcome", "nash", "spne")  # checks that play profiles of any engine game
_TM_F = Key(_int(1), REQUIRED)
_TM_R = Key(_rational(), arg="r_unit")

# kind -> Kind, or -> {variant -> Kind} for a kind whose variants read different keys
KINDS: dict[str, Kind | dict[str, Kind]] = {
    "simple": Kind(_SIMPLE, SimpleGame, ("matrix", "pool-matrix", *_PLAY, "dominance")),
    "strong-simple": Kind(
        {**_SIMPLE, "epoch_length": Key(_int(1))},
        StrongSimpleGame, ("matrix", *_PLAY, "dominance"),
    ),
    "simple-no-boost": Kind(_ENGINE, NoBoostGame, _PLAY),
    "extended": Kind(
        {**_ENGINE, "horizon": Key(_int(1)), "honest_per_slot": Key(_int(0))},
        ExtendedGame, _PLAY,
    ),
    "selfish-mining": Kind(
        {**_ENGINE, "pool": _POOL, "n_adversarial_slots": Key(_int(0)),
         "n_non_adversarial_slots": Key(_int(1), REQUIRED),
         "allow_condition_violation": Key(_bool)},
        SelfishMiningGame, ("pool-matrix", *_PLAY),
    ),
    "dag-votes": Kind(
        {**_ENGINE, "adversary_on_tip": Key(_bool)},
        DagVotesGame, ("dag-scenario", *_PLAY),
    ),
    "tendermint": {
        "withholding": Kind(
            {"f": _TM_F, "m": Key(_int(0), REQUIRED), "r": _TM_R}, run=_run_withholding
        ),
        "anchor": Kind({"f": _TM_F, "r": _TM_R}, run=_run_anchor),
    },
    "quantify": Kind(
        {
            "n_validators": Key(_int(1), REQUIRED),
            "stake_gwei": Key(_int(1), arg="stake_per_validator_gwei"),
            "mev_fail_eth": Key(_rational(), requires=("mev_success_eth",)),
            "mev_success_eth": Key(_rational(), requires=("mev_fail_eth",)),
            "pool_share": Key(_rational(high=1), requires=("mev_fail_eth",)),
        },
        run=_run_quantify,
    ),
    "overhead": Kind(
        {"grids": Key(_list(_grid, nonempty=True), default=(OverheadParams(),))},
        run=_run_overhead,
    ),
}


def _game(value, where) -> tuple[str, Kind, dict]:
    """The game object: its name for messages, its Kind and its read keys."""
    name, rest = _select(value, "kind", KINDS, where, where)
    kind = KINDS[name]
    if isinstance(kind, dict):
        variant, rest = _select(rest, "variant", kind, where, f"{name} game")
        name, kind = f"{name} {variant}", kind[variant]
    return name, kind, _read_record(rest, kind.keys, where, f"{name} game")


def _check(value, where) -> tuple[str, dict]:
    ctype, rest = _select(value, "type", CHECKS, where, where)
    return ctype, _read_record(rest, CHECKS[ctype].keys, where, f"{ctype} check")


_SCENARIO = {
    "scenario": Key(_str, REQUIRED),
    "game": Key(_game, REQUIRED),
    "profile": Key(_profile),
    "checks": Key(_list(_check, nonempty=True)),
    "seed": Key(_int(), default=0),
    "output": Key(_record({"path": Key(_str, REQUIRED), "format": Key(_enum(FORMATS), arg="fmt")})),
}


class Scenario(NamedTuple):
    """A scenario document as read through the format tables."""

    name: str
    kind: Kind
    params: dict  # the game keys, by the parameter each is passed as
    checks: list[tuple[str, dict]]  # (check type, its keys), in document order
    seed: int
    output: Optional[dict]


def validate_scenario(doc: dict) -> Scenario:
    """Read `doc` through the format tables, or raise ValidationError."""
    fields = _read_record(doc, _SCENARIO, "", "scenario")
    title, kind, params = fields["game"]
    if kind.run is not None:
        for key in ("profile", "checks"):
            if key in fields:
                raise ValidationError(f"a {title} game takes no {key!r}")
        checks = []
    else:
        profile = fields.get("profile", ProfileSpec())
        profile_read = False
        checks = fields.get("checks", [("outcome", {})])
        for ctype, options in checks:
            if ctype not in kind.checks:
                raise ValidationError(f"check {ctype!r} does not apply to a {title} game")
            if "profile" in CHECKS[ctype].keys and "profile" not in options:
                options["profile"] = profile
                profile_read = True
        if "profile" in fields and not profile_read:
            raise ValidationError("the scenario 'profile' is read by no check")
    return Scenario(fields["scenario"], kind, params, checks, fields["seed"], fields.get("output"))


def load_scenario(source) -> dict:
    if isinstance(source, (str, Path)):
        try:
            text = Path(source).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ParseError(f"cannot read scenario file: {exc}") from exc
    else:
        text = source.read()
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError: bad JSON, or an integer too long
        raise ParseError(f"scenario is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("scenario must be a JSON object")
    try:  # a lone surrogate could be neither printed nor written as UTF-8
        json.dumps(doc, ensure_ascii=False).encode()
    except UnicodeEncodeError as exc:
        raise ParseError(f"scenario holds a lone surrogate {exc.object[exc.start:exc.end]!r}") from None
    return doc


def run_scenario(
    source, max_joint_actions: int = 10**6, trace_path: Optional[str] = None
) -> dict:
    """Execute one scenario document and return its report dict."""
    scenario = validate_scenario(load_scenario(source))
    report: dict = {"scenario": scenario.name, "seed": scenario.seed, "results": []}
    trace: Optional[RunTrace] = None
    kind = scenario.kind
    if kind.run is not None:
        report["results"].append(kind.run(max_joint_actions, **scenario.params))
    else:
        game = kind.game(GameConfig(**scenario.params))
        for ctype, options in scenario.checks:
            fields, run_trace = CHECKS[ctype].run(game, max_joint_actions, **options)
            report["results"].append({"check": ctype, **fields})
            if run_trace is not None:
                trace = run_trace
    return _emit(scenario, report, trace, trace_path)


def _emit(scenario: Scenario, report: dict, trace: Optional[RunTrace], trace_path: Optional[str]) -> dict:
    if trace_path and trace is not None:
        _write(trace_path, "\n".join(trace.export_lines()) + "\n", "trace")
        report["trace_path"] = trace_path
    if scenario.output is not None:
        options = dict(scenario.output)
        path = options.pop("path")
        _write(path, render_report(report, **options), "output")
    return report


def _write(path, text: str, what: str) -> None:
    """Write `text` to the file at `path`; a path that cannot be written rejects the run."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ValidationError(f"cannot write the {what} file: {exc}") from None


# -- bundled scenarios -------------------------------------------------------


def bundled_scenarios() -> dict[str, str]:
    """Map of bundled scenario id -> resource text."""
    out = {}
    for entry in resources.files("reorglab.scenarios").iterdir():
        if entry.name.endswith(".json"):
            out[entry.name[: -len(".json")]] = entry.read_text()
    return out


def _describe(doc: dict) -> str:
    """One line naming a document's game kind and checks, read leniently."""
    game = doc.get("game")
    kind = game.get("kind", "?") if isinstance(game, dict) else "?"
    spec = KINDS.get(kind) if isinstance(kind, str) else None
    if isinstance(spec, dict) or (spec is not None and spec.run is not None):
        return f"{kind} game"  # a kind that takes no checks
    checks = doc.get("checks")
    types = [
        str(c.get("type", "?")) if isinstance(c, dict) else "?"
        for c in (checks if isinstance(checks, list) else [])
    ]
    return f"{kind} game; checks: {','.join(types) or 'outcome'}"


def list_scenarios(user_dir: Optional[str] = None) -> list[tuple[str, str]]:
    """(id, one-line description) pairs, bundled plus user files, sorted.

    A user file that is not a JSON object is skipped and named on stderr; a
    `user_dir` that is not a directory is a `ParseError`, as for `batch`.
    """
    docs: dict[str, dict] = {}
    for name, text in bundled_scenarios().items():
        docs[name] = json.loads(text)
    if user_dir:
        directory = Path(user_dir)
        if not directory.is_dir():
            raise ParseError(f"{directory} is not a directory")
        for path in sorted(directory.glob("*.json")):
            try:
                docs[path.stem] = load_scenario(path)
            except ParseError as exc:
                sys.stderr.write(f"{path}: skipped: {exc}\n")
    return [(name, _describe(docs[name])) for name in sorted(docs)]


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


_STR_KEYS = {str}


def _json(value, pad: str) -> str:
    """`json.dumps(value, indent=2, sort_keys=True)` nested after `pad` (a newline and indent), by joins.

    Strings, exact ints, bools, None, lists and dicts with `str` keys are
    built here; anything else is `json.dumps`'s own text, re-indented.
    """
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool or value is None:
        return "null" if value is None else "true" if value else "false"
    if not value and (kind is list or kind is dict):
        return "[]" if kind is list else "{}"
    inner = pad + "  "
    if kind is list:
        return "[" + inner + ("," + inner).join([_json(v, inner) for v in value]) + pad + "]"
    if kind is dict and set(map(type, value)) == _STR_KEYS:
        return "{" + inner + ("," + inner).join([
            encode_basestring_ascii(k) + ": " + _json(value[k], inner) for k in sorted(value)]) + pad + "}"
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", pad)


def render_report(report: dict, fmt: str = "text") -> str:
    """The report as aligned text, or as exactly `json.dumps(report, indent=2, sort_keys=True)` and a newline."""
    if fmt == "json":
        return _json(report, "\n") + "\n"
    return _render_text(report)


def _run_one(args: tuple) -> tuple[int, str]:
    """One batch file: (0, its rendered report) or (exit code, a line for stderr)."""
    path, guard, fmt = args
    try:
        return EXIT_OK, render_report(run_scenario(path, guard), fmt)
    except _REJECTED as exc:
        code, label = _failure(exc)
        return code, f"{path}: {label}: {exc}\n"


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="reorglab")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario file or bundled id")
    p_run.add_argument("scenario")
    p_run.add_argument("--trace", default=None)
    p_run.add_argument("--format", choices=FORMATS, default="text")
    p_run.add_argument("--max-joint-actions", type=int, default=10**6)
    p_run.add_argument("--out", default=None)

    p_list = sub.add_parser("list", help="list bundled and user scenarios")
    p_list.add_argument("--user-dir", default=None)

    p_batch = sub.add_parser("batch", help="run every scenario in a directory")
    p_batch.add_argument("directory")
    p_batch.add_argument("--jobs", type=int, default=2)
    p_batch.add_argument("--format", choices=FORMATS, default="text")
    p_batch.add_argument("--max-joint-actions", type=int, default=10**6)

    args = parser.parse_args(argv)
    if getattr(args, "max_joint_actions", 0) < 0:
        parser.error(f"--max-joint-actions must be at least 0, got {args.max_joint_actions}")
    if getattr(args, "jobs", 1) < 1:
        parser.error(f"--jobs must be at least 1, got {args.jobs}")
    try:
        if args.command == "run":
            source = args.scenario
            bundled = bundled_scenarios()
            if source in bundled:
                source = io.StringIO(bundled[args.scenario])
            report = run_scenario(source, args.max_joint_actions, args.trace)
            if args.trace and "trace_path" not in report:
                raise ValidationError(
                    f"no trace written to {args.trace}: no check of this scenario plays a single run"
                )
            text = render_report(report, args.format)
            if args.out:
                _write(args.out, text, "output")
            sys.stdout.write(text)
            return EXIT_OK
        if args.command == "list":
            for name, desc in list_scenarios(args.user_dir):
                sys.stdout.write(f"{name:<28} {desc}\n")
            return EXIT_OK
        if args.command == "batch":
            directory = Path(args.directory)
            paths = sorted(str(p) for p in directory.glob("*.json"))
            if not paths:
                what = "holds no *.json scenario file" if directory.is_dir() else "is not a directory"
                raise ParseError(f"{directory} {what}")
            jobs = [(p, args.max_joint_actions, args.format) for p in paths]
            worst = EXIT_OK
            # imported here, so that no other command loads multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            # the fork start method launches every worker at the first submit
            with ProcessPoolExecutor(max_workers=min(args.jobs, len(paths))) as pool:
                for code, text in pool.map(_run_one, jobs):
                    (sys.stderr if code else sys.stdout).write(text)
                    worst = max(worst, code)
            return worst
    except _REJECTED as exc:
        code, label = _failure(exc)
        sys.stderr.write(f"{label}: {exc}\n")
        return code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
