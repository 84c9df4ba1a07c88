"""Self-test of the benchmark, on reduced-size variants of every workload.

    python3 perfbench/selftest.py

For each workload it checks that
  * every document passes the correctness gate;
  * two runs with one seed give identical counts and report digests, and a
    traced run gives the same digests as an untraced one;
  * two different seeds give the same sum of `checked`;
  * each per-layer metric is non-zero where its layer works on that workload,
    and zero where the layer is predicted idle, so a wrapper that stops
    matching after a rename fails here instead of reading 0;
  * the per-layer names the tracer reports are the ones BENCHMARK.json lists.
Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import sys

from spans import Tracer
from measure import ROOT, import_cli, run_phase
from workloads import WORKLOADS

ROUNDS = 2  # one round with pinned verdicts, one with overrides

# Per-layer metrics predicted to be zero, by name prefix; every other layer
# metric must be non-zero on that workload.
PREDICTED_ZERO = {
    "nash-wide": ("compliance.", "engine.messages.evidence", "rewards.timely_dag.", "tendermint."),
    "spne-deep": ("engine.messages.evidence", "rewards.timely_dag.", "tendermint."),
    "dag-wide": ("compliance.", "tendermint."),
    "tendermint-wide": ("games.", "engine.", "chain.", "compliance.", "rewards."),
}


def check_workload(cli, workload: str) -> list[str]:
    problems = []
    first = run_phase(cli, workload, 1, "small", rounds=ROUNDS)
    again = run_phase(cli, workload, 1, "small", rounds=ROUNDS)
    other = run_phase(cli, workload, 2, "small", rounds=ROUNDS)
    tracer = Tracer()
    uninstall = tracer.install()
    try:
        traced = run_phase(cli, workload, 1, "small", rounds=ROUNDS, tracer=tracer)
    finally:
        uninstall()

    for phase in (first, again, other, traced):
        for failure in phase.failures:
            problems.append(f"{failure['scenario']} failed: {'; '.join(failure['problems'])}")
    counts = lambda p: [(r["scenario"], r["checked"], r["sha256"]) for r in p.records]
    if counts(first) != counts(again):
        problems.append("two runs with seed 1 differ in counts or report digests")
    if counts(first) != counts(traced):
        problems.append("the traced run's reports differ from the untraced run's")
    if first.checked != other.checked:
        problems.append(f"seed 1 checked {first.checked} deviations, seed 2 {other.checked}")
    if [r["sha256"] for r in first.records] == [r["sha256"] for r in other.records]:
        problems.append("seeds 1 and 2 produced identical reports: the seed varies nothing")

    layers = tracer.layer_metrics(len(traced.records))
    for name, value in sorted(layers.items()):
        zero = name.startswith(PREDICTED_ZERO[workload])
        if zero and value != 0:
            problems.append(f"{name} = {value}, predicted zero")
        if not zero and value == 0:
            problems.append(f"{name} is zero, predicted non-zero")
    if workload == "spne-deep" and layers["equilibrium.distinct_profile_ratio"] != 1:
        problems.append("spne-deep re-simulates a profile: distinct_profile_ratio != 1")

    listed = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    reported = set(layers) | {"trace.certify_s", "trace.overhead_s"}
    if listed != reported:
        problems.append(f"BENCHMARK.json per_layer differs from the tracer: {sorted(listed ^ reported)}")
    return problems


def main() -> int:
    cli = import_cli()
    failed = False
    for workload in WORKLOADS:
        problems = check_workload(cli, workload)
        print(f"{workload:<16} {'ok' if not problems else 'FAILED'}")
        for problem in problems:
            print(f"    {problem}")
        failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
