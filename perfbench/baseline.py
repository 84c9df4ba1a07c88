"""Measure a baseline: every workload on ten seeds, twice, plus one traced run each.

    python3 perfbench/baseline.py --out perfbench/baseline.json

Runs `run.py` one workload run at a time, never two at once. The first set
of ten seeds gives the median and quartiles of every end-to-end metric per
workload, the spread of each (quartile distance over median), the report
digests of every run and the reference times each run saw. A second set of
the same seeds, measured right after, is stored as `repeat` with each
median's shift from the first set. Last comes the per-layer table of one
traced run per workload. A later commit measured the same way is compared
metric by metric against this file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from measure import REFERENCE_NOMINAL_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SEEDS = range(1, 11)

NOTE = ("First measured baseline of the benchmark. It supersedes the 'Baseline' anchors in ROADMAP.md, "
        "which were single unrepeated runs of direct API calls. certify_s and setup_s are "
        "reference-normalised seconds (see perfbench/README.md); reference_median_s holds the reference "
        "times the runs saw, which turn them back into wall seconds.")

REPEAT_NOTE = ("A second set of the same seeds, measured right after the first with the same benchmark. "
               "shift is the median's change from the first set, as a share of the first median.")


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".perfbench-out" / f"{workload}-seed{seed}-trace{trace}" / "record.json").read_text())
    return result, record


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def seed_set(workload: str, seconds: int) -> tuple[dict, list[dict], dict, dict]:
    """Ten untraced runs, one per seed: metric summaries, per-run facts, per-document
    report digests by seed, and the machine."""
    metrics, runs, documents = {}, [], {}
    for seed in SEEDS:
        result, record = run(workload, seed, seconds, 0)
        for metric, m in result["metrics"].items():
            metrics.setdefault(metric, []).append(m["value"])
        runs.append({"seed": seed, "documents": record["documents"], "rounds": record["rounds"],
                     "attempted": result["attempted"], "failed": result["failed"],
                     "checked": record["checked"], "reports_sha256": record["reports_sha256"],
                     "reference_median_s": record["wall"]["reference_median_s"]})
        documents[seed] = record["documents_sha256"]
        print(f"{workload} seed {seed}: " + ", ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)
    machine = {k: record[k] for k in ("nproc", "cpu_model", "python", "git_commit", "sources_sha256")}
    return {metric: summary(values) for metric, values in metrics.items()}, runs, documents, machine


def same_reports(first: dict, second: dict) -> bool:
    """Whether every document both sets ran gave the same report; runs differ only in length."""
    return all(a[:len(b)] == b[:len(a)] for a, b in ((first[s], second[s]) for s in first))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]

    workloads, documents = {}, {}
    for w in bench["workloads"]:
        end_to_end, runs, documents[w["name"]], machine = seed_set(w["name"], seconds)
        workloads[w["name"]] = {
            "why": w["why"],
            "end_to_end": end_to_end,
            "reference_median_s": statistics.median(r["reference_median_s"] for r in runs),
            "runs": runs,
        }
    repeat = {}
    for name in names:
        end_to_end, runs, again, _ = seed_set(name, seconds)
        for metric, s in end_to_end.items():
            first = workloads[name]["end_to_end"][metric]["median"]
            s["shift"] = (s["median"] - first) / first
        repeat[name] = {"end_to_end": end_to_end,
                        "same_reports": same_reports(documents[name], again),
                        "reference_median_s": statistics.median(r["reference_median_s"] for r in runs)}
    for name in names:
        traced, record = run(name, SEEDS[0], seconds, 1)
        workloads[name]["traced"] = {"seed": SEEDS[0], "documents": record["documents"],
                                     "untraced_certify_s": record["untraced_certify_s"],
                                     "per_layer": {k: v["value"] for k, v in traced["metrics"].items()}}
    out = {
        "note": NOTE,
        "machine": machine,
        "reference_nominal_s": REFERENCE_NOMINAL_S,
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "workloads": workloads,
        "repeat": {"note": REPEAT_NOTE, "workloads": repeat},
    }
    args.out.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
