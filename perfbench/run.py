"""reorglab benchmark: certify seeded scenario documents and report the cost.

    python3 perfbench/run.py --workload nash-wide --seed 1 --seconds 24 --trace 0

Run from anywhere; the program is imported from `src/` of the checkout this
file sits in, so nothing needs installing. With `--trace 0` the last line of
standard output is a JSON object holding every end-to-end metric; with
`--trace 1` it holds the per-layer metrics of a traced run instead. The lines
above it are a readable summary. Each run also leaves a record (machine,
Python, commit, seed, documents, report digests, failed documents) under
`.perfbench-out/` in the checkout.

The documents run in this process. The only other processes it starts are
the set-up samples' fresh interpreters and `git rev-parse`, one at a time,
each waited for, so the measured process never shares the cores with
another of ours.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

from measure import REFERENCE_NOMINAL_S, ROOT, import_cli, run_phase
from spans import Tracer
from workloads import WORKLOADS


def machine_record() -> dict:
    cpu_model = ""
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or None
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src" / "reorglab").rglob("*")):
        if path.suffix in (".py", ".json"):
            sources.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "git_commit": commit,
        "sources_sha256": sources.hexdigest(),
    }


def measure(workload: str, seed: int, seconds: float, trace: int, out_dir: Path) -> dict:
    """One workload run in this process; returns what the record and the metrics need."""
    cli = import_cli()
    out_dir.mkdir(parents=True, exist_ok=True)
    result: dict = {}
    if trace == 0:
        phases = [run_phase(cli, workload, seed, seconds=seconds, setup=True)]
        main_phase = phases[0]
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["setup_s"] = main_phase.setup_s
        result["setup_samples_s"] = main_phase.setup_seconds
        result["setup_reference_s"] = main_phase.setup_reference
    else:
        # the untraced half gives the baseline the tracing overhead is taken against
        plain = run_phase(cli, workload, seed, seconds=seconds / 2)
        tracer = Tracer()
        uninstall = tracer.install()
        try:
            traced = run_phase(cli, workload, seed, seconds=seconds / 2, tracer=tracer)
        finally:
            uninstall()
        phases = [plain, traced]
        main_phase = traced
        layers = tracer.layer_metrics(len(traced.records))
        layers["trace.certify_s"] = traced.certify_s
        layers["trace.overhead_s"] = traced.certify_s - plain.certify_s
        result["layers"] = layers
        result["untraced_certify_s"] = plain.certify_s
        result["spans"] = len(tracer.span_start)
        tracer.write(out_dir / "spans.tsv.gz")

    with open(out_dir / "reports.jsonl", "w") as out:
        for phase in phases:
            out.writelines(line + "\n" for line in phase.reports)
    result.update({
        "attempted": sum(len(p.records) for p in phases),
        "failed": sum(len(p.failures) for p in phases),
        "failures": [f for p in phases for f in p.failures],
        "documents": len(main_phase.records),
        "rounds": main_phase.rounds,
        "checked": main_phase.checked,
        "certify_s": main_phase.certify_s,
        "deviations_per_s": main_phase.deviations_per_s,
        "reports_sha256": main_phase.digest(),
        "documents_sha256": [r["sha256"] for r in main_phase.records],
        "kind_seconds": main_phase.kind_seconds,
        "kind_reference_s": main_phase.kind_reference,
        "wall": main_phase.wall_summary(),
    })
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "reorglab" / "cli.py").is_file():
        print(f"no reorglab sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    out_dir = ROOT / ".perfbench-out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **machine_record()}
    run = measure(args.workload, args.seed, args.seconds, args.trace, out_dir)
    record.update(run)

    attempted, failed = run["attempted"], run["failed"]
    if args.trace == 0:
        metrics = {
            "certify_s": (run["certify_s"], "s"),
            "deviations_per_s": (run["deviations_per_s"], "1/s"),
            "setup_s": (run["setup_s"], "s"),
            "peak_rss_mb": (run["peak_rss_mb"], "MB"),
            "success_rate": ((attempted - failed) / attempted, "ratio"),
        }
    else:
        metrics = {name: (value, _layer_unit(name)) for name, value in run["layers"].items()}
    record["metrics"] = {name: value for name, (value, _) in metrics.items()}
    with open(out_dir / "record.json", "w") as out:
        json.dump(record, out, indent=2, sort_keys=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"documents {run['documents']} in {run['rounds']} rounds  "
          f"checked {run['checked']}  attempted {attempted}  failed {failed}  "
          f"error_rate {failed / attempted:.4f}")
    print(f"machine {record['cpu_model']!r}  nproc {record['nproc']}  python {record['python']}  "
          f"commit {record['git_commit']}  reports sha256 {run['reports_sha256']}")
    wall = run["wall"]
    print(f"wall time per document kind: median {_seconds(wall['median_s'])}, fastest {_seconds(wall['min_s'])}; "
          f"reference {wall['reference_median_s'] * 1000:.2f} ms (nominal: {REFERENCE_NOMINAL_S * 1000:.2f} ms)")
    if args.trace == 1:
        print(f"tracing overhead {run['layers']['trace.overhead_s']:.4f} s per document "
              f"(traced {run['layers']['trace.certify_s']:.4f} s, "
              f"untraced {run['untraced_certify_s']:.4f} s)")
    for failure in run["failures"]:
        print(f"FAILED {failure['scenario']}: {'; '.join(failure['problems'])}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def _seconds(values: list[float]) -> str:
    return "/".join(f"{v:.3f}" for v in values) + " s"


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s/doc" if not name.startswith("trace.") else "s"
    if name.endswith(("_ratio", "_per_tip", "_per_write")):
        return "ratio"
    if name.endswith("_mean"):
        return "count"
    return "count/doc"


if __name__ == "__main__":
    sys.exit(main())
