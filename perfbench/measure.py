"""Timed loops over seeded documents, and the set-up samples.

Documents go one at a time through the user's entry point,
`reorglab.cli.run_scenario` then `render_report(..., "json")`: a closed loop
with one client, in one process and one thread. Only that pair is timed;
generating a document and checking its report happen outside the timed
region. `run.py` and `selftest.py` drive these loops.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from spans import Tracer
from workloads import checked_total, gate, round_docs

ROOT = Path(__file__).resolve().parent.parent
_clock = time.perf_counter

MIN_SETUP_SAMPLES = 5

# A fixed scale for the reported seconds, not a figure to update: a document's
# wall time is divided by the reference work's time around it and multiplied
# by this. It is the reference's time on a quiet stretch of a 2-core Xeon KVM
# guest under Python 3.11.7; on a busier host the reference runs slower (7-13
# ms on the same guest at other times), so the reported seconds read below
# wall seconds. Each run records the reference times it saw
# (`wall.reference_median_s`), which turn its figures back into wall seconds.
REFERENCE_NOMINAL_S = 0.0065

# What every CLI call pays: a fresh interpreter importing the package and
# running its first scenario. Timed inside the child, from its first line.
SETUP_CODE = """
import time
t0 = time.perf_counter()
import io
import reorglab
import reorglab.cli as cli
cli.render_report(cli.run_scenario(io.StringIO(cli.bundled_scenarios()["simple-table1"])), "json")
elapsed = time.perf_counter() - t0
print(reorglab.__file__)
print(repr(elapsed))
"""


def import_cli():
    """Import `reorglab.cli` from the checkout's own sources, never an installed copy."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import reorglab.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"reorglab was imported from {cli.__file__}, not from {src}")
    return cli


@dataclass
class Phase:
    """What one timed loop did, document by document.

    Documents are grouped by their position in the round: position k of
    every round is the same kind of document at the same size.

    The host is shared, and other tenants slow whole stretches of a run, by
    up to a factor of two for tens of seconds. So each document is bracketed
    by a fixed reference workload, and its wall time is divided by the
    reference's time around it. The quotient, times REFERENCE_NOMINAL_S, is
    the document's time in reference-normalised seconds. A slower program
    moves the quotient; a busier host moves both terms.
    """

    kind_seconds: list[list[float]] = field(default_factory=list)
    kind_reference: list[list[float]] = field(default_factory=list)
    kind_checked: list[int] = field(default_factory=list)
    rounds: int = 0
    checked: int = 0
    records: list[dict] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)
    reports: list[str] = field(default_factory=list)
    setup_seconds: list[float] = field(default_factory=list)
    setup_reference: list[float] = field(default_factory=list)

    def add_setup_sample(self) -> None:
        before = reference_seconds()
        self.setup_seconds.append(setup_sample())
        self.setup_reference.append((before + reference_seconds()) / 2)

    @property
    def setup_s(self) -> float:
        """Median set-up time over the samples, reference-normalised like the documents."""
        return REFERENCE_NOMINAL_S * statistics.median(
            t / r for t, r in zip(self.setup_seconds, self.setup_reference))

    def _kind_costs(self) -> list[float]:
        """Per kind, the median document time in reference-normalised seconds."""
        return [
            REFERENCE_NOMINAL_S * statistics.median(t / r for t, r in zip(times, refs))
            for times, refs in zip(self.kind_seconds, self.kind_reference)
        ]

    @property
    def certify_s(self) -> float:
        """Mean over the kinds of document of their median time, in reference-normalised seconds."""
        costs = self._kind_costs()
        return sum(costs) / len(costs)

    @property
    def deviations_per_s(self) -> float:
        return sum(self.kind_checked) / sum(self._kind_costs())

    def wall_summary(self) -> dict:
        """The raw wall times, per kind, for the record."""
        return {
            "median_s": [statistics.median(t) for t in self.kind_seconds],
            "min_s": [min(t) for t in self.kind_seconds],
            "reference_median_s": statistics.median(r for refs in self.kind_reference for r in refs),
        }

    def digest(self) -> str:
        """sha256 over the per-document report digests, in order."""
        return hashlib.sha256("".join(r["sha256"] for r in self.records).encode()).hexdigest()


def reference_seconds() -> float:
    """Time a fixed piece of the interpreter work reorglab does most.

    Exact rational sums and dict updates, with the collector paused so the
    program's heap cannot change the result.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = _clock()
        total, counts = Fraction(0), {}
        for i in range(4000):
            total += Fraction(1)
            counts[i % 97] = counts.get(i % 97, 0) + 1
        return _clock() - t0
    finally:
        if enabled:
            gc.enable()


def run_phase(cli, workload: str, seed: int, scale: str = "full",
              seconds: float | None = None, rounds: int | None = None,
              tracer: Tracer | None = None, setup: bool = False) -> Phase:
    """Run whole rounds until `seconds` have passed, or exactly `rounds` of them.

    With `setup`, one set-up sample is taken after each round, outside the
    document timing, so the samples span the run as the documents do.
    """
    phase = Phase()
    start = _clock()
    index = 0
    while index < rounds if rounds is not None else (index == 0 or _clock() - start < seconds):
        docs = round_docs(workload, seed, index, scale)
        if not phase.kind_seconds:
            phase.kind_seconds = [[] for _ in docs]
            phase.kind_reference = [[] for _ in docs]
            phase.kind_checked = [0 for _ in docs]
        for kind, doc in enumerate(docs):
            text = json.dumps(doc, sort_keys=True)
            rendered, error = None, None
            before = reference_seconds()
            t0 = _clock()
            try:
                rendered = cli.render_report(cli.run_scenario(io.StringIO(text)), "json")
            except Exception as exc:  # a failed document is counted, never dropped
                error = f"{type(exc).__name__}: {exc}"
            elapsed = _clock() - t0
            after = reference_seconds()
            if tracer is not None:
                tracer.end_document()
            # every document of a kind checks the same count; a failed one reports 0
            phase.kind_checked[kind] = max(phase.kind_checked[kind], _check(phase, doc, rendered, error, elapsed))
            phase.kind_seconds[kind].append(elapsed)
            phase.kind_reference[kind].append((before + after) / 2)
        phase.rounds += 1
        index += 1
        if setup:
            phase.add_setup_sample()
    while setup and len(phase.setup_seconds) < MIN_SETUP_SAMPLES:
        phase.add_setup_sample()
    return phase


def setup_sample() -> float:
    """One fresh interpreter's set-up time; the caller waits for it to exit."""
    src = (ROOT / "src").resolve()
    done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60, check=True)
    path, elapsed = done.stdout.split()[-2:]
    if not Path(path).resolve().is_relative_to(src):
        raise SystemExit(f"reorglab was imported from {path}, not from {src}")
    return float(elapsed)


def _check(phase: Phase, doc: dict, rendered: str | None, error: str | None, elapsed: float) -> int:
    """Gate one report outside the timed region; returns its summed `checked`.

    Anything wrong with the report, a missing field included, is a problem
    of that document: it is counted and kept with its text, never raised.
    """
    checked, digest, problems = 0, "", []
    if error is not None:
        problems.append(error)
    else:
        digest = hashlib.sha256(rendered.encode()).hexdigest()
        try:
            report = json.loads(rendered)
            problems = gate(doc, report)
            checked = checked_total(report)
        except Exception as exc:
            problems.append(f"malformed report: {type(exc).__name__}: {exc}")
            report = rendered
        phase.reports.append(json.dumps({"scenario": doc["scenario"], "sha256": digest, "report": report},
                                        sort_keys=True))
    phase.checked += checked
    phase.records.append({"scenario": doc["scenario"], "seconds": elapsed, "checked": checked,
                          "sha256": digest})
    if problems:
        phase.failures.append({"scenario": doc["scenario"], "problems": problems, "document": doc})
    return checked
