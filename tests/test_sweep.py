"""Sweep gate: every small engine document reports or is rejected, the same way each time.

The sweep crosses every engine game kind with each check type (and with no
`checks` key, which runs the default outcome check), committee sizes 1, 2
and 3, boosts 0, 1 and 3, and documents with and without a pool.  Most
crossings are invalid on purpose: a check the kind does not take, a pool
the kind does not read, a boost the game rejects.  Each document must
either yield a report or raise one of the errors the CLI turns into exit
code 2, 3 or 4; anything else is a traceback.  The combined digest of what
the sweep produced (each rendered report, or each rejection's exit code and
message) is pinned, so a refactor that changes any report or any rejection
shows here.  To print the digest of the tree at hand, run

    PYTHONPATH=src python tests/test_sweep.py
"""

import hashlib
import io
import itertools
import json
import sys

from reorglab.cli import CHECKS, KINDS, _REJECTED, _failure, render_report, run_scenario

SWEEP_DIGEST = "662635637e61e1a20139c3a9ab18a15530ca6c38380ffb7035ca416725aa8694"

# the keys beyond committee size, boost and pool that each engine kind's sweep sets
_KIND_KEYS = {
    "simple": {},
    "strong-simple": {"epoch_length": 4},
    "simple-no-boost": {},
    "extended": {"horizon": 2},
    "selfish-mining": {"n_adversarial_slots": 2, "n_non_adversarial_slots": 1},
    "dag-votes": {},
}


def sweep() -> dict[str, dict]:
    """Each sweep document by a name that spells its crossing."""
    engine = sorted(name for name, kind in KINDS.items() if getattr(kind, "game", None))
    assert engine == sorted(_KIND_KEYS)
    docs = {}
    for kind, check, W, boost, pool in itertools.product(
        engine, [None, *sorted(CHECKS)], (1, 2, 3), (0, 1, 3), (False, True)
    ):
        game = {"kind": kind, "committee_size": W, "boost": boost, **_KIND_KEYS[kind]}
        if pool:
            game["pool"] = {"members_per_slot": 1}
        doc = {"scenario": "sweep", "game": game}
        if check is not None:
            doc["checks"] = [{"type": check}]
        docs[f"{kind}/{check}/W{W}/b{boost}/{'pool' if pool else 'solo'}"] = doc
    return docs


def outcome(doc: dict) -> str:
    """The document's rendered JSON report, or its exit code and message if rejected."""
    try:
        return render_report(run_scenario(io.StringIO(json.dumps(doc))), "json")
    except _REJECTED as exc:
        code, label = _failure(exc)
        assert code in (2, 3, 4)
        return f"exit {code}: {label}: {exc}\n"


def digest() -> str:
    combined = hashlib.sha256()
    for name, doc in sorted(sweep().items()):
        combined.update(f"{name}\n{outcome(doc)}".encode())
    return combined.hexdigest()


def test_sweep_reports_or_rejects_and_holds_its_digest():
    assert len(sweep()) == 6 * 8 * 3 * 3 * 2
    assert digest() == SWEEP_DIGEST


if __name__ == "__main__":
    sys.stdout.write(digest() + "\n")
