"""Seeded scenario documents for the benchmark workloads, and the gate that
checks each report against what its document implies.

Every workload runs in rounds: one document of each kind it mixes, two kinds
for every workload but `dag-wide`, which has one. Which kinds a round holds,
and their sizes, are fixed per workload. Where a game takes a
profile, one document of each round carries no overrides, so its verdict is
the one the acceptance tests pin, and the other carries seeded per-actor
overrides, whose verdict is recorded but not pinned; the two kinds swap roles
from round to round.

The seed varies only inputs that leave the game size, the number of checked
deviations and the cost of a document nearly unchanged: which actors are
overridden and how, and integer reward units. Measured on the full sizes,
other inputs move the cost too much to be drawn from the seed: a base profile
whose attestors resolve `Tip()` costs several times more, a non-integer
reward unit makes every `Fraction` addition dearer by about a quarter, and
the tie-break and boost move an extended-game document by 10-30%. Those are
fixed per document kind.
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("nash-wide", "spne-deep", "dag-wide", "tendermint-wide")

# "full" is what the benchmark measures; "small" is the reduced variant the
# self-test runs. A size is the same for every seed.
SIZES = {
    "full": {
        "simple_w": 128, "selfish_w": 32, "ext_w": 4, "ext_p": 7,
        "dag_w": 17, "tm_f": 14, "tm_m": 3,
    },
    "small": {
        "simple_w": 8, "selfish_w": 4, "ext_w": 3, "ext_p": 3,
        "dag_w": 5, "tm_f": 3, "tm_m": 2,
    },
}

TIE_BREAK = "adversary-favoring"  # the attack analyses assume the adversary breaks ties

# the CLI runs the DAG-votes scenario over 4 slots, one of them led by the adversary
DAG_SLOTS = 4


def round_docs(workload: str, seed: int, index: int, scale: str = "full") -> list[dict]:
    """The documents of round `index`; the same arguments give the same documents."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}/{index}")
    size = SIZES[scale]
    odd = index % 2 == 1
    if workload == "nash-wide":
        docs = [_simple(rng, size, odd), _selfish(rng, size, not odd)]
    elif workload == "spne-deep":
        docs = [
            _extended(rng, size, "compliant-all", odd),
            _extended(rng, size, "extend-original-all", not odd),
        ]
    elif workload == "dag-wide":
        docs = [_dag(rng, size)]
    else:
        docs = [_withholding(rng, size), _anchor(rng, size)]
    for k, doc in enumerate(docs):
        doc["scenario"] = f"{workload}-s{seed}-r{index}-{k}"
        doc["seed"] = seed
    return docs


def _profile(base: str, overrides: list[dict]) -> dict:
    return {"base": base, "overrides": overrides}


def _simple(rng: random.Random, size: dict, overridden: bool) -> dict:
    W = size["simple_w"]
    overrides = []
    if overridden:
        # the slot-1 committee holds validators W..2W-1
        for actor in sorted(rng.sample(range(W, 2 * W), 2)):
            overrides.append({
                "slot": 1, "role": "attestor", "actor": actor,
                "action": rng.choice(("NC", "abstain")),
            })
    game = {
        "kind": "simple", "committee_size": W, "boost": round(0.4 * W),
        "tie_break": TIE_BREAK, "r": "1", "R": "1",
    }
    return {"game": game, "checks": [{"type": "nash", "profile": _profile("compliant-all", overrides)}]}


def _selfish(rng: random.Random, size: dict, overridden: bool) -> dict:
    W = size["selfish_w"]
    overrides = []
    if overridden:
        # 2 adversarial slots out of 4 put the players in slots 1 and 3;
        # slot s's committee holds validators s*W..(s+1)*W-1
        for slot in (1, 3):
            overrides.append({
                "slot": slot, "role": "attestor",
                "actor": rng.randrange(slot * W, (slot + 1) * W),
                "action": rng.choice(("NC", "abstain")),
            })
    game = {
        "kind": "selfish-mining", "committee_size": W, "boost": round(0.4 * W),
        "n_adversarial_slots": 2, "n_non_adversarial_slots": 2,
        "tie_break": TIE_BREAK, "r": "1", "R": "1",
    }
    return {"game": game, "checks": [{"type": "nash", "profile": _profile("compliant-all", overrides)}]}


def _extended(rng: random.Random, size: dict, base: str, overridden: bool) -> dict:
    W, p = size["ext_w"], size["ext_p"]
    overrides = []
    if overridden:
        # validators: (p+1)*W pre-game voters, then the slot 1..p committees,
        # then the slot 1..p leaders
        prescribed = "C" if base == "compliant-all" else "NC"
        for slot in sorted(rng.sample(range(1, p + 1), 2)):
            if rng.random() < 0.25:
                overrides.append({
                    "slot": slot, "role": "leader",
                    "actor": (p + 1) * W + p * W + slot - 1,
                    "action": "NC" if prescribed == "C" else "C",
                })
            else:
                overrides.append({
                    "slot": slot, "role": "attestor",
                    "actor": (p + 1) * W + (slot - 1) * W + rng.randrange(W),
                    "action": rng.choice([a for a in ("C", "NC", "abstain") if a != prescribed]),
                })
    game = {
        "kind": "extended", "committee_size": W, "horizon": p, "boost": W // 2,
        "tie_break": TIE_BREAK, "r": "1", "R": "1",
    }
    return {"game": game, "checks": [{"type": "spne", "profile": _profile(base, overrides)}]}


def _dag(rng: random.Random, size: dict) -> dict:
    W = size["dag_w"]
    game = {
        "kind": "dag-votes", "committee_size": W, "boost": 0, "tie_break": TIE_BREAK,
        "r": str(rng.randint(1, 4)), "R": str(rng.randint(1, 4)),
    }
    return {"game": game, "checks": [{"type": "dag-scenario", "ethereum_flip": True}]}


def _withholding(rng: random.Random, size: dict) -> dict:
    game = {
        "kind": "tendermint", "variant": "withholding",
        "f": size["tm_f"], "m": size["tm_m"], "r": str(rng.randint(1, 5)),
    }
    return {"game": game}


def _anchor(rng: random.Random, size: dict) -> dict:
    game = {"kind": "tendermint", "variant": "anchor", "f": size["tm_f"], "r": str(rng.randint(1, 5))}
    return {"game": game}


# -- correctness gate ---------------------------------------------------------


def expected_checked(doc: dict) -> list[int]:
    """Deviations each equilibrium entry of the report must have checked.

    Counted from the document alone, by the candidate sets the paper's games
    give each player, not through the program's own enumeration.
    """
    g = doc["game"]
    kind = g["kind"]
    if kind == "tendermint":
        f = g["f"]
        if g["variant"] == "withholding":
            m = g["m"]
            honest = min(m, f) if m > 0 else min(1, f)
            return [2 * (2 * f + 1 - honest)]  # rational players x {script, honest-r1}
        return [2 * f]  # f rational players x {prevote-b, prevote-nil}
    W = g["committee_size"]
    if kind == "simple":
        return [3 * W for _ in doc["checks"]]  # W solo attestors x {C, NC, abstain}
    if kind == "selfish-mining":
        return [3 * W * g["n_adversarial_slots"] for _ in doc["checks"]]
    if kind == "extended":
        # per slot: the leader's other action, and each rational attestor's
        # two other actions
        per_slot = 1 + 2 * (W - g.get("honest_per_slot", 0))
        return [g["horizon"] * per_slot for _ in doc["checks"]]
    if kind == "dag-votes":
        leaders = DAG_SLOTS - 1  # the adversarial leader is not a player
        attestors = (DAG_SLOTS - 1) * W  # the horizon committee is scripted
        return [leaders + 2 * attestors, 3 * W]  # SPNE, then the Ethereum flip
    raise ValueError(f"no gate for game kind {kind!r}")


def _equilibria(report: dict) -> list[dict]:
    out = []
    for entry in report["results"]:
        for key in ("equilibrium", "ethereum_equilibrium"):
            if key in entry:
                out.append(entry[key])
    return out


def checked_total(report: dict) -> int:
    return sum(e["checked"] for e in _equilibria(report))


def gate(doc: dict, report: dict) -> list[str]:
    """Problems with one rendered report; an empty list means it passed."""
    problems = []
    if report.get("scenario") != doc["scenario"]:
        problems.append(f"scenario {report.get('scenario')!r} != {doc['scenario']!r}")
    got = [e["checked"] for e in _equilibria(report)]
    want = expected_checked(doc)
    if got != want:
        problems.append(f"checked {got} != enumerated {want}")
    g = doc["game"]
    kind = g["kind"]
    pinned = not any(
        isinstance(c.get("profile"), dict) and c["profile"].get("overrides")
        for c in doc.get("checks", [])
    )
    results = report["results"]
    if kind == "simple" and pinned:
        for e in results:
            if e["equilibrium"]["verdict"] != "nash":
                problems.append(f"simple compliant-all verdict {e['equilibrium']['verdict']!r}")
    elif kind == "extended" and pinned:
        for e in results:
            if e["equilibrium"]["verdict"] != "spne":
                problems.append(f"extended {e['profile']} verdict {e['equilibrium']['verdict']!r}")
    elif kind == "dag-votes":
        e = results[0]
        if e["equilibrium"]["verdict"] != "spne":
            problems.append(f"DAG-votes verdict {e['equilibrium']['verdict']!r}")
        if e["ethereum_equilibrium"]["verdict"] != "not-equilibrium":
            problems.append(f"Ethereum flip verdict {e['ethereum_equilibrium']['verdict']!r}")
        extras = e["outcome"].get("extras", {})
        if not (extras.get("adversary_reorged") and extras.get("adversary_votes") == 0
                and extras.get("rational_blocks_reorged") == []):
            problems.append(f"hostile block did not die cleanly: {extras}")
    elif kind == "tendermint":
        e = results[0]
        if e["equilibrium"]["verdict"] != "nash":
            problems.append(f"tendermint {g['variant']} verdict {e['equilibrium']['verdict']!r}")
        if g["variant"] == "withholding":
            m, r = g["m"], Fraction(g["r"])
            if (e["stalled_rounds"], e["finalized_round"]) != (m, m + 1):
                problems.append(f"stalled {e['stalled_rounds']}, finalized {e['finalized_round']}")
            if Fraction(e["payoff_per_nonhonest"]) != r * m:
                problems.append(f"pack paid {e['payoff_per_nonhonest']}, not r*m = {r * m}")
        elif not (e["first_finalized_round"] == 1 and e["reorg_resilient"] and e["deviation_forfeits"]):
            problems.append("honest-led round did not finalize, or nil-prevote did not forfeit")
    return problems
