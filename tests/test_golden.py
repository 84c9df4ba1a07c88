"""Golden gate: reports and traces that must stay byte-identical.

Each document below runs through `run_scenario` with a trace path; the
sha256 of its `render_report(..., "json")` text (without the run-specific
`trace_path` key) and of its trace file must match the recorded digests.
The documents are the bundled scenarios plus one per game kind and option
that no bundled scenario reaches.  A digest may change only together with a
deliberate change to what a run produces.  To print fresh ones, and name
each document whose digests differ from `GOLDEN` (exit status 1 if any), run

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import io
import json
import sys

import pytest

from reorglab.cli import EXIT_VALIDATION, bundled_scenarios, main, render_report, run_scenario

EXTRA = {
    "golden-nb-compliant": {
        "game": {"kind": "simple-no-boost", "committee_size": 4, "boost": 0},
        "checks": [{"type": "outcome", "profile": "compliant-all"},
                   {"type": "nash", "profile": "compliant-all"}],
    },
    "golden-nb-vote-bt-lexicographic": {
        "game": {"kind": "simple-no-boost", "committee_size": 4, "boost": 0,
                 "tie_break": "lexicographic"},
        "checks": [{"type": "outcome", "profile": "vote-bt-all"},
                   {"type": "nash", "profile": "vote-bt-all"}],
    },
    "golden-simple-no-credibility-abstain": {
        "game": {"kind": "simple", "committee_size": 4, "boost": 2,
                 "credibility_assumed": False},
        "checks": [{"type": "outcome", "profile": "abstain-all"},
                   {"type": "nash", "profile": "abstain-all"},
                   {"type": "outcome", "profile": "vote-bt-all"}],
    },
    "golden-simple-pool2-coalition": {
        "game": {"kind": "simple", "committee_size": 5, "boost": 3,
                 "pool": {"members_per_slot": 2}},
        "checks": [{"type": "nash", "profile": "compliant-all", "coalition_bound": 2},
                   {"type": "pool-matrix"},
                   {"type": "dominance", "action": "C", "candidates": ["C", "NC"]},
                   {"type": "outcome", "profile": "vote-bt-all"}],
    },
    "golden-strong-simple-epoch4": {
        "game": {"kind": "strong-simple", "committee_size": 4, "boost": 2,
                 "epoch_length": 4, "r": "3/2"},
        "checks": [{"type": "matrix"},
                   {"type": "outcome", "profile": "compliant-all"}],
    },
    "golden-extended-honest-leader-override": {
        "game": {"kind": "extended", "committee_size": 4, "boost": 2, "horizon": 2,
                 "honest_per_slot": 1, "R": "2"},
        "profile": {"base": "compliant-all",
                    "overrides": [{"slot": 1, "role": "leader", "action": "NC"}]},
        "checks": [{"type": "outcome"}, {"type": "spne"},
                   {"type": "outcome", "profile": "compliant-all"},
                   {"type": "spne", "profile": "compliant-all"}],
    },
    # beyond the toy horizons: p=8 reorgs eight blocks, so the compliant-tip
    # scan runs many fork choices per slot over deep, branchy trees
    "golden-extended-w4-p8": {
        "game": {"kind": "extended", "committee_size": 4, "boost": 2, "horizon": 8,
                 "tie_break": "lexicographic"},
        "profile": {"base": "compliant-all",
                    "overrides": [{"slot": 3, "role": "leader", "action": "NC"},
                                  {"slot": 5, "role": "attestor", "actor": 53,
                                   "action": "abstain"}]},
        "checks": [{"type": "spne", "profile": "compliant-all"},
                   {"type": "spne", "profile": "extend-original-all"},
                   {"type": "outcome"}],
    },
    # the ladder's scale: p=24 with an honest attestor per slot, a defecting
    # leader and an abstaining attestor; the tracker judges a 50-block tree
    "golden-extended-w4-p24-honest": {
        "game": {"kind": "extended", "committee_size": 4, "boost": 2, "horizon": 24,
                 "honest_per_slot": 1},
        "profile": {"base": "compliant-all",
                    "overrides": [{"slot": 7, "role": "leader", "action": "NC"},
                                  {"slot": 16, "role": "attestor", "action": "abstain"}]},
        "checks": [{"type": "spne"}, {"type": "outcome"}],
    },
    "golden-selfish-three-adversarial": {
        "game": {"kind": "selfish-mining", "committee_size": 6, "boost": 2,
                 "n_adversarial_slots": 3, "n_non_adversarial_slots": 2},
        "checks": [{"type": "outcome", "profile": "compliant-all"},
                   {"type": "nash", "profile": "compliant-all"}],
    },
    # with 1 adversarial slot against 2 rival slots the fork never wins, so a
    # pool-matrix check is rejected (see test_selfish_violation_pool_matrix_rejected)
    "golden-selfish-violation-pool": {
        "game": {"kind": "selfish-mining", "committee_size": 5, "boost": 2,
                 "n_adversarial_slots": 1, "n_non_adversarial_slots": 2,
                 "allow_condition_violation": True, "pool": {"members_per_slot": 1}},
        "checks": [{"type": "outcome", "profile": "compliant-all"},
                   {"type": "nash", "profile": "honest-all"}],
    },
    # the benchmark's selfish-mining size: a hold-out in each player slot, so
    # deviations at slot 3 play on from a history that slot 1 shaped
    "golden-selfish-w32-two-holdouts": {
        "game": {"kind": "selfish-mining", "committee_size": 32, "boost": 13,
                 "n_adversarial_slots": 2, "n_non_adversarial_slots": 2},
        "profile": {"base": "compliant-all",
                    "overrides": [{"slot": 1, "role": "attestor", "actor": 33, "action": "NC"},
                                  {"slot": 3, "role": "attestor", "actor": 97, "action": "NC"}]},
        "checks": [{"type": "nash"}, {"type": "outcome"}],
    },
    # with no adversarial slot there is no player: a run is fine, a Nash
    # check is rejected (see test_selfish_no_adversarial_nash_rejected)
    "golden-selfish-no-adversarial": {
        "game": {"kind": "selfish-mining", "committee_size": 4, "boost": 2,
                 "n_adversarial_slots": 0, "n_non_adversarial_slots": 1,
                 "allow_condition_violation": True},
        "checks": [{"type": "outcome", "profile": "compliant-all"}],
    },
    "golden-dag-on-tip-boost": {
        "game": {"kind": "dag-votes", "committee_size": 5, "boost": 1,
                 "adversary_on_tip": True, "r": "2"},
        "checks": [{"type": "dag-scenario"},
                   {"type": "outcome", "profile": "prescribed"}],
    },
    "golden-dag-checks-overrides": {
        "game": {"kind": "dag-votes", "committee_size": 5, "boost": 0},
        "profile": {"base": "prescribed",
                    "overrides": [{"slot": 2, "role": "leader", "action": "off-tip"},
                                  {"slot": 1, "role": "attestor", "actor": 7,
                                   "action": "parent-of-tip"},
                                  {"slot": 3, "role": "attestor", "actor": 16,
                                   "action": "abstain"}]},
        "checks": [{"type": "spne"}, {"type": "nash"}, {"type": "outcome"}],
    },
    # beyond the toy sizes: W evidences per slot at W=33
    "golden-dag-w33-flip": {
        "game": {"kind": "dag-votes", "committee_size": 33, "boost": 0},
        "checks": [{"type": "dag-scenario", "ethereum_flip": True},
                   {"type": "outcome", "profile": "prescribed"}],
    },
    # hold-outs split the slot-1 committee's votes into runs, slot 2 sends no
    # evidence, and its leader forks off the tip
    "golden-dag-w33-holdouts": {
        "game": {"kind": "dag-votes", "committee_size": 33, "boost": 0},
        "profile": {"base": "prescribed",
                    "overrides": [{"slot": 1, "role": "attestor", "actor": 40,
                                   "action": "parent-of-tip"},
                                  {"slot": 1, "role": "attestor", "actor": 50,
                                   "action": "abstain"},
                                  {"slot": 2, "role": "attestor", "action": "abstain"},
                                  {"slot": 2, "role": "leader", "action": "off-tip"}]},
        "checks": [{"type": "spne"}, {"type": "outcome"}],
    },
    # the frontier the symmetry classes open: DAG W=65 with the flip, and a
    # simple W=512 committee whose three hold-outs form two classes of their own
    "golden-dag-w65-flip": {
        "game": {"kind": "dag-votes", "committee_size": 65, "boost": 0},
        "checks": [{"type": "dag-scenario", "ethereum_flip": True},
                   {"type": "outcome", "profile": "prescribed"}],
    },
    # the frontier linear DAG settlement opens: W=257 with the flip
    "golden-dag-w257-flip": {
        "game": {"kind": "dag-votes", "committee_size": 257, "boost": 0},
        "checks": [{"type": "dag-scenario", "ethereum_flip": True},
                   {"type": "outcome", "profile": "prescribed"}],
    },
    "golden-simple-w512-holdouts": {
        "game": {"kind": "simple", "committee_size": 512, "boost": 205},
        "profile": {"base": "compliant-all",
                    "overrides": [{"slot": 1, "role": "attestor", "actor": 519, "action": "NC"},
                                  {"slot": 1, "role": "attestor", "actor": 812,
                                   "action": "abstain"},
                                  {"slot": 1, "role": "attestor", "actor": 1023, "action": "NC"}]},
        "checks": [{"type": "nash"}, {"type": "outcome"}],
    },
    # a slot-wide override on a W=2048 committee, then a later one that wins
    # for a single actor
    "golden-simple-w2048-slot-override": {
        "game": {"kind": "simple", "committee_size": 2048, "boost": 819},
        "profile": {"base": "compliant-all",
                    "overrides": [{"slot": 1, "action": "NC"},
                                  {"slot": 1, "role": "attestor", "actor": 3000,
                                   "action": "abstain"}]},
        "checks": [{"type": "outcome"}, {"type": "nash"}],
    },
    "golden-tendermint-withholding-m0": {
        "game": {"kind": "tendermint", "variant": "withholding", "f": 2, "m": 0, "r": "1"},
    },
    "golden-tendermint-withholding-m4": {
        "game": {"kind": "tendermint", "variant": "withholding", "f": 2, "m": 4, "r": "3"},
    },
    "golden-tendermint-anchor-f4": {
        "game": {"kind": "tendermint", "variant": "anchor", "f": 4, "r": "2"},
    },
    # beyond the toy sizes: 118 and 60 rational validators, each game's pack
    # one symmetry class, and each round's evidence counted per audience
    "golden-tendermint-withholding-f60-m3": {
        "game": {"kind": "tendermint", "variant": "withholding", "f": 60, "m": 3, "r": "1"},
    },
    "golden-tendermint-anchor-f60": {
        "game": {"kind": "tendermint", "variant": "anchor", "f": 60, "r": "1"},
    },
    # the frontier: 1,001 honest validators stepped as one replica in the
    # anchor, 1,998 rational validators in the withholding pack
    "golden-tendermint-anchor-f1000": {
        "game": {"kind": "tendermint", "variant": "anchor", "f": 1000, "r": "1"},
    },
    "golden-tendermint-withholding-f1000-m3": {
        "game": {"kind": "tendermint", "variant": "withholding", "f": 1000, "m": 3, "r": "1"},
    },
}
for _name, _doc in EXTRA.items():
    _doc["scenario"] = _name

# name -> (sha256 of the JSON report, sha256 of the trace or None if the
# document writes no trace)
GOLDEN = {
    "dag-thm81": (
        "4e42a9a5fb7d47f7c065781006a92df45eaf4f687ed89dea48e95882593f58f2",
        "d62fe3889d0b4471c0870a748bcb4870022877ac94fd62dfe72265450bc3dbc9",
    ),
    "extended-spne": (
        "2322be603d13a5d54390c609c9de0f594530eb94f7a4bfe15ff10d231621654e",
        "fd07c8bab14cdbb86712b0b56c0630ab4a61245eac50a46c0c6f8c1eb461cec3",
    ),
    "golden-dag-checks-overrides": (
        "63c66abfe8841d7eab894f026056da1b0037a5619d7c3b5bbb981d4a5ee5eeac",
        "fab91d80dbf152c810b8ec8754e639fd26145f35c1362c8bb7337cf7ddf79dea",
    ),
    "golden-dag-on-tip-boost": (
        "50fad3e835c8a265fe7a9bb32285518744ee65e64b84c0cfd29836d19721d9db",
        "75ad6a2b099eb465984f738bd1f7ba90e5baf4475df66c133cb524935e70b5bb",
    ),
    "golden-dag-w33-flip": (
        "f5ad91c1193756b13b434c562ebe7c5e670c8d96144095f960ea1d361422f117",
        "ad04026f1da2125b88d2ec118d6c7ba616c8b0b5f8e154faf7df5747c7be8209",
    ),
    "golden-dag-w33-holdouts": (
        "0312a44d031ddc1dfec4b6d7484d00472e1bb5442cc668309a06fb9d1e988044",
        "16d44b0cf04c695c957cf5f2a5e1d33ae3339f961b107cf9a0ac5c519b9f2c37",
    ),
    "golden-dag-w65-flip": (
        "f1c86d81463d3b0fbef7590ccb1073f888ccea9a22f78fe22f6baca3a350e613",
        "842e00e4f0d663ecfa0b5c21309ef6b455603e01751ce868e5ce1fa48e6d23ec",
    ),
    "golden-dag-w257-flip": (
        "97140c71de72814d6d84803822ba3dd5a737c11d2f6655d5c0178755a53a0b19",
        "3bdcfd432e9be20cd02e4f0cb3b7cc6a0a8d39d3656631663a33dd5039c36b1a",
    ),
    "golden-extended-honest-leader-override": (
        "509432b71f24461231d0754cc788ea9f6fa79bf3c7f2b9310fe5d1596121eabe",
        "7a173124bb5313dff27da4176d359af83d2180428396a3187762ea3769c8111f",
    ),
    "golden-extended-w4-p24-honest": (
        "3a8525a60511dc262fa89b2ab50f82e4c5c40a7b02b4b4592bbbaa5e0c5b8035",
        "ba74835374e43ca90a3bfe864232d412d68b55c0e5c4089baf44386114afb3a9",
    ),
    "golden-extended-w4-p8": (
        "b2b1925dc562e3059421c5fab469f682413de534ef375a1082f44b55d6a44c17",
        "22117f9db04199d219283eae75474cccd20d6e3ae6d778fdc1bae02b7a2a618d",
    ),
    "golden-nb-compliant": (
        "8fffd851e2fb4108ecdfa6629a0e75db061465f724a9c590cee7a6aed6b56d89",
        "be9f078ee04a7f5eb3184caee07330f9f0a37ad95f367bbe6baa82c8ae0ff634",
    ),
    "golden-nb-vote-bt-lexicographic": (
        "3e38b5c16cafc62ed0c0ec89e0b1d05103295c2eae6bdd9362701851244c07fd",
        "4d8fb135558c07d223eeceec46644679f9b8ff5f2fa31890957990e80e9a2f20",
    ),
    "golden-selfish-no-adversarial": (
        "04e503636dcb922987f30f4376642c8c1e81e7496877d393ebcfaf3ee8514b7b",
        "2fe757e32ce30eda7c33bad33c261a9b5b26a3f7e5e101a82c507fedfe73ea2a",
    ),
    "golden-selfish-three-adversarial": (
        "a670843112d89d1832ab16b0fa34ce8cf6bc928e332b4428f7696296aff921d6",
        "78a06078ed63d21927e2e8b446decaefd5648513b62d0666f9a60c620a5c8b74",
    ),
    "golden-selfish-violation-pool": (
        "ce16be4d5bc0ce1702cd8e9c1cea9ae09978fbc88b5bf184ae7bb9a160db1a2d",
        "7e9783409d1b4b502a5492b377d8454b4f90a48cbe4eaa858008e9dd674469a5",
    ),
    "golden-selfish-w32-two-holdouts": (
        "d6999a03cbf74e42d4ba51751a68bf14a9c0bf9c67c7bb083ac0c3e1044e669c",
        "c95cbd89405d8f56bbf0eefb15c0c94e55cbe2e30a8ff5f0e60d999ba52b99cb",
    ),
    "golden-simple-no-credibility-abstain": (
        "9c6a6a1ad8a086235b8a2f1d80ce4e0fbce10e3cf89f515ce3888f307dec3e23",
        "71701fa1d3fe7268e9e9bdbbd33ba8796d1ef2fa5fdc64e14fb12db793086651",
    ),
    "golden-simple-pool2-coalition": (
        "5267962510c826878dc9eb3d22b339681c1117e2be8a0765cd04b02df05702cf",
        "0a4235e65125d420a45684e7e33a3ecd1530e38f3d3e23dd06a270319530a069",
    ),
    "golden-simple-w512-holdouts": (
        "3439cdeb404c22fa9684935b984286f4b53dcaaa575880d1fcd2b9a289541c46",
        "e1c9dce2200983620932a4300d0379d8d0a9ebc9b7558b0cb75dd6230e7e1493",
    ),
    "golden-simple-w2048-slot-override": (
        "6dad08632311ab06f5e9ebbf7c30c1b2fa8f8de2cbc4a074cc9ded35a7f511cd",
        "2e207e27a9395c22a694118e68e2191a207774791ae3c0f0b1a96b76589815f8",
    ),
    "golden-strong-simple-epoch4": (
        "1c3f7f3a886a1e9bdb6f4dd5731729698a8f10aa12a8554207cb81508b3fbc62",
        "ed3533265fa85006375a7f323187249c89f91922c7fa61827f0c1ec07975553f",
    ),
    "golden-tendermint-anchor-f4": (
        "f74edffccc239dce4fd4fb914b89574f9bfa0859b9f75e837119bcab14c65207",
        None,
    ),
    "golden-tendermint-anchor-f60": (
        "153352b6951e0591ba5ad46275d33dbca17a39855236c954f8979263c088868c",
        None,
    ),
    "golden-tendermint-anchor-f1000": (
        "dfbaa0f75b9dee9a64a595d7d999cdf833ecbb563ead080b924812661ff2430e",
        None,
    ),
    "golden-tendermint-withholding-m0": (
        "8dea863b18f3d3d296107e4992a9bf198cf028afb3f4b51f8c9ae5f4080eb913",
        None,
    ),
    "golden-tendermint-withholding-f60-m3": (
        "54a15bd4b53bd9e69b0304e657ae5f9754ac6a2cbeaca6b4e57d12ec352b31be",
        None,
    ),
    "golden-tendermint-withholding-f1000-m3": (
        "65d308e7cd2b9a0b9649da1259d73ee12ae7a597882dda3810ace051c453c17e",
        None,
    ),
    "golden-tendermint-withholding-m4": (
        "833ba7748268821a084f4fcbe234d8a5ae02ef0fec76d0c887315eb2e826e929",
        None,
    ),
    "overhead-grid": (
        "2e7d82809296cc6a049e7682eb7bd6807f95bca8dd31d3549e08d5668e927c32",
        None,
    ),
    "pool-simple-table7": (
        "0b019abe3c9087936d9d7cd5efdaaaddeb983bc0e2e1269b7818aa658a10b751",
        None,
    ),
    "quantify-appendixB": (
        "6410f238a79a26c3687250057a58132b37b4a04e4e98f9bcfabaec8a3517ac68",
        None,
    ),
    "selfish-table8": (
        "a08a6e20bd352a0319db53a3dd02d20fc53f1a0029f561c619ae2feb05e32381",
        "3c71a4f425aecc294f88fa478ec61f44b89879a08b6315a940b95f9a5a39f5e4",
    ),
    "simple-table1": (
        "05e1789451fdf8fbf4e30efa9e54f3f8df30f1894d9cf3221d77285ef4b50604",
        "bcdcd7e0ca165c19180c18f22f19c58fc27a723b779707238744fc293d088a2a",
    ),
    "strong-simple-table2": (
        "0064943f074f369b808e8853a43bdfbbf8def3e91d1870c250c488ee190d56f3",
        None,
    ),
    "tendermint-anchor": (
        "4036aee70a2694b5983cca50031d89e606b6f7d981e1720acd3371be0d684e73",
        None,
    ),
    "tendermint-withholding": (
        "20ca489469a502c7364c2d746c53dcfc1e31069145e9437c6950c8568ae0e77e",
        None,
    ),
}


def documents() -> dict[str, dict]:
    docs = {name: json.loads(text) for name, text in bundled_scenarios().items()}
    docs.update(EXTRA)
    return docs


def digests(doc: dict, trace_path) -> tuple[str, object]:
    report = run_scenario(io.StringIO(json.dumps(doc)), trace_path=str(trace_path))
    report.pop("trace_path", None)
    text = render_report(report, "json")
    trace = trace_path.read_bytes() if trace_path.exists() else None
    return (
        hashlib.sha256(text.encode()).hexdigest(),
        hashlib.sha256(trace).hexdigest() if trace is not None else None,
    )


def test_every_document_has_a_digest():
    assert sorted(documents()) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_report_and_trace(name, tmp_path):
    assert digests(documents()[name], tmp_path / "trace.jsonl") == GOLDEN[name]


def test_selfish_no_adversarial_nash_rejected(tmp_path, capsys):
    doc = dict(EXTRA["golden-selfish-no-adversarial"])
    doc["checks"] = [{"type": "nash", "profile": "compliant-all"}]
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == EXIT_VALIDATION
    assert capsys.readouterr().out == ""


def test_selfish_violation_pool_matrix_rejected(tmp_path, capsys):
    # the succeed row names an outcome the run cannot reach
    doc = dict(EXTRA["golden-selfish-violation-pool"])
    doc["checks"] = [*doc["checks"], {"type": "pool-matrix"}]
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path)]) == EXIT_VALIDATION
    assert capsys.readouterr().out == ""


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    docs = documents()
    differ = sorted(set(GOLDEN) - set(docs))
    for name, doc in sorted(docs.items()):
        with tempfile.TemporaryDirectory() as tmp:
            report, trace = digests(doc, Path(tmp) / "trace.jsonl")
        sys.stdout.write(f"{name} {report} {trace}\n")
        if GOLDEN.get(name) != (report, trace):
            differ.append(name)
    for name in differ:
        sys.stderr.write(f"differs from GOLDEN: {name}\n")
    sys.exit(1 if differ else 0)
