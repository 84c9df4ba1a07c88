"""Outside-in spans around reorglab's public functions, and the per-layer
metrics computed from them.

Wrappers are installed from here, at the place each name is looked up at
call time: class attributes for methods, and the module global of the module
that calls the function (for instance `reorglab.games.settle_payoffs`, which
`games` imported by name). Nothing under `src/` is edited.

A span records its name, start, end and parent. Hot leaf calls (ledger
credits, vote and block inserts, message emission, ...) are folded into
counters instead: the call count and time per (parent span name, leaf name),
and the leaf's time is added to the covered time of the span that made it,
so memory grows with the number of non-leaf spans only. A span's self time is
its duration minus the time its child spans and folded leaves cover.
"""

from __future__ import annotations

import functools
import gzip
import time
from array import array
from pathlib import Path

_clock = time.perf_counter

# names whose calls are simulations of a game under one strategy profile
SIMULATION_SPANS = ("games.run", "games.payoffs", "tendermint.simulate", "tendermint.payoffs")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_covered = array("d")  # time of child spans and folded leaves
        self.span_folded = array("i")  # folded leaf calls made directly in the span
        self.stack: list[int] = []
        self.leaves: dict[str, list] = {}  # leaf name -> [calls, seconds]
        self.folded: dict[tuple[str, str], list] = {}  # (parent, leaf) -> [calls, seconds]
        self.counters: dict[str, float] = {}
        self._profiles: set = set()
        self._sim_ids: set[int] = set()
        self._tip_id = -1

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def end_document(self) -> None:
        """Close the per-document scope of the distinct-profile count."""
        self.count("distinct_profiles", len(self._profiles))
        self._profiles.clear()

    # -- wrappers -------------------------------------------------------------

    def span(self, name: str, fn, before=None):
        nid = self.name_id(name)
        stack = self.stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        covered, folded = self.span_covered, self.span_folded

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            covered.append(0.0)
            folded.append(0)
            stack.append(idx)
            starts.append(_clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                ends[idx] = end
                if stack:
                    covered[stack[-1]] += end - starts[idx]

        return wrapper

    def leaf(self, name: str, fn):
        stat = self.leaves.setdefault(name, [0, 0.0])
        stack, names = self.stack, self.span_name
        covered, folded = self.span_covered, self.span_folded
        per_parent = self.folded
        all_names = self.names

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                stat[0] += 1
                stat[1] += elapsed
                if stack:
                    parent = stack[-1]
                    covered[parent] += elapsed
                    folded[parent] += 1
                    key = (all_names[names[parent]], name)
                else:
                    key = ("<root>", name)
                pair = per_parent.get(key)
                if pair is None:
                    per_parent[key] = [1, elapsed]
                else:
                    pair[0] += 1
                    pair[1] += elapsed

        return wrapper

    # -- probes run before a span opens ----------------------------------------

    def _sim_request(self, args, kwargs) -> None:
        """Count a simulation the equilibrium layer asked for, keyed by profile.

        Nested calls (a game's `payoffs` calling its own `run`) belong to the
        request that made them.
        """
        names, sim_ids = self.span_name, self._sim_ids
        if any(names[i] in sim_ids for i in self.stack):
            return
        game = args[0]
        profile = args[1] if len(args) > 1 else kwargs["profile"]
        self.count("simulations")
        self._profiles.add((id(game), frozenset(profile.actions.items())))

    def _fork_choice(self, args, kwargs) -> None:
        tree = args[0]
        self.count("fork_choice_blocks", len(tree.blocks))
        self.count("fork_choice_votes", len(tree.votes))
        names, tip = self.span_name, self._tip_id
        if any(names[i] == tip for i in self.stack):
            self.count("fork_choice_in_tip")

    # -- installation -----------------------------------------------------------

    def install(self):
        """Wrap every target; returns a function that restores the originals.

        A target that no longer exists raises here, so a rename in the
        program fails the traced run instead of reading zero.
        """
        from reorglab import chain, cli, compliance, engine, equilibrium, games, rewards, tendermint

        self._sim_ids = {self.name_id(n) for n in SIMULATION_SPANS}
        self._tip_id = self.name_id("compliance.compliant_tip")
        sim = self._sim_request
        spans = [
            (cli, "run_scenario", "cli.run_scenario", None),
            (cli, "render_report", "cli.render_report", None),
            (equilibrium, "verify_nash", "equilibrium.verify_nash", None),
            (cli, "verify_nash", "equilibrium.verify_nash", None),
            (tendermint, "verify_nash", "equilibrium.verify_nash", None),
            (equilibrium, "verify_spne", "equilibrium.verify_spne", None),
            (cli, "verify_spne", "equilibrium.verify_spne", None),
            (equilibrium, "dag_security_scenario", "equilibrium.dag_security_scenario", None),
            (cli, "dag_security_scenario", "equilibrium.dag_security_scenario", None),
            (equilibrium, "best_response", "equilibrium.best_response", None),
            (equilibrium, "dominance_check", "equilibrium.dominance_check", None),
            (engine.Simulation, "deliver", "engine.deliver", None),
            (engine.Simulation, "tip", "engine.tip", None),
            (engine.Simulation, "finalize", "engine.finalize", None),
            (chain.BlockTree, "fork_choice", "chain.fork_choice", self._fork_choice),
            (compliance, "compliant_tip", "compliance.compliant_tip", None),
            (rewards, "settle_payoffs", "rewards.settle_payoffs", None),
            (games, "settle_payoffs", "rewards.settle_payoffs", None),
            (tendermint.WithholdingGame, "simulate", "tendermint.simulate", sim),
            (tendermint.AnchorGame, "simulate", "tendermint.simulate", sim),
            (tendermint.WithholdingGame, "payoffs", "tendermint.payoffs", sim),
            (tendermint.AnchorGame, "payoffs", "tendermint.payoffs", sim),
        ]
        for cls in vars(games).values():
            if isinstance(cls, type) and issubclass(cls, games.GameModel) and cls is not games.GameModel:
                for method in ("run", "payoffs"):
                    if method in vars(cls):
                        spans.append((cls, method, f"games.{method}", sim))
        leaves = [
            (engine.Simulation, "emit_block", "engine.emit_block"),
            (engine.Simulation, "emit_vote", "engine.emit_vote"),
            (engine.Simulation, "emit_evidence", "engine.emit_evidence"),
            (chain.BlockTree, "latest_votes", "chain.latest_votes"),
            (chain.BlockTree, "add_vote", "chain.add_vote"),
            (chain.BlockTree, "insert_block", "chain.insert_block"),
            (chain.BlockTree, "ancestors", "chain.ancestors"),
            (rewards.PayoffLedger, "credit", "rewards.credit"),
            (rewards, "head_vote_timely_dag", "rewards.timely_dag"),
            (tendermint, "tm_step", "tendermint.tm_step"),
        ]
        originals = []
        for owner, attr, name, before in spans:
            fn = getattr(owner, attr)
            originals.append((owner, attr, fn))
            setattr(owner, attr, self.span(name, fn, before))
        for owner, attr, name in leaves:
            fn = getattr(owner, attr)
            originals.append((owner, attr, fn))
            setattr(owner, attr, self.leaf(name, fn))

        def uninstall() -> None:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)

        return uninstall

    # -- results ------------------------------------------------------------------

    def totals(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and self seconds per name, spans and leaves alike."""
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        names = self.names
        for nid, start, end, cov in zip(self.span_name, self.span_start, self.span_end, self.span_covered):
            name = names[nid]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start - cov)
        for name, (n, seconds) in self.leaves.items():
            calls[name] = calls.get(name, 0) + n
            self_s[name] = self_s.get(name, 0.0) + seconds
        return calls, self_s

    def layer_metrics(self, docs: int) -> dict[str, float]:
        """Per-layer metrics, each per document unless it is a ratio or a mean."""
        calls, self_s = self.totals()
        c = lambda name: calls.get(name, 0)
        s = lambda name: self_s.get(name, 0.0)
        k = lambda key: self.counters.get(key, 0)
        ratio = lambda num, den: num / den if den else 0.0
        per_doc = lambda x: x / docs
        fc = c("chain.fork_choice")
        writes = c("chain.insert_block") + c("chain.add_vote")
        return {
            "cli.run_scenario.self_s": per_doc(s("cli.run_scenario")),
            "cli.render_report.self_s": per_doc(s("cli.render_report")),
            "equilibrium.simulations": per_doc(k("simulations")),
            "equilibrium.distinct_profile_ratio": ratio(k("distinct_profiles"), k("simulations")),
            "equilibrium.self_s": per_doc(sum(s(n) for n in self_s if n.startswith("equilibrium."))),
            "games.run.calls": per_doc(c("games.run")),
            "games.run.self_s": per_doc(s("games.run")),
            "games.payoffs.self_s": per_doc(s("games.payoffs")),
            "engine.messages.block": per_doc(c("engine.emit_block")),
            "engine.messages.vote": per_doc(c("engine.emit_vote")),
            "engine.messages.evidence": per_doc(c("engine.emit_evidence")),
            "engine.emit.self_s": per_doc(s("engine.emit_block") + s("engine.emit_vote") + s("engine.emit_evidence")),
            "engine.deliver.self_s": per_doc(s("engine.deliver")),
            "engine.tip.calls": per_doc(c("engine.tip")),
            "engine.finalize.self_s": per_doc(s("engine.finalize")),
            "chain.fork_choice.calls": per_doc(fc),
            "chain.fork_choice.self_s": per_doc(s("chain.fork_choice")),
            "chain.fork_choice.blocks_mean": ratio(k("fork_choice_blocks"), fc),
            "chain.fork_choice.votes_mean": ratio(k("fork_choice_votes"), fc),
            "chain.latest_votes.calls": per_doc(c("chain.latest_votes")),
            "chain.latest_votes.self_s": per_doc(s("chain.latest_votes")),
            "chain.add_vote.calls": per_doc(c("chain.add_vote")),
            "chain.add_vote.self_s": per_doc(s("chain.add_vote")),
            "chain.insert_block.calls": per_doc(c("chain.insert_block")),
            "chain.insert_block.self_s": per_doc(s("chain.insert_block")),
            "chain.ancestors.calls": per_doc(c("chain.ancestors")),
            "chain.ancestors.self_s": per_doc(s("chain.ancestors")),
            "chain.reads_per_write": ratio(fc, writes),
            "compliance.compliant_tip.calls": per_doc(c("compliance.compliant_tip")),
            "compliance.compliant_tip.self_s": per_doc(s("compliance.compliant_tip")),
            "compliance.fork_choice_per_tip": ratio(k("fork_choice_in_tip"), c("compliance.compliant_tip")),
            "rewards.settle_payoffs.calls": per_doc(c("rewards.settle_payoffs")),
            "rewards.settle_payoffs.self_s": per_doc(s("rewards.settle_payoffs")),
            "rewards.credit.calls": per_doc(c("rewards.credit")),
            "rewards.credit.self_s": per_doc(s("rewards.credit")),
            "rewards.timely_dag.calls": per_doc(c("rewards.timely_dag")),
            "rewards.timely_dag.self_s": per_doc(s("rewards.timely_dag")),
            "tendermint.simulate.calls": per_doc(c("tendermint.simulate")),
            "tendermint.simulate.self_s": per_doc(s("tendermint.simulate")),
            "tendermint.tm_step.calls": per_doc(c("tendermint.tm_step")),
            "tendermint.tm_step.self_s": per_doc(s("tendermint.tm_step")),
        }

    def write(self, path: Path) -> None:
        """Write every span, then the folded leaf counters, as gzipped TSV."""
        names = self.names
        with gzip.open(path, "wt") as out:
            out.write("span\tname\tparent\tstart_s\tend_s\tcovered_s\tfolded_calls\n")
            rows = zip(self.span_name, self.span_parent, self.span_start, self.span_end,
                       self.span_covered, self.span_folded)
            for i, (nid, parent, start, end, cov, nfold) in enumerate(rows):
                out.write(f"{i}\t{names[nid]}\t{parent}\t{start:.9f}\t{end:.9f}\t{cov:.9f}\t{nfold}\n")
            out.write("\nparent\tleaf\tcalls\tseconds\n")
            for (parent, leaf), (n, seconds) in sorted(self.folded.items()):
                out.write(f"{parent}\t{leaf}\t{n}\t{seconds:.9f}\n")
