"""Layer spans recorded from outside chcslim.

``Tracer.install`` replaces each layer entry point at the module attribute
its callers look it up through (``chcslim.pipeline.parse_program``, not
``chcslim.parser.parse_program``), so the package itself is untouched.
Every wrapped call becomes a span with its parent span and the problem it
belongs to; spans stay in memory until ``write`` and their self time (the
span's duration minus that of its child spans) is summed per layer as they
close, multiplied by ``scale``.  Counters read off return values record
the work each layer did.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("parser", "nlr", "cfar", "constraints", "emit", "bounded", "pipeline")

# (module, attribute, layer): each entry point at the attribute its caller uses
TARGETS = (
    ("chcslim.pipeline", "parse_program", "parser"),
    ("chcslim.pipeline", "nlr_transform", "nlr"),
    ("chcslim.pipeline", "cfar_transform", "cfar"),
    ("chcslim.pipeline", "emit_clp", "emit"),
    ("chcslim.pipeline", "emit_smtlib_horn", "emit"),
    ("chcslim.pipeline", "derives_unsafe", "bounded"),
    ("chcslim.cfar", "check_pair", "cfar"),
    ("chcslim.cfar", "forall_exists_valid", "constraints"),
    ("chcslim.cfar", "constrained_to", "constraints"),
    ("chcslim.nlr", "is_satisfiable", "constraints"),
    ("chcslim.constraints", "is_satisfiable", "constraints"),
    ("chcslim.bounded", "bounded_least_model", "bounded"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, problem, name, start, end, error)
        self.self_s: dict[str, float] = defaultdict(float)  # by layer
        self.total_s: dict[str, float] = defaultdict(float)  # by span name
        self.calls: Counter = Counter()  # by span name
        self.counts: Counter = Counter()  # read off return values
        self.problems = 0
        self.scale = 1.0  # factor applied to the times summed into self_s, total_s
        self._stack: list[list] = []  # [span id, child time]
        self._problem: str | None = None

    def _wrap(self, name: str, layer: str, fn):
        def traced(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1][0] if self._stack else None
            frame = [sid, 0.0]
            self._stack.append(frame)
            error = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - start
                if self._stack:
                    self._stack[-1][1] += duration
                self.self_s[layer] += (duration - frame[1]) * self.scale
                self.total_s[name] += duration * self.scale
                self.calls[name] += 1
                if error is not None:
                    self.counts[f"{name}:{error}"] += 1
                self.spans[sid] = (sid, parent, self._problem, name, start, end, error)
            self._observe(name, result)
            return result
        return traced

    def _observe(self, name: str, result) -> None:
        c = self.counts
        if name == "pipeline.nlr_transform":
            report = result[1]
            c["nlr.definitions"] += len(report.definitions)
            c["nlr.widenings"] += report.widenings
            c["nlr.iterations"] += report.iterations
        elif name == "pipeline.cfar_transform":
            report = result[2]
            c["cfar.pairs"] += report.pairs_initial
            c["cfar.pairs_erased"] += report.pairs_kept
        elif name == "cfar.forall_exists_valid":
            c["constraints.forall_exists.unknown"] += result.value == "unknown"
        elif name == "pipeline.emit_smtlib_horn":
            c["emit.smt_bytes"] += len(result.encode())
        elif name == "bounded.bounded_least_model":
            c["bounded.rounds"] += result.rounds
            c["bounded.facts"] += result.size()
            c["bounded.clipped"] += result.clipped

    @contextmanager
    def install(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for module_name, attr, layer in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                short = module_name.rsplit(".", 1)[1]
                setattr(module, attr, self._wrap(f"{short}.{attr}", layer, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def run(self, problem: str, fn, *args):
        """One top-level ``pipeline`` span around ``fn(*args)``."""
        self.problems += 1
        self._problem = f"{problem}#{self.problems}"
        try:
            return self._wrap("pipeline.run_pipeline", "pipeline", fn)(*args)
        finally:
            self._problem = None

    def metrics(self, overhead_frac: float) -> dict[str, tuple[float, str]]:
        """Per-problem layer metrics as {name: (value, unit)}."""
        n = self.problems
        c, calls, total = self.counts, self.calls, self.total_s

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        m: dict[str, tuple[float, str]] = {}
        traced_s = sum(self.self_s.values())
        for layer in LAYERS:
            m[f"{layer}.self_s"] = (self.self_s[layer] / n, "s")
            m[f"{layer}.self_share"] = (ratio(self.self_s[layer], traced_s), "ratio")
        m["parser.calls"] = (calls["pipeline.parse_program"] / n, "count")
        for key in ("nlr.definitions", "nlr.widenings", "nlr.iterations",
                    "cfar.pairs", "cfar.pairs_erased",
                    "constraints.forall_exists.unknown", "bounded.rounds",
                    "bounded.facts", "bounded.clipped"):
            m[key] = (c[key] / n, "count")
        m["cfar.calls"] = (calls["pipeline.cfar_transform"] / n, "count")
        m["cfar.check_pair_calls"] = (calls["cfar.check_pair"] / n, "count")
        m["cfar.checks_per_pair"] = (
            ratio(calls["cfar.check_pair"], c["cfar.pairs"]), "ratio")
        fe = "cfar.forall_exists_valid"
        m["constraints.forall_exists.calls"] = (calls[fe] / n, "count")
        m["constraints.forall_exists.s_per_call"] = (
            ratio(total[fe], calls[fe]), "s")
        m["constraints.is_satisfiable.calls"] = (
            (calls["nlr.is_satisfiable"] + calls["constraints.is_satisfiable"]) / n,
            "count")
        m["constraints.constrained_to.calls"] = (calls["cfar.constrained_to"] / n,
                                                 "count")
        m["emit.smt_bytes_per_s"] = (
            ratio(c["emit.smt_bytes"], total["pipeline.emit_smtlib_horn"]), "bytes/s")
        m["bounded.facts_per_s"] = (
            ratio(c["bounded.facts"], self.self_s["bounded"]), "1/s")
        m["bounded.budget_errors"] = (
            c["bounded.bounded_least_model:EvalBudgetError"] / n, "count")
        m["trace.overhead_frac"] = (overhead_frac, "ratio")
        return m

    def write(self, path: Path) -> None:
        """All spans as gzipped JSON lines, raw wall times relative to the
        first span's start."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][4] if self.spans else 0.0
        with gzip.open(path, "wt") as out:
            out.write(json.dumps({"fields": ["id", "parent", "problem", "name",
                                             "start_s", "end_s", "error"]}) + "\n")
            for sid, parent, problem, name, start, end, error in self.spans:
                out.write(json.dumps([sid, parent, problem, name,
                                      round(start - origin, 7),
                                      round(end - origin, 7), error]) + "\n")
