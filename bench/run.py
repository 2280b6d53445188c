"""End-to-end benchmark of the chcslim pipeline on seeded CHC families.

    python3 bench/run.py --workload loop_nest --seed 1 --seconds 25 --trace 0

One process, one thread, a closed loop: each generated problem is written
as a ``.clp`` file and handed to ``chcslim.pipeline.run_pipeline`` alone,
and the next call starts when the previous one returns.  The path is parse,
nlr, cfar, artifact re-check, SMT-LIB emission and, on workloads with a
bound, the bounded verdict.

A run cycles over the whole problem set until ``--seconds`` have passed,
timing each call and checking its record and verdict against the
generator's answer.  Every call's wall time is rescaled to reference
seconds by timing a fixed loop just before and just after it (see
``REFERENCE_S``).  The median and the rate are taken over per-problem
times, each the fastest of that problem's calls; the tail is taken over
every call, so that occasional slow calls show in it.  With
``--trace 1`` every problem in those passes runs once untraced and once
under the layer tracer (``layertrace.py``), alternating which goes first;
the spans are written to ``.bench_out/`` when the run ends.  After the
timed passes, untimed, the cfar erasure of each problem is re-derived from
its nlr output, compared with the pipeline's artifacts and certified with
``verify_safe_erasure``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and the end-to-end metrics (``--trace 0``) or the
per-layer metrics (``--trace 1``); the lines before it print every metric
with its unit, including those the JSON leaves out.  The exit status is 1
when a verdict contradicts the generator's answer, an erasure fails
certification or an artifact differs from the re-derived program, and 2
when the checkout holds no chcslim sources.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from families import generate
from layertrace import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


@dataclass(frozen=True)
class Workload:
    sizes: dict
    bound: int | None
    problems: int  # problems in the set one pass covers


# The problem shape is fixed within a workload; the seed varies contents.
WORKLOADS = {
    "env_chain": Workload(dict(depth=10, width=6, live=2), None, 24),
    "block_wide": Workload(dict(blocks=3, steps=20, passengers=4, entries=3), 64, 24),
    "loop_nest": Workload(dict(sequences=2, loops=4, passengers=2, nmax=6), 64, 32),
}
STAGES = ("nlr", "cfar")
SETUP_SAMPLES = 21

# Times one set-up in a fresh interpreter: import chcslim, build and
# validate the first PipelineConfig.  argv: src dir, input, out dir, bound.
SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from chcslim.pipeline import PipelineConfig
bound = int(sys.argv[4]) if sys.argv[4] != "none" else None
PipelineConfig([sys.argv[2]], sys.argv[3], bound=bound).validate()
print(time.perf_counter() - t0)
"""

# Times are reported in reference seconds: wall seconds at the host speed
# at which reference_loop() takes REFERENCE_S.  On a shared host the speed
# of the whole machine drifts by tens of percent over minutes; timing the
# fixed loop just before and just after each sample cancels most of that.
REFERENCE_S = 0.004

END_TO_END = ("setup_s", "problem_s.p50", "problem_s.tail", "problems_per_s",
              "args_kept_frac", "smt_bytes", "peak_rss_mb")
PER_LAYER = (
    "parser.self_s", "parser.calls",
    "nlr.self_s", "nlr.definitions", "nlr.widenings", "nlr.iterations",
    "cfar.self_s", "cfar.calls", "cfar.pairs", "cfar.pairs_erased",
    "cfar.check_pair_calls", "cfar.checks_per_pair",
    "constraints.self_s", "constraints.forall_exists.calls",
    "constraints.forall_exists.unknown", "constraints.forall_exists.s_per_call",
    "constraints.is_satisfiable.calls", "constraints.constrained_to.calls",
    "emit.self_s", "emit.smt_bytes_per_s",
    "bounded.self_s", "bounded.rounds", "bounded.facts", "bounded.clipped",
    "bounded.budget_errors",
    "pipeline.self_s", "trace.overhead_frac",
)


@dataclass
class Tally:
    """Outcome counts over every pipeline call of the run."""
    attempted: int = 0
    failed: int = 0  # raised, or record carries error / internal_error
    undecided: int = 0  # bounded workload, verdict neither holds nor fails
    wrong_verdicts: int = 0
    violations: int = 0  # certification or artifact mismatches
    notes: list[str] = field(default_factory=list)

    def note(self, text: str) -> None:
        if len(self.notes) < 20:
            self.notes.append(text)


def _fail(message: str, code: int) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(code)


def _import_chcslim():
    """Import chcslim from this checkout's sources, and only from there."""
    if not (SRC / "chcslim" / "__init__.py").is_file():
        _fail(f"no chcslim sources under {SRC}", 2)
    sys.path.insert(0, str(SRC))
    import chcslim
    if Path(chcslim.__file__).resolve().parent != (SRC / "chcslim").resolve():
        _fail(f"imported chcslim from {chcslim.__file__}, not {SRC}", 2)
    return chcslim


def _measure_setup(probe_input: Path, work: Path,
                   bound: int | None) -> tuple[list[float], list[float]]:
    """Set-up times in fresh interpreters: (reference seconds, wall seconds)."""
    scaled, raw = [], []
    before = reference_time()
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_PROBE, str(SRC), str(probe_input),
             str(work), "none" if bound is None else str(bound)],
            capture_output=True, text=True, timeout=60, cwd=ROOT)
        if proc.returncode != 0:
            _fail(f"set-up probe failed: {proc.stderr.strip()}", 2)
        after = reference_time()
        raw.append(float(proc.stdout))
        scaled.append(raw[-1] * 2 * REFERENCE_S / (before + after))
        before = after
    return scaled, raw


class _Node:
    __slots__ = ("key", "value")

    def __init__(self, key: str, value: int):
        self.key = key
        self.value = value


def reference_loop() -> int:
    """Fixed interpreter work much like chcslim's own: small objects,
    string-keyed dicts, a generator and a set of tuples.  It never changes,
    so its time tracks the host alone."""
    by_key = {node.key: node for node in (_Node(str(i), i) for i in range(2500))}

    def walk(xs):
        for x in xs:
            yield x * 3 if x & 1 else x // 2

    seen = set()
    for v in walk(range(6000)):
        seen.add((v % 97, by_key[str(v % 2500)].value % 13))
    return len(seen)


def reference_time() -> float:
    """Fastest of two runs of ``reference_loop``, in wall seconds."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        reference_loop()
        best = min(best, time.perf_counter() - start)
    return best


def _tail(samples: list[float]) -> tuple[float, float]:
    """Highest order statistic with at least ten samples beyond it, and
    its percentile."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


class Bench:
    def __init__(self, args, chcslim):
        self.args = args
        self.workload = WORKLOADS[args.workload]
        self.chcslim = chcslim
        self.pipeline = chcslim.pipeline
        self.work = OUT / f"work-{args.workload}-{os.getpid()}"
        self.tally = Tally()

    def config(self, path: Path):
        return self.pipeline.PipelineConfig([path], self.work, stages=STAGES,
                                            bound=self.workload.bound)

    def call(self, problem, path: Path, runner=None) -> "tuple[float, object]":
        """One timed pipeline call, checked afterwards."""
        cfg = self.config(path)
        start = time.perf_counter()
        try:
            if runner is None:
                records = self.pipeline.run_pipeline(cfg)
            else:
                records = runner(problem.name, self.pipeline.run_pipeline, cfg)
        except Exception:
            elapsed = time.perf_counter() - start
            self.tally.attempted += 1
            self.tally.failed += 1
            self.tally.note(f"{problem.name}: raised\n{traceback.format_exc()}")
            return elapsed, None
        elapsed = time.perf_counter() - start
        self.check(problem, records[0])
        return elapsed, records[0]

    def check(self, problem, rec) -> None:
        t = self.tally
        t.attempted += 1
        if rec.error or rec.internal_error:
            t.failed += 1
            t.note(f"{problem.name}: {rec.error or rec.internal_error}")
            return
        if self.workload.bound is None:
            return
        if rec.oracle not in ("holds", "fails"):
            t.undecided += 1
            t.note(f"{problem.name}: verdict {rec.oracle}")
        elif (rec.oracle == "holds") != problem.unsafe:
            t.wrong_verdicts += 1
            t.note(f"{problem.name}: verdict {rec.oracle}, generator says "
                   f"{'unsafe' if problem.unsafe else 'safe'}")

    def certify(self, problem, path: Path) -> None:
        """Re-derive nlr and cfar outputs, compare them with the pipeline's
        artifacts and certify the erasure against the nlr output."""
        c, t = self.chcslim, self.tally
        try:
            mid, _ = c.nlr_transform(c.parse_program(problem.text))
            slim, erasure, _ = c.cfar_transform(mid)
            violations = c.verify_safe_erasure(mid, erasure)
            for stage, prog in (("nlr", mid), ("cfar", slim)):
                artifact = self.work / f"{path.stem}.{stage}.clp"
                if artifact.read_text() != c.emit_clp(prog):
                    t.violations += 1
                    t.note(f"{problem.name}: {stage} artifact differs")
        except Exception:
            t.violations += 1
            t.note(f"{problem.name}: certification raised\n{traceback.format_exc()}")
            return
        for v in violations:
            t.violations += 1
            t.note(f"{problem.name}: erased {v.pair} violates {v.condition}")

    def run(self) -> int:
        args = self.args
        self.work.mkdir(parents=True, exist_ok=True)
        problems = generate(args.workload, args.seed, self.workload.problems,
                            **self.workload.sizes)
        paths = []
        for p in problems:
            path = self.work / f"{p.name}.clp"
            path.write_text(p.text)
            paths.append(path)

        setup, setup_raw = ([], []) if args.trace else \
            _measure_setup(paths[0], self.work, self.workload.bound)

        # Whole passes over the set until the time is up.  Each problem's
        # time is the fastest of its calls: interference shorter than a call
        # escapes the reference loop, and it only ever adds time.
        plain: list[list[float]] = [[] for _ in problems]  # reference seconds
        traced: list[list[float]] = [[] for _ in problems]
        raw: list[float] = []  # wall seconds of the untraced calls
        scales: list[float] = []
        first: list = [None] * len(problems)
        tracer = Tracer()
        # what the interpreter, imports and inputs hold before any call
        rss_floor = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        deadline = time.perf_counter() + args.seconds
        rounds = 0
        before = reference_time()
        while rounds == 0 or time.perf_counter() < deadline:
            for i, (p, path) in enumerate(zip(problems, paths)):
                turns = (False,) if not args.trace \
                    else (False, True) if (rounds + i) % 2 else (True, False)
                for traced_turn in turns:
                    if traced_turn:
                        # spans close before the second probe exists
                        tracer.scale = REFERENCE_S / before
                        with tracer.install():
                            elapsed, rec = self.call(p, path, tracer.run)
                    else:
                        elapsed, rec = self.call(p, path)
                    after = reference_time()
                    scale = 2 * REFERENCE_S / (before + after)
                    before = after
                    if traced_turn:
                        traced[i].append(elapsed * scale)
                        continue
                    plain[i].append(elapsed * scale)
                    raw.append(elapsed)
                    scales.append(scale)
                    if rounds == 0:
                        first[i] = rec
            rounds += 1

        # untimed: sizes from the first pass, certification of every erasure
        args_before = args_after = smt_bytes = 0
        for p, path, rec in zip(problems, paths, first):
            if rec is None or rec.args_after is None:
                continue
            args_before += rec.args_before
            args_after += rec.args_after
            smt_bytes += (self.work / f"{path.stem}.smt2").stat().st_size
            self.certify(p, path)

        t = self.tally
        fastest = [min(xs) for xs in plain]
        tail, pct = _tail([x for xs in plain for x in xs])
        raw_tail, raw_pct = _tail(raw)
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        pps = len(fastest) / sum(fastest)
        lines = [f"workload {args.workload} seed {args.seed} trace {args.trace}: "
                 f"{len(problems)} problems x {rounds} passes, "
                 f"{len(raw)} untraced timed calls",
                 f"times in reference seconds; wall-to-reference scale median "
                 f"{statistics.median(scales):.4g} (min {min(scales):.4g}, "
                 f"max {max(scales):.4g})",
                 f"problem_s.tail is p{pct:.1f} of {len(raw)} untraced calls",
                 f"peak RSS {peak_rss / 1024:.1f} MiB, of which "
                 f"{rss_floor / 1024:.1f} MiB held before the first call",
                 f"wall time over all {len(raw)} calls: median "
                 f"{statistics.median(raw):.6g} s, p{raw_pct:.1f} {raw_tail:.6g} s"]
        if setup_raw:
            lines.append(f"wall set-up time: median {statistics.median(setup_raw):.6g} s")
        report = {
            "problem_s.p50": (statistics.median(fastest), "s"),
            "problem_s.tail": (tail, "s"),
            "problems_per_s": (pps, "1/s"),
            "args_kept_frac": (args_after / args_before if args_before else 0.0, "ratio"),
            "smt_bytes": (float(smt_bytes), "bytes"),
            "peak_rss_mb": (peak_rss / 1024, "MiB"),
            "failed_frac": (t.failed / t.attempted, "ratio"),
            "wrong_verdicts": (float(t.wrong_verdicts), "count"),
        }
        if self.workload.bound is not None:
            decided = t.attempted - t.failed - t.undecided
            report["decided_frac"] = (decided / t.attempted, "ratio")
        if setup:
            report["setup_s"] = (statistics.median(setup), "s")
        if args.trace:
            traced_pps = len(problems) / sum(min(xs) for xs in traced)
            report.update(tracer.metrics(traced_pps / pps - 1))
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
            tracer.write(trace_path)
            lines.append(f"{len(tracer.spans)} spans written to "
                         f"{trace_path.relative_to(ROOT)}")
        for name, (value, unit) in report.items():
            lines.append(f"{name:<40} {value:.6g} {unit}")
        lines.append(f"certification violations: {t.violations}")
        lines += [f"note: {n}" for n in t.notes]
        print("\n".join(lines))

        correct = t.wrong_verdicts == 0 and t.violations == 0
        wanted = PER_LAYER if args.trace else END_TO_END
        result = {
            "correct": correct,
            "attempted": t.attempted,
            "failed": t.failed + t.undecided,
            "metrics": {k: {"value": report[k][0], "unit": report[k][1]}
                        for k in wanted},
        }
        print(json.dumps(result))
        return 0 if correct else 1


def main(argv: "list[str] | None" = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    chcslim = _import_chcslim()
    bench = Bench(args, chcslim)
    try:
        return bench.run()
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
