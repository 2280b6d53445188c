"""Batch harness: transform problems, emit artifacts, run a solver, report.

A pipeline run takes a list of ``.clp`` problems, applies the configured
transformation stages to each, writes the transformed program and its
SMT-LIB rendering next to each other in the output directory, and
optionally hands the SMT-LIB file to an external Horn solver.  Nothing
about a particular solver is assumed beyond a command template and the
convention that the first token on standard output is the status.

The report mirrors the usual benchmark-table shape: correct answers (c),
safe (s), unsafe (u), timeouts (to), problem count (n), per-stage times,
solving time (st), total time (tt) and average time per correct answer
(at).  Time rows sum over definitively answered problems only, so tt is
comparable with c and at = tt / c.
"""

from __future__ import annotations

import json
import math
import shlex
import subprocess
import time
import types
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .bounded import EvalError, derives_unsafe
from .cfar import cfar_transform
from .constraints import answers_once
from .emit import SmtEmitError, emit_clp, emit_smtlib_horn
from .nlr import nlr_transform
from .parser import ParseError, parse_program
from .syntax import Program

STAGES = ("nlr", "cfar")
TABLE_LABELS = ("c", "s", "u", "to", "n", "t_NLR", "t_cFAR", "st", "tt", "at")


class ConfigError(ValueError):
    pass


@dataclass
class PipelineConfig:
    inputs: list[Path]
    out_dir: Path
    stages: tuple[str, ...] = STAGES
    solver_cmd: str | None = None
    timeout: float = 300.0
    bound: int | None = None

    def validate(self) -> None:
        if not self.inputs:
            raise ConfigError("no input files")
        self.out_dir = Path(self.out_dir)
        _check_solver(self.solver_cmd, self.timeout)
        bad = [s for s in self.stages if s not in STAGES]
        if bad:
            raise ConfigError(f"unknown stages: {', '.join(map(repr, bad))}")
        if len(set(self.stages)) != len(self.stages):
            raise ConfigError("duplicate stages")
        if self.bound is not None and (type(self.bound) is not int or self.bound < 1):
            raise ConfigError(f"bound must be a positive integer, got {self.bound!r}")
        stems = Counter(Path(p).stem for p in self.inputs)
        shared = sorted(stem for stem, n in stems.items() if n > 1)
        if shared:
            raise ConfigError(f"inputs share the name {', '.join(shared)}; "
                              "their artifacts would overwrite each other")


@dataclass
class RunRecord:
    name: str
    stages: tuple[str, ...] = ()
    stage_times: dict[str, float] = field(default_factory=dict)
    verdict: str = "skipped"
    solve_time: float = 0.0
    classification: str = "undetermined"
    args_before: int | None = None
    args_after: int | None = None
    clauses_before: int | None = None
    clauses_after: int | None = None
    oracle: str | None = None
    cfar_second_erasure: int | None = None
    artifacts: list[str] = field(default_factory=list)
    error: str | None = None
    internal_error: str | None = None

    def to_json(self) -> dict:
        data = asdict(self)
        data["stages"] = list(self.stages)
        data["stage_times"] = {k: round(v, 6) for k, v in self.stage_times.items()}
        data["solve_time"] = round(self.solve_time, 6)
        return data

    @classmethod
    def from_json(cls, data: dict) -> "RunRecord":
        """A record from the fields present; a missing classification
        follows the verdict, every other missing field is its default.
        A present field whose value does not fit its type is a
        ConfigError naming the field."""
        written = {f.name: f.type for f in fields(cls)}
        present = {k: v for k, v in data.items() if k in written}
        for name, value in present.items():
            if not _fits(value, _FIELD_TYPES[name]):
                raise ConfigError(f"field {name}: {value!r} is not "
                                  f"{written[name]}")
        rec = cls(**present)
        rec.stages = tuple(rec.stages)
        if "classification" not in data:
            rec.classification = classification_for(rec.verdict)
        return rec


_FIELD_TYPES = get_type_hints(RunRecord)


def _fits(value: object, hint) -> bool:
    """Whether a JSON value fits a field type: a JSON number is a float,
    a JSON array a tuple or a list, and a boolean is not a number."""
    args = get_args(hint)
    if isinstance(hint, types.UnionType):
        return any(_fits(value, arg) for arg in args)
    if hint is type(None):
        return value is None
    if hint is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if hint is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if hint is str:
        return isinstance(value, str)
    if get_origin(hint) in (tuple, list):
        return isinstance(value, list) and all(_fits(v, args[0]) for v in value)
    if get_origin(hint) is dict:
        return isinstance(value, dict) and all(
            _fits(k, args[0]) and _fits(v, args[1]) for k, v in value.items())
    raise TypeError(f"no JSON reading for {hint}")


def classification_for(verdict: str) -> str:
    # unsat clauses mean the unsafe query is derivable, sat means it is not
    return {"sat": "safe", "unsat": "unsafe"}.get(verdict, "undetermined")


def _check_solver(command: str | None, timeout: float) -> list[str] | None:
    """The words of a given solver command; ConfigError unless the timeout
    is a finite positive int or float (not a bool) and the command splits
    into shell-style words and contains the ``{file}`` placeholder."""
    if not (type(timeout) in (int, float) and math.isfinite(timeout) and timeout > 0):
        raise ConfigError(f"--timeout must be a finite positive number, "
                          f"got {timeout!r}")
    if command is None:
        return None
    if "{file}" not in command:
        raise ConfigError("--solver-cmd must contain the {file} placeholder")
    try:
        return shlex.split(command)
    except ValueError as exc:
        raise ConfigError(f"--solver-cmd {command!r} does not split into "
                          f"words: {exc}") from None


def solve_external(smt_path: Path, command: str,
                   timeout: float) -> tuple[str, float]:
    """Run ``command`` (a shell-style template with ``{file}``) on the file
    and classify the first stdout token; returns (verdict, elapsed).  A
    command that cannot be started is a ConfigError."""
    argv = [tok.replace("{file}", str(smt_path))
            for tok in _check_solver(command, timeout)]
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout", float(timeout)
    except OSError as exc:
        raise ConfigError(f"cannot run solver command {command!r}: {exc}") from exc
    elapsed = time.perf_counter() - start
    tokens = proc.stdout.split()
    token = tokens[0] if tokens else ""
    verdict = token if token in ("sat", "unsat") else "unknown"
    return verdict, elapsed


def read_input(path: Path) -> str:
    """The text of an input file; an OSError when it cannot be read or is
    not UTF-8, so a caller handles both alike."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise OSError(f"{path}: not UTF-8: {exc}") from None


def run_pipeline(cfg: PipelineConfig) -> list[RunRecord]:
    """Process every input; per-problem failures are recorded, not raised."""
    cfg.validate()
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    records = []
    for path in cfg.inputs:
        records.append(_run_one(Path(path), cfg))
    return records


@answers_once()  # one answer table per problem
def _run_one(path: Path, cfg: PipelineConfig) -> RunRecord:
    rec = RunRecord(path.stem, stages=tuple(cfg.stages))
    for stage in cfg.stages:
        rec.stage_times[stage] = 0.0
    try:
        text = read_input(path)
    except OSError as exc:
        rec.error = f"unreadable input: {exc}"
        return rec
    try:
        prog = parse_program(text)
    except ParseError as exc:
        rec.error = f"parse error: {exc}"
        return rec

    rec.args_before = prog.total_args()
    rec.clauses_before = len(prog.clauses)
    current = prog
    try:
        for stage in cfg.stages:
            start = time.perf_counter()
            if stage == "nlr":
                current, _ = nlr_transform(current)
            else:
                current, _, _ = cfar_transform(current)
            rec.stage_times[stage] = time.perf_counter() - start
            clp_path = cfg.out_dir / f"{rec.name}.{stage}.clp"
            try:
                clp_path.write_text(emit_clp(current))
                rec.artifacts.append(str(clp_path))
                problem = _recheck_artifact(clp_path, current)
            except OSError as exc:  # not written, or not read back
                rec.error = f"artifact error: {exc}"
                return rec
            if problem:
                rec.internal_error = problem
                return rec
        if "cfar" in cfg.stages:
            _, second, _ = cfar_transform(current)
            rec.cfar_second_erasure = len(second)
        rec.args_after = current.total_args()
        rec.clauses_after = len(current.clauses)
    except Exception as exc:  # a transformation bug, not an input problem
        rec.internal_error = f"transform failed: {exc}"
        return rec

    try:
        smt_path = cfg.out_dir / f"{rec.name}.smt2"
        smt_path.write_text(emit_smtlib_horn(current))
        rec.artifacts.append(str(smt_path))
    except SmtEmitError as exc:
        rec.error = f"emit error: {exc}"
        return rec
    except OSError as exc:
        rec.error = f"artifact error: {exc}"
        return rec

    if cfg.solver_cmd is not None:
        rec.verdict, rec.solve_time = solve_external(smt_path, cfg.solver_cmd,
                                                     cfg.timeout)
    rec.classification = classification_for(rec.verdict)

    if cfg.bound is not None:
        try:
            rec.oracle = _oracle_verdict(current, cfg.bound)
        except Exception as exc:  # an evaluator bug, not an input problem
            rec.internal_error = (f"evaluation failed: "
                                  f"{type(exc).__name__}: {exc}")
            return rec
        clash = _contradiction(rec.verdict, rec.oracle)
        if clash:
            rec.internal_error = clash
    return rec


def _recheck_artifact(path: Path, written: Program) -> str | None:
    # parse_program builds a Program, which checks the program rules, so
    # an artifact that re-parses is valid; it must also read back as the
    # program written
    try:
        again = parse_program(path.read_text())
    except ParseError as exc:
        return f"artifact {path.name} does not re-parse: {exc}"
    if again != written:
        return f"artifact {path.name} re-parses to a different program"
    return None


def _oracle_verdict(prog: Program, bound: int) -> str:
    try:
        result = derives_unsafe(prog, bound)
    except EvalError:
        return "unknown"
    return result.value


def _contradiction(verdict: str, oracle: str) -> str | None:
    # a derivation of unsafe makes the clauses unsat; an exact empty
    # query relation makes them sat
    if verdict == "sat" and oracle == "holds":
        return "oracle derives unsafe but solver reports sat"
    if verdict == "unsat" and oracle == "fails":
        return "oracle refutes unsafe exactly but solver reports unsat"
    return None


def invariant_failures(records: list[RunRecord]) -> list[str]:
    return [f"{r.name}: {r.internal_error}" for r in records if r.internal_error]


def report(records: list[RunRecord], *, json_lines: bool = True) -> str:
    """Fixed-label summary table, an idempotence note, then one JSON line
    per record and a JSON summary line."""
    s = sum(1 for r in records if r.verdict == "sat")
    u = sum(1 for r in records if r.verdict == "unsat")
    to = sum(1 for r in records if r.verdict == "timeout")
    c = s + u
    n = len(records)
    definitive = [r for r in records if r.verdict in ("sat", "unsat")]
    t_nlr = sum(r.stage_times.get("nlr", 0.0) for r in definitive)
    t_cfar = sum(r.stage_times.get("cfar", 0.0) for r in definitive)
    st = sum(r.solve_time for r in definitive)
    tt = t_nlr + t_cfar + st
    at = tt / c if c else None

    values = dict(zip(TABLE_LABELS, (c, s, u, to, n, t_nlr, t_cfar, st, tt, at)))
    counts = TABLE_LABELS[:5]  # the labels after them are times in seconds
    lines = [f"{label:<7}" + (str(v) if label in counts else
                              "--" if v is None else f"{v:.3f}")
             for label, v in values.items()]

    rerun = [r for r in records if r.cfar_second_erasure is not None]
    if rerun:
        nonempty = sum(1 for r in rerun if r.cfar_second_erasure)
        lines.append(f"# cfar re-run produced a non-empty erasure on "
                     f"{nonempty} of {len(rerun)} problems")
    if json_lines:
        for r in records:
            lines.append(json.dumps(r.to_json(), sort_keys=True))
        summary = {label: v if v is None else round(v, 6)  # ints stay ints
                   for label, v in values.items()}
        lines.append(json.dumps({"summary": summary}, sort_keys=True))
    return "\n".join(lines) + "\n"


def parse_json_lines(text: str) -> list[RunRecord]:
    """Rebuild records from the JSON lines of a previous report; a line
    that is not JSON, has no record name or has a field of the wrong type
    is a ConfigError naming it."""
    records = []
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line.startswith("{"):
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"line {number}: not JSON: {exc}") from exc
        if "summary" in data:
            continue
        if "name" not in data:
            raise ConfigError(f"line {number}: run record has no name")
        try:
            records.append(RunRecord.from_json(data))
        except ConfigError as exc:
            raise ConfigError(f"line {number}: {exc}") from None
    return records