"""Command-line interface.

Exit codes: 0 for a completed run, 1 for configuration or input errors,
2 for internal invariant failures (a transformation or artifact check
contradicting itself).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import tempfile
from pathlib import Path

from .bounded import EvalError, bounded_least_model
from .cfar import cfar_transform
from .emit import SmtEmitError, emit_clp, emit_smtlib_horn
from .nlr import nlr_transform
from .parser import ParseError, parse_program
from .pipeline import (ConfigError, PipelineConfig, invariant_failures,
                       parse_json_lines, read_input, report, run_pipeline,
                       solve_external)


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 is reserved for
    # internal invariant failures here
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _stages(text: str) -> tuple[str, ...]:
    text = text.strip()
    if text in ("", "none"):
        return ()
    return tuple(part.strip() for part in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="chcslim",
                             description="Argument-slimming toolchain for "
                                         "constrained Horn clause programs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse and validate programs")
    p.add_argument("files", nargs="+", type=Path)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("nlr", help="remove non-linking variables")
    p.add_argument("file", type=Path)
    p.add_argument("-o", "--out", type=Path)
    p.add_argument("--json", action="store_true",
                   help="print the report as JSON on stderr")
    p.set_defaults(func=cmd_nlr)

    p = sub.add_parser("cfar", help="erase constrained-redundant arguments")
    p.add_argument("file", type=Path)
    p.add_argument("-o", "--out", type=Path)
    p.add_argument("--json", action="store_true",
                   help="print the report as JSON on stderr")
    p.set_defaults(func=cmd_cfar)

    p = sub.add_parser("pipeline", help="transform, emit and solve a batch")
    p.add_argument("files", nargs="+", type=Path)
    p.add_argument("--out-dir", type=Path, default=Path("chcslim-out"))
    p.add_argument("--stages", type=_stages, default=("nlr", "cfar"),
                   help="comma-separated subset of nlr,cfar (default both)")
    p.add_argument("--solver-cmd",
                   help="solver command template containing {file}")
    p.add_argument("--timeout", type=float, default=300.0)
    p.add_argument("--bound", type=int,
                   help="cross-check verdicts against bounded evaluation")
    p.add_argument("--json", action="store_true",
                   help="emit only the JSON lines of the report")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("eval", help="bounded least-model query evaluation")
    p.add_argument("file", type=Path)
    p.add_argument("--bound", type=int, default=32)
    p.add_argument("--budget", type=int, default=2_000_000)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("solve", help="run an external solver on one problem")
    p.add_argument("file", type=Path, help=".smt2 file, or .clp to convert")
    p.add_argument("--solver-cmd", required=True)
    p.add_argument("--timeout", type=float, default=300.0)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("report", help="re-render a report from JSON lines")
    p.add_argument("records", type=Path, help="JSON-lines file, or - for stdin")
    p.add_argument("--json", action="store_true",
                   help="emit only the JSON lines of the report")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ParseError, ConfigError, OSError, EvalError, SmtEmitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - surface as invariant failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


def _load(path: Path):
    return parse_program(read_input(path))


def cmd_parse(args) -> int:
    failed = False
    for path in args.files:
        try:
            prog = _load(path)
        except (ParseError, OSError) as exc:
            print(f"{path}: error: {exc}", file=sys.stderr)
            failed = True
            continue
        info = {"file": str(path), "clauses": len(prog.clauses),
                "predicates": len(prog.arities), "args": prog.total_args()}
        if args.json:
            print(json.dumps(info))
        else:
            print(f"{path}: ok ({info['clauses']} clauses, "
                  f"{info['predicates']} predicates, {info['args']} args)")
    return 1 if failed else 0


def _write_out(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text)


def _print_report(rep, as_json: bool) -> None:
    """A transform report on stderr, as JSON or as its text."""
    text = json.dumps(dataclasses.asdict(rep)) if as_json else rep.text()
    print(text, file=sys.stderr)


def cmd_nlr(args) -> int:
    prog = _load(args.file)
    result, rep = nlr_transform(prog)
    _write_out(emit_clp(result), args.out)
    _print_report(rep, args.json)
    return 0


def cmd_cfar(args) -> int:
    prog = _load(args.file)
    result, _, rep = cfar_transform(prog)
    _write_out(emit_clp(result), args.out)
    _print_report(rep, args.json)
    return 0


def _write_report(text: str, as_json: bool) -> None:
    """A batch report on stdout; with ``--json``, only its JSON lines."""
    if as_json:
        text = "\n".join(line for line in text.splitlines()
                         if line.startswith("{")) + "\n"
    sys.stdout.write(text)


def cmd_pipeline(args) -> int:
    cfg = PipelineConfig(inputs=list(args.files), out_dir=args.out_dir,
                         stages=args.stages, solver_cmd=args.solver_cmd,
                         timeout=args.timeout, bound=args.bound)
    records = run_pipeline(cfg)
    _write_report(report(records), args.json)
    failures = invariant_failures(records)
    if failures:
        for failure in failures:
            print(f"invariant failure: {failure}", file=sys.stderr)
        return 2
    return 0


def cmd_eval(args) -> int:
    prog = _load(args.file)
    model = bounded_least_model(prog, args.bound, budget=args.budget)
    verdict = model.verdict().value
    counts = {p: len(f) for p, f in sorted(model.facts.items())}
    if args.json:
        print(json.dumps({"unsafe": verdict, "facts": counts,
                          "clipped": model.clipped, "rounds": model.rounds,
                          "steps": model.steps}))
    else:
        print(f"unsafe: {verdict}")
        for pred, count in counts.items():
            print(f"  {pred}: {count}")
        print(f"clipped: {str(model.clipped).lower()}")
        print(f"rounds: {model.rounds}")
        print(f"steps: {model.steps}")
    return 0


def cmd_solve(args) -> int:
    path, converted = args.file, None
    if path.suffix == ".clp":
        smt = emit_smtlib_horn(_load(path))
        with tempfile.NamedTemporaryFile("w", suffix=".smt2",
                                         delete=False) as handle:
            handle.write(smt)
        path = converted = Path(handle.name)
    try:
        verdict, elapsed = solve_external(path, args.solver_cmd, args.timeout)
    finally:
        if converted is not None:
            converted.unlink(missing_ok=True)
    print(f"{verdict} {elapsed:.3f}")
    return 0


def cmd_report(args) -> int:
    if str(args.records) == "-":
        text = sys.stdin.read()
    else:
        text = read_input(args.records)
    records = parse_json_lines(text)
    _write_report(report(records, json_lines=args.json), args.json)
    return 0


if __name__ == "__main__":
    sys.exit(main())