"""Batch harness: configuration, external solvers, report rendering, and
the command line front end."""

import json
import sys
import tempfile
from pathlib import Path

import pytest

from chcslim import constraints, pipeline
from chcslim.cli import main
from chcslim.corpus import corpus_dir, corpus_names
from chcslim.pipeline import (
    ConfigError, PipelineConfig, RunRecord, TABLE_LABELS, invariant_failures,
    parse_json_lines, report, run_pipeline, solve_external,
)
from chcslim import parse_program, nlr_transform
from chcslim.syntax import Constraint, Program

from oracles import programs_isomorphic

CORPUS = corpus_dir()


def config(tmp_path, names=("branch_unsafe",), **kw):
    inputs = [str(CORPUS / f"{n}.clp") for n in names]
    return PipelineConfig(inputs=inputs, out_dir=str(tmp_path / "out"), **kw)


@pytest.mark.parametrize("kw, fragment", [
    ({"inputs": []}, "input"),
    ({"stages": ("nlr", "bogus")}, "stage"),
    ({"stages": ("nlr", "nlr")}, "stage"),
    ({"timeout": 0}, "timeout"),
    ({"solver_cmd": "z3"}, "{file}"),
    ({"bound": 0}, "bound"),
    ({"inputs": ["a/x.clp", "b/x.clp"]}, "share the name x"),
    ({"timeout": float("nan")}, "--timeout"),
    ({"timeout": float("inf")}, "--timeout"),
    ({"solver_cmd": "z3 '{file}"}, "--solver-cmd"),
    ({"bound": 2.5}, "bound"),
    ({"bound": True}, "bound"),
    ({"bound": "8"}, "bound"),
    ({"timeout": "5"}, "--timeout"),
    ({"timeout": True}, "--timeout"),
    ({"stages": ("nlr", "")}, "''"),
])
def test_config_validation(tmp_path, kw, fragment):
    base = dict(inputs=[str(CORPUS / "branch_unsafe.clp")],
                out_dir=str(tmp_path))
    base.update(kw)
    with pytest.raises(ConfigError) as info:
        PipelineConfig(**base).validate()
    assert fragment in str(info.value)


@pytest.mark.parametrize("behavior, verdict", [
    ("sat", "sat"),
    ("unsat", "unsat"),
    ("garbage", "unknown"),
    ("empty", "unknown"),
    ("crash", "unknown"),
])
def test_solve_external_verdicts(tmp_path, fake_solver, behavior, verdict):
    smt = tmp_path / "q.smt2"
    smt.write_text("(check-sat)\n")
    got, elapsed = solve_external(str(smt), fake_solver(behavior), 10.0)
    assert got == verdict
    assert elapsed >= 0


def test_solve_external_timeout(tmp_path, fake_solver):
    smt = tmp_path / "q.smt2"
    smt.write_text("(check-sat)\n")
    got, elapsed = solve_external(str(smt), fake_solver("sleep"), 0.5)
    assert got == "timeout"
    assert elapsed == 0.5


def test_solve_external_missing_binary(tmp_path):
    smt = tmp_path / "q.smt2"
    smt.write_text("(check-sat)\n")
    with pytest.raises(ConfigError) as info:
        solve_external(str(smt), "/no/such/solver {file}", 5.0)
    assert "/no/such/solver" in str(info.value)


def test_run_pipeline_produces_artifacts(tmp_path, fake_solver):
    cfg = config(tmp_path, names=("branch_unsafe", "chain_safe"),
                 solver_cmd=fake_solver("sat"), bound=None)
    records = run_pipeline(cfg)
    assert [r.name for r in records] == ["branch_unsafe", "chain_safe"]
    for record in records:
        assert record.verdict == "sat"
        assert record.classification == "safe"
        assert record.stages == ("nlr", "cfar")
        assert set(record.stage_times) == {"nlr", "cfar"}
        assert [Path(a).name for a in record.artifacts] == [
            f"{record.name}.nlr.clp", f"{record.name}.cfar.clp",
            f"{record.name}.smt2"]
        for path in record.artifacts:
            assert Path(path).exists()
        assert record.args_before is not None
        assert record.args_after is not None
        assert record.args_after <= record.args_before
        assert record.cfar_second_erasure == 0
        assert record.internal_error is None


def test_artifacts_reparse_and_preserve_arity_sums(tmp_path, fake_solver):
    cfg = config(tmp_path, names=("dead_argument",),
                 solver_cmd=fake_solver("unsat"))
    record = run_pipeline(cfg)[0]
    assert record.classification == "unsafe"
    nlr_art, cfar_art, smt = record.artifacts
    nlr_prog = parse_program(open(nlr_art).read())
    expected, _ = nlr_transform(parse_program(
        (CORPUS / "dead_argument.clp").read_text()))
    assert programs_isomorphic(nlr_prog, expected)
    assert open(smt).read().startswith("(set-logic HORN)")


def test_artifact_that_reads_back_as_another_program_fails(tmp_path,
                                                          monkeypatch, capsys):
    # an emitter that drops a conjunct writes an artifact that parses, but
    # not as the program written: an internal error, and the batch goes on
    emit = pipeline.emit_clp

    def dropping(prog):
        clauses = list(prog.clauses)
        i = next(i for i, c in enumerate(clauses) if c.constraint.conjuncts)
        conjuncts = clauses[i].constraint.conjuncts[1:]
        clauses[i] = clauses[i]._replace(constraint=Constraint(conjuncts))
        return emit(Program(tuple(clauses)))

    monkeypatch.setattr(pipeline, "emit_clp", dropping)
    records = run_pipeline(config(tmp_path, names=("branch_unsafe",
                                                   "always_safe")))
    assert [r.internal_error for r in records] == [
        f"artifact {name}.nlr.clp re-parses to a different program"
        for name in ("branch_unsafe", "always_safe")]
    assert [len(r.artifacts) for r in records] == [1, 1]
    rc = main(["pipeline", str(CORPUS / "branch_unsafe.clp"), "--out-dir",
               str(tmp_path / "cli"), "--json"])
    assert rc == 2
    assert "re-parses to a different program" in capsys.readouterr().err


def test_oracle_contradiction_marks_internal_error(tmp_path, fake_solver):
    # Bounded evaluation proves the query reachable; a solver claiming sat
    # (safe) is lying, and the run must say so rather than swallow it.
    cfg = config(tmp_path, names=("two_counters",),
                 solver_cmd=fake_solver("sat"), bound=32)
    records = run_pipeline(cfg)
    assert records[0].oracle == "holds"
    assert records[0].internal_error
    from chcslim.pipeline import invariant_failures
    assert invariant_failures(records)


# inputs that must become an error record, not end the batch
BAD_INPUTS = {
    "no.clp": None,  # missing
    "bad.clp": b"p(X) :- X=1.\n\xff\xfe unsafe :- p(X).\n",  # not UTF-8
    "huge.clp": b"p(X) :- X=" + b"9" * 5000 + b".\nunsafe :- p(X).\n",
}


@pytest.mark.parametrize("name", BAD_INPUTS)
def test_unreadable_input_becomes_error_record(tmp_path, fake_solver, name):
    if BAD_INPUTS[name] is not None:
        (tmp_path / name).write_bytes(BAD_INPUTS[name])
    cfg = PipelineConfig(
        inputs=[str(tmp_path / name), str(CORPUS / "branch_unsafe.clp")],
        out_dir=str(tmp_path / "out"), solver_cmd=fake_solver("sat"))
    records = run_pipeline(cfg)
    assert records[0].verdict == "skipped"
    assert records[0].error and not records[0].internal_error
    assert records[1].verdict == "sat"


def test_unwritable_clp_artifact_becomes_error_record(tmp_path, capsys):
    # the input's name fits, but its .nlr.clp artifact's name is too long
    long = tmp_path / ("x" * 250 + ".clp")
    long.write_text((CORPUS / "chain_safe.clp").read_text())
    argv = ["pipeline", str(long), str(CORPUS / "branch_unsafe.clp"),
            "--out-dir", str(tmp_path / "out"), "--bound", "8", "--json"]
    assert main(argv) == 0
    records = parse_json_lines(capsys.readouterr().out)
    assert records[0].error.startswith("artifact error: ")
    assert not records[0].internal_error and not records[0].artifacts
    assert (records[1].name, records[1].oracle) == ("branch_unsafe", "holds")


def test_unwritable_smt_artifact_becomes_error_record(tmp_path, capsys):
    for name, source in (("z", "chain_safe"), ("y", "branch_unsafe")):
        (tmp_path / f"{name}.clp").write_text(
            (CORPUS / f"{source}.clp").read_text())
    (tmp_path / "out" / "z.smt2").mkdir(parents=True)
    argv = ["pipeline", str(tmp_path / "z.clp"), str(tmp_path / "y.clp"),
            "--out-dir", str(tmp_path / "out")]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert not captured.err
    records = parse_json_lines(captured.out)
    assert [r.name for r in records] == ["z", "y"]
    assert records[0].error.startswith("artifact error: ")
    assert "z.smt2" in records[0].error and not records[0].internal_error
    assert records[1].error is None
    assert (tmp_path / "out" / "y.smt2").is_file()


def test_rerun_into_the_same_out_dir_writes_the_bytes_of_a_fresh_run(tmp_path):
    # artifacts are rewritten in place: a shorter program leaves no tail
    # of the longer one's artifacts behind
    problem = tmp_path / "p.clp"
    problem.write_text((CORPUS / "count_up_safe.clp").read_text())
    reused = PipelineConfig([problem], tmp_path / "reused", bound=8)
    longer = [Path(a).read_bytes() for a in run_pipeline(reused)[0].artifacts]
    problem.write_text((CORPUS / "always_safe.clp").read_text())
    again = run_pipeline(reused)[0]
    fresh = run_pipeline(PipelineConfig([problem], tmp_path / "fresh", bound=8))[0]
    assert [Path(a).name for a in again.artifacts] == [
        Path(a).name for a in fresh.artifacts] == ["p.nlr.clp", "p.cfar.clp",
                                                   "p.smt2"]
    for old, path, want in zip(longer, again.artifacts, fresh.artifacts):
        assert len(old) > len(Path(want).read_bytes())
        assert Path(path).read_bytes() == Path(want).read_bytes()


def test_stage_subset_skips_other_transform(tmp_path):
    cfg = config(tmp_path, stages=("nlr",))
    record = run_pipeline(cfg)[0]
    assert record.stages == ("nlr",)
    assert len(record.artifacts) == 2


def test_report_labels_and_arithmetic():
    a = RunRecord(name="a")
    a.verdict, a.classification, a.solve_time = "sat", "safe", 0.3
    a.stage_times = {"nlr": 0.1, "cfar": 0.2}
    b = RunRecord(name="b")
    b.verdict, b.classification, b.solve_time = "unsat", "unsafe", 0.5
    b.stage_times = {"nlr": 0.2, "cfar": 0.1}
    c = RunRecord(name="c")
    c.verdict = "timeout"
    text = report([a, b, c], json_lines=False)
    rows = dict(line.split(None, 1) for line in text.splitlines()
                if line and not line.startswith(("#", "{")))
    assert list(rows) == list(TABLE_LABELS)
    assert rows["c"] == "2"
    assert rows["s"] == "1"
    assert rows["u"] == "1"
    assert rows["to"] == "1"
    assert rows["n"] == "3"
    assert rows["t_NLR"] == "0.300"
    assert rows["t_cFAR"] == "0.300"
    assert rows["st"] == "0.800"
    assert rows["tt"] == "1.400"
    assert rows["at"] == "0.700"


def test_report_with_no_definitive_runs_prints_dashes():
    r = RunRecord(name="x")
    text = report([r], json_lines=False)
    rows = dict(line.split(None, 1) for line in text.splitlines() if line)
    assert rows["c"] == "0"
    assert rows["at"] == "--"


def test_report_idempotence_comment():
    a = RunRecord(name="a")
    a.cfar_second_erasure = 2
    b = RunRecord(name="b")
    b.cfar_second_erasure = 0
    text = report([a, b], json_lines=False)
    comments = [l for l in text.splitlines() if l.startswith("#")]
    assert comments == ["# cfar re-run produced a non-empty erasure "
                        "on 1 of 2 problems"]


def test_report_json_lines_round_trip(tmp_path, fake_solver):
    cfg = config(tmp_path, names=("branch_unsafe", "always_safe"),
                 solver_cmd=fake_solver("unsat"))
    records = run_pipeline(cfg)
    text = report(records)
    back = parse_json_lines(text)
    assert [r.to_json() for r in back] == [r.to_json() for r in records]
    summary = [json.loads(l) for l in text.splitlines()
               if l.startswith("{") and "summary" in l][-1]
    assert summary["summary"]["n"] == 2


def test_run_record_from_json_defaults_missing_fields():
    rec = RunRecord.from_json({"name": "p", "verdict": "unsat"})
    assert rec.classification == "unsafe"
    assert rec == RunRecord("p", verdict="unsat", classification="unsafe")


def test_cli_parse_ok_and_error(tmp_path, capsys):
    good = CORPUS / "branch_unsafe.clp"
    assert main(["parse", str(good)]) == 0
    bad = tmp_path / "bad.clp"
    bad.write_text("p(X :- X=1.\n")
    assert main(["parse", str(bad)]) == 1
    out = capsys.readouterr()
    assert "ok" in out.out
    assert "expected" in out.out + out.err


def test_cli_nlr_writes_output(tmp_path, capsys):
    target = tmp_path / "out.clp"
    rc = main(["nlr", str(CORPUS / "nonlinking_call.clp"), "-o", str(target)])
    assert rc == 0
    produced = parse_program(target.read_text())
    expected, _ = nlr_transform(parse_program(
        (CORPUS / "nonlinking_call.clp").read_text()))
    assert programs_isomorphic(produced, expected)
    err = capsys.readouterr().err
    assert "arguments" in err


def test_deep_clause_does_not_abort_the_batch(tmp_path):
    # the evaluator nests one call per enumerated variable; a chain longer
    # than the recursion limit leaves its problem undecided, not the batch
    # dead
    n = 300
    chain = ", ".join(f"X{i}=X{i - 1}" for i in range(1, n))
    deep = tmp_path / "deep.clp"
    deep.write_text(f"p(X{n - 1}) :- X0=0, {chain}.\nunsafe :- p(X), X>=1.\n")
    cfg = PipelineConfig(inputs=[str(deep), str(CORPUS / "branch_unsafe.clp")],
                         out_dir=str(tmp_path / "out"), stages=(), bound=32)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(250)
    try:
        records = run_pipeline(cfg)
    finally:
        sys.setrecursionlimit(limit)
    assert [(r.name, r.oracle) for r in records] == [
        ("deep", "unknown"), ("branch_unsafe", "holds")]
    assert not invariant_failures(records)


def test_evaluation_crash_does_not_abort_the_batch(tmp_path, monkeypatch,
                                                  capsys):
    # an exception from the evaluator other than EvalError is a bug in it:
    # the problem records it and the batch goes on
    evaluate, calls = pipeline.derives_unsafe, []

    def crash_first(prog, bound):
        calls.append(bound)
        if len(calls) == 1:
            raise RuntimeError("evaluator bug")
        return evaluate(prog, bound)

    monkeypatch.setattr(pipeline, "derives_unsafe", crash_first)
    records = run_pipeline(config(tmp_path, names=("branch_unsafe",
                                                   "always_safe"), bound=32))
    assert [r.name for r in records] == ["branch_unsafe", "always_safe"]
    assert records[0].internal_error == ("evaluation failed: RuntimeError: "
                                         "evaluator bug")
    assert records[1].oracle == "fails" and not records[1].internal_error
    calls.clear()
    rc = main(["pipeline", str(CORPUS / "branch_unsafe.clp"),
               str(CORPUS / "always_safe.clp"), "--out-dir",
               str(tmp_path / "cli"), "--bound", "32", "--json"])
    assert rc == 2
    assert len(parse_json_lines(capsys.readouterr().out)) == 2


def _count_oracle_work(monkeypatch):
    """The distinct (constraint, keep) questions without arrays asked of
    the oracle and the answers computed fresh, from here on."""
    ask, eliminate = constraints._projects_to_true, constraints._eliminate
    asked, fresh = set(), []

    def asking(c, keep):
        if not c.has_arrays():
            asked.add((c, keep))
        return ask(c, keep)

    def eliminating(c, keep):
        fresh.append((c, keep))
        return eliminate(c, keep)

    monkeypatch.setattr(constraints, "_projects_to_true", asking)
    monkeypatch.setattr(constraints, "_eliminate", eliminating)
    return asked, fresh


def test_oracle_answers_once_per_problem(tmp_path, monkeypatch):
    # count_up_safe asks 7 questions, 4 of them distinct
    text = (CORPUS / "count_up_safe.clp").read_text()
    inputs = []
    for name in ("first", "second"):
        inputs.append(tmp_path / f"{name}.clp")
        inputs[-1].write_text(text)
    asked, fresh = _count_oracle_work(monkeypatch)
    run_pipeline(PipelineConfig(inputs=inputs[:1], out_dir=tmp_path / "one"))
    assert len(fresh) == len(asked) == 4
    # the same text as a second problem of one batch shares no answer
    fresh.clear()
    run_pipeline(PipelineConfig(inputs=inputs, out_dir=tmp_path / "two"))
    assert len(fresh) == 8 and len(set(fresh)) == 4
    # cfar_transform alone keeps its own table: on the nlr output (the raw
    # text's pairs are all kept without the oracle) 4 questions, 3 distinct
    slim, _ = nlr_transform(parse_program(text))
    asked.clear()
    fresh.clear()
    pipeline.cfar_transform(slim)
    assert len(fresh) == len(asked) == 3


def test_failed_transform_leaves_no_answers_behind(tmp_path, monkeypatch):
    transform, read = pipeline.cfar_transform, pipeline.read_input
    asked, fresh = _count_oracle_work(monkeypatch)
    starts = []

    def crash_first(prog):
        result = transform(prog)
        if len(starts) == 1:
            raise RuntimeError("cfar bug")
        return result

    def reading(path):
        starts.append((dict(constraints._table), len(fresh)))
        return read(path)

    monkeypatch.setattr(pipeline, "cfar_transform", crash_first)
    monkeypatch.setattr(pipeline, "read_input", reading)
    records = run_pipeline(config(tmp_path, names=("count_up_safe",
                                                   "count_up_unsafe")))
    assert records[0].internal_error == "transform failed: cfar bug"
    assert not records[1].internal_error
    # each problem opens its own table, empty, and none is left after
    assert [table for table, _ in starts] == [{}, {}]
    assert constraints._table is None
    # the second problem computes every one of its answers afresh
    assert len(fresh) - starts[1][1] == 4


@pytest.mark.parametrize("source, credits", [
    # X=Y ties both head variables: (ii) keeps both pairs
    ("p(X,Y) :- X=Y, X>=0.", {"ii-head-constrained": 2}),
    # c(1) keeps c/1, and the closure keeps b/1 and then a/1 before any
    # question about a's X>=0
    ("a(X) :- X>=0, b(X).\nb(X) :- c(X).\nc(1).\nunsafe :- a(X).",
     {"i-not-variable": 1, "iii-body-constrained": 2}),
])
def test_oracle_is_not_asked_for_pairs_kept_without_it(monkeypatch, source,
                                                       credits):
    asked, fresh = _count_oracle_work(monkeypatch)
    _, erasure, report = pipeline.cfar_transform(parse_program(source))
    assert erasure == frozenset()
    assert report.removals_by_condition == credits
    assert not asked and not fresh


def test_cli_cfar_prints_erasure_on_stderr(capsys):
    rc = main(["cfar", str(CORPUS / "dead_argument.clp")])
    assert rc == 0
    out = capsys.readouterr()
    assert out.err.count("p/2 2") == 1
    assert parse_program(out.out)


def test_cli_cfar_reports_the_projection(tmp_path, capsys):
    path = tmp_path / "chain.clp"
    path.write_text("unsafe :- p(Y), Y>=2.\n"
                    "p(Y) :- T=X+1, Y=T, Z>=0, Z=<1, q(X).\n"
                    "q(X) :- X=1.\n")
    assert main(["cfar", str(path)]) == 0
    out = capsys.readouterr()
    assert "p(Y) :- Y=X+1, q(X)." in out.out
    assert ("conjuncts dropped: 3\nvariables eliminated: 2\n"
            "clauses dropped: 0") in out.err
    assert main(["cfar", str(path), "--json"]) == 0
    rep = json.loads(capsys.readouterr().err)
    assert (rep["conjuncts_dropped"], rep["vars_eliminated"],
            rep["clauses_dropped"]) == (3, 2, 0)


@pytest.mark.parametrize("name, bound, verdict, clipped, rounds, steps", [
    ("branch_unsafe", 32, "holds", "false", 5, 63),
    ("always_safe", 32, "fails", "false", 0, 1),
    ("count_up_safe", 8, "unknown", "true", 0, 0),
])
def test_cli_eval_output(name, bound, verdict, clipped, rounds, steps,
                         capsys):
    rc = main(["eval", str(CORPUS / f"{name}.clp"), "--bound", str(bound)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"unsafe: {verdict}"
    assert f"rounds: {rounds}" in lines
    assert f"clipped: {clipped}" in lines
    assert f"steps: {steps}" in lines
    assert main(["eval", str(CORPUS / f"{name}.clp"), "--bound", str(bound),
                 "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["unsafe"], report["rounds"], report["steps"]) == (
        verdict, rounds, steps)


def test_cli_eval_budget_exhaustion(capsys):
    rc = main(["eval", str(CORPUS / "interval_loop_safe.clp"),
               "--bound", "32", "--budget", "10"])
    assert rc == 1
    assert "exceeded" in capsys.readouterr().err


def test_cli_solve_prints_verdict_and_time(tmp_path, fake_solver, capsys):
    rc = main(["solve", str(CORPUS / "chain_safe.clp"),
               "--solver-cmd", fake_solver("sat")])
    assert rc == 0
    verdict, elapsed = capsys.readouterr().out.split()
    assert verdict == "sat"
    assert float(elapsed) >= 0


def test_cli_solve_removes_converted_file(tmp_path, fake_solver, monkeypatch,
                                          capsys):
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmpdir))
    problem = str(CORPUS / "chain_safe.clp")
    assert main(["solve", problem, "--solver-cmd", fake_solver("sat")]) == 0
    assert main(["solve", problem, "--solver-cmd",
                 "/no/such/solver {file}"]) == 1
    assert not list(tmpdir.glob("*.smt2"))


def test_cli_pipeline_json_and_report_rerender(tmp_path, fake_solver, capsys):
    files = [str(CORPUS / f"{n}.clp") for n in ("branch_unsafe", "chain_safe")]
    rc = main(["pipeline", *files, "--out-dir", str(tmp_path / "o"),
               "--solver-cmd", fake_solver("unsat"), "--json"])
    assert rc == 0
    out = capsys.readouterr().out
    json_path = tmp_path / "r.jsonl"
    json_path.write_text(out)
    assert all(l.startswith("{") for l in out.splitlines() if l)
    rc = main(["report", str(json_path)])
    assert rc == 0
    table = capsys.readouterr().out
    assert "u      2" in table
    # --json means the same on report as on pipeline: the JSON lines alone
    assert main(["report", str(json_path), "--json"]) == 0
    again = capsys.readouterr().out
    assert again.splitlines() and all(
        l.startswith("{") for l in again.splitlines())
    assert parse_json_lines(again) == parse_json_lines(out)


def test_cli_pipeline_contradiction_exits_2(tmp_path, fake_solver, capsys):
    rc = main(["pipeline", str(CORPUS / "two_counters.clp"),
               "--out-dir", str(tmp_path / "o"),
               "--solver-cmd", fake_solver("sat"), "--bound", "32"])
    assert rc == 2
    assert "invariant failure" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["pipeline", "x.clp", "--stages", "bogus"],
    ["pipeline"],
    ["eval", "/no/such/file.clp"],
    ["bogus-command"],
    ["eval", str(CORPUS / "chain_safe.clp"), "--bound", "0"],
    ["report", "no_name.jsonl"],
    ["report", "not_json.jsonl"],
    ["solve", str(CORPUS / "chain_safe.clp"), "--solver-cmd", "true {file}",
     "--timeout", "-1"],
    ["report", "stages.jsonl"],
    ["report", "solve_time.jsonl"],
    ["report", "stage_times.jsonl"],
    ["solve", str(CORPUS / "chain_safe.clp"), "--solver-cmd", "z3 '{file}"],
    ["solve", str(CORPUS / "chain_safe.clp"), "--solver-cmd", "true {file}",
     "--timeout", "nan"],
    ["pipeline", str(CORPUS / "chain_safe.clp"), "--solver-cmd", "z3 '{file}"],
    ["pipeline", str(CORPUS / "chain_safe.clp"), "--solver-cmd", "true {file}",
     "--timeout", "inf"],
    ["eval", "bad.input"],
    ["parse", "bad.input"],
    ["eval", "huge.input"],
    ["parse", "huge.input"],
])
def test_cli_usage_errors_exit_1(tmp_path, monkeypatch, argv, capsys):
    monkeypatch.chdir(tmp_path)
    for name in ("bad", "huge"):
        Path(f"{name}.input").write_bytes(BAD_INPUTS[f"{name}.clp"])
    # each report input with the line and the field its error names
    reports = {
        "no_name.jsonl": ('c      0\n{"verdict": "sat"}\n', 2, None),
        "not_json.jsonl": ("{not json\n", 1, None),
        "stages.jsonl": ('{"name": "x", "stages": 5}\n', 1, "stages"),
        "solve_time.jsonl": ('{"name": "ok"}\n'
                             '{"name": "x", "solve_time": "fast", '
                             '"verdict": "sat"}\n', 2, "solve_time"),
        "stage_times.jsonl": ('{"name": "x", "stage_times": [1]}\n', 1,
                              "stage_times"),
    }
    for name, (text, _, _) in reports.items():
        Path(name).write_text(text)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "error: " in err and "internal error" not in err
    assert not [p for p in tmp_path.rglob("*") if p.suffix in (".clp", ".smt2")]
    if argv[0] == "report":  # the error names the offending line
        _, line, field_name = reports[argv[1]]
        assert f"line {line}" in err
        assert field_name is None or f"field {field_name}" in err


@pytest.mark.parametrize("command", ["pipeline", "solve"])
def test_cli_missing_solver_binary_exits_1(tmp_path, command, capsys):
    argv = [command, str(CORPUS / "chain_safe.clp"),
            "--solver-cmd", "/no/such/solver {file}"]
    if command == "pipeline":
        argv += ["--out-dir", str(tmp_path / "o")]
    assert main(argv) == 1
    assert "/no/such/solver" in capsys.readouterr().err


def test_cli_pipeline_without_solver_skips_everything(tmp_path, capsys):
    files = [str(CORPUS / f"{n}.clp") for n in corpus_names()]
    rc = main(["pipeline", *files, "--out-dir", str(tmp_path / "o")])
    assert rc == 0
    out = capsys.readouterr().out
    rows = dict(line.split(None, 1) for line in out.splitlines()
                if line and not line.startswith(("#", "{")))
    assert rows["n"] == str(len(files))
    assert rows["c"] == "0"
