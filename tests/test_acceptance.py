"""Acceptance suite.

Each test covers one release criterion and reports a single pass/fail
line in the terminal summary.  Shared randomized runs are computed once
per module and reused where several criteria inspect the same data.
"""

import json
import random
import time
from contextlib import contextmanager
from types import SimpleNamespace

import pytest

import conftest
from chcslim import TriState, cfar_transform, derives_unsafe, nlr_transform
from chcslim.cfar import full_erasure, verify_safe_erasure
from chcslim.cli import main
from chcslim.constraints import forall_exists_valid, is_satisfiable
from chcslim.corpus import corpus_names, corpus_paths
from chcslim.pipeline import (
    PipelineConfig, TABLE_LABELS, parse_json_lines, report, run_pipeline,
)

from conftest import P1_TEXT, P2_TEXT, P3_TEXT
from gen import random_constraint, random_forall_instance, random_program
from oracles import box_forall_exists, box_satisfiable, programs_isomorphic

SUITE_SEED = 777
SUITE_SIZE = 200
SAT_SAMPLES = 600
FORALL_SAMPLES = 400


@contextmanager
def criterion(number, title):
    info = SimpleNamespace(detail="")
    try:
        yield info
    except BaseException:
        conftest.acceptance_lines.append(f"criterion {number} ({title}): FAIL")
        raise
    suffix = f"; {info.detail}" if info.detail else ""
    conftest.acceptance_lines.append(
        f"criterion {number} ({title}): PASS{suffix}")


@pytest.fixture(scope="module")
def suite():
    """Randomized program runs shared by criteria 4, 5, 7 and 9."""
    rng = random.Random(SUITE_SEED)
    entries = []
    started = time.perf_counter()
    for _ in range(SUITE_SIZE):
        prog = random_program(rng)
        before = derives_unsafe(prog, bound=32)
        nlr_out, nlr_report = nlr_transform(prog)
        cfar_out, erasure, cfar_report = cfar_transform(prog)
        entries.append(SimpleNamespace(
            prog=prog,
            before=before,
            nlr_out=nlr_out,
            nlr_report=nlr_report,
            nlr_after=derives_unsafe(nlr_out, bound=32),
            cfar_out=cfar_out,
            erasure=erasure,
            cfar_report=cfar_report,
            cfar_after=derives_unsafe(cfar_out, bound=32),
        ))
    elapsed = time.perf_counter() - started
    return SimpleNamespace(entries=entries, elapsed=elapsed)


@pytest.fixture(scope="module")
def corpus_records(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("corpus-pipeline")
    cfg = PipelineConfig(inputs=[str(p) for p in corpus_paths()],
                         out_dir=out_dir)
    return run_pipeline(cfg)


def test_criterion_1_golden_nlr(counter_p1, counter_p2):
    with criterion(1, "golden nlr transform") as info:
        started = time.perf_counter()
        out, rep = nlr_transform(counter_p1)
        elapsed = time.perf_counter() - started
        assert programs_isomorphic(out, counter_p2)
        assert len(out.clauses) == 4
        new_preds = [p for p in out.arities if p not in counter_p1.arities]
        assert sorted(out.arities[p] for p in new_preds) == [2, 3]
        assert rep.args_before == 10
        assert rep.args_after == 5
        assert elapsed < 1.0
        info.detail = f"{elapsed:.3f}s"


def test_criterion_2_golden_cfar(counter_p2, counter_p3):
    with criterion(2, "golden cfar erasure") as info:
        started = time.perf_counter()
        out, erasure, rep = cfar_transform(counter_p2)
        elapsed = time.perf_counter() - started
        assert erasure == frozenset({("newp4", 1)})
        assert programs_isomorphic(out, counter_p3)
        slim = rep.renamed.get("newp4", "newp4")
        assert out.arities[slim] == 2
        assert elapsed < 1.0
        info.detail = f"erasure {sorted(erasure)}, {elapsed:.3f}s"


def test_criterion_3_end_to_end_composition(counter_p1, counter_p3):
    with criterion(3, "pipeline composition") as info:
        mid, _ = nlr_transform(counter_p1)
        out, _, _ = cfar_transform(mid)
        assert programs_isomorphic(out, counter_p3)
        assert counter_p1.total_args() == 10
        assert out.total_args() == 4
        info.detail = "arguments 10 -> 4"


def test_criterion_4_verdict_preservation(suite):
    with criterion(4, "verdict preservation suite") as info:
        nlr_compared = cfar_compared = 0
        for entry in suite.entries:
            if TriState.UNKNOWN not in (entry.before, entry.nlr_after):
                assert entry.before is entry.nlr_after, entry.prog
                nlr_compared += 1
            if TriState.UNKNOWN not in (entry.before, entry.cfar_after):
                assert entry.before is entry.cfar_after, entry.prog
                cfar_compared += 1
        assert len(suite.entries) >= 200
        assert nlr_compared >= 50
        assert cfar_compared >= 50
        assert suite.elapsed < 60.0
        info.detail = (f"{len(suite.entries)} programs, "
                       f"{nlr_compared}/{cfar_compared} definitive "
                       f"nlr/cfar comparisons, {suite.elapsed:.1f}s")


def test_criterion_5_safe_erasure_checker(suite, counter_p2):
    with criterion(5, "independent erasure validation") as info:
        _, golden_erasure, _ = cfar_transform(counter_p2)
        failures = len(verify_safe_erasure(counter_p2, golden_erasure))
        checked = 1
        for entry in suite.entries:
            failures += len(verify_safe_erasure(entry.prog, entry.erasure))
            checked += 1
        assert failures == 0
        info.detail = f"{checked} erasures certified"


def test_criterion_6_constraint_oracle_soundness():
    with criterion(6, "constraint oracle vs box search") as info:
        rng = random.Random(4601)
        unit_total = unit_unknown = contradictions = 0
        for i in range(SAT_SAMPLES):
            unit = i % 3 != 0
            c = random_constraint(rng, unit=unit)
            verdict = is_satisfiable(c)
            if unit:
                unit_total += 1
                if verdict is TriState.UNKNOWN:
                    unit_unknown += 1
            if verdict is TriState.UNKNOWN:
                continue
            if (verdict is TriState.HOLDS) != box_satisfiable(c):
                contradictions += 1
        rng = random.Random(4602)
        for i in range(FORALL_SAMPLES):
            x, c = random_forall_instance(rng, unit=(i % 3 != 0))
            verdict = forall_exists_valid(x, c)
            if verdict is TriState.UNKNOWN:
                continue
            if (verdict is TriState.HOLDS) != box_forall_exists(x, c):
                contradictions += 1
        assert SAT_SAMPLES + FORALL_SAMPLES >= 500
        assert contradictions == 0
        rate = unit_unknown / unit_total
        assert rate < 1.0
        info.detail = (f"{SAT_SAMPLES + FORALL_SAMPLES} samples, "
                       f"unit unknown rate {rate:.1%}")


def test_criterion_7_termination_budgets(suite):
    with criterion(7, "termination budgets") as info:
        for entry in suite.entries:
            rep = entry.nlr_report
            budget = rep.variant_classes * (rep.max_arity + 1)
            assert rep.iterations <= budget, entry.prog
            assert entry.cfar_report.removals <= len(full_erasure(entry.prog))
        info.detail = f"{len(suite.entries)} programs within budget"


def test_criterion_8_report_shape(tmp_path, capsys):
    with criterion(8, "batch report shape") as info:
        files = [str(p) for p in corpus_paths()]
        assert len(files) >= 10
        rc = main(["pipeline", *files, "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        out = capsys.readouterr().out
        labels = [line.split()[0] for line in out.splitlines()
                  if line and not line.startswith(("#", "{"))]
        assert labels == list(TABLE_LABELS)
        records = parse_json_lines(out)
        assert len(records) == len(files)
        assert all(r.verdict == "skipped" for r in records)
        info.detail = f"{len(files)} problems, all skipped, exit 0"


def test_criterion_9_idempotence_statistic(suite, corpus_records):
    with criterion(9, "cfar idempotence statistic") as info:
        corpus_nonempty = sum(
            1 for r in corpus_records if (r.cfar_second_erasure or 0) > 0)
        suite_nonempty = 0
        for entry in suite.entries:
            _, again, _ = cfar_transform(entry.cfar_out)
            if again:
                suite_nonempty += 1
        text = report(corpus_records, json_lines=False)
        comment = [l for l in text.splitlines() if l.startswith("#")]
        assert comment, "idempotence statistic missing from report"
        assert f"on {corpus_nonempty} of {len(corpus_records)}" in comment[0]
        info.detail = (f"non-empty second erasures: corpus "
                       f"{corpus_nonempty}/{len(corpus_records)}, suite "
                       f"{suite_nonempty}/{len(suite.entries)}")
