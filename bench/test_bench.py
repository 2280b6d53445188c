"""Tests of the benchmark itself, not of chcslim.

    python3 -m pytest bench -q

They check that the generators are deterministic, that their answers
agree with the bounded evaluator on tiny unslimmed instances (where the
evaluator is exact), and that a minimal run prints every metric that
BENCHMARK.json names, and refuses to run without chcslim sources.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys

import pytest

import families
import run

sys.path.insert(0, str(run.SRC))

from chcslim import TriState, derives_unsafe, parse_program  # noqa: E402

TINY = {
    "env_chain": [dict(depth=d, width=2, live=2) for d in (1, 3, 5)],
    "block_wide": [dict(blocks=b, steps=s, passengers=0, entries=3)
                   for b, s in ((1, 4), (2, 6), (3, 3))],
    "loop_nest": [dict(sequences=2, loops=k, passengers=0, nmax=2)
                  for k in (1, 2, 3)],
}


@pytest.mark.parametrize("family", sorted(families.FAMILIES))
def test_generators_are_deterministic(family):
    sizes = run.WORKLOADS[family].sizes
    again = families.generate(family, 7, 3, **sizes)
    assert families.generate(family, 7, 3, **sizes) == again
    assert families.generate(family, 8, 3, **sizes) != again


@pytest.mark.parametrize("family", sorted(families.FAMILIES))
def test_answers_match_exact_evaluation(family):
    make = families.FAMILIES[family]
    answers = set()
    for sizes in TINY[family]:
        for seed in range(12):
            problem = make(random.Random(seed), seed % 2 == 0, **sizes)
            verdict = derives_unsafe(parse_program(problem.text), 64)
            expected = TriState.HOLDS if problem.unsafe else TriState.FAILS
            assert verdict is expected, problem.text
            answers.add(problem.unsafe)
    assert answers == {True, False}


def _spec():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _bench(*extra, cwd=run.ROOT, script=None):
    script = script or run.HERE / "run.py"
    return subprocess.run([sys.executable, str(script), "--seed", "3",
                           "--seconds", "0", *extra],
                          capture_output=True, text=True, timeout=600, cwd=cwd)


@pytest.mark.parametrize("workload,trace", [("env_chain", 1), ("block_wide", 0),
                                            ("loop_nest", 0), ("loop_nest", 1)])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    *text, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    declared = _spec()["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    printed = {line.split()[0] for line in text if line.strip()}
    assert set(run.PER_LAYER if trace else run.END_TO_END) <= printed


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "loop_nest", "--trace", "0", cwd=tmp_path,
                  script=tmp_path / run.HERE.name / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
