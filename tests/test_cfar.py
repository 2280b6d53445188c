"""Erasure of constrained argument positions."""

import dataclasses
import hashlib
import random

import pytest

from chcslim import (EvalError, TriState, bounded_least_model, cfar_transform,
                     derives_unsafe, emit_clp, nlr_transform, parse_program)
from chcslim import cfar, constraints
from chcslim.cfar import erasure_lines, full_erasure, verify_safe_erasure
from chcslim.constraints import Parts, answers_once, project
from chcslim.corpus import corpus_names, load

from gen import frame_program, random_program
from oracles import programs_isomorphic


def test_counter_example_erasure(counter_p2, counter_p3):
    out, erasure, report = cfar_transform(counter_p2)
    assert erasure == frozenset({("newp4", 1)})
    assert programs_isomorphic(out, counter_p3)
    assert report.renamed == {"newp4": "newp4__1"}
    assert report.args_before == 5
    assert report.args_after == 4
    assert report.erasure == ["newp4/3 1"]
    assert not verify_safe_erasure(counter_p2, erasure)


def test_dead_argument_is_erased():
    prog = load("dead_argument")
    out, erasure, _ = cfar_transform(prog)
    assert erasure == frozenset({("p", 2)})
    assert derives_unsafe(out, bound=32) is derives_unsafe(prog, bound=32)


def test_repeated_head_variable_blocks_erasure():
    # p(X,X) duplicates a head variable; erasing either column alone would
    # lose the equality and flip the query verdict.
    prog = load("repeated_head_vars")
    out, erasure, _ = cfar_transform(prog)
    assert erasure == frozenset()
    assert verify_safe_erasure(prog, frozenset({("p", 1), ("p", 2)}))


def test_full_erasure_lists_every_position(counter_p2):
    assert full_erasure(counter_p2) == frozenset({
        ("newp3", 1), ("newp3", 2), ("newp4", 1), ("newp4", 2), ("newp4", 3)})


@pytest.mark.parametrize("source, pair, condition", [
    ("unsafe :- p(X,Y).\np(3,Y).", ("p", 1), "i-not-variable"),
    ("unsafe :- p(X,Y).\np(X,Y) :- X>=0.", ("p", 1), "i-forall-exists"),
    ("unsafe :- p(X,Y).\np(X,Y) :- X=Y.", ("p", 1), "ii-head-constrained"),
    ("unsafe :- p(X,Y).\np(X,Y) :- q(X).\nq(X).", ("p", 1),
     "iii-body-constrained"),
    ("unsafe :- p(X,Y).\np(X,X).", ("p", 1), "iii-body-constrained"),
])
def test_violation_conditions(source, pair, condition):
    prog = parse_program(source)
    violations = verify_safe_erasure(prog, frozenset({pair}))
    assert violations
    assert violations[0].condition == condition


def test_propagation_runs_against_sorted_order():
    # c(1) keeps c/1; that reaches b/1 and then a/1 backward, the reverse
    # of the sorted pair order
    prog = parse_program("a(X) :- b(X).\nb(X) :- c(X).\nc(1).\nunsafe :- a(X).")
    _, erasure, report = cfar_transform(prog)
    assert erasure == frozenset()
    assert report.removals_by_condition == {"i-not-variable": 1,
                                            "iii-body-constrained": 2}


def test_erasure_is_maximal():
    rng = random.Random(5)
    progs = [load(name) for name in corpus_names()]
    progs += [random_program(rng) for _ in range(40)]
    for prog in progs:
        _, erasure, _ = cfar_transform(prog)
        for pair in full_erasure(prog) - erasure:
            assert verify_safe_erasure(prog, erasure | {pair}), pair


def test_erasure_is_clause_order_invariant(counter_p2):
    rng = random.Random(99)
    clauses = list(counter_p2.clauses)
    for _ in range(6):
        rng.shuffle(clauses)
        shuffled = type(counter_p2)(tuple(clauses))
        _, erasure, _ = cfar_transform(shuffled)
        assert erasure == frozenset({("newp4", 1)})


def test_rename_collision_appends_underscore():
    prog = parse_program(
        "unsafe :- X>=3, p(X,Y).\n"
        "p(X,Y) :- X=<2, p(X,Y).\n"
        "p(X,Y) :- X=5.\n"
        "p__1(X) :- X=0.\n"
        "unsafe :- X>=9, p__1(X).")
    out, erasure, report = cfar_transform(prog)
    assert erasure == frozenset({("p", 2)})
    assert report.renamed == {"p": "p__2"}
    prog2 = parse_program(
        "unsafe :- X>=3, p(X,Y).\n"
        "p(X,Y) :- X=<2, p(X,Y).\n"
        "p(X,Y) :- X=5.\n"
        "p__2(X) :- X=0.\n"
        "unsafe :- X>=9, p__2(X).")
    _, _, report2 = cfar_transform(prog2)
    assert report2.renamed == {"p": "p__2_"}


def test_erasure_lines_sorted():
    pairs = frozenset({("b", 2), ("a", 1), ("b", 1)})
    lines = erasure_lines(pairs, {"a": 3, "b": 2})
    assert lines == ["a/3 1", "b/2 1", "b/2 2"]


def test_each_part_is_decided_at_most_once(monkeypatch):
    # every head variable needs the other two parts satisfiable; each part
    # goes to the oracle alone, and once for the whole clause
    decide, asked = constraints.is_satisfiable, []

    def record(c):
        asked.append(str(c))
        return decide(c)

    monkeypatch.setattr(constraints, "is_satisfiable", record)
    prog = parse_program("p(Y1,Y2,Y3) :- Y1=X1+1, Y2=X2, Y3=X3, q(X1,X2,X3).")
    _, erasure, _ = cfar_transform(prog)
    assert sorted(asked) == ["Y1=X1+1", "Y2=X2", "Y3=X3"]
    assert erasure == full_erasure(prog)


def test_recorded_splits_equal_fresh_ones(monkeypatch):
    # every projection cfar makes on nlr's output that keeps only whole
    # parts of its input records its result's split, and a recorded split
    # is the one Parts builds afresh, with answers the oracle gives afresh
    seen = []

    def recording(parts, live):
        result = project(parts, live)
        if result is not None:
            seen.append((parts, result, constraints._splits.get(result)))
        return result

    monkeypatch.setattr(cfar, "project", recording)
    rng, frames = random.Random(11), random.Random(12)
    programs = ([load(name) for name in corpus_names()]
                + [frame_program(frames) for _ in range(200)]
                + [random_program(rng) for _ in range(300)])
    recorded = answers = 0
    for prog in programs:
        seen.clear()
        with answers_once():
            cfar_transform(nlr_transform(prog)[0])
        for parts, result, split in seen:
            fresh = Parts(result)
            if all(part in parts.parts for part in fresh.parts):
                assert split is not None, result
            if split is None:
                continue
            assert split.whole == result
            assert split.parts == fresh.parts
            assert split.names == fresh.names
            assert split.part_of == fresh.part_of
            assert split._part == fresh._part
            for i, answer in split._answers.items():
                assert constraints.is_satisfiable(split.parts[i]) is answer
            recorded += 1
            answers += len(split._answers)
    assert recorded > 2000 and answers > 50


def test_second_run_splits_only_rewritten_constraints(monkeypatch):
    # in one block of nlr, cfar and cfar, the second run builds a split only
    # for the constraints the first run's projection rewrote: on the
    # corpus none of them, on the block chain its one collapsed clause
    init, built = Parts.__init__, []

    def counted(self, c):
        built.append(c)
        init(self, c)

    monkeypatch.setattr(Parts, "__init__", counted)
    clauses = rewritten = 0
    for prog in [load(name) for name in corpus_names()] + [parse_program(BLOCK)]:
        with answers_once():
            out, _, _ = cfar_transform(nlr_transform(prog)[0])
            fresh = {clause.constraint for clause in out.clauses
                     if clause.constraint not in constraints._splits}
            built.clear()
            cfar_transform(out)
            assert len(built) == len(fresh) and set(built) == fresh, prog
        clauses += len(out.clauses)
        rewritten += len(fresh)
    assert (clauses, rewritten) == (45, 1)


def test_corpus_erasures_are_idempotent_and_certified():
    for name in corpus_names():
        prog = load(name)
        out, erasure, _ = cfar_transform(prog)
        assert not verify_safe_erasure(prog, erasure), name
        _, again, _ = cfar_transform(out)
        assert again == frozenset(), name


def test_certifier_splits_each_clause_once_per_erased_pair(monkeypatch,
                                                          counter_p2):
    # conditions (ii) and (iii) read one constrained-to set per erased
    # pair, not one split per pair and other variable
    built = []
    split = Parts.__init__

    def counted(self, c):
        built.append(c)
        split(self, c)

    monkeypatch.setattr(Parts, "__init__", counted)
    progs = [counter_p2] + [nlr_transform(load(name))[0]
                            for name in corpus_names()]
    pairs = splits = 0
    for prog in progs:
        _, erasure, _ = cfar_transform(prog)
        built.clear()
        assert not verify_safe_erasure(prog, erasure)
        splits += len(built)
        pairs += sum((c.head.pred, k) in erasure
                     for c in prog.clauses for k in range(1, c.head.arity + 1))
    assert (pairs, splits) == (6, 6)


def test_query_verdict_preserved():
    rng = random.Random(8128)
    compared = 0
    for _ in range(40):
        prog = random_program(rng)
        out, erasure, _ = cfar_transform(prog)
        assert not verify_safe_erasure(prog, erasure)
        before = derives_unsafe(prog, bound=16)
        after = derives_unsafe(out, bound=16)
        if TriState.UNKNOWN in (before, after):
            continue
        assert before is after
        compared += 1
    assert compared >= 10


BLOCK = """\
unsafe :- Y>=3, b1(Y).
b1(Y) :- T0=X, T1=T0+4, T2=T1-7, T3=T2-T1+T0+4, T4=T3, T4>=-2, T5=-T4+1, Y=T5, b0(X).
b0(A) :- A>=0, A=<2, P=7.
"""


def test_block_chain_collapses_to_one_equality_and_its_guard():
    out, erasure, report = cfar_transform(parse_program(BLOCK))
    assert erasure == frozenset()
    assert [str(c) for c in out.clauses] == [
        "unsafe :- Y>=3, b1(Y).",
        "b1(Y) :- X>=1, Y+X=4, b0(X).",
        "b0(A) :- A>=0, A=<2."]
    assert (report.conjuncts_dropped, report.vars_eliminated,
            report.clauses_dropped) == (7, 7, 0)


def test_dead_part_that_fails_drops_its_clause():
    prog = parse_program("unsafe :- p(X).\n"
                         "p(X) :- X=0.\n"
                         "p(Y) :- Y=X+1, Z>=1, Z=<0, p(X).")
    out, erasure, report = cfar_transform(prog)
    assert [str(c) for c in out.clauses] == ["unsafe :- p(X).", "p(X) :- X=0."]
    assert report.clauses_dropped == 1
    assert erasure == frozenset()


def _slimming_inputs():
    rng, frames = random.Random(606), random.Random(707)
    return ([load(name) for name in corpus_names()] + [parse_program(BLOCK)]
            + [random_program(rng) for _ in range(100)]
            + [frame_program(frames) for _ in range(120)])


def test_cfar_is_idempotent_on_its_output():
    # the projection leaves nothing for a second run to project, and a
    # program that lost clauses loses every clause calling a predicate left
    # without any, so no position becomes erasable the first run kept; the
    # raw frame programs, where a dead part that fails deletes a link of
    # the chain, are the inputs where that happens
    unproductive = 0
    for prog in _slimming_inputs():
        out, _, report = cfar_transform(prog)
        unproductive += report.dropped_unproductive > 0
        assert emit_clp(cfar_transform(out)[0]) == emit_clp(out), prog
    assert unproductive > 0


def test_clause_calling_a_deleted_predicate_goes_too():
    prog = parse_program("unsafe :- p(X), X>=1.\n"
                         "p(Y) :- Y=X, 2*Z=7, q(X).\n"
                         "q(X) :- X=0.")
    out, erasure, report = cfar_transform(prog)
    assert out.clauses == (parse_program("q(X) :- X=0.").clauses[0],)
    assert erasure == frozenset()
    assert (report.clauses_dropped, report.dropped_unproductive) == (1, 1)
    assert "dropped unproductive clauses: 1" in report.text()


def _exact_facts(prog):
    try:
        model = bounded_least_model(prog, 8, budget=200_000)
    except EvalError:
        return None
    return None if model.clipped else model.facts


def test_slimmed_facts_are_projections_of_source_facts():
    # wherever the input and the output both evaluate exactly at bound 8,
    # each predicate's facts after cfar are its facts before, without the
    # erased positions: nothing the projection drops changes the model
    compared = projected = 0
    for prog in _slimming_inputs():
        out, erasure, report = cfar_transform(prog)
        before, after = _exact_facts(prog), _exact_facts(out)
        if before is None or after is None:
            continue
        for pred, arity in prog.arities.items():
            kept = [k for k in range(arity) if (pred, k + 1) not in erasure]
            expected = {tuple(fact[k] for k in kept)
                        for fact in before.get(pred, ())}
            name = report.renamed.get(pred, pred)
            assert after.get(name, set()) == expected, (pred, prog)
        compared += 1
        projected += report.vars_eliminated + report.clauses_dropped > 0
    assert compared >= 100 and projected >= 50


# the SHA-256 of the transform outputs below: for each program the nlr
# text, the cfar text on the program and on the nlr output, and every
# report as a dict; a change to the oracle or to the projection must
# change none of them.  Recorded when both transforms started dropping
# the clauses that call an unproductive predicate; with that step left
# out and its report field removed, the outputs hash as before.  Re-pinned
# when cfar began checking the syntactic conditions before condition (i):
# with removals_by_condition left out of the reports, they hash as before.
TRANSFORM_OUTPUTS = "cdc26d96589b8590533651291adeedd161f482a74fbccac2864d4e9c4b192762"


def test_transform_outputs_are_pinned():
    rng, frames = random.Random(1), random.Random(2)
    programs = ([load(name) for name in corpus_names()]
                + [random_program(rng) for _ in range(300)]
                + [frame_program(frames) for _ in range(100)])
    digest = hashlib.sha256()
    for prog in programs:
        slim, nlr_report = nlr_transform(prog)
        raw, _, raw_report = cfar_transform(prog)
        both, _, both_report = cfar_transform(slim)
        for text in (emit_clp(slim), emit_clp(raw), emit_clp(both)):
            digest.update(text.encode() + b"\0")
        for report in (nlr_report, raw_report, both_report):
            digest.update(repr(dataclasses.asdict(report)).encode() + b"\0")
    assert digest.hexdigest() == TRANSFORM_OUTPUTS
