"""Non-linking argument removal by unfold/define/fold."""

import random

import pytest

from chcslim import (EvalError, TriState, bounded_least_model, derives_unsafe,
                     nlr_transform, parse_program)
from chcslim import nlr
from chcslim.corpus import corpus_dir, corpus_names, load
from chcslim.nlr import linkvars
from chcslim.syntax import Const, Var

from gen import clause_of, frame_program, random_program
from oracles import programs_isomorphic


def test_linkvars_orders_by_atom_occurrence():
    clause = clause_of("p(X,Y) :- X=Z+1, W=V, q(Z,W,U), r(V).")
    assert linkvars(clause, 0) == ["Z", "W"]
    assert linkvars(clause, 1) == ["V"]


def test_linkvars_on_query(counter_p1):
    assert linkvars(counter_p1.clauses[0], 0) == ["X1", "Y2"]


def test_counter_example_transform(counter_p1, counter_p2):
    out, report = nlr_transform(counter_p1)
    assert programs_isomorphic(out, counter_p2)
    assert list(out.arities) == ["unsafe", "newp3", "newp4"]
    assert out.arities["newp3"] == 2
    assert out.arities["newp4"] == 3
    assert report.args_before == 10
    assert report.args_after == 5
    assert report.widenings == 0
    assert report.iterations == 2
    assert report.variant_classes == 2
    assert report.dropped_unsat == 0


def test_widening_merges_definitions():
    prog = load("widening")
    out, report = nlr_transform(prog)
    assert report.widenings == 2
    assert report.iterations == 2
    assert report.variant_classes == 1
    assert derives_unsafe(out, bound=16) is derives_unsafe(prog, bound=16)


def test_unsatisfiable_resultants_dropped_by_default():
    prog = parse_program(
        "unsafe :- X>=1, p(X).\np(X) :- X=<0, X>=1, p(X).\np(X) :- X=5.")
    out, report = nlr_transform(prog)
    assert report.dropped_unsat == 1
    assert len(out.clauses) == 2


WIDENING = (corpus_dir() / "widening.clp").read_text()


def test_widened_class_counts_a_dropped_clause_once():
    prog = parse_program(WIDENING + "p(X,Y,Z) :- X>=1, X=<0.\n")
    out, report = nlr_transform(prog)
    assert report.widenings == 2
    assert report.dropped_unsat == 1
    assert len(out.clauses) == 4


def test_widened_class_is_unfolded_once(monkeypatch):
    # three program clauses for p: one satisfiability check each, although
    # the class is processed again after each widening
    decide, asked = nlr.is_satisfiable, []

    def record(c):
        asked.append(str(c))
        return decide(c)

    monkeypatch.setattr(nlr, "is_satisfiable", record)
    _, report = nlr_transform(parse_program(WIDENING))
    assert report.iterations == 2
    assert len(asked) == 3


def test_head_mismatch_is_not_counted_as_unsatisfiable():
    # p(X,1) cannot resolve with the query's p(X,0); no constraint fails
    prog = parse_program(
        "unsafe :- p(X,0).\np(X,1) :- X>=0.\np(X,0) :- X>=5.")
    _, report = nlr_transform(prog)
    assert report.dropped_unsat == 0


def test_undefined_body_predicate_warns_and_empties():
    # the clause calling the empty definition derives nothing and goes
    out, report = nlr_transform(parse_program("unsafe :- X>=1, ghost(X)."))
    assert report.warnings
    assert "ghost" in report.warnings[0]
    assert out.clauses == ()
    assert report.dropped_unproductive == 1
    assert derives_unsafe(out, bound=8) is TriState.FAILS


def test_output_calls_only_predicates_with_clauses():
    # frame programs whose dead parts fail leave definitions without
    # resolvents; every clause that calls one, transitively, is dropped
    frames, dropped, programs = random.Random(2), 0, 0
    for _ in range(100):
        out, report = nlr_transform(frame_program(frames))
        heads = {clause.head.pred for clause in out.clauses}
        assert all(atom.pred in heads
                   for clause in out.clauses for atom in clause.body)
        assert report.clauses_out == len(out.clauses)
        dropped += report.dropped_unproductive
        programs += report.dropped_unproductive > 0
    assert (dropped, programs) == (54, 43)


def test_undefined_predicate_warns_once_per_class():
    # the ghost class is widened by the second occurrence and processed again
    _, report = nlr_transform(parse_program(
        "unsafe :- ghost(X,Y), X>=0.\nunsafe :- p(Z).\n"
        "p(Z) :- ghost(Z,W), W>=0."))
    assert report.widenings == 1
    assert report.warnings == ["ghost has no clauses; newp1 is empty"]


def test_program_without_query_reduces_to_nothing():
    out, report = nlr_transform(parse_program("p(X) :- X=1.\nq(X) :- p(X)."))
    assert out.clauses == ()


def test_introduced_positions_link_somewhere():
    # Widening can keep a non-linking variable in one occurrence, but a
    # position dead in every body occurrence would mean a missed removal.
    rng = random.Random(31337)
    checked = 0
    for _ in range(100):
        prog = random_program(rng)
        out, report = nlr_transform(prog)
        if report.dropped_unsat:
            continue
        introduced = {p for p in out.arities if p not in prog.arities}
        linking: dict[tuple[str, int], bool] = {
            (p, k): False
            for p in introduced for k in range(out.arities[p])}
        for clause in out.clauses:
            for i, atom in enumerate(clause.body):
                if atom.pred not in introduced:
                    continue
                links = set(linkvars(clause, i))
                for k, t in enumerate(atom.args):
                    if isinstance(t, Var) and t.name in links:
                        linking[(atom.pred, k)] = True
        dead = [pair for pair, ok in linking.items() if not ok]
        assert not dead, f"dead positions {dead}"
        checked += len(linking)
    assert checked > 200


def test_iterations_bounded_by_variant_classes():
    rng = random.Random(2718)
    for _ in range(60):
        prog = random_program(rng)
        _, report = nlr_transform(prog)
        budget = max(1, report.variant_classes) * (report.max_arity + 1)
        assert report.iterations <= budget


def test_query_verdict_preserved():
    rng = random.Random(1618)
    compared = 0
    for _ in range(40):
        prog = random_program(rng)
        before = derives_unsafe(prog, bound=16)
        out, _ = nlr_transform(prog)
        after = derives_unsafe(out, bound=16)
        if TriState.UNKNOWN in (before, after):
            continue
        assert before is after
        compared += 1
    assert compared >= 10


def _exact_facts(prog):
    try:
        model = bounded_least_model(prog, 8, budget=200_000)
    except EvalError:
        return None
    return None if model.clipped else model.facts


def _instance_of(fact, atom):
    """Whether ``fact`` has ``atom``'s constants and equal values at its
    repeated variables."""
    values = {}
    for value, term in zip(fact, atom.args):
        if isinstance(term, Const):
            if term.value != value:
                return False
        elif values.setdefault(term.name, value) != value:
            return False
    return True


def test_definition_facts_are_projections_of_source_facts():
    # wherever the input and the output both evaluate exactly at bound 8,
    # each newpN's facts are the facts of its source predicate that are
    # instances of its definition's atom, projected onto the kept positions
    rng, frames = random.Random(1), random.Random(707)
    inputs = ([load(name) for name in corpus_names()]
              + [random_program(rng) for _ in range(300)]
              + [frame_program(frames) for _ in range(60)])
    compared = 0
    for prog in inputs:
        out, report = nlr_transform(prog)
        before, after = _exact_facts(prog), _exact_facts(out)
        if before is None or after is None:
            continue
        for d in report.definitions:
            atom = clause_of(f"{d['body_atom']}.").head
            expected = {tuple(fact[k - 1] for k in d["positions"])
                        for fact in before.get(d["pred"], ())
                        if _instance_of(fact, atom)}
            assert after.get(d["name"], set()) == expected, (d, prog)
        compared += 1
    assert compared >= 100
