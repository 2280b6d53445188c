"""Bounded bottom-up evaluation: exactness flags, query verdicts, and
agreement with a brute-force fixpoint over the same box."""

import hashlib
import random

import pytest

from chcslim import (
    EvalBudgetError, EvalError, TriState, bounded_least_model, cfar_transform,
    derives_unsafe, nlr_transform, parse_program,
)
from chcslim.corpus import corpus_names, load

from gen import frame_program, random_program
from oracles import naive_bounded_model


@pytest.mark.parametrize("name, bound, size, clipped, unsafe", [
    ("always_safe", 32, 0, False, False),
    ("always_unsafe", 32, 1, False, True),
    ("branch_unsafe", 32, 10, False, True),
    ("chain_safe", 32, 12, False, False),
    ("two_counters", 32, 25, False, True),
    ("interval_loop_safe", 32, 102, False, False),
    ("constant_args", 32, 5, False, True),
    ("count_up_safe", 8, 0, True, False),
])
def test_corpus_models(name, bound, size, clipped, unsafe):
    model = bounded_least_model(load(name), bound=bound)
    assert model.size() == size
    assert model.clipped is clipped
    assert model.derived("unsafe") is unsafe


# (size(), rounds, clipped, steps) of every corpus program at bounds 8 and
# 32, or None where the default budget runs out.  The figures are those of
# the evaluator that scanned every fact set linearly, before joins were
# planned and probed by hash index: steps count in the budget's units, so
# the table pins the work charged as well as the model.
CORPUS_RUNS = {
    ("always_safe", 8): (0, 0, False, 1),
    ("always_safe", 32): (0, 0, False, 1),
    ("always_unsafe", 8): (1, 1, False, 0),
    ("always_unsafe", 32): (1, 1, False, 0),
    ("branch_unsafe", 8): (10, 5, True, 63),
    ("branch_unsafe", 32): (10, 5, False, 63),
    ("chain_safe", 8): (12, 2, False, 36),
    ("chain_safe", 32): (12, 2, False, 36),
    ("constant_args", 8): (5, 5, False, 22),
    ("constant_args", 32): (5, 5, False, 22),
    ("count_up_safe", 8): (0, 0, True, 0),
    ("count_up_safe", 32): (278785, 43, True, 1465341),
    ("count_up_unsafe", 8): (0, 0, True, 0),
    ("count_up_unsafe", 32): (278786, 43, True, 1465341),
    ("dead_argument", 8): (290, 13, True, 1574),
    ("dead_argument", 32): (4226, 37, True, 21638),
    ("interval_loop_safe", 8): (25, 5, True, 227),
    ("interval_loop_safe", 32): (102, 12, False, 849),
    ("mutual_recursion", 8): (154, 9, True, 750),
    ("mutual_recursion", 32): (2146, 33, True, 10662),
    ("nonlinking_call", 8): (4914, 9, True, 105367),
    ("nonlinking_call", 32): None,
    ("repeated_head_vars", 8): (17, 1, True, 52),
    ("repeated_head_vars", 32): (65, 1, True, 196),
    ("two_counters", 8): (20, 5, True, 216),
    ("two_counters", 32): (25, 7, False, 260),
    ("widening", 8): (3757, 1, True, 26546),
    ("widening", 32): (156325, 1, True, 1096754),
}


def test_every_corpus_program_is_pinned():
    assert {name for name, _ in CORPUS_RUNS} == set(corpus_names())


@pytest.mark.parametrize("name, bound", sorted(CORPUS_RUNS))
def test_corpus_runs_are_pinned(name, bound):
    expected = CORPUS_RUNS[name, bound]
    if expected is None:
        with pytest.raises(EvalBudgetError):
            bounded_least_model(load(name), bound=bound)
        return
    model = bounded_least_model(load(name), bound=bound)
    assert (model.size(), model.rounds, model.clipped, model.steps) == expected


# SHA-256 over every run of test_evaluator_outcomes_are_pinned, recorded
# when nlr and cfar started dropping the clauses that call an unproductive
# predicate (fewer clauses to evaluate in some slimmed frame programs);
# with that step left out the runs hash as before.
EVAL_OUTCOMES = "053fe19a16e650f93397eca6f944081914e88bbc6fdabb12aabb5975ac2f6fb4"


def test_evaluator_outcomes_are_pinned():
    rng, frames = random.Random(1), random.Random(2)
    generated = ([random_program(rng) for _ in range(150)]
                 + [frame_program(frames) for _ in range(40)])
    programs = ([load(name) for name in corpus_names()] + generated
                + [cfar_transform(nlr_transform(p)[0])[0] for p in generated])
    digest = hashlib.sha256()
    for prog in programs:
        for bound in (8, 32):
            try:
                model = bounded_least_model(prog, bound, budget=200_000)
                outcome = (sorted((p, sorted(fs)) for p, fs in model.facts.items()),
                           model.clipped, model.rounds, model.steps)
            except EvalError as e:
                outcome = (type(e).__name__, str(e))
            digest.update(repr(outcome).encode() + b"\0")
    assert digest.hexdigest() == EVAL_OUTCOMES


def _one_clause(conjuncts: list[str]) -> str:
    return f"p(X1) :- {', '.join(conjuncts)}.\nunsafe :- p(X1), X1>=40."


def _equalities(n: int) -> str:
    return _one_clause([f"X{i}=X{i + 1}" for i in range(1, n)]
                       + [f"X{i}>=-5" for i in range(1, n + 1)])


def _ascending(n: int) -> str:
    return _one_clause([f"X{i}=<X{i + 1}" for i in range(1, n)])


# One wide clause each: (size(), rounds, clipped, steps).  _choose reads
# every bounding row of every free variable per call and charges nothing
# for it, so these shapes cost far more time per step than most programs;
# charging that work moves these steps, and only that should.
@pytest.mark.parametrize("source, bound, expected", [
    (_equalities(50), 32, (38, 1, True, 5738)),
    (_ascending(3), 8, (17, 1, True, 2295)),
    (_ascending(4), 8, (17, 1, True, 11985)),
], ids=["equalities-50", "ascending-3", "ascending-4"])
def test_wide_one_clause_shapes_are_pinned(source, bound, expected):
    model = bounded_least_model(parse_program(source), bound)
    assert (model.size(), model.rounds, model.clipped, model.steps) == expected


def test_wide_ascending_chain_exhausts_the_budget():
    with pytest.raises(EvalBudgetError):
        bounded_least_model(parse_program(_ascending(50)), 32, budget=100_000)


@pytest.mark.parametrize("source, steps", [
    ("p(X) :- X>=0, X=<3, Y=Y+1.\nunsafe :- p(X).", 68),
    ("p(X,Y) :- X>=0, X=<3, X+Y=X+2.\nunsafe :- p(X,Y).", 24),
    ("p(X) :- X>=0, X=<3, X=X+0.\nunsafe :- p(X).", 20),
    # Y is chosen first; X's interval comes from X>=0, X=<3 alone, but
    # X+Y=X+2, whose rows hold only Y, becomes checkable with X
    ("p(X,Y) :- Y>=0, Y=<1, X>=0, X=<3, X+Y=X+2.\nunsafe :- p(X,Y).", 38),
    ("q(Y) :- Y>=-2, Y=<2.\np(X,Y) :- q(Y), X>=0, X=<3, X+Y=X+2.\n"
     "unsafe :- p(X,Y).", 104),
], ids=["constant-false", "cancelled-in-sum", "constant-true",
        "cancelled-after-choice", "cancelled-after-atom"])
def test_conjuncts_naming_a_variable_no_row_holds(source, steps):
    # a conjunct names every variable written in it, cancelled ones too, so
    # it can become checkable with a variable none of its rows bounds
    prog = parse_program(source)
    model = bounded_least_model(prog, bound=3)
    brute = naive_bounded_model(prog, 3)
    assert ({p: fs for p, fs in model.facts.items() if fs}
            == {p: fs for p, fs in brute.items() if fs})
    assert model.steps == steps


@pytest.mark.parametrize("name, bound, verdict", [
    ("always_safe", 32, TriState.FAILS),
    ("always_unsafe", 32, TriState.HOLDS),
    ("count_up_safe", 8, TriState.UNKNOWN),
    ("count_up_unsafe", 12, TriState.HOLDS),
    ("chain_safe", 32, TriState.FAILS),
])
def test_derives_unsafe_verdicts(name, bound, verdict):
    assert derives_unsafe(load(name), bound=bound) is verdict


def test_holds_beats_clipped():
    # p is cut off by the box, but a query witness exists inside it.
    prog = parse_program("unsafe :- X>=10, p(X).\np(X).")
    assert derives_unsafe(prog, bound=32) is TriState.HOLDS
    assert derives_unsafe(prog, bound=4) is TriState.UNKNOWN


def test_free_variable_enumerates_whole_box():
    model = bounded_least_model(parse_program("p(X).\nunsafe :- X>=9, p(X)."),
                                bound=4)
    assert model.facts["p"] == {(v,) for v in range(-4, 5)}
    assert model.clipped


def test_spilling_guard_flags_clipped():
    prog = parse_program("unsafe :- X>=100.")
    assert derives_unsafe(prog, bound=32) is TriState.UNKNOWN
    assert derives_unsafe(prog, bound=200) is TriState.HOLDS


@pytest.mark.parametrize("source, facts", [
    ("p(X) :- 2*X=8.", {(4,)}),
    ("p(X) :- 2*X=7.", set()),
    ("p(X) :- X<3, X>1.", {(2,)}),
    ("p(X) :- 2*X=<7, 2*X>=3.", {(2,), (3,)}),
    ("p(X) :- 0-2*X=<4, 0-2*X>=-7.", {(v,) for v in range(-2, 4)}),
    ("p(Y) :- X=2, Y=3*X-1.", {(5,)}),
    ("p(X) :- 0-3*X<7, 3*X=<8.", {(v,) for v in range(-2, 3)}),
    ("p(X) :- 3*X>7, 0-2*X>-11.", {(3,), (4,), (5,)}),
    ("p(X) :- X+Y=Y+2, Y>=0, Y=<1.", {(2,)}),
])
def test_single_variable_intervals(source, facts):
    model = bounded_least_model(parse_program(source + "\nunsafe :- p(X)."),
                                bound=32)
    assert model.facts.get("p", set()) == facts
    assert not model.clipped


@pytest.mark.parametrize("source, bound, clipped, verdict", [
    ("p(40).\nunsafe :- p(X), X<0.", 32, True, TriState.UNKNOWN),
    ("p(0) :- X>=7, X=<8.\nunsafe :- p(Y), Y>=1.", 8, True, TriState.UNKNOWN),
    ("p(0) :- X>=6, X=<7.\nunsafe :- p(Y), Y>=1.", 8, False, TriState.FAILS),
    # only X=1 gives Y an interval beyond the box, and q(0) may be matched
    # first
    ("q(X) :- X>=0, X=<1.\np(Y) :- q(X), Y>=40*X+1, Y=<40*X+2.\n"
     "unsafe :- p(Y), Y>=3.", 32, True, TriState.UNKNOWN),
], ids=["head-constant", "edge-value-not-in-head", "inside-the-box",
        "truncated-after-atom"])
def test_where_clipped_comes_from(source, bound, clipped, verdict):
    # a head constant at or beyond the box edge, an enumerated value at the
    # edge on a path that derives a fact, and an interval cut at the edge
    prog = parse_program(source)
    assert bounded_least_model(prog, bound).clipped is clipped
    assert derives_unsafe(prog, bound) is verdict


@pytest.mark.parametrize("source", [
    "p(X) :- 2*X=1, X>=40, Y>=40.",
    "p(X) :- X>=40, 2*X=1, Y>=40.",
    "p(X) :- X>=40, X=<35, Y>=50.",
])
def test_unsolvable_equation_empties_interval_outright(source):
    # X is left with no value, so the clause has no instance: X is chosen
    # at once, though Y's interval is narrower after the cut at the box
    # edge, and nothing is lost to the cut, so the run stays exact.
    model = bounded_least_model(parse_program(source + "\nunsafe :- p(X)."),
                                bound=32)
    assert not model.facts["p"]
    assert not model.clipped
    assert model.verdict() is TriState.FAILS


def test_until_query_stops_early():
    prog = load("count_up_unsafe")
    full = bounded_least_model(prog, bound=12)
    early = bounded_least_model(prog, bound=12, until_query=True)
    assert early.derived("unsafe")
    assert early.rounds < full.rounds
    # a round is counted only when it runs: the query is looked for first
    counted = parse_program("p(0).\np(Y) :- p(X), Y=X+1, X<3.\nunsafe :- p(2).")
    assert bounded_least_model(counted, 8, until_query=True).rounds == 3
    assert bounded_least_model(parse_program("unsafe."), 8,
                               until_query=True).rounds == 0


def test_budget_exhaustion_raises():
    with pytest.raises(EvalBudgetError):
        bounded_least_model(load("interval_loop_safe"), bound=32, budget=50)


@pytest.mark.parametrize("value", [0, -3, 2.5, "3", True])
def test_non_positive_budget_is_a_misconfiguration(value):
    # not an exhausted budget: nothing has been evaluated; a bool is not
    # taken for 0 or 1
    for name in ("bound", "budget"):
        with pytest.raises(EvalError,
                           match=f"^{name} must be a positive integer"):
            bounded_least_model(load("chain_safe"), **{"bound": 8, name: value})


def test_array_programs_are_rejected():
    prog = parse_program("p(A,I,V) :- read(A,I,V).\nunsafe :- p(A,I,V).")
    with pytest.raises(EvalError):
        bounded_least_model(prog, bound=8)


def test_matches_brute_force_on_micro_programs():
    sources = [
        "unsafe :- X>=2, p(X).\np(X) :- X=<0, q(X).\np(X) :- X=3.\nq(X) :- X=0.",
        "unsafe :- p(X,Y), X=Y.\np(X,Y) :- X>=1, X=<2, Y=X+1.\np(2,2).",
        "unsafe :- p(X).\np(X) :- X>=-1, X=<1, q(X,X).\nq(X,Y) :- X=<Y.",
        "unsafe :- r(X,Y,Z).\nr(X,Y,Z) :- X=Y+Z, Y>=0, Y=<1, Z>=0, Z=<1.",
        "unsafe :- p(X).\np(X) :- 0-3*X<7, 2*X>-5, X=<2.",
        "unsafe :- p(X,Y).\np(X,Y) :- X+Y=Y+1, Y>=0, Y=<1.",
    ]
    for source in sources:
        prog = parse_program(source)
        model = bounded_least_model(prog, bound=3)
        brute = naive_bounded_model(prog, 3)
        got = {p: fs for p, fs in model.facts.items() if fs}
        want = {p: fs for p, fs in brute.items() if fs}
        assert got == want, source


@pytest.mark.parametrize("source", [
    # r's index by X is built in the first round and must take r's facts
    # of later rounds: p(2) needs q(2), new in round 2, and r(2)
    "q(X) :- X=0.\nq(Y) :- Y=X+1, X<3, q(X).\n"
    "r(X) :- X=1.\nr(Y) :- Y=X+1, X<3, r(X).\n"
    "p(X) :- q(X), r(X).\nunsafe :- p(X).",
    # a variable repeated inside one atom, unbound and then bound
    "q(X,Y) :- X>=0, X=<2, Y>=1, Y=<2.\n"
    "p(X,Y) :- q(X,X), q(Y,Y), q(X,Y).\nunsafe :- p(X,Y).",
    # constants in body atoms, alone and beside a bound variable
    "q(X,Y) :- X>=0, X=<2, Y=X+1.\n"
    "p(Y) :- q(1,Y).\ns(X) :- q(X,Y), q(Y,3).\nunsafe :- p(X), s(X).",
    # the second atom shares no variable with the first: its probe has no
    # key position and walks the whole fact set
    "q(X) :- X>=-1, X=<1.\nr(Y) :- Y>=2, Y=<3.\n"
    "p(X,Y) :- q(X), r(Y).\nunsafe :- p(X,Y).",
    # the narrowest variable after q(A) depends on A: X (width 2) when
    # A=-1, Y (width 0) when A=3, so one level leads to two below it
    "q(A) :- A>=-1, A=<3.\n"
    "p(X,Y) :- q(A), X>=A-1, X=<A+1, Y>=A, Y=<3.\nunsafe :- p(X,Y).",
    # the one variable q(X) leaves free: bounded by no conjunct, so it
    # takes the whole box; then with an interval empty for X=2
    "q(X) :- X>=0, X=<1.\np(X,Y) :- q(X).\nunsafe :- p(X,Y).",
    "q(X) :- X>=0, X=<2.\np(Y) :- q(X), Y>=2*X, Y=<3.\nunsafe :- p(Y).",
    # head tuples: constants beside variables, a unary head whose one value
    # the one-variable level gives, and a nullary head other than the query
    "q(X) :- X>=0, X=<2.\np(X,0,X) :- q(X).\nunsafe :- p(X,Y,Z).",
    "q(X) :- X>=0, X=<1.\np(Y) :- q(X), Y=X+2.\nunsafe :- p(Y).",
    "q(X) :- X>=0, X=<2.\nr :- q(X), X>=2.\np(X) :- r, q(X).\n"
    "unsafe :- p(X).",
    # probe keys whose constant comes before a bound variable, two
    # constants written in descending order
    "q(X,Y) :- X>=0, X=<2, Y>=X, Y=<X+1.\n"
    "p(X) :- q(X,Y), q(Y,3), q(2,Y).\nunsafe :- p(X).",
], ids=["index-extension", "repeated-variable", "body-constant", "keyless",
        "path-dependent-order", "lone-unbounded", "lone-empty-interval",
        "head-constant-between-variables", "lone-unary-head", "nullary-head",
        "constant-first-key"])
def test_indexed_joins_match_brute_force(source):
    prog = parse_program(source)
    model = bounded_least_model(prog, bound=3)
    brute = naive_bounded_model(prog, 3)
    got = {p: fs for p, fs in model.facts.items() if fs}
    want = {p: fs for p, fs in brute.items() if fs}
    assert got == want
    assert got["p"]


def test_matches_brute_force_on_random_programs():
    rng = random.Random(5150)
    checked = 0
    for _ in range(25):
        prog = random_program(rng)
        if prog.total_args() > 8:
            continue
        model = bounded_least_model(prog, bound=3)
        brute = naive_bounded_model(prog, 3)
        got = {p: fs for p, fs in model.facts.items() if fs}
        want = {p: fs for p, fs in brute.items() if fs}
        assert got == want
        checked += 1
    assert checked >= 5


def test_facts_grow_with_bound():
    rng = random.Random(6021)
    for _ in range(10):
        prog = random_program(rng)
        small = bounded_least_model(prog, bound=4)
        large = bounded_least_model(prog, bound=8)
        for pred, facts in small.facts.items():
            assert facts <= large.facts.get(pred, set())
