"""Bounded bottom-up evaluation: exactness flags, query verdicts, and
agreement with a brute-force fixpoint over the same box."""

import gc
import hashlib
import random
import sys
import types

import pytest

from chcslim import (
    EvalBudgetError, EvalError, TriState, bounded_least_model, cfar_transform,
    derives_unsafe, nlr_transform, parse_program,
)
from chcslim import bounded
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


def _bounds(n: int) -> str:
    return "p(X) :- " + ", ".join(f"X>={-i}" for i in range(n)) + ", X=<2."


def _cancelled(n: int) -> str:
    # each conjunct names X, yet no row of it holds X
    return "p(X) :- " + ", ".join(f"X+{i}>=X" for i in range(n)) + "."


# Clauses without body atoms, which their kernels ground without a probe:
# (facts, steps, clipped, rounds).
@pytest.mark.parametrize("source, bound, expected", [
    ("p(X) :- X>=1, X=<5.", 8,
     ({"p": {(1,), (2,), (3,), (4,), (5,)}}, 15, False, 1)),
    ("p(X) :- X>=40.", 32, ({"p": set()}, 0, True, 0)),
    ("p(X) :- X>=-9, X=<-7.", 8, ({"p": {(-8,), (-7,)}}, 6, True, 1)),
    ("p(X) :- X>=3, X=<2.", 8, ({"p": set()}, 0, False, 0)),
    ("p(X) :- 2*X=1.", 8, ({"p": set()}, 0, False, 0)),
    ("p(X) :- 1>=2, X>=0, X=<3.", 8, ({"p": set()}, 1, False, 0)),
    ("p(X,Y) :- X>=0, X=<2, Y=X+1.", 8,
     ({"p": {(0, 1), (1, 2), (2, 3)}}, 15, False, 1)),
    ("p(X) :- X=Y1+Y2+Y3+Y4+Y5+Y6.", 1,
     ({"p": {(-1,), (0,), (1,)}}, 1878, True, 1)),
    (_bounds(9), 8, ({"p": {(0,), (1,), (2,)}}, 33, False, 1)),
    (_cancelled(9), 3, ({"p": {(v,) for v in range(-3, 4)}}, 70, True, 1)),
], ids=["bounded", "truncated", "truncated-at-the-edge", "empty", "2x=1",
        "false-ground-conjunct", "two-free-variables", "wide-conjunct",
        "wide-bounds", "wide-cancelled"])
def test_clauses_without_atoms_are_pinned(source, bound, expected):
    prog = parse_program(source)
    model = bounded_least_model(prog, bound)
    assert (model.facts, model.steps, model.clipped, model.rounds) == expected
    assert model.facts == naive_bounded_model(prog, bound)


def test_wide_ascending_chain_exhausts_the_budget():
    with pytest.raises(EvalBudgetError):
        bounded_least_model(parse_program(_ascending(50)), 32, budget=100_000)


def test_huge_coefficients_stay_out_of_kernel_sources():
    # N*Y+N*Y sums to a coefficient of 4,301 digits, which str() refuses
    # to write: a kernel that spelled its coefficients out could not be
    # written for Y's interval
    n = "9" * 4300
    model = bounded_least_model(parse_program(
        f"q(0). q(1).\np(Y) :- q(X), {n}*Y+{n}*Y=X.\n"
        "unsafe :- p(X), X>=1."), 4)
    assert model.facts == {"p": {(0,)}, "q": {(0,), (1,)}, "unsafe": set()}
    assert model.verdict() is TriState.FAILS and not model.clipped
    assert (model.rounds, model.steps) == (2, 6)


def _deep_body(n: int) -> str:
    facts = "".join(f"q{i}({i % 2}).\n" for i in range(n))
    body = ", ".join(f"q{i}(X{i})" for i in range(n))
    return f"{facts}p(X0) :- {body}.\nunsafe :- p(X), X>=0."


# One clause joining n atoms: (size(), rounds, clipped, steps) at bound 4.
# CPython compiles no more than 20 statically nested blocks, so a kernel
# that nested one loop per atom would fail for n = 25 and 40.
@pytest.mark.parametrize("n, expected", [
    (18, (20, 3, False, 326)),
    (25, (27, 3, False, 627)),
    (40, (42, 3, False, 1602)),
])
def test_deep_bodies_are_pinned(n, expected):
    model = bounded_least_model(parse_program(_deep_body(n)), 4)
    assert (model.size(), model.rounds, model.clipped, model.steps) == expected


def test_wide_rows_compile(monkeypatch):
    # rows and atoms wider than _INLINE are names the kernel hands to
    # _holds or _interval or loops over, so its source does not grow with
    # them: written out, a sum of a few thousand terms exceeds the
    # compiler's nesting limit
    sources = []
    monkeypatch.setattr(bounded, "compile", lambda text, *rest: sources.append(
        text) or compile(text, *rest), raising=False)
    n = 4000
    xs = [f"X{i}" for i in range(n)]
    source = (f"q({','.join(str(i % 2) for i in range(n))}).\n"
              f"p(X1) :- q({','.join(xs)}), {'+'.join(xs)}={n // 2}.\n"
              f"r(Y) :- q({','.join(xs)}), Y={'+'.join(xs)}-{n // 2 - 3}.\n"
              "unsafe :- p(X), r(X).")
    model = bounded_least_model(parse_program(source), 8)
    assert model.facts["p"] == {(1,)} and model.facts["r"] == {(3,)}
    assert model.verdict() is TriState.FAILS
    assert sources and all(len(text) < 2000 for text in sources)


def _rows_program(rng: random.Random) -> str:
    # q holds a few points; p's Z is left free by its atom, and r's
    # conjuncts are checked after its atoms
    def relation(names: str) -> str:
        terms = "".join(f" + {c}*{v}" if c > 0 else f" - {-c}*{v}"
                        for v in rng.sample(names, rng.randint(1, 3))
                        for c in [rng.choice((1, -1, 2, -2, 3, -3))])
        return (f"0{terms} {rng.choice(('=', '=<', '>=', '<', '>'))} "
                f"{rng.randint(-4, 4)}")

    facts = "".join(f"q({rng.randint(-3, 3)},{rng.randint(-3, 3)}).\n"
                    for _ in range(6))
    p = ", ".join(relation("XYZ") for _ in range(rng.randint(1, 3)))
    r = ", ".join(relation("XYZ") for _ in range(rng.randint(1, 3)))
    return (f"{facts}p(X,Y,Z) :- q(X,Y), {p}.\n"
            f"r(X,Y) :- p(X,Y,Z), q(Y,Z), {r}.\n"
            "unsafe :- r(X,Y), X>=Y.")


def test_kernels_read_rows_as_holds_and_interval_do(monkeypatch):
    # the same programs with every group of rows and every list of binds
    # written out, then with each named in the kernel's namespace: _holds
    # checks the conjuncts and _interval narrows the lone variable, as
    # _descend and _choose do, and the facts, flag, rounds and steps must
    # agree
    rng = random.Random(7)
    programs = ([parse_program(_rows_program(rng)) for _ in range(60)]
                + [random_program(rng) for _ in range(30)]
                + [frame_program(rng) for _ in range(10)])

    def outcomes(width: int) -> list:
        monkeypatch.setattr(bounded, "_INLINE", width)
        # _INLINE is read when a plan is compiled, so each width compiles
        # plans of its own rather than reusing the other's
        bounded._compiled.cache_clear()
        runs = []
        for prog in programs:
            for bound in (4, 8):
                try:
                    model = bounded_least_model(prog, bound, budget=50_000)
                    runs.append((model.facts, model.clipped, model.rounds,
                                 model.steps))
                except EvalError as e:
                    runs.append(str(e))
        return runs

    try:
        assert outcomes(10**6) == outcomes(0)
    finally:
        # no plan compiled at width 0 serves a later test
        bounded._compiled.cache_clear()


def _spelled(names: str, digits: str) -> str:
    # one program in many spellings: predicate names start with ``names``
    # and constants with ``digits``
    return (f"{names}q(0).\n"
            f"{names}q(Y) :- {names}q(X), Y=X+1, X=<{digits}1.\n"
            f"{names}r(X,{digits}2) :- {names}q(X), 3*X>={digits}3.\n"
            f"{names}p(X,Z) :- {names}q(X), {names}r(X,Z), X+Z=<{digits}4, "
            f"{names}q({digits}5).\n"
            f"unsafe :- {names}p(X,Z), X>=3.")


def _held(value) -> list:
    """The strings and numbers a compiled clause shape holds: through
    containers, named tuples, ``_Compiled`` slots and kernels, whose nested
    code constants and namespace are looked into; other functions and
    ``itemgetter`` are not."""
    if isinstance(value, (str, int)):
        return [value]
    if isinstance(value, dict):
        value = list(value.items())
    elif isinstance(value, bounded._Compiled):
        value = [getattr(value, name) for name in value.__slots__]
    elif isinstance(value, types.CodeType):
        value = value.co_consts
    elif isinstance(value, types.FunctionType) and value.__name__ == "kernel":
        value = [value.__code__,
                 {name: held for name, held in value.__globals__.items()
                  if name != "__builtins__"}]
    if isinstance(value, (tuple, list, frozenset)):
        return [leaf for item in value for leaf in _held(item)]
    return []


def _cold() -> None:
    # nothing compiled, for this test alone
    bounded._compiled.cache_clear()


def test_kernels_are_shared_by_shape_and_hold_no_input():
    _cold()
    first = parse_program(_spelled("aa", "42424"))
    bounded_least_model(first, 8)
    info = bounded._compiled.cache_info()
    second = parse_program(_spelled("zz", "98765"))
    bounded_least_model(second, 8)
    # the second program compiles nothing: each of its clauses finds its
    # shape, with the plans and kernels the first program compiled
    assert info.misses == 5 and bounded._compiled.cache_info().misses == 5
    assert bounded._compiled.cache_info().hits - info.hits == 5
    kernels = 0
    for clause in first.clauses + second.clauses:
        compiled = bounded._rule(clause, 8).compiled
        # every plan is a kernel, that of the fact q(0) included
        kernels += len(compiled.joins)
        text = " ".join(map(str, _held(compiled)))
        for given in ("aa", "zz", "42424", "98765"):
            assert given not in text
    assert kernels == 2 * 5


# Each pair differs only in head slots, then only in the constants a probe
# looks up: the clause shapes the second program adds, and (facts, steps)
# of the first and of the second program at bound 8.
@pytest.mark.parametrize("first, second, shapes, expected", [
    ("a(1,2). p(X,Y) :- a(X,Y).", "a(1,2). p(X,Y,Y) :- a(X,Y).", 1,
     ({"a": {(1, 2)}, "p": {(1, 2)}}, 1,
      {"a": {(1, 2)}, "p": {(1, 2, 2)}}, 1)),
    ("a(1). b(1,5). c(1,5). p(X) :- a(X), b(X,5), c(X,5).",
     "a(1). b(1,5). c(1,7). p(X) :- a(X), b(X,5), c(X,7).", 0,
     ({"a": {(1,)}, "b": {(1, 5)}, "c": {(1, 5)}, "p": {(1,)}}, 9,
      {"a": {(1,)}, "b": {(1, 5)}, "c": {(1, 7)}, "p": {(1,)}}, 9)),
], ids=["head-slots", "lookup-slots"])
def test_shapes_added_by_head_and_lookup_slots(first, second, shapes,
                                               expected):
    # a clause whose head repeats a slot is a shape of its own; constants
    # are read from the assignment, so looking up others adds no shape
    _cold()
    one = bounded_least_model(parse_program(first), 8)
    misses = bounded._compiled.cache_info().misses
    two = bounded_least_model(parse_program(second), 8)
    assert bounded._compiled.cache_info().misses - misses == shapes
    assert misses > 0
    assert (one.facts, one.steps, two.facts, two.steps) == expected


def _collider(names=("q", "r"), lo=-1, hi=1, k=1, c=1, head=0,
              atoms=(1, 1), limit=2) -> str:
    # one clause shape per line whatever the arguments: q's facts from an
    # interval, r's from two probes of q with constants, and the query
    q, r = names
    return (f"{q}(X,Y) :- X>={lo}, X=<{hi}, Y={k}*X{c:+d}.\n"
            f"{r}({head},X) :- {q}(X,{atoms[0]}), {q}({atoms[1]},Z), "
            f"X+Z>={lo}.\n"
            f"unsafe :- {r}(W,X), {q}(X,Y), Y>={limit}.")


# Programs whose clauses share their shapes line by line, unless a
# coefficient differs, each with the bound it is evaluated at.
COLLIDERS = [
    (_collider(), 3),
    (_collider(names=("s", "t")), 3),
    (_collider(names=("r", "q")), 3),
    (_collider(atoms=(1, 0)), 3),
    (_collider(atoms=(0, 0)), 3),
    (_collider(atoms=(0, 2)), 3),
    (_collider(head=3), 3),
    (_collider(head=-4), 3),
    (_collider(head=3), 4),
    (_collider(lo=0, hi=1, c=0, limit=1), 3),
    (_collider(lo=-3, hi=3, c=-1, limit=0), 3),
    (_collider(k=2), 3),
    (_collider(k=-3, c=2), 3),
    (_collider(), 2),
    (_collider(), 4),
]


def _outcome(source: str, bound: int) -> tuple:
    model = bounded_least_model(parse_program(source), bound)
    return model.facts, model.clipped, model.rounds, model.steps


def test_clauses_of_one_shape_do_not_collide():
    # a shape leaves out every constant, predicate name and the bound, so
    # each program must run the same after the others as on its own
    cold = []
    for source, bound in COLLIDERS:
        _cold()
        cold.append(_outcome(source, bound))
    # forward, each after those before it; backward, each after all others
    forward = [_outcome(source, bound) for source, bound in COLLIDERS]
    backward = [_outcome(source, bound) for source, bound in COLLIDERS[::-1]]
    assert forward == cold and backward[::-1] == cold
    for (source, bound), (facts, *_) in zip(COLLIDERS, cold):
        brute = naive_bounded_model(parse_program(source), bound)
        assert ({p: fs for p, fs in facts.items() if fs}
                == {p: fs for p, fs in brute.items() if fs}), source


def _chain(first: int) -> str:
    # the 300-variable chain of test_deep_clause_does_not_abort_the_batch
    n = 300
    chain = ", ".join(f"X{i}=X{i - 1}" for i in range(1, n))
    return f"p(X{n - 1}) :- X0={first}, {chain}.\nunsafe :- p(X), X>=1.\n"


def test_failed_evaluation_leaves_nothing_broken():
    # the evaluation that nests too deep stops part way through building
    # the levels of its shape; what it built serves the next evaluations
    cold = []
    for first in (0, 1):
        _cold()
        cold.append(_outcome(_chain(first), 32))
    _cold()
    deep = parse_program(_chain(0))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(250)
    try:
        with pytest.raises(EvalError, match="recursion limit"):
            bounded_least_model(deep, 32)
    finally:
        sys.setrecursionlimit(limit)
    assert [_outcome(_chain(first), 32) for first in (0, 1)] == cold
    assert [facts["unsafe"] for facts, *_ in cold] == [set(), {()}]


def test_evaluation_leaves_no_reference_cycles():
    # nothing an evaluation builds reaches itself, so its fact indexes are
    # freed when it returns rather than at the next full collection
    rng = random.Random(1)
    programs = ([load(name) for name in corpus_names()]
                + [random_program(rng) for _ in range(50)])

    def run() -> None:
        for prog in programs:
            try:
                bounded_least_model(prog, 8)
            except EvalError:
                pass

    run()  # compiles the kernels, which the cache keeps
    gc.collect()
    gc.disable()
    try:
        run()
        assert gc.collect() == 0
    finally:
        gc.enable()


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
