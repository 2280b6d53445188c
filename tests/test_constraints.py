"""Tri-state linear constraint reasoning.

HOLDS and FAILS answers are checked against exhaustive search over a box
of integer assignments; UNKNOWN is permitted whenever elimination had to
go through a non-unit coefficient.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from chcslim import constraints
from chcslim.constraints import (
    Parts, TriState, answers_once, constrained_to, forall_exists_valid,
    is_satisfiable, parts_of, project, rows_of,
)
from gen import (constraint_of, random_constraint, random_forall_instance,
                 wide_constraint)
from oracles import box_forall_exists, box_satisfiable


def sat(text):
    return is_satisfiable(constraint_of(text))


def valid(x, text):
    return forall_exists_valid(x, constraint_of(text))


def test_tristate_is_not_a_boolean():
    with pytest.raises(TypeError):
        bool(TriState.HOLDS)


@pytest.mark.parametrize("text, expected", [
    ("X>=1, X=<0", TriState.FAILS),
    ("X>=1, X=<1", TriState.HOLDS),
    ("X=2*W", TriState.HOLDS),
    ("X<X", TriState.FAILS),
    ("X=Y+1, Y>=3, X=<3", TriState.FAILS),
    ("2*X=<7, 2*X>=7", TriState.FAILS),
    ("true", TriState.HOLDS),
    # a unit equality is substituted before the non-unit rows are combined
    ("-2*X>=1, X=-1", TriState.HOLDS),
    ("2*Y-X=3, 2*Y+2*X<4", TriState.HOLDS),
    # substitution turns the last equality into 0 = -1, or into 0 = 0
    ("X=Y+1, Y=Z, X=Z+2", TriState.FAILS),
    ("X=Y+1, Y=Z, X=Z+1", TriState.HOLDS),
])
def test_satisfiability_spot_checks(text, expected):
    assert sat(text) is expected


@pytest.mark.parametrize("text, expected", [
    # V1=2 written as two opposite bounds: 3*V1=-2*V0+1 then has no
    # integer solution, which Fourier-Motzkin alone cannot show exactly
    ("3*V1=-2*V0+1, -V1<-1, V1=<2", TriState.FAILS),
    ("3*V1=-2*V0+1, V1=2", TriState.FAILS),
    # -2*V1>=2, -2*V1<3 meet at V1=-1 only once divided by their gcd
    ("-2*V1>=2, 3*V1=<-2*V2-1, 3*V2-2*V0>-2*V1+4, "
     "2*V1=-2*V2-2*V0-6, -2*V1<3", TriState.HOLDS),
    # the first phase leaves an equality (-2*V2=6 after V3=-3, and
    # -2*V1+2*V3=2 after V2) that is unit only once divided by its gcd
    ("3*V1=2*V2-5, -V3=3, -2*V2=-3*V3-3", TriState.FAILS),
    ("-2*V2=0, 3*V1-2*V2=<4, -2*V1-V2+2*V3=2", TriState.HOLDS),
])
def test_opposite_bounds_that_meet_are_an_equality(text, expected):
    assert sat(text) is expected


def test_row_budget_makes_answer_unknown(monkeypatch):
    # one Fourier-Motzkin combination refutes X>=1, X=<0; a budget of no
    # rows forbids it
    assert sat("X>=1, X=<0") is TriState.FAILS
    monkeypatch.setattr(constraints, "ROW_BUDGET", 0)
    assert sat("X>=1, X=<0") is TriState.UNKNOWN


@pytest.mark.parametrize("x, text, expected", [
    ("X", "true", TriState.HOLDS),
    ("X", "X=Y+1", TriState.HOLDS),
    ("X", "X=Y+1, Y>=3", TriState.FAILS),
    ("X", "X=2*W", TriState.UNKNOWN),
    ("X", "Y>=3", TriState.HOLDS),
    ("X", "X>=0", TriState.FAILS),
    ("X", "X=Y+W", TriState.HOLDS),
    ("X", "X=Y, Y=<2", TriState.FAILS),
    ("Z", "2*Y=<-Z+3, 2*X=-Y-2", TriState.HOLDS),
    # the first phase leaves -2*V0-4*V4=14, unit in V0 once divided by 2
    ("V2", "-2*V4-V3=4, 3*V3-2*V0=V1+4, V1=V3+2, -V1=<V3-3*V2-2",
     TriState.HOLDS),
])
def test_forall_exists_spot_checks(x, text, expected):
    assert valid(x, text) is expected


def test_long_equality_chain():
    # X0 >= 0 and X(i+1) = Xi + 1 up to X999: satisfiable, and X999 is
    # bounded below, so not every value of it extends to a solution
    chain = ", ".join(f"X{i + 1}=X{i}+1" for i in range(999))
    c = constraint_of(chain + ", X0>=0")
    assert is_satisfiable(c) is TriState.HOLDS
    assert forall_exists_valid("X999", c) is TriState.FAILS


def test_forall_exists_of_absent_variable_reduces_to_satisfiability():
    assert valid("Q", "X=Y+1, Y>=3") is TriState.HOLDS
    assert valid("Q", "X>=1, X=<0") is TriState.FAILS


@pytest.mark.parametrize("x, y, text, expected", [
    ("X", "Y", "X=Y", True),
    ("X", "Y", "X>=1, Y=<2", False),
    ("X", "Y", "X=Z, Z=Y", True),
    ("X", "X", "X=X", False),
    ("X", "Y", "read(A,X,V), Y=V+1", True),
    ("X", "Y", "true", False),
])
def test_constrained_to(x, y, text, expected):
    assert constrained_to(x, y, constraint_of(text)) is expected


def test_parts_split_on_shared_vars():
    c = constraint_of("X=Y, Z>=1, 0=<1, W=Z+2")
    parts = Parts(c)
    assert [str(p) for p in parts.parts] == ["X=Y", "Z>=1, W=Z+2", "0=<1"]
    assert parts.linked("X") == {"X", "Y"}
    assert parts.linked("W") == {"Z", "W"}
    assert parts.linked("Q") == {"Q"}
    assert str(parts.own("W")) == "Z>=1, W=Z+2"
    assert parts.own("Q") == type(c)()


@pytest.mark.parametrize("text, live, expected", [
    # a dead part that holds is deleted
    ("X>=0, Z>=1, Z=<3", "X", "X>=0"),
    # a dead part that fails leaves the conjunction unsatisfiable
    ("X>=0, Z>=1, Z=<0", "X", None),
    # so does one with rational but no integer solutions
    ("X>=0, 2*Z=7", "X", None),
    # a dead part the oracle cannot decide is kept
    ("X>=0, 2*Z=3*W+1", "X", "X>=0, 2*Z=3*W+1"),
    # a variable of an array constraint stays, and so does one with only a
    # non-unit equality
    ("read(A,I,V), V=Y+1", "A I Y", "read(A,I,V), V=Y+1"),
    ("2*Y=X, X>=0", "X", "2*Y=X, X>=0"),
    # one-sided inequalities go with their variable, two-sided ones stay
    ("W>=X, W>=Y+1, X=<5", "X Y", "X=<5"),
    ("W>=X, W=<Y", "X Y", "W>=X, W=<Y"),
    ("W>=X, V=<W, V<Y", "X Y", ""),
    # a solved equality is substituted; every conjunct keeps its place
    ("X>=0, T=X+1, Y=<T, Z>=1, Y>=X", "X Y", "X>=0, Y=<X+1, Y>=X"),
    ("Y=-T, T=X", "X Y", "X+Y=0"),
    # a rewritten conjunct left without variables is decided on the spot
    ("T=X, T>=X-1, Y=X", "X Y", "Y=X"),
    ("T=X, T=X+1", "X", None),
])
def test_projection_rules(text, live, expected):
    result = project(Parts(constraint_of(text)), set(live.split()))
    assert (None if result is None else str(result)) == expected


def test_projection_keeps_a_live_conjunction_as_it_is():
    c = constraint_of("X>=0, Y=X+1, Z=<Y")
    assert project(Parts(c), {"X", "Y", "Z"}) is c


def test_projection_agrees_with_box_search():
    # the projection is exact: under each pin of the live variables, the
    # input has a witness for the rest exactly when the output does
    rng = random.Random(2718)
    changed = 0
    for i in range(200):
        c = random_constraint(rng, max_vars=4, max_conjuncts=4)
        live = sorted(c.vars())[:1 + i % 2]
        out = project(Parts(c), set(live))
        if out is c:
            continue
        changed += 1
        if out is None:
            assert not box_satisfiable(c), c
            continue
        assert out.vars() <= c.vars()
        for values in itertools.product(range(-2, 3), repeat=len(live)):
            pin = [f"{n}={v}" for n, v in zip(live, values)]
            assert box_satisfiable(constraint_of(", ".join([str(c)] + pin))) is \
                box_satisfiable(constraint_of(", ".join(
                    [str(out)] * bool(out.conjuncts) + pin))), (c, out)
    assert changed > 60


def _split_verdict(x, c):
    parts = Parts(c)
    return (forall_exists_valid(x, parts.own(x)) is TriState.HOLDS
            and parts.others_satisfiable(x))


def test_split_agrees_with_forall_exists_on_the_whole():
    # x's own part projecting to true with every other part satisfiable is
    # the whole constraint's universal-existential validity, for every
    # variable and for one that does not occur
    rng = random.Random(31337)
    checks = split = 0
    for i in range(600):
        unit = i % 3 != 0
        if i % 2:
            c = random_constraint(rng, max_vars=6, max_conjuncts=5, unit=unit)
        else:
            c = random_forall_instance(rng, unit=unit)[1]
        split += len(Parts(c).parts) > 1
        for x in sorted(c.vars()) + ["Absent"]:
            whole = forall_exists_valid(x, c) is TriState.HOLDS
            assert _split_verdict(x, c) is whole, f"forall {x}: {c}"
            checks += 1
    assert checks > 1500 and split > 100


@pytest.mark.parametrize("rel, expected", [
    ("=", [({"X": 1, "Y": -2}, -1), ({"X": -1, "Y": 2}, 1)]),
    ("=<", [({"X": 1, "Y": -2}, -1)]),
    ("<", [({"X": 1, "Y": -2}, -2)]),
    (">=", [({"X": -1, "Y": 2}, 1)]),
    (">", [({"X": -1, "Y": 2}, 0)]),
])
def test_rows_of_each_relation(rel, expected):
    # X+1 rel 2*Y as rows sum(coeff*var) <= bound; strict ones shift by 1
    rows = rows_of(*constraint_of(f"X+1{rel}2*Y").conjuncts)
    assert [(dict(terms), bound) for terms, bound in rows] == expected
    # X cancels out of X+Y rel X+1 and leaves no zero coefficient
    assert (rows_of(*constraint_of(f"X+Y{rel}X+1").conjuncts)
            == rows_of(*constraint_of(f"Y{rel}1").conjuncts))


def test_rows_of_keeps_lhs_terms_first():
    # lhs terms in their order, then the rhs terms lhs lacks; X cancels
    ((terms, bound),) = rows_of(*constraint_of("X+Y=<Z+X+W").conjuncts)
    assert terms == (("Y", 1), ("Z", -1), ("W", -1)) and bound == 0


def test_projection_solves_for_the_least_named_unit_variable():
    # A and B are both unit in B+A=Y; A is solved away, not B, the first
    # in coefficient order
    result = project(Parts(constraint_of("B+A=Y, A>=0, B>=0")), {"Y"})
    assert str(result) == "Y>=B, B>=0"


def test_array_constraints_make_satisfiability_unknown():
    assert sat("read(A,I,V), V>=3") is TriState.UNKNOWN
    assert valid("X", "read(A,I,X)") is TriState.UNKNOWN


@given(st.integers(0, 10**6))
@settings(deadline=None, max_examples=120)
def test_satisfiability_invariant_under_conjunct_order(seed):
    # every answer, forall-exists ones included; the wide shapes chain
    # equalities through non-unit coefficients, where the order in which
    # equalities are solved could show
    rng = random.Random(seed)
    drawn = [random_constraint(rng, unit=bool(seed % 2))]
    drawn += [wide_constraint(rng) for _ in range(20)]
    for c in drawn:
        conjuncts = list(c.conjuncts)
        rng.shuffle(conjuncts)
        shuffled = type(c)(tuple(conjuncts))
        assert is_satisfiable(shuffled) is is_satisfiable(c), c
        for x in sorted(c.vars()):
            expected = forall_exists_valid(x, c)
            assert forall_exists_valid(x, shuffled) is expected, (x, c)


def test_satisfiability_agrees_with_box_search():
    rng = random.Random(987654)
    unknown = total = 0
    for i in range(250):
        c = random_constraint(rng, unit=(i % 3 != 0))
        verdict = is_satisfiable(c)
        total += 1
        if verdict is TriState.UNKNOWN:
            unknown += 1
            continue
        witness = box_satisfiable(c)
        assert (verdict is TriState.HOLDS) == witness, f"{c} -> {verdict}"
    assert unknown < total


def test_forall_exists_agrees_with_box_search():
    rng = random.Random(24680)
    for i in range(200):
        x, c = random_forall_instance(rng, unit=(i % 3 != 0))
        verdict = forall_exists_valid(x, c)
        if verdict is TriState.UNKNOWN:
            continue
        expected = box_forall_exists(x, c)
        assert (verdict is TriState.HOLDS) == expected, f"forall {x}: {c}"


def test_unit_constraints_rarely_unknown():
    rng = random.Random(1357)
    unknown = 0
    for _ in range(300):
        if is_satisfiable(random_constraint(rng, unit=True)) is TriState.UNKNOWN:
            unknown += 1
    assert unknown <= 30


def _oracle_questions():
    # satisfiability and forall-exists questions on 2,000 constraints and
    # 1,000 forall instances, a third of them with non-unit coefficients
    rng = random.Random(2718)
    questions = []
    for i in range(3000):
        unit = i % 3 != 0
        if i < 2000:
            c = random_constraint(rng, max_vars=4, unit=unit)
            x = rng.choice(sorted(c.vars()))
        else:
            x, c = random_forall_instance(rng, unit=unit)
        questions += [(is_satisfiable, c),
                      (lambda c, x=x: forall_exists_valid(x, c), c)]
    return questions


def test_answer_table_gives_the_uncached_answers(monkeypatch):
    questions = _oracle_questions()
    expected = [ask(c) for ask, c in questions]
    eliminate, fresh = constraints._eliminate, []

    def counted(c, keep):
        fresh.append(keep)
        return eliminate(c, keep)

    monkeypatch.setattr(constraints, "_eliminate", counted)
    for order in (1, -1):
        fresh.clear()
        with answers_once():
            for _ in range(2):
                answers = [ask(c) for ask, c in questions[::order]]
                assert answers == expected[::order]
            # each question was answered fresh once, the repeats from the table
            assert len(fresh) == len(constraints._table) < len(questions)


def test_nested_answer_tables_are_one():
    with answers_once():
        outer, splits = constraints._table, constraints._splits
        sat("X>=1")
        first = parts_of(constraint_of("X>=1, Y=<2"))
        with answers_once():
            assert constraints._table is outer
            assert constraints._splits is splits
            sat("X>=2")
            assert parts_of(constraint_of("X>=1, Y=<2")) is first
            parts_of(constraint_of("Z=1"))
        assert constraints._table is outer and len(outer) == 2
        assert constraints._splits is splits and len(splits) == 2
    assert constraints._table is None and constraints._splits is None


def test_no_answer_table_outlives_its_block():
    c = constraint_of("X>=1")
    sat("X>=1")
    assert parts_of(c) is not parts_of(c)
    assert constraints._table is None and constraints._splits is None
    with pytest.raises(RuntimeError):
        with answers_once():
            with answers_once():
                sat("X>=1")
                parts_of(c)
                raise RuntimeError("inside")
    assert constraints._table is None and constraints._splits is None


def _multi_part_inputs():
    # random unit and non-unit constraints, wide ones and forall instances
    # (only unit ones have more than one conjunct)
    rng = random.Random(4242)
    for i in range(6000):
        if i % 4 == 0:
            yield random_constraint(rng, max_vars=8, max_conjuncts=6)
        elif i % 4 == 1:
            yield random_constraint(rng, max_vars=8, unit=False)
        elif i % 4 == 2:
            yield wide_constraint(rng, max_vars=8, max_conjuncts=6)
        else:
            yield random_forall_instance(rng)[1]


@pytest.mark.parametrize("budget", [None, 1, 2, 3, 5, 8])
def test_parts_of_a_satisfiable_conjunction_are_satisfiable(monkeypatch, budget):
    # a conjunction answered holds has every part answering holds alone, so
    # inside a block the whole's answer decides each part with no
    # elimination; any other whole answer leaves each part to the oracle.
    # Tiny row budgets make the whole blow where parts do not
    if budget is not None:
        monkeypatch.setattr(constraints, "ROW_BUDGET", budget)
    eliminate, fresh = constraints._eliminate, []

    def counted(c, keep):
        fresh.append(c)
        return eliminate(c, keep)

    monkeypatch.setattr(constraints, "_eliminate", counted)
    wholes = parts = others = 0
    for c in _multi_part_inputs():
        split = Parts(c)
        if len(split.parts) < 2:
            continue
        whole = is_satisfiable(c)
        alone = [is_satisfiable(part) for part in split.parts]
        if whole is TriState.HOLDS:
            assert set(alone) == {TriState.HOLDS}, c
        with answers_once():
            is_satisfiable(c)
            fresh.clear()
            split = Parts(c)
            assert [split.decide(i) for i in range(len(split.parts))] == alone, c
            if whole is TriState.HOLDS:
                assert not fresh, c
                # and a later split of a part finds its answer in the table
                assert Parts(split.parts[0]).decide(0) is TriState.HOLDS
                assert not fresh, c
        if whole is TriState.HOLDS:
            wholes += 1
            parts += len(split.parts)
        else:
            others += 1
    assert wholes > 1200 and parts > 2 * wholes and others > 100
