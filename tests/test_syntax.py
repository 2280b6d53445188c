"""Term and clause level building blocks: linear expressions, variants,
unification, and program isomorphism."""

import pytest
from hypothesis import given, settings, strategies as st

from chcslim.syntax import (
    ArrayCon, Atom, Clause, Const, Constraint, LinExpr, Program, ProgramError,
    RelCon, Var,
    atom_variant_key, fresh_predicate_counter, mgu_atoms,
    programs_isomorphic, rename_apart,
)
from chcslim.parser import parse_clause, parse_program

names = st.sampled_from(["X", "Y", "Z", "W", "V1", "V2"])
pairs = st.lists(st.tuples(names, st.integers(-9, 9)), max_size=6)
consts = st.integers(-50, 50)


def test_linexpr_make_merges_and_drops_zeros():
    e = LinExpr.make([("X", 2), ("Y", 1), ("X", -2)], 3)
    assert e.terms == (("Y", 1),)
    assert e.vars() == {"Y"}
    assert e.const == 3


def test_linexpr_str_formats_signs_and_coefficients():
    assert str(LinExpr.make([("Y", 1), ("X", 2)], -1)) == "Y+2*X-1"
    assert str(LinExpr.make([("X", -1)], 3)) == "-X+3"
    assert str(LinExpr.make((), 0)) == "0"


@given(pairs, consts, st.dictionaries(names, st.integers(-5, 5)))
@settings(deadline=None, max_examples=200)
def test_linexpr_eval_matches_sum(ps, c, env):
    e = LinExpr.make(ps, c)
    full = {n: env.get(n, 0) for n, _ in ps}
    assert e.eval(full) == c + sum(k * full[n] for n, k in ps)


@given(pairs, consts, pairs, consts)
@settings(deadline=None, max_examples=200)
def test_linexpr_sub_cancels(p1, c1, p2, c2):
    a = LinExpr.make(p1, c1)
    b = LinExpr.make(p2, c2)
    d = a.sub(b)
    env = {n: 1 for n in a.vars() | b.vars()}
    assert d.eval(env) == a.eval(env) - b.eval(env)
    assert not a.sub(a).vars() and a.sub(a).const == 0


def test_linexpr_subst_replaces_var_with_const():
    e = LinExpr.make([("X", 2), ("Y", 1)], 1)
    out = e.subst({"X": Const(3)})
    assert out.vars() == {"Y"}
    assert out.const == 7


def test_relcon_holds_for():
    c = RelCon("=<", LinExpr.make([("X", 1)]), LinExpr.make((), 4))
    assert c.holds_for({"X": 4})
    assert not c.holds_for({"X": 5})


def test_clause_vars_in_first_occurrence_order():
    clause = parse_clause("p(B,A) :- C=B+1, q(C,A).")
    assert clause.vars() == ["B", "A", "C"]


def test_rename_apart_avoids_taken_names():
    clause = parse_clause("p(X,Y) :- X>=1, q(Y).")
    renamed, mapping = rename_apart(clause, {"X", "Y"})
    assert set(mapping) == {"X", "Y"}
    assert not (set(mapping.values()) & {"X", "Y"})
    assert programs_isomorphic(Program((clause,)), Program((renamed,)))


def test_atom_variant_key_groups_variants():
    a = Atom("p", (Var("X"), Var("Y"), Var("X")))
    b = Atom("p", (Var("Q"), Var("R"), Var("Q")))
    c = Atom("p", (Var("X"), Var("X"), Var("Y")))
    assert atom_variant_key(a) == atom_variant_key(b)
    assert atom_variant_key(a) != atom_variant_key(c)
    d = Atom("p", (Var("X"), Const(3)))
    assert atom_variant_key(d) == atom_variant_key(Atom("p", (Var("Z"), Const(3))))
    assert atom_variant_key(d) != atom_variant_key(Atom("p", (Var("Z"), Const(4))))
    assert atom_variant_key(d) != atom_variant_key(Atom("q", (Var("Z"), Const(3))))


def test_mgu_atoms_unifies_and_fails():
    a = Atom("p", (Var("X"), Const(3)))
    b = Atom("p", (Const(7), Var("Y")))
    theta = mgu_atoms(a, b)
    assert theta is not None
    assert a.subst(theta) == b.subst(theta)
    assert mgu_atoms(a, Atom("p", (Const(7), Const(4)))) is None
    assert mgu_atoms(a, Atom("q", (Var("X"), Const(3)))) is None


def test_mgu_atoms_chains_variables():
    a = Atom("p", (Var("X"), Var("X")))
    b = Atom("p", (Var("Y"), Const(2)))
    theta = mgu_atoms(a, b)
    assert a.subst(theta) == b.subst(theta) == Atom("p", (Const(2), Const(2)))


def test_fresh_predicate_counter_skips_existing():
    prog = parse_program("unsafe :- newp1(X).\nnewp1(X) :- newp7(X).\nnewp7(X) :- X=0.")
    counter = fresh_predicate_counter(prog)
    assert next(counter) == 8
    assert next(counter) == 9


X, Y, Z = Var("X"), Var("Y"), Var("Z")
READ = Atom("read", (X, Y, Z))
WRITE = Atom("write", (X, Y, Z, X))


@pytest.mark.parametrize("clauses, expected", [
    ((Clause(Atom("p", (X,))), Clause(Atom("p", (X, Y)))),
     [(1, "p used with arity 2, previously 1")]),
    ((Clause(Atom("unsafe", (X,))),), [(0, "unsafe must be nullary")]),
    ((Clause(Atom("p")), Clause(Atom("p"), body=(Atom("unsafe"),))),
     [(1, "unsafe must be head-only")]),
    ((Clause(Atom("p", (X,)), Constraint((ArrayCon("read", (X, Y)),))),),
     [(0, "read expects 3 arguments")]),
    ((Clause(READ), Clause(Atom("unsafe"), body=(READ,))),
     [(0, "read is reserved"), (1, "read is reserved")]),
    ((Clause(WRITE), Clause(Atom("unsafe"), body=(WRITE,))),
     [(0, "write is reserved"), (1, "write is reserved")]),
    ((Clause(Atom("p")), Clause(Atom("unsafe"), body=(Atom("p"), Atom("write")))),
     [(1, "write is reserved")]),
], ids=["arity-clash", "query-arguments", "query-in-body", "array-arity",
        "reserved-read", "reserved-write", "reserved-body"])
def test_program_rules_are_checked_when_built(clauses, expected):
    with pytest.raises(ProgramError) as info:
        Program(clauses)
    problems = info.value.problems
    assert [i for i, _ in problems] == [i for i, _ in expected]
    for (_, problem), (_, fragment) in zip(problems, expected):
        assert fragment in problem
    assert str(info.value).startswith(f"clause {expected[0][0]}: ")


def test_total_args_sums_predicate_arities(counter_p1, counter_p2, counter_p3):
    assert counter_p1.total_args() == 10
    assert counter_p2.total_args() == 5
    assert counter_p3.total_args() == 4


def test_programs_isomorphic_modulo_renamings():
    p = parse_program("unsafe :- X>=1, a(X).\na(X) :- X=<0, a(X).\na(X) :- X=5.")
    q = parse_program("unsafe :- W>=1, b(W).\nb(Q) :- Q=<0, b(Q).\nb(Q) :- Q=5.")
    reordered = parse_program(
        "unsafe :- W>=1, b(W).\nb(Q) :- Q=5.\nb(Q) :- Q=<0, b(Q).")
    assert programs_isomorphic(p, q)
    assert not programs_isomorphic(p, reordered)


def test_programs_isomorphic_requires_bijective_predicate_map():
    p = parse_program("unsafe :- a(X), b(X).\na(X) :- X=1.\nb(X) :- X=1.")
    q = parse_program("unsafe :- c(X), c(X).\nc(X) :- X=1.\nc(X) :- X=1.")
    assert not programs_isomorphic(p, q)


def test_programs_isomorphic_distinguishes_structure():
    p = parse_program("unsafe :- X>=1, a(X).\na(X) :- X=5.")
    q = parse_program("unsafe :- X>=1, a(X).\na(X) :- X=6.")
    r = parse_program("unsafe :- X>=1, a(X).\na(X) :- X=5.\na(X) :- X=5.")
    assert not programs_isomorphic(p, q)
    assert not programs_isomorphic(p, r)
    assert programs_isomorphic(p, p)
