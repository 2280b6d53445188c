"""Term and clause level building blocks: linear expressions, variants and
unification; and the tests' own readings of constraint truth and program
isomorphism (``oracles.holds``, ``oracles.programs_isomorphic``)."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from chcslim.syntax import (
    ArrayCon, Atom, Clause, Const, Constraint, LinExpr, Program, ProgramError,
    RelCon, Var,
    atom_variant_key, fresh_predicate_counter, mgu_atoms, productive_clauses,
    rename_apart,
)
from chcslim.corpus import corpus_names, load
from chcslim.parser import parse_program

from gen import clause_of, frame_program, random_program
from oracles import holds, programs_isomorphic, subst_rebuilt

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
    value = c + sum(k * full[n] for n, k in ps)
    assert holds(RelCon("=", e, LinExpr.make((), value)), full)
    assert not holds(RelCon("=", e, LinExpr.make((), value + 1)), full)


def test_linexpr_subst_replaces_var_with_const():
    e = LinExpr.make([("X", 2), ("Y", 1)], 1)
    out = e.subst({"X": Const(3)})
    assert out.vars() == {"Y"}
    assert out.const == 7


def _nodes(clause):
    """The clause and the nodes under it, each with its variables, in an
    order that only the numbers of conjuncts and body atoms fix."""
    yield clause, set(clause.vars())
    yield clause.constraint, clause.constraint.vars()
    for atom in (clause.head, *clause.body):
        yield atom, atom.vars()
    for con in clause.constraint.conjuncts:
        yield con, con.vars()
        if isinstance(con, RelCon):
            yield con.lhs, con.lhs.vars()
            yield con.rhs, con.rhs.vars()


def test_subst_hands_back_the_nodes_it_leaves_unchanged():
    # a node with no variable the mapping names comes back as itself, a
    # clause under the identity renaming too, and every result equals the
    # clause rebuilt node by node
    rng, frames, pick = random.Random(1), random.Random(2), random.Random(23)
    programs = ([load(name) for name in corpus_names()]
                + [random_program(rng) for _ in range(300)]
                + [frame_program(frames) for _ in range(100)])
    shared = rebuilt = 0
    for clause in (c for prog in programs for c in prog.clauses):
        names = clause.vars()
        assert clause.subst({n: Var(n) for n in names}) is clause
        mapping = {}
        for n in names:
            roll = pick.random()
            if roll < 0.2:
                mapping[n] = Var(pick.choice(names + ["F1", "F2"]))
            elif roll < 0.3:
                mapping[n] = Const(pick.randint(-3, 3))
        out = clause.subst(mapping)
        assert out == subst_rebuilt(clause, mapping), (clause, mapping)
        for (old, held), (new, _) in zip(_nodes(clause), _nodes(out)):
            if held & mapping.keys():
                rebuilt += new is not old
            else:
                assert new is old, (clause, mapping, old)
                shared += 1
    assert shared > 10_000 and rebuilt > 5_000


def test_nodes_keep_their_api():
    clause = clause_of("p(X,3) :- X=<Y+1, q(Y).")
    assert repr(Var("X")) == "Var(name='X')"
    assert repr(clause) == (
        "Clause(head=Atom(pred='p', args=(Var(name='X'), Const(value=3))), "
        "constraint=Constraint(conjuncts=(RelCon(rel='=<', "
        "lhs=LinExpr(terms=(('X', 1),), const=0), "
        "rhs=LinExpr(terms=(('Y', 1),), const=1)),)), "
        "body=(Atom(pred='q', args=(Var(name='Y'),)),))")
    assert repr(ArrayCon("read", (Var("A"), Const(0), Var("V")))) == (
        "ArrayCon(kind='read', args=(Var(name='A'), Const(value=0), Var(name='V')))")
    # immutable
    for node, name in [(Var("X"), "name"), (Const(3), "value"),
                       (LinExpr(), "terms"), (clause.constraint.conjuncts[0], "rel"),
                       (ArrayCon("read", ()), "kind"), (clause.constraint, "conjuncts"),
                       (clause.head, "args"), (clause, "body")]:
        with pytest.raises(AttributeError):
            setattr(node, name, None)
    # defaults
    assert Clause(Atom("p")) == Clause(Atom("p", ()), Constraint(()), ())
    assert (LinExpr().terms, LinExpr().const) == ((), 0)
    # equal nodes hash equal
    again = clause_of("p(X,3) :- X=<Y+1, q(Y).")
    for (a, _), (b, _) in zip(_nodes(clause), _nodes(again)):
        assert a == b and a is not b and hash(a) == hash(b)
    assert len({clause, again}) == 1


def test_relcon_holds_for():
    c = RelCon("=<", LinExpr.make([("X", 1)]), LinExpr.make((), 4))
    assert holds(c, {"X": 4})
    assert not holds(c, {"X": 5})


def test_clause_vars_in_first_occurrence_order():
    clause = clause_of("p(B,A) :- C=B+1, q(C,A).")
    assert clause.vars() == ["B", "A", "C"]


def test_rename_apart_avoids_taken_names():
    clause = clause_of("p(X,Y) :- X>=1, q(Y).")
    renaming = rename_apart(clause, {"X", "Y"})
    assert set(renaming) == {"X", "Y"}
    assert not ({v.name for v in renaming.values()} & {"X", "Y"})
    renamed = clause.subst(renaming)
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


def _atom(*args):
    return Atom("p", tuple(Const(t) if isinstance(t, int) else Var(t)
                           for t in args))


def test_mgu_atoms_chains_variables():
    a = _atom("X", "X")
    b = _atom("Y", 2)
    theta = mgu_atoms(a, b)
    assert a.subst(theta) == b.subst(theta) == _atom(2, 2)
    # a variable of the first atom is bound to the second's, so the second
    # atom's variables name the classes
    assert mgu_atoms(_atom("X", "Y", "Z"), _atom("A", "A", "B")) == {
        "X": Var("A"), "Y": Var("A"), "Z": Var("B")}
    assert mgu_atoms(_atom("X", "Y", "X"), _atom("Z", "Z", 3)) == {
        "X": Const(3), "Y": Const(3), "Z": Const(3)}
    assert mgu_atoms(_atom("X", "X", 1), _atom("Y", 2, "Y")) is None
    assert mgu_atoms(_atom("X", "Y"), _atom("Y", "X")) == {"X": Var("Y")}


def test_mgu_atoms_is_a_most_general_idempotent_unifier():
    # a grounding that equates the atoms exists iff a unifier is returned,
    # and then every such grounding is an instance of the unifier
    rng = random.Random(2718)
    terms = ["X", "Y", "Z", "W", 0, 1]
    for _ in range(400):
        a = _atom(*rng.choices(terms, k=3))
        b = _atom(*rng.choices(terms, k=3))
        theta = mgu_atoms(a, b)
        variables = sorted(a.vars() | b.vars())
        groundings = [dict(zip(variables, map(Const, values))) for values
                      in itertools.product(range(4), repeat=len(variables))]
        unifying = [g for g in groundings if a.subst(g) == b.subst(g)]
        if theta is None:
            assert not unifying, (a, b)
            continue
        assert a.subst(theta) == b.subst(theta), (a, b, theta)
        assert all(not (isinstance(t, Var) and t.name in theta)
                   for t in theta.values()), theta
        for g in unifying:
            for n in variables:
                t = theta.get(n, Var(n))
                assert (g[t.name] if isinstance(t, Var) else t) == g[n]


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


def test_productive_clauses_is_a_least_fixpoint():
    # p and q only call each other and r has no clauses, so every clause
    # reaching them goes; s is productive through its fact, in any order
    prog = parse_program("unsafe :- p(X).\n"
                         "p(X) :- q(X).\n"
                         "q(X) :- p(X).\n"
                         "unsafe :- s(X), s(Y), X>Y.\n"
                         "s(X) :- s(Y), X=Y+1.\n"
                         "t(X) :- r(X), s(X).\n"
                         "s(X) :- X=0.")
    kept = productive_clauses(prog.clauses)
    assert [str(c) for c in kept] == ["unsafe :- X>Y, s(X), s(Y).",
                                      "s(X) :- X=Y+1, s(Y).",
                                      "s(X) :- X=0."]
    assert productive_clauses(kept) == kept


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
