"""Seeded random generators for the property suites, and the builders
the tests write their clauses and constraints with.

The shapes are tuned so that exhaustive box search (for constraints) and
bounded evaluation at bound 32 (for programs) stay cheap and exact:
conjuncts touch at most two variables, constants stay small, and every
clause variable is either pinned by a narrow interval, bound by a body
atom, or deliberately left free as erasable-argument fodder.
"""

from __future__ import annotations

import random

from chcslim.parser import parse_program
from chcslim.syntax import (Atom, Clause, Const, Constraint, LinExpr,
                            Program, RelCon, Var)

RELS = ("=", "<", "=<", ">", ">=")


def clause_of(text: str) -> Clause:
    """The one clause of ``text``, parsed as a program."""
    (clause,) = parse_program(text).clauses
    return clause


def constraint_of(text: str) -> Constraint:
    """A comma-separated conjunction such as ``"Z1=X1+1, Z1=<9"``, parsed
    as the body of a nullary clause."""
    return clause_of(f"p :- {text}.").constraint


def _v(name: str) -> LinExpr:
    return LinExpr(((name, 1),))


def _n(value: int) -> LinExpr:
    return LinExpr((), value)


def random_constraint(rng: random.Random, *, max_vars: int = 5,
                      max_conjuncts: int = 4, unit: bool = True) -> Constraint:
    """Conjunction with at most two variables per conjunct."""
    const_bound = 8 if unit else 4
    if not unit:
        max_conjuncts = min(max_conjuncts, 2)
    nvars = rng.randint(1, max_vars)
    names = [f"V{i}" for i in range(nvars)]
    conjuncts = []
    for index in range(rng.randint(1, max_conjuncts)):
        k = rng.randint(1, min(2, nvars))
        chosen = rng.sample(names, k)
        terms = []
        for v in chosen:
            if unit:
                coeff = rng.choice((1, -1))
            else:
                coeff = rng.choice((1, -1, 2, -2))
            terms.append((v, coeff))
        if not unit and index == 0:
            terms[0] = (terms[0][0], rng.choice((2, -2)))
        constant = rng.randint(-const_bound, const_bound)
        if k == 2 and rng.random() < 0.5:
            lhs = LinExpr.make(terms[:1])
            rhs = LinExpr.make([(terms[1][0], -terms[1][1])], constant)
        else:
            lhs = LinExpr.make(terms)
            rhs = LinExpr.make((), constant)
        conjuncts.append(RelCon(rng.choice(RELS), lhs, rhs))
    return Constraint(tuple(conjuncts))


def wide_constraint(rng: random.Random, *, max_vars: int = 5,
                    max_conjuncts: int = 6) -> Constraint:
    """Conjunction with up to three variables per conjunct, coefficients
    in {1, -1, 2, -2, 3} and about a third of the relations ``=``: the
    shapes in which chained equalities meet non-unit coefficients."""
    names = [f"V{i}" for i in range(rng.randint(1, max_vars))]
    conjuncts = []
    for _ in range(rng.randint(1, max_conjuncts)):
        chosen = rng.sample(names, rng.randint(1, min(3, len(names))))
        terms = [(v, rng.choice((1, -1, 2, -2, 3))) for v in chosen]
        split = rng.randint(1, len(terms))
        lhs = LinExpr.make(terms[:split])
        rhs = LinExpr.make([(v, -k) for v, k in terms[split:]],
                           rng.randint(-6, 6))
        rel = "=" if rng.random() < 1 / 3 else rng.choice(RELS[1:])
        conjuncts.append(RelCon(rel, lhs, rhs))
    return Constraint(tuple(conjuncts))


def random_forall_instance(rng: random.Random, *,
                           unit: bool = True) -> tuple[str, Constraint]:
    """A (variable, constraint) pair for the universal-existential check.

    Constants are kept to [-4, 4] and non-unit coefficients never land on
    the universal variable (and appear in single-conjunct instances only),
    so a witness for the remaining variables never needs to leave
    [-32, 32] while the universal variable ranges over [-16, 16].
    """
    if unit:
        con = random_constraint(rng, max_conjuncts=4, unit=True)
        scaled = []
        for c in con.conjuncts:
            lhs = LinExpr(c.lhs.terms, _clamp(c.lhs.const))
            rhs = LinExpr(c.rhs.terms, _clamp(c.rhs.const))
            scaled.append(RelCon(c.rel, lhs, rhs))
        return "V0", Constraint(tuple(scaled))
    other = rng.choice(("V1", "V2"))
    terms = [(other, rng.choice((2, -2)))]
    if rng.random() < 0.8:
        terms.append(("V0", rng.choice((1, -1))))
    lhs = LinExpr.make(terms)
    rhs = LinExpr.make((), rng.randint(-4, 4))
    return "V0", Constraint((RelCon(rng.choice(RELS), lhs, rhs),))


def _clamp(value: int) -> int:
    return max(-4, min(4, value))


def random_program(rng: random.Random) -> Program:
    """Clause program in the acceptance-suite shape: at most 6 predicates
    (including the query), arity at most 5, at most 3 clauses per
    predicate, unit coefficients, constants in [-8, 8]."""
    npreds = rng.randint(2, 5)
    preds = [f"p{i}" for i in range(npreds)]
    arities = {p: rng.randint(1, 5) for p in preds}
    loose = rng.random() < 0.5
    dead: tuple[str, int] | None = None
    if loose:
        pred = rng.choice(preds)
        dead = (pred, rng.randint(1, arities[pred]))

    clauses = []
    for i, p in enumerate(preds):
        dead_pos = dead[1] if dead and dead[0] == p else None
        clauses.append(_base_clause(rng, p, arities[p], dead_pos))
        if rng.random() < 0.75:
            clauses.append(_step_clause(rng, p, arities[p], dead_pos))
        if i + 1 < npreds and rng.random() < 0.8:
            callee = preds[i + 1]
            clauses.append(_call_clause(rng, p, arities[p], callee,
                                        arities[callee], dead_pos))
    clauses.insert(0, _query_clause(rng, preds[0], arities[preds[0]]))
    return Program(tuple(clauses))


def _base_clause(rng, pred, arity, dead_pos) -> Clause:
    args: list = []
    cons: list[RelCon] = []
    seen_vars: list[Var] = []
    ranged = 0
    for k in range(1, arity + 1):
        if k == dead_pos:
            args.append(Var(f"D{k}"))
            continue
        roll = rng.random()
        if roll < 0.25 and seen_vars:
            args.append(rng.choice(seen_vars))
        elif roll < 0.6 and ranged < 1:
            v = Var(f"B{k}")
            lo = rng.randint(-6, 3)
            cons.append(RelCon(">=", _v(v.name), _n(lo)))
            cons.append(RelCon("=<", _v(v.name), _n(lo + rng.randint(0, 3))))
            args.append(v)
            seen_vars.append(v)
            ranged += 1
        elif roll < 0.8:
            v = Var(f"B{k}")
            cons.append(RelCon("=", _v(v.name), _n(rng.randint(-6, 6))))
            args.append(v)
            seen_vars.append(v)
        else:
            args.append(Const(rng.randint(-6, 6)))
    return Clause(Atom(pred, tuple(args)), Constraint(tuple(cons)), ())


def _step_clause(rng, pred, arity, dead_pos) -> Clause:
    """Self-recursive clause stepping one counter position up to a cap."""
    body_vars = [Var(f"X{k}") for k in range(1, arity + 1)]
    counter = rng.randint(1, arity)
    while counter == dead_pos and arity > 1:
        counter = rng.randint(1, arity)
    head_args: list = []
    cons: list[RelCon] = []
    out = Var("Y")
    for k in range(1, arity + 1):
        if k == counter and k != dead_pos:
            step = rng.choice((1, 2))
            cap = rng.randint(2, 8)
            cons.append(RelCon("=", _v(out.name),
                               LinExpr.make([(body_vars[k - 1].name, 1)], step)))
            cons.append(RelCon("=<", _v(out.name), _n(cap)))
            head_args.append(out)
        elif rng.random() < 0.15:
            head_args.append(Const(rng.randint(-6, 6)))
        else:
            head_args.append(body_vars[k - 1])
    return Clause(Atom(pred, tuple(head_args)), Constraint(tuple(cons)),
                  (Atom(pred, tuple(body_vars)),))


def _call_clause(rng, pred, arity, callee, callee_arity, dead_pos) -> Clause:
    body_vars = [Var(f"Z{k}") for k in range(1, callee_arity + 1)]
    # a couple of extra body variables occur nowhere else on purpose
    head_args: list = []
    for k in range(1, arity + 1):
        if k == dead_pos or rng.random() < 0.7:
            head_args.append(rng.choice(body_vars))
        else:
            head_args.append(Const(rng.randint(-6, 6)))
    if dead_pos is not None:
        head_args[dead_pos - 1] = rng.choice(body_vars)
    cons: list[RelCon] = []
    if rng.random() < 0.4:
        pivot = rng.choice(body_vars)
        cons.append(RelCon(rng.choice(("=<", ">=")), _v(pivot.name),
                           _n(rng.randint(-8, 8))))
    return Clause(Atom(pred, tuple(head_args)), Constraint(tuple(cons)),
                  (Atom(callee, tuple(body_vars)),))


def _query_clause(rng, pred, arity) -> Clause:
    body_vars = [Var(f"Q{k}") for k in range(1, arity + 1)]
    cons: list[RelCon] = []
    for v in rng.sample(body_vars, rng.randint(0, min(2, arity))):
        cons.append(RelCon(rng.choice(("=<", ">=", "=")), _v(v.name),
                           _n(rng.randint(-8, 8))))
    return Clause(Atom("unsafe", ()), Constraint(tuple(cons)),
                  (Atom(pred, tuple(body_vars)),))


# closed parts over a step's own local variables, by the oracle's answer
DEAD_PARTS = {
    "holds": ("Z{i}>=0, Z{i}=<2", "Z{i}=W{i}+1, W{i}>=0, W{i}=<1"),
    "fails": ("Z{i}>=1, Z{i}=<0",),
    "unknown": ("2*Z{i}=7",),
}


def frame_program(rng: random.Random) -> Program:
    """Translator-shaped chain ``p0 -> p1 -> ... -> pD`` threading a frame
    of 2 to 4 positions, for the model-level cfar suite.

    Position 1 starts in a small box and each step updates it through a
    clause-local equality chain ``T0=X1, T1=..., Y1=Tn`` (copies, shifts
    and negations) with a guard on a middle link; the other positions are
    pinned at the start and copied or shifted at every step.  A step may
    carry a dead part over its own local variables whose satisfiability
    holds, fails or is beyond the oracle (``2*Z=7``), or a one-sided local
    variable.  A link changes the size of position 1 by at most one, so most
    programs evaluate exactly at bound 8; a long run of links, a one-sided
    variable or a frame position left free (which cfar erases) makes them
    clip.
    """
    width = rng.randint(2, 4)
    depth = rng.randint(1, 3)
    xs = [f"X{j}" for j in range(1, width + 1)]
    ys = [f"Y{j}" for j in range(1, width + 1)]
    start = ["X1>=0", f"X1=<{rng.randint(0, 2)}"]
    start += [f"X{j}={rng.randint(-3, 3)}" for j in range(2, width + 1)
              if rng.random() < 0.85]
    lines = [f"p0({','.join(xs)}) :- {', '.join(start)}."]
    for i in range(depth):
        steps = rng.randint(1, 5)
        cons = ["T0=X1"]
        for k in range(1, steps + 1):
            shift = rng.randint(-1, 1)
            link = f"-T{k - 1}" if rng.random() < 0.3 else f"T{k - 1}"
            cons.append(f"T{k}={link}{shift:+d}" if shift else f"T{k}={link}")
            if k == (steps + 1) // 2:
                cons.append(f"T{k}{rng.choice(('=<', '>='))}{rng.randint(-2, 4)}")
        cons.append(f"Y1=T{steps}")
        for j in range(2, width + 1):
            shift = rng.choice((0, 0, 0, -1, 1))
            cons.append(f"Y{j}=X{j}{shift:+d}" if shift else f"Y{j}=X{j}")
        roll = rng.random()
        if roll < 0.6:
            answer = rng.choice(("holds", "holds", "fails", "unknown"))
            cons.append(rng.choice(DEAD_PARTS[answer]).format(i=i))
        elif roll < 0.7:
            cons.append(f"V{i}>=X{rng.randint(1, width)}")
        rng.shuffle(cons)
        lines.append(f"p{i + 1}({','.join(ys)}) :- {', '.join(cons)}, "
                     f"p{i}({','.join(xs)}).")
    lines.append(f"unsafe :- X1>={rng.randint(-2, 5)}, p{depth}({','.join(xs)}).")
    return parse_program("\n".join(lines))
