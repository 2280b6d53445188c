"""Independent reference implementations used only by the tests.

Everything here is deliberately brute force: exhaustive search over small
integer boxes, a naive fixpoint and a clause-by-clause comparison of
programs up to renaming, sharing no code with the package's algorithms
beyond the AST types.
"""

from __future__ import annotations

import itertools

from chcslim.syntax import (QUERY, ArrayCon, Atom, Clause, Const, Constraint,
                            LinExpr, Program, RelCon, Term, Var)

SAT_BOX = 32
FORALL_BOX = 16


class SearchBudgetExceeded(Exception):
    pass


def holds(con: RelCon, env: dict[str, int]) -> bool:
    """Whether ``con`` is true under ``env``, which binds its variables."""
    a, b = (e.const + sum(k * env[n] for n, k in e.terms)
            for e in (con.lhs, con.rhs))
    return {"=": a == b, "<": a < b, "=<": a <= b, ">": a > b, ">=": a >= b}[con.rel]


def programs_isomorphic(p: Program, q: Program) -> bool:
    """Clause-by-clause match under a predicate renaming plus per-clause
    variable renamings.  Clause order is significant; the predicate renaming
    is fixed incrementally by first use and must stay bijective."""
    if len(p.clauses) != len(q.clauses):
        return False
    fwd: dict[str, str] = {QUERY: QUERY}
    bwd: dict[str, str] = {QUERY: QUERY}
    for cp, cq in zip(p.clauses, q.clauses):
        for ap, aq in zip((cp.head, *cp.body), (cq.head, *cq.body)):
            if fwd.setdefault(ap.pred, aq.pred) != aq.pred:
                return False
            if bwd.setdefault(aq.pred, ap.pred) != ap.pred:
                return False
        if _canonical_clause(cp, fwd) != _canonical_clause(cq):
            return False
    return True


def _canonical_clause(clause: Clause, pred_map: "dict[str, str] | None" = None) -> tuple:
    numbering: dict[str, int] = {}

    def num(name: str) -> int:
        return numbering.setdefault(name, len(numbering))

    def canon_term(t: Term):
        return ("c", t.value) if isinstance(t, Const) else ("v", num(t.name))

    def canon_expr(e: LinExpr):
        return (tuple((num(n), c) for n, c in e.terms), e.const)

    def canon_atom(a: Atom):
        pred = pred_map.get(a.pred, a.pred) if pred_map else a.pred
        return (pred, tuple(canon_term(t) for t in a.args))

    head = canon_atom(clause.head)
    cons = []
    for con in clause.constraint.conjuncts:
        if isinstance(con, RelCon):
            cons.append((con.rel, canon_expr(con.lhs), canon_expr(con.rhs)))
        else:
            cons.append((con.kind, tuple(canon_term(t) for t in con.args)))
    return (head, tuple(cons), tuple(canon_atom(a) for a in clause.body))


def subst_rebuilt(clause: Clause, mapping: "dict[str, Term]") -> Clause:
    """``clause`` with each variable named in ``mapping`` replaced by its
    image, every node built anew; in each linear expression the coefficients
    of one variable are summed, zeros dropped, in first-occurrence order."""
    def term(t: Term) -> Term:
        return mapping.get(t.name, t) if isinstance(t, Var) else t

    def expr(e: LinExpr) -> LinExpr:
        coeffs: dict[str, int] = {}
        const = e.const
        for name, k in e.terms:
            image = term(Var(name))
            if isinstance(image, Const):
                const += k * image.value
            else:
                coeffs[image.name] = coeffs.get(image.name, 0) + k
        return LinExpr(tuple((n, k) for n, k in coeffs.items() if k), const)

    def atom(a: Atom) -> Atom:
        return Atom(a.pred, tuple(map(term, a.args)))

    cons = tuple(RelCon(c.rel, expr(c.lhs), expr(c.rhs)) if isinstance(c, RelCon)
                 else ArrayCon(c.kind, tuple(map(term, c.args)))
                 for c in clause.constraint.conjuncts)
    return Clause(atom(clause.head), Constraint(cons), tuple(map(atom, clause.body)))


def box_satisfiable(con: Constraint, box: int = SAT_BOX, *,
                    node_budget: int = 5_000_000) -> bool:
    """Exhaustive satisfiability of a conjunction over [-box, box].

    Connected components share no variables, so they are searched one at
    a time instead of as a cross product.
    """
    conjuncts = list(con.conjuncts)
    if any(not isinstance(c, RelCon) for c in conjuncts):
        raise ValueError("array constraints are not searchable")
    for group in _components(conjuncts):
        if not _component_satisfiable(group, box, node_budget):
            return False
    return True


def _components(conjuncts: list) -> list[list]:
    parent: dict[str, str] = {}

    def find(a: str) -> str:
        while parent.setdefault(a, a) != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for c in conjuncts:
        names = sorted(c.vars())
        for other in names[1:]:
            parent[find(names[0])] = find(other)
    groups: dict[str, list] = {}
    ground: list = []
    for c in conjuncts:
        names = sorted(c.vars())
        if not names:
            ground.append(c)
        else:
            groups.setdefault(find(names[0]), []).append(c)
    out = [[c] for c in ground]
    out.extend(groups.values())
    return out


def _component_satisfiable(conjuncts: list, box: int, node_budget: int) -> bool:
    order = _search_order(conjuncts)
    state = {"nodes": 0}

    def closed_ok(env: dict, pending: list) -> "list | None":
        rest = []
        for c in pending:
            if c.vars() <= env.keys():
                if not holds(c, env):
                    return None
            else:
                rest.append(c)
        return rest

    def search(i: int, env: dict, pending: list) -> bool:
        if i == len(order):
            return not pending
        name = order[i]
        for value in range(-box, box + 1):
            state["nodes"] += 1
            if state["nodes"] > node_budget:
                raise SearchBudgetExceeded
            env[name] = value
            rest = closed_ok(env, pending)
            if rest is not None and search(i + 1, env, rest):
                return True
            del env[name]
        return False

    initial = closed_ok({}, conjuncts)
    if initial is None:
        return False
    return search(0, {}, initial)


def _search_order(conjuncts: list) -> list[str]:
    """Variable order that closes conjuncts as early as possible."""
    remaining = {name for c in conjuncts for name in c.vars()}
    order: list[str] = []
    while remaining:
        def closure_score(name: str) -> tuple[int, int, str]:
            chosen = set(order) | {name}
            closed = sum(1 for c in conjuncts if c.vars() <= chosen)
            touched = sum(1 for c in conjuncts if name in c.vars())
            return (-closed, -touched, name)
        best = min(remaining, key=closure_score)
        order.append(best)
        remaining.remove(best)
    return order


def box_forall_exists(x: str, con: Constraint, *,
                      forall_box: int = FORALL_BOX,
                      exists_box: int = SAT_BOX) -> bool:
    """Exhaustive check of (for all x)(exists rest). con over the boxes."""
    for value in range(-forall_box, forall_box + 1):
        grounded = con.subst({x: Const(value)})
        if not box_satisfiable(grounded, exists_box):
            return False
    return True


def naive_bounded_model(prog: Program, bound: int) -> dict[str, set[tuple[int, ...]]]:
    """Naive fixpoint by full enumeration; usable only on micro programs.

    Variables bound by matching a body atom against an existing fact take
    that fact's values even outside the box; every remaining variable
    ranges over the box.  This mirrors the evaluator's derivation space.
    """
    facts: dict[str, set[tuple[int, ...]]] = {p: set() for p in prog.arities}
    domain = range(-bound, bound + 1)
    changed = True
    while changed:
        changed = False
        for clause in prog.clauses:
            for env in _atom_matches(clause.body, facts, {}):
                free = [n for n in clause.vars() if n not in env]
                for values in itertools.product(domain, repeat=len(free)):
                    full = {**env, **dict(zip(free, values))}
                    if not all(holds(c, full)
                               for c in clause.constraint.conjuncts):
                        continue
                    fact = _ground_atom(clause.head, full)
                    if fact not in facts[clause.head.pred]:
                        facts[clause.head.pred].add(fact)
                        changed = True
    return facts


def _atom_matches(body, facts, env):
    """All extensions of ``env`` grounding every body atom to a known fact."""
    if not body:
        yield dict(env)
        return
    atom, rest = body[0], body[1:]
    for fact in list(facts[atom.pred]):
        attempt = dict(env)
        for t, v in zip(atom.args, fact):
            if isinstance(t, Const):
                if t.value != v:
                    break
            elif attempt.setdefault(t.name, v) != v:
                break
        else:
            yield from _atom_matches(rest, facts, attempt)


def _ground_atom(atom, env) -> tuple[int, ...]:
    return tuple(t.value if isinstance(t, Const) else env[t.name]
                 for t in atom.args)