"""Printers: .clp round-trip text and SMT-LIB 2 HORN documents."""

from __future__ import annotations

import re

from .syntax import (QUERY, ArrayCon, Atom, Clause, Const, LinExpr, Program,
                     RelCon, Term, Var)


class SmtEmitError(Exception):
    def __init__(self, message: str, clause_index: int):
        super().__init__(f"clause {clause_index}: {message}")


def emit_clp(program: Program) -> str:
    """Render a program in the concrete clause syntax.

    Parsing the result yields a program structurally identical to the input
    (same clause list; variable names are preserved verbatim).
    """
    if not program.clauses:
        return ""
    return "\n".join(str(c) for c in program.clauses) + "\n"


_SMT_REL = {"=": "=", "<": "<", "=<": "<=", ">": ">", ">=": ">="}

_SIMPLE_SYMBOL_RE = re.compile(r"^[A-Za-z_~!@$%^&*+=<>.?/-][A-Za-z0-9_~!@$%^&*+=<>.?/-]*$")

_SMT_RESERVED = {
    "let", "forall", "exists", "match", "par", "assert", "and", "or", "not",
    "xor", "ite", "true", "false", "select", "store", "as", "distinct",
}


def _smt_symbol(name: str) -> str:
    if name in _SMT_RESERVED or not _SIMPLE_SYMBOL_RE.match(name):
        return f"|{name}|"
    return name


def _smt_int(value: int) -> str:
    return str(value) if value >= 0 else f"(- {-value})"


def _smt_linexpr(expr: LinExpr) -> str:
    pieces = []
    for name, coeff in expr.terms:
        sym = _smt_symbol(name)
        if coeff == 1:
            pieces.append(sym)
        elif coeff == -1:
            pieces.append(f"(- {sym})")
        else:
            pieces.append(f"(* {_smt_int(coeff)} {sym})")
    if expr.const != 0 or not pieces:
        pieces.append(_smt_int(expr.const))
    if len(pieces) == 1:
        return pieces[0]
    return f"(+ {' '.join(pieces)})"


def _smt_term(term: Term) -> str:
    return _smt_symbol(term.name) if isinstance(term, Var) else _smt_int(term.value)


def _smt_atom(atom: Atom) -> str:
    if not atom.args:
        return _smt_symbol(atom.pred)
    return f"({_smt_symbol(atom.pred)} {' '.join(_smt_term(t) for t in atom.args)})"


def _conjoin(parts: list[str]) -> str:
    if not parts:
        return "true"
    if len(parts) == 1:
        return parts[0]
    return f"(and {' '.join(parts)})"


def _array_sorted(program: Program) -> tuple[set[tuple[int, str]],
                                               set[tuple[str, int]]]:
    """Array-sorted (clause index, variable) pairs and (predicate, position)
    pairs.  Argument 1 of read/write and argument 4 of write are arrays, and
    the sort flows both ways between a variable and every predicate
    position it fills, through any number of clauses."""
    seeds: list[tuple] = []
    links: dict[tuple, list[tuple]] = {}
    for i, clause in enumerate(program.clauses):
        for con in clause.constraint.conjuncts:
            if isinstance(con, ArrayCon):
                for k in ((0, 3) if con.kind == "write" else (0,)):
                    t = con.args[k]
                    if not isinstance(t, Var):
                        raise SmtEmitError(f"array argument of {con.kind} must be "
                                           f"a variable", i)
                    seeds.append((i, t.name))
        for atom in (clause.head, *clause.body):
            for k, t in enumerate(atom.args):
                if isinstance(t, Var):
                    links.setdefault((i, t.name), []).append((atom.pred, k))
                    links.setdefault((atom.pred, k), []).append((i, t.name))
    reached = set(seeds)
    while seeds:
        for node in links.get(seeds.pop(), ()):
            if node not in reached:
                reached.add(node)
                seeds.append(node)
    variables = {n for n in reached if isinstance(n[0], int)}
    return variables, reached - variables


def emit_smtlib_horn(program: Program) -> str:
    """Emit an SMT-LIB 2 document in the HORN fragment.

    Every non-query predicate is declared over integer sorts; each clause
    becomes a universally quantified implication and query clauses imply
    ``false``, so the clause set is satisfiable iff the program is safe.
    Read/write pseudo-constraints become select/store equations over
    ``(Array Int Int)`` variables; predicate argument sorts are inferred
    and must not conflict.
    """
    array_vars, array_positions = _array_sorted(program)
    for i, clause in enumerate(program.clauses):
        names = {n for (j, n) in array_vars if j == i}
        for name in names:
            if _var_constrained_arith(clause, name):
                raise SmtEmitError(f"array variable {name} used in arithmetic", i)
        for con in clause.constraint.conjuncts:
            if isinstance(con, ArrayCon):
                for t in (con.args[1], con.args[2]):
                    if isinstance(t, Var) and t.name in names:
                        raise SmtEmitError(f"array variable {t.name} used as an "
                                           f"integer in {con.kind}", i)
        for atom in (clause.head, *clause.body):
            for k, t in enumerate(atom.args):
                if isinstance(t, Const) and (atom.pred, k) in array_positions:
                    raise SmtEmitError(f"integer constant at array-sorted position "
                                       f"{k + 1} of {atom.pred}", i)

    lines = ["(set-logic HORN)"]
    for pred in program.arities:
        if pred != QUERY:
            sig = ["(Array Int Int)" if (pred, k) in array_positions else "Int"
                   for k in range(program.arities[pred])]
            lines.append(f"(declare-fun {_smt_symbol(pred)} ({' '.join(sig)}) Bool)")
    for i, clause in enumerate(program.clauses):
        lines.append(_emit_clause(clause, array_vars, i))
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"


def _var_constrained_arith(clause: Clause, name: str) -> bool:
    for con in clause.constraint.conjuncts:
        if isinstance(con, RelCon) and name in con.vars():
            return True
    return False


def _emit_clause(clause: Clause, array_vars: set[tuple[int, str]],
                 index: int) -> str:
    var_sorts = {name: "(Array Int Int)" if (index, name) in array_vars else "Int"
                 for name in clause.vars()}

    parts: list[str] = []
    for con in clause.constraint.conjuncts:
        if isinstance(con, RelCon):
            parts.append(f"({_SMT_REL[con.rel]} {_smt_linexpr(con.lhs)} "
                         f"{_smt_linexpr(con.rhs)})")
        elif con.kind == "read":
            a, i, v = (_smt_term(t) for t in con.args)
            parts.append(f"(= (select {a} {i}) {v})")
        else:
            a, i, v, b = (_smt_term(t) for t in con.args)
            parts.append(f"(= {b} (store {a} {i} {v}))")
    parts.extend(_smt_atom(a) for a in clause.body)

    head = "false" if clause.head.pred == QUERY else _smt_atom(clause.head)
    if parts:
        core = f"(=> {_conjoin(parts)} {head})"
    else:
        core = head
    binders = " ".join(f"({_smt_symbol(n)} {s})" for n, s in var_sorts.items())
    if binders:
        return f"(assert (forall ({binders}) {core}))"
    return f"(assert {core})"
