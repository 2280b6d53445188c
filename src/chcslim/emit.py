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

# The SMT-LIB 2.6 reserved words (section 3.1) a clause program can spell,
# every command name among them, and the core and array function names
_SMT_RESERVED = {
    "let", "forall", "exists", "match", "par", "as", "NUMERAL", "DECIMAL",
    "STRING", "BINARY", "HEXADECIMAL", "assert", "push", "pop", "exit",
    "echo", "reset", "and", "or", "not", "xor", "ite", "true", "false",
    "select", "store", "distinct",
}


def _smt_symbol(name: str) -> str:
    if name in _SMT_RESERVED or not _SIMPLE_SYMBOL_RE.match(name):
        return f"|{name}|"
    return name


def _smt_int(value: int) -> str:
    return str(value) if value >= 0 else f"(- {-value})"


def _smt_linexpr(expr: LinExpr, symbols: dict[str, str]) -> str:
    pieces = []
    for name, coeff in expr.terms:
        sym = symbols[name]
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


def _smt_term(term: Term, symbols: dict[str, str]) -> str:
    return symbols[term.name] if isinstance(term, Var) else _smt_int(term.value)


def _smt_atom(atom: Atom, preds: dict[str, str], symbols: dict[str, str]) -> str:
    if not atom.args:
        return preds[atom.pred]
    args = " ".join([_smt_term(t, symbols) for t in atom.args])
    return f"({preds[atom.pred]} {args})"


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
    for i, clause in enumerate(program.clauses):
        for con in clause.constraint.conjuncts:
            if isinstance(con, ArrayCon):
                for k in ((0, 3) if con.kind == "write" else (0,)):
                    t = con.args[k]
                    if not isinstance(t, Var):
                        raise SmtEmitError(f"array argument of {con.kind} must be "
                                           f"a variable", i)
                    seeds.append((i, t.name))
    if not seeds:
        return set(), set()
    links: dict[tuple, list[tuple]] = {}
    for i, clause in enumerate(program.clauses):
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
    and must not conflict.  Each predicate's symbol is computed once per
    program, each variable's once per clause.
    """
    array_vars, array_positions = _array_sorted(program)
    if array_vars:  # no array-sorted variable or position is used as an integer
        for i, clause in enumerate(program.clauses):
            names = {n for (j, n) in array_vars if j == i}
            for name in names:
                if _var_constrained_arith(clause, name):
                    raise SmtEmitError(f"array variable {name} used in "
                                       "arithmetic", i)
            for con in clause.constraint.conjuncts:
                if isinstance(con, ArrayCon):
                    for t in (con.args[1], con.args[2]):
                        if isinstance(t, Var) and t.name in names:
                            raise SmtEmitError(f"array variable {t.name} used "
                                               f"as an integer in {con.kind}", i)
            for atom in (clause.head, *clause.body):
                for k, t in enumerate(atom.args):
                    if isinstance(t, Const) and (atom.pred, k) in array_positions:
                        raise SmtEmitError("integer constant at array-sorted "
                                           f"position {k + 1} of {atom.pred}", i)

    preds = {pred: _smt_symbol(pred) for pred in program.arities}
    lines = ["(set-logic HORN)"]
    for pred, arity in program.arities.items():
        if pred != QUERY:
            sig = ["(Array Int Int)" if (pred, k) in array_positions else "Int"
                   for k in range(arity)]
            lines.append(f"(declare-fun {preds[pred]} ({' '.join(sig)}) Bool)")
    for i, clause in enumerate(program.clauses):
        lines.append(_emit_clause(clause, preds, array_vars, i))
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"


def _var_constrained_arith(clause: Clause, name: str) -> bool:
    for con in clause.constraint.conjuncts:
        if isinstance(con, RelCon) and name in con.vars():
            return True
    return False


def _emit_clause(clause: Clause, preds: dict[str, str],
                 array_vars: set[tuple[int, str]], index: int) -> str:
    names = clause.vars()
    symbols = {name: _smt_symbol(name) for name in names}

    parts: list[str] = []
    for con in clause.constraint.conjuncts:
        if isinstance(con, RelCon):
            parts.append(f"({_SMT_REL[con.rel]} {_smt_linexpr(con.lhs, symbols)} "
                         f"{_smt_linexpr(con.rhs, symbols)})")
        elif con.kind == "read":
            a, i, v = (_smt_term(t, symbols) for t in con.args)
            parts.append(f"(= (select {a} {i}) {v})")
        else:
            a, i, v, b = (_smt_term(t, symbols) for t in con.args)
            parts.append(f"(= {b} (store {a} {i} {v}))")
    parts.extend(_smt_atom(a, preds, symbols) for a in clause.body)

    head = "false" if clause.head.pred == QUERY else _smt_atom(clause.head, preds,
                                                               symbols)
    if parts:
        core = f"(=> {_conjoin(parts)} {head})"
    else:
        core = head
    binders = " ".join([f"({symbols[n]} "
                        f"{'(Array Int Int)' if (index, n) in array_vars else 'Int'})"
                        for n in names])
    if binders:
        return f"(assert (forall ({binders}) {core}))"
    return f"(assert {core})"
