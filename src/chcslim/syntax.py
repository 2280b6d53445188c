"""Abstract syntax for constrained Horn clause programs.

A program is a list of clauses ``H :- c, A1, ..., An`` where H and the Ai are
atoms over integer-valued terms and c is a conjunction of linear arithmetic
constraints (plus opaque array pseudo-constraints).  The distinguished query
predicate is the nullary ``unsafe``; a program is safe when ``unsafe`` is not
in its least model.

The AST nodes are immutable named tuples, so their equality and hash are
those of the tuple of their fields, computed in C and blind to the class.
No two node kinds with equal fields are ever compared: ``Atom`` and
``ArrayCon`` share the shape ``(str, tuple)``, but they live in different
``Clause`` fields, and ``clause_problems`` rejects atoms named ``read`` or
``write``.  Each ``subst`` hands back the node itself when the mapping
renames or binds none of its variables, so a substitution rebuilds only
the nodes on the way to what it changes.

A ``Program`` is checked when it is built: ``clause_problems`` holds every
program rule, and a program that breaks one raises ``ProgramError``, so any
``Program`` in hand is well formed.

Besides the AST, the module holds the clause-level operations the
transformations run: substitution, renaming apart, variant keys, the
unifier of two flat atoms, fresh ``newpN`` names and the clauses that can
derive anything.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

QUERY = "unsafe"

RELATIONS = ("=", "<", "=<", ">", ">=")

ARRAY_KINDS = {"read": 3, "write": 4}


class Var(NamedTuple):
    name: str

    def __str__(self) -> str:
        return self.name


class Const(NamedTuple):
    value: int

    def __str__(self) -> str:
        return str(self.value)


Term = Var | Const


class LinExpr(NamedTuple):
    """Integer linear expression: sum of coeff*var pairs plus a constant.

    ``terms`` is normalized: first-occurrence order, no zero coefficients,
    each variable at most once.
    """

    terms: tuple[tuple[str, int], ...] = ()
    const: int = 0

    @staticmethod
    def make(pairs: "list[tuple[str, int]] | tuple[tuple[str, int], ...]" = (),
             const: int = 0) -> "LinExpr":
        if len(pairs) < 2:  # nothing to sum
            if pairs and pairs[0][1] == 0:
                return LinExpr((), const)
            return LinExpr(tuple(pairs), const)
        coeffs = dict(pairs)
        if len(coeffs) < len(pairs):  # a variable repeats: sum its coefficients
            coeffs = {}
            for name, coeff in pairs:
                coeffs[name] = coeffs.get(name, 0) + coeff
        elif 0 not in coeffs.values():
            return LinExpr(tuple(pairs), const)
        return LinExpr(tuple((n, c) for n, c in coeffs.items() if c != 0), const)

    def vars(self) -> set[str]:
        return {name for name, _ in self.terms}

    def subst(self, mapping: "dict[str, Term]") -> "LinExpr":
        if not any(_moves(mapping, name) for name, _ in self.terms):
            return self
        pairs: list[tuple[str, int]] = []
        const = self.const
        for name, coeff in self.terms:
            image = mapping.get(name)
            if image is None:
                pairs.append((name, coeff))
            elif isinstance(image, Var):
                pairs.append((image.name, coeff))
            else:
                const += coeff * image.value
        return LinExpr.make(pairs, const)

    def __str__(self) -> str:
        if not self.terms:
            return str(self.const)
        out = []
        for i, (name, coeff) in enumerate(self.terms):
            if coeff == 1:
                piece = name
            elif coeff == -1:
                piece = "-" + name
            else:
                piece = f"{coeff}*{name}"
            if i > 0 and not piece.startswith("-"):
                piece = "+" + piece
            out.append(piece)
        if self.const > 0:
            out.append(f"+{self.const}")
        elif self.const < 0:
            out.append(str(self.const))
        return "".join(out)


class RelCon(NamedTuple):
    """Atomic relational constraint ``lhs rel rhs`` with rel in RELATIONS."""

    rel: str
    lhs: LinExpr
    rhs: LinExpr

    def vars(self) -> set[str]:
        return self.lhs.vars() | self.rhs.vars()

    def subst(self, mapping: "dict[str, Term]") -> "RelCon":
        lhs, rhs = self.lhs.subst(mapping), self.rhs.subst(mapping)
        if lhs is self.lhs and rhs is self.rhs:
            return self
        return RelCon(self.rel, lhs, rhs)

    def __str__(self) -> str:
        return f"{self.lhs}{self.rel}{self.rhs}"


class ArrayCon(NamedTuple):
    """Opaque array pseudo-constraint: read(A,I,V) or write(A,I,V,B).

    Parsed and carried through transformations; the arithmetic oracle treats
    any constraint containing one conservatively.
    """

    kind: str
    args: tuple[Term, ...]

    def vars(self) -> set[str]:
        return {t.name for t in self.args if isinstance(t, Var)}

    def subst(self, mapping: "dict[str, Term]") -> "ArrayCon":
        args = _subst_args(self.args, mapping)
        return self if args is self.args else ArrayCon(self.kind, args)

    def __str__(self) -> str:
        return f"{self.kind}({','.join(str(a) for a in self.args)})"


AtomicCon = RelCon | ArrayCon


class Constraint(NamedTuple):
    """Conjunction of atomic constraints; empty conjunction is true."""

    conjuncts: tuple[AtomicCon, ...] = ()

    def vars(self) -> set[str]:
        out: set[str] = set()
        for con in self.conjuncts:
            out |= con.vars()
        return out

    def has_arrays(self) -> bool:
        return any(isinstance(c, ArrayCon) for c in self.conjuncts)

    def subst(self, mapping: "dict[str, Term]") -> "Constraint":
        conjuncts = tuple([c.subst(mapping) for c in self.conjuncts])
        return self if conjuncts == self.conjuncts else Constraint(conjuncts)

    def __str__(self) -> str:
        return ", ".join(str(c) for c in self.conjuncts)


class Atom(NamedTuple):
    pred: str
    args: tuple[Term, ...] = ()

    @property
    def arity(self) -> int:
        return len(self.args)

    def vars(self) -> set[str]:
        return {t.name for t in self.args if isinstance(t, Var)}

    def subst(self, mapping: "dict[str, Term]") -> "Atom":
        args = _subst_args(self.args, mapping)
        return self if args is self.args else Atom(self.pred, args)

    def __str__(self) -> str:
        if not self.args:
            return self.pred
        return f"{self.pred}({','.join(str(a) for a in self.args)})"


class Clause(NamedTuple):
    head: Atom
    constraint: Constraint = Constraint()
    body: tuple[Atom, ...] = ()

    def vars(self) -> list[str]:
        """Clause variables in first-occurrence order (head, constraint, body)."""
        seen: dict[str, None] = {}
        for t in self.head.args:
            if isinstance(t, Var):
                seen.setdefault(t.name, None)
        for con in self.constraint.conjuncts:
            if isinstance(con, RelCon):
                for name, _ in con.lhs.terms + con.rhs.terms:
                    seen.setdefault(name, None)
            else:
                for t in con.args:
                    if isinstance(t, Var):
                        seen.setdefault(t.name, None)
        for atom in self.body:
            for t in atom.args:
                if isinstance(t, Var):
                    seen.setdefault(t.name, None)
        return list(seen)

    def subst(self, mapping: "dict[str, Term]") -> "Clause":
        head, constraint = self.head.subst(mapping), self.constraint.subst(mapping)
        body = tuple([a.subst(mapping) for a in self.body])
        if head is self.head and constraint is self.constraint and body == self.body:
            return self
        return Clause(head, constraint, body)

    def __str__(self) -> str:
        items = [str(c) for c in self.constraint.conjuncts] + [str(a) for a in self.body]
        if not items:
            return f"{self.head}."
        return f"{self.head} :- {', '.join(items)}."


class ProgramError(ValueError):
    """The program rules a set of clauses breaks, as ``problems``: one
    ``(clause index, problem)`` pair per broken rule, in clause order."""

    def __init__(self, problems: list[tuple[int, str]]):
        super().__init__("; ".join(f"clause {i}: {p}" for i, p in problems))
        self.problems = problems


@dataclass(frozen=True)
class Program:
    """Clauses that obey the program rules; building one that breaks a
    rule raises ProgramError.  ``arities`` maps each predicate to its
    arity, in order of first occurrence, each clause's head before its
    body."""

    clauses: tuple[Clause, ...] = ()
    arities: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        arities: dict[str, int] = {}
        problems = [(i, problem) for i, clause in enumerate(self.clauses)
                    for problem in clause_problems(clause, arities)]
        if problems:
            raise ProgramError(problems)
        object.__setattr__(self, "arities", arities)

    def total_args(self) -> int:
        """Sum of arities over non-query predicates."""
        return sum(a for p, a in self.arities.items() if p != QUERY)

    def __str__(self) -> str:
        return "\n".join(str(c) for c in self.clauses)


def clause_problems(clause: Clause, arities: dict[str, int]) -> list[str]:
    """The program rules ``clause`` breaks, given the arities of the clauses
    before it (``arities`` is extended with its own): no atom over an array
    constraint name, one arity per predicate, a nullary query that occurs
    only in heads, and array constraints of their kind's length."""
    atoms = (clause.head, *clause.body)
    problems = [f"{atom.pred} is reserved for array constraints"
                for atom in atoms if atom.pred in ARRAY_KINDS]
    for atom in atoms:
        known = arities.setdefault(atom.pred, atom.arity)
        if known != atom.arity:
            problems.append(f"{atom.pred} used with arity {atom.arity}, "
                            f"previously {known}")
    if clause.head.pred == QUERY and clause.head.args:
        problems.append(f"{QUERY} must be nullary, got arity {clause.head.arity}")
    for atom in clause.body:
        if atom.pred == QUERY:
            problems.append(f"{QUERY} must be head-only")
    for con in clause.constraint.conjuncts:
        if isinstance(con, ArrayCon) and len(con.args) != ARRAY_KINDS[con.kind]:
            problems.append(f"{con.kind} expects {ARRAY_KINDS[con.kind]} arguments")
    return problems


def _moves(mapping: "dict[str, Term]", name: str) -> bool:
    """Whether ``mapping`` renames or binds the variable ``name``."""
    image = mapping.get(name)
    return image is not None and (isinstance(image, Const) or image.name != name)


def _subst_args(args: tuple[Term, ...], mapping: "dict[str, Term]") -> tuple[Term, ...]:
    """``args`` with ``mapping`` applied; ``args`` itself when it moves none."""
    if not any(isinstance(t, Var) and _moves(mapping, t.name) for t in args):
        return args
    return tuple([mapping.get(t.name, t) if isinstance(t, Var) else t for t in args])


def rename_apart(clause: Clause, taken: set[str]) -> dict[str, Var]:
    """A renaming of the clause's variables away from ``taken``, each to a
    readable fresh name, as a substitution."""
    used = set(taken)
    renaming: dict[str, Var] = {}
    for name in clause.vars():
        fresh = name
        i = 0
        while fresh in used:
            i += 1
            fresh = f"{name}_{i}"
        renaming[name] = Var(fresh)
        used.add(fresh)
    return renaming


def productive_clauses(clauses: Sequence[Clause]) -> list[Clause]:
    """The clauses whose body predicates are all productive, in their order.

    A predicate is productive when a kept clause has it as head: a least
    fixpoint, run as a worklist from the clauses without body atoms.
    Every other clause calls a predicate with no facts in the least model,
    so it derives nothing, and dropping it leaves the least model as it is
    (the clause-deletion rule of unfold/fold transformation).
    """
    waiting: dict[str, list[int]] = {}  # predicate -> clauses calling it
    missing: list[int] = []  # per clause, its body predicates not yet productive
    work: list[str] = []
    for i, clause in enumerate(clauses):
        preds = {atom.pred for atom in clause.body}
        missing.append(len(preds))
        for pred in preds:
            waiting.setdefault(pred, []).append(i)
        if not preds:
            work.append(clause.head.pred)
    while work:
        for i in waiting.pop(work.pop(), ()):
            missing[i] -= 1
            if not missing[i]:
                work.append(clauses[i].head.pred)
    return [clause for clause, m in zip(clauses, missing) if not m]


def atom_variant_key(atom: Atom) -> tuple:
    """Hashable key identifying the atom's class modulo variable renaming."""
    numbering: dict[str, int] = {}
    shape: list[object] = []
    for t in atom.args:
        if isinstance(t, Const):
            shape.append(("c", t.value))
        else:
            shape.append(numbering.setdefault(t.name, len(numbering)))
    return (atom.pred, tuple(shape))


def mgu_atoms(a: Atom, b: Atom) -> "dict[str, Term] | None":
    """Most general unifier of two atoms over variables and constants, as
    an idempotent substitution.  Each argument pair is resolved through the
    bindings so far; a variable of ``a`` is bound to the term of ``b``, so
    ``b``'s variables represent their classes."""
    if a.pred != b.pred or a.arity != b.arity:
        return None
    sub: dict[str, Term] = {}

    def resolve(t: Term) -> Term:
        while isinstance(t, Var) and t.name in sub:
            t = sub[t.name]
        return t

    for ta, tb in zip(a.args, b.args):
        ta, tb = resolve(ta), resolve(tb)
        if ta == tb:
            continue
        if isinstance(ta, Var):
            sub[ta.name] = tb
        elif isinstance(tb, Var):
            sub[tb.name] = ta
        else:
            return None
    return {name: resolve(t) for name, t in sub.items()}


_NEWP_RE = re.compile(r"^newp(\d+)$")


def fresh_predicate_counter(program: Program) -> "itertools.count[int]":
    """Counter continuing after the largest existing newpN in the program."""
    top = 0
    for pred in program.arities:
        m = _NEWP_RE.match(pred)
        if m:
            top = max(top, int(m.group(1)))
    return itertools.count(top + 1)
