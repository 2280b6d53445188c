"""Non-linking argument removal.

Every body atom over an input predicate is abstracted by a fresh predicate
whose arguments are just the atom's linking variables: the variables shared
with the rest of its clause.  Definitions are unfolded against the input
program and the results folded back, so the output program reaches the query
verdict of the input while carrying fewer arguments.  Two occurrences of the
same atom shape (modulo renaming) share one definition; when a later
occurrence needs more linking variables the definition is widened, reverted
to pending, and its clauses re-derived.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .constraints import TriState, is_satisfiable
from .syntax import (QUERY, Atom, Clause, Program, Var, atom_variant_key,
                     fresh_predicate_counter, mgu_atoms, rename_apart, variant_of)


def linkvars(clause: Clause, position: int) -> list[str]:
    """Linking variables of clause.body[position]: those also occurring in
    the head, the constraint, or another body atom.  Ordered by first
    occurrence in the atom."""
    atom = clause.body[position]
    rest: set[str] = clause.head.vars() | clause.constraint.vars()
    for i, other in enumerate(clause.body):
        if i != position:
            rest |= other.vars()
    out: list[str] = []
    for t in atom.args:
        if isinstance(t, Var) and t.name in rest and t.name not in out:
            out.append(t.name)
    return out


@dataclass
class Definition:
    name: str
    head_vars: list[str]
    body_atom: Atom
    status: str = "pending"  # pending | unfolded

    @property
    def arity(self) -> int:
        return len(self.head_vars)

    def head(self) -> Atom:
        return Atom(self.name, tuple(Var(v) for v in self.head_vars))


class DefsIndex:
    """Definitions keyed by body atom modulo variable renaming."""

    def __init__(self, counter: "itertools.count[int] | None" = None):
        self._by_key: dict[tuple, Definition] = {}
        self._counter = counter if counter is not None else itertools.count(1)

    def __len__(self) -> int:
        return len(self._by_key)

    def in_order(self) -> list[Definition]:
        return list(self._by_key.values())

    def pending(self) -> list[Definition]:
        return [d for d in self._by_key.values() if d.status == "pending"]

    def introduce_or_merge(self, b: Atom, v: list[str]) -> tuple[Definition, bool, bool]:
        """Definition covering atom b with linking variables v.

        Returns (definition, widened, created).  An existing definition for
        b's variant class is merged: its head keeps its variables and gains
        the images of v not already present, in v's order; growth reverts
        the definition to pending.
        """
        assert all(any(isinstance(t, Var) and t.name == x for t in b.args) for x in v)
        key = atom_variant_key(b)
        existing = self._by_key.get(key)
        if existing is None:
            definition = Definition(f"newp{next(self._counter)}", list(v), b)
            self._by_key[key] = definition
            return definition, False, True
        theta = variant_of(b, existing.body_atom)
        assert theta is not None
        widened = False
        for x in v:
            mapped = theta[x]
            if mapped not in existing.head_vars:
                existing.head_vars.append(mapped)
                widened = True
        if widened:
            existing.status = "pending"
        return existing, widened, False


def unfold(defn: Definition, prog: Program) -> list[Clause]:
    """Resolve the definition's body atom against every program clause
    whose head unifies with it."""
    out: list[Clause] = []
    taken = defn.body_atom.vars() | set(defn.head_vars)
    for clause in prog.clauses_for(defn.body_atom.pred):
        renamed, _ = rename_apart(clause, taken)
        mu = mgu_atoms(defn.body_atom, renamed.head)
        if mu is None:
            continue
        out.append(Clause(defn.head(), renamed.constraint, renamed.body).subst(mu))
    return out


def fold_all(clause: Clause, defs: DefsIndex,
             prog: Program) -> tuple[Clause, int, int]:
    """Replace every body atom over an input-program predicate by its
    definition's head, introducing or merging definitions as needed.
    Atoms over already-introduced predicates are left alone.  Returns the
    folded clause and the numbers of definitions created and widened."""
    old_preds = prog.arities
    created_count = widened_count = 0
    new_body: list[Atom] = []
    for i, atom in enumerate(clause.body):
        if atom.pred not in old_preds:
            new_body.append(atom)
            continue
        defn, widened, created = defs.introduce_or_merge(atom, linkvars(clause, i))
        created_count += created
        widened_count += widened
        theta = variant_of(atom, defn.body_atom)
        assert theta is not None
        back = {dv: bv for bv, dv in theta.items()}
        new_body.append(Atom(defn.name, tuple(Var(back[v]) for v in defn.head_vars)))
    return Clause(clause.head, clause.constraint, tuple(new_body)), created_count, widened_count


@dataclass
class NlrReport:
    definitions: list[dict] = field(default_factory=list)
    widenings: int = 0
    iterations: int = 0
    variant_classes: int = 0
    max_arity: int = 0
    dropped_unsat: int = 0
    args_before: int = 0
    args_after: int = 0
    clauses_in: int = 0
    clauses_out: int = 0
    warnings: list[str] = field(default_factory=list)

    def text(self) -> str:
        lines = [f"definitions: {len(self.definitions)}"]
        for d in self.definitions:
            lines.append(f"  {d['name']}/{d['arity']} abstracts {d['body_atom']}")
        lines += [
            f"widenings: {self.widenings}",
            f"iterations: {self.iterations}",
            f"variant classes: {self.variant_classes}",
            f"dropped unsatisfiable clauses: {self.dropped_unsat}",
            f"arguments: {self.args_before} -> {self.args_after}",
            f"clauses: {self.clauses_in} -> {self.clauses_out}",
        ]
        lines += [f"warning: {w}" for w in self.warnings]
        return "\n".join(lines)


def nlr_transform(prog: Program, drop_unsat: bool = True) -> tuple[Program, NlrReport]:
    """Run the removal strategy to a fixpoint over the whole program.

    The query clauses are folded in place; every definition is unfolded and
    its results folded, with widening re-running the affected definition.
    Folding is repeated once the definition index is stable so that clauses
    folded before a later widening pick up the final arities.
    """
    problems = prog.validate()
    if problems:
        raise ValueError("invalid program: " + "; ".join(problems))
    report = NlrReport(args_before=prog.total_args(), clauses_in=len(prog.clauses))
    max_arity = max((a.arity for a in prog.atoms()), default=0)
    report.max_arity = max_arity

    defs = DefsIndex(fresh_predicate_counter(prog))
    unsafe_clauses = [c for c in prog.clauses if c.head.pred == QUERY]
    defined = prog.defined_predicates()

    widenings = 0
    for clause in unsafe_clauses:
        _, _, widened = fold_all(clause, defs, prog)
        widenings += widened

    raw: dict[str, list[Clause]] = {}
    iterations = 0
    while True:
        pending = defs.pending()
        if not pending:
            break
        iterations += 1
        if iterations > (len(defs) + 1) * (max_arity + 2) + 10:
            raise RuntimeError("definition unfolding exceeded its budget")
        defn = pending[0]
        if defn.body_atom.pred not in defined:
            report.warnings.append(
                f"{defn.body_atom.pred} has no clauses; {defn.name} is empty")
        resolvents = unfold(defn, prog)
        clauses = [c for c in resolvents if not drop_unsat
                   or is_satisfiable(c.constraint) is not TriState.FAILS]
        report.dropped_unsat += len(resolvents) - len(clauses)
        defn.status = "unfolded"
        raw[defn.name] = clauses
        for clause in clauses:
            _, _, widened = fold_all(clause, defs, prog)
            widenings += widened

    out: list[Clause] = []
    for clause in unsafe_clauses:
        folded, created, widened = fold_all(clause, defs, prog)
        assert not created and not widened, "definition index changed after fixpoint"
        out.append(folded)
    for defn in defs.in_order():
        for clause in raw.get(defn.name, ()):
            folded, created, widened = fold_all(clause, defs, prog)
            assert not created and not widened, "definition index changed after fixpoint"
            out.append(folded)

    result = Program(tuple(out))
    problems = result.validate()
    if problems:
        raise RuntimeError("transformed program invalid: " + "; ".join(problems))

    report.iterations = iterations
    report.widenings = widenings
    report.variant_classes = len(defs)
    report.definitions = [
        {"name": d.name, "arity": d.arity, "pred": d.body_atom.pred,
         "pred_arity": d.body_atom.arity, "body_atom": str(d.body_atom)}
        for d in defs.in_order()
    ]
    report.args_after = result.total_args()
    report.clauses_out = len(result.clauses)
    return result, report
