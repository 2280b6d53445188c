"""Non-linking argument removal.

Every body atom over an input predicate is abstracted by a fresh predicate
whose arguments are just the atom's linking variables: the variables shared
with the rest of its clause.  Definitions are unfolded against the input
program and the results folded back, so the output program reaches the query
verdict of the input while carrying fewer arguments.  Two occurrences of the
same atom shape (modulo renaming) share one definition.  Variants have the
same variable-occurrence pattern, so a definition is the first atom of its
class plus the argument positions it keeps, and folding any variant is a
projection onto those positions.  Each class is unfolded once; when a later
occurrence needs more linking variables the definition gains positions and
its stored resolvents are re-scanned with the wider head, not re-derived.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

from .constraints import TriState, is_satisfiable
from .syntax import (QUERY, Atom, Clause, Program, Var, atom_variant_key,
                     fresh_predicate_counter, mgu_atoms, productive_clauses,
                     rename_apart)


@dataclass
class Definition:
    """``name`` abstracts the variant class of ``atom`` by the argument
    positions it keeps.  ``resolvents`` are the atom's one-step unfoldings
    with heads over its full argument list (None until unfolded)."""
    name: str
    atom: Atom
    positions: list[int]
    resolvents: list[Clause] | None = None
    pending: bool = True

    def project(self, atom: Atom) -> Atom:
        return Atom(self.name, tuple(atom.args[k] for k in self.positions))

    def clauses(self) -> list[Clause]:
        """The resolvents with heads projected onto the kept positions."""
        return [Clause(self.project(r.head), r.constraint, r.body)
                for r in self.resolvents]


def unfold(atom: Atom, clauses: list[Clause]) -> list[Clause]:
    """Resolve ``atom`` against every clause of ``clauses`` (those with its
    predicate in the head) whose head unifies with it; each resolvent keeps
    the unified head."""
    out: list[Clause] = []
    taken = atom.vars()
    for clause in clauses:
        renaming = rename_apart(clause, taken)
        mu = mgu_atoms(atom, clause.head.subst(renaming))
        if mu is not None:
            out.append(clause.subst({old: mu.get(new.name, new)
                                     for old, new in renaming.items()}))
    return out


def register(clause: Clause, defs: dict[tuple, Definition],
             counter: Iterator[int]) -> int:
    """Introduce a definition for each body atom whose variant class has
    none, and widen an existing one by the positions of the atom's linking
    variables it does not keep yet, in linking order; widening marks it
    pending.  Returns the number of atoms that widened a definition.

    A variable of a body atom links when the head, the constraint or a
    second body atom holds it, so one pass over the body finds the
    clause's linking variables; each is kept at its first position in the
    atom, and the positions are in that order."""
    links = clause.head.vars() | clause.constraint.vars()
    seen: set[str] = set()
    for atom in clause.body:
        names = atom.vars()
        links |= names & seen
        seen |= names
    widened = 0
    for atom in clause.body:
        first: dict[str, int] = {}
        for k, t in enumerate(atom.args):
            if isinstance(t, Var) and t.name in links:
                first.setdefault(t.name, k)
        wanted = list(first.values())
        key = atom_variant_key(atom)
        defn = defs.get(key)
        if defn is None:
            defs[key] = Definition(f"newp{next(counter)}", atom, wanted)
            continue
        grown = [k for k in wanted if k not in defn.positions]
        if grown:
            defn.positions += grown
            defn.pending = True
            widened += 1
    return widened


def fold(clause: Clause, defs: dict[tuple, Definition]) -> Clause:
    """Replace every body atom by its definition's projection of it."""
    body = tuple(defs[atom_variant_key(a)].project(a) for a in clause.body)
    return Clause(clause.head, clause.constraint, body)


@dataclass
class NlrReport:
    definitions: list[dict] = field(default_factory=list)
    widenings: int = 0
    iterations: int = 0
    variant_classes: int = 0
    max_arity: int = 0
    dropped_unsat: int = 0
    dropped_unproductive: int = 0
    args_before: int = 0
    args_after: int = 0
    clauses_in: int = 0
    clauses_out: int = 0
    warnings: list[str] = field(default_factory=list)

    def text(self) -> str:
        lines = [f"definitions: {len(self.definitions)}"]
        for d in self.definitions:
            kept = ",".join(map(str, d["positions"])) or "none"
            lines.append(f"  {d['name']}/{d['arity']} abstracts {d['body_atom']} "
                         f"keeping {kept}")
        lines += [
            f"widenings: {self.widenings}",
            f"iterations: {self.iterations}",
            f"variant classes: {self.variant_classes}",
            f"dropped unsatisfiable clauses: {self.dropped_unsat}",
            f"dropped unproductive clauses: {self.dropped_unproductive}",
            f"arguments: {self.args_before} -> {self.args_after}",
            f"clauses: {self.clauses_in} -> {self.clauses_out}",
        ]
        lines += [f"warning: {w}" for w in self.warnings]
        return "\n".join(lines)


def nlr_transform(prog: Program) -> tuple[Program, NlrReport]:
    """Run the removal strategy to a fixpoint over the whole program.

    The query clauses register their body atoms; then the first pending
    definition in creation order is processed until none is left: unfolded
    on its first turn (resolvents with unsatisfiable constraints dropped),
    and its resolvents registered under its current head.  Every output
    clause is folded once, after the positions are final, and only the
    ``productive_clauses`` of the folded ones are kept: a definition whose
    predicate has no clauses leaves its callers deriving nothing.

    The loop ends: a definition is processed when it is created and again
    after each widening, and each widening adds at least one of its at most
    ``max_arity`` positions, so ``iterations`` is at most the number of
    variant classes times ``max_arity + 1``.
    """
    report = NlrReport(args_before=prog.total_args(), clauses_in=len(prog.clauses),
                       max_arity=max(prog.arities.values(), default=0))

    counter = fresh_predicate_counter(prog)
    defs: dict[tuple, Definition] = {}
    by_head: dict[str, list[Clause]] = {}
    for clause in prog.clauses:
        by_head.setdefault(clause.head.pred, []).append(clause)
    unsafe_clauses = by_head.get(QUERY, [])

    for clause in unsafe_clauses:
        report.widenings += register(clause, defs, counter)
    while (defn := next((d for d in defs.values() if d.pending), None)) is not None:
        report.iterations += 1
        defn.pending = False
        if defn.resolvents is None:
            if defn.atom.pred not in by_head:
                report.warnings.append(
                    f"{defn.atom.pred} has no clauses; {defn.name} is empty")
            resolvents = unfold(defn.atom, by_head.get(defn.atom.pred, []))
            defn.resolvents = [r for r in resolvents
                               if is_satisfiable(r.constraint) is not TriState.FAILS]
            report.dropped_unsat += len(resolvents) - len(defn.resolvents)
        for clause in defn.clauses():
            report.widenings += register(clause, defs, counter)

    out = [fold(c, defs) for c in unsafe_clauses]
    out += [fold(c, defs) for d in defs.values() for c in d.clauses()]
    kept = productive_clauses(out)
    report.dropped_unproductive = len(out) - len(kept)
    result = Program(tuple(kept))

    report.variant_classes = len(defs)
    report.definitions = [
        {"name": d.name, "arity": len(d.positions), "pred": d.atom.pred,
         "pred_arity": d.atom.arity, "body_atom": str(d.atom),
         "positions": [k + 1 for k in d.positions]}
        for d in defs.values()
    ]
    report.args_after = result.total_args()
    report.clauses_out = len(result.clauses)
    return result, report
