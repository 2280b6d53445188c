"""Constrained argument erasure.

The erasure is the greatest set E of (predicate, position) pairs such that
every pair (p, k) in E satisfies, in every clause with head
p(X1,...,Xn) :- c, G:

  (i)   the k-th head argument is a variable X_k and
        ``forall X_k . exists (vars(c) minus X_k) . c`` holds;
  (ii)  X_k is not constrained-to any other variable of the head;
  (iii) X_k is not constrained-to any variable of the erased body G|_E,
        does not itself occur in G|_E, and does not occur at any other
        head argument position.

The occurrence checks in (iii) go beyond the constrained-to relation: a
variable flowing unguarded into a surviving body position, or duplicated
across head positions, carries information the erased program would lose.
Only the body part of (iii) depends on E: a kept body position (q, j)
keeps every head pair (p, k) whose variable occurs at, or is constrained
to, that position.  So the kept pairs are the local violations closed
backward along those edges, and E is the rest.  Erasing a position under
these conditions leaves membership of every surviving-atom projection
unchanged, in particular the query verdict.

That closure does not depend on the order in which the violations are
found, so the cheap ones come first.  One pass over the pairs checks the
syntactic conditions, which need no oracle: a constant head argument,
(ii), and a repeated head variable.  A second pass asks the oracle the
rest of (i), only for the pairs still open.  Each pass skips a pair
already kept and closes every pair it keeps backward at once, so a pair
the closure reaches is never asked about.

Each clause's constraint is split into its variable-disjoint parts
(``constraints.Parts``) once per transform, or once per problem in the
pipeline (``constraints.parts_of``): the projection records the split of
each constraint it keeps or only deletes whole parts of, so a second run
on the output splits only the constraints it rewrote.  Condition (i)
holds when X_k's own part projects to true and every other part is
satisfiable, each part decided at most once; (ii) and the body edges read
the parts' linked sets.  The oracle answers each question once per
transform (``constraints.answers_once``), since one part recurs across
clauses, and a part of a constraint it answered ``holds``, as nlr asks
of each resolvent, is ``holds`` without a question of its own.

The erased program then gets each clause's constraint projected onto its
live variables, those of the erased head and of the erased body atoms
(``constraints.project``, on the same split and its part answers).  The
other variables are existential in the clause, and every step taken is
exact over the integers: a part without a live variable is deleted when
satisfiable and kept when the oracle cannot say, a clause with an
unsatisfiable part is deleted (it derives nothing), unit equalities are
solved away and one-sided variables dropped.  So the least model, and
every surviving-atom projection with it, is unchanged; the erasure is
computed first and does not depend on the projection.  A deleted clause
can leave its head predicate without clauses; every clause that then
calls an unproductive predicate derives nothing and goes too
(``syntax.productive_clauses``), so a second run finds nothing new there
to erase.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field

from .constraints import (Parts, TriState, answers_once, constrained_to,
                          forall_exists_valid, parts_of, project)
from .syntax import Atom, Clause, Const, Program, Var, productive_clauses

Pair = tuple[str, int]
Erasure = frozenset[Pair]

CONDITIONS = ("i-not-variable", "i-forall-exists", "ii-head-constrained",
              "iii-body-constrained")


@dataclass(frozen=True)
class Violation:
    pair: Pair
    clause_index: int
    condition: str  # one of CONDITIONS
    detail: str = ""


def full_erasure(prog: Program) -> Erasure:
    """Every (predicate, position) pair in the program; query excluded by
    virtue of being nullary."""
    return frozenset((pred, k) for pred, arity in prog.arities.items()
                     for k in range(1, arity + 1))


def erase_atom(atom: Atom, e: Erasure, names: dict[str, str]) -> Atom:
    """Drop the atom's erased argument positions and rename its predicate
    via ``names`` (predicates with erased positions get new names so the
    reduced-arity symbol cannot collide with a surviving one)."""
    args = tuple(t for k, t in enumerate(atom.args, start=1)
                 if (atom.pred, k) not in e)
    return Atom(names.get(atom.pred, atom.pred), args)


def erased_names(prog: Program, e: Erasure) -> dict[str, str]:
    """Fresh names for predicates with at least one erased position:
    p with positions {1,3} erased becomes p__1_3 (suffixing underscores on
    collision)."""
    positions: dict[str, list[str]] = defaultdict(list)
    for pred, k in sorted(e):
        positions[pred].append(str(k))
    names: dict[str, str] = {}
    taken = set(prog.arities)
    for pred in prog.arities:
        if pred not in positions:
            continue
        candidate = pred + "__" + "_".join(positions[pred])
        while candidate in taken:
            candidate += "_"
        names[pred] = candidate
        taken.add(candidate)
    return names


Split = tuple[int, Clause, Parts]  # (index, clause, its constraint split once)


def check_pair(pair: Pair, splits: list[Split]) -> Violation | None:
    """First violation of the syntactic conditions, those that need no
    oracle, for ``pair``, scanning ``splits`` (the clauses with the pair's
    predicate as head) in program order: a constant head argument (i), a
    variable constrained to another head variable (ii, read off x's linked
    set) or a repeated head variable (iii); None when there is none.  The
    first pass of ``cfar_transform``; ``check_forall_exists`` is the
    second, for the pairs still open after it and the backward closure."""
    k = pair[1]
    for index, clause, parts in splits:
        term = clause.head.args[k - 1]
        if isinstance(term, Const):
            return Violation(pair, index, "i-not-variable",
                             f"head argument {k} is the constant {term.value}")
        x = term.name
        linked = parts.linked(x)
        for other in clause.head.args:
            if isinstance(other, Var) and other.name != x and other.name in linked:
                return Violation(pair, index, "ii-head-constrained",
                                 f"{x} is constrained to head variable {other.name}")
        for j, other in enumerate(clause.head.args, start=1):
            if j != k and isinstance(other, Var) and other.name == x:
                return Violation(pair, index, "iii-body-constrained",
                                 f"{x} also occurs at head position {j}")
    return None


def check_forall_exists(pair: Pair, splits: list[Split]) -> Violation | None:
    """First clause of ``splits`` that breaks the oracle's part of
    condition (i) for ``pair``: x's own part must project to true and every
    other part be satisfiable.  Asked only for pairs ``check_pair`` passed,
    so every head argument at the pair's position is a variable."""
    k = pair[1]
    for index, clause, parts in splits:
        x = clause.head.args[k - 1].name
        if forall_exists_valid(x, parts.own(x)) is not TriState.HOLDS \
                or not parts.others_satisfiable(x):
            return Violation(pair, index, "i-forall-exists",
                             f"forall {x} . exists rest . c not validated")
    return None


def body_edges(splits: list[Split]) -> dict[Pair, list[Pair]]:
    """The body part of condition (iii): for each body position (q, j), the
    head pairs (p, k) kept whenever it is, because some clause has the head
    variable at k occur at, or be constrained to, body position j of q."""
    edges: dict[Pair, list[Pair]] = defaultdict(list)
    for _, clause, parts in splits:
        for k, term in enumerate(clause.head.args, start=1):
            if not isinstance(term, Var):
                continue
            reach = parts.linked(term.name)
            for atom in clause.body:
                for j, t in enumerate(atom.args, start=1):
                    if isinstance(t, Var) and t.name in reach:
                        edges[atom.pred, j].append((clause.head.pred, k))
    return edges


@dataclass
class CfarReport:
    pairs_initial: int = 0
    pairs_kept: int = 0
    removals: int = 0
    # each kept pair is credited to the first reason found: the syntactic
    # conditions first, then the body closure, then (i)'s oracle question
    removals_by_condition: dict = field(default_factory=dict)
    args_before: int = 0
    args_after: int = 0
    renamed: dict = field(default_factory=dict)
    erasure: list = field(default_factory=list)
    # the projection: conjuncts gone from the clauses left (a rewritten one
    # stays), their local variables gone, and the clauses left out
    conjuncts_dropped: int = 0
    vars_eliminated: int = 0
    clauses_dropped: int = 0
    # clauses left out after the projection because they call a predicate
    # left without clauses (``productive_clauses``)
    dropped_unproductive: int = 0

    def text(self) -> str:
        lines = [
            f"candidate pairs: {self.pairs_initial}",
            f"removed: {self.removals}",
        ]
        for condition in CONDITIONS:
            count = self.removals_by_condition.get(condition, 0)
            if count:
                lines.append(f"  by {condition}: {count}")
        lines.append(f"erased: {self.pairs_kept}")
        lines += [f"  {line}" for line in self.erasure]
        for old, new in self.renamed.items():
            lines.append(f"renamed: {old} -> {new}")
        lines.append(f"arguments: {self.args_before} -> {self.args_after}")
        lines += [f"conjuncts dropped: {self.conjuncts_dropped}",
                  f"variables eliminated: {self.vars_eliminated}",
                  f"clauses dropped: {self.clauses_dropped}",
                  f"dropped unproductive clauses: {self.dropped_unproductive}"]
        return "\n".join(lines)


def erasure_lines(e: Erasure, arities: dict[str, int]) -> list[str]:
    """Serialize as one ``p/arity k`` line per pair, sorted."""
    return [f"{pred}/{arities[pred]} {k}" for pred, k in sorted(e)]


@answers_once()
def cfar_transform(prog: Program) -> tuple[Program, Erasure, CfarReport]:
    """Greatest safe erasure of ``prog`` and the erased program.

    Each clause is split once into the parts of its constraint, and the
    splits are grouped by head predicate.  One pass checks every pair not
    yet kept with ``check_pair`` against its predicate's splits, and a
    second every pair still open with ``check_forall_exists``; a pair found
    violating keeps at once every pair reachable backward from it along
    ``body_edges``, and the erasure is every pair not kept.  Each erased
    clause's constraint is then projected onto the clause's live
    variables, and a clause whose constraint the projection finds
    unsatisfiable is left out, as is every clause that is then not among
    the ``productive_clauses``.  One ``answers_once`` block serves the
    whole call, its answers and its splits, or the caller's if open.
    """
    pairs = full_erasure(prog)
    report = CfarReport(pairs_initial=len(pairs), args_before=prog.total_args())

    splits = [(index, clause, parts_of(clause.constraint))
              for index, clause in enumerate(prog.clauses)]
    by_head: dict[str, list[Split]] = defaultdict(list)
    for split in splits:
        by_head[split[1].head.pred].append(split)
    edges = body_edges(splits)
    order = sorted(pairs)
    kept: dict[Pair, str] = {}
    # the syntactic conditions first, then the oracle only for the pairs
    # they and the backward closure of what they kept leave open
    for check in (check_pair, check_forall_exists):
        for pair in order:
            if pair in kept:
                continue
            violation = check(pair, by_head[pair[0]])
            if violation is None:
                continue
            kept[pair] = violation.condition
            work = [pair]
            while work:
                for source in edges.get(work.pop(), ()):
                    if source not in kept:
                        kept[source] = "iii-body-constrained"
                        work.append(source)

    counts = Counter(kept.values())
    report.removals = len(kept)
    report.removals_by_condition = {c: counts[c] for c in CONDITIONS if counts[c]}
    erasure = pairs.difference(kept)
    names = erased_names(prog, erasure)
    clauses = []
    for _, clause, parts in splits:
        head = erase_atom(clause.head, erasure, names)
        body = tuple(erase_atom(a, erasure, names) for a in clause.body)
        live = head.vars().union(*(a.vars() for a in body))
        constraint = project(parts, live)
        if constraint is None:
            report.clauses_dropped += 1
            continue
        if constraint is not clause.constraint:
            report.conjuncts_dropped += (len(clause.constraint.conjuncts)
                                         - len(constraint.conjuncts))
            report.vars_eliminated += len(clause.constraint.vars()
                                          - constraint.vars() - live)
        clauses.append(Clause(head, constraint, body))
    kept = productive_clauses(clauses)
    report.dropped_unproductive = len(clauses) - len(kept)
    out = Program(tuple(kept))

    report.pairs_kept = len(erasure)
    report.erasure = erasure_lines(erasure, prog.arities)
    report.renamed = dict(sorted(names.items()))
    report.args_after = out.total_args()
    return out, erasure, report


def verify_safe_erasure(prog: Program, e: Erasure) -> list[Violation]:
    """Re-validate every erased pair against the original program,
    written as a direct restatement of the erasability conditions rather
    than through the fixpoint machinery.  Returns all violations found;
    an empty list certifies the erasure.  It opens no ``answers_once``
    table, so outside one its certification asks the oracle afresh."""
    violations: list[Violation] = []
    for index, clause in enumerate(prog.clauses):
        head = clause.head
        c = clause.constraint
        surviving_body_vars: set[str] = set()
        for atom in clause.body:
            for pos, t in enumerate(atom.args, start=1):
                if (atom.pred, pos) not in e and isinstance(t, Var):
                    surviving_body_vars.add(t.name)
        for k in range(1, head.arity + 1):
            pair = (head.pred, k)
            if pair not in e:
                continue
            term = head.args[k - 1]
            if not isinstance(term, Var):
                violations.append(Violation(pair, index, "i-not-variable"))
                continue
            x = term.name
            if forall_exists_valid(x, c) is not TriState.HOLDS:
                violations.append(Violation(pair, index, "i-forall-exists"))
            head_vars = {t.name for t in head.args
                         if isinstance(t, Var) and t.name != x}
            if any(constrained_to(x, y, c) for y in head_vars):
                violations.append(Violation(pair, index, "ii-head-constrained"))
            occurrences = sum(1 for t in head.args
                              if isinstance(t, Var) and t.name == x)
            if (occurrences > 1 or x in surviving_body_vars
                    or any(constrained_to(x, y, c) for y in surviving_body_vars)):
                violations.append(Violation(pair, index, "iii-body-constrained"))
    return violations
