"""Bounded bottom-up evaluation of clause programs.

Facts are computed semi-naively over the finite domain [-B, B]: each round
grounds every clause with at least one body atom matched against the facts
new in the previous round.  Each clause is compiled once per evaluation:
its variables in clause order and each conjunct as the integer <=-rows of
the constraint oracle (``constraints.rows_of``), so the evaluator has no
reading of the relations of its own.  Constraint variables are enumerated
lazily: a conjunct is checked once all its variables are bound, and one
pass over the pending conjuncts gives each conjunct's last unbound
variable its interval, from which the narrowest is enumerated next.

The ``clipped`` flag records possible incompleteness with respect to the
unbounded least model: it is set when a satisfying assignment touches the
domain edge, when a derived fact carries a value at or beyond it, or when a
variable's feasible interval had to be truncated to fit the domain.  An
unclipped run is exact, so the query verdict can be trusted; a clipped one
only certifies derivations, not their absence.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from math import inf
from typing import NamedTuple

from .constraints import Row, TriState, rows_of
from .syntax import QUERY, Atom, Clause, Const, Constraint, Program, Var


class EvalError(Exception):
    pass


class EvalBudgetError(EvalError):
    pass


@dataclass
class BoundedModel:
    facts: dict[str, set[tuple[int, ...]]]
    clipped: bool
    rounds: int

    def derived(self, pred: str = QUERY) -> bool:
        return bool(self.facts.get(pred))

    def size(self) -> int:
        return sum(len(s) for s in self.facts.values())

    def verdict(self) -> TriState:
        """Query verdict: holds when the query is derived (sound even when
        clipped), fails when it is not and the run was exact, unknown when
        absence might be an artifact of the bound."""
        if self.derived():
            return TriState.HOLDS
        return TriState.UNKNOWN if self.clipped else TriState.FAILS


class _State:
    __slots__ = ("steps", "budget", "clipped", "bound")

    def __init__(self, budget: int, bound: int):
        self.steps = 0
        self.budget = budget
        self.clipped = False
        self.bound = bound

    def tick(self, cost: int = 1) -> None:
        self.steps += cost
        if self.steps > self.budget:
            raise EvalBudgetError(f"evaluation exceeded {self.budget} steps")


def bounded_least_model(prog: Program, bound: int = 32, *,
                        budget: int = 2_000_000,
                        until_query: bool = False) -> BoundedModel:
    """Least model of ``prog`` over [-bound, bound].

    With ``until_query`` the fixpoint stops as soon as the query is
    derived (the returned model may then be partial, but a derivation is a
    derivation).  Raises EvalError on a bound or a budget below 1, on
    array constraints and on a clause whose grounding nests deeper than the
    recursion limit, and EvalBudgetError when grounding work exceeds
    ``budget`` steps.
    """
    if bound < 1:
        raise EvalError("bound must be positive")
    if budget < 1:
        raise EvalError("budget must be positive")
    for i, clause in enumerate(prog.clauses):
        if clause.constraint.has_arrays():
            raise EvalError(f"clause {i}: array constraints are not evaluable")

    state = _State(budget, bound)
    facts: dict[str, set[tuple[int, ...]]] = {p: set() for p in prog.arities}

    plans = [_compile(c) for c in prog.clauses]
    base = [p for p in plans if not p.clause.body]
    recursive = [p for p in plans if p.clause.body]

    delta: dict[str, set[tuple[int, ...]]] = {p: set() for p in prog.arities}
    for plan in base:
        pred = plan.clause.head.pred
        for fact in _ground(plan, facts, None, None, state):
            if fact not in facts[pred]:
                facts[pred].add(fact)
                delta[pred].add(fact)
    rounds = 0
    while any(delta.values()):
        rounds += 1
        if until_query and facts.get(QUERY):
            break
        new_delta: dict[str, set[tuple[int, ...]]] = {p: set() for p in prog.arities}
        for plan in recursive:
            pred = plan.clause.head.pred
            for i, atom in enumerate(plan.clause.body):
                if not delta[atom.pred]:
                    continue
                for fact in _ground(plan, facts, i, delta, state):
                    if fact not in facts[pred] and fact not in new_delta[pred]:
                        new_delta[pred].add(fact)
        for pred, new in new_delta.items():
            facts[pred] |= new
        delta = new_delta
    return BoundedModel(facts, state.clipped, rounds)


def derives_unsafe(prog: Program, bound: int = 32) -> TriState:
    """``BoundedModel.verdict`` of a run that stops once the query is
    derived."""
    return bounded_least_model(prog, bound, until_query=True).verdict()


class _Plan(NamedTuple):
    """A clause compiled once per evaluation: its variables in clause order
    and, per arithmetic conjunct, the conjunct's variables and <=-rows."""
    clause: Clause
    variables: list[str]
    conjuncts: list[tuple[frozenset[str], list[Row]]]


def _compile(clause: Clause) -> _Plan:
    return _Plan(clause, clause.vars(),
                 [(frozenset(con.vars()), rows_of(Constraint((con,))))
                  for con in clause.constraint.conjuncts])


def _ground(plan: _Plan, facts: dict, delta_index: int | None,
            delta: dict | None, state: _State):
    """Yield head tuples for every satisfying clause instantiation; the
    atom at delta_index (when given) matches only last-round facts."""
    clause = plan.clause
    assignment: dict[str, int] = {}

    atoms = list(enumerate(clause.body))
    if delta_index is not None:
        atoms.sort(key=lambda pair: pair[0] != delta_index)

    def check_ready(pending: list) -> "list | None":
        remaining = []
        for con in pending:
            names, rows = con
            if names <= assignment.keys():
                state.tick()
                for terms, bound in rows:
                    if sum(c * assignment[n] for n, c in terms) > bound:
                        return None
            else:
                remaining.append(con)
        return remaining

    def match_atoms(todo: list, pending: list):
        if not todo:
            yield from enumerate_vars(pending)
            return
        # most-bound atom first keeps the join narrow
        todo = sorted(todo, key=lambda pair: _unbound_count(pair[1], assignment))
        (index, atom), rest = todo[0], todo[1:]
        source = delta[atom.pred] if (delta is not None and index == delta_index) \
            else facts[atom.pred]
        for fact in source:
            state.tick()
            bound_here: list[str] = []
            ok = True
            for t, value in zip(atom.args, fact):
                if isinstance(t, Const):
                    if t.value != value:
                        ok = False
                        break
                elif t.name in assignment:
                    if assignment[t.name] != value:
                        ok = False
                        break
                else:
                    assignment[t.name] = value
                    bound_here.append(t.name)
            if ok:
                after = check_ready(pending)
                if after is not None:
                    yield from match_atoms(rest, after)
            for name in bound_here:
                del assignment[name]

    def enumerate_vars(pending: list):
        unbound = [name for name in plan.variables if name not in assignment]
        if not unbound:
            if not pending:
                yield _head_tuple()
            return
        name, lo, hi = choose_var(unbound, pending)
        for value in range(lo, hi + 1):
            state.tick()
            assignment[name] = value
            after = check_ready(pending)
            if after is not None:
                yield from enumerate_vars(after)
            del assignment[name]

    def choose_var(unbound: list[str], pending: list) -> tuple[str, int, int]:
        """The unbound variable with the narrowest interval.  One pass over
        the pending conjuncts narrows each conjunct's last unbound variable
        x by its rows: a*x <= r gives x <= floor(r/a) when a > 0 and
        x >= ceil(r/a) when a < 0.  A variable left with no value is chosen
        at once: it enumerates nothing, so no value is lost to the cut."""
        intervals: dict[str, tuple[float, float]] = {}
        for names, rows in pending:
            missing = names - assignment.keys()
            if len(missing) != 1:
                continue
            (name,) = missing
            lo, hi = -inf, inf
            for terms, r in rows:
                a = 0
                for n, c in terms:
                    if n == name:
                        a = c
                    else:
                        r -= c * assignment[n]
                if a > 0:
                    hi = min(hi, r // a)
                elif a < 0:
                    lo = max(lo, -(-r // a))
            if lo > -inf or hi < inf:
                seen = intervals.get(name, (-inf, inf))
                intervals[name] = (max(seen[0], lo), min(seen[1], hi))
        best: tuple[int, str, int, int, bool] | None = None
        for name in unbound:
            if name not in intervals:
                continue
            lo, hi = intervals[name]
            if lo > hi:
                return name, lo, hi
            truncated = lo < -state.bound or hi > state.bound
            lo, hi = max(lo, -state.bound), min(hi, state.bound)
            if best is None or hi - lo < best[0]:
                best = (hi - lo, name, lo, hi, truncated)
        if best is None:
            # no conjunct pins any variable down; take the first in clause
            # order over the whole domain
            return unbound[0], -state.bound, state.bound
        _, name, lo, hi, truncated = best
        if truncated:
            state.clipped = True
        return name, lo, hi

    def _head_tuple() -> tuple[int, ...]:
        values = []
        touched = any(abs(v) == state.bound for v in assignment.values())
        for t in clause.head.args:
            v = t.value if isinstance(t, Const) else assignment[t.name]
            values.append(v)
            if abs(v) >= state.bound:
                touched = True
        if touched:
            state.clipped = True
        return tuple(values)

    initial = check_ready(plan.conjuncts)
    if initial is None:
        return
    try:
        yield from match_atoms(atoms, initial)
    except RecursionError:
        # one generator frame per bound atom and variable
        raise EvalError(f"grounding {clause.head} nests deeper than the "
                        f"recursion limit ({sys.getrecursionlimit()})") from None


def _unbound_count(atom: Atom, assignment: dict) -> int:
    return sum(1 for t in atom.args
               if isinstance(t, Var) and t.name not in assignment)
