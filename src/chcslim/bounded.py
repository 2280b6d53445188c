"""Bounded bottom-up evaluation of clause programs.

Facts are computed semi-naively over the finite domain [-B, B]: each round
grounds every clause with at least one body atom matched against the facts
new in the previous round.

A clause is compiled once per shape and process (``_rule``).  Its shape is
the clause with each variable replaced by its slot, its index in clause
order, and without its constants, in atoms and in conjuncts, and without
its predicate names; the bound is not part of it either.  After the
variables, each constant of an atom gets a slot, and so does each
arithmetic conjunct lhs rel rhs, whose slot holds lhs.const - rhs.const.
Each conjunct becomes the integer <=-rows of the constraint oracle
(``constraints.rows_of``) over slots, its constant a term of the row like
the variables, so the evaluator has no reading of the relations of its own
and no row depends on an input value.  A grounding's assignment is a list
indexed by slot, copied from the start assignment that the evaluation
builds for the clause with each constant's value in its slot: binding a
variable writes its slot, nothing unbinds it, and a probe key, a head tuple
or a row is read from the list, constants included.  Per evaluation a
clause costs its shape's key and lookup, its start assignment, its body's
predicate names, which the kernels read, and whether a head constant lies
at or beyond the box edge.

For each body position that takes the last round's facts, the shape gets
a join plan on first use.  The atoms are joined most-bound first: from the
delta atom followed by the others in body order, each step stably sorts
the atoms left by their unbound argument positions and joins the first.
Which variables are bound depends only on that order, so the plan holds,
per atom, its probe key (its constants and already-bound positions), the
variables it binds, the repeated-variable checks and the conjuncts that
become checkable once it is matched.  A probe looks its key up in a hash
index of the predicate's facts, one per (predicate, key positions) pair,
built on first probe and extended with each round's new facts, so a round
touches only the indexes of the predicates it added facts to; the last
round's facts get their own indexes each round.

Constraint variables left unbound by the atoms are enumerated one at a
time, and a conjunct is checked once all its variables are bound.  The
pending conjuncts with exactly one unbound variable give that variable an
interval, and the narrowest is enumerated next.  Which conjuncts are
pending and what they bound depends only on the variables bound so far, so
each level of this phase is built once per shape, on the first path that
reaches it, and the plan holds the level after the atoms.  A level holds
the slots bound at it and, per variable, the rows that bound it alone.
When every row of the conjuncts a chosen variable makes checkable holds
that variable, those rows are the ones that gave its interval, so its
values satisfy them and they are not evaluated again.  (A conjunct names
its cancelled variables too: no row of X+Y=X+2 holds X.)

When the atoms leave exactly one variable free, as in a transition clause
``p(N,I) :- ..., J=I+2, p(N,J)``, that level has one candidate and every
pending conjunct becomes checkable with it, so the plan builds its step
with the atoms'.  The loop over the last atom's facts, or the kernel's
body when the clause has no atoms, then grounds the variable: its
interval (the arithmetic of ``_interval``, which ``_choose`` uses), the
same emptiness and truncation rules, the same charge per value, and the
head tuples.

Every plan runs as a kernel: a Python function that ``_plan`` writes for
the plan and compiles (``_Source``).  On entry it checks the conjuncts
without variables (``_holds``).  Each probe is written out as
straight-line code over the assignment list: its table charge, its index
lookup, its repeated-variable check, its binds and the rows of the
conjuncts made checkable.  Then come the next probe, the lone variable's
interval rows, truncation, charge and head, or ``_descend``; a clause
without atoms has only this tail.  Each probe is a function of its own
that calls the next for every surviving fact, so no kernel nests more
than a few blocks.
The plan's numbers are in the source: slots, a probe's body position and
key positions, and row bounds.  The kernel takes the body's predicate
names as an argument and reads the constants from the assignment on
entry: the bound less the constant terms of each row that reads one, and
the lone variable's interval from its rows without another variable.  A
coefficient other than 1 and -1 is a name in the kernel's namespace, and
so is a group of rows wider than ``_INLINE`` (``_width``) or a list of
binds longer than that, which the kernel hands to ``_holds`` or
``_interval`` or loops over, so a kernel grows with the atoms of its
clause, not with their width, and its source holds no input value.

Compiled clause shapes are kept in one process-wide cache of ``_CACHED``
entries (``_compiled``), the least recently used evicted first; each holds
its plans and their kernels.  No entry holds a predicate name or a
constant, so it serves every clause of its shape, in this problem and the
next.  The first clause of a shape pays for the shape, about 10 µs, and
for each of its plans, about 30 µs and a compile of about 0.3-0.4 ms for
kernels of 20 to 50 lines; every clause of that shape after it pays only
the per-evaluation part, about 5-8 µs.  That pays off where shapes
repeat, as in a batch of problems from one translator, and costs time
where they do not (a single small program, or programs drawn at
random).

The step budget counts one step per fact a probe stands for, that is the
whole fact set a linear scan of it would walk, one per conjunct made
checkable (up to the first that fails) and one per value enumerated.  A
value taken from an interval that guarantees its conjuncts is charged for
them as if they were evaluated.

The ``clipped`` flag records possible incompleteness with respect to the
unbounded least model.  It is set where a value at or beyond the domain
edge can first appear, and each source is decided where it arises:

- a variable's feasible interval is truncated to fit the domain (in
  ``_choose``, and in the one-variable level);
- a fact is derived while an enumerated variable is at the edge, whether
  or not the head holds it (in ``_descend``, by whether a fact was derived
  below that value, and in the one-variable level, per fact derived);
- a clause with a head constant c, |c| >= B, derives a fact (known once
  per clause and evaluation, ``_Rule.clips``).

Every fact is derived through these checks, so while a run is unclipped
no fact holds a value at or beyond the edge, and a value bound from a fact
needs no check.  An unclipped run is exact, so the query verdict can be
trusted; a clipped one only certifies derivations, not their absence.
"""

from __future__ import annotations

import functools
import itertools
import sys
from collections.abc import Callable, Set
from dataclasses import dataclass
from math import inf
from operator import itemgetter
from typing import NamedTuple

from .constraints import TriState, rows_of
from .syntax import QUERY, Atom, Clause, LinExpr, Program, RelCon, Var

Fact = tuple[int, ...]
Facts = dict[str, set[Fact]]


class EvalError(Exception):
    pass


class EvalBudgetError(EvalError):
    pass


@dataclass
class BoundedModel:
    facts: Facts
    clipped: bool
    rounds: int
    steps: int  # grounding work done, in the units of the step budget

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
    derivation).  Raises EvalError on a bound or a budget that is not an
    int of at least 1 (a bool is not taken for one), on array constraints
    and on a clause whose grounding nests deeper than the recursion limit,
    and EvalBudgetError when grounding work exceeds ``budget`` steps.
    """
    for name, value in (("bound", bound), ("budget", budget)):
        if type(value) is not int or value < 1:
            raise EvalError(f"{name} must be a positive integer, "
                            f"got {value!r}")
    for i, clause in enumerate(prog.clauses):
        if clause.constraint.has_arrays():
            raise EvalError(f"clause {i}: array constraints are not evaluable")

    state = _State(budget, bound)
    rules = [_rule(c, bound) for c in prog.clauses]
    facts: Facts = {p: set() for p in prog.arities}
    for rule in rules:
        if not rule.clause.body:
            new = _ground(rule, None, None, None, state)
            facts[rule.clause.head.pred].update(new)
    delta = {p: set(fs) for p, fs in facts.items()}
    everything = _Indexes(facts)
    rounds = 0
    while any(delta.values()):
        if until_query and facts.get(QUERY):
            break
        rounds += 1
        last = _Indexes(delta)
        new_delta: Facts = {p: set() for p in prog.arities}
        for rule in rules:
            new = new_delta[rule.clause.head.pred]
            for i, atom in enumerate(rule.clause.body):
                if delta[atom.pred]:
                    new.update(_ground(rule, i, everything, last, state))
        for pred, new in new_delta.items():
            new -= facts[pred]
            if new:
                everything.add(pred, new)
        delta = new_delta
    return BoundedModel(facts, state.clipped, rounds, state.steps)


def derives_unsafe(prog: Program, bound: int = 32) -> TriState:
    """``BoundedModel.verdict`` of a run that stops once the query is
    derived."""
    return bounded_least_model(prog, bound, until_query=True).verdict()


class _Indexes:
    """A fact table with hash indexes by key positions: per predicate, one
    per key positions, built on first probe and extended by ``add``."""

    def __init__(self, table: Facts):
        self.table = table
        self.maps: dict[str, dict[tuple[int, ...], dict]] = {
            pred: {} for pred in table}

    def index(self, pred: str, key: tuple[int, ...]) -> dict:
        maps = self.maps[pred]
        found = maps.get(key)
        if found is None:
            found = maps[key] = {}
            _extend(found, key, self.table[pred])
        return found

    def add(self, pred: str, new: set[Fact]) -> None:
        self.table[pred] |= new
        for key, found in self.maps[pred].items():
            _extend(found, key, new)


def _extend(index: dict, key: tuple[int, ...], facts) -> None:
    """Index ``facts`` by their values at ``key``, as ``itemgetter`` reads
    them: a bare value for one position, a tuple for more."""
    values = itemgetter(*key)
    for fact in facts:
        index.setdefault(values(fact), []).append(fact)


# Rows and conjuncts over slots: a row is ((slot, coefficient), ...), bound.
SlotRow = tuple[tuple[tuple[int, int], ...], int]
Conjunct = tuple[frozenset[int], list[SlotRow]]
Bounding = list[tuple[int, list[tuple[int, tuple, int]]]]


class _Level(NamedTuple):
    """The variable phase once the atoms' variables and those chosen on the
    way down are bound, built by ``_level``."""
    bound: frozenset[int]            # the slots bound, constants' included
    free: list[int]                  # unbound variables, in clause order
    # the free variables, in that order, that a pending conjunct bounds
    # alone, each with the rows that bound it, as (coefficient, rest, bound)
    bounding: Bounding
    pending: list[Conjunct]          # conjuncts not yet checkable
    # per variable chosen here: the conjuncts it makes checkable, in order,
    # whether each of their rows holds it (then its interval guarantees
    # them), and the level below, filled on first choice
    after: dict[int, tuple[tuple[list[SlotRow], ...], bool, _Level]]


class _Rule(NamedTuple):
    """A clause as one evaluation grounds it: its shape's ``_Compiled`` and
    the values of this instance."""
    clause: Clause
    compiled: _Compiled
    start: list[int]        # the assignment a grounding starts from
    preds: tuple[str, ...]  # the body's predicates, which the kernels read
    clips: bool             # a head constant lies at or beyond the box edge


def _rule(clause: Clause, bound: int) -> _Rule:
    """``clause`` with its shape compiled once per process.  The shape is
    the clause with each variable replaced by its slot and each constant
    left out, in atoms and in conjuncts, and without predicate names; the
    constants' values fill their slots of the start assignment, in the
    order the walk meets them: head, conjuncts, body."""
    slots: dict[str, int] = {}
    values: list[int] = []

    def args(atom: Atom) -> tuple[int | None, ...]:
        # a variable's slot, or None for a constant, whose value is kept
        shape = []
        for t in atom.args:
            if isinstance(t, Var):
                shape.append(slots.setdefault(t.name, len(slots)))
            else:
                shape.append(None)
                values.append(t.value)
        return tuple(shape)

    head = args(clause.head)
    clips = any(abs(value) >= bound for value in values)
    conjuncts = []
    for con in clause.constraint.conjuncts:
        lhs, rhs = con.lhs, con.rhs
        conjuncts.append((
            con.rel,
            tuple([(slots.setdefault(name, len(slots)), c)
                   for name, c in lhs.terms]),
            tuple([(slots.setdefault(name, len(slots)), c)
                   for name, c in rhs.terms])))
        values.append(lhs.const - rhs.const)
    body = tuple([args(atom) for atom in clause.body])
    compiled = _compiled(len(slots), head, tuple(conjuncts), body)
    return _Rule(clause, compiled, compiled.zeros + values,
                 tuple([atom.pred for atom in clause.body]), clips)


class _Compiled:
    """A clause shape compiled (``_rule``): a slot per variable, its index
    in clause order, and after those one per constant, in the order the
    shape meets them, each atom constant and one per arithmetic conjunct;
    the head tuple as a function of the assignment; the body atoms as
    their arguments' slots; per conjunct the slots of the variables it
    names and its <=-rows over slots; and a join plan per delta position,
    compiled on first use.  A conjunct lhs rel rhs has its slot hold
    lhs.const - rhs.const, as a term of coefficient 1 in lhs, so its rows
    are those of ``rows_of`` with each row's constant part a term read from
    the assignment."""
    __slots__ = ("variables", "length", "zeros", "head", "body", "conjuncts",
                 "joins")

    def __init__(self, variables: int, head: tuple[int | None, ...],
                 conjuncts: tuple, body: tuple[tuple[int | None, ...], ...]):
        constants = itertools.count(variables)

        def placed(args: tuple[int | None, ...]) -> tuple[int, ...]:
            return tuple([next(constants) if s is None else s for s in args])

        self.variables = variables
        self.zeros = [0] * variables
        self.head = _tuple_of(placed(head))
        self.conjuncts: list[Conjunct] = []
        for rel, lhs, rhs in conjuncts:
            # slots stand for the names of rows_of
            con = RelCon(rel, LinExpr(lhs + ((next(constants), 1),)),
                         LinExpr(rhs))
            self.conjuncts.append((frozenset(s for s, _ in lhs + rhs),
                                   rows_of(con)))
        self.body = tuple(placed(args) for args in body)
        self.length = next(constants)  # the assignment's
        self.joins: dict[int | None, Callable] = {}

    def join(self, delta_index: int | None) -> Callable:
        plan = self.joins.get(delta_index)
        if plan is None:
            plan = self.joins[delta_index] = _plan(self, delta_index)
        return plan


def _tuple_of(slots: tuple[int, ...]) -> Callable[[list[int]], Fact]:
    """The function from an assignment to the tuple of its values at
    ``slots``; ``itemgetter`` gives a bare value for one slot."""
    if len(slots) == 1:
        (s,) = slots
        return lambda assignment: (assignment[s],)
    return itemgetter(*slots) if slots else lambda assignment: ()


def _plan(compiled: _Compiled, delta_index: int | None) -> Callable:
    variables = compiled.variables
    bound = set(range(variables, compiled.length))  # the constants
    initial, pending = _ready(compiled.conjuncts, bound)
    todo = list(enumerate(compiled.body))
    if delta_index:
        todo.insert(0, todo.pop(delta_index))
    # each atom's unbound arguments, counted down as probes bind slots
    unbound = [0] * len(todo)
    uses: dict[int, list[int]] = {}  # slot -> the atom of each occurrence
    for index, args in todo:
        for s in args:
            if s not in bound:
                unbound[index] += 1
                uses.setdefault(s, []).append(index)
    source = _Source(variables)
    n = 0  # the probes written
    while todo:
        # most-bound atom first keeps the join narrow
        todo.sort(key=lambda pair: unbound[pair[0]])
        index, args = todo.pop(0)
        key, lookup, binds, same = [], [], {}, []
        for p, s in enumerate(args):
            if s in bound:
                key.append(p)
                lookup.append(f"a[{s}]")
            elif s in binds:
                same.append(f"f[{binds[s]}] != f[{p}]")
            else:
                binds[s] = p
        bound |= binds.keys()
        for s in binds:
            for i in uses[s]:
                unbound[i] -= 1
        ready, pending = _ready(pending, bound)
        facts = "L" if index == delta_index else "E"
        source.entry += [f"Q{n} = N[{index}]", f"T{n} = {facts}.table[Q{n}]"]
        source.emit(1, f"def m{n}():")
        source.charge(2, f"len(T{n})")
        if key:
            # the probe key is read as _extend reads the index keys
            value = (lookup[0] if len(lookup) == 1
                     else "(" + "".join(f"{v}, " for v in lookup) + ")")
            source.emit(2, f"for f in {facts}.index(Q{n}, {tuple(key)})"
                           f".get({value}, ()):")
        else:
            source.emit(2, f"for f in T{n}:")
        if same:
            source.emit(3, f"if {' or '.join(same)}: continue")
        if len(binds) > _INLINE:
            source.emit(3, f"for s, p in {source.name(tuple(binds.items()))}:"
                           " a[s] = f[p]")
        else:
            for s, p in binds.items():
                source.emit(3, f"a[{s}] = f[{p}]")
        source.check(3, ready)
        n += 1
        if todo:
            source.emit(3, f"m{n}()")
    level = _level(pending, frozenset(bound),
                   [s for s in range(variables) if s not in bound])
    # the tail runs in the last probe's loop, or in the kernel's body when
    # the clause has no atoms
    d, skip = (3, "continue") if n else (1, "return")
    if len(level.free) == 1:
        # the lone variable, grounded as _choose and _descend would
        (s,) = level.free
        ready, _ = _ready(pending, bound | {s})
        guaranteed = _guaranteed(s, ready)
        if level.bounding:
            # the rows without another variable narrow the interval on
            # entry, the others per fact
            fixed: list[tuple[int, tuple, int]] = []
            moving: list[tuple[int, tuple, int]] = []
            for x in level.bounding[0][1]:
                constant = all(t >= variables for t, _ in x[1])
                (fixed if constant else moving).append(x)
            source.entry += ["LO, HI = -inf, inf",
                             *source.narrow(fixed, "LO", "HI")]
            source.emit(d, "lo, hi = LO, HI")
            for text in source.narrow(moving, "lo", "hi"):
                source.emit(d, text)
        else:
            source.emit(d, "lo, hi = -EDGE, EDGE")
        source.emit(d, f"if lo > hi: {skip}")
        source.emit(d, "if lo < -EDGE or hi > EDGE:")
        source.emit(d + 1, "st.clipped = True")
        source.emit(d + 1, "lo, hi = max(lo, -EDGE), min(hi, EDGE)")
        source.emit(d, "for v in range(lo, hi + 1):")
        source.charge(d + 1, 1 + len(ready) if guaranteed else 1)
        source.emit(d + 1, f"a[{s}] = v")
        if not guaranteed:
            source.check(d + 1, ready)
        source.emit(d + 1, "out.append(head(a))")
        source.emit(d + 1, "if v == EDGE or v == -EDGE: st.clipped = True")
    elif not level.free:
        source.emit(d, "out.append(head(a))")
    else:
        source.emit(d, "_descend(level, a, out, head, st)")
    if n:
        source.emit(1, "m0()")
    return source.kernel(compiled.head, level, initial)


class _Source:
    """The source of a plan's kernel as ``_plan`` writes it.

    ``kernel(a, E, L, st, out, N)`` runs on the assignment, the indexes of
    every fact and of the last round's facts, the ``_State``, the list of
    head tuples and the body's predicate names.  It returns at once unless
    the conjuncts without variables hold (``_holds``).  On entry it reads
    each probe's predicate and table, computes ``Ri``, the bound of row
    ``i`` less its constant terms, for each row (every row reads its
    conjunct's constant slot), and narrows the lone variable's interval by
    its rows without another variable.  Probe ``i`` is the function
    ``mi``: it charges the table, loops over the facts its key finds,
    checks the repeated variables, binds, checks the conjuncts made
    checkable and calls the next probe; after the last come ``_descend``,
    the head or the lone variable, which the kernel's own body runs when
    the clause has no atoms.  A charge adds to ``st.steps``, and
    ``st.tick(0)`` raises once they exceed the budget.  Slots, positions
    and row bounds are written as literals; each coefficient other than 1
    and -1, each group of rows wider than ``_INLINE`` (``_width``) and each
    list of binds longer than that is a name in the kernel's namespace, so
    the source holds no input value and no number too long for ``str``.
    The kernel hands such rows to ``_holds`` or ``_interval``, which
    ``_descend`` and ``_choose`` use, and loops over such binds, so it
    grows with the atoms of its clause, not with their width."""

    def __init__(self, variables: int):
        self.variables = variables  # the first slot of a constant
        self.lines: list[str] = []  # the probe functions
        self.entry: list[str] = []  # the statements run before them
        self.names: dict[str, object] = {}
        self.rows = 0

    def emit(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    def name(self, value: object) -> str:
        name = f"V{len(self.names)}"
        self.names[name] = value
        return name

    def charge(self, depth: int, cost: object) -> None:
        self.emit(depth, f"st.steps += {cost}")
        self.emit(depth, "if st.steps > B: st.tick(0)")

    def total(self, terms) -> str:
        text = "".join(f" + a[{s}]" if c == 1 else f" - a[{s}]" if c == -1
                       else f" + {self.name(c)} * a[{s}]" for s, c in terms)
        return text.removeprefix(" + ").removeprefix(" ") or "0"

    def row(self, terms: tuple[tuple[int, int], ...], r: int) \
            -> tuple[str, str]:
        """The sum of the variable terms of a row and its bound, the ``Ri``
        computed on entry from ``r`` and the row's constant terms."""
        held = [t for t in terms if t[0] < self.variables]
        read = [t for t in terms if t[0] >= self.variables]
        self.entry.append(f"R{self.rows} = {r} - ({self.total(read)})")
        self.rows += 1
        return self.total(held), f"R{self.rows - 1}"

    def check(self, depth: int, conjuncts: tuple[list[SlotRow], ...]) -> None:
        if _width(terms for rows in conjuncts for terms, _ in rows) > _INLINE:
            self.emit(depth, f"if not _holds({self.name(conjuncts)}, a, st):"
                             " continue")
            return
        # as _holds: the first conjunct with a row over its bound fails
        for checked, rows in enumerate(conjuncts, 1):
            self.emit(depth, "if " + " or ".join(
                "{} > {}".format(*self.row(terms, r)) for terms, r in rows)
                + ":")
            self.charge(depth + 1, checked)
            self.emit(depth + 1, "continue")
        if conjuncts:
            self.charge(depth, len(conjuncts))

    def narrow(self, rows: list[tuple[int, tuple, int]], lo: str, hi: str) \
            -> list[str]:
        """The statements that narrow ``[lo, hi]`` by ``rows`` as
        ``_interval`` does."""
        if _width(rest for _, rest, _ in rows) > _INLINE:
            return [f"{lo}, {hi} = _interval({lo}, {hi}, {self.name(rows)}, a)"]
        code = []
        for c, rest, r in rows:
            rest, r = self.row(rest, r)
            if c == 1:
                code.append(f"r = {r} - ({rest})")
            elif c == -1:
                code.append(f"r = {rest} - {r}")
            elif c > 0:
                code.append(f"r = ({r} - ({rest})) // {self.name(c)}")
            else:
                code.append(f"r = -(({rest} - {r}) // {self.name(c)})")
            code.append(f"if r < {hi}: {hi} = r" if c > 0
                        else f"if r > {lo}: {lo} = r")
        return code

    def kernel(self, head: Callable, level: _Level,
               initial: tuple[list[SlotRow], ...]) -> Callable:
        namespace = {**self.names, "head": head, "level": level,
                     "initial": initial, "_holds": _holds,
                     "_interval": _interval, "_descend": _descend, "inf": inf}
        lines = ["def kernel(a, E, L, st, out, N):",
                 "    if not _holds(initial, a, st): return",
                 "    B, EDGE = st.budget, st.bound",
                 *["    " + text for text in self.entry], *self.lines]
        exec(compile("\n".join(lines) + "\n", "<join kernel>", "exec"),
             namespace)
        # taken out, so the function and its globals make no cycle
        return namespace.pop("kernel")


def _width(rows) -> int:
    """How much code writing ``rows`` out takes: one per row and one per
    term."""
    return sum(1 + len(terms) for terms in rows)


def _ready(pending: list[Conjunct], bound: Set[int]) \
        -> tuple[tuple[list[SlotRow], ...], list[Conjunct]]:
    """The rows of the conjuncts checkable once ``bound`` is bound, in
    clause order, and the conjuncts left pending."""
    return (tuple(rows for slots, rows in pending if slots <= bound),
            [con for con in pending if not con[0] <= bound])


def _guaranteed(slot: int, ready: tuple[list[SlotRow], ...]) -> bool:
    """Whether every row of ``ready`` holds ``slot``: those rows then gave
    its interval, so each of its values satisfies them."""
    return all(any(s == slot for s, _ in terms)
               for rows in ready for terms, _ in rows)


def _level(pending: list[Conjunct], bound: frozenset[int],
           free: list[int]) -> _Level:
    """The level at which ``bound`` is bound, ``free`` is not and the
    conjuncts of ``pending`` are left to check."""
    split: dict[int, list[tuple[int, tuple, int]]] = {}
    for slots, rows in pending:
        missing = slots - bound
        if len(missing) == 1:
            (x,) = missing
            for terms, r in rows:
                for s, a in terms:
                    if s == x:
                        rest = tuple((t, c) for t, c in terms if t != x)
                        split.setdefault(x, []).append((a, rest, r))
    return _Level(bound, free, [(v, split[v]) for v in free if v in split],
                  pending, {})


# The clause shapes that stay compiled, the least recently used evicted
# first.  At seed 101 the bench's loop_nest slims to 800 clauses of 5
# shapes, whose plans take 7 kernels, and block_wide to 192 clauses of 4
# shapes and 4 kernels.  The random and frame programs of
# test_evaluator_outcomes_are_pinned look up 5,680 clauses of 840 shapes,
# which compile 814 kernels, so there nothing is evicted.
_CACHED = 1024
# The widest group of rows (_width) and the longest list of binds a kernel
# writes out; a wider one is a name, which _holds checks, _interval
# narrows by or the kernel loops over
_INLINE = 16
_compiled = functools.lru_cache(maxsize=_CACHED)(_Compiled)


def _ground(rule: _Rule, delta_index: int | None,
            everything: _Indexes | None, last: _Indexes | None,
            state: _State) -> list[Fact]:
    """Head tuples of every satisfying clause instantiation; the body atom
    at ``delta_index`` (when given) matches only the facts of ``last``."""
    # values by slot; a slot is read only while the plan has it bound
    assignment = rule.start.copy()
    out: list[Fact] = []
    try:
        # compiles the plan's kernel on first use
        rule.compiled.join(delta_index)(assignment, everything, last, state,
                                        out, rule.preds)
    except RecursionError:
        # one frame per atom and per variable enumerated by _descend; or a
        # kernel nested deeper than the compiler takes
        raise EvalError(f"grounding {rule.clause.head} nests deeper "
                        f"than the recursion limit "
                        f"({sys.getrecursionlimit()})") from None
    if out and rule.clips:
        state.clipped = True
    return out


def _descend(level: _Level, assignment: list[int], out: list[Fact],
             head: Callable[[list[int]], Fact], state: _State) -> None:
    """Bind the narrowest of the level's free variables, of which there is
    at least one, to each value of its interval in turn, check the
    conjuncts that become checkable unless the interval guarantees them,
    then append the head tuple of ``assignment`` to ``out`` once every
    variable is bound, or go a level down.  A fact derived below a value
    at the box edge sets ``clipped``."""
    edge = state.bound
    s, lo, hi = _choose(level.bounding, level.free[0], assignment, state)
    step = level.after.get(s)
    if step is None:
        bound = level.bound | {s}
        ready, pending = _ready(level.pending, bound)
        step = level.after[s] = ready, _guaranteed(s, ready), _level(
            pending, bound, [v for v in level.free if v != s])
    ready, guaranteed, below = step
    cost = 1 + len(ready) if guaranteed else 1
    watch = not state.clipped and (lo == -edge or hi == edge)
    for value in range(lo, hi + 1):
        state.tick(cost)
        assignment[s] = value
        if guaranteed or _holds(ready, assignment, state):
            emitted = len(out)
            if below.free:
                _descend(below, assignment, out, head, state)
            else:
                out.append(head(assignment))
            if (watch and len(out) > emitted
                    and (value == edge or value == -edge)):
                state.clipped = True


def _holds(conjuncts: tuple[list[SlotRow], ...], assignment: list[int],
           state: _State) -> bool:
    """Whether ``assignment`` satisfies every row of ``conjuncts``.  It
    charges one step per conjunct checked, up to the first that fails."""
    for checked, rows in enumerate(conjuncts, 1):
        for terms, r in rows:
            for s, c in terms:
                r -= c * assignment[s]
            if r < 0:
                state.tick(checked)
                return False
    state.tick(len(conjuncts))
    return True


def _interval(lo: float, hi: float, rows: list[tuple[int, tuple, int]],
              assignment: list[int]) -> tuple[float, float]:
    """``[lo, hi]`` narrowed by each row a*x + rest <= r of ``rows``: it
    gives x <= floor((r-rest)/a) when a > 0 and x >= ceil((r-rest)/a) when
    a < 0."""
    for a, rest, r in rows:
        for s, c in rest:
            r -= c * assignment[s]
        if a > 0:
            r //= a
            if r < hi:
                hi = r
        else:
            r = -(-r // a)
            if r > lo:
                lo = r
    return lo, hi


def _choose(bounding: Bounding, default: int, assignment: list[int],
            state: _State) -> tuple[int, int, int]:
    """The variable with the narrowest interval (``_interval``) among those
    of ``bounding`` (``_Level.bounding``), or ``default`` over the whole
    domain when there are none.  A variable left with no value is chosen at
    once: it enumerates nothing, so no value is lost to the cut."""
    edge = state.bound
    best: tuple[int, int, int, int, bool] | None = None
    for s, rows in bounding:
        lo, hi = _interval(-inf, inf, rows, assignment)
        if lo > hi:
            return s, lo, hi
        truncated = lo < -edge or hi > edge
        if truncated:
            lo, hi = max(lo, -edge), min(hi, edge)
        if best is None or hi - lo < best[0]:
            best = (hi - lo, s, lo, hi, truncated)
    if best is None:
        return default, -edge, edge
    _, s, lo, hi, truncated = best
    if truncated:
        state.clipped = True
    return s, lo, hi
