"""Bounded bottom-up evaluation of clause programs.

Facts are computed semi-naively over the finite domain [-B, B]: each round
grounds every clause with at least one body atom matched against the facts
new in the previous round.  Each clause is compiled once per evaluation.
Its variables are addressed by slot, their index in clause order, and each
distinct constant of its atoms gets one more slot, which holds its value.
Each conjunct becomes the integer <=-rows of the constraint oracle
(``constraints.rows_of``) over slots, so the evaluator has no reading of
the relations of its own.  A grounding's assignment is a list indexed by
slot, allocated once per call: binding a variable writes its slot, nothing
unbinds it, and a probe key or a head tuple is read from the list,
constants included.

For each body position that takes the last round's facts, the clause gets
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
each level of this phase is built once per evaluation, on the first path
that reaches it, and the plan holds the level after the atoms.  A level
holds the slots bound at it, and it folds the rows that hold no other
variable into one interval per variable.  When every row of the
conjuncts a chosen variable makes checkable holds that variable, those
rows are the ones that gave its interval, so its values satisfy them and
they are not evaluated again.  (A conjunct names its cancelled variables
too: no row of X+Y=X+2 holds X.)

When the atoms leave exactly one variable free, as in a transition clause
``p(N,I) :- ..., J=I+2, p(N,J)``, that level has one candidate and every
pending conjunct becomes checkable with it, so the plan builds its step
with the atoms'.  The loop over the last atom's facts then grounds the
variable itself: its interval (the arithmetic of ``_interval``, which
``_choose`` uses), the same emptiness and truncation rules, the same charge
per value, and the head tuples.

The atoms phase of a plan, lone variable included, runs as a kernel: a
Python function generated from the plan (``_source``).  Each probe is
written out as straight-line code over the assignment list: its table
charge, its index lookup, its repeated-variable check, its binds and the
rows of the conjuncts made checkable.  Then come the next probe, the lone
variable's interval rows, truncation, charge and head, or ``_descend``.
Each probe is a function of its own that calls the next for every
surviving fact, so no kernel nests more than a few blocks.  Every value
taken from the input is passed in as a parameter: predicate names, row
bounds, coefficients other than 1 and -1 and the lone interval ends.  So
is every slot list but the binds: a probe's key positions, with the
``itemgetter`` that reads its key from the assignment as ``_extend``
reads the index keys from the facts, the two ``itemgetter`` whose values
at a fact must agree for its repeated variables, and the head tuple,
``_Compiled.head``.  A group of rows wider than ``_INLINE`` (``_width``),
and a list of binds longer than that, is a parameter too, which the
kernel hands to ``_holds`` or ``_interval`` or loops over, so a kernel
grows with the atoms of its clause, not with their width.  So a kernel
depends only on its plan's shape, and kernels are cached by shape in one
process-wide cache of ``_KERNELS`` entries.  The first plan of a shape
pays for a compile, about 0.2-0.6 ms for kernels of 10 to 35 lines;
every clause and problem of that shape after it reuses the function.
That pays off where shapes repeat, as in a batch of problems from one
translator, and costs time where they do not (a single small program, or
programs drawn at random).

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
  per clause, ``_Compiled.clips``).

Every fact is derived through these checks, so while a run is unclipped
no fact holds a value at or beyond the edge, and a value bound from a fact
needs no check.  An unclipped run is exact, so the query verdict can be
trusted; a clipped one only certifies derivations, not their absence.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Set
from dataclasses import dataclass
from functools import lru_cache
from math import inf
from operator import itemgetter
from typing import NamedTuple

from .constraints import TriState, rows_of
from .syntax import QUERY, Clause, Const, Program, Term, Var

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
    rules = [_Compiled(c, bound) for c in prog.clauses]
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
Bounding = list[tuple[int, float, float, list[tuple[int, tuple, int]]]]


class _Level(NamedTuple):
    """The variable phase once the atoms' variables and those chosen on the
    way down are bound, built by ``_level``."""
    bound: frozenset[int]            # the slots bound, constants' included
    free: list[int]                  # unbound variables, in clause order
    # the free variables, in that order, that a pending conjunct bounds
    # alone, each with the interval its rows without another variable give
    # and its other rows split into (coefficient, rest, bound)
    bounding: Bounding
    pending: list[Conjunct]          # conjuncts not yet checkable
    # per variable chosen here: the conjuncts it makes checkable, in order,
    # whether each of their rows holds it (then its interval guarantees
    # them), and the level below, filled on first choice
    after: dict[int, tuple[tuple[list[SlotRow], ...], bool, _Level]]


class _Join(NamedTuple):
    """A clause's grounding with one body position as the delta atom."""
    initial: tuple[list[SlotRow], ...]   # conjuncts without variables
    level: _Level                    # the variable phase after the atoms
    kernel: Callable | None          # the atoms phase; None without atoms
    params: tuple                    # the input values the kernel reads


class _Compiled:
    """A clause compiled once per evaluation: a slot per variable, its index
    in clause order, and after those one per distinct constant of the
    atoms; the assignment a grounding starts from, which holds each
    constant's value in its slot; the head tuple as a function of the
    assignment; whether a head constant lies at or beyond the box edge;
    per arithmetic conjunct the slots it names and its <=-rows over slots;
    and a join plan per delta position, compiled on first use."""
    __slots__ = ("clause", "slot", "variables", "start", "head", "bound",
                 "clips", "conjuncts", "joins")

    def __init__(self, clause: Clause, bound: int):
        self.clause = clause
        # a variable's name or a constant's value to its slot
        slot: dict[str | int, int] = {
            name: i for i, name in enumerate(clause.vars())}
        self.variables = len(slot)
        for atom in (clause.head, *clause.body):
            for t in atom.args:
                if isinstance(t, Const):
                    slot.setdefault(t.value, len(slot))
        self.slot = slot
        self.start = [0] * self.variables + list(slot)[self.variables:]
        self.head = _tuple_of(tuple(self.slot_of(t) for t in clause.head.args))
        self.bound = bound
        self.clips = any(isinstance(t, Const) and abs(t.value) >= bound
                         for t in clause.head.args)
        self.conjuncts: list[Conjunct] = [
            (frozenset(slot[name] for name in con.vars()),
             [(tuple((slot[name], c) for name, c in terms), r)
              for terms, r in rows_of(con)])
            for con in clause.constraint.conjuncts]
        self.joins: dict[int | None, _Join] = {}

    def slot_of(self, t: Term) -> int:
        return self.slot[t.name if isinstance(t, Var) else t.value]

    def join(self, delta_index: int | None) -> _Join:
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


def _plan(compiled: _Compiled, delta_index: int | None) -> _Join:
    slot_of, variables = compiled.slot_of, compiled.variables
    bound = set(range(variables, len(compiled.start)))  # the constants
    initial, pending = _ready(compiled.conjuncts, bound)
    todo = list(enumerate(compiled.clause.body))
    if delta_index:
        todo.insert(0, todo.pop(delta_index))
    # each atom's unbound arguments, counted down as probes bind slots
    unbound = [0] * len(todo)
    uses: dict[int, list[int]] = {}  # slot -> the atom of each occurrence
    for index, atom in todo:
        for t in atom.args:
            s = slot_of(t)
            if s not in bound:
                unbound[index] += 1
                uses.setdefault(s, []).append(index)
    params: list = []

    def param(value) -> str:
        params.append(value)
        return f"P{len(params) - 1}"

    probes = []
    while todo:
        # most-bound atom first keeps the join narrow
        todo.sort(key=lambda pair: unbound[pair[0]])
        index, atom = todo.pop(0)
        key, lookup, binds, firsts, repeats = [], [], {}, [], []
        for p, t in enumerate(atom.args):
            s = slot_of(t)
            if s in bound:
                key.append(p)
                lookup.append(s)
            elif s in binds:
                firsts.append(binds[s])
                repeats.append(p)
            else:
                binds[s] = p
        bound |= binds.keys()
        for s in binds:
            for i in uses[s]:
                unbound[i] -= 1
        ready, pending = _ready(pending, bound)
        binds = tuple(binds.items())
        # the probe key is read as _extend reads the index keys
        probes.append((param(atom.pred), index == delta_index,
                       (param(tuple(key)), param(itemgetter(*lookup)))
                       if key else None,
                       binds if len(binds) <= _INLINE else param(binds),
                       (param(itemgetter(*firsts)),
                        param(itemgetter(*repeats))) if repeats else None,
                       _shaped(ready, param)))
    level = _level(pending, frozenset(bound),
                   [s for s in range(variables) if s not in bound])
    if not probes:
        return _Join(initial, level, None, ())
    lone = None
    if len(level.free) == 1:
        (s,) = level.free
        if level.bounding:
            ((_, lo, hi, rows),) = level.bounding
        else:
            lo, hi, rows = -compiled.bound, compiled.bound, []
        ready, _ = _ready(pending, bound | {s})
        guaranteed = _guaranteed(s, ready)
        if _width(rest for _, rest, _ in rows) > _INLINE:
            shaped = param(rows)
        else:
            shaped = tuple((a > 0, a if a == 1 or a == -1 else param(a),
                            _terms(rest, param), param(r))
                           for a, rest, r in rows)
        lone = (s, param(lo), param(hi), shaped,
                () if guaranteed else _shaped(ready, param),
                1 + len(ready) if guaranteed else 1)
    shape = (len(params), tuple(probes), lone, not level.free)
    return _Join(initial, level, _kernel(shape), tuple(params))


def _terms(terms: tuple[tuple[int, int], ...], param) -> tuple:
    """``terms`` with each coefficient other than 1 and -1 named by a
    parameter."""
    for _, c in terms:
        if c != 1 and c != -1:
            return tuple(t if t[1] == 1 or t[1] == -1 else (t[0], param(t[1]))
                         for t in terms)
    return terms


def _width(rows) -> int:
    """How much code writing ``rows`` out takes: one per row and one per
    term."""
    return sum(1 + len(terms) for terms in rows)


def _shaped(conjuncts: tuple[list[SlotRow], ...], param) -> tuple | str:
    """The shape of ``conjuncts``: their rows with ``_terms`` and each bound
    named by a parameter; or, when they are wider than ``_INLINE``, the
    parameter that holds them all."""
    if _width(terms for rows in conjuncts for terms, _ in rows) > _INLINE:
        return param(conjuncts)
    return tuple(tuple((_terms(terms, param), param(r)) for terms, r in rows)
                 for rows in conjuncts)


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
    bounding = []
    for v in free:
        rows = split.get(v)
        if rows:
            lo = max((-(-r // a) for a, rest, r in rows if a < 0 and not rest),
                     default=-inf)
            hi = min((r // a for a, rest, r in rows if a > 0 and not rest),
                     default=inf)
            bounding.append((v, lo, hi, [row for row in rows if row[1]]))
    return _Level(bound, free, bounding, pending, {})


# The shapes whose kernels stay compiled.  At seed 101 the bench's loop_nest
# serves 768 plans from 6 shapes and block_wide 168 from 3; the random and
# frame programs of test_evaluator_outcomes_are_pinned ask for 3,485 plans
# of 350 shapes, so there the cache evicts and 355 plans compile.
_KERNELS = 256
# The widest group of rows (_width) and the longest list of binds a kernel
# writes out; a wider one is a parameter, which _holds checks, _interval
# narrows by or the kernel loops over
_INLINE = 16


@lru_cache(maxsize=_KERNELS)
def _kernel(shape: tuple) -> Callable:
    """The kernel of a plan's atoms phase with this shape: the ``kernel``
    function ``_source(shape)`` defines, compiled once per process."""
    namespace = {"_holds": _holds, "_interval": _interval,
                 "_descend": _descend}
    exec(compile(_source(shape), "<join kernel>", "exec"), namespace)
    return namespace["kernel"]


def _source(shape: tuple) -> str:
    """The Python source of a kernel.  The shape, built by ``_plan``, is

    - the number of parameters;
    - per probe, in join order: the parameter naming its predicate, whether
      it matches the last round's facts, the parameters of its key
      positions and of the ``itemgetter`` that reads its key from the
      assignment (or None without a key), its (slot, position) binds, the
      parameters of two ``itemgetter`` whose values at a fact must agree
      for its repeated variables (or None) and the conjuncts made checkable
      after it;
    - the lone variable, or None: its slot, the parameters of its interval
      ends, its other rows as (a > 0, a, rest, bound), the conjuncts it
      makes checkable unless its interval guarantees them, and its charge
      per value;
    - whether the atoms bind every variable.

    A conjunct is a tuple of rows (terms, bound), a term is (slot,
    coefficient), and each bound and each coefficient other than 1 and -1
    is a parameter, so the shape and the source hold no input value.  A
    group of rows wider than ``_INLINE`` is instead the name of the
    parameter that holds it, and the kernel calls ``_holds`` or
    ``_interval`` on it, the functions ``_descend`` and ``_choose`` use; so
    are binds longer than that, which the kernel loops over.

    ``kernel(a, E, L, st, out, head, level, P)`` runs on the assignment,
    the indexes of every fact and of the last round's facts, the
    ``_State``, the list of head tuples, the head tuple as a function of
    the assignment, the plan's level and the parameters.  Probe ``i`` is
    the function ``mi``: it charges the table, loops over the facts its key
    finds, checks the repeated variables, binds, checks the conjuncts made
    checkable and calls the next probe; after the last come ``_descend``,
    the head or the lone variable, grounded as ``_choose`` and
    ``_descend`` would ground it.  A charge adds to ``st.steps``, and
    ``st.tick(0)`` raises once they exceed the budget."""
    count, probes, lone, emits = shape
    lines = ["def kernel(a, E, L, st, out, head, level, P):",
             "    " + "".join(f"P{i}, " for i in range(count)) + "= P",
             "    B, EDGE = st.budget, st.bound"]

    def emit(depth: int, text: str) -> None:
        lines.append("    " * depth + text)

    def charge(depth: int, cost: object) -> None:
        emit(depth, f"st.steps += {cost}")
        emit(depth, "if st.steps > B: st.tick(0)")

    def total(terms: tuple) -> str:
        text = "".join(f" + a[{s}]" if c == 1 else f" - a[{s}]" if c == -1
                       else f" + {c} * a[{s}]" for s, c in terms)
        return text.removeprefix(" + ").removeprefix(" ") or "0"

    def check(depth: int, conjuncts: tuple | str) -> None:
        if isinstance(conjuncts, str):
            emit(depth, f"if not _holds({conjuncts}, a, st): continue")
            return
        # as _holds: the first conjunct with a row over its bound fails
        for checked, rows in enumerate(conjuncts, 1):
            emit(depth, "if " + " or ".join(f"{total(terms)} > {r}"
                                            for terms, r in rows) + ":")
            charge(depth + 1, checked)
            emit(depth + 1, "continue")
        if conjuncts:
            charge(depth, len(conjuncts))

    for i, (pred, delta, key, binds, same, ready) in enumerate(probes):
        facts = "L" if delta else "E"
        emit(1, f"T{i} = {facts}.table[{pred}]")
        emit(1, f"def m{i}():")
        charge(2, f"len(T{i})")
        if key:
            positions, values = key
            emit(2, f"for f in {facts}.index({pred}, {positions})"
                    f".get({values}(a), ()):")
        else:
            emit(2, f"for f in T{i}:")
        if same:
            emit(3, f"if {same[0]}(f) != {same[1]}(f): continue")
        if isinstance(binds, str):
            emit(3, f"for s, p in {binds}: a[s] = f[p]")
        else:
            for s, p in binds:
                emit(3, f"a[{s}] = f[{p}]")
        check(3, ready)
        if i + 1 < len(probes):
            emit(3, f"m{i + 1}()")
        elif lone:
            x, lo, hi, rows, after, cost = lone
            if isinstance(rows, str):
                emit(3, f"lo, hi = _interval({lo}, {hi}, {rows}, a)")
            else:
                emit(3, f"lo, hi = {lo}, {hi}")
                for positive, c, rest, r in rows:  # as _interval
                    rest = total(rest)
                    if c == 1:
                        emit(3, f"r = {r} - ({rest})")
                    elif c == -1:
                        emit(3, f"r = {rest} - {r}")
                    elif positive:
                        emit(3, f"r = ({r} - ({rest})) // {c}")
                    else:
                        emit(3, f"r = -(({rest} - {r}) // {c})")
                    emit(3, "if r < hi: hi = r" if positive
                         else "if r > lo: lo = r")
            emit(3, "if lo > hi: continue")
            emit(3, "if lo < -EDGE or hi > EDGE:")
            emit(4, "st.clipped = True")
            emit(4, "lo, hi = max(lo, -EDGE), min(hi, EDGE)")
            emit(3, "for v in range(lo, hi + 1):")
            charge(4, cost)
            emit(4, f"a[{x}] = v")
            check(4, after)
            emit(4, "out.append(head(a))")
            emit(4, "if v == EDGE or v == -EDGE: st.clipped = True")
        elif emits:
            emit(3, "out.append(head(a))")
        else:
            emit(3, "_descend(level, a, out, head, st)")
    emit(1, "m0()")
    return "\n".join(lines) + "\n"


def _ground(compiled: _Compiled, delta_index: int | None,
            everything: _Indexes | None, last: _Indexes | None,
            state: _State) -> list[Fact]:
    """Head tuples of every satisfying clause instantiation; the body atom
    at ``delta_index`` (when given) matches only the facts of ``last``."""
    # values by slot; a slot is read only while the plan has it bound
    assignment = compiled.start.copy()
    out: list[Fact] = []
    try:
        join = compiled.join(delta_index)  # compiles its kernel on first use
        if _holds(join.initial, assignment, state):
            if join.kernel is None:
                _descend(join.level, assignment, out, compiled.head, state)
            else:
                join.kernel(assignment, everything, last, state, out,
                            compiled.head, join.level, join.params)
    except RecursionError:
        # one frame per atom and per variable enumerated by _descend; or a
        # kernel nested deeper than the compiler takes
        raise EvalError(f"grounding {compiled.clause.head} nests deeper "
                        f"than the recursion limit "
                        f"({sys.getrecursionlimit()})") from None
    if out and compiled.clips:
        state.clipped = True
    return out


def _descend(level: _Level, assignment: list[int], out: list[Fact],
             head: Callable[[list[int]], Fact], state: _State) -> None:
    """Append the head tuple of ``assignment`` to ``out`` once every
    variable is bound; else bind the narrowest variable to each value of
    its interval in turn, check the conjuncts that become checkable unless
    the interval guarantees them, then go a level down.  A fact derived
    below a value at the box edge sets ``clipped``."""
    if not level.free:
        out.append(head(assignment))
        return
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
    for s, lo, hi, rows in bounding:
        lo, hi = _interval(lo, hi, rows, assignment)
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
