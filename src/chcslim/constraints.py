"""Decision procedures over conjunctions of integer linear constraints.

Satisfiability and universal-existential validity are both answered by
``_projects_to_true``, which projects variables away over the integers in
two phases.  Every row is kept divided by the gcd of its coefficients, its
bound rounded down, as the Omega test normalises rows; that keeps its
integer solutions and turns 2*X=7 into a contradiction.  First each
equality with a +-1 coefficient on a variable to project is solved for it
and substituted away, as in the first phase of Pugh's Omega test; this is
always exact, since the variable is then an integer expression in the
others.  Then Fourier-Motzkin elimination runs on the rows left.  A step
is exact when every occurrence of the eliminated variable has coefficient
+-1 (the bounds seen during back-substitution are then integer-valued, so
rational and integer projections coincide), or when the variable is
bounded on one side only; otherwise the run is marked inexact and only
refutations remain trustworthy, because a rationally infeasible system has
no integer solutions either.  Strict relations are first shifted to closed
ones (a < b becomes a <= b-1), which is lossless over the integers.

Inside an ``answers_once`` block (one per problem in the pipeline, one
per ``cfar_transform`` call, never longer) each question is answered once.
The key is the rows ``rows_of`` compiles and the variable kept, all that
``_eliminate``, the one uncached routine, reads; it is exact, not taken
up to renaming, since the elimination order breaks ties by name.

``Parts`` splits a conjunction once into its variable-disjoint parts.  It
gives each variable's linked set (the constrained-to relation) and its own
part, and decides each part's satisfiability at most once, so a caller
asking about every variable of one conjunction runs the eliminator on each
part once, not on the rest of the conjunction once per variable.

``project`` rewrites a split conjunction c into one with the same
solutions on a given set of live variables: for every assignment of the
live variables, c has a solution for the others exactly when the result
has.  It uses only steps that are exact over the integers, part by part.
A part without a live variable is a closed formula, so its oracle answer
settles it.  A unit equality is a substitution, as in the Omega test's
first phase.  A variable bounded on one side only, in inequalities alone,
can always be pushed far enough to satisfy them, so they go with it.
Whatever the rules do not reach is kept as it was, never approximated.

Array pseudo-constraints are opaque: they connect their variables for the
constrained-to relation, force ``unknown`` answers from the oracle and
keep their variables out of ``project``'s reach.
"""

from __future__ import annotations

import enum
from contextlib import contextmanager
from math import gcd

from .syntax import ArrayCon, Constraint, LinExpr, RelCon

# Safety valve for Fourier-Motzkin blowup; conjunctions in verification
# conditions stay far below this.
ROW_BUDGET = 20000


class TriState(enum.Enum):
    HOLDS = "holds"
    FAILS = "fails"
    UNKNOWN = "unknown"

    def __bool__(self) -> bool:  # pragma: no cover - guard against misuse
        raise TypeError("TriState is not a boolean; compare explicitly")


class Parts:
    """A conjunction split once into its variable-disjoint parts.

    Two conjuncts share a part when a chain of conjuncts sharing variables
    links them; a conjunct without variables is a part of its own.  Each
    part keeps the conjunct order of the whole, ``part_of`` gives each
    conjunct's part, ``names`` each part's variables, and each part's
    satisfiability is decided at most once, when an answer first needs it.
    """

    def __init__(self, c: Constraint) -> None:
        parent: dict[str, str] = {}

        def find(x: str) -> str:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        names = [con.vars() for con in c.conjuncts]
        for group in names:
            first = next(iter(group), None)
            for n in group:
                parent.setdefault(n, n)
                parent[find(n)] = find(first)
        index: dict[object, int] = {}
        groups: list[list] = []
        self.whole = c
        self.part_of: list[int] = []
        for i, (con, group) in enumerate(zip(c.conjuncts, names)):
            # a conjunct without variables is keyed by its own position
            j = index.setdefault(find(min(group)) if group else i, len(groups))
            if j == len(groups):
                groups.append([])
            groups[j].append(con)
            self.part_of.append(j)
        self.parts = [Constraint(tuple(cons)) for cons in groups]
        self.names = [frozenset(part.vars()) for part in self.parts]
        self._part: dict[str, int] = {}
        for i, linked in enumerate(self.names):
            for n in linked:
                self._part[n] = i
        self._answers: dict[int, TriState] = {}

    def linked(self, x: str) -> frozenset[str]:
        """The variables of x's part; just x when x does not occur."""
        i = self._part.get(x)
        return frozenset((x,)) if i is None else self.names[i]

    def own(self, x: str) -> Constraint:
        """x's part; empty when x does not occur."""
        i = self._part.get(x)
        return Constraint() if i is None else self.parts[i]

    def others_satisfiable(self, x: str) -> bool:
        """True when every part without x is satisfiable (``holds``)."""
        own = self._part.get(x)
        return all(self.decide(i) is TriState.HOLDS
                   for i in range(len(self.parts)) if i != own)

    def decide(self, i: int) -> TriState:
        """``is_satisfiable`` of part i, asked at most once."""
        if i not in self._answers:
            self._answers[i] = is_satisfiable(self.parts[i])
        return self._answers[i]


def project(parts: Parts, live: set[str]) -> Constraint | None:
    """The conjunction split by ``parts`` with the variables outside
    ``live`` projected away where that is exact over the integers; None
    when the conjunction is unsatisfiable.

    Each part is taken alone.  A part whose variables are all live is kept
    as it is.  A part without a live variable is a closed existential
    formula: its ``decide`` answer deletes it (``holds``), makes the whole
    unsatisfiable (``fails``) or keeps it (``unknown``).  In any other
    part, the local variables (not live, in no array constraint) go by two
    rules, each exact:

    - an ``=`` conjunct in which a local variable has coefficient +-1 is
      solved for it, the solution (an integer expression) is substituted
      into the part's other conjuncts and the conjunct is deleted, until
      no such conjunct is left; a conjunct the substitution leaves without
      variables is deleted when true and makes the whole unsatisfiable
      when false;
    - a local variable that then occurs only in inequalities bounding it
      on one side is deleted with them, since a value far enough to that
      side satisfies them all, until no such variable is left.

    No Fourier-Motzkin step runs, so a variable in two-sided inequalities
    or in a non-unit equality alone stays.  Every conjunct keeps its place
    in the input order; one the substitution rewrote is written with its
    positive terms on the left.  With nothing to project the result is
    the input itself.
    """
    projected: dict[int, list] = {}  # part -> its conjuncts, None if deleted
    for i, names in enumerate(parts.names):
        conjuncts = parts.parts[i].conjuncts
        if names.isdisjoint(live):
            answer = parts.decide(i)
            if answer is TriState.FAILS:
                return None
            if answer is TriState.HOLDS:
                projected[i] = [None] * len(conjuncts)
            continue
        if names <= live:
            continue
        cons: list = list(conjuncts)
        local = set(names - live)
        # lhs - rhs of each relational conjunct left, as [{var: coeff}, const]
        rows: list = []
        for con in conjuncts:
            if isinstance(con, ArrayCon):
                local -= con.vars()
                rows.append(None)
            else:
                terms, const = _difference(con)
                rows.append([dict(terms), const])
        rewritten = set()
        solved = True
        while solved:
            solved = False
            for j, row in enumerate(rows):
                if row is None or cons[j].rel != "=":
                    continue
                coeffs, const = row
                var = next((n for n, k in coeffs.items()
                            if n in local and (k == 1 or k == -1)), None)
                if var is None:
                    continue
                cons[j] = rows[j] = None
                local.discard(var)
                solved = True
                for o, other in enumerate(rows):
                    if other is None or var not in other[0]:
                        continue
                    # adding f times the solved row cancels var, as f*k = -c
                    f = -other[0][var] * coeffs[var]
                    for n, k in coeffs.items():
                        k = other[0].get(n, 0) + f * k
                        if k:
                            other[0][n] = k
                        else:
                            del other[0][n]
                    other[1] += f * const
                    rewritten.add(o)
                    if not other[0]:
                        if not _ZERO_TEST[cons[o].rel](other[1]):
                            return None
                        cons[o] = rows[o] = None
        dropped = True
        while dropped:
            dropped = False
            for var in sorted(local):
                sides, at = set(), []
                for j, row in enumerate(rows):
                    if row is None or var not in row[0]:
                        continue
                    if cons[j].rel == "=":
                        break
                    sides.add((row[0][var] > 0) == (cons[j].rel in ("<", "=<")))
                    at.append(j)
                else:
                    if len(sides) == 1:
                        for j in at:
                            cons[j] = rows[j] = None
                        local.discard(var)
                        dropped = True
        for j in rewritten:
            if cons[j] is not None:
                cons[j] = _written(cons[j].rel, *rows[j])
        if rewritten or None in cons:
            projected[i] = cons
    if not projected:
        return parts.whole
    out, taken = [], dict.fromkeys(projected, 0)
    for con, i in zip(parts.whole.conjuncts, parts.part_of):
        if i in projected:
            con = projected[i][taken[i]]
            taken[i] += 1
        if con is not None:
            out.append(con)
    return Constraint(tuple(out))


# whether d rel 0 holds, for a conjunct lhs rel rhs with d = lhs - rhs
_ZERO_TEST = {"=": lambda d: d == 0, "<": lambda d: d < 0,
              "=<": lambda d: d <= 0, ">": lambda d: d > 0,
              ">=": lambda d: d >= 0}
_MIRRORED = {"=": "=", "<": ">", "=<": ">=", ">": "<", ">=": "=<"}


def _difference(con: RelCon) -> Row:
    """lhs - rhs of a relational conjunct, as (terms, constant)."""
    return _combine((con.lhs.terms, con.lhs.const), 1,
                    (con.rhs.terms, con.rhs.const), -1)


def _written(rel: str, coeffs: dict[str, int], const: int) -> RelCon:
    """The conjunct sum(coeff * var) + const rel 0, with the positive terms
    on the left and the rest on the right; negated first when no term is
    positive."""
    if all(k < 0 for k in coeffs.values()):
        coeffs = {n: -k for n, k in coeffs.items()}
        const, rel = -const, _MIRRORED[rel]
    return RelCon(rel, LinExpr(tuple((n, k) for n, k in coeffs.items() if k > 0)),
                  LinExpr(tuple((n, -k) for n, k in coeffs.items() if k < 0),
                          -const))


def constrained_to(x: str, y: str, c: Constraint) -> bool:
    """True when x and y are distinct variables linked by a chain of
    conjuncts sharing variables.  Irreflexive by convention; monotone under
    adding conjuncts."""
    return x != y and y in Parts(c).linked(x)


# --- Fourier-Motzkin over integer rows -----------------------------------

# A row is (coeffs, bound) meaning sum(coeff * var) <= bound.
Row = tuple[tuple[tuple[str, int], ...], int]


def rows_of(c: Constraint) -> list[Row] | None:
    """Compile conjuncts to <=-rows; None when array constraints occur.

    Each conjunct is subtracted once, d = lhs - rhs with ``lhs``'s
    variables first and zero coefficients dropped: ``=``, ``=<`` and ``<``
    give the row d <= 0, ``=``, ``>=`` and ``>`` give -d <= 0, and a strict
    relation tightens its row's bound by 1.
    """
    rows: list[Row] = []
    for con in c.conjuncts:
        if isinstance(con, ArrayCon):
            return None
        terms, const = _difference(con)
        shift = -1 if con.rel in ("<", ">") else 0
        if con.rel in ("=", "=<", "<"):
            rows.append((terms, shift - const))
        if con.rel in ("=", ">=", ">"):
            rows.append((tuple((n, -k) for n, k in terms), shift + const))
    return rows


class _Refuted(Exception):
    """A row without variables that no assignment satisfies was derived."""


class _System:
    """Rows under projection, with one occurrence map kept up to date.

    Each row is divided by the gcd g of its coefficients, its bound
    rounded down: sum(a*x) <= b becomes sum((a/g)*x) <= floor(b/g), which
    has the same integer solutions (the normalisation step of Pugh's Omega
    test).  Rows with equal terms are then merged into the least bound,
    through their sorted terms as keys; a constant row is dropped when
    vacuous and raises ``_Refuted`` otherwise.  ``occ`` maps each variable
    to its {row index: coefficient}.  A removed row leaves None behind and
    keeps its key: it held the variable just eliminated, so no later row
    has that key.
    """

    __slots__ = ("rows", "keys", "occ", "size")

    def __init__(self, rows: list[Row]) -> None:
        self.rows: list[Row | None] = []
        self.keys: dict[tuple, int] = {}
        self.occ: dict[str, dict[int, int]] = {}
        self.size = 0  # live rows
        for terms, bound in rows:
            self.add(terms, bound)

    def add(self, terms, bound: int) -> None:
        if not terms:
            if bound < 0:
                raise _Refuted
            return  # 0 <= nonnegative is vacuous
        g = 0
        for _, k in terms:  # most rows stop at their first, unit, coefficient
            g = gcd(g, k)
            if g == 1:
                break
        else:
            terms = tuple([(name, k // g) for name, k in terms])
            bound //= g
        key = tuple(sorted(terms))
        i = self.keys.get(key)
        if i is None:
            self.keys[key] = i = len(self.rows)
            self.rows.append((terms, bound))
            for name, k in terms:
                at = self.occ.get(name)
                if at is None:
                    self.occ[name] = {i: k}
                else:
                    at[i] = k
            self.size += 1
        elif bound < self.rows[i][1]:
            self.rows[i] = (terms, bound)

    def remove(self, i: int) -> Row:
        """Take row i out of the system."""
        row = self.rows[i]
        for name, _ in row[0]:
            at = self.occ.get(name)
            if at is not None:  # None for the variable being eliminated
                del at[i]
        self.rows[i] = None
        self.size -= 1
        return row

    def substitute(self, drop: list[str]) -> None:
        """Solve equalities away, exactly over the integers.

        An equality is a row whose exact negation, with its bound negated,
        is also a row; it is taken out of the system as one row
        sum(coeff * var) = bound.  Equalities are taken in the order of
        their sorted terms, so the choices depend neither on the order of
        the conjuncts nor on the other variable-disjoint parts.  Each is
        solved for its first variable in ``drop`` order with coefficient
        +-1, and the solution is substituted into only the rows and the
        equalities holding that variable.  The equalities left without such
        a variable go back as their two rows, for Fourier-Motzkin.
        """
        pairs = []
        for key, i in self.keys.items():
            if key[0][1] > 0:
                neg = tuple([(n, -k) for n, k in key])
                j = self.keys.get(neg)
                if j is not None and self.rows[j][1] == -self.rows[i][1]:
                    pairs.append((key, neg, i, j))
        if not pairs:
            return
        pairs.sort()
        rank = {v: r for r, v in enumerate(drop)}
        eqs: list[list | None] = []  # [coeffs, bound]: sum(coeff*var) = bound
        eq_occ: dict[str, set[int]] = {}
        for key, neg, i, j in pairs:
            del self.keys[key], self.keys[neg]
            self.remove(j)
            terms, bound = self.remove(i)
            for name, _ in terms:
                eq_occ.setdefault(name, set()).add(len(eqs))
            eqs.append([dict(terms), bound])
        for e, eq in enumerate(eqs):
            if eq is None:
                continue
            coeffs, bound = eq
            unit = [rank[n] for n, k in coeffs.items()
                    if (k == 1 or k == -1) and n in rank]
            if not unit:
                continue
            var = drop[min(unit)]
            cv = coeffs[var]
            eqs[e] = None
            for name in coeffs:
                eq_occ[name].discard(e)
            # adding any multiple of an equality keeps a row's solutions;
            # the multiple -k*cv cancels the row's coefficient k on var
            row = (tuple(coeffs.items()), bound)
            for i, k in self.occ.pop(var, {}).items():
                self.add(*_combine(self.remove(i), 1, row, -k * cv))
            for o in eq_occ.pop(var):
                other = eqs[o]
                f = -other[0][var] * cv
                for name, k in coeffs.items():
                    c = other[0].get(name, 0) + f * k
                    if c:
                        other[0][name] = c
                        eq_occ[name].add(o)
                    else:
                        del other[0][name]
                        if name != var:
                            eq_occ[name].discard(o)
                other[1] += f * bound
                if not other[0]:
                    if other[1]:
                        raise _Refuted
                    eqs[o] = None  # 0 = 0
        for eq in eqs:
            if eq is not None:
                terms, bound = tuple(eq[0].items()), eq[1]
                self.add(terms, bound)
                self.add(tuple((n, -k) for n, k in terms), -bound)

    def fourier_motzkin(self, drop: list[str]) -> bool | None:
        """Eliminate what is left of ``drop``: whether every step was
        exact; None when the row budget blows."""
        occ, exact = self.occ, True
        remaining = [v for v in drop if v in occ]
        while True:
            remaining = [v for v in remaining if occ[v]]
            if not remaining:
                return exact
            unit = [v for v in remaining
                    if all(k == 1 or k == -1 for k in occ[v].values())]
            candidates = unit or remaining
            # most systems are tiny; a lone candidate needs no cost
            var = candidates[0] if len(candidates) == 1 else \
                min(candidates, key=lambda v: _combo_cost(occ[v]))
            remaining.remove(var)
            hit = [(self.remove(i), k) for i, k in occ.pop(var).items()]
            pos = [(row, k) for row, k in hit if k > 0]
            neg = [(row, -k) for row, k in hit if k < 0]
            # one-sided variables project exactly whatever their
            # coefficients; two-sided ones need the unit guard
            if pos and neg and var not in unit:
                exact = False
            made = self.size
            for p, cp in pos:
                for n, cn in neg:
                    made += 1
                    if made > ROW_BUDGET:
                        return None
                    self.add(*_combine(p, cn, n, cp))


def _combo_cost(occurrences: dict[int, int]) -> int:
    pos = sum(1 for k in occurrences.values() if k > 0)
    return pos * (len(occurrences) - pos)


def _combine(a: Row, ka: int, b: Row, kb: int) -> Row:
    coeffs: dict[str, int] = {}
    for name, c in a[0]:
        coeffs[name] = coeffs.get(name, 0) + ka * c
    for name, c in b[0]:
        coeffs[name] = coeffs.get(name, 0) + kb * c
    terms = tuple((n, c) for n, c in coeffs.items() if c != 0)
    return (terms, ka * a[1] + kb * b[1])


def is_satisfiable(c: Constraint) -> TriState:
    """Tri-state integer satisfiability of a conjunction.

    ``fails`` answers are certified by a rational refutation; ``holds`` is
    only answered when every Fourier-Motzkin step stayed within the unit
    coefficient guard (substitutions are exact), which makes the
    projection integer-exact.
    """
    return _projects_to_true(c, None)


def forall_exists_valid(x: str, c: Constraint) -> TriState:
    """Validity of ``forall x . exists (vars(c) minus x) . c``.

    The formula is valid iff projecting c onto x leaves no row: a residual
    row in x restricts x, one without variables refutes c for every x.
    Either refutes validity even when the run was inexact (the rational
    projection over-approximates the integer one).  Variable-disjoint
    parts of c are eliminated in the same order as each part alone, so
    this is also "x's part projects to true and every other part is
    satisfiable", the form ``Parts`` answers from, unless the whole run
    exceeds ``ROW_BUDGET`` where no part alone does.
    """
    return _projects_to_true(c, x)


def _projects_to_true(c: Constraint, keep: str | None) -> TriState:
    """``unknown`` when c has arrays, else ``_eliminate`` on c's rows;
    inside ``answers_once``, each (rows, keep) question is answered once."""
    rows = rows_of(c)
    if rows is None:
        return TriState.UNKNOWN
    table = _table  # read once: another thread's block may close it
    if table is None:
        return _eliminate(rows, keep)
    key = (tuple(rows), keep)
    answer = table.get(key)
    if answer is None:
        answer = table[key] = _eliminate(rows, keep)
    return answer


def _eliminate(rows: list[Row], keep: str | None) -> TriState:
    """Whether eliminating every variable of the rows but ``keep`` leaves
    no row, on one ``_System``: equalities are substituted away, then
    Fourier-Motzkin takes unit-coefficient variables first, to stay exact
    as long as possible, then the fewest pos*neg combinations, the first
    in name order on a tie.  A blown row budget answers ``unknown``, a
    refutation or a row left ``fails``; else the answer is ``holds`` if
    the run was exact and ``unknown`` if not.
    """
    names = sorted({n for terms, _ in rows for n, _ in terms} - {keep})
    try:
        system = _System(rows)
        system.substitute(names)
        exact = system.fourier_motzkin(names)
    except _Refuted:
        return TriState.FAILS
    if exact is None:
        return TriState.UNKNOWN
    if system.size:
        return TriState.FAILS
    return TriState.HOLDS if exact else TriState.UNKNOWN


_table: dict[tuple, TriState] | None = None  # (rows, keep) -> answer


@contextmanager
def answers_once():
    """Answer each oracle question once in the block; a nested block shares
    the outermost one's table, which is dropped on exit, raised or not."""
    global _table
    if _table is not None:
        yield
        return
    _table = {}
    try:
        yield
    finally:
        _table = None
