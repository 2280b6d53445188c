"""Decision procedures over conjunctions of integer linear constraints.

Satisfiability and universal-existential validity are decided by
Fourier-Motzkin elimination run over the integers.  Elimination is exact
when every occurrence of the eliminated variable has coefficient +-1 (the
bounds seen during back-substitution are then integer-valued, so rational
and integer projections coincide); otherwise the run is marked inexact and
only refutations remain trustworthy, because a rationally infeasible system
has no integer solutions either.  Strict relations are first shifted to
closed ones (a < b becomes a <= b-1), which is lossless over the integers.

``Parts`` splits a conjunction once into its variable-disjoint parts.  It
gives each variable's linked set (the constrained-to relation) and its own
part, and decides each part's satisfiability at most once, so a caller
asking about every variable of one conjunction runs the eliminator on each
part once, not on the rest of the conjunction once per variable.

Array pseudo-constraints are opaque: they connect their variables for the
constrained-to relation and force ``unknown`` answers from the oracle.
"""

from __future__ import annotations

import enum

from .syntax import ArrayCon, Constraint

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
    part keeps the conjunct order of the whole, and its satisfiability is
    decided at most once, when an answer first needs it.
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
        groups: dict[object, list] = {}
        for i, (con, group) in enumerate(zip(c.conjuncts, names)):
            # a conjunct without variables is keyed by its own position
            groups.setdefault(find(min(group)) if group else i, []).append(con)
        self.parts = [Constraint(tuple(cons)) for cons in groups.values()]
        self._part: dict[str, int] = {}
        self._linked: dict[str, frozenset[str]] = {}
        for i, part in enumerate(self.parts):
            linked = frozenset(part.vars())
            for n in linked:
                self._part[n], self._linked[n] = i, linked
        self._satisfiable: dict[int, bool] = {}

    def linked(self, x: str) -> frozenset[str]:
        """The variables of x's part; just x when x does not occur."""
        return self._linked.get(x, frozenset((x,)))

    def own(self, x: str) -> Constraint:
        """x's part; empty when x does not occur."""
        i = self._part.get(x)
        return Constraint() if i is None else self.parts[i]

    def others_satisfiable(self, x: str) -> bool:
        """True when every part without x is satisfiable (``holds``)."""
        own = self._part.get(x)
        return all(self._decide(i) for i in range(len(self.parts)) if i != own)

    def _decide(self, i: int) -> bool:
        if i not in self._satisfiable:
            self._satisfiable[i] = is_satisfiable(self.parts[i]) is TriState.HOLDS
        return self._satisfiable[i]


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

    Each conjunct is subtracted once, d = lhs - rhs: ``=``, ``=<`` and ``<``
    give the row d <= 0, ``=``, ``>=`` and ``>`` give -d <= 0, and a strict
    relation tightens its row's bound by 1.
    """
    rows: list[Row] = []
    for con in c.conjuncts:
        if isinstance(con, ArrayCon):
            return None
        d = con.lhs.sub(con.rhs)
        shift = -1 if con.rel in ("<", ">") else 0
        if con.rel in ("=", "=<", "<"):
            rows.append((d.terms, shift - d.const))
        if con.rel in ("=", ">=", ">"):
            rows.append((tuple((n, -k) for n, k in d.terms), shift + d.const))
    return rows


def _eliminate(rows: list[Row], drop: list[str]) -> tuple[list[Row], bool] | None:
    """Project away ``drop``: the rows left and whether the run stayed
    exact; None when the row budget blows.

    Each step maps every variable to its (row index, coefficient) pairs in
    one pass over the rows; the choice, the sign split and the kept rows
    read that map.  Unit-coefficient variables go first, keeping the run
    exact as long as possible, then the fewest pos*neg combinations, the
    first in ``drop`` order on a tie.
    """
    exact = True
    remaining = list(drop)
    work = _dedupe(rows)
    while remaining:
        occ: dict[str, list[tuple[int, int]]] = {}
        for i, (terms, _) in enumerate(work):
            for name, k in terms:
                occ.setdefault(name, []).append((i, k))
        remaining = [v for v in remaining if v in occ]
        if not remaining:
            break
        unit = [v for v in remaining if all(abs(k) == 1 for _, k in occ[v])]
        var = min(unit or remaining, key=lambda v: _combo_cost(occ[v]))
        pos = [(work[i], k) for i, k in occ[var] if k > 0]
        neg = [(work[i], -k) for i, k in occ[var] if k < 0]
        # one-sided variables project exactly whatever their coefficients;
        # two-sided ones need the unit guard
        if pos and neg and var not in unit:
            exact = False
        hit = {i for i, _ in occ[var]}
        kept = [row for i, row in enumerate(work) if i not in hit]
        for p, cp in pos:
            for n, cn in neg:
                kept.append(_combine(p, cn, n, cp))
                if len(kept) > ROW_BUDGET:
                    return None
        work = _dedupe(kept)
        remaining.remove(var)
    return work, exact


def _combo_cost(occurrences: list[tuple[int, int]]) -> int:
    pos = sum(1 for _, k in occurrences if k > 0)
    return pos * (len(occurrences) - pos)


def _combine(a: Row, ka: int, b: Row, kb: int) -> Row:
    coeffs: dict[str, int] = {}
    for name, c in a[0]:
        coeffs[name] = coeffs.get(name, 0) + ka * c
    for name, c in b[0]:
        coeffs[name] = coeffs.get(name, 0) + kb * c
    terms = tuple((n, c) for n, c in coeffs.items() if c != 0)
    return (terms, ka * a[1] + kb * b[1])


def _dedupe(rows: list[Row]) -> list[Row]:
    seen: dict[tuple, Row] = {}
    for terms, bound in rows:
        if not terms:
            if bound < 0:
                return [((), bound)]  # contradiction dominates
            continue  # 0 <= nonnegative is vacuous
        key = tuple(sorted(terms))
        old = seen.get(key)
        if old is None or bound < old[1]:
            seen[key] = (terms, bound)
    return list(seen.values())


def is_satisfiable(c: Constraint) -> TriState:
    """Tri-state integer satisfiability of a conjunction.

    ``fails`` answers are certified by a rational refutation; ``holds`` is
    only answered when every elimination step stayed within the unit
    coefficient guard, which makes the projection integer-exact.
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
    """Eliminate every variable of c but ``keep``: fails when a row is
    left, holds when none is and the run was exact."""
    rows = rows_of(c)
    if rows is None:
        return TriState.UNKNOWN
    names = sorted({n for terms, _ in rows for n, _ in terms} - {keep})
    result = _eliminate(rows, names)
    if result is None:
        return TriState.UNKNOWN
    left, exact = result
    if left:
        return TriState.FAILS
    return TriState.HOLDS if exact else TriState.UNKNOWN
