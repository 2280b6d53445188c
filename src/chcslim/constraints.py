"""Decision procedures over conjunctions of integer linear constraints.

Satisfiability and universal-existential validity are decided by
Fourier-Motzkin elimination run over the integers.  Elimination is exact
when every occurrence of the eliminated variable has coefficient +-1 (the
bounds seen during back-substitution are then integer-valued, so rational
and integer projections coincide); otherwise the run is marked inexact and
only refutations remain trustworthy, because a rationally infeasible system
has no integer solutions either.  Strict relations are first shifted to
closed ones (a < b becomes a <= b-1), which is lossless over the integers.

Array pseudo-constraints are opaque: they connect their variables for the
constrained-to relation and force ``unknown`` answers from the oracle.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

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


def constraint_components(c: Constraint) -> list[set[str]]:
    """Connected components of variables, one clique per conjunct."""
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for con in c.conjuncts:
        names = sorted(con.vars())
        for n in names:
            parent.setdefault(n, n)
        for a, b in zip(names, names[1:]):
            parent[find(a)] = find(b)
    groups: dict[str, set[str]] = {}
    for n in parent:
        groups.setdefault(find(n), set()).add(n)
    return list(groups.values())


def constrained_to(x: str, y: str, c: Constraint) -> bool:
    """True when x and y are distinct variables linked by a chain of
    conjuncts sharing variables.  Irreflexive by convention; monotone under
    adding conjuncts."""
    if x == y:
        return False
    for component in constraint_components(c):
        if x in component:
            return y in component
    return False


# --- Fourier-Motzkin over integer rows -----------------------------------

# A row is (coeffs, bound) meaning sum(coeff * var) <= bound.
Row = tuple[tuple[tuple[str, int], ...], int]


def rows_of(c: Constraint) -> list[Row] | None:
    """Compile conjuncts to <=-rows; None when array constraints occur."""
    rows: list[Row] = []

    def add(expr: LinExpr, bound_shift: int = 0) -> None:
        rows.append((expr.terms, -expr.const + bound_shift))

    for con in c.conjuncts:
        if isinstance(con, ArrayCon):
            return None
        diff = con.lhs.sub(con.rhs)
        if con.rel == "=":
            add(diff)
            add(con.rhs.sub(con.lhs))
        elif con.rel == "=<":
            add(diff)
        elif con.rel == "<":
            add(diff, -1)
        elif con.rel == ">=":
            add(con.rhs.sub(con.lhs))
        else:  # >
            add(con.rhs.sub(con.lhs), -1)
    return rows


@dataclass
class _Eliminated:
    rows: list[Row]
    exact: bool


def _eliminate(rows: list[Row], drop: list[str]) -> _Eliminated | None:
    """Project away ``drop`` variables; None when the row budget blows.

    Variables whose occurrences all carry unit coefficients are eliminated
    first, keeping the run exact as long as possible; the ``exact`` flag is
    cleared on the first non-unit elimination.
    """
    exact = True
    remaining = list(drop)
    work = _dedupe(rows)
    while remaining:
        occurrences = {
            v: [row for row in work if _coeff(row, v) != 0] for v in remaining
        }
        remaining = [v for v in remaining if occurrences[v]]
        if not remaining:
            break
        unit = [v for v in remaining
                if all(abs(_coeff(r, v)) == 1 for r in occurrences[v])]
        pool = unit or remaining
        # fewest pos*neg combinations first, the usual Fourier-Motzkin order
        var = min(pool, key=lambda v: _combo_cost(occurrences[v], v))
        pos = [r for r in occurrences[var] if _coeff(r, var) > 0]
        neg = [r for r in occurrences[var] if _coeff(r, var) < 0]
        # one-sided variables project exactly whatever their coefficients;
        # two-sided ones need the unit guard
        if pos and neg and var not in unit:
            exact = False
        kept = [r for r in work if _coeff(r, var) == 0]
        for p in pos:
            cp = _coeff(p, var)
            for n in neg:
                cn = -_coeff(n, var)
                kept.append(_combine(p, cn, n, cp))
                if len(kept) > ROW_BUDGET:
                    return None
        work = _dedupe(kept)
        remaining.remove(var)
    return _Eliminated(work, exact)


def _coeff(row: Row, var: str) -> int:
    for name, c in row[0]:
        if name == var:
            return c
    return 0


def _combo_cost(rows: list[Row], var: str) -> int:
    pos = sum(1 for r in rows if _coeff(r, var) > 0)
    return pos * (len(rows) - pos)


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
    rows = rows_of(c)
    if rows is None:
        return TriState.UNKNOWN
    names = sorted({n for terms, _ in rows for n, _ in terms})
    result = _eliminate(rows, names)
    if result is None:
        return TriState.UNKNOWN
    if any(not terms and bound < 0 for terms, bound in result.rows):
        return TriState.FAILS
    return TriState.HOLDS if result.exact else TriState.UNKNOWN


def forall_exists_valid(x: str, c: Constraint) -> TriState:
    """Validity of ``forall x . exists (vars(c) minus x) . c``.

    Split c into the conjuncts of x's connected component (c_x) and the
    rest (c_r); the formula is valid iff c_r is satisfiable and the
    projection of c_x onto x is unconstrained.  Both checks run through
    the eliminator; a residual row mentioning x, or an infeasible side,
    refutes validity even when the run was inexact (the rational
    projection over-approximates the integer one).
    """
    component: set[str] = set()
    for comp in constraint_components(c):
        if x in comp:
            component = comp
            break
    split_x, split_r = [], []
    for con in c.conjuncts:
        if component and con.vars() and con.vars() <= component:
            split_x.append(con)
        else:
            split_r.append(con)
    c_x, c_r = Constraint(tuple(split_x)), Constraint(tuple(split_r))

    if c_x.has_arrays():
        return TriState.UNKNOWN
    rest = is_satisfiable(c_r)
    if rest is TriState.FAILS:
        return TriState.FAILS
    if not component:
        return rest

    rows = rows_of(c_x)
    assert rows is not None
    result = _eliminate(rows, sorted(component - {x}))
    if result is None:
        return TriState.UNKNOWN
    for terms, bound in result.rows:
        if not terms and bound < 0:
            return TriState.FAILS  # c_x unsatisfiable for every x
        if any(n == x and c != 0 for n, c in terms):
            return TriState.FAILS  # projection restricts x
    if not result.exact or rest is TriState.UNKNOWN:
        return TriState.UNKNOWN
    return TriState.HOLDS
