"""Decision procedures over conjunctions of integer linear constraints.

Satisfiability and universal-existential validity are both answered by
``_projects_to_true``, which projects variables away over the integers in
two phases.  First each equality with a +-1 coefficient on a variable to
project is solved for it and substituted away (``_solve_units``, the first
phase of Pugh's Omega test); this is always exact, since the variable is
then an integer expression in the others.  Each equality is divided by
the gcd of its coefficients first, which turns 2*X=7 into a
contradiction, and the equalities are taken in the order of their terms.
Then Fourier-Motzkin elimination runs on the <=-rows left, each kept
divided by the gcd of its coefficients with its bound rounded down, as
the Omega test normalises rows.  A step is exact when every occurrence of
the eliminated variable has coefficient +-1 (the bounds seen during
back-substitution are then integer-valued, so rational and integer
projections coincide), when the variable is bounded on one side only,
or when two opposite rows that meet, such as X=<3, X>=3 or (once divided
by their gcd) 2*X>=2, 2*X<3, hold it with coefficient +-1: they are an
equality that substitutes it away, as in the first phase.  Otherwise the
run is marked inexact and only refutations remain trustworthy, because a
rationally infeasible system has no integer solutions either.  Strict
relations are shifted to closed ones (a < b becomes a <= b-1), which is
lossless over the integers.  Each question is answered by one
elimination.

Inside an ``answers_once`` block (one per problem in the pipeline, one
per ``cfar_transform`` call, never longer) each question is answered once
and each conjunction is split once.  The key is the constraint as asked
and the variable kept.  It is exact: not taken up to renaming, since the
elimination order breaks ties by name, nor up to the <=-rows, since the
first phase reads each conjunct's relation: X+Y=3, X+Y=<2 is solved as an
equality, and X+Y=<3, X+Y>=3, X+Y=<2, with the same rows, is not.

``Parts`` splits a conjunction into its variable-disjoint parts.  It
gives each variable's linked set (the constrained-to relation) and its own
part, and decides each part's satisfiability at most once, so a caller
asking about every variable of one conjunction runs the eliminator on each
part once, not on the rest of the conjunction once per variable.  Inside
``answers_once``, ``parts_of`` hands out the block's one split of each
conjunction, and a part of a conjunction the table answers ``holds`` is
``holds`` with no elimination: each part is eliminated by the steps it
takes alone, so an exact whole run makes every part's run exact.  The
rule runs one way only: a whole ``fails`` or ``unknown`` says nothing of a
part, and parts that all hold do not make the whole hold within
``ROW_BUDGET``.  ``project`` records the split of each result that keeps
whole parts of its input, so a second ``cfar`` run on the output splits
only the conjunctions the projection rewrote.

``project`` rewrites a split conjunction c into one with the same
solutions on a given set of live variables: for every assignment of the
live variables, c has a solution for the others exactly when the result
has.  It uses only exact steps, part by part.  A part without a live
variable is a closed formula, so its oracle answer settles it.  Unit
equalities are solved by ``_solve_units``, as in the oracle.  A variable
bounded on one side only, in inequalities alone, can always be pushed far
enough to satisfy them, so they go with it.  Whatever the rules do not
reach is kept as it was, never approximated.

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
    conjunct's part, ``names`` each part's variables (its conjuncts' sets
    joined), and each part's satisfiability is decided at most once.
    Inside ``answers_once`` a conjunction is split once per block
    (``parts_of``), and a part of a conjunction answered ``holds`` is
    ``holds`` (``decide``).
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
        members: list[set[str]] = []  # each part's variables
        part_of: list[int] = []
        for i, (con, group) in enumerate(zip(c.conjuncts, names)):
            # a conjunct without variables is keyed by its own position
            j = index.setdefault(find(min(group)) if group else i, len(groups))
            if j == len(groups):
                groups.append([])
                members.append(set())
            groups[j].append(con)
            members[j] |= group
            part_of.append(j)
        self._fill(c, [Constraint(tuple(cons)) for cons in groups],
                   [frozenset(group) for group in members], part_of, {})

    def _fill(self, whole: Constraint, parts: list[Constraint],
              names: list[frozenset[str]], part_of: list[int],
              answers: dict[int, TriState]) -> None:
        self.whole = whole
        self.parts = parts
        self.names = names
        self.part_of = part_of
        self._part = {n: i for i, linked in enumerate(names) for n in linked}
        self._answers = answers

    def _without(self, gone: set[int], whole: Constraint) -> "Parts":
        """The split of ``whole``, this conjunction with the parts in
        ``gone`` deleted: the other parts in order, with their answers."""
        kept = [i for i in range(len(self.parts)) if i not in gone]
        at = {i: j for j, i in enumerate(kept)}
        out = Parts.__new__(Parts)
        out._fill(whole, [self.parts[i] for i in kept],
                  [self.names[i] for i in kept],
                  [at[i] for i in self.part_of if i in at],
                  {at[i]: a for i, a in self._answers.items() if i in at})
        return out

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
        """``is_satisfiable`` of part i, asked at most once.

        Inside ``answers_once``, a part of a conjunction the table answers
        ``holds`` is ``holds``, with no elimination: each part is
        eliminated by the steps it takes alone, and the whole's rows bound
        each part's, so an exact whole run leaves every part's run exact,
        without a row, a refutation or a blown budget.  The part's answer
        goes into the table for later splits.  A whole ``fails`` or
        ``unknown`` says nothing of a part, which is then asked.
        """
        answer = self._answers.get(i)
        if answer is None:
            table = _table  # read once: another thread's block may close it
            if table is not None and \
                    table.get((self.whole, None)) is TriState.HOLDS:
                answer = table[self.parts[i], None] = TriState.HOLDS
            else:
                answer = is_satisfiable(self.parts[i])
            self._answers[i] = answer
        return answer


def parts_of(c: Constraint) -> Parts:
    """``Parts(c)``; inside ``answers_once``, the block's split of c, built
    at most once (``project`` records the splits of its results)."""
    splits = _splits
    if splits is None:
        return Parts(c)
    parts = splits.get(c)
    if parts is None:
        parts = splits[c] = Parts(c)
    return parts


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

    - ``_solve_units`` solves the part's unit equalities for them, in
      conjunct order; a conjunct it leaves false makes the whole
      unsatisfiable;
    - a local variable that then occurs only in inequalities bounding it
      on one side is deleted with them, since a value far enough to that
      side satisfies them all, until no such variable is left.

    No Fourier-Motzkin step runs, so a variable in two-sided inequalities
    or in a non-unit equality alone stays.  Every conjunct keeps its place
    in the input order; one the substitution rewrote is written with its
    positive terms on the left.  With nothing to project the result is
    the input itself, whose split ``parts_of`` keeps inside
    ``answers_once``; there a result that is the input without some whole
    parts gets its split recorded too: the parts kept, in order, with
    their answers.
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
        rows, at = [], []  # the relational conjuncts' rows and their places
        for j, con in enumerate(conjuncts):
            if isinstance(con, ArrayCon):
                local -= con.vars()
            else:
                rows.append(_row(con))
                at.append(j)
        rewritten = _solve_units(rows, local)
        if rewritten is None:
            return None
        dropped = True
        while dropped:
            dropped = False
            for var in sorted(local):
                sides, hit = set(), []
                for r, row in enumerate(rows):
                    if row is None or var not in row[0]:
                        continue
                    if row[2] == "=":
                        break
                    sides.add((row[0][var] > 0) == (row[2] in ("<", "=<")))
                    hit.append(r)
                else:
                    if len(sides) == 1:
                        for r in hit:
                            rows[r] = None
                        local.discard(var)
                        dropped = True
        for r, j in enumerate(at):
            if rows[r] is None:
                cons[j] = None
            elif r in rewritten:
                cons[j] = _written(*rows[r])
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
    result = Constraint(tuple(out))
    splits = _splits
    if splits is not None and all(con is None for cons in projected.values()
                                  for con in cons):
        # only whole parts went: the rest is the result's split
        splits.setdefault(result, parts._without(set(projected), result))
    return result


def _row(con: RelCon) -> list:
    """lhs rel rhs as the conjunct row [coeffs, const, rel], meaning
    sum(coeff * var) + const rel 0: coeffs is ``lhs``'s normalised terms
    as a {var: coeff} dict, ``rhs``'s subtracted in place and zeros dropped."""
    coeffs = dict(con.lhs.terms)
    for n, k in con.rhs.terms:
        if coeffs.setdefault(n, 0) == k:
            del coeffs[n]
        else:
            coeffs[n] -= k
    return [coeffs, con.lhs.const - con.rhs.const, con.rel]


def _solve_units(rows: list, local: set[str]) -> set[int] | None:
    """Solve the unit equalities of ``rows`` away, exactly over the integers.

    Rows are read in list order, and read again while one is solved.  An
    ``=`` row in which a variable of ``local`` has coefficient +-1 is
    solved for the least-named such variable, which leaves ``local``; its
    solution, an integer expression in the others, is substituted into
    every other row holding it, and the row becomes None.  A row the
    substitution leaves without variables becomes None when true and
    answers None when false.  Else the answer is the indices of the rows
    rewritten, some of which may have become None.
    """
    rewritten = set()
    solved = True
    while solved:
        solved = False
        for j, row in enumerate(rows):
            if row is None or row[2] != "=":
                continue
            coeffs, const, _ = row
            var = None
            for n, k in coeffs.items():
                if (k == 1 or k == -1) and n in local and (var is None or n < var):
                    var = n
            if var is None:
                continue
            rows[j] = None
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
                    if any(b < 0 for _, b in _le_rows(other)):
                        return None
                    rows[o] = None
    return rewritten


_MIRRORED = {"=": "=", "<": ">", "=<": ">=", ">": "<", ">=": "=<"}


def _written(coeffs: dict[str, int], const: int, rel: str) -> RelCon:
    """The conjunct of a conjunct row, with the positive terms on the left
    and the rest on the right; negated first when no term is positive."""
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


def rows_of(con: RelCon) -> list[Row]:
    """The <=-rows of one arithmetic conjunct: ``_le_rows`` of its row."""
    return _le_rows(_row(con))


def _le_rows(row: list) -> list[Row]:
    """The <=-rows of a conjunct row: ``=``, ``=<`` and ``<`` give the row
    with its terms, ``=``, ``>=`` and ``>`` the row with them negated, and
    a strict relation tightens its row's bound by 1."""
    coeffs, const, rel = row
    terms = tuple(coeffs.items())
    shift = -1 if rel in ("<", ">") else 0
    rows = []
    if rel in ("=", "=<", "<"):
        rows.append((terms, shift - const))
    if rel in ("=", ">=", ">"):
        rows.append((tuple((n, -k) for n, k in terms), shift + const))
    return rows


class _Refuted(Exception):
    """A row without variables that no assignment satisfies was derived."""


class _System:
    """The <=-rows Fourier-Motzkin projects, with one occurrence map kept
    up to date; the unit equalities were solved before they got here.

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

    def pinned(self, var: str) -> bool:
        """True when a live row holds var with coefficient +-1 and its
        opposite row (the negated terms, keyed in ``keys``) is live with
        the negated bound: the two meet as an equality that gives var as
        an integer expression in the others."""
        for i, k in self.occ[var].items():
            if k == 1 or k == -1:
                terms, bound = self.rows[i]
                j = self.keys.get(tuple(sorted((n, -c) for n, c in terms)))
                if j is not None and self.rows[j] is not None \
                        and self.rows[j][1] == -bound:
                    return True
        return False

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
            pinned = [] if unit else [v for v in remaining if self.pinned(v)]
            candidates = unit or pinned or remaining
            # most systems are tiny; a lone candidate needs no cost
            var = candidates[0] if len(candidates) == 1 else \
                min(candidates, key=lambda v: _combo_cost(occ[v]))
            remaining.remove(var)
            hit = [(self.remove(i), k) for i, k in occ.pop(var).items()]
            pos = [(row, k) for row, k in hit if k > 0]
            neg = [(row, -k) for row, k in hit if k < 0]
            # one-sided variables project exactly whatever their
            # coefficients; two-sided ones need the unit guard or a pinning
            # pair, whose combinations substitute var into every other row
            # and imply the rest
            if pos and neg and var not in unit and var not in pinned:
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

    ``fails`` answers are certified by a refutation; ``holds`` is only
    answered when every Fourier-Motzkin step stayed within the unit
    coefficient guard (solving unit equalities is exact), which makes the
    projection integer-exact.
    """
    return _projects_to_true(c, None)


def forall_exists_valid(x: str, c: Constraint) -> TriState:
    """Validity of ``forall x . exists (vars(c) minus x) . c``.

    The formula is valid iff projecting c onto x leaves no row: a residual
    row in x restricts x, one without variables refutes c for every x.
    Either refutes validity even when the run was inexact (the rational
    projection over-approximates the integer one).  Variable-disjoint
    parts of c are eliminated in the same order as each part alone (the
    equalities are solved in the order of their terms, and Fourier-Motzkin
    chooses among variables by their own rows, cost and name), so this is
    also "x's part projects to true and every other part is satisfiable",
    the form ``Parts`` answers from, unless the whole run exceeds
    ``ROW_BUDGET`` where no part alone does.
    """
    return _projects_to_true(c, x)


def _projects_to_true(c: Constraint, keep: str | None) -> TriState:
    """``unknown`` when c has arrays, else ``_eliminate``; inside
    ``answers_once``, each (c, keep) question is answered once."""
    if c.has_arrays():
        return TriState.UNKNOWN
    table = _table  # read once: another thread's block may close it
    if table is None:
        return _eliminate(c, keep)
    key = (c, keep)
    answer = table.get(key)
    if answer is None:
        answer = table[key] = _eliminate(c, keep)
    return answer


def _eliminate(c: Constraint, keep: str | None) -> TriState:
    """Whether eliminating every variable of c but ``keep`` leaves no row.

    Each ``=`` conjunct is divided by the gcd of its coefficients (one
    whose constant it does not divide answers ``fails``) and written with
    its least-named term positive.  ``_solve_units`` takes the equalities
    in the order of their sorted terms, so no choice depends on the order
    of the conjuncts.  The rows left go to one ``_System``, where
    Fourier-Motzkin takes unit-coefficient variables first, to stay exact
    as long as possible; when none is left, the ``pinned`` ones, which an
    equality written as two opposite rows (or turned unit by the gcd
    normalisation) eliminates exactly; then the rest.  Within each group
    it takes the fewest pos*neg combinations, the first in name order on
    a tie.  A blown row budget answers ``unknown``, a refutation or a row
    left ``fails``; else the answer is ``holds`` if the run was exact and
    ``unknown`` if not.
    """
    eqs, rows, local = [], [], set()
    for con in c.conjuncts:
        coeffs, const, rel = row = _row(con)
        local.update(coeffs)
        if rel != "=" or not coeffs:
            rows.append(row)
            continue
        g = gcd(*coeffs.values())
        if const % g:
            return TriState.FAILS
        terms = sorted(coeffs.items())
        g = -g if terms[0][1] < 0 else g
        if g != 1:
            terms, const = [(n, k // g) for n, k in terms], const // g
        eqs.append((terms, const))
    if eqs:
        eqs.sort()
        rows[:0] = [[dict(terms), const, "="] for terms, const in eqs]
    local.discard(keep)
    if _solve_units(rows, local) is None:
        return TriState.FAILS
    try:
        system = _System([le for row in rows if row is not None
                          for le in _le_rows(row)])
        exact = system.fourier_motzkin(sorted(local))
    except _Refuted:
        return TriState.FAILS
    if exact is None:
        return TriState.UNKNOWN
    if system.size:
        return TriState.FAILS
    return TriState.HOLDS if exact else TriState.UNKNOWN


_table: dict[tuple, TriState] | None = None  # (c, keep) -> answer
_splits: dict[Constraint, Parts] | None = None  # c -> its split


@contextmanager
def answers_once():
    """Answer each oracle question once and split each conjunction once in
    the block; a nested block shares the outermost one's tables, which are
    dropped on exit, raised or not."""
    global _table, _splits
    if _table is not None:
        yield
        return
    _table, _splits = {}, {}
    try:
        yield
    finally:
        _table = _splits = None
