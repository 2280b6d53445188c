"""Seeded CHC program families for the benchmark, with answers computed
without chcslim.

Each generator takes a ``random.Random`` and the answer the problem should
have, builds the clause text, and decides reachability of ``unsafe`` by its
own arithmetic or simulation.  The requested answer only steers the choice
of the query threshold; the returned ``unsafe`` flag is what the simulation
says.  chcslim never sees anything but the ``.clp`` text.

In block_wide and loop_nest every value a problem can produce stays
strictly inside [-LIMIT, LIMIT], and every clause variable is pinned by an
equality, bound by a body atom, or boxed on both sides, so bounded
evaluation at any bound above LIMIT is exact on the slimmed programs and on
passenger-free unslimmed ones.  env_chain is not evaluated at full width:
its free variables leave frame equalities that the evaluator would
enumerate across the whole box.  With width equal to live it is exact too.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

LIMIT = 60


@dataclass(frozen=True)
class Problem:
    name: str
    text: str
    unsafe: bool  # the generator's answer: is ``unsafe`` derivable?


def _plus(var: str, c: int) -> str:
    """``var+c`` written the way the clause parser reads it."""
    if c == 0:
        return var
    return f"{var}+{c}" if c > 0 else f"{var}-{-c}"


def _args(*groups: "list[str]") -> str:
    return ",".join(name for group in groups for name in group)


def _clause(head: str, constraint: "list[str]", body: "list[str]") -> str:
    return f"{head} :- {', '.join(constraint + body)}."


# --- env_chain -----------------------------------------------------------

def env_chain(rng: random.Random, want_unsafe: bool, *, depth: int,
              width: int, live: int) -> Problem:
    """Translator-style forward reachability: ``p{i+1}`` receives the whole
    width-``width`` environment of ``p{i}``.  Live variables 1..``live`` are
    pinned at entry, updated and guarded at every step; the others are
    never read and are copied (``Yk=Xk``) or shifted by a constant at every
    step.  The first half of those start pinned too, which keeps them
    through the whole chain; the rest start free, so cfar erases them.  X1
    counts up, X2 drifts, and the guard bounds X1-X2.
    """
    assert 2 <= live <= width
    xs = [f"X{j}" for j in range(1, width + 1)]
    ys = [f"Y{j}" for j in range(1, width + 1)]
    pinned = live + (width - live) // 2
    starts = [rng.randint(0, 3) for _ in range(pinned)]
    lines = [_clause(f"p0({_args(xs)})",
                     [f"X{j + 1}={v}" for j, v in enumerate(starts)], [])]
    values = list(starts)
    blocked = False
    for i in range(depth):
        slack = -1 if rng.random() < 0.02 else rng.randint(0, 6)
        gap = values[0] - values[1]
        blocked = blocked or slack < 0
        cons = [f"X1-X2=<{gap + slack}"]
        d1 = rng.randint(1, 2)
        d2 = rng.choice((-1, 0, 1))
        cons += [f"Y1={_plus('X1', d1)}", f"Y2={_plus('X2', d2)}"]
        values[0] += d1
        values[1] += d2
        for j in range(3, live + 1):
            d = rng.choice((-1, 1))
            cons.append(f"Y{j}={_plus(f'X{j}', d)}")
            values[j - 1] += d
        for j in range(live + 1, width + 1):
            shift = 0 if rng.random() < 0.7 else rng.randint(-3, 3)
            cons.append(f"Y{j}={_plus(f'X{j}', shift)}")
        lines.append(_clause(f"p{i + 1}({_args(ys)})", cons,
                             [f"p{i}({_args(xs)})"]))
    target = values[0] if want_unsafe else values[0] + 1
    lines.append(_clause("unsafe", [f"X1>={target}"], [f"p{depth}({_args(xs)})"]))
    unsafe = not blocked and values[0] >= target
    return Problem("env_chain", "\n".join(lines) + "\n", unsafe)


# --- block_wide ----------------------------------------------------------

def _make_steps(rng: random.Random, slopes: "list[int]", consts: "list[int]",
                n: int) -> "list[tuple[tuple[tuple[int, int], ...], int]]":
    """``n`` SSA steps after temporaries T_i = slopes[i]*T0 + consts[i]
    (both lists are extended).  A step is ``T_j = sum(c * T_{j-back}) + k``:
    a copy or negation of the latest temporary or, at two positions in
    five, a signed sum of the latest three.  The pattern depends on the
    position alone, so every chain of a workload has the same coefficients
    and costs the oracle the same; signs keep every slope at +-1, so no
    temporary ignores the block input.  Only the constants k come from
    ``rng``, each pulling its temporary's offset back into [-4, 4]."""
    first = len(slopes)
    steps = []
    for j in range(first, first + n):
        if j >= 3 and j % 5 in (1, 3):
            coeffs = ((1, 1), (2, -slopes[j - 1] * slopes[j - 2]),
                      (3, 1 if j % 2 else -1))
        else:
            coeffs = ((1, -1 if j % 3 == 0 else 1),)
        base = sum(c * consts[j - back] for back, c in coeffs)
        k = rng.randint(-4, 4) - base
        slopes.append(sum(c * slopes[j - back] for back, c in coeffs))
        consts.append(base + k)
        steps.append((coeffs, k))
    return steps


def _steps_text(steps, first: int) -> "list[str]":
    out = []
    for j, (coeffs, k) in enumerate(steps, start=first):
        expr = "".join(("+" if c > 0 else "-") + f"T{j - back}" for back, c in coeffs)
        out.append(f"T{j}={_plus(expr.lstrip('+'), k)}")
    return out


def _run_steps(steps, x: int) -> "list[int] | None":
    """T0=x, T1, ... along ``steps`` (numbered from T1); None when a value
    leaves the safe range."""
    vals = [x]
    for coeffs, k in steps:
        vals.append(sum(c * vals[-back] for back, c in coeffs) + k)
        if abs(vals[-1]) > LIMIT:
            return None
    return vals


def block_wide(rng: random.Random, want_unsafe: bool, *, blocks: int,
               steps: int, passengers: int, entries: int) -> Problem:
    """Straight-line basic blocks.  ``b0`` holds ``entries`` start values
    and pinned passengers; each block ``b{i}`` has two clauses, the two
    paths through a branch on its middle temporary, and each path is a
    ``steps``-long SSA chain from the block's input ``T0`` to its output.
    Passengers ride along unchanged, so nlr drops them at the query.  Every
    temporary is +-T0 plus a small offset, so both clauses of a block are
    satisfiable and distinct inputs give distinct outputs on each path.
    """
    ps = [f"P{j}" for j in range(1, passengers + 1)]
    pins = [f"P{j}={rng.randint(-9, 9)}" for j in range(1, passengers + 1)]
    lines = [_clause(f"b0({_args(['A'], ps)})",
                     ["A>=0", f"A=<{entries - 1}"] + pins, [])]
    current = list(range(entries))
    mid = steps // 2
    for i in range(1, blocks + 1):
        slopes, consts = [1], [0]
        prefix = _make_steps(rng, slopes, consts, mid)
        arms = [_make_steps(rng, list(slopes), list(consts), steps - mid)
                for _ in range(2)]
        runs = [_run_steps(prefix, x) for x in current]
        guard = sorted(r[-1] for r in runs)[len(runs) // 2]
        paths = [_run_steps(prefix + arms[0 if r[-1] >= guard else 1], r[0])
                 for r in runs]
        assert all(p is not None for p in paths), "values left the safe range"
        for arm, guard_text in ((arms[0], f"T{mid}>={guard}"),
                                (arms[1], f"T{mid}=<{guard - 1}")):
            cons = ["T0=X"] + _steps_text(prefix, 1) + [guard_text] \
                + _steps_text(arm, mid + 1) + [f"Y=T{steps}"]
            lines.append(_clause(f"b{i}({_args(['Y'], ps)})", cons,
                                 [f"b{i - 1}({_args(['X'], ps)})"]))
        current = [p[-1] for p in paths]
    best = max(current)
    target = best if want_unsafe else best + 1
    lines.append(_clause("unsafe", [f"Y>={target}"],
                         [f"b{blocks}({_args(['Y'], ps)})"]))
    return Problem("block_wide", "\n".join(lines) + "\n", best >= target)


# --- loop_nest -----------------------------------------------------------

def _loop_exit(entry: int, n: int, c: int, step: int) -> int:
    """``while i < n + c: i += step`` from ``entry``."""
    i = entry
    while i < n + c:
        i += step
    return i


def loop_nest(rng: random.Random, want_unsafe: bool, *, sequences: int,
              loops: int, passengers: int, nmax: int) -> Problem:
    """Paper-shaped loops.  Loop ``l{s}{k}(N,I,P..,M,O,Q..)`` relates an
    entry environment to an exit environment: it steps ``I`` while
    ``I<N+c`` and exits with ``I`` in ``[N+c, N+c+step-1]``, every guard
    also boxing the parameter ``N`` in ``0..nmax``.  Stage ``s{s}{k}(N,X)``
    runs loop k on the previous stage's exit shifted by a constant, a
    two-atom join; the query joins the last stages of the sequences on N.
    Every entry lies below its loop's exit window, so no exit is missed.
    """
    names = "abcdefgh"[:sequences]
    ns = range(nmax + 1)
    ps = [f"P{j}" for j in range(1, passengers + 1)]
    qs = [f"Q{j}" for j in range(1, passengers + 1)]
    lines: list[str] = []
    finals: list[list[int]] = []
    for s in names:
        while True:
            text: list[str] = []
            entry_shift = rng.randint(-30, -10)
            entries = [entry_shift for _ in ns]
            ok = True
            for k in range(1, loops + 1):
                step = rng.randint(1, 3)
                c = max(e - n for e, n in zip(entries, ns)) + rng.randint(12, 24)
                lo = min(entries)
                exits = [_loop_exit(e, n, c, step) for e, n in zip(entries, ns)]
                if lo < -LIMIT or max(n + c + step - 1 for n in ns) > LIMIT:
                    ok = False
                    break
                pred = f"l{s}{k}"
                box = ["N>=0", f"N=<{nmax}"]
                text.append(_clause(
                    f"{pred}({_args(['N', 'I'], ps, ['M', 'O'], qs)})",
                    box + [f"I>={lo}", f"I<{_plus('N', c)}", f"J={_plus('I', step)}"],
                    [f"{pred}({_args(['N', 'J'], ps, ['M', 'O'], qs)})"]))
                text.append(_clause(
                    f"{pred}({_args(['N', 'I'], ps, ['N', 'I'], ps)})",
                    box + [f"I>={_plus('N', c)}", f"I=<{_plus('N', c + step - 1)}"],
                    []))
                pins = [f"P{j}={rng.randint(-9, 9)}" for j in range(1, passengers + 1)]
                call = f"{pred}({_args(['N', 'J'], ps, ['M', 'X'], qs)})"
                if k == 1:
                    text.append(_clause(f"s{s}1(N,X)",
                                        box + [f"J={entry_shift}"] + pins, [call]))
                else:
                    text.append(_clause(f"s{s}{k}(N,X)",
                                        [f"J={_plus('Y', shift)}"] + pins,
                                        [f"s{s}{k - 1}(N,Y)", call]))
                if k < loops:
                    shift = -rng.randint(12, 26)
                    entries = [x + shift for x in exits]
            if ok:
                break
        lines += text
        finals.append(exits)
    sums = [sum(col) for col in zip(*finals)]
    best = max(sums)
    target = best if want_unsafe else best + 1
    xs = [f"X{s.upper()}" for s in names]
    lines.append(_clause("unsafe", ["+".join(xs) + f">={target}"],
                         [f"s{s}{loops}(N,{x})" for s, x in zip(names, xs)]))
    return Problem("loop_nest", "\n".join(lines) + "\n", best >= target)


FAMILIES = {"env_chain": env_chain, "block_wide": block_wide,
            "loop_nest": loop_nest}


def generate(family: str, seed: int, count: int, **sizes) -> list[Problem]:
    """``count`` problems of one family; answers alternate unsafe/safe so
    every seed has the same mix, and problem i depends only on (seed, i)."""
    make = FAMILIES[family]
    out = []
    for i in range(count):
        rng = random.Random(f"{family}:{seed}:{i}")
        p = make(rng, i % 2 == 0, **sizes)
        out.append(Problem(f"{family}_{i:03d}", p.text, p.unsafe))
    return out
