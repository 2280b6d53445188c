"""Parser for Edinburgh-style .clp clause files.

Syntax accepted::

    % comment to end of line
    unsafe :- X1>=0, Y2=<0, newp1(X1,Y1,X2,Y2).
    newp1(X1,Y1,X2,Z2) :- Z1=X1+1, newp2(X1,Y1,Z1,X2,Y2,Z2).
    p(0).

Variables begin with an uppercase letter or underscore, predicates with a
lowercase letter; the only terms are variables and integer constants.  Each
``_`` is a distinct variable ``_0``, ``_1``, ... apart from its clause's names.
Relations are ``= < =< > >=`` (``<=`` is accepted as an alias of ``=<``).
``read(A,I,V)`` and ``write(A,I,V,B)`` in a body parse as array
pseudo-constraints, ``true`` as the empty constraint.  Constraints and atoms
may interleave; clauses are normalized to constraint-first form preserving
the relative order of each kind.

``parse_program`` is the one entry point: a file is read as a whole
program, its rules checked once every clause is parsed.

Tokens are read in one scan: ``findall`` over one pattern steps over
whitespace and returns each token's text, comments are dropped from the
list, and the empty text ends it, standing for ``eof``.  A token's kind
follows from its text.  Variables, identifiers and integers have the
kinds ``var``, ``ident`` and ``int``; an operator is its own kind, so the
parser matches every token by kind alone.  ``<=`` gets the kind ``=<``
and keeps its text, so error messages quote the token as written.  Token
offsets are worked out only for an error, by scanning the text again.

Each clause is read in one flat pass over local ``pos``, ``kinds`` and
``words``: its atoms, argument lists and linear expressions are read in
place, with no call per token.  Each written variable name gets one
``Var`` per parse, and each expression is normalized by ``LinExpr.make``.
The rare cases, ``_``, an integer too long to convert and every error,
go through small methods, and each error names the token it is found at.
"""

from __future__ import annotations

import itertools
import re

from .syntax import (ARRAY_KINDS, RELATIONS, ArrayCon, Atom, AtomicCon, Clause,
                     Const, Constraint, LinExpr, Program, ProgramError, RelCon,
                     Term, Var)


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


# One token or comment: a name, an integer, an operator, a comment or any
# other character but whitespace (which is an error).  Whitespace matches
# nothing, so ``findall`` steps over it.  Names are ASCII; ``\d`` is any
# Unicode decimal digit.
_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\d+|:-|=<|<=|>=|%[^\n]*|\S")

# the kinds of the operators, and of the end of the text
_OPERATORS = {op: op for op in ":- =< >= = < > . , ( ) * + -".split()}
_OPERATORS.update({"<=": "=<", "": "eof"})


def _kind(word: str) -> str:
    """The kind of a token that is not an operator, from its first
    character and by the pattern's classes: ASCII letters and ``_`` start
    names, and ``isdecimal`` is true exactly for ``\\d`` (Unicode category
    Nd), where ``isdigit`` would also take ``\u00b2``."""
    first = word[0]
    if "a" <= first <= "z":
        return "ident"
    if "A" <= first <= "Z" or first == "_":
        return "var"
    return "int" if first.isdecimal() else "bad"


def _words(text: str) -> list[str]:
    """The texts of the tokens of ``text``, then the empty text for the
    end of the input."""
    words = _TOKEN_RE.findall(text)
    if "%" in text:  # a comment is the only match that starts with '%'
        words = [w for w in words if w[0] != "%"]
    words.append("")
    return words


def _error(message: str, text: str, index: int) -> ParseError:
    """A ParseError at the ``index``-th token of ``_words(text)``, with its
    line and column counted from 1."""
    offsets = [m.start() for m in _TOKEN_RE.finditer(text) if m[0][0] != "%"]
    offsets.append(len(text))
    offset = offsets[index]
    bol = text.rfind("\n", 0, offset) + 1
    return ParseError(message, text.count("\n", 0, offset) + 1, offset - bol + 1)


class _Parser:
    """Reads the tokens of ``text`` by index: ``words[pos]`` is the text
    of the current token and ``kinds[pos]`` its kind.  The token lists
    end in one ``eof``."""

    def __init__(self, text: str):
        self.text = text
        self.words = words = _words(text)
        known = dict(_OPERATORS)  # then each word once, as it is first seen
        self.kinds = kinds = [known.get(w) or known.setdefault(w, _kind(w))
                              for w in words]
        if "bad" in kinds:
            bad = kinds.index("bad")
            raise _error(f"unexpected character {words[bad]!r}", text, bad)
        self.pos = 0
        self.variables: dict[str, Var] = {}  # one Var per written name
        self.clause_start, self.anonymous = 0, None

    def fail(self, message: str, pos: int) -> ParseError:
        """A ParseError at token ``pos``."""
        return _error(message, self.text, pos)

    def unexpected(self, wanted: str, pos: int) -> ParseError:
        """A ParseError at token ``pos``, which is not ``wanted``."""
        return self.fail(f"expected {wanted}, found "
                         f"{self.words[pos] or 'end of input'!r}", pos)

    def integer(self, pos: int) -> int:
        """The value of the integer token ``pos``; a ParseError at it when
        the literal is too long for Python to convert."""
        word = self.words[pos]
        try:
            return int(word)
        except ValueError:
            raise self.fail(f"integer literal of {len(word)} digits is "
                            "too long", pos) from None

    def fresh_name(self) -> str:
        """The name of the next ``_`` of the clause: each gets a fresh
        one, apart from every variable written in its clause."""
        if self.anonymous is None:
            kinds, start = self.kinds, self.clause_start
            end = start
            while kinds[end] not in (".", "eof"):
                end += 1
            written = {w for k, w in zip(kinds[start:end], self.words[start:end])
                       if k == "var"}
            self.anonymous = (f"_{i}" for i in itertools.count()
                              if f"_{i}" not in written)
        return next(self.anonymous)

    def clause(self) -> Clause:
        """The clause at ``pos``, read in one pass: the head, then each
        body item, an atom, ``true``, an array constraint or a relation
        between two linear expressions."""
        kinds, words, variables = self.kinds, self.words, self.variables
        pos = self.clause_start = self.pos
        self.anonymous = None
        head = None
        conjuncts: list[AtomicCon] = []
        body: list[Atom] = []
        while True:  # the head, then one body item per round
            kind = kinds[pos]
            if kind == "ident" or head is None:
                if kind != "ident":
                    raise self.unexpected("a name", pos)
                at, name = pos, words[pos]
                pos += 1
                call = kinds[pos] == "("
                args: list[Term] = []
                if call:
                    while True:
                        pos += 1
                        kind = kinds[pos]
                        if kind == "var":
                            word = words[pos]
                            var = variables.get(word)
                            if var is None:
                                var = (Var(self.fresh_name()) if word == "_"
                                       else variables.setdefault(word, Var(word)))
                            args.append(var)
                        elif kind == "int":
                            args.append(Const(self.integer(pos)))
                        elif kind == "-":
                            pos += 1
                            if kinds[pos] != "int":
                                raise self.unexpected("an integer", pos)
                            args.append(Const(-self.integer(pos)))
                        else:
                            raise self.unexpected("a variable or integer", pos)
                        pos += 1
                        kind = kinds[pos]
                        if kind != ",":
                            if kind != ")":
                                raise self.unexpected("')'", pos)
                            pos += 1
                            break
                if head is None:
                    head = Atom(name, tuple(args))
                    if kinds[pos] != ":-":
                        break
                    pos += 1
                    continue
                if name == "true" and not call:
                    pass  # the empty constraint
                elif name in ARRAY_KINDS and call:
                    if len(args) != ARRAY_KINDS[name]:
                        raise self.fail(f"{name} expects {ARRAY_KINDS[name]} "
                                        f"arguments, got {len(args)}", at)
                    conjuncts.append(ArrayCon(name, tuple(args)))
                else:
                    after = kinds[pos]
                    if after in RELATIONS or after in ("+", "-", "*"):
                        raise self.fail("compound terms are not supported", pos)
                    body.append(Atom(name, tuple(args)))
            else:
                lhs = None
                while True:  # the left side, then the right
                    pairs: list[tuple[str, int]] = []
                    const = 0
                    sign = 1
                    if kind == "-":
                        sign, pos = -1, pos + 1
                    elif kind == "+":
                        pos += 1
                    while True:
                        kind = kinds[pos]
                        if kind == "int" and kinds[pos + 1] != "*":
                            const += sign * self.integer(pos)
                        else:
                            if kind == "var":  # X or X*c
                                word, coeff = words[pos], sign
                                if kinds[pos + 1] == "*":
                                    pos += 2
                                    if kinds[pos] != "int":
                                        raise self.unexpected("an integer", pos)
                                    coeff *= self.integer(pos)
                            elif kind == "int":  # c*X
                                coeff = sign * self.integer(pos)
                                pos += 2
                                if kinds[pos] != "var":
                                    raise self.unexpected("a variable", pos)
                                word = words[pos]
                            else:
                                raise self.unexpected("a term", pos)
                            pairs.append((self.fresh_name() if word == "_"
                                          else word, coeff))
                        pos += 1
                        kind = kinds[pos]
                        if kind == "+":
                            sign = 1
                        elif kind == "-":
                            sign = -1
                        else:
                            break
                        pos += 1
                    expr = LinExpr.make(pairs, const)
                    if lhs is not None:
                        break
                    lhs, rel = expr, kind
                    if rel not in RELATIONS:
                        raise self.unexpected("a relation", pos)
                    pos += 1
                    kind = kinds[pos]
                conjuncts.append(RelCon(rel, lhs, expr))
            if kinds[pos] != ",":
                break
            pos += 1
        if kinds[pos] != ".":
            raise self.unexpected("'.'", pos)
        self.pos = pos + 1
        return Clause(head, Constraint(tuple(conjuncts)), tuple(body))

    def parse_program(self) -> Program:
        """The program, its rules checked once every clause is parsed; a
        broken rule is reported at the start of the first clause breaking
        one."""
        clauses: list[Clause] = []
        starts: list[int] = []
        while self.kinds[self.pos] != "eof":
            starts.append(self.pos)
            clauses.append(self.clause())
        try:
            return Program(tuple(clauses))
        except ProgramError as exc:
            index, problem = exc.problems[0]
            raise self.fail(problem, starts[index]) from None


def parse_program(text: str) -> Program:
    return _Parser(text).parse_program()
