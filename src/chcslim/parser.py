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

Tokens are read in one scan: a single pattern skips whitespace and
comments and returns the next token's text, the empty text at the end of
the input standing for ``eof``.  A token's kind follows from its text.
Variables, identifiers and integers have the kinds ``var``, ``ident`` and
``int``; an operator is its own kind, so the parser matches every token by
kind alone.  ``<=`` gets the kind ``=<`` and keeps its text, so error
messages quote the token as written.  Token offsets are worked out only
for an error, by scanning the text again.
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


# Whitespace and comments, then one token: a name, an integer, an
# operator, any other character (which is an error) or the end of the
# text.  Names are ASCII; ``\d`` is any Unicode decimal digit.
_TOKEN_RE = re.compile(r"""
    (?: \s+ | %[^\n]* )*
    ( [A-Za-z_][A-Za-z0-9_]* | \d+ | :- | =< | <= | >= | [=<>.,()*+-] | . | \Z )
""", re.VERBOSE | re.DOTALL)

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


def _error(message: str, text: str, index: int) -> ParseError:
    """A ParseError at the ``index``-th token of ``text``, with its line
    and column counted from 1."""
    offset = next(itertools.islice(_TOKEN_RE.finditer(text), index, None)).start(1)
    bol = text.rfind("\n", 0, offset) + 1
    return ParseError(message, text.count("\n", 0, offset) + 1, offset - bol + 1)


# token kinds named in words; the others are quoted as they are written
_KIND_WORDS = {"var": "a variable", "int": "an integer", "ident": "a name"}


class _Parser:
    """Reads the tokens of ``text`` by index: ``words[pos]`` is the text
    of the current token and ``kinds[pos]`` its kind.  The token lists
    may end in more than one ``eof``; nothing reads past the first."""

    def __init__(self, text: str):
        self.text = text
        self.words = words = _TOKEN_RE.findall(text)
        known = dict(_OPERATORS)  # then each word once, as it is first seen
        self.kinds = kinds = [known.get(w) or known.setdefault(w, _kind(w))
                              for w in words]
        if "bad" in kinds:
            bad = kinds.index("bad")
            raise _error(f"unexpected character {words[bad]!r}", text, bad)
        self.pos = 0
        self.clause_start, self.anonymous = 0, None

    def accept(self, kind: str) -> bool:
        """Step past the current token if it has ``kind``."""
        if self.kinds[self.pos] != kind:
            return False
        self.pos += 1
        return True

    def fail(self, message: str, pos: int | None = None) -> ParseError:
        """A ParseError at token ``pos``, by default the current token."""
        return _error(message, self.text, self.pos if pos is None else pos)

    def unexpected(self, wanted: str) -> ParseError:
        """A ParseError at the current token, which is not ``wanted``."""
        return self.fail(f"expected {wanted}, found "
                         f"{self.words[self.pos] or 'end of input'!r}")

    def expect(self, kind: str) -> str:
        """The current token's text, stepping past it; a ParseError unless
        it has ``kind``."""
        pos = self.pos
        if self.kinds[pos] != kind:
            raise self.unexpected(_KIND_WORDS.get(kind) or repr(kind))
        self.pos = pos + 1
        return self.words[pos]

    def integer(self) -> int:
        """The value of the current token, an int, stepping past it; a
        ParseError at it when the literal is too long for Python to
        convert."""
        pos = self.pos
        word = self.expect("int")
        try:
            return int(word)
        except ValueError:
            raise self.fail(f"integer literal of {len(word)} digits is "
                            "too long", pos) from None

    def var_name(self, word: str) -> str:
        """The name of a variable written ``word``; each ``_`` gets a fresh
        one, apart from every variable written in its clause."""
        if word != "_":
            return word
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

    # --- terms and expressions -------------------------------------------

    def parse_term(self) -> Term:
        kind = self.kinds[self.pos]
        if kind == "var":
            return Var(self.var_name(self.expect("var")))
        if kind == "int":
            return Const(self.integer())
        if self.accept("-"):
            return Const(-self.integer())
        raise self.unexpected("a variable or integer")

    def parse_linexpr(self) -> LinExpr:
        kinds, words = self.kinds, self.words
        pairs: list[tuple[str, int]] = []
        const = 0
        kind = kinds[self.pos]
        sign = -1 if kind == "-" else 1
        if kind == "-" or kind == "+":
            self.pos += 1
        while True:
            kind = kinds[self.pos]
            if kind == "int":
                coeff = sign * self.integer()
                if self.accept("*"):
                    pairs.append((self.var_name(self.expect("var")), coeff))
                else:
                    const += coeff
            elif kind == "var":
                word = words[self.pos]
                self.pos += 1
                coeff = sign * self.integer() if self.accept("*") else sign
                pairs.append((self.var_name(word), coeff))
            else:
                raise self.unexpected("a term")
            kind = kinds[self.pos]
            if kind == "+":
                sign = 1
            elif kind == "-":
                sign = -1
            else:
                return LinExpr.make(pairs, const)
            self.pos += 1

    def parse_relcon(self) -> RelCon:
        lhs = self.parse_linexpr()
        rel = self.kinds[self.pos]
        if rel not in RELATIONS:
            raise self.unexpected("a relation")
        self.pos += 1
        return RelCon(rel, lhs, self.parse_linexpr())

    # --- atoms and clauses ------------------------------------------------

    def parse_args(self) -> tuple[Term, ...]:
        self.expect("(")
        args = [self.parse_term()]
        while self.accept(","):
            args.append(self.parse_term())
        self.expect(")")
        return tuple(args)

    def parse_atom(self) -> Atom:
        name = self.expect("ident")
        if self.kinds[self.pos] == "(":
            return Atom(name, self.parse_args())
        return Atom(name)

    def parse_body_item(self) -> "AtomicCon | Atom | None":
        pos = self.pos
        if self.kinds[pos] == "ident":
            word, call = self.words[pos], self.kinds[pos + 1] == "("
            if word == "true" and not call:
                self.pos = pos + 1
                return None
            if word in ARRAY_KINDS and call:
                self.pos = pos + 1
                args = self.parse_args()
                if len(args) != ARRAY_KINDS[word]:
                    raise self.fail(f"{word} expects {ARRAY_KINDS[word]} "
                                    f"arguments, got {len(args)}", pos)
                return ArrayCon(word, args)
            atom = self.parse_atom()
            after = self.kinds[self.pos]
            if after in RELATIONS or after in ("+", "-", "*"):
                raise self.fail("compound terms are not supported")
            return atom
        return self.parse_relcon()

    def parse_clause(self) -> Clause:
        self.clause_start, self.anonymous = self.pos, None
        head = self.parse_atom()
        conjuncts: list[AtomicCon] = []
        body: list[Atom] = []
        if self.accept(":-"):
            while True:
                item = self.parse_body_item()
                if isinstance(item, Atom):
                    body.append(item)
                elif item is not None:  # None is ``true``
                    conjuncts.append(item)
                if not self.accept(","):
                    break
        self.expect(".")
        return Clause(head, Constraint(tuple(conjuncts)), tuple(body))

    def parse_program(self) -> Program:
        """The program, its rules checked once every clause is parsed; a
        broken rule is reported at the start of the first clause breaking
        one."""
        clauses: list[Clause] = []
        starts: list[int] = []
        while self.kinds[self.pos] != "eof":
            starts.append(self.pos)
            clauses.append(self.parse_clause())
        try:
            return Program(tuple(clauses))
        except ProgramError as exc:
            index, problem = exc.problems[0]
            raise self.fail(problem, starts[index]) from None


def parse_program(text: str) -> Program:
    return _Parser(text).parse_program()

