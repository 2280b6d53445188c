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

A token is a (kind, text, offset) triple.  Variables, identifiers and
integers have the kinds ``var``, ``ident`` and ``int``; an operator is its
own kind, so the parser matches every token by kind alone.  ``<=`` gets
the kind ``=<`` and keeps its text, so error messages quote the token as
written.
"""

from __future__ import annotations

import itertools
import re
from typing import NamedTuple

from .syntax import (ARRAY_KINDS, RELATIONS, ArrayCon, Atom, AtomicCon, Clause,
                     Const, Constraint, LinExpr, Program, ProgramError, RelCon,
                     Term, Var)


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class _Token(NamedTuple):
    kind: str
    text: str
    offset: int


_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<comment>%[^\n]*)
  | (?P<var>[A-Z_][A-Za-z0-9_]*)
  | (?P<ident>[a-z][A-Za-z0-9_]*)
  | (?P<int>\d+)
  | (?P<op>:-|=<|<=|>=|[=<>.,()*+-])
  | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)


def _error(message: str, text: str, offset: int) -> ParseError:
    """A ParseError at ``offset``, with its line and column counted from 1."""
    bol = text.rfind("\n", 0, offset) + 1
    return ParseError(message, text.count("\n", 0, offset) + 1, offset - bol + 1)


def _tokenize(text: str) -> list[_Token]:
    """The tokens of ``text``, ending with an ``eof`` token; an operator's
    kind is the operator itself, ``<=`` being read as ``=<``."""
    tokens: list[_Token] = []
    for m in _TOKEN_RE.finditer(text):
        kind, word = m.lastgroup, m.group()
        if kind == "op":
            kind = "=<" if word == "<=" else word
        elif kind == "bad":
            raise _error(f"unexpected character {word!r}", text, m.start())
        elif kind == "ws" or kind == "comment":
            continue
        tokens.append(_Token(kind, word, m.start()))
    tokens.append(_Token("eof", "", len(text)))
    return tokens


# token kinds named in words; the others are quoted as they are written
_KIND_WORDS = {"var": "a variable", "int": "an integer", "ident": "a name"}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.here = self.tokens[0]
        self.clause_start, self.anonymous = 0, None

    def advance(self) -> _Token:
        tok = self.here
        self.pos += 1
        self.here = self.tokens[self.pos]
        return tok

    def accept(self, kind: str) -> bool:
        """Step past the current token if it has ``kind``."""
        if self.here.kind != kind:
            return False
        self.advance()
        return True

    def fail(self, message: str, tok: _Token | None = None) -> ParseError:
        """A ParseError at ``tok``, by default the current token."""
        return _error(message, self.text, (tok or self.here).offset)

    def unexpected(self, wanted: str) -> ParseError:
        """A ParseError at the current token, which is not ``wanted``."""
        return self.fail(f"expected {wanted}, found "
                         f"{self.here.text or 'end of input'!r}")

    def expect(self, kind: str) -> _Token:
        if self.here.kind != kind:
            raise self.unexpected(_KIND_WORDS.get(kind) or repr(kind))
        return self.advance()

    def integer(self, tok: _Token) -> int:
        """The int token's value; a ParseError at it when the literal is
        too long for Python to convert."""
        try:
            return int(tok.text)
        except ValueError:
            raise self.fail(f"integer literal of {len(tok.text)} digits is "
                            "too long", tok) from None

    def var_name(self, tok: _Token) -> str:
        """The token's variable name; each ``_`` gets a fresh one, apart
        from every variable written in its clause."""
        if tok.text != "_":
            return tok.text
        if self.anonymous is None:
            end = self.clause_start
            while self.tokens[end].kind not in (".", "eof"):
                end += 1
            written = {t.text for t in self.tokens[self.clause_start:end]
                       if t.kind == "var"}
            self.anonymous = (f"_{i}" for i in itertools.count()
                              if f"_{i}" not in written)
        return next(self.anonymous)

    # --- terms and expressions -------------------------------------------

    def parse_term(self) -> Term:
        tok = self.here
        if tok.kind == "var":
            self.advance()
            return Var(self.var_name(tok))
        if tok.kind == "int":
            self.advance()
            return Const(self.integer(tok))
        if self.accept("-"):
            return Const(-self.integer(self.expect("int")))
        raise self.unexpected("a variable or integer")

    def parse_linexpr(self) -> LinExpr:
        pairs: list[tuple[str, int]] = []
        const = 0
        sign = -1 if self.accept("-") else 1
        if sign == 1:
            self.accept("+")
        while True:
            tok = self.here
            if tok.kind == "int":
                self.advance()
                coeff = sign * self.integer(tok)
                if self.accept("*"):
                    pairs.append((self.var_name(self.expect("var")), coeff))
                else:
                    const += coeff
            elif tok.kind == "var":
                self.advance()
                coeff = sign
                if self.accept("*"):
                    coeff *= self.integer(self.expect("int"))
                pairs.append((self.var_name(tok), coeff))
            else:
                raise self.unexpected("a term")
            if self.accept("+"):
                sign = 1
            elif self.accept("-"):
                sign = -1
            else:
                return LinExpr.make(pairs, const)

    def parse_relcon(self) -> RelCon:
        lhs = self.parse_linexpr()
        tok = self.here
        if tok.kind not in RELATIONS:
            raise self.unexpected("a relation")
        self.advance()
        return RelCon(tok.kind, lhs, self.parse_linexpr())

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
        if self.here.kind == "(":
            return Atom(name.text, self.parse_args())
        return Atom(name.text)

    def parse_body_item(self) -> "AtomicCon | Atom | None":
        tok = self.here
        if tok.kind == "ident":
            if tok.text == "true" and self.tokens[self.pos + 1].kind != "(":
                self.advance()
                return None
            if tok.text in ARRAY_KINDS and self.tokens[self.pos + 1].kind == "(":
                self.advance()
                args = self.parse_args()
                if len(args) != ARRAY_KINDS[tok.text]:
                    raise self.fail(f"{tok.text} expects {ARRAY_KINDS[tok.text]} "
                                    f"arguments, got {len(args)}", tok)
                return ArrayCon(tok.text, args)
            atom = self.parse_atom()
            if self.here.kind in RELATIONS or self.here.kind in ("+", "-", "*"):
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
        starts: list[_Token] = []
        while self.here.kind != "eof":
            starts.append(self.here)
            clauses.append(self.parse_clause())
        try:
            return Program(tuple(clauses))
        except ProgramError as exc:
            index, problem = exc.problems[0]
            raise self.fail(problem, starts[index]) from None


def parse_program(text: str) -> Program:
    return _Parser(text).parse_program()

