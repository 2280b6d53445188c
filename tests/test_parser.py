"""Concrete syntax: parsing, error positions, and the print/parse
round trip."""

import hashlib
import random
import re
from collections import Counter

import pytest

from chcslim import (ParseError, TriState, derives_unsafe, emit_clp,
                     emit_smtlib_horn, parse_program)
from chcslim.corpus import corpus_dir, corpus_names, load
from chcslim.syntax import Atom, Const, Constraint, Var

from gen import clause_of, frame_program, random_program
from oracles import programs_isomorphic


def test_parses_counter_example(counter_p1):
    prog = counter_p1
    assert list(prog.arities) == ["unsafe", "newp1", "newp2"]
    assert prog.arities == {"unsafe": 0, "newp1": 4, "newp2": 6}
    assert len(prog.clauses) == 4
    query = prog.clauses[0]
    assert query.head.pred == "unsafe"
    assert len(query.constraint.conjuncts) == 2
    assert query.body == (Atom("newp1", (Var("X1"), Var("Y1"), Var("X2"), Var("Y2"))),)


def test_parse_clause_terms():
    clause = clause_of("p(X,3,-2) :- X=1.")
    assert clause.head.args == (Var("X"), Const(3), Const(-2))


def test_relation_aliases_canonicalize():
    prog = parse_program("p(X) :- X <= 1, X < 2, X >= 0, X > -1.\nunsafe :- p(X).")
    assert emit_clp(prog).splitlines()[0] == "p(X) :- X=<1, X<2, X>=0, X>-1."


def test_true_body_and_bodyless_query():
    prog = parse_program("p(X) :- true.\nunsafe.")
    assert prog.clauses[0].constraint == Constraint()
    assert prog.clauses[1].head.pred == "unsafe"
    assert emit_clp(prog) == "p(X).\nunsafe.\n"


def test_comments_and_whitespace_ignored():
    prog = parse_program("% leading\n\n  p(X) :- X=1.  % trailing\nunsafe :- p(X).\n")
    assert len(prog.clauses) == 2


def test_array_constraints_parse_as_constraints():
    prog = parse_program("p(A,I,V) :- read(A,I,V).\nunsafe :- p(A,I,V).")
    clause = prog.clauses[0]
    assert clause.body == ()
    assert len(clause.constraint.conjuncts) == 1
    assert clause.constraint.has_arrays()


@pytest.mark.parametrize("source, position, fragment", [
    ("p(X) :- q(X", "1:12", "expected ')'"),
    ("p(f(X)) :- true.", "1:3", "expected a variable or integer"),
    ("p(x) :- true.", "1:3", "expected a variable or integer"),
    ("p(X) :- X >< 1.", "1:12", "expected a term"),
    ("p(X) :- X <= <= 1.", "1:14", "found '<='"),
    ("unsafe(X) :- X=1.", "1:1", "must be nullary"),
    ("unsafe :- p(X).\np(X) :- unsafe.", "2:1", "head-only"),
    ("p(X) :- q(X).\nq(X,Y) :- p(X).", "2:1", "arity 2, previously 1"),
    ("read(X,Y,Z) :- X=1.", "1:1", "reserved for array constraints"),
    ("p(X) :- read(X,Y).", "1:9", "expects 3"),
    ("p(X) :- X=1", "1:12", "expected"),
    ("% c\n\np(X) :- X=1 # 2.", "3:13", "unexpected character '#'"),
    ("p(X) :- X=1. % tail\nq(Y) :- Y=$.", "2:11", "unexpected character '$'"),
    ("p(X) :-\n   q(X", "2:7", "expected ')'"),
    pytest.param("p(X) :- X=" + "9" * 5000 + ".", "1:11", "too long",
                 id="huge-literal"),
    # letters are ASCII, and a digit is a decimal one, which '\u00b2' is not
    pytest.param("p(X) :- X=\u00b2.", "1:11", "unexpected character '\u00b2'",
                 id="superscript-two"),
    pytest.param("p(X) :- X=\u00e9.", "1:11", "unexpected character '\u00e9'",
                 id="e-acute"),
    pytest.param("p(X) :-\r\n  X=1 #.", "2:7", "unexpected character '#'",
                 id="crlf"),
    pytest.param("p(X) :-\u00a0X=1\u00a0#.", "1:13", "unexpected character '#'",
                 id="nbsp"),
])
def test_errors_carry_position(source, position, fragment):
    with pytest.raises(ParseError) as info:
        parse_program(source)
    message = str(info.value)
    assert message.startswith(position)
    assert fragment in message


@pytest.mark.parametrize("source, message", [
    ("p(X) :- X = 2*.", "1:15: expected a variable, found '.'"),
    ("p(X) :- X = Y*.", "1:15: expected an integer, found '.'"),
    ("1 :- true.", "1:1: expected a name, found '1'"),
    ("p(", "1:3: expected a variable or integer, found 'end of input'"),
    ("p(X) :- q(X", "1:12: expected ')', found 'end of input'"),
    ("p(X) :- X", "1:10: expected a relation, found 'end of input'"),
    ("p(X) :- X=", "1:11: expected a term, found 'end of input'"),
])
def test_error_messages_name_what_was_expected(source, message):
    # token kinds read as words, and the end of the text as 'end of input'
    with pytest.raises(ParseError) as info:
        parse_program(source)
    assert str(info.value) == message


# the SHA-256 of the 2,000 outcomes below, each the program's text or
# the full error message with its position: a change to the tokenizer or
# the parser must change none of them
EDITED_OUTCOMES = "5437d9fc6f7810e8985da4b01f6ad4c9a780a57ef17fdf47981ba0d1aae52dc7"


def _edited_outcomes(rng: random.Random, source, edits: tuple[str, ...]):
    """The outcome counts and the SHA-256 of 2,000 texts, each drawn from
    ``source()`` and edited by one of ``edits``: a character inserted,
    deleted or swapped with another, or ``none``."""
    outcomes, digest = Counter(), hashlib.sha256()
    for _ in range(2000):
        chars = list(source())
        i, j = rng.randrange(len(chars)), rng.randrange(len(chars))
        edit = rng.choice(edits)
        if edit == "insert":
            chars.insert(i, rng.choice("()<=>-+*,.:_%#XYZabtrue019 \n"))
        elif edit == "delete":
            del chars[i]
        elif edit == "swap":
            chars[i], chars[j] = chars[j], chars[i]
        try:
            outcome = "program\n" + emit_clp(parse_program("".join(chars)))
            outcomes["program"] += 1
        except ParseError as exc:
            outcome = f"error {exc}\n"
            outcomes["error"] += 1
        digest.update(outcome.encode())
    return outcomes, digest.hexdigest()


def test_edited_corpus_texts_give_a_program_or_a_parse_error():
    # one hostile input never ends a batch: a text one character edit away
    # from a corpus file parses or raises ParseError, and nothing else;
    # which one, and the message and position, are pinned
    rng = random.Random(1202)
    texts = [(corpus_dir() / f"{name}.clp").read_text() for name in corpus_names()]
    outcomes, digest = _edited_outcomes(rng, lambda: rng.choice(texts),
                                        ("insert", "delete", "swap"))
    assert outcomes == {"program": 1246, "error": 754}
    assert digest == EDITED_OUTCOMES


def _expression(rng: random.Random) -> str:
    """A linear expression over few names, so that terms repeat and
    cancel: an optional leading sign, then terms ``N``, ``N*V``, ``V*N``
    or ``V`` (``_`` among the names) with coefficients from 0 to 3."""
    pieces = [rng.choice(("", "", "+", "-"))]
    for k in range(rng.randint(1, 4)):
        if k:
            pieces.append(rng.choice("+-"))
        name, coeff = rng.choice("XXYYZ_"), str(rng.randint(0, 3))
        pieces.append(rng.choice((coeff, f"{coeff}*{name}", f"{name}*{coeff}",
                                  name, name)))
    return "".join(pieces)


def _hot_text(rng: random.Random) -> str:
    """A program text whose clauses take every branch of the clause loop:
    the expressions of ``_expression`` under each relation (``<=`` among
    them), ``true``, ``read`` and ``write``, ``_`` and negative integers
    as arguments, and atoms with and without arguments."""
    def arg() -> str:
        return rng.choice(("X", "Y", "_", "A", str(rng.randint(0, 9)),
                           f"-{rng.randint(0, 9)}"))

    def atom(pred: str) -> str:
        return pred if pred == "r" else f"{pred}({','.join(arg() for _ in range(2))})"

    lines = []
    for _ in range(rng.randint(2, 4)):
        head = rng.choice(("p", "q", "r", "unsafe"))
        items = []
        for _ in range(rng.randint(0, 4)):
            roll = rng.random()
            if roll < 0.5:
                rel = rng.choice(("=", "<", "=<", "<=", ">", ">="))
                items.append(f"{_expression(rng)}{rel}{_expression(rng)}")
            elif roll < 0.6:
                items.append("true")
            elif roll < 0.7:
                items.append(f"read(A,{arg()},{arg()})")
            elif roll < 0.8:
                items.append(f"write(A,{arg()},{arg()},B)")
            else:
                items.append(atom(rng.choice("pqr")))
        clause = atom(head) if head != "unsafe" else head
        if items:
            clause += rng.choice((" :- ", ":-", " :-\n  ")) + rng.choice(
                (",", ", ", ",\n  ")).join(items)
        lines.append(clause + ".")
    return "\n".join(lines) + "\n"


# the SHA-256 of the 2,000 outcomes below, as for EDITED_OUTCOMES
EDITED_HOT_OUTCOMES = "122690156cd8676fffeaea28b693414bc498611f872967db3954f2b1e761a0cb"


def test_edited_hot_texts_give_a_program_or_a_parse_error():
    # the corpus edits above rarely reach coefficients, signs, repeated
    # and zero terms, ``_``, ``true`` or arrays; these texts are built of them
    rng = random.Random(2917)
    outcomes, digest = _edited_outcomes(rng, lambda: _hot_text(rng),
                                        ("insert", "delete", "swap", "none"))
    assert outcomes == {"program": 913, "error": 1087}
    assert digest == EDITED_HOT_OUTCOMES


@pytest.mark.parametrize("source", [
    "p(X) :- X=\u0663.",  # ARABIC-INDIC DIGIT THREE, a decimal digit
    "p(X) :-\u00a0X=3.",
    "p(X) :-\r\n  X=3.\r\n",
    "p(X) :- X=3. % a comment at the end, with no newline",
    "p(X) :- X=3.%",
])
def test_lexical_edge_cases_that_parse(source):
    assert emit_clp(parse_program(source)) == "p(X) :- X=3.\n"


def _tokens(text: str) -> list[str]:
    """The tokens of an emitted text, split without the parser."""
    return re.findall(r":-|=<|>=|\w+|\S", text)


def _noisy(text: str, rng: random.Random) -> str:
    """``text`` respelled: whitespace and ``%`` comments between its
    tokens, ``<=`` for some ``=<``, and a ``+`` before some expressions
    that do not start with ``-``."""
    tokens = _tokens(text)
    out, depth = [], 0
    for i, tok in enumerate(tokens):
        after = tokens[i + 1] if i + 1 < len(tokens) else ""
        out.append("<=" if tok == "=<" and rng.random() < 0.5 else tok)
        depth += (tok == "(") - (tok == ")")
        # an expression follows a relation, or a ':-' or ',' outside an
        # atom when no predicate name does
        starts_expr = tok in ("=", "<", "=<", ">", ">=") or (
            depth == 0 and tok in (":-", ",") and not after[0].islower())
        if starts_expr and after != "-" and rng.random() < 0.5:
            out.append("+")
        out.append(rng.choice(("", "", " ", "\n", "\t", "\r\n", "\u00a0",
                               "  % a comment :- p(X). \u00e9\n")))
    if rng.random() < 0.5:
        out.append("% a last comment, with no newline")
    return "".join(out)


def test_round_trip_under_lexical_noise():
    rng = random.Random(1603)
    programs = [random_program(rng) for _ in range(150)]
    programs += [frame_program(rng) for _ in range(50)]
    texts = []
    for prog in programs:
        noisy = _noisy(emit_clp(prog), rng)
        assert parse_program(noisy) == prog, noisy
        texts.append(noisy)
    for respelling in ("<=", "=+", ":-+", ",+", "% a comment", "\u00a0",
                       "\r\n"):
        assert any(respelling in text for text in texts), respelling


def test_constraint_only_clause():
    clause = clause_of("p :- X=<1, Y=X+2.")
    assert clause.body == ()
    assert [str(c) for c in clause.constraint.conjuncts] == ["X=<1", "Y=X+2"]
    assert clause.constraint.vars() == {"X", "Y"}


@pytest.mark.parametrize("name", corpus_names())
def test_corpus_round_trips(name):
    prog = load(name)
    again = parse_program(emit_clp(prog))
    assert again == prog


def test_random_programs_round_trip():
    rng = random.Random(4241)
    for _ in range(60):
        prog = random_program(rng)
        again = parse_program(emit_clp(prog))
        assert again == prog
        assert programs_isomorphic(prog, again)


ANONYMOUS = "p(1,2).\nq(X) :- X=0, p(_,_).\nunsafe :- q(X).\n"


def test_anonymous_variables_are_distinct():
    prog = parse_program(ANONYMOUS)
    assert prog.clauses[1].body[0].args == (Var("_0"), Var("_1"))
    assert derives_unsafe(prog, bound=8) is TriState.HOLDS


def test_anonymous_variables_avoid_written_names():
    clause = clause_of("p(_,_0,_) :- _0=_+1.")
    assert clause.head.args == (Var("_1"), Var("_0"), Var("_2"))
    assert clause.constraint.vars() == {"_0", "_3"}


def test_anonymous_variables_bind_apart_in_smt():
    smt = emit_smtlib_horn(parse_program(ANONYMOUS))
    line = next(l for l in smt.splitlines() if "(p " in l and "forall" in l)
    binders = re.findall(r"\(([^()\s]+) Int\)", line)
    assert len(binders) == len(set(binders)) == 3
    first, second = re.search(r"\(p ([^()\s]+) ([^()\s]+)\)", line).groups()
    assert first != second and {first, second} <= set(binders)


def test_anonymous_variables_round_trip():
    prog = parse_program(ANONYMOUS)
    assert parse_program(emit_clp(prog)) == prog
