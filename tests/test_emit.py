"""Output formats: the clause syntax printer and SMT-LIB HORN emission."""

import hashlib
import random

import pytest

from chcslim import (SmtEmitError, cfar_transform, emit_clp, emit_smtlib_horn,
                     nlr_transform, parse_program)
from chcslim.corpus import corpus_names, load
from chcslim.syntax import Atom, ArrayCon, Clause, Constraint, Program, Var

from gen import frame_program, random_program


def test_emit_clp_matches_input_text(counter_p1):
    from conftest import P1_TEXT
    assert emit_clp(counter_p1) == P1_TEXT


def test_horn_header_declarations_and_query(counter_p1):
    lines = emit_smtlib_horn(counter_p1).strip().splitlines()
    assert lines[0] == "(set-logic HORN)"
    assert lines[1] == "(declare-fun newp1 (Int Int Int Int) Bool)"
    assert lines[2] == "(declare-fun newp2 (Int Int Int Int Int Int) Bool)"
    assert lines[-1] == "(check-sat)"
    asserts = [l for l in lines if l.startswith("(assert")]
    assert len(asserts) == 4
    assert asserts[0].endswith("false)))")
    assert "(newp1 X1 Y1 X2 Y2)" in asserts[0]


def test_horn_clause_shape(counter_p1):
    text = emit_smtlib_horn(counter_p1)
    fact = "(assert (forall ((X1 Int) (Y1 Int) (Z1 Int)) " \
           "(=> (>= Z1 10) (newp2 X1 Y1 Z1 X1 Y1 Z1))))"
    assert fact in text
    assert "(= Z1 (+ X1 1))" in text
    assert "(<= Z1 9)" in text


def test_ground_clause_emitted_without_forall():
    text = emit_smtlib_horn(parse_program("unsafe :- 1=<0."))
    assert "(assert (=> (<= 1 0) false))" in text
    assert "forall" not in text


def test_true_constraint_becomes_implication_from_true():
    text = emit_smtlib_horn(parse_program("unsafe :- p(X).\np(X)."))
    assert "(assert (forall ((X Int)) (p X)))" in text


def test_read_becomes_select_over_array_sort():
    prog = parse_program("p(A,I,V) :- read(A,I,V).\nunsafe :- V>=5, p(A,I,V).")
    text = emit_smtlib_horn(prog)
    assert "(declare-fun p ((Array Int Int) Int Int) Bool)" in text
    assert "(= (select A I) V)" in text


def test_write_constraint_uses_store():
    prog = parse_program(
        "p(A,B) :- write(A,1,5,B).\nunsafe :- p(A,B).")
    text = emit_smtlib_horn(prog)
    assert "(= B (store A 1 5))" in text


ARRAY_FLOW = "p(A) :- read(A,I,V), V>=0.\nq(X) :- p(X).\n"


def test_array_sort_flows_through_several_clauses():
    text = emit_smtlib_horn(parse_program(ARRAY_FLOW + "unsafe :- q(Y)."))
    assert "(declare-fun q ((Array Int Int)) Bool)" in text
    assert "(assert (forall ((Y (Array Int Int))) (=> (q Y) false)))" in text


def test_array_sort_reaching_arithmetic_is_rejected():
    with pytest.raises(SmtEmitError):
        emit_smtlib_horn(parse_program(ARRAY_FLOW + "unsafe :- q(Y), Y>=0."))


def test_array_slot_inference_rejects_mixed_use():
    # A is used both as an array (in read) and as an integer (in X=A).
    prog = parse_program("p(A,I,V) :- read(A,I,V), X=A, q(X).\n"
                         "q(X) :- X=0.\nunsafe :- p(A,I,V).")
    with pytest.raises(SmtEmitError):
        emit_smtlib_horn(prog)


def test_emit_is_parse_stable_on_programmatic_asts():
    prog = Program((
        Clause(Atom("p", (Var("A"), Var("B"))),
               Constraint((ArrayCon("read", (Var("A"), Var("I"), Var("B"))),)),
               ()),
        Clause(Atom("unsafe", ()), Constraint(()), (Atom("p", (Var("A"), Var("B"))),)),
    ))
    assert parse_program(emit_clp(prog)) == prog


def test_reserved_words_are_quoted():
    # SMT-LIB 2.6 reserves its command names and the NUMERAL-style
    # placeholders; a predicate or variable so named must be quoted
    text = emit_smtlib_horn(parse_program(
        "push(NUMERAL, STRING) :- NUMERAL>=0, STRING=NUMERAL.\n"
        "pop(DECIMAL, BINARY, HEXADECIMAL) :- push(DECIMAL, BINARY), "
        "HEXADECIMAL=1.\n"
        "exit(X) :- pop(X, Y, Z).\necho(X) :- exit(X).\nreset(X) :- echo(X).\n"
        "unsafe :- reset(X), X<0."))
    assert "(declare-fun |push| (Int Int) Bool)" in text
    for word in ("pop", "exit", "echo", "reset"):
        assert f"(declare-fun |{word}| " in text
    for word in ("NUMERAL", "STRING", "DECIMAL", "BINARY", "HEXADECIMAL"):
        assert f"(|{word}| Int)" in text
    assert "(>= |NUMERAL| 0)" in text


# the texts above that reach array sorts, quoted symbols or an emit error
EMIT_TEXTS = (
    "p(A,I,V) :- read(A,I,V).\nunsafe :- V>=5, p(A,I,V).",
    "p(A,B) :- write(A,1,5,B).\nunsafe :- p(A,B).",
    ARRAY_FLOW + "unsafe :- q(Y).",
    ARRAY_FLOW + "unsafe :- q(Y), Y>=0.",
    "p(A,I,V) :- read(A,I,V), X=A, q(X).\nq(X) :- X=0.\nunsafe :- p(A,I,V).",
    "push(NUMERAL, STRING) :- NUMERAL>=0, STRING=NUMERAL.\n"
    "pop(DECIMAL, BINARY, HEXADECIMAL) :- push(DECIMAL, BINARY), "
    "HEXADECIMAL=1.\nexit(X) :- pop(X, Y, Z).\necho(X) :- exit(X).\n"
    "reset(X) :- echo(X).\nunsafe :- reset(X), X<0.",
)

# the SHA-256 of the SMT-LIB text, or the emit error, of each program of
# the transform digest (tests/test_cfar.py) and of EMIT_TEXTS, raw, after
# nlr and after nlr then cfar: a change to the emitter must change none
SMT_OUTPUTS = "d18555b5af6893eef52b2329b51e789afa7398b6b39b8e447b6f4602d5d4722d"


def test_smt_outputs_are_pinned():
    rng, frames = random.Random(1), random.Random(2)
    programs = ([load(name) for name in corpus_names()]
                + [random_program(rng) for _ in range(300)]
                + [frame_program(frames) for _ in range(100)]
                + [parse_program(text) for text in EMIT_TEXTS])
    digest = hashlib.sha256()
    for prog in programs:
        slim, _ = nlr_transform(prog)
        both, _, _ = cfar_transform(slim)
        for stage in (prog, slim, both):
            try:
                text = emit_smtlib_horn(stage)
            except SmtEmitError as exc:
                text = f"error {exc}"
            digest.update(text.encode() + b"\0")
    assert digest.hexdigest() == SMT_OUTPUTS
