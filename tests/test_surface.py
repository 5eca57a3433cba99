"""Parser and printer: examples, errors, round-trip stability."""

import random

import pytest

from hflcheck.errors import ParseError
from hflcheck.surface import parse_formula, parse_type, print_formula, print_type
from hflcheck.syntax import (
    App,
    Dia,
    Lam,
    Mu,
    MuVec,
    Neg,
    Or,
    Prop,
    Var,
    tt,
)
from hflcheck.types import PR, Arrow, Variance

import oracles
import randgen


def test_parse_diamond_tt():
    assert parse_formula("<a> tt") == Dia("a", tt())


def test_parse_mu():
    got = parse_formula("mu (X:Pr). <out> X")
    assert got == Mu("X", PR, Dia("out", Var("X")))


def test_parse_example_buffer_text_round_trips():
    text = (
        "mu (X:Pr^0 -> Pr).(\\(Z:Pr)^0. <out> Z | <in> (X (X Z))) tt"
    )
    ast = parse_formula(text)
    again = parse_formula(print_formula(ast))
    assert oracles.alpha_eq(ast, again)


def test_parse_application_left_assoc():
    got = parse_formula("X Y Z")
    assert got == App(App(Var("X"), Var("Y")), Var("Z"))


def test_parse_connective_precedence():
    # & binds tighter than |, both tighter than ->
    got = parse_formula("p | q & r -> s")
    expect = parse_formula("((p | (q & r))) -> s")
    assert got == expect


def test_parse_impl_right_assoc():
    assert parse_formula("p -> q -> r") == parse_formula("p -> (q -> r)")


def test_parse_variance_positions():
    lam = parse_formula("\\(X:Pr)^0. X")
    assert lam == Lam("X", Variance.ZERO, PR, Var("X"))
    lam = parse_formula("\\(X:Pr). X")
    assert lam.variance is Variance.PLUS
    ty = parse_type("Pr^- -> Pr")
    assert ty == Arrow(PR, Variance.MINUS, PR)
    ty = parse_type("Pr -> Pr")
    assert ty.variance is Variance.PLUS


def test_parse_type_right_assoc():
    ty = parse_type("Pr -> Pr -> Pr")
    assert ty == Arrow(PR, Variance.PLUS, Arrow(PR, Variance.PLUS, PR))
    ty = parse_type("(Pr^0 -> Pr)^0 -> Pr")
    assert ty == Arrow(Arrow(PR, Variance.ZERO, PR), Variance.ZERO, PR)


def test_parse_vector_fixpoint():
    got = parse_formula("fix 2 (X:Pr. Y; Y:Pr. X)")
    assert got == MuVec(2, (("X", PR, Var("Y")), ("Y", PR, Var("X"))))


def test_parse_identifier_classes():
    assert parse_formula("q") == Prop("q")
    assert parse_formula("Q") == Var("Q")
    assert parse_formula("__q") == Prop("__q")
    assert parse_formula("\u00c9a | \u00b5") == Or(Var("\u00c9a"), Prop("\u00b5"))


def test_parse_comments_and_whitespace():
    assert parse_formula("q  # trailing comment\n | p") == Or(Prop("q"), Prop("p"))


def test_nu_parses_to_negated_mu():
    got = parse_formula("nu (X:Pr). X")
    assert got == Neg(Mu("X", PR, Neg(Neg(Var("X")))))


def test_parse_error_has_span():
    with pytest.raises(ParseError) as err:
        parse_formula("q | (p & ")
    assert err.value.span is not None
    text = "q | (p & "
    assert 0 <= err.value.span.start <= len(text)


def test_parse_error_unbalanced():
    with pytest.raises(ParseError):
        parse_formula("((q)")
    with pytest.raises(ParseError):
        parse_formula("q)")


@pytest.mark.parametrize("parse, text, message, span, expected", [
    (parse_formula, "q | (p & ",
     "found 'end of input' at 9..9 (expected: formula)", (9, 9), {"formula"}),
    (parse_formula, "((q)",
     "found 'end of input' at 4..4 (expected: ))", (4, 4), {")"}),
    (parse_formula, "q)", "trailing input ')' at 1..2", (1, 2), set()),
    (parse_formula, "< a > q",
     "stray '<' at 0..1 (expected: <->, <action>)", (0, 1), {"<->", "<action>"}),
    (parse_formula, "<-x",
     "stray '<' at 0..1 (expected: <->, <action>)", (0, 1), {"<->", "<action>"}),
    (parse_formula, "[a q",
     "stray '[' at 0..1 (expected: [action])", (0, 1), {"[action]"}),
    (parse_formula, "<A> q", "actions are lowercase-first at 0..3", (0, 3), set()),
    (parse_formula, "p ^ q", "unexpected character '^' at 2..3", (2, 3), set()),
    # Unicode numerics that are not letters start no name.
    (parse_formula, "p \u00bd", "unexpected character '\u00bd' at 2..3", (2, 3),
     set()),
    (parse_formula, "<\u2170> q",
     "stray '<' at 0..1 (expected: <->, <action>)", (0, 1), {"<->", "<action>"}),
    (parse_formula, "mu (fix:Pr). q",
     "found 'fix' at 4..7 (expected: variable)", (4, 7), {"variable"}),
    (parse_formula, "fix (X:Pr. X)",
     "fix needs a component index at 4..5 (expected: NAT)", (4, 5), {"NAT"}),
    (parse_formula, "fix 3 (X:Pr. X)",
     "component index 3 out of range at 4..5", (4, 5), set()),
    (parse_type, "Pr^0",
     "found 'end of input' at 4..4 (expected: ->)", (4, 4), {"->"}),
])
def test_parse_error_contract(parse, text, message, span, expected):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == message
    assert (err.value.span.start, err.value.span.end) == span
    assert err.value.expected == expected


def test_parse_error_reserved_word():
    with pytest.raises(ParseError):
        parse_formula("\\(Pr:Pr). q")
    with pytest.raises(ParseError):
        parse_formula("mu (fix:Pr). q")


def test_iff_vs_modality_lexing():
    got = parse_formula("q <-> p")
    assert got == parse_formula("(q -> p) & (p -> q)")
    got = parse_formula("<ab> q")
    assert got == Dia("ab", Prop("q"))
    with pytest.raises(ParseError):
        parse_formula("< a > q")  # whitespace inside modality brackets


def test_round_trip_random_asts():
    rng = random.Random(2024)
    for i in range(1000):
        phi = randgen.random_hfl_formula(rng, randgen.HoGenConfig(max_depth=4))
        text = print_formula(phi)
        assert oracles.alpha_eq(parse_formula(text), phi), text


def test_round_trip_full_paren_mode():
    rng = random.Random(2025)
    for _ in range(200):
        phi = randgen.random_hfl_formula(rng, randgen.HoGenConfig(max_depth=3))
        text = print_formula(phi, full_parens=True)
        assert oracles.alpha_eq(parse_formula(text), phi), text


def test_round_trip_vector_fixpoint():
    vec = MuVec(
        1,
        (
            ("X", PR, Or(Prop("q"), Var("Y"))),
            ("Y", Arrow(PR, Variance.ZERO, PR),
             Lam("Z", Variance.ZERO, PR, Var("Z"))),
        ),
    )
    assert parse_formula(print_formula(vec)) == vec


def test_type_print_round_trip():
    for text in ("Pr", "Pr^0 -> Pr", "(Pr^+ -> Pr)^- -> Pr^0 -> Pr"):
        ty = parse_type(text)
        assert parse_type(print_type(ty)) == ty
