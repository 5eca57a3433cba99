"""Typing judgment, fragments, and the quantitative bounds."""

import pytest

from hflcheck.encodings import counter_formula, machine_formula, tape_formulas
from hflcheck.errors import BoundBudgetError, TypeError_, VarianceError
from hflcheck.syntax import App, Dia, Lam, Mu, Neg, Or, Prop, Var, iff
from hflcheck.types import (
    PR,
    Arrow,
    Context,
    PrType,
    Variance,
    big_f,
    chain_type,
    format_type,
    fragment,
    full_space_cardinality,
    full_space_height,
    height_bound,
    infer,
    lattice_size_bound,
    mar,
    ord_,
    tower,
    type_count_bound,
    typecheck,
)

import machines

Z = Variance.ZERO
P = Variance.PLUS


def test_infer_ground_fixpoint():
    assert typecheck(Mu("X", PR, Var("X"))) == PR


def test_infer_increment_needs_variance_zero():
    inc = Lam("X", Z, PR, iff(Var("X"), Dia("lower", Neg(Var("X")))))
    assert typecheck(inc) == Arrow(PR, Z, PR)
    bad = Lam("X", P, PR, iff(Var("X"), Dia("lower", Neg(Var("X")))))
    with pytest.raises(VarianceError):
        typecheck(bad)


def test_infer_negative_use_rejected():
    with pytest.raises(VarianceError):
        typecheck(Lam("X", P, PR, Neg(Var("X"))))


def test_infer_minus_variance_allows_negated_use():
    assert typecheck(Lam("X", Variance.MINUS, PR, Neg(Var("X")))) == Arrow(
        PR, Variance.MINUS, PR
    )


def test_infer_application_variances():
    f_plus = Lam("X", P, PR, Var("X"))
    assert typecheck(App(f_plus, Prop("q"))) == PR
    # a minus-variance argument is checked under the complement context
    ctx = Context({"Y": (Variance.MINUS, PR)})
    f_minus = Lam("X", Variance.MINUS, PR, Neg(Var("X")))
    assert infer(ctx, App(f_minus, Var("Y"))) == PR
    # variance-0 application requires the argument to check both ways
    f_zero = Lam("X", Z, PR, Var("X"))
    with pytest.raises(TypeError_):
        infer(Context({"Y": (P, PR)}), App(f_zero, Var("Y")))


def test_infer_fixpoint_body_type_must_match():
    with pytest.raises(TypeError_):
        typecheck(Mu("X", Arrow(PR, Z, PR), Prop("q")))


def test_infer_or_needs_ground():
    with pytest.raises(TypeError_):
        typecheck(Or(Lam("X", Z, PR, Var("X")), Prop("q")))


def test_typing_table_refuses_a_node_shared_under_two_typings():
    # One Var object, bound at Pr^0 -> Pr on the left and at Pr on the right:
    # each use is well typed, but an id-keyed table can hold only one type.
    x = Var("X")
    phi = App(Lam("X", Z, Arrow(PR, Z, PR), App(x, Prop("p"))),
              Lam("X", Z, PR, x))
    assert typecheck(phi) == PR
    with pytest.raises(TypeError_):
        infer(Context(), phi, types_out={})
    # the same type twice is no conflict
    y = Var("Y")
    table: dict = {}
    both = App(Lam("Y", Z, PR, y), App(Lam("Y", Z, PR, y), Prop("p")))
    assert infer(Context(), both, types_out=table) == PR
    assert table[id(y)] == PR


def test_ord_mar_examples():
    assert ord_(PR) == 0 and mar(PR) == 0
    t1 = Arrow(PR, Z, PR)
    assert ord_(t1) == 1 and mar(t1) == 1
    t2 = Arrow(t1, Z, PR)
    assert ord_(t2) == 2 and mar(t2) == 1
    wide = Arrow(PR, Z, Arrow(PR, Z, PR))
    assert ord_(wide) == 1 and mar(wide) == 2


def test_fragment_of_corpus_formulas():
    for k in (0, 1):
        inc = counter_formula("inc", k, 2)
        got_k, got_m = fragment(inc)
        assert got_k == k + 1
        assert got_m == (1 if k == 0 else 2)
    tp = tape_formulas(0, 2, (True,))
    assert fragment(tp.read[True]) == (2, 2)
    assert fragment(tp.write[True])[0] == 2
    assert fragment(tp.write[True])[1] == 3


def test_machine_formula_fragment():
    phi = machine_formula(machines.CELL0, 0, 2, (True,))
    assert fragment(phi) == (2, 3)
    phi_wordless = machine_formula(machines.CELL0, 0, 2, None)
    k, m = fragment(phi_wordless)
    assert (k, m) == (2, 5)


def test_tower_values():
    assert [tower(1, m) for m in range(4)] == [1, 2, 4, 16]
    assert tower(3, 0) == 3
    assert tower(2, 2) == 16


def test_big_f_values():
    assert big_f(0, 2) == 4
    assert big_f(1, 2) == 256
    assert big_f(0, 3) == 8
    assert big_f(1, 1) == 4
    assert big_f(2, 1) == 16


def test_lattice_size_bound_examples():
    assert lattice_size_bound(PR, 3) == 8
    assert lattice_size_bound(PR, 1) == 2
    assert lattice_size_bound(Arrow(PR, Z, PR), 1) == 16


def test_type_count_bound():
    for m in (1, 2, 3):
        assert type_count_bound(1, m) == m
    assert type_count_bound(2, 2) == 2**4


def test_height_bound_and_exact_height():
    assert height_bound(PR, 4) == 5
    t1 = Arrow(PR, Z, PR)
    assert full_space_height(t1, 1) == 1 + 1 * 2
    assert full_space_height(t1, 2) == 1 + 2 * 4
    # the monotone bound dominates the monotone sublattice height but the
    # full-space height may exceed it; both are checked in test_denote
    assert height_bound(t1, 1) >= 3


def test_full_space_cardinality():
    assert full_space_cardinality(PR, 2) == 4
    assert full_space_cardinality(Arrow(PR, Z, PR), 2) == 256
    assert full_space_cardinality(chain_type(2), 1) == 16


def test_budget_refusal_carries_symbolic_form():
    with pytest.raises(BoundBudgetError) as err:
        tower(10, 10)
    assert "tower" in str(err.value)
    with pytest.raises(BoundBudgetError):
        big_f(9, 50)
    with pytest.raises(BoundBudgetError):
        full_space_cardinality(chain_type(4), 8)


def test_context_complement_involution():
    ctx = Context({"X": (P, PR), "Y": (Variance.MINUS, PR), "Z": (Z, PR)})
    again = ctx.complement().complement()
    assert dict(again.items()) == dict(ctx.items())


def test_format_type():
    assert format_type(Arrow(PR, Z, PR)) == "Pr^0 -> Pr"
    nested = Arrow(Arrow(PR, P, PR), Variance.MINUS, PR)
    assert format_type(nested) == "(Pr^+ -> Pr)^- -> Pr"


def test_typed_corpus_evaluates_to_ground():
    # soundness harness: closed Pr formulas evaluate to ground denotations
    from hflcheck.denote import Ground
    from hflcheck.lts import gen_counter_lts
    from hflcheck.semantics import evaluate

    lts = gen_counter_lts(2)
    for name in ("eq", "lt", "gt"):
        phi = App(
            App(counter_formula(name, 0, 2), Prop("q")), Prop("q")
        )
        assert isinstance(typecheck(phi), PrType)
        assert isinstance(evaluate(lts, phi), Ground)
