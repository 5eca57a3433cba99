"""Deeper instances: wide challenge chains, order-3 pipeline, level-2 counters."""

import pytest

from hflcheck.denote import full, index_of, number_repr
from hflcheck.encodings import (
    bisim_word_formula,
    counter_formula,
    phi_m_formula,
)
from hflcheck.games import build_game, check_via_games, solve
from hflcheck.lts import gen_chain, gen_counter_lts, gen_word_lts, make_lts
from hflcheck.semantics import Evaluator, evaluate, holds
from hflcheck.syntax import App, Dia, Lam, Neg, Or, Prop, Var, apply_all
from hflcheck.types import PR, Arrow, Variance, big_f, chain_type

Z = Variance.ZERO
PAIR = Arrow(PR, Z, Arrow(PR, Z, PR))


def _two_arg_application(negated: bool):
    # apply a guessed two-argument function, forcing the opponent to pick
    # two challenge arguments before the polarity choice
    use = apply_all(Var("F"), Prop("q"), Dia("a", Prop("q")))
    fun = Lam("F", Z, PAIR, use)
    arg = Lam("X", Z, PR, Lam("Y", Z, PR, Or(Var("X"), Neg(Var("Y")))))
    app = App(fun, arg)
    return Neg(app) if negated else app


@pytest.mark.parametrize("negated", [False, True])
@pytest.mark.parametrize("monolithic", [False, True])
def test_arity_two_challenge_chain(negated, monolithic):
    # two-argument guesses need a one-state model to stay enumerable
    models = [
        make_lts(1, [(0, "a", 0)], [(0, "q")]),
        make_lts(1, [(0, "a", 0)], []),
        make_lts(1, [], [(0, "q")]),
    ]
    for lts in models:
        phi = _two_arg_application(negated)
        direct = evaluate(lts, phi)
        game = build_game(lts, 0, phi, monolithic=monolithic)
        winner_exists = solve(game).winner == "exists"
        assert winner_exists == bool(direct.mask & 1)


def test_bisim_word_through_games():
    phi = bisim_word_formula(("a", "b"))
    models = [
        gen_word_lts(("a", "b")),
        make_lts(2, [(0, "a", 1), (0, "b", 1)]),
        make_lts(2, [(0, "a", 1), (0, "a", 0)]),
    ]
    for lts in models:
        assert check_via_games(lts, 0, phi) == holds(lts, 0, phi)


def test_phi_m_through_games():
    phi = phi_m_formula(1)
    for n in (1, 2):
        lts = gen_chain(n)
        assert check_via_games(lts, 0, phi) == holds(lts, 0, phi)


def test_level2_counters_over_one_state():
    # the construction is uniform in the level; run a third level to
    # exercise the recursion once more (16 values over a single state)
    k, p = 2, 1
    f = big_f(k, p)
    assert f == 16
    lts = gen_counter_lts(p)
    ev = Evaluator(lts)

    def applied(v, *args):
        for a in args:
            v = ev.apply_value(v, a)
        return ev.reify_value(v)

    reprs = [number_repr(i, k, p) for i in range(f)]
    inc = ev.eval_closed(counter_formula("inc", k, p))
    dec = ev.eval_closed(counter_formula("dec", k, p))
    for i in range(f):
        assert index_of(applied(inc, reprs[i])) == (i + 1) % f
        assert index_of(applied(dec, reprs[i])) == (i - 1) % f
    eq = ev.eval_closed(counter_formula("eq", k, p))
    lt = ev.eval_closed(counter_formula("lt", k, p))
    gt = ev.eval_closed(counter_formula("gt", k, p))
    everything = full(p)
    for i in range(f):
        for j in range(f):
            assert (applied(eq, reprs[i], reprs[j]) == everything) == (i == j)
            assert (applied(lt, reprs[i], reprs[j]) == everything) == (i < j)
            assert (applied(gt, reprs[i], reprs[j]) == everything) == (i > j)


def test_level2_quantifiers_over_one_state():
    k, p = 2, 1
    lts = gen_counter_lts(p)
    ev = Evaluator(lts)
    pred = Lam(
        "W", Z, chain_type(k),
        apply_all(counter_formula("eq", k, p), Var("W"),
                  counter_formula("max", k, p)),
    )
    assert ev.denotation(App(counter_formula("exists", k, p), pred)) == full(p)
    assert ev.denotation(App(counter_formula("forall", k, p), pred)).mask == 0


def test_evaluator_handles_deep_nesting():
    # 6,000 Neg(Dia) pairs are 12,000 nested nodes: compiling must not
    # recurse, and evaluating may take one frame per node.  Typechecking
    # takes two frames per node, so it is left out here.
    lts = gen_counter_lts(2)
    pairs = 6_000
    phi = Prop("q")
    for _ in range(pairs):
        phi = Neg(Dia("lower", phi))
    # q holds nowhere; [lower] over the one lower edge 1 -> 0 alternates.
    mask = 0
    for _ in range(pairs):
        pre = 0b10 if mask & 0b01 else 0
        mask = pre ^ 0b11
    assert evaluate(lts, phi, typecheck=False).mask == mask
