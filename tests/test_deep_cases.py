"""Deeper instances: wide challenge chains, order-3 pipeline, level-2 counters."""

import functools

import pytest

from hflcheck.denote import full, index_of, number_repr
from hflcheck.encodings import (
    bisim_word_formula,
    counter_formula,
    phi_m_formula,
)
from hflcheck.games import build_game, size_bound_for, solve
from hflcheck.lts import gen_chain, gen_counter_lts, gen_word_lts, make_lts
from hflcheck.pipeline import check_via_games
from hflcheck.semantics import Evaluator, eliminate_fixpoints, evaluate, holds
from hflcheck.surface import parse_formula, print_formula
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
    apply_all,
    desugar_vec,
    iter_nodes,
    measures,
    substitute,
    tree_size,
)
from hflcheck.types import PR, Arrow, Variance, big_f, chain_type

import oracles

Z = Variance.ZERO
PAIR = Arrow(PR, Z, Arrow(PR, Z, PR))


def fails_fast(depth: int):
    """Report a RecursionError in the decorated test as a one-line failure
    naming the nesting depth.  Formatting the traceback of thousands of
    frames makes pytest take minutes to report the error itself; the
    failure is raised after the handler, so no traceback is kept."""

    def wrap(test):
        @functools.wraps(test)
        def run(*args, **kwargs):
            try:
                return test(*args, **kwargs)
            except RecursionError:
                pass
            pytest.fail(f"RecursionError at nesting depth {depth}",
                        pytrace=False)

        return run

    return wrap


def _two_arg_application(negated: bool):
    # apply a guessed two-argument function, forcing the opponent to pick
    # two challenge arguments before the polarity choice
    use = apply_all(Var("F"), Prop("q"), Dia("a", Prop("q")))
    fun = Lam("F", Z, PAIR, use)
    arg = Lam("X", Z, PR, Lam("Y", Z, PR, Or(Var("X"), Neg(Var("Y")))))
    app = App(fun, arg)
    return Neg(app) if negated else app


@pytest.mark.parametrize("negated", [False, True])
def test_arity_two_challenge_chain(negated):
    # two-argument guesses need a one-state model to stay enumerable
    models = [
        make_lts(1, [(0, "a", 0)], [(0, "q")]),
        make_lts(1, [(0, "a", 0)], []),
        make_lts(1, [], [(0, "q")]),
    ]
    for lts in models:
        phi = _two_arg_application(negated)
        direct = evaluate(lts, phi)
        game = build_game(lts, 0, phi)
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


@fails_fast(12_000)
def test_evaluator_handles_deep_nesting():
    # 6,000 Neg(Dia) pairs are 12,000 nested nodes: compiling must not
    # recurse.  The chain is closed, so compiling folds it to its value;
    # the open twin below evaluates it at run time.  Typechecking is left
    # out here; it takes one frame per node, as the typechecked test
    # below shows.
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


@fails_fast(12_000)
def test_evaluator_handles_deep_open_nesting():
    # The same chain over a lambda-bound variable is not folded: the
    # lambda's body evaluates it when applied to q, at most one frame per
    # nested node.
    lts = gen_counter_lts(2)
    pairs = 6_000
    phi = Var("Y")
    for _ in range(pairs):
        phi = Neg(Dia("lower", phi))
    phi = App(Lam("Y", Z, PR, phi), Prop("q"))
    mask = 0
    for _ in range(pairs):
        pre = 0b10 if mask & 0b01 else 0
        mask = pre ^ 0b11
    assert evaluate(lts, phi, typecheck=False).mask == mask


@fails_fast(12_001)
def test_evaluator_handles_deep_closed_applications():
    # Every application in the chain is closed and keeps its value; doing
    # so must not take a second frame per level on the first call.
    lts = gen_counter_lts(2)
    negate = Lam("X", Z, PR, Neg(Var("X")))
    phi = Prop("q")
    for _ in range(12_001):
        phi = App(negate, phi)
    assert evaluate(lts, phi, typecheck=False).mask == 0b11


@fails_fast(12_000)
def test_typechecked_evaluation_handles_deep_nesting():
    # Typechecking takes one frame per nested node, like evaluation, so
    # the same 6,000 pairs also evaluate with typechecking on.
    lts = gen_counter_lts(2)
    pairs = 6_000
    phi = Prop("q")
    for _ in range(pairs):
        phi = Neg(Dia("lower", phi))
    mask = 0
    for _ in range(pairs):
        pre = 0b10 if mask & 0b01 else 0
        mask = pre ^ 0b11
    assert evaluate(lts, phi).mask == mask


# 15,000 Neg(Dia) pairs are 30,000 nested nodes, past the 20,000 recursion
# limit the package sets: every rewrite must walk them without recursion.
DEEP_PAIRS = 15_000


def _deep(leaf):
    phi = leaf
    for _ in range(DEEP_PAIRS):
        phi = Neg(Dia("a", phi))
    return phi


def _leaf_under(phi):
    """The leaf under the Neg(Dia) pairs, checked pair by pair."""
    for _ in range(DEEP_PAIRS):
        assert type(phi) is Neg and type(phi.body) is Dia
        phi = phi.body.body
    return phi


@fails_fast(2 * DEEP_PAIRS)
def test_substitute_handles_deep_nesting():
    out = substitute(_deep(Var("X")), "X", Prop("q"))
    assert _leaf_under(out) == Prop("q")
    assert not out.fv


@fails_fast(2 * DEEP_PAIRS)
def test_desugar_vec_handles_deep_nesting():
    body = Or(Prop("q"), Dia("a", Var("X")))
    out = desugar_vec(_deep(MuVec(1, (("X", PR, body),))))
    assert _leaf_under(out) == Mu("X", PR, body)


@fails_fast(2 * DEEP_PAIRS)
def test_eliminate_fixpoints_handles_deep_nesting():
    lts = gen_chain(2)
    mu = Mu("X", PR, Or(Prop("q"), Dia("a", Var("X"))))
    leaf = _leaf_under(eliminate_fixpoints(_deep(mu), lts))
    assert not any(isinstance(f, Mu) for f in iter_nodes(leaf))
    assert evaluate(lts, leaf) == evaluate(lts, mu)


@fails_fast(2 * DEEP_PAIRS)
def test_tree_size_handles_deep_nesting():
    assert tree_size(_deep(Prop("q"))) == 2 * DEEP_PAIRS + 1


# The closure of _deep(q) steps two pairs at a time, from !<a>!<a>f to
# !!<a>f, <a>f and f: three members per two pairs, then q.
DEEP_CLOSURE = 3 * DEEP_PAIRS // 2 + 1


@fails_fast(2 * DEEP_PAIRS)
def test_measures_handle_deep_nesting():
    assert measures(_deep(Prop("q"))) == (DEEP_CLOSURE, 0)


@fails_fast(2 * DEEP_PAIRS)
def test_size_bound_for_handles_deep_nesting():
    # At order 0 the bound is 4 n^2 |closure|^2.
    bound = size_bound_for(_deep(Prop("q")), gen_chain(2), (0, 0))
    assert bound == 16 * DEEP_CLOSURE ** 2


@fails_fast(2 * DEEP_PAIRS)
def test_alpha_eq_handles_deep_nesting():
    # Free variables compare by name, bound ones by their binder.
    phi = _deep(Var("X"))
    other = substitute(phi, "X", Var("Y"))
    assert not oracles.alpha_eq(phi, other)
    assert oracles.alpha_eq(Lam("X", Z, PR, phi), Lam("Y", Z, PR, other))


@fails_fast(2 * DEEP_PAIRS)
def test_print_formula_handles_deep_nesting():
    text = print_formula(_deep(Prop("q")))
    assert _leaf_under(parse_formula(text)) == Prop("q")


@pytest.mark.parametrize("prefix, node", [("<a> ", Dia), ("!", Neg)])
@fails_fast(30_000)
def test_parse_formula_handles_long_prefix_runs(prefix, node):
    # A run of prefixes is read in a loop, so 30,000 take no frame each.
    phi = parse_formula(prefix * 30_000 + "q")
    for _ in range(30_000):
        assert type(phi) is node
        phi = phi.body
    assert phi == Prop("q")


@fails_fast(3_000)
def test_parse_formula_handles_deep_parentheses():
    # Three frames per level keep 3,000 levels under the recursion limit.
    assert parse_formula("(" * 3_000 + "q" + ")" * 3_000) == Prop("q")
