"""Evaluator semantics: both engines, approximants, fixpoint elimination."""

import random

import pytest

from hflcheck.denote import Func, Ground, element_at, full, index_of, number_repr
from hflcheck.errors import (
    InternalError,
    UnboundVariableError,
    UnfoldBudgetError,
)
from hflcheck.lts import gen_chain, gen_counter_lts, gen_word_lts, make_lts
from hflcheck.semantics import (
    EvalConfig,
    Evaluator,
    approximant,
    eliminate_fixpoints,
    evaluate,
    holds,
    lfp_global,
)
from hflcheck.syntax import (
    App,
    Dia,
    Lam,
    Mu,
    Neg,
    Or,
    Prop,
    Var,
    ff,
    iter_nodes,
    substitute,
    tt,
)
from hflcheck.types import PR, Arrow, Variance, full_space_height

import oracles
import randgen

Z = Variance.ZERO
FUN = Arrow(PR, Z, PR)


def test_diamond_on_chain():
    val = evaluate(gen_chain(2), Dia("a", tt()))
    assert set(val.states()) == {0}


def test_mu_identity_is_bottom():
    for lts in (gen_chain(1), gen_chain(3), gen_counter_lts(2)):
        assert evaluate(lts, Mu("X", PR, Var("X"))).mask == 0


def test_tt_ff_on_every_lts():
    rng = random.Random(1)
    for _ in range(20):
        lts = randgen.random_lts(rng, 4)
        assert evaluate(lts, tt()) == full(lts.n)
        assert evaluate(lts, ff()).mask == 0


def test_increment_level0_all_values():
    from hflcheck.encodings import counter_formula

    for p in (2, 3):
        lts = gen_counter_lts(p)
        ev = Evaluator(lts)
        inc = ev.eval_closed(counter_formula("inc", 0, p))
        for i in range(2**p):
            got = ev.reify_value(ev.apply_value(inc, number_repr(i, 0, p)))
            assert index_of(got) == (i + 1) % 2**p


def test_mu_reachability():
    lts = make_lts(3, [(0, "a", 1), (1, "a", 2)], [(2, "q")])
    phi = Mu("X", PR, Or(Prop("q"), Dia("a", Var("X"))))
    assert set(evaluate(lts, phi).states()) == {0, 1, 2}


def test_unbound_variable():
    with pytest.raises(UnboundVariableError):
        evaluate(gen_chain(1), Var("X"), typecheck=False)


def test_lfp_global_examples():
    # adding a point converges in two applications
    cfg = EvalConfig()
    out = lfp_global(lambda x: Ground(2, x.mask | 1), PR, 2, cfg)
    assert out == Ground(2, 1)
    assert cfg.stats.fixpoint_iterations <= 1 + full_space_height(PR, 2)
    # non-monotone transformer is reported, not looped on
    swap = {0: 1, 1: 0, 2: 3, 3: 2}
    with pytest.raises(InternalError):
        lfp_global(lambda x: Ground(2, swap[x.mask]), PR, 2)


def test_beta_equivalence():
    rng = random.Random(42)
    cfg = randgen.HoGenConfig(max_depth=3)
    count = 0
    while count < 100:
        lts = randgen.random_lts(rng, 3)
        body = randgen.random_hfl_formula(rng, cfg)
        arg = randgen.random_hfl_formula(rng, cfg)
        lam = Lam("X", Variance.PLUS, PR, Or(Var("X"), body))
        applied = App(lam, arg)
        direct = substitute(Or(Var("X"), body), "X", arg)
        assert evaluate(lts, applied) == evaluate(lts, direct)
        count += 1


def test_negation_involution_and_de_morgan():
    rng = random.Random(43)
    for _ in range(200):
        lts = randgen.random_lts(rng, 3)
        a = randgen.random_mu_formula(rng, 4)
        b = randgen.random_mu_formula(rng, 4)
        ev = Evaluator(lts)
        assert ev.denotation(Neg(Neg(a))) == ev.denotation(a)
        lhs = ev.denotation(Neg(Or(a, b)))
        rhs_mask = (
            ev.denotation(Neg(a)).mask & ev.denotation(Neg(b)).mask
        )
        assert lhs.mask == rhs_mask


def test_approximant_zero_ground():
    mu = Mu("X", PR, Var("X"))
    assert approximant(mu, 0) == ff()


def test_approximant_one_unfolding():
    mu = Mu("X", PR, Or(Prop("q"), Dia("a", Var("X"))))
    assert approximant(mu, 1) == Or(Prop("q"), Dia("a", ff()))


def test_approximant_zero_function_type():
    mu = Mu("X", FUN, Lam("Y", Z, PR, Var("Y")))
    zero = approximant(mu, 0)
    assert isinstance(zero, Lam)
    assert zero.var == "Z1" and zero.ty == PR and zero.body == ff()


def test_approximant_converges_at_height():
    rng = random.Random(44)
    for _ in range(200):
        lts = randgen.random_lts(rng, 3)
        phi = randgen.random_mu_formula(rng, 4)
        mus = [f for f in iter_nodes(phi) if isinstance(f, Mu)]
        if not mus:
            continue
        mu = mus[0]
        h = full_space_height(mu.ty, lts.n)
        assert evaluate(lts, approximant(mu, h), typecheck=False) == evaluate(
            lts, mu, typecheck=False
        )


def test_eliminate_identity_on_fixpoint_free():
    phi = Or(Prop("q"), Dia("a", Neg(Prop("p"))))
    assert eliminate_fixpoints(phi, gen_chain(2)) == phi


def test_eliminate_mu_identity_n1():
    lts = gen_chain(1)
    got = eliminate_fixpoints(Mu("X", PR, Var("X")), lts)
    assert got == ff()
    assert evaluate(lts, got).mask == 0


def test_eliminate_budget_error_carries_requirement():
    lts = gen_chain(3)
    mu = Mu("X", FUN, Lam("Y", Z, PR, App(Var("X"), Var("Y"))))
    with pytest.raises(UnfoldBudgetError) as err:
        eliminate_fixpoints(App(mu, tt()), lts, unfold_budget=5)
    assert err.value.required == 1 + 3 * 8


def test_eliminate_equivalence_random():
    rng = random.Random(45)
    done = 0
    while done < 300:
        lts = randgen.random_lts(rng, 2)
        phi = randgen.random_hfl_formula(rng, randgen.HoGenConfig(max_depth=4))
        try:
            flat = eliminate_fixpoints(phi, lts, unfold_budget=64)
        except UnfoldBudgetError:
            continue
        assert not any(isinstance(f, Mu) for f in iter_nodes(flat))
        assert evaluate(lts, flat) == evaluate(lts, phi)
        done += 1


def test_eliminate_respects_lambda_name_bound():
    # elimination may add at most max-arity fresh lambda names
    from hflcheck.syntax import lambda_binder_names
    from hflcheck.types import uncurry

    rng = random.Random(46)
    for _ in range(100):
        lts = randgen.random_lts(rng, 2)
        phi = randgen.random_hfl_formula(rng, randgen.HoGenConfig(max_depth=4))
        try:
            flat = eliminate_fixpoints(phi, lts, unfold_budget=64)
        except UnfoldBudgetError:
            continue
        arities = [
            len(uncurry(f.ty)) for f in iter_nodes(phi) if isinstance(f, Mu)
        ]
        assert len(lambda_binder_names(flat)) <= len(
            lambda_binder_names(phi)
        ) + max(arities, default=0)


def test_engine_agreement():
    rng = random.Random(47)
    for _ in range(300):
        lts = randgen.random_lts(rng, 2)
        phi = randgen.random_hfl_formula(
            rng, randgen.HoGenConfig(max_depth=4, tabulate_safe=True)
        )
        demand = evaluate(lts, phi, cfg=EvalConfig(engine="demand"))
        tables = evaluate(lts, phi, cfg=EvalConfig(engine="tabulate"))
        assert demand == tables


def test_demand_matches_global_on_function_fixpoints():
    # local solving vs whole-table iteration for one-argument fixpoints
    rng = random.Random(48)
    done = 0
    while done < 500:
        lts = randgen.random_lts(rng, 2)
        body = randgen.random_mu_formula(rng, 3)
        mu = Mu(
            "F", FUN,
            Lam("X", Z, PR, Or(body, Or(Var("X"), Dia("a", App(Var("F"), Var("X")))))),
        )
        phi = App(mu, randgen.random_mu_formula(rng, 2))
        demand = evaluate(lts, phi, cfg=EvalConfig(engine="demand"))
        tables = evaluate(lts, phi, cfg=EvalConfig(engine="tabulate"))
        assert demand == tables
        done += 1


def test_buffer_example_word_lts():
    from hflcheck.encodings import buffer_formula

    word = ("in", "out", "out")
    assert holds(gen_word_lts(word), 0, buffer_formula()) == oracles.buffer_oracle(word)


def test_stats_are_populated():
    cfg = EvalConfig()
    lts = gen_chain(3)
    phi = Mu("X", PR, Or(Prop("q"), Dia("a", Var("X"))))
    evaluate(lts, phi, cfg=cfg)
    assert cfg.stats.fixpoint_iterations >= 1


# A closed lambda over Pr -> Pr with 256 arguments on two states: small
# enough for the demand engine to tabulate.
APPLY_TO_Q = Lam("F", Z, FUN, App(Var("F"), Dia("a", Prop("q"))))


def test_closed_table_is_computed_once_per_evaluator():
    lts = make_lts(2, [(0, "a", 1), (1, "a", 1)], [(1, "q")])
    cfg = EvalConfig()
    ev = Evaluator(lts, cfg)
    first = ev.eval_closed(APPLY_TO_Q)
    assert isinstance(first, Func)
    tabulated = cfg.stats.tabulated_lambdas
    assert tabulated == 1
    assert ev.eval_closed(APPLY_TO_Q) is first
    assert cfg.stats.tabulated_lambdas == tabulated

    other_cfg = EvalConfig()
    other = Evaluator(lts, other_cfg).eval_closed(APPLY_TO_Q)
    assert other is not first
    assert other == first
    assert other_cfg.stats.tabulated_lambdas == 1


def test_func_application_by_identity_matches_index_of():
    # Enumerated arguments are looked up by identity; an equal argument
    # built elsewhere goes through index_of and must land on the same entry.
    lts = make_lts(2, [(0, "a", 1), (1, "a", 0)], [(1, "q")])
    ev = Evaluator(lts)
    table = ev.eval_closed(APPLY_TO_Q)
    elems = ev.enum(FUN)
    assert len(elems) == 256
    for i, elem in enumerate(elems):
        rebuilt = element_at(FUN, lts.n, i)
        assert rebuilt == elem and rebuilt is not elem
        assert ev.apply_value(table, elem) is table.table[i]
        assert ev.apply_value(table, rebuilt) is table.table[i]
        assert table.table[i] == elem.table[ev.denotation(Dia("a", Prop("q"))).mask]
