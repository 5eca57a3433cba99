"""Evaluator semantics: both engines, approximants, fixpoint elimination."""

import random

import pytest

from hflcheck import semantics
from hflcheck.denote import Func, element_at, full, height, index_of, number_repr
from hflcheck.errors import (
    BudgetError,
    InternalError,
    IterationCapError,
    UnboundVariableError,
    UnfoldBudgetError,
)
from hflcheck.lts import gen_chain, gen_counter_lts, gen_word_lts, make_lts
from hflcheck.pipeline import check_via_games
from hflcheck.semantics import (
    EvalConfig,
    Evaluator,
    approximant,
    eliminate_fixpoints,
    evaluate,
    holds,
)
from hflcheck.surface import parse_formula
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
    desugar_vec,
    ff,
    iter_nodes,
    substitute,
    tt,
)
from hflcheck.types import PR, Arrow, Variance

import oracles
import randgen

Z = Variance.ZERO
P = Variance.PLUS
FUN = Arrow(PR, Z, PR)
MONO = Arrow(PR, P, PR)


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


def test_eval_of_a_non_formula_is_an_internal_error():
    ev = Evaluator(gen_chain(1))
    for junk in (42, "X", None):
        with pytest.raises(InternalError):
            ev.eval(junk, {})


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
        h = height(mu.ty, lts.n)
        assert evaluate(lts, approximant(mu, h), typecheck=False) == evaluate(
            lts, mu, typecheck=False
        )


def test_eliminate_identity_on_fixpoint_free():
    phi = Or(Prop("q"), Dia("a", Neg(Prop("p"))))
    assert eliminate_fixpoints(phi, gen_chain(2)) == phi
    assert eliminate_fixpoints(phi, gen_chain(2)) is phi
    # Only the fixpoint's ancestors are rebuilt.
    lam = Lam("Y", Z, PR, Or(Var("Y"), Prop("q")))
    phi = Or(App(lam, Prop("p")), Mu("X", PR, Dia("a", Var("X"))))
    got = eliminate_fixpoints(phi, gen_chain(2))
    assert got is not phi and got.left is phi.left


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


def test_eliminate_renames_a_capturing_binder_once():
    # The inner \X would capture the X free in every approximant of mu Y,
    # so it is renamed once, before unfolding: one lambda name more,
    # however many unfoldings the model's size asks for.
    from hflcheck.syntax import lambda_binder_names

    phi = parse_formula("(\\(X:Pr)^+. mu (Y:Pr). X | (\\(X:Pr)^+. Y) p) q")
    for n in (2, 5, 9):
        lts = gen_chain(n)
        flat = eliminate_fixpoints(phi, lts)
        assert len(lambda_binder_names(flat)) == 2
        assert evaluate(lts, flat) == evaluate(lts, phi)


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
    # Local solving vs whole-table iteration for one-argument fixpoints.
    # In the second shape F is fed its own output, so the solver reads F at
    # arguments computed from its in-flight approximation.
    rng = random.Random(48)
    shapes = [
        (FUN, Z, App(Var("F"), Var("X"))),
        (MONO, P, App(Var("F"), App(Var("F"), Var("X")))),
    ]
    for ty, variance, recursion in shapes:
        for _ in range(500):
            lts = randgen.random_lts(rng, 2)
            body = randgen.random_mu_formula(rng, 3)
            mu = Mu(
                "F", ty,
                Lam("X", variance, PR, Or(body, Or(Var("X"), Dia("a", recursion)))),
            )
            phi = App(mu, randgen.random_mu_formula(rng, 2))
            demand = evaluate(lts, phi, cfg=EvalConfig(engine="demand"))
            tables = evaluate(lts, phi, cfg=EvalConfig(engine="tabulate"))
            assert demand == tables


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


def _reach_q():
    """`mu X. q | <a> X` on the chain 0 -a-> 1 -a-> 2 labelled q at 2: the
    demand solver makes 4 body evaluations."""
    lts = make_lts(3, [(0, "a", 1), (1, "a", 2)], [(2, "q")])
    return lts, Mu("X", PR, Or(Prop("q"), Dia("a", Var("X"))))


def test_iteration_cap_ignores_stats_from_earlier_evaluations():
    # Stats shared by many evaluations keep counting, but each solver's
    # evaluations alone are held to the cap.
    lts, phi = _reach_q()
    cfg = EvalConfig()
    cfg.stats.fixpoint_iterations = semantics.MAX_FIXPOINT_EVALS - 2
    assert evaluate(lts, phi, cfg=cfg).mask == 7
    assert cfg.stats.fixpoint_iterations == semantics.MAX_FIXPOINT_EVALS + 2


def test_iteration_cap_refuses_one_solver_past_it(monkeypatch):
    lts, phi = _reach_q()
    monkeypatch.setattr(semantics, "MAX_FIXPOINT_EVALS", 3)
    with pytest.raises(IterationCapError, match="over 3 fixpoint body"):
        evaluate(lts, phi)
    monkeypatch.setattr(semantics, "MAX_FIXPOINT_EVALS", 4)
    assert evaluate(lts, phi).mask == 7


# A closed lambda over Pr -> Pr with 256 arguments on two states: small
# enough for the demand engine to memoize.
APPLY_TO_Q = Lam("F", Z, FUN, App(Var("F"), Dia("a", Prop("q"))))


def test_closed_table_is_computed_once_per_evaluator():
    lts = make_lts(2, [(0, "a", 1), (1, "a", 1)], [(1, "q")])
    ev = Evaluator(lts)
    closure = ev.eval_closed(APPLY_TO_Q)
    assert ev.eval_closed(APPLY_TO_Q) is closure
    assert closure.memo == {}
    table = ev.denotation(APPLY_TO_Q)
    assert isinstance(table, Func)
    assert len(closure.memo) == 256
    again = ev.denotation(APPLY_TO_Q)
    assert len(closure.memo) == 256
    assert again == table
    assert again.table == tuple(closure.memo[i] for i in range(256))

    other_ev = Evaluator(lts)
    other = other_ev.eval_closed(APPLY_TO_Q)
    assert other is not closure
    assert other.memo == {}
    assert other_ev.denotation(APPLY_TO_Q) == table
    assert len(other.memo) == 256


def test_func_application_by_index_matches_element_at():
    # An argument is applied by its index, so an equal argument built
    # elsewhere than the evaluator's enumeration lands on the same entry,
    # both in a table and in a closure's memo.
    lts = make_lts(2, [(0, "a", 1), (1, "a", 0)], [(1, "q")])
    ev = Evaluator(lts)
    closure = ev.eval_closed(APPLY_TO_Q)
    table = ev.denotation(APPLY_TO_Q)
    elems = ev.enum(FUN)
    assert len(elems) == 256
    for i, elem in enumerate(elems):
        rebuilt = element_at(FUN, lts.n, i)
        assert rebuilt == elem and rebuilt is not elem
        assert ev.apply_value(table, elem) == table.table[i]
        assert ev.apply_value(table, rebuilt) == table.table[i]
        assert ev.apply_value(closure, rebuilt) is closure.memo[i]
        assert table.table[i] == elem.table[ev.denotation(Dia("a", Prop("q"))).mask]


def test_closed_application_is_evaluated_once_per_evaluator():
    # Over three states G's domain Pr -> Pr has 8**8 elements, too many to
    # memoize, so each application of G solves its open fixpoint afresh.
    # The closed application G ID sits under a reified lambda; it must be
    # solved once, not once per table entry.
    lts = make_lts(3, [(0, "a", 1), (1, "a", 2), (2, "a", 2)], [(2, "q")])
    reach = Mu("X", PR, Or(App(Var("H"), Prop("q")), Dia("a", Var("X"))))
    closed_app = App(Lam("H", Z, FUN, reach), Lam("W", Z, PR, Var("W")))
    outer = Lam("Y", Z, PR, Or(Var("Y"), closed_app))

    alone = EvalConfig()
    Evaluator(lts, alone).eval_closed(closed_app)
    assert alone.stats.fixpoint_iterations > 0

    cfg = EvalConfig()
    table = Evaluator(lts, cfg).denotation(outer)
    assert isinstance(table, Func) and len(table.table) == 8
    assert cfg.stats.fixpoint_iterations == alone.stats.fixpoint_iterations


# Reification enumerates the full function space, so a + binder can be given
# a non-monotone table such as the complement; F X then alternates between
# the empty and the full set and a descent check fires.  The game pipeline
# answers both formulas correctly (False at the one state).
SELF = Lam("F", P, MONO, Mu("X", PR, App(Var("F"), Var("X"))))
NON_MONOTONE_CASES = {
    "through-k": App(
        Lam("K", P, Arrow(MONO, P, PR), App(Var("K"), Lam("Y", P, PR, Var("Y")))),
        SELF,
    ),
    "direct": App(SELF, Lam("Y", P, PR, Var("Y"))),
}


@pytest.mark.xfail(strict=True, raises=InternalError,
                   reason="reification feeds non-monotone tables to + binders")
@pytest.mark.parametrize("case,engine", [
    ("through-k", "demand"), ("through-k", "tabulate"), ("direct", "tabulate"),
])
def test_reified_plus_binder_gets_only_monotone_tables(case, engine):
    phi = NON_MONOTONE_CASES[case]
    assert evaluate(gen_chain(1), phi, cfg=EvalConfig(engine=engine)).mask == 0


def test_demand_applies_a_lambda_only_to_its_argument():
    # The demand engine applies F's lambda to the identity alone, so it
    # never meets the complement table that trips the tabulating engine.
    phi = NON_MONOTONE_CASES["direct"]
    assert evaluate(gen_chain(1), phi, cfg=EvalConfig(engine="demand")).mask == 0


@pytest.mark.parametrize("text,mask", [
    ("(\\(F:Pr^0 -> Pr)^0. F p) (!(\\(Y:Pr)^0. <a> Y))", 2),
    ("(\\(F:Pr^0 -> Pr)^0. F p) (!!(\\(Y:Pr)^0. <a> Y))", 1),
    ("(\\(F:Pr^0 -> Pr)^0. F p | F (!p)) (!(\\(Y:Pr)^0. <a> Y))", 3),
])
def test_negated_lambda_argument(text, mask):
    # The demand engine keeps !(\Y. <a> Y) as a suspended complement: the
    # memoizing lambda reifies it to read its argument's index, applying F
    # complements the result, and a second ! cancels the first.
    lts = make_lts(2, [(0, "a", 1)], [(1, "p")])
    phi = parse_formula(text)
    for engine in ("demand", "tabulate"):
        assert evaluate(lts, phi, EvalConfig(engine=engine)).mask == mask
    assert [check_via_games(lts, s, phi) for s in (0, 1)] == [
        bool(mask >> s & 1) for s in (0, 1)]


def test_complement_of_a_suspended_negation():
    # The demand engine suspends both negations: applying the outer one to
    # p complements the inner one's suspended value, which cancels it, so
    # the formula is p & q.
    phi = parse_formula(
        "(!(\\(X:Pr)^0. !((\\(A:Pr)^0. \\(B:Pr)^0. A & B) X))) p q")
    for n in (1, 2):
        for props in ((), ("p",), ("q",), ("p", "q")):
            lts = make_lts(n, (), [(0, x) for x in props])
            want = len(props) == 2
            for engine in ("demand", "tabulate"):
                assert holds(lts, 0, phi, EvalConfig(engine=engine)) == want
            assert check_via_games(lts, 0, phi) == want


def test_engines_solve_vector_fixpoints_jointly_and_alike():
    # Random monotone 3-component ground systems, against the brute-force
    # checker on their Bekic form; the tabulating engine iterates all
    # components together, the demand engine solves them locally.
    rng = random.Random(47)
    for _ in range(60):
        lts = randgen.random_lts(rng, 3)
        names = ("U", "V", "W")
        bindings = tuple(
            (x, PR, Or(randgen.random_mu_formula(rng, 3),
                       Dia(rng.choice("ab"), Var(rng.choice(names)))))
            for x in names)
        vec = MuVec(rng.randint(1, 3), bindings)
        phi = Neg(vec) if rng.random() < 0.3 else vec
        want = oracles.mu_check(lts, desugar_vec(phi))
        for engine in ("demand", "tabulate"):
            got = evaluate(lts, phi, EvalConfig(engine=engine))
            assert set(got.states()) == want, engine
        state = rng.randrange(lts.n)
        assert check_via_games(lts, state, phi) == (state in want)


@pytest.mark.parametrize("engine", ["demand", "tabulate"])
def test_closed_diamond_is_computed_once_per_evaluator(engine, monkeypatch):
    # <a> q is closed, so it is folded to its value when compiled: the
    # fixpoint's iterations and the lambda's runs on its arguments reuse
    # it, and the one pre-image is taken at compile time.
    calls = []
    pre_image = semantics._pre_image

    def counted(by_target, mask):
        calls.append(mask)
        return pre_image(by_target, mask)

    monkeypatch.setattr(semantics, "_pre_image", counted)
    lts = make_lts(3, [(0, "a", 1), (1, "a", 2)], [(0, "p"), (2, "q")])
    step = Or(Dia("a", Prop("q")), Var("Y"))
    lam = Lam("Y", Z, PR, step)
    cfg = EvalConfig(engine=engine)
    ev = Evaluator(lts, cfg)
    assert ev.denotation(Mu("Y", PR, step)).mask == 0b010
    assert cfg.stats.fixpoint_iterations >= 2
    assert ev.denotation(App(lam, Prop("p"))).mask == 0b011
    assert ev.denotation(App(lam, Neg(Prop("p")))).mask == 0b110
    assert len(calls) == 1


def _negation_rich_formula(rng, depth, scope=(), parity=0):
    """A closed ground formula in which most nodes are !(a|b), !<a>x or
    !!x; below a mu some of them hold its variable and some do not."""
    usable = [x for x, bp in scope if bp == parity]
    if depth == 0:
        return rng.choice([Prop("p"), Prop("q")] + [Var(x) for x in usable])

    def sub(flip):
        return _negation_rich_formula(rng, depth - 1, scope, parity ^ flip)

    pick = rng.choice(("neg-or", "neg-dia", "neg-neg", "or", "mu"))
    if pick == "neg-or":
        return Neg(Or(sub(1), sub(1)))
    if pick == "neg-dia":
        return Neg(Dia(rng.choice("ab"), sub(1)))
    if pick == "neg-neg":
        return Neg(Neg(sub(0)))
    if pick == "or":
        return Or(sub(0), sub(0))
    name = f"X{len(scope)}"
    return Mu(name, PR, _negation_rich_formula(
        rng, depth - 1, scope + ((name, parity),), parity))


def test_fused_and_folded_negations_match_brute_force():
    rng = random.Random(53)
    seen = set()
    for _ in range(300):
        lts = randgen.random_lts(rng, 3)
        phi = _negation_rich_formula(rng, 5)
        seen |= {(type(f.body), not f.fv) for f in iter_nodes(phi)
                 if isinstance(f, Neg) and isinstance(f.body, (Or, Dia, Neg))}
        want = oracles.mu_check(lts, phi)
        for engine in ("demand", "tabulate"):
            got = evaluate(lts, phi, EvalConfig(engine=engine))
            assert set(got.states()) == want, (engine, phi)
    # Each shape occurred both open and closed.
    assert seen == {(kind, closed) for kind in (Or, Dia, Neg)
                    for closed in (False, True)}


def test_negated_hfl_formulas_agree_with_games():
    # Each shape of negation around random higher-order operands, by the
    # demand engine and by fixpoint elimination and games.
    rng = random.Random(59)
    cfg = randgen.HoGenConfig(max_depth=3)
    for n in range(120):
        lts = randgen.random_lts(rng, 2)
        a = randgen.random_hfl_formula(rng, cfg)
        b = randgen.random_hfl_formula(rng, cfg)
        phi = (Neg(Or(a, b)), Neg(Dia("a", a)), Neg(Neg(a)))[n % 3]
        state = rng.randrange(lts.n)
        try:
            via_games = check_via_games(lts, state, phi, unfold_budget=64)
        except BudgetError:
            continue
        assert holds(lts, state, phi) == via_games, phi


def test_negated_disjunction_skips_right_operand_when_left_is_full():
    # X is unbound, so evaluating it would raise.  The tabulating engine
    # runs a lambda's body on every argument, so only the demand engine
    # shows the skip under a guard bound at run time.
    lts = gen_chain(2)
    for engine in ("demand", "tabulate"):
        phi = Neg(Or(tt(), Var("X")))
        assert evaluate(lts, phi, EvalConfig(engine=engine),
                        typecheck=False).mask == 0
    guard = Lam("Y", Z, PR, Neg(Or(Var("Y"), Var("X"))))
    assert evaluate(lts, App(guard, tt()), typecheck=False).mask == 0
    with pytest.raises(UnboundVariableError):
        evaluate(lts, App(guard, ff()), typecheck=False)
