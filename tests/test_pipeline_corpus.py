"""Cross-cutting checks: generated corpus through every decision path."""

import itertools

from hflcheck.denote import full
from hflcheck.encodings import (
    atm_accepts,
    bit_formula,
    buffer_formula,
    chi_formula,
    counter_formula,
    machine_formula,
    tape_built_formula,
)
from hflcheck.lts import gen_counter_lts, gen_counter_lts_labeled, gen_word_lts
from hflcheck.pipeline import check_via_games
from hflcheck.semantics import EvalConfig, Evaluator, evaluate, holds
from hflcheck.surface import parse_formula, print_formula
from hflcheck.syntax import (
    App,
    Dia,
    Lam,
    Mu,
    MuVec,
    Or,
    Prop,
    Var,
    apply_all,
)
from hflcheck.types import PR, Arrow, Variance

import machines
import oracles


def _corpus_ground_formulas(p):
    """Closed ground formulas built from the counter families."""
    out = []
    for i in range(2**p):
        out.append(bit_formula(i, p))
        for j in range(2**p):
            for name in ("eq", "lt", "gt"):
                out.append(
                    apply_all(counter_formula(name, 0, p),
                              chi_formula(i, 0, p), chi_formula(j, 0, p))
                )
    pred = Lam(
        "W", Variance.ZERO, PR,
        apply_all(counter_formula("eq", 0, p), Var("W"),
                  counter_formula("max", 0, p)),
    )
    out.append(App(counter_formula("exists", 0, p), pred))
    out.append(App(counter_formula("forall", 0, p), pred))
    return out


def test_games_agree_with_eval_on_counter_corpus():
    p = 2
    lts = gen_counter_lts(p)
    for phi in _corpus_ground_formulas(p):
        direct = evaluate(lts, phi)
        for state in range(p):
            assert check_via_games(lts, state, phi) == bool(
                direct.mask >> state & 1
            ), print_formula(phi)


def test_label_carried_machines_through_games():
    # The paper's lower-bound formulas through the game procedure: each
    # corpus machine over the p = 1 counter system whose labels carry the
    # word (), (t) or (f), 12 instances.  The solve forces each guess, so
    # it settles some 10,700 nodes per instance, where reading every guess
    # last first settled 56,081 to 75,806.
    decided = 0
    for word in ((), (True,), (False,)):
        lts = gen_counter_lts_labeled(1, word)
        for name, machine in sorted(machines.CORPUS.items()):
            phi = machine_formula(machine, 0, 1, None)
            want = atm_accepts(machine, word, 2)
            for engine in ("demand", "tabulate"):
                assert holds(lts, 0, phi, EvalConfig(engine=engine)) == want, (
                    name, word, engine)
            assert check_via_games(lts, 0, phi) == want, (name, word)
            decided += 1
    assert decided == 12


def test_games_agree_with_eval_on_buffer_words():
    phi = buffer_formula()
    for length in range(0, 3):
        for word in itertools.product(("in", "out"), repeat=length):
            lts = gen_word_lts(word)
            assert check_via_games(lts, 0, phi) == oracles.buffer_oracle(word)


def test_vector_fixpoint_through_pipeline():
    lts = gen_word_lts(("a", "b", "a"))
    vec = MuVec(
        1,
        (
            ("EvenA", PR, Or(Prop("q"), Dia("a", Var("OddA")))),
            ("OddA", PR, Dia("a", Var("EvenA"))),
        ),
    )
    for state in range(lts.n):
        assert check_via_games(lts, state, vec) == holds(lts, state, vec)


def test_generated_formulas_print_and_reparse():
    cases = [
        counter_formula("inc", 1, 2),
        counter_formula("lt", 1, 2),
        tape_built_formula(0, 2),
        machine_formula(machines.ALTERNATING, 0, 2, (True,)),
        machine_formula(machines.CELL0, 0, 2, None),
    ]
    for phi in cases:
        text = print_formula(phi)
        assert oracles.alpha_eq(parse_formula(text), phi)


def test_reparsed_machine_formula_evaluates_identically():
    p = 2
    lts = gen_counter_lts(p)
    phi = machine_formula(machines.ALTERNATING, 0, p, (True,))
    again = parse_formula(print_formula(phi))
    assert evaluate(lts, phi) == evaluate(lts, again)


def test_constant_fixpoint_body_single_evaluation():
    # a fixpoint that ignores its own variable settles in one pass per
    # queried tuple: one evaluation each, no re-propagation
    p = 2
    lts = gen_counter_lts(p)
    cfg = EvalConfig()
    ev = Evaluator(lts, cfg)
    phi = Mu(
        "F", Arrow(PR, Variance.ZERO, PR),
        Lam("X", Variance.ZERO, PR, Prop("q")),
    )
    value = ev.eval_closed(phi)
    before = cfg.stats.fixpoint_iterations
    for arg in (full(p), full(p), oracles.empty(p)):
        ev.reify_value(ev.apply_value(value, arg))
    # two distinct tuples queried -> exactly two body evaluations
    assert cfg.stats.fixpoint_iterations - before == 2
