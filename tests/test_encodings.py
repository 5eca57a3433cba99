"""Counter/tape/machine formula families against their direct models."""

import itertools

import pytest

from hflcheck.denote import full, index_of, number_repr
from hflcheck.encodings import (
    Atm,
    atm_accepts,
    bit_formula,
    buffer_formula,
    bisim_word_formula,
    chi_formula,
    counter_formula,
    format_atm,
    machine_formula,
    macro_case,
    macro_if,
    parse_atm,
    phi_m_formula,
    tape_built_formula,
    tape_formulas,
)
from hflcheck.errors import AtmFormatError, SpaceBoundError
from hflcheck.lts import (
    gen_chain,
    gen_counter_lts,
    gen_counter_lts_labeled,
    gen_word_lts,
    make_lts,
)
from hflcheck.semantics import EvalConfig, Evaluator, evaluate, holds
from hflcheck.syntax import App, Neg, apply_all, desugar_vec, ff, tt
from hflcheck.types import big_f, typecheck

import machines
import oracles


def _ev(lts):
    return Evaluator(lts)


def _apply(ev, value, *args):
    for a in args:
        value = ev.apply_value(value, a)
    return ev.reify_value(value)


def test_bit_formulas_pick_out_states():
    lts = gen_counter_lts(4)
    ev = _ev(lts)
    for i in range(4):
        val = ev.denotation(bit_formula(i, 4))
        assert set(val.states()) == {i}


def test_bit_zero_is_deadlock_on_lower():
    lts = gen_counter_lts(3)
    assert set(evaluate(lts, bit_formula(0, 3)).states()) == {0}


def test_bit_out_of_range_is_empty():
    lts = gen_counter_lts(3)
    assert evaluate(lts, bit_formula(3, 3)).mask == 0


def test_bit_size_quadratic():
    # the size measure is closure cardinality; the textual form repeats
    # earlier bit formulas, but the closure shares them
    from hflcheck.syntax import measures

    for i in range(0, 9):
        size, _ = measures(bit_formula(i, 9))
        assert size <= 12 * (i + 1) ** 2


def test_chi_level0_exhaustive():
    for p in (2, 3):
        lts = gen_counter_lts(p)
        ev = _ev(lts)
        for i in range(2**p):
            assert ev.denotation(chi_formula(i, 0, p)) == number_repr(i, 0, p)


def test_chi_level1_small_numbers():
    p = 2
    lts = gen_counter_lts(p)
    ev = _ev(lts)
    for i in range(2**p):
        assert ev.denotation(chi_formula(i, 1, p)) == number_repr(i, 1, p)


def test_macro_if_trivial():
    lts = gen_counter_lts(2)
    assert evaluate(lts, macro_if(tt(), tt(), ff())) == full(2)
    assert evaluate(lts, macro_if(ff(), tt(), ff())).mask == 0


def test_macro_case_contract():
    p = 2
    lts = gen_counter_lts(p)
    ev = _ev(lts)
    case = macro_case(
        0, p,
        ((chi_formula(1, 0, p), tt()), (chi_formula(2, 0, p), ff())),
        ff(),
    )
    v = ev.eval_closed(case)
    assert _apply(ev, v, number_repr(1, 0, p)) == full(p)
    assert _apply(ev, v, number_repr(2, 0, p)).mask == 0
    assert _apply(ev, v, number_repr(3, 0, p)).mask == 0


def test_macro_case_literal_divergence_witness():
    # matched guard with a false body: the faithful nesting yields empty,
    # the literal two-disjunct shape yields everything
    p = 2
    lts = gen_counter_lts(p)
    ev = _ev(lts)
    pairs = ((chi_formula(1, 0, p), ff()),)
    nested = macro_case(0, p, pairs, tt())
    literal = oracles.macro_case_literal(0, p, pairs, tt())
    arg = number_repr(1, 0, p)
    assert _apply(ev, ev.eval_closed(nested), arg).mask == 0
    assert _apply(ev, ev.eval_closed(literal), arg) == full(p)


def test_macro_case_literal_empty_rejected():
    with pytest.raises(ValueError):
        oracles.macro_case_literal(0, 2, (), tt())


@pytest.mark.parametrize("k,p", [(0, 2), (0, 3), (1, 2)])
def test_counter_group_laws(k, p):
    lts = gen_counter_lts(p)
    ev = _ev(lts)
    f = big_f(k, p)
    inc = ev.eval_closed(counter_formula("inc", k, p))
    dec = ev.eval_closed(counter_formula("dec", k, p))
    lo = ev.denotation(counter_formula("min", k, p))
    hi = ev.denotation(counter_formula("max", k, p))
    assert index_of(lo) == 0
    assert index_of(hi) == f - 1
    # inc and dec are inverse bijections; stepping f times cycles back
    current = lo
    seen = set()
    for _ in range(f):
        seen.add(index_of(current))
        nxt = _apply(ev, inc, current)
        assert _apply(ev, dec, nxt) == current
        current = nxt
    assert current == lo
    assert len(seen) == f


@pytest.mark.parametrize("k,p", [(0, 2), (0, 3)])
def test_trichotomy(k, p):
    lts = gen_counter_lts(p)
    ev = _ev(lts)
    eq = ev.eval_closed(counter_formula("eq", k, p))
    lt = ev.eval_closed(counter_formula("lt", k, p))
    gt = ev.eval_closed(counter_formula("gt", k, p))
    f = big_f(k, p)
    for i in range(f):
        for j in range(f):
            ri, rj = number_repr(i, k, p), number_repr(j, k, p)
            answers = [
                _apply(ev, eq, ri, rj) == full(p),
                _apply(ev, lt, ri, rj) == full(p),
                _apply(ev, gt, ri, rj) == full(p),
            ]
            assert answers.count(True) == 1
            assert answers == [i == j, i < j, i > j]


def test_exists_forall_two_valued():
    p = 2
    lts = gen_counter_lts(p)
    ev = _ev(lts)
    from hflcheck.syntax import Lam, Var
    from hflcheck.types import PR, Variance

    pred = Lam(
        "W", Variance.ZERO, PR,
        apply_all(counter_formula("eq", 0, p), Var("W"),
                  counter_formula("max", 0, p)),
    )
    ex = App(counter_formula("exists", 0, p), pred)
    fa = App(counter_formula("forall", 0, p), pred)
    assert evaluate(lts, ex) == full(p)
    assert evaluate(lts, fa).mask == 0


def test_corpus_orders_and_arities():
    # remark-level facts; level 0 has smaller arities, recorded here
    assert oracles.fragment_of(counter_formula("inc", 0, 2)) == (1, 1)
    assert oracles.fragment_of(counter_formula("inc", 1, 2)) == (2, 2)
    assert oracles.fragment_of(counter_formula("eq", 0, 2)) == (1, 2)
    assert oracles.fragment_of(counter_formula("eq", 1, 2)) == (2, 2)
    assert oracles.fragment_of(counter_formula("exists", 0, 2)) == (2, 1)
    assert oracles.fragment_of(counter_formula("exists", 1, 2)) == (3, 2)
    tp = tape_formulas(0, 2, ())
    assert oracles.fragment_of(tp.read[True]) == (2, 2)
    assert oracles.fragment_of(tp.write[False]) == (2, 3)
    assert oracles.fragment_of(tp.head0) == (0, 0)
    assert oracles.fragment_of(tape_formulas(1, 2, ()).head0) == (1, 1)


def test_tape_read_write_move_exhaustive_small():
    k, p = 0, 2
    lts = gen_counter_lts(p)
    ev = _ev(lts)
    tp = tape_formulas(k, p, ())
    cells = 2**p
    read = {s: ev.eval_closed(tp.read[s]) for s in (True, False)}
    write = {s: ev.eval_closed(tp.write[s]) for s in (True, False)}
    move = {d: ev.eval_closed(tp.move[d]) for d in (-1, 0, 1)}
    for bits in itertools.product((True, False), repeat=cells):
        t = oracles.encode_tape(bits, k, p)
        for h in range(cells):
            rh = number_repr(h, k, p)
            for sym in (True, False):
                got = _apply(ev, read[sym], t, rh)
                assert (got == full(p)) == (bits[h] == sym)
                new_bits = bits[:h] + (sym,) + bits[h + 1:]
                want = oracles.encode_tape(new_bits, k, p)
                assert _apply(ev, write[sym], t, rh) == want
            assert _apply(ev, move[-1], rh) == number_repr((h - 1) % cells, k, p)
            assert _apply(ev, move[0], rh) == number_repr(h, k, p)
            assert _apply(ev, move[1], rh) == number_repr((h + 1) % cells, k, p)


def test_tape0_spells_out_word():
    p = 3
    lts = gen_counter_lts(p)
    tp = tape_formulas(0, p, (True, False))
    expect = oracles.encode_tape((True, False) + (False,) * 6, 0, p)
    assert evaluate(lts, tp.tape0) == expect
    # single-cell word at p=2, per the level-0 case contract
    lts2 = gen_counter_lts(2)
    tp2 = tape_formulas(0, 2, (True,))
    want = oracles.encode_tape((True, False, False, False), 0, 2)
    assert evaluate(lts2, tp2.tape0) == want
    # a tape has one cell per element of its position type
    with pytest.raises(ValueError):
        oracles.encode_tape((True, False, False), 0, 2)


def test_tape0_rejects_long_word():
    with pytest.raises(ValueError):
        tape_formulas(0, 2, (True, True))


def test_machine_start_accepting():
    for p in (2, 3):
        lts = gen_counter_lts(p)
        phi = machine_formula(machines.START_ACCEPT, 0, p, ())
        assert evaluate(lts, phi) == full(p)
        phi = machine_formula(machines.START_REJECT, 0, p, ())
        assert evaluate(lts, phi).mask == 0


def test_machine_formula_two_valued_and_matches_simulator():
    p = 2
    lts = gen_counter_lts(p)
    ev = _ev(lts)
    for name, m in machines.CORPUS.items():
        for word in machines.all_words(p - 1):
            phi = machine_formula(m, 0, p, word)
            val = ev.denotation(phi)
            assert val.mask in (0, (1 << p) - 1), name
            want = atm_accepts(m, word, 2**p)
            assert (val == full(p)) == want, (name, word)


def test_simulator_edges():
    assert atm_accepts(machines.START_ACCEPT, (), 4) is True
    assert atm_accepts(machines.START_REJECT, (True,), 4) is False
    assert atm_accepts(machines.UNIV_SPLIT, (True,), 4) is False
    with pytest.raises(ValueError):
        atm_accepts(machines.PURE_ACCEPT, (True,) * 5, 4)


def test_simulator_reuses_a_configuration_met_twice():
    # Both universal branches write ff and move to q3, so the second one
    # meets a configuration the first has decided, and reads its verdict.
    meeting = parse_atm(
        "states q0 q1 q2 q3 qa qr ; exists ; forall q0 q1 q2 q3 ; "
        "accept qa ; reject qr ; start q0\n"
        "delta q0 ff -> q1 tt N\n"
        "delta q0 ff -> q2 tt N\n"
        "delta q1 tt -> q3 ff N\n"
        "delta q2 tt -> q3 ff N\n"
        "delta q3 ff -> qa ff N\n")
    for p in (1, 2):
        assert atm_accepts(meeting, (), 2**p) is True
        phi = machine_formula(meeting, 0, p, ())
        demand = evaluate(gen_counter_lts(p), phi, EvalConfig(engine="demand"))
        assert demand == full(p)


def test_simulator_space_bound_violation():
    runaway = Atm(
        states=("q0", "qa", "qr"),
        exists=frozenset({"q0"}),
        forall=frozenset(),
        accept="qa",
        reject="qr",
        start="q0",
        delta={
            ("q0", True): (("q0", True, -1),),
            ("q0", False): (("q0", False, -1),),
        },
    )
    with pytest.raises(SpaceBoundError):
        atm_accepts(runaway, (True,), 4)


def test_simulator_cycle_policy():
    # a loop with no accepting escape rejects rather than diverging
    spinner = Atm(
        states=("q0", "qa", "qr"),
        exists=frozenset({"q0"}),
        forall=frozenset(),
        accept="qa",
        reject="qr",
        start="q0",
        delta={
            ("q0", True): (("q0", True, 0),),
            ("q0", False): (("q0", False, 0),),
        },
    )
    assert atm_accepts(spinner, (True,), 2) is False


def test_atm_format_round_trip():
    for m in machines.CORPUS.values():
        text = format_atm(m)
        again = parse_atm(text)
        assert again == m
        assert format_atm(again) == text


def test_atm_format_errors():
    with pytest.raises(AtmFormatError):
        parse_atm("delta q0 tt -> q1 tt R")
    with pytest.raises(AtmFormatError):
        parse_atm("states q0 ; accept q0 ; reject q0 ; start q0\n"
                  "delta q0 xx -> q0 tt R")
    with pytest.raises(AtmFormatError):
        parse_atm("states qa qr ; exists qa ; accept qa ; reject qr ; start qa")


def test_tape_built_matches_tape0():
    for p in (2, 3):
        plain = gen_counter_lts(p)
        for word in machines.all_words(p - 1):
            labeled = gen_counter_lts_labeled(p, word)
            built = evaluate(labeled, tape_built_formula(0, p))
            spelled = evaluate(plain, tape_formulas(0, p, word).tape0)
            assert built == spelled, (p, word)


def test_machine_muvec_matches_bekic_expansion():
    p = 2
    lts = gen_counter_lts(p)
    for word in ((), (True,), (False,)):
        phi = machine_formula(machines.CELL0, 0, p, word)
        flat = desugar_vec(phi)
        assert evaluate(lts, phi) == evaluate(lts, flat)


def test_buffer_formula_against_oracle():
    for r in range(0, 5):
        for word in itertools.product(("in", "out"), repeat=r):
            got = holds(gen_word_lts(word), 0, buffer_formula())
            assert got == oracles.buffer_oracle(word), word
            negated = holds(gen_word_lts(word), 0, Neg(buffer_formula()))
            assert negated == (not got)


def test_bisim_word_examples():
    phi = bisim_word_formula(("a", "b"))
    assert holds(gen_word_lts(("a", "b", "a")), 0, phi) is True
    tree = make_lts(3, [(0, "a", 1), (0, "b", 2)])
    assert holds(tree, 0, phi) is False


def test_phi_m_off_by_one_documented():
    # the formula iterates the step modality tower(1,m) times, so the
    # unique chain satisfying it has tower(1,m)+1 states; the claimed
    # "path of length tower(1,m) states" is off by one and recorded as such
    from hflcheck.types import tower

    for m in (1, 2):
        phi = phi_m_formula(m)
        hold = {n for n in range(1, 21) if holds(gen_chain(n), 0, phi)}
        assert hold == {tower(1, m) + 1}


def test_showcase_dispatch():
    from hflcheck.encodings import showcase_formula

    assert showcase_formula("buffer") == buffer_formula()
    assert showcase_formula("phi_m", m=1) == phi_m_formula(1)
    with pytest.raises(ValueError):
        showcase_formula("nope")


def test_machine_formulas_typecheck():
    for m in machines.CORPUS.values():
        for word in ((), (True,)):
            phi = machine_formula(m, 0, 2, word)
            typecheck(phi)
        typecheck(machine_formula(m, 0, 2, None))
