"""Denotations, canonical enumeration, the number representation."""

import itertools
import random

import pytest

from hflcheck import denote
from hflcheck.denote import (
    Func,
    Ground,
    bits,
    bottom,
    cardinality,
    complement,
    element_at,
    enumerate_lattice,
    full,
    height,
    index_of,
    leq,
    number_repr,
)
from hflcheck.errors import BoundBudgetError, EnumLimitError, show_int
from hflcheck.lts import gen_chain
from hflcheck.semantics import EvalConfig, Evaluator
from hflcheck.syntax import Dia, Lam, Neg, Or, Var
from hflcheck.types import (
    BIT_BUDGET,
    PR,
    Arrow,
    Variance,
    big_f,
    chain_type,
    format_type,
    height_bound,
    lattice_size_bound,
    uncurry,
)

import oracles

Z = Variance.ZERO
FUN = Arrow(PR, Z, PR)


def test_ground_enumeration_order():
    elems = list(enumerate_lattice(PR, 2))
    assert [set(e.states()) for e in elems] == [set(), {0}, {1}, {0, 1}]


def test_function_enumeration_count():
    assert len(enumerate_lattice(FUN, 1)) == 4


def test_index_zero_is_constant_bottom():
    for ty, n in ((FUN, 1), (chain_type(2), 1), (Arrow(FUN, Z, PR), 1)):
        d = element_at(ty, n, 0)
        assert d == bottom(ty, n)


def test_number_repr_bits():
    d = number_repr(5, 0, 3)
    assert set(d.states()) == {0, 2}


def test_number_repr_level1_zero():
    d = number_repr(0, 1, 2)
    assert isinstance(d, Func)
    assert all(e.mask == 0 for e in d.table)
    assert len(d.table) == 4


def test_index_of_inverts_repr_exhaustively():
    for i in range(256):
        assert index_of(number_repr(i, 1, 2)) == i
    for i in range(16):
        assert index_of(number_repr(i, 2, 1)) == i


def test_enumeration_matches_repr_order():
    for (k, p) in ((0, 2), (0, 3), (1, 1), (1, 2), (2, 1)):
        enum = enumerate_lattice(chain_type(k), p)
        for i, d in enumerate(enum):
            assert d == number_repr(i, k, p)
            assert index_of(d) == i


def test_cardinalities_match_f():
    for (k, p) in ((0, 2), (0, 3), (1, 1), (1, 2), (2, 1)):
        assert cardinality(chain_type(k), p) == big_f(k, p)


def test_enumeration_limit():
    with pytest.raises(EnumLimitError) as err:
        enumerate_lattice(FUN, 3, limit=100)
    assert err.value.cardinality == 8**8


def test_enumeration_limit_keeps_a_count_past_str():
    # 2^(11 * 2^11) elements: its message names the power, not the digits.
    with pytest.raises(EnumLimitError) as err:
        enumerate_lattice(FUN, 11)
    assert err.value.cardinality == 1 << (11 << 11)
    assert str(err.value) == (
        f"lattice has 2^{11 << 11} elements, over limit 1000000")


def test_show_int_is_exact_below_ten_to_the_4300():
    assert show_int(256) == "256"
    assert show_int(10**4300 - 1) == "9" * 4300
    b = (10**4300).bit_length() - 1
    assert show_int(10**4300) == f">2^{b}"
    assert show_int(1 << b + 1) == f"2^{b + 1}"
    assert show_int((1 << b + 1) + 1) == f">2^{b + 1}"


def _types(k, m):
    """Every type of order <= k and arity <= m, at variance 0."""
    if k == 0:
        return [PR]
    out = [PR]
    for arity in range(1, m + 1):
        for args in itertools.product(_types(k - 1, m), repeat=arity):
            ty = PR
            for a in reversed(args):
                ty = Arrow(a, Z, ty)
            out.append(ty)
    return out


def _outcome(fn, *args):
    try:
        return fn(*args)
    except BoundBudgetError as e:
        return str(e)


def _reference_height(ty, n, budget):
    atoms = n
    for a in uncurry(ty):
        atoms *= oracles.reference_cardinality(a, n, budget)
    return 1 + atoms


@pytest.mark.parametrize("budget", [BIT_BUDGET, 2**12, 2**10, 2**6])
def test_sizes_match_the_big_integer_reference(budget, monkeypatch):
    # `bits` never builds 2^bits, yet refuses exactly where building the
    # sizes as big integers passes the budget, with the same message.
    monkeypatch.setattr(denote, "BIT_BUDGET", budget)
    refused = 0
    for ty, n in itertools.product(_types(2, 2), (1, 2, 3)):
        want = _outcome(oracles.reference_cardinality, ty, n, budget)
        assert _outcome(cardinality, ty, n) == want, (format_type(ty), n)
        if isinstance(want, int):
            assert bits(ty, n) == want.bit_length() - 1
        refused += isinstance(want, str)
        assert _outcome(height, ty, n) == _outcome(
            _reference_height, ty, n, budget), (format_type(ty), n)
    assert refused


def test_leq_examples():
    assert leq(Ground(2, 0), Ground(2, 1))
    assert not leq(Ground(2, 2), Ground(2, 1))
    assert leq(bottom(FUN, 1), oracles.top(FUN, 1))


def test_complement_involution_on_random_functions():
    rng = random.Random(3)
    card = cardinality(FUN, 2)
    for _ in range(200):
        d = element_at(FUN, 2, rng.randrange(card))
        assert complement(complement(d)) == d


def test_complement_reverses_order_at_ground():
    rng = random.Random(4)
    for _ in range(200):
        a = Ground(3, rng.randrange(8))
        b = Ground(3, rng.randrange(8))
        if leq(a, b):
            assert leq(complement(b), complement(a))


def test_leq_is_a_partial_order():
    rng = random.Random(5)
    card = cardinality(FUN, 1)
    elems = list(enumerate_lattice(FUN, 1))
    for _ in range(500):
        a, b, c = (elems[rng.randrange(card)] for _ in range(3))
        assert leq(a, a)
        if leq(a, b) and leq(b, a):
            assert a == b
        if leq(a, b) and leq(b, c):
            assert leq(a, c)


def test_enumerated_count_within_size_bound():
    for ty, n in ((PR, 3), (FUN, 1), (FUN, 2)):
        assert cardinality(ty, n) <= lattice_size_bound(ty, n)
    # the order-2 bound is too large to materialize; compare symbolically
    ty = chain_type(2)
    assert oracles.lattice_size_bound_at_least(ty, 1, cardinality(ty, 1))


def _longest_chain(elems):
    # longest strictly increasing chain, counted in elements
    import functools

    order = {i: [j for j in range(len(elems))
                 if i != j and leq(elems[i], elems[j])]
             for i in range(len(elems))}

    @functools.lru_cache(maxsize=None)
    def depth(i):
        return 1 + max((depth(j) for j in order[i]), default=0)

    return max(depth(i) for i in range(len(elems)))


def test_full_space_height_is_exact():
    for ty, n in ((FUN, 1), (PR, 3)):
        elems = list(enumerate_lattice(ty, n))
        assert _longest_chain(elems) == height(ty, n)


def test_monotone_sublattice_height_within_bound():
    for ty, n in ((FUN, 1), (FUN, 2)):
        args = enumerate_lattice(ty.arg, n)
        monos = [d for d in enumerate_lattice(ty, n)
                 if oracles.is_monotone(d, args)]
        assert _longest_chain(monos) <= height_bound(ty, n)


def test_bottom_top():
    assert bottom(PR, 3) == Ground(3, 0)
    assert oracles.top(PR, 3) == full(3)
    b = bottom(chain_type(2), 1)
    assert index_of(b) == 0
    t = oracles.top(chain_type(2), 1)
    assert index_of(t) == cardinality(chain_type(2), 1) - 1


LAYOUT_TYPES = (PR, FUN, Arrow(PR, Z, FUN), Arrow(FUN, Z, PR))


@pytest.mark.parametrize("n", (1, 2))
@pytest.mark.parametrize("ty", LAYOUT_TYPES, ids=format_type)
def test_bit_layout_matches_tuple_tables(ty, n):
    # Every element and pair of a lattice of at most 256 elements; the two
    # larger lattices (2**32 and 2**512 elements at n = 2) are sampled.
    size = cardinality(ty, n)
    rng = random.Random(size)
    if size <= 256:
        indices = list(range(size))
        pairs = [(a, b) for a in indices for b in indices]
    else:
        indices = [0, size - 1] + [rng.randrange(size) for _ in range(98)]
        pairs = [(rng.choice(indices), rng.choice(indices)) for _ in range(400)]
    elems = {i: element_at(ty, n, i) for i in indices}
    refs = {i: oracles.tuple_element_at(ty, n, i) for i in indices}
    for i in indices:
        d, ref = elems[i], refs[i]
        assert index_of(d) == oracles.tuple_index_of(ty, n, ref) == i
        assert oracles.as_tuple(d) == ref
        assert oracles.as_tuple(complement(d)) == oracles.tuple_complement(ref, n)
    for a, b in pairs:
        assert leq(elems[a], elems[b]) == oracles.tuple_leq(refs[a], refs[b])
        want = oracles.tuple_join(refs[a], refs[b])
        joined = oracles.join(elems[a], elems[b])
        assert index_of(joined) == oracles.tuple_index_of(ty, n, want)
    assert oracles.as_tuple(bottom(ty, n)) == oracles.tuple_element_at(ty, n, 0)
    top = oracles.top(ty, n)
    assert oracles.as_tuple(top) == oracles.tuple_element_at(ty, n, size - 1)
    for i in (-1, size):
        with pytest.raises(IndexError):
            element_at(ty, n, i)
        with pytest.raises(IndexError):
            oracles.tuple_element_at(ty, n, i)


def test_large_table_entries_match_direct_evaluation():
    # Pr over 16 states has 65,536 elements, so each table is a
    # 1,048,576-bit mask.
    lts = gen_chain(16)
    body = Or(Dia("a", Var("X")), Neg(Var("X")))
    want = [oracles.mu_check(lts, body, {"X": frozenset(Ground(16, i).states())})
            for i in range(1 << 16)]
    for engine in ("demand", "tabulate"):
        ev = Evaluator(lts, EvalConfig(engine=engine))
        table = ev.denotation(Lam("X", Z, PR, body))
        assert [set(e.states()) for e in table.table] == want
