"""Transition system model, file format, generators."""

import random

import pytest

from hflcheck.denote import Ground
from hflcheck.errors import LtsFormatError
from hflcheck.lts import (
    gen_chain,
    gen_counter_lts,
    gen_counter_lts_labeled,
    gen_word_lts,
    load,
    make_lts,
    save,
)
from hflcheck.semantics import evaluate
from hflcheck.syntax import box, Dia, Prop, tt

import randgen


def test_load_minimal():
    lts = load("states 1")
    assert lts.n == 1 and not lts.actions
    assert lts.labels == (frozenset(),)


def test_load_single_edge():
    lts = load("states 2\ntrans 0 a 1")
    assert lts.edges == {"a": frozenset({(0, 1)})}


def test_save_load_round_trip():
    lts = make_lts(
        3,
        [(0, "a", 1), (1, "b", 2), (2, "a", 0)],
        [(0, "p"), (2, "q"), (2, "p")],
    )
    assert load(save(lts)) == lts


def test_save_is_sorted_and_stable():
    lts = make_lts(2, [(1, "b", 0), (0, "a", 1), (1, "a", 0)], [(1, "q")])
    text = save(lts)
    assert text == save(load(text))
    lines = text.splitlines()
    assert lines[0] == "states 2"
    assert lines[1] == "label 1 q"
    assert lines[2:] == ["trans 0 a 1", "trans 1 a 0", "trans 1 b 0"]


def test_load_errors():
    with pytest.raises(LtsFormatError):
        load("trans 0 a 1")  # missing header
    with pytest.raises(LtsFormatError):
        load("states 1\nstates 2")
    with pytest.raises(LtsFormatError):
        load("states 1\ntrans 0 a 3")
    with pytest.raises(LtsFormatError):
        load("states 1\nfoo 1 2")
    for text in ("states 0",  # no states
                 "states 1 2",  # header arity
                 "states 1\nlabel",  # label arity
                 "states 1\ntrans 0 a",  # trans arity
                 "states 1\ntrans 0 a x"):  # non-integer state
        with pytest.raises(LtsFormatError):
            load(text)


@pytest.mark.parametrize("state", ["5", "-1"])
def test_load_refuses_a_label_state_out_of_range(state):
    # -1 must not wrap around to the last state.
    with pytest.raises(LtsFormatError, match=f"label state {state} out of range"):
        load(f"states 2\nlabel {state} q\n")


def test_counter_lts_smallest():
    lts = gen_counter_lts(1)
    assert lts.edges.get("lower", frozenset()) == frozenset()
    assert lts.edges["test"] == frozenset({(0, 0)})


def test_counter_lts_p4_edge_counts():
    lts = gen_counter_lts(4)
    assert len(lts.edges["lower"]) == 6
    assert len(lts.edges["test"]) == 16


def test_counter_lts_p2():
    lts = gen_counter_lts(2)
    assert lts.edges["lower"] == frozenset({(1, 0)})
    assert len(lts.edges["test"]) == 4


def test_counter_lower_is_strict_total_order():
    for p in (2, 3, 4, 5):
        lts = gen_counter_lts(p)
        lower = lts.edges["lower"]
        assert len(lower) == p * (p - 1) // 2
        assert all(j < i for i, j in lower)
        for i, j in lower:
            for j2, k in lower:
                if j == j2:
                    assert (i, k) in lower  # transitive
        assert all((i, i) not in lower for i in range(p))


def test_counter_labeled_example():
    lts = gen_counter_lts_labeled(4, (True, True, False, True))
    got = {s for s in range(4) if "q" in lts.labels[s]}
    assert got == {0, 1, 3}
    plain = gen_counter_lts(4)
    assert lts.edges == plain.edges


def test_counter_labeled_empty_and_all_false():
    assert all(not l for l in gen_counter_lts_labeled(2, ()).labels)
    assert all(not l for l in gen_counter_lts_labeled(3, (False, False)).labels)


def test_counter_labeled_word_too_long():
    gen_counter_lts_labeled(2, (True, True))  # exactly p is allowed
    with pytest.raises(ValueError):
        gen_counter_lts_labeled(2, (True, True, False))


def test_chain():
    lts = gen_chain(2)
    assert lts.edges == {"a": frozenset({(0, 1)})}
    assert gen_chain(1).edges == {}


def test_word_lts():
    lts = gen_word_lts(("in", "in", "out"))
    assert lts.n == 4
    assert lts.edges["in"] == frozenset({(0, 1), (1, 2)})
    assert lts.edges["out"] == frozenset({(2, 3)})


def test_test_modality_is_global():
    # [test] formulas hold at all states or none on counter systems
    for p in (2, 3, 4):
        lts = gen_counter_lts(p)
        for body in (tt(), Prop("q"), Dia("lower", tt())):
            val = evaluate(lts, box("test", body))
            assert isinstance(val, Ground)
            assert val.mask in (0, (1 << p) - 1)


def test_round_trip_generated_counter():
    lts = gen_counter_lts(4)
    assert load(save(lts)) == lts


def test_successors_match_a_sorted_scan():
    rng = random.Random(11)
    for _ in range(50):
        lts = randgen.random_lts(rng, 4)
        for s in range(lts.n):
            for a in randgen.ACTIONS + ("missing",):
                scan = sorted(t for s2, t in lts.edges.get(a, ()) if s2 == s)
                assert lts.successors(s, a) == tuple(scan)
