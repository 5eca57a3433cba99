"""Typing judgment, fragments, and the quantitative bounds."""

import random

import pytest

from hflcheck.denote import cardinality, height
from hflcheck.encodings import counter_formula, machine_formula, tape_formulas
from hflcheck.errors import BoundBudgetError, TypeError_, VarianceError
from hflcheck.syntax import (
    App,
    Dia,
    Formula,
    Lam,
    Mu,
    MuVec,
    Neg,
    Or,
    Prop,
    Var,
    desugar_vec,
    fold,
    iff,
    iter_nodes,
    rebuild,
    substitute,
)
from hflcheck.types import (
    PR,
    Arrow,
    PrType,
    Variance,
    big_f,
    chain_type,
    format_type,
    height_bound,
    lattice_size_bound,
    mar,
    ord_,
    tower,
    type_count_bound,
    typecheck,
)

import machines
import randgen
from oracles import fragment_of, reference_typecheck

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
    # a minus-variance argument is checked at the other polarity
    f_minus = Lam("X", Variance.MINUS, PR, Neg(Var("X")))
    y_minus = Lam("Y", Variance.MINUS, PR, App(f_minus, Var("Y")))
    assert typecheck(y_minus) == Arrow(PR, Variance.MINUS, PR)
    # variance-0 application requires the argument to check both ways
    f_zero = Lam("X", Z, PR, Var("X"))
    with pytest.raises(TypeError_):
        typecheck(Lam("Y", P, PR, App(f_zero, Var("Y"))))


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
        typecheck(phi, types_out={})
    # the same type twice is no conflict
    y = Var("Y")
    table: dict = {}
    both = App(Lam("Y", Z, PR, y), App(Lam("Y", Z, PR, y), Prop("p")))
    assert typecheck(both, types_out=table) == PR
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
        got_k, got_m = fragment_of(inc)
        assert got_k == k + 1
        assert got_m == (1 if k == 0 else 2)
    tp = tape_formulas(0, 2, (True,))
    assert fragment_of(tp.read[True]) == (2, 2)
    assert fragment_of(tp.write[True])[0] == 2
    assert fragment_of(tp.write[True])[1] == 3


def test_machine_formula_fragment():
    phi = machine_formula(machines.CELL0, 0, 2, (True,))
    assert fragment_of(phi) == (2, 3)
    phi_wordless = machine_formula(machines.CELL0, 0, 2, None)
    k, m = fragment_of(phi_wordless)
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
    assert height(t1, 1) == 1 + 1 * 2
    assert height(t1, 2) == 1 + 2 * 4
    # the monotone bound dominates the monotone sublattice height but the
    # full-space height may exceed it; both are checked in test_denote
    assert height_bound(t1, 1) >= 3


def test_full_space_cardinality():
    assert cardinality(PR, 2) == 4
    assert cardinality(Arrow(PR, Z, PR), 2) == 256
    assert cardinality(chain_type(2), 1) == 16


def test_budget_refusal_carries_symbolic_form():
    with pytest.raises(BoundBudgetError) as err:
        tower(10, 10)
    assert "tower" in str(err.value)
    with pytest.raises(BoundBudgetError):
        big_f(9, 50)
    with pytest.raises(BoundBudgetError):
        cardinality(chain_type(4), 8)


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


# ---------------------------------------------------------------------------
# Differential fuzz: `typecheck` against `oracles.reference_typecheck`

FUN = Arrow(PR, Z, PR)
GROUND_FUN = Lam("W", Z, PR, Prop("p"))
NEXT_VARIANCE = {P: Variance.MINUS, Variance.MINUS: Z, Z: P}


class _Junk(Formula):
    """A formula node outside the nine constructors."""

    __slots__ = ()

    def __init__(self):
        object.__setattr__(self, "fv", frozenset())


def _outcome(judge, phi, table):
    """The type, or the error's class, message and offending node."""
    try:
        return judge(phi, types_out=table)
    except TypeError_ as e:
        return type(e), str(e), id(e.formula)
    except TypeError as e:  # a non-formula root, refused by free_vars
        return type(e), str(e)


def _judge_alike(phi) -> list:
    """Both judgments on phi, without and with a typing table; they must
    give the same outcome and the same table.  Returns the outcomes."""
    outcomes = []
    for table, ref_table in ((None, None), ({}, {})):
        got = _outcome(typecheck, phi, table)
        want = _outcome(reference_typecheck, phi, ref_table)
        assert got == want
        assert table == ref_table
        outcomes.append(got)
    return outcomes


def _raise_site(outcome) -> str | None:
    if not isinstance(outcome, tuple):
        return None
    cls, message = outcome[:2]
    if cls is VarianceError:
        return "negative variance"
    if cls is TypeError:
        return "non-formula root"
    for start in ("unbound variable", "disjunction", "modality",
                  "application", "fixpoint body", "component",
                  "not a formula", "shared subformula"):
        if message.startswith(start):
            return start
    assert message.startswith("argument type"), message
    if message.endswith("(complement pass)"):
        return "argument, complement pass"
    return "argument"


RAISE_SITES = {
    "unbound variable", "negative variance", "disjunction", "modality",
    "application", "argument", "argument, complement pass",
    "fixpoint body", "component", "not a formula", "shared subformula",
    "non-formula root",
}


def _random_formulas(seed: int, count: int):
    rng = random.Random(seed)
    for i in range(count):
        depth = 3 + i % 3
        yield rng, randgen.random_hfl_formula(
            rng, randgen.HoGenConfig(max_depth=depth))


def _with_annotations(phi):
    """(order, arity) over the typing table and every binder annotation."""
    table: dict = {}
    seen = [reference_typecheck(phi, types_out=table)]
    seen += table.values()
    for f in iter_nodes(phi):
        if isinstance(f, (Lam, Mu)):
            seen.append(f.ty)
        elif isinstance(f, MuVec):
            seen.extend(t for _, t, _ in f.bindings)
    return max(map(ord_, seen)), max(map(mar, seen))


def _shared_variants(rng, phi):
    """Well-typed rewrites of phi that share nodes: a fixpoint unfolded
    once, a vector fixpoint in place of a `Mu`, and a ground node used
    under both polarities."""
    table: dict = {}
    typecheck(phi, types_out=table)
    nodes = list(iter_nodes(phi))
    out = []
    for f in nodes:
        if isinstance(f, Mu):
            out.append(_replace(phi, f, substitute(f.body, f.var, f)))
            out.append(_replace(phi, f, MuVec(1, (
                (f.var, f.ty, f.body), ("W", f.ty, f.body)))))
            break
    ground = [f for f in nodes if table[id(f)] == PR and not f.fv]
    if ground:
        g = rng.choice(ground)
        out.append(_replace(phi, g, Or(g, Neg(g))))
    return out


def _replace(phi, target, new):
    return fold(phi, lambda f, kids: new if f is target else rebuild(f, kids))


def _mutants(rng, phi):
    """Rewrites of the well-typed phi aimed at each raise site of
    `typecheck`."""
    table: dict = {}
    typecheck(phi, types_out=table)
    nodes = list(iter_nodes(phi))

    def pick(cls):
        found = [f for f in nodes if isinstance(f, cls)]
        return rng.choice(found) if found else None

    n = rng.choice(nodes)
    out = [
        _replace(phi, n, Var("Unbound")),
        _replace(phi, n, Neg(n)),
        _replace(phi, n, Or(n, Neg(n))),
        _replace(phi, n, _Junk()),
        MuVec(1, (("W0", PR, phi), ("W1", FUN, Prop("p")))),
    ]
    if (f := pick(Lam)) is not None:
        out.append(_replace(phi, f, Lam(f.var, NEXT_VARIANCE[f.variance],
                                        f.ty, f.body)))
    if (f := pick(Or)) is not None:
        out.append(_replace(phi, f, Or(f.left, GROUND_FUN)))
    if (f := pick(Dia)) is not None:
        out.append(_replace(phi, f, Dia(f.action, GROUND_FUN)))
    if (f := pick(App)) is not None:
        wrong = Prop("p") if table[id(f.arg)] != PR else GROUND_FUN
        out.append(_replace(phi, f, App(Prop("p"), f.arg)))
        out.append(_replace(phi, f, App(f.func, wrong)))
    if (f := pick(Mu)) is not None:
        other = FUN if f.ty == PR else PR
        out.append(_replace(phi, f, Mu(f.var, other, f.body)))
    # one Var object bound at two types: well typed, but refused with a table
    x = pick(Var) or Var("S")
    out.append(Or(phi, App(Lam(x.name, Z, FUN, App(x, Prop("p"))),
                           Lam(x.name, Z, PR, x))))
    return out


def test_infer_matches_reference_on_random_formulas():
    typed = 0
    for rng, phi in _random_formulas(1201, 300):
        for f in [phi] + _shared_variants(rng, phi):
            outcomes = _judge_alike(f)
            assert outcomes == [PR, PR]
            assert fragment_of(f) == _with_annotations(f)
            flat = desugar_vec(f)
            assert fragment_of(flat) == _with_annotations(flat)
            typed += 1
    assert typed > 600


def test_infer_matches_reference_on_mutants():
    sites: set = set()
    for rng, phi in _random_formulas(1202, 300):
        for mutant in _mutants(rng, phi):
            for outcome in _judge_alike(mutant):
                sites.add(_raise_site(outcome))
        # an open subformula under lambdas of drawn variances and types,
        # one name sometimes left unbound
        open_nodes = [f for f in iter_nodes(phi) if f.fv]
        if open_nodes:
            f = rng.choice(open_nodes)
            for x in sorted(f.fv)[rng.random() < 0.2:]:
                f = Lam(x, rng.choice(list(Variance)), rng.choice((PR, FUN)), f)
            for outcome in _judge_alike(f):
                sites.add(_raise_site(outcome))
    for outcome in _judge_alike("p"):
        sites.add(_raise_site(outcome))
    assert sites - {None} == RAISE_SITES


def test_infer_matches_reference_on_encodings():
    corpus = [counter_formula(name, k, 2)
              for name in ("inc", "dec", "eq", "lt", "gt", "exists", "forall")
              for k in (0, 1)]
    corpus += [machine_formula(m, 0, 2, word)
               for m in machines.CORPUS.values() for word in (None, (True,))]
    for phi in corpus:
        ty = typecheck(phi)
        assert _judge_alike(phi) == [ty, ty]
