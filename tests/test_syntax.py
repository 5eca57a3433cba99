"""Core syntax: substitution, closure, measures, vector-fixpoint sugar."""

import random

import pytest

from hflcheck import semantics
from hflcheck.lts import make_lts
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
    and_,
    children,
    desugar_vec,
    ff,
    fl_closure,
    free_vars,
    iter_nodes,
    measures,
    nu,
    or_all,
    substitute,
    tree_size,
    tt,
)
from hflcheck.types import PR, Arrow, Variance

import oracles
import randgen

Z = Variance.ZERO
FUN = Arrow(PR, Z, PR)


def test_substitute_direct():
    phi = Or(Var("X"), Prop("q"))
    got = substitute(phi, "X", Dia("a", tt()))
    assert got == Or(Dia("a", tt()), Prop("q"))


def test_substitute_not_free():
    assert substitute(Prop("q"), "X", tt()) == Prop("q")


def test_substitute_bound_untouched():
    lam = Lam("X", Z, PR, Var("X"))
    assert substitute(lam, "X", tt()) is lam


def test_substitute_capture_avoidance():
    # replacing Y by X under a binder of X must rename the binder
    lam = Lam("X", Z, PR, Or(Var("X"), Var("Y")))
    got = substitute(lam, "Y", Var("X"))
    assert isinstance(got, Lam)
    assert got.var != "X"
    assert got.body == Or(Var(got.var), Var("X"))


def test_substitute_renames_many_sibling_binders():
    # Each Lam Y captures the replacement's free Y, so every body is
    # renamed; renamed bodies are dropped as the walk goes on, and their
    # ids must not be taken for those of later ones.
    parts = [Lam("Y", Z, PR, Or(Var("X"), Dia(f"a{i}", Var("Y"))))
             for i in range(200)]
    out = substitute(or_all(parts), "X", Var("Y"))
    lams = []
    while isinstance(out, Or) and isinstance(out.right, Lam):
        lams.append(out.right)
        out = out.left
    lams.append(out)
    lams.reverse()
    assert len(lams) == 200
    for i, lam in enumerate(lams):
        assert lam.var != "Y"
        assert lam.body == Or(Var("Y"), Dia(f"a{i}", Var(lam.var)))


def test_substitute_identity_up_to_alpha():
    rng = random.Random(7)
    for _ in range(50):
        phi = randgen.random_hfl_formula(rng, randgen.HoGenConfig(max_depth=3))
        for name in list(free_vars(phi)) + ["X"]:
            assert oracles.alpha_eq(substitute(phi, name, Var(name)), phi)


def test_fl_closure_atomic():
    assert fl_closure(Prop("q")) == {Prop("q")}


def test_fl_closure_negated_prop():
    assert fl_closure(Neg(Prop("q"))) == {Neg(Prop("q")), Prop("q")}


def test_fl_closure_modal():
    phi = Dia("a", Or(Prop("q"), Prop("p")))
    assert fl_closure(phi) == {
        phi,
        Or(Prop("q"), Prop("p")),
        Prop("q"),
        Prop("p"),
    }


def test_fl_closure_negated_mu_substitutes():
    mu = Mu("X", PR, Or(Prop("q"), Var("X")))
    closure = fl_closure(Neg(mu))
    assert Neg(Or(Prop("q"), Neg(Var("X")))) in closure


def test_fl_closure_is_a_fixed_point():
    from hflcheck.syntax import Interner

    rng = random.Random(11)
    for _ in range(30):
        phi = randgen.random_hfl_formula(rng, randgen.HoGenConfig(max_depth=3))
        closure = fl_closure(phi)
        interner = Interner()
        canon = {interner.canon(m) for m in closure}
        for member in closure:
            for derived in fl_closure(member):
                assert interner.canon(derived) in canon


def test_measures_examples():
    assert measures(Prop("q")) == (1, 0)
    assert measures(Neg(Prop("q"))) == (2, 0)
    size, lam_vars = measures(Lam("X", Z, PR, Var("X")))
    assert lam_vars == 1


def test_measures_of_a_deeply_shared_dag():
    # 60 levels of Or(f, f) unfold to a tree of about 2**62 nodes; the
    # closure holds the 60 Or levels plus App, Lam, Var X, q and !q.
    f = App(Lam("X", Z, PR, Var("X")), Prop("q"))
    for _ in range(60):
        f = Or(f, f)
    assert measures(f) == (65, 1)


def _free_vars_by_recursion(f):
    if isinstance(f, Prop):
        return frozenset()
    if isinstance(f, Var):
        return frozenset((f.name,))
    out = frozenset().union(*map(_free_vars_by_recursion, children(f)))
    if isinstance(f, (Lam, Mu)):
        return out - {f.var}
    if isinstance(f, MuVec):
        return out - {v for v, _, _ in f.bindings}
    return out


def test_nodes_carry_their_free_variables():
    rng = random.Random(29)
    for _ in range(100):
        phi = randgen.random_hfl_formula(rng, randgen.HoGenConfig(max_depth=4))
        for f in iter_nodes(phi):
            assert free_vars(f) == _free_vars_by_recursion(f)
    vec = MuVec(1, (("X", PR, Or(Var("Y"), Var("X"))), ("Y", PR, Var("Z"))))
    assert free_vars(vec) == {"Z"}
    with pytest.raises(TypeError):
        free_vars("X")


def test_closure_size_at_most_twice_length():
    rng = random.Random(23)
    for _ in range(100):
        phi = randgen.random_hfl_formula(rng, randgen.HoGenConfig(max_depth=4))
        size, _ = measures(phi)
        assert size <= 2 * tree_size(phi)


def test_desugar_single_binding():
    vec = MuVec(1, (("X1", PR, Var("X1")),))
    assert desugar_vec(vec) == Mu("X1", PR, Var("X1"))


def test_desugar_two_bindings_worked_example():
    vec = MuVec(1, (("X1", PR, Var("X2")), ("X2", PR, Var("X1"))))
    assert desugar_vec(vec) == Mu("X1", PR, Mu("X2", PR, Var("X1")))


def test_desugar_identity_without_vectors():
    phi = Or(Prop("q"), Mu("X", PR, Var("X")))
    assert desugar_vec(phi) == phi
    assert desugar_vec(phi) is phi


def test_desugar_matches_native_evaluation():
    # simultaneous reachability system evaluated both ways, all components
    lts = make_lts(3, [(0, "a", 1), (1, "b", 2)], [(2, "q")])
    bindings = (
        ("A", PR, Or(Prop("q"), Dia("a", Var("B")))),
        ("B", PR, Or(Prop("q"), Dia("b", Var("A")))),
    )
    for index in (1, 2):
        vec = MuVec(index, bindings)
        native = semantics.evaluate(lts, vec)
        flat = semantics.evaluate(lts, desugar_vec(vec))
        assert native == flat


def test_desugar_three_bindings_matches_native():
    rng = random.Random(5)
    for _ in range(20):
        lts = randgen.random_lts(rng, 3)
        bindings = tuple(
            (f"W{i}", PR, randgen.random_mu_formula(rng, 3))
            for i in range(3)
        )
        # make the components actually refer to each other
        bindings = (
            bindings[0],
            (bindings[1][0], PR, Or(bindings[1][2], Dia("a", Var("W0")))),
            (bindings[2][0], PR, Or(bindings[2][2], Dia("b", Var("W1")))),
        )
        for index in (1, 2, 3):
            vec = MuVec(index, bindings)
            assert semantics.evaluate(lts, vec) == semantics.evaluate(
                lts, desugar_vec(vec)
            )


def test_nu_over_a_vector_fixpoint_decides_as_its_desugaring():
    # nu substitutes !X into the fix, so the vector node is rebuilt around
    # its new component body; all three procedures read it as written.
    from hflcheck.games import check_via_games
    from hflcheck.surface import parse_formula

    phi = parse_formula("nu (X:Pr). fix 1 (Y:Pr. q & X | <a> Y)")
    assert any(isinstance(f, MuVec) for f in iter_nodes(phi))
    rng = random.Random(48)
    for _ in range(20):
        lts = randgen.random_lts(rng, 3)
        want = oracles.mu_check(lts, desugar_vec(phi))
        for engine in ("demand", "tabulate"):
            got = semantics.evaluate(lts, phi,
                                     semantics.EvalConfig(engine=engine))
            assert set(got.states()) == want
        assert {s for s in range(lts.n)
                if check_via_games(lts, s, phi)} == want


def test_substitution_into_a_vector_fixpoint_renames_a_capturing_binder():
    vec = MuVec(1, (("Y", PR, Or(Var("Z"), Dia("a", Var("Y")))),))
    got = substitute(vec, "Z", Var("Y"))
    ((y2, ty, body),) = got.bindings
    assert y2 != "Y" and ty == PR and got.index == 1
    assert body == Or(Var("Y"), Dia("a", Var(y2)))
    assert free_vars(got) == {"Y"}


def test_muvec_validation():
    with pytest.raises(ValueError):
        MuVec(0, (("X", PR, Var("X")),))
    with pytest.raises(ValueError):
        MuVec(1, ())
    with pytest.raises(ValueError):
        MuVec(1, (("X", PR, Var("X")), ("X", PR, Var("X"))))


def test_derived_forms_expand():
    from hflcheck.syntax import box

    q = Prop("q")
    assert tt() == Or(Prop("__q"), Neg(Prop("__q")))
    assert ff() == Neg(tt())
    assert and_(q, q) == Neg(Or(Neg(q), Neg(q)))
    assert box("a", q) == Neg(Dia("a", Neg(q)))
    # nu X.X = !mu X.!!X
    assert nu("X", PR, Var("X")) == Neg(Mu("X", PR, Neg(Neg(Var("X")))))


def test_nu_substitutes_negated_variable():
    got = nu("X", PR, Dia("a", Var("X")))
    assert got == Neg(Mu("X", PR, Neg(Dia("a", Neg(Var("X"))))))


def test_closure_of_a_vector_fixpoint_is_that_of_its_desugaring():
    vec = MuVec(2, (("X", PR, Or(Prop("q"), Dia("a", Var("Y")))),
                    ("Y", PR, Dia("b", Var("X")))))
    for phi in (vec, Neg(vec), Lam("F", Z, PR, Or(Var("F"), vec))):
        flat = desugar_vec(phi)
        assert fl_closure(phi) == fl_closure(flat)
        assert measures(phi) == measures(flat)
        assert measures(phi)[0] > 3
