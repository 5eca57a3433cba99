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
    fold,
    free_vars,
    fresh_name,
    iter_nodes,
    measures,
    nu,
    or_all,
    rebuild,
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


def test_measures_count_lambdas_met_at_either_polarity():
    from hflcheck.surface import parse_formula

    # The walk descends into a lambda reached only under negation, and
    # into one alpha-equal to a lambda met before.
    assert measures(parse_formula("!((\\(X:Pr)^+. X) p)")) == (6, 1)
    assert measures(parse_formula(
        "(\\(X:Pr)^+. X) p | (\\(Y:Pr)^+. Y) q")) == (10, 2)
    rng = random.Random(31)
    for _ in range(100):
        phi = randgen.random_hfl_formula(rng, randgen.HoGenConfig(max_depth=4))
        assert measures(Neg(phi))[1] == measures(phi)[1]


def _lambdas_renamed(phi):
    """A copy of phi with every lambda binder renamed to a fresh name."""
    def step(f, kids):
        if not isinstance(f, Lam):
            return rebuild(f, kids)
        var = fresh_name(f.var, kids[0].fv)
        return Lam(var, f.variance, f.ty, substitute(kids[0], f.var, Var(var)))

    return fold(phi, step)


def _lambdas_relabelled(phi, name):
    """A copy of phi whose lambda binders are all `name`, with their bodies
    untouched: it captures and shadows, so it is mostly not alpha-equal."""
    def step(f, kids):
        if not isinstance(f, Lam):
            return rebuild(f, kids)
        return Lam(name, f.variance, f.ty, kids[0])

    return fold(phi, step)


def _scrambled(phi, rng):
    """A copy of phi with each variable, proposition and action drawn
    again from a few names, so that copies share structure and differ in
    which occurrences name the same variable."""
    def step(f, kids):
        if isinstance(f, Var):
            return Var(rng.choice(("X", "Y", "Z", "V1")))
        if isinstance(f, Prop):
            return Prop(rng.choice("pq"))
        if isinstance(f, Dia):
            return Dia(rng.choice("ab"), kids[0])
        return rebuild(f, kids)

    return fold(phi, step)


def _random_open_term(rng, depth):
    """An untyped term over three variable names, where binders shadow,
    capture and go unused; interning needs no types."""
    pick = rng.randrange(7) if depth else 0
    if pick == 0:
        return Var(rng.choice("XYZ")) if rng.random() < 0.8 else Prop("q")
    if pick < 3:
        kind = Or if pick == 1 else App
        return kind(_random_open_term(rng, depth - 1),
                    _random_open_term(rng, depth - 1))
    body = _random_open_term(rng, depth - 1)
    if pick == 3:
        return Neg(body)
    if pick == 4:
        return Lam(rng.choice("XYZ"), Z, PR, body)
    if pick == 5:
        return Mu(rng.choice("XYZ"), PR, body)
    other = _random_open_term(rng, depth - 1)
    return MuVec(rng.choice((1, 2)), (("X", PR, body), ("Y", PR, other)))


def _fix_systems(a, b):
    """Two-binding systems over `a` and `b`, with their binders renamed
    (alpha-equal), swapped in order, or swapped in name only."""
    x = Or(a, Dia("a", Var("Y")))
    y = Or(Var("X"), App(b, Var("Y")))
    renamed = [(v, PR, substitute(body, "X", Var("X9")))
               for v, body in (("X9", x), ("Y", y))]
    for bindings in ([("X", PR, x), ("Y", PR, y)], renamed,
                     [("Y", PR, y), ("X", PR, x)],
                     [("Y", PR, x), ("X", PR, y)]):
        for index in (1, 2):
            yield MuVec(index, tuple(bindings))


def test_interner_partition_matches_the_reference():
    # Members: each formula's closure and subterms, copies with lambda
    # binders renamed or relabelled or with names scrambled, fix systems
    # over its subterms, and the subterms of scrambled copies of a random
    # open term.  Two members get equal ids exactly when the recursive de
    # Bruijn interner gives them equal ids; the one interner of each
    # formula keeps its table across all of them.
    from hflcheck.syntax import Interner, _closure_reps

    rng = random.Random(41)
    pairs = 0
    for _ in range(150):
        phi = randgen.random_hfl_formula(rng, randgen.HoGenConfig(max_depth=4))
        renamed = _lambdas_renamed(phi)
        members = _closure_reps(phi) + list(iter_nodes(phi))
        members += iter_nodes(renamed)
        for name in ("V1", "V2", "X"):
            members += iter_nodes(_lambdas_relabelled(phi, name))
        for _ in range(4):
            members += iter_nodes(_scrambled(phi, rng))
        parts = list(iter_nodes(phi))
        for _ in range(3):
            members += _fix_systems(rng.choice(parts), rng.choice(parts))
        term = _random_open_term(rng, 4)
        for _ in range(8):
            members += iter_nodes(_scrambled(term, rng))
        interner, reference = Interner(), oracles.ReferenceInterner()
        ids = {(interner.canon(m), reference.canon(m)) for m in members}
        assert len({i for i, _ in ids}) == len(ids) == len({r for _, r in ids})
        assert interner.canon(renamed) == interner.canon(phi)
        pairs += len(members) * (len(members) - 1) // 2
    assert pairs > 100_000


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


def test_desugar_without_vectors_only_scans(monkeypatch):
    # A formula with no vector fixpoint is returned after one scan, with
    # no rebuilding fold; one with a vector fixpoint is still rewritten.
    from hflcheck import syntax

    def refuse(*args, **kwargs):
        raise AssertionError("desugar_vec folded a formula without MuVec")

    monkeypatch.setattr(syntax, "fold", refuse)
    phi = Or(Prop("q"), Mu("X", PR, Dia("a", Var("X"))))
    assert desugar_vec(phi) is phi
    monkeypatch.undo()
    vec = MuVec(1, (("X1", PR, Var("X1")),))
    assert desugar_vec(Or(phi, vec)) == Or(phi, Mu("X1", PR, Var("X1")))


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
    from hflcheck.pipeline import check_via_games
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


def test_vector_rename_keeps_the_binders_distinct():
    # X captures the replacement's X; its new name must also avoid the
    # sibling binder X1, which no body mentions.
    vec = MuVec(1, (("X", PR, Or(Var("X"), Var("Z"))), ("X1", PR, Prop("p"))))
    got = substitute(vec, "Z", Var("X"))
    (x2, _, body), (x1, _, other) = got.bindings
    assert len({x2, x1, "X"}) == 3 and x1 == "X1"
    assert body == Or(Var(x2), Var("X")) and other == Prop("p")
    assert free_vars(got) == {"X"}


def test_fresh_names_depend_on_the_arguments_alone():
    assert fresh_name("X", set()) == "X1"
    assert fresh_name("X12", {"X1", "X2"}) == "X3"
    assert [fresh_name("Y", {"Y", "Y1"}) for _ in range(3)] == ["Y2"] * 3


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
