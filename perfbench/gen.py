"""Seeded inputs and reference answers for the benchmark workloads.

This module is the benchmark's own copy of the random model and formula
generators and of the brute-force ground checker.  It deliberately does not
import the test helpers: a change to the test generators must not silently
change what a workload measures.  Everything here builds program objects
through the public `hflcheck` constructors, so the program itself sees only
the generated inputs.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from hflcheck import encodings, lts, syntax, types

PROPS = ("p", "q")
ACTIONS = ("a", "b")


# ---------------------------------------------------------------------------
# Random models and formulas (random-cli)


def random_lts(rng: random.Random, max_states: int):
    n = rng.randint(1, max_states)
    trans = []
    for a in ACTIONS:
        for s in range(n):
            for t in range(n):
                if rng.random() < 0.35:
                    trans.append((s, a, t))
    labels = [(s, p) for s in range(n) for p in PROPS if rng.random() < 0.4]
    return lts.make_lts(n, trans, labels)


def random_mu_formula(rng: random.Random, depth: int):
    """Closed formula of the ground fragment: no lambdas, positive binders."""
    counter = [0]

    def go(depth, scope, parity):
        usable = [x for x, bp in scope if bp == parity]
        choices = ["prop"]
        if depth > 0:
            choices += ["neg", "or", "or", "dia", "dia", "mu"]
        if usable:
            choices += ["var", "var"]
        pick = rng.choice(choices)
        if pick == "var":
            return syntax.Var(rng.choice(usable))
        if pick == "prop" or depth == 0:
            return syntax.Prop(rng.choice(PROPS))
        if pick == "neg":
            return syntax.Neg(go(depth - 1, scope, 1 - parity))
        if pick == "or":
            return syntax.Or(go(depth - 1, scope, parity),
                             go(depth - 1, scope, parity))
        if pick == "dia":
            return syntax.Dia(rng.choice(ACTIONS), go(depth - 1, scope, parity))
        counter[0] += 1
        name = f"V{counter[0]}"
        body = go(depth - 1, [(name, parity)] + scope, parity)
        return syntax.Mu(name, types.PR, body)

    return go(depth, [], 0)


@dataclass(frozen=True)
class _Entry:
    variance: types.Variance
    ty: object
    bind_parity: int
    bind_epoch: int


_FUN = types.Arrow(types.PR, types.Variance.ZERO, types.PR)


def random_hfl_formula(rng: random.Random, max_depth: int):
    """Closed well-typed HFL formula of ground type.

    Type-directed, tracking variances the way the checker composes them: a
    variable is usable relative to the parity of negations crossed since
    its binder, and arguments at variance 0 (an "epoch" boundary) only see
    variance-0 variables from outside.

    Lambdas take ground arguments only; fixpoints are at `Pr` or
    `Pr -> Pr`.  A function-typed argument over three states has a domain
    of 8^8 tables, past the default enumeration budget, so such instances
    would be refused, and the ones that fit build games of up to seconds:
    neither is what this workload measures.
    """
    counter = [0]
    zero, plus, minus = (types.Variance.ZERO, types.Variance.PLUS,
                         types.Variance.MINUS)

    def fresh():
        counter[0] += 1
        return f"V{counter[0]}"

    def usable(scope, parity, epoch, ty):
        out = []
        for name, e in scope.items():
            if e.ty != ty:
                continue
            if e.bind_epoch != epoch:
                ok = e.variance is zero
            else:
                rel = parity ^ e.bind_parity
                ok = (e.variance is zero
                      or (e.variance is plus and rel == 0)
                      or (e.variance is minus and rel == 1))
            if ok:
                out.append(name)
        return out

    def go(ty, depth, scope, parity, epoch):
        if isinstance(ty, types.Arrow):
            vars_here = usable(scope, parity, epoch, ty)
            if vars_here and rng.random() < 0.3:
                return syntax.Var(rng.choice(vars_here))
            if depth > 0 and ty == _FUN and rng.random() < 0.2:
                return gen_mu(ty, depth, scope, parity, epoch)
            name = fresh()
            entry = _Entry(ty.variance, ty.arg, parity, epoch)
            body = go(ty.result, depth - 1, {**scope, name: entry},
                      parity, epoch)
            return syntax.Lam(name, ty.variance, ty.arg, body)
        vars_here = usable(scope, parity, epoch, types.PR)
        choices = ["prop", "prop", "tt"]
        if depth > 0:
            choices += ["neg", "or", "or", "dia", "dia", "app", "app",
                        "mu", "mu_fun"]
        if vars_here:
            choices += ["var", "var", "var"]
        pick = rng.choice(choices)
        if pick == "var":
            return syntax.Var(rng.choice(vars_here))
        if pick == "prop":
            return syntax.Prop(rng.choice(PROPS))
        if pick == "tt":
            return syntax.tt() if rng.random() < 0.5 else syntax.ff()
        if pick == "neg":
            return syntax.Neg(go(ty, depth - 1, scope, 1 - parity, epoch))
        if pick == "or":
            return syntax.Or(go(ty, depth - 1, scope, parity, epoch),
                             go(ty, depth - 1, scope, parity, epoch))
        if pick == "dia":
            return syntax.Dia(rng.choice(ACTIONS),
                              go(ty, depth - 1, scope, parity, epoch))
        if pick == "mu":
            return gen_mu(types.PR, depth, scope, parity, epoch)
        if pick == "mu_fun":
            mu = gen_mu(_FUN, depth, scope, parity, epoch)
            arg = gen_arg(zero, depth - 1, scope, parity, epoch)
            return syntax.App(mu, arg)
        variance = rng.choice((zero, plus, plus, minus))
        fun = go(types.Arrow(types.PR, variance, ty), depth - 1, scope,
                 parity, epoch)
        arg = gen_arg(variance, depth - 1, scope, parity, epoch)
        return syntax.App(fun, arg)

    def gen_arg(variance, depth, scope, parity, epoch):
        if variance is plus:
            return go(types.PR, depth, scope, parity, epoch)
        if variance is minus:
            return go(types.PR, depth, scope, 1 - parity, epoch)
        return go(types.PR, depth, scope, parity, epoch + 1)

    def gen_mu(ty, depth, scope, parity, epoch):
        name = fresh()
        entry = _Entry(plus, ty, parity, epoch)
        body = go(ty, depth - 1, {**scope, name: entry}, parity, epoch)
        return syntax.Mu(name, ty, body)

    return go(types.PR, max_depth, {}, 0, 0)


def unfolded_size(phi, n: int) -> int:
    """Tree size of phi after fixpoint elimination over n states.

    Each fixpoint becomes its approximant at the height of its lattice:
    n + 1 for `Pr` and n * 2^n + 1 for `Pr -> Pr`, starting from `ff`
    (five nodes) or `\\Z. ff`.  The size multiplies with every occurrence
    of a fixpoint variable, so it is exponential in the nesting.  Computed
    here from the formula alone, not by the program.
    """
    ff_size = 5

    def go(f):
        """(tree size, free-variable occurrences) after elimination."""
        if isinstance(f, syntax.Prop):
            return 1, {}
        if isinstance(f, syntax.Var):
            return 1, {f.name: 1}
        if isinstance(f, syntax.Mu):
            body, occ = go(f.body)
            own = occ.pop(f.var, 0)
            if isinstance(f.ty, types.PrType):
                size, height = ff_size, n + 1
            else:
                size, height = ff_size + 1, n * 2**n + 1
            outer = {}
            for _ in range(height):
                size = body - own + own * size
                outer = {y: c + own * outer.get(y, 0) for y, c in occ.items()}
            return size, outer
        size, occ = 1, {}
        for child in (getattr(f, a) for a in ("body", "left", "right",
                                               "func", "arg")
                      if hasattr(f, a)):
            child_size, child_occ = go(child)
            size += child_size
            for y, c in child_occ.items():
                occ[y] = occ.get(y, 0) + c
        if isinstance(f, syntax.Lam):
            occ.pop(f.var, None)
        return size, occ

    return go(phi)[0]


def elimination_probe():
    """A fixed ground instance whose eliminated formula is large as a tree
    (a fixpoint variable used three times inside a nested fixpoint) but
    small as a DAG: (model, formula)."""
    v1, v2 = syntax.Var("V1"), syntax.Var("V2")
    inner = syntax.Mu("V2", types.PR, syntax.Or(
        syntax.Or(v1, v2),
        syntax.Or(syntax.Dia("b", v2), syntax.Dia("a", syntax.Or(v1, v1)))))
    q = syntax.Prop("q")
    phi = syntax.Mu("V1", types.PR, syntax.Or(inner, syntax.Or(
        syntax.Dia("b", q),
        syntax.Dia("b", syntax.Dia("b", syntax.Dia("a", q))))))
    model = lts.make_lts(2, [(s, a, 1 - s) for s in (0, 1) for a in ACTIONS],
                         [(0, "q")])
    return model, phi


def mu_check(model, formula, env=None) -> frozenset:
    """Brute-force ground modal mu-calculus: plain sets, iteration from empty.

    Independent of the evaluator: no lambdas, no tables, no caches.
    """
    env = env or {}
    if isinstance(formula, syntax.Prop):
        return frozenset(s for s in range(model.n)
                         if formula.name in model.labels[s])
    if isinstance(formula, syntax.Var):
        return env[formula.name]
    if isinstance(formula, syntax.Neg):
        return frozenset(range(model.n)) - mu_check(model, formula.body, env)
    if isinstance(formula, syntax.Or):
        return (mu_check(model, formula.left, env)
                | mu_check(model, formula.right, env))
    if isinstance(formula, syntax.Dia):
        body = mu_check(model, formula.body, env)
        return frozenset(s for s, t in model.edges.get(formula.action, ())
                         if t in body)
    if isinstance(formula, syntax.Mu):
        current = frozenset()
        while True:
            new = mu_check(model, formula.body, {**env, formula.var: current})
            if new == current:
                return current
            current = new
    raise ValueError(f"not a ground-fragment formula: {formula!r}")


# ---------------------------------------------------------------------------
# Counter corpus (counter-games)


def counter_corpus(p: int):
    """The level-0 counter corpus with its arithmetic answers.

    Returns (label, formula, holds_at) triples, where holds_at(state) is
    the verdict integer arithmetic predicts: bit tests hold only at their
    own state, comparisons of numerals are two-valued, `exists` over the
    `eq ... max` predicate holds and `forall` over it fails.
    """
    out = []
    for i in range(2**p):
        out.append((f"bit{i}", encodings.bit_formula(i, p),
                    lambda s, i=i: s == i))
        for j in range(2**p):
            for name, rel in (("eq", i == j), ("lt", i < j), ("gt", i > j)):
                phi = syntax.apply_all(encodings.counter_formula(name, 0, p),
                                       encodings.chi_formula(i, 0, p),
                                       encodings.chi_formula(j, 0, p))
                out.append((f"{name}({i},{j})", phi, lambda s, r=rel: r))
    pred = syntax.Lam(
        "W", types.Variance.ZERO, types.PR,
        syntax.apply_all(encodings.counter_formula("eq", 0, p),
                         syntax.Var("W"), encodings.counter_formula("max", 0, p)))
    out.append(("exists(eq max)",
                syntax.App(encodings.counter_formula("exists", 0, p), pred),
                lambda s: True))
    out.append(("forall(eq max)",
                syntax.App(encodings.counter_formula("forall", 0, p), pred),
                lambda s: False))
    return out


# ---------------------------------------------------------------------------
# Alternating machines (encoded-eval)


def _atm(states, exists, forall, start, delta):
    return encodings.Atm(states=states, exists=frozenset(exists),
                         forall=frozenset(forall), accept="qa", reject="qr",
                         start=start, delta=delta)


def machines():
    """Four small machines: constant accept and reject, a read of cell 0,
    and a universal split whose branches read different cells after a
    write, so acceptance depends on the word."""
    t, f = True, False
    return {
        "pure_accept": _atm(("q0", "qa", "qr"), {"q0"}, (), "q0", {
            ("q0", t): (("qa", t, 0),), ("q0", f): (("qa", f, 0),)}),
        "pure_reject": _atm(("q0", "qa", "qr"), {"q0"}, (), "q0", {
            ("q0", t): (("qr", t, 0),), ("q0", f): (("qr", f, 0),)}),
        "cell0": _atm(("q0", "qa", "qr"), {"q0"}, (), "q0", {
            ("q0", t): (("qa", t, 0),), ("q0", f): (("qr", f, 0),)}),
        "alternating": _atm(
            ("q0", "q1", "q2", "qa", "qr"), {"q1", "q2"}, {"q0"}, "q0", {
                ("q0", t): (("q1", t, 1), ("q2", f, 0)),
                ("q0", f): (("q1", f, 1), ("q2", t, 0)),
                ("q1", t): (("qa", t, 0),), ("q1", f): (("qr", f, 0),),
                ("q2", t): (("qr", t, 0),), ("q2", f): (("qa", f, 0),)}),
    }


def words(max_len: int):
    """Every tape word of length at most max_len, shortest first."""
    return [w for r in range(max_len + 1)
            for w in itertools.product((True, False), repeat=r)]
