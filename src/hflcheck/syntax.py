"""Core formula syntax: AST, derived forms, substitution, closure, measures.

Formulas are immutable trees built from nine constructors.  Every node
carries its free variable names, computed once at construction from its
children's sets.  Substitution shares untouched subtrees, so formulas
produced by unfolding are DAGs in memory; every walk here visits each
distinct node once, by object identity, to stay linear in their number.

Every rewrite goes through one walker, `fold`: it visits the children of
a node before the node, with an explicit stack instead of Python
recursion, so the depth of a formula is bounded by memory, not by the
interpreter's recursion limit.  `substitute`, `desugar_vec`, `tree_size`,
the alpha-canonical ids of `Interner`, fixpoint elimination and the
evaluator's compiler are each one `step` over it; `rebuild`, the inverse
of `children`, makes the new node.  The Fischer-Ladner closure walks
(node, negated) pairs instead, as the game builder's moves read them.
A fresh name comes from the names at hand, never from process state.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, replace


# ---------------------------------------------------------------------------
# Abstract syntax
#
# Each node sets `fv`, its free variable names, in `__post_init__` from its
# children's sets (nodes are frozen, hence `_set`); a set equal to a
# child's is that child's set object, so sharing stays cheap.


@dataclass(frozen=True, slots=True)
class Formula:
    fv: frozenset = field(init=False, repr=False, compare=False)


_NO_VARS = frozenset()


def _union(a: frozenset, b: frozenset) -> frozenset:
    if b <= a:
        return a
    return b if a <= b else a | b


def _bind(fv: frozenset, var: str) -> frozenset:
    return fv - {var} if var in fv else fv


_set = object.__setattr__


def free_vars(phi: Formula) -> frozenset:
    if isinstance(phi, Formula):
        return phi.fv
    raise TypeError(f"not a formula: {phi!r}")


@dataclass(frozen=True, slots=True)
class Prop(Formula):
    name: str

    def __post_init__(self):
        _set(self, "fv", _NO_VARS)


@dataclass(frozen=True, slots=True)
class Var(Formula):
    name: str

    def __post_init__(self):
        _set(self, "fv", frozenset((self.name,)))


@dataclass(frozen=True, slots=True)
class Neg(Formula):
    body: Formula

    def __post_init__(self):
        _set(self, "fv", self.body.fv)


@dataclass(frozen=True, slots=True)
class Or(Formula):
    left: Formula
    right: Formula

    def __post_init__(self):
        _set(self, "fv", _union(self.left.fv, self.right.fv))


@dataclass(frozen=True, slots=True)
class Dia(Formula):
    action: str
    body: Formula

    def __post_init__(self):
        _set(self, "fv", self.body.fv)


@dataclass(frozen=True, slots=True)
class App(Formula):
    func: Formula
    arg: Formula

    def __post_init__(self):
        _set(self, "fv", _union(self.func.fv, self.arg.fv))


@dataclass(frozen=True, slots=True)
class Lam(Formula):
    var: str
    variance: "Variance"
    ty: "HflType"
    body: Formula

    def __post_init__(self):
        _set(self, "fv", _bind(self.body.fv, self.var))


@dataclass(frozen=True, slots=True)
class Mu(Formula):
    var: str
    ty: "HflType"
    body: Formula

    def __post_init__(self):
        _set(self, "fv", _bind(self.body.fv, self.var))


@dataclass(frozen=True, slots=True)
class MuVec(Formula):
    """Simultaneous least fixpoint; `index` selects a component, 1-based.

    Typed and evaluated as written; `desugar_vec` rewrites it into nested
    Mu for fixpoint elimination and the closure.
    """

    index: int
    bindings: tuple  # of (var, HflType, Formula)

    def __post_init__(self):
        if not self.bindings:
            raise ValueError("vector fixpoint needs at least one binding")
        if not 1 <= self.index <= len(self.bindings):
            raise ValueError(f"component index {self.index} out of range")
        names = [v for v, _, _ in self.bindings]
        if len(set(names)) != len(names):
            raise ValueError("vector fixpoint binders must be distinct")
        fv = _NO_VARS
        for _, _, b in self.bindings:
            fv = _union(fv, b.fv)
        _set(self, "fv", fv - set(names))


# ---------------------------------------------------------------------------
# Derived forms

RESERVED_PROP = "__q"

_TT = Or(Prop(RESERVED_PROP), Neg(Prop(RESERVED_PROP)))
_FF = Neg(_TT)


def tt() -> Formula:
    return _TT


def ff() -> Formula:
    return _FF


def and_(a: Formula, b: Formula) -> Formula:
    return Neg(Or(Neg(a), Neg(b)))


def implies(a: Formula, b: Formula) -> Formula:
    return Or(Neg(a), b)


def iff(a: Formula, b: Formula) -> Formula:
    return and_(implies(a, b), implies(b, a))


def box(action: str, f: Formula) -> Formula:
    return Neg(Dia(action, Neg(f)))


def dia_all(actions, f: Formula) -> Formula:
    """<-> over an action alphabet: some action leads to f."""
    return or_all([Dia(a, f) for a in actions])


def box_all(actions, f: Formula) -> Formula:
    return and_all([box(a, f) for a in actions])


def or_all(fs) -> Formula:
    fs = list(fs)
    if not fs:
        return ff()
    out = fs[0]
    for f in fs[1:]:
        out = Or(out, f)
    return out


def and_all(fs) -> Formula:
    fs = list(fs)
    if not fs:
        return tt()
    out = fs[0]
    for f in fs[1:]:
        out = and_(out, f)
    return out


def nu(var: str, ty, body: Formula) -> Formula:
    """Greatest fixpoint as sugar: nu X.f = !mu X.!f[!X/X]."""
    return Neg(Mu(var, ty, Neg(substitute(body, var, Neg(Var(var))))))


def apply_all(func: Formula, *args: Formula) -> Formula:
    out = func
    for a in args:
        out = App(out, a)
    return out


# ---------------------------------------------------------------------------
# Traversals


def children(phi: Formula):
    if isinstance(phi, (Prop, Var)):
        return ()
    if isinstance(phi, (Neg, Dia)):
        return (phi.body,)
    if isinstance(phi, Or):
        return (phi.left, phi.right)
    if isinstance(phi, App):
        return (phi.func, phi.arg)
    if isinstance(phi, (Lam, Mu)):
        return (phi.body,)
    if isinstance(phi, MuVec):
        return tuple(b for _, _, b in phi.bindings)
    raise TypeError(f"not a formula: {phi!r}")


def rebuild(f: Formula, kids) -> Formula:
    """A node like `f` with children `kids`: the inverse of `children`.
    When every kid is already f's child, as at a leaf, that is `f` itself."""
    if all(map(operator.is_, kids, children(f))):
        return f
    if isinstance(f, Neg):
        return Neg(kids[0])
    if isinstance(f, Or):
        return Or(kids[0], kids[1])
    if isinstance(f, Dia):
        return Dia(f.action, kids[0])
    if isinstance(f, App):
        return App(kids[0], kids[1])
    if isinstance(f, Lam):
        return Lam(f.var, f.variance, f.ty, kids[0])
    if isinstance(f, Mu):
        return Mu(f.var, f.ty, kids[0])
    if isinstance(f, MuVec):
        return MuVec(f.index, tuple(
            (v, t, k) for (v, t, _), k in zip(f.bindings, kids)
        ))
    raise TypeError(f"not a formula: {f!r}")


def fold(phi: Formula, step, enter=None, done=None):
    """The result of `step(f, kids)` at `phi`, where `kids` holds the
    results at f's children; each distinct node is stepped once, after
    its children.

    The walk keeps an explicit stack, so it takes no Python frame per
    level of nesting.  `done` maps id(node) -> (node, result); holding the
    node keeps its id from being reused while the table lives, so a table
    passed in carries results from one call to the next.  `enter(f)`, when
    given, returns the node whose children are visited and which is passed
    to `step`, or None to make `f` its own result.
    """
    if done is None:
        done = {}
    # (node, the node entered for it, that node's children), the last two
    # None until the node is entered; a node's children are done before
    # its entered entry comes off the stack again.
    stack = [(phi, None, None)]
    while stack:
        f, g, cs = stack.pop()
        if g is not None:
            done[id(f)] = (f, step(g, [done[id(c)][1] for c in cs]))
            continue
        if id(f) in done:
            continue
        g = f if enter is None else enter(f)
        if g is None:
            done[id(f)] = (f, f)
            continue
        cs = children(g)
        stack.append((f, g, cs))
        for c in cs:
            if id(c) not in done:
                stack.append((c, None, None))
    return done[id(phi)][1]


def iter_nodes(phi: Formula):
    """Every distinct node object, each once (DAG-aware)."""
    seen = set()
    stack = [phi]
    while stack:
        f = stack.pop()
        if id(f) in seen:
            continue
        seen.add(id(f))
        yield f
        stack.extend(children(f))


def dag_size(phi: Formula) -> int:
    return sum(1 for _ in iter_nodes(phi))


def tree_size(phi: Formula) -> int:
    """Syntactic length: node count of the fully unfolded tree (big int)."""
    return fold(phi, lambda f, kids: 1 + sum(kids))


def lambda_binder_names(phi: Formula) -> frozenset:
    return frozenset(f.var for f in iter_nodes(phi) if isinstance(f, Lam))


# ---------------------------------------------------------------------------
# Substitution


def fresh_name(base: str, avoid) -> str:
    """The first of stem1, stem2, ... not in `avoid`, where stem is `base`
    without its trailing digits: a grammar-legal name that depends on the
    arguments alone."""
    stem = base.rstrip("0123456789") or base
    i = 1
    while f"{stem}{i}" in avoid:
        i += 1
    return f"{stem}{i}"


def substitute(phi: Formula, name: str, repl: Formula,
               avoid: frozenset = frozenset()) -> Formula:
    """Replace every free occurrence of `name` in `phi` by `repl`.

    Capture is avoided by renaming colliding binders of `phi` on demand:
    those above an occurrence of `name` that bind a free name of `repl`,
    or a name in `avoid`.
    """
    fv_repl = free_vars(repl) | avoid

    def enter(f: Formula):
        if name not in free_vars(f):
            return None
        if isinstance(f, (Lam, Mu)) and f.var in fv_repl:
            var = fresh_name(f.var, fv_repl | f.body.fv | {name})
            return replace(f, var=var, body=substitute(f.body, f.var, Var(var)))
        if isinstance(f, MuVec) and any(v in fv_repl for v, _, _ in f.bindings):
            bindings = f.bindings
            for v, _, _ in f.bindings:
                if v in fv_repl:  # v2 avoids every binder and free name
                    v2 = fresh_name(v, fv_repl.union(
                        {name}, *[b.fv | {w} for w, _, b in bindings]))
                    bindings = [(v2 if w == v else w, t,
                                 substitute(b, v, Var(v2)))
                                for w, t, b in bindings]
            return MuVec(f.index, tuple(bindings))
        return f

    def step(f: Formula, kids) -> Formula:
        return repl if isinstance(f, Var) else rebuild(f, kids)

    return fold(phi, step, enter)


# ---------------------------------------------------------------------------
# Alpha-normal interning


class Interner:
    """Canonical integer ids for formulas modulo bound-variable names.

    Each node folds to a shape id and its free names in first-occurrence
    order; the shape numbers a free variable by its position there, and a
    binder records its variable's position in its body's names (-1 when
    absent) and drops it.  `canon` interns the root's (shape, names), so
    equal ids mean alpha-equal, with free variables compared by name.
    """

    def __init__(self):
        self._table: dict = {}  # shape key or (shape, names) -> id
        self._done: dict = {}  # the `done` table of `fold`, kept across calls

    def canon(self, phi: Formula) -> int:
        got = self._done.get(id(phi))
        return self._id(got[1] if got else fold(phi, self._step, done=self._done))

    def _id(self, key) -> int:
        return self._table.setdefault(key, len(self._table))

    def _step(self, f: Formula, kids):
        t = type(f)
        if t is Neg or t is Dia:
            (s, names), = kids
            return self._id(("n", s) if t is Neg else ("d", f.action, s)), names
        if t is Or or t is App:
            (s1, n1), (s2, n2) = kids
            names, pos = _merge(n1, n2)
            return self._id(("o" if t is Or else "a", s1, s2, pos)), names
        if t is Var:
            return self._id(("v",)), (f.name,)
        if t is Prop:
            return self._id(("q", f.name)), ()
        if t is Lam or t is Mu:
            (s, names), = kids
            p, names = _unbind(names, f.var)
            key = ("l", f.variance, f.ty, s, p) if t is Lam else ("m", f.ty, s, p)
            return self._id(key), names
        # MuVec: the bodies' names merged in binding order, then each
        # binder's position in what is left, as it is dropped.
        names, key = (), ["V", f.index]
        for (_, ty, _), (s, n) in zip(f.bindings, kids):
            names, pos = _merge(names, n)
            key.append((ty, s, pos))
        for v, _, _ in f.bindings:
            p, names = _unbind(names, v)
            key.append(p)
        return self._id(tuple(key)), names


def _merge(n1: tuple, n2: tuple):
    """The names of `n1` followed by those new in `n2`, and the position
    there of each of n2's names; None when either is empty or both are
    equal, which the shapes' name counts tell apart."""
    if n2 == n1 or not n2:
        return n1, None
    if not n1:
        return n2, None
    names = n1 + tuple(x for x in n2 if x not in n1)
    return names, tuple(map(names.index, n2))


def _unbind(names: tuple, var: str):
    """(the position of `var` in `names` or -1, the names without it)"""
    if var not in names:
        return -1, names
    p = names.index(var)
    return p, names[:p] + names[p + 1:]


# ---------------------------------------------------------------------------
# Fischer-Ladner closure and measures


def fl_closure(phi: Formula):
    """The closure set, as representative formulas (alpha-deduplicated)."""
    return set(_closure_reps(phi))


def _closure_reps(phi: Formula) -> list:
    """One representative per alpha-class of the closure of
    `desugar_vec(phi)`, the root's first.

    The walk visits each (node, negated) pair once, by identity; a
    positive `Neg(h)` is the pair (h, True).  A pair moves on as a game
    configuration does, at its own polarity, but to an application's
    argument at both; `!!x` goes to x, a negated `mu X. b` to the negated
    `b[X := !X]`, and a negated variable or proposition to the positive
    one.  `seen` keeps every node visited, so no id is reused.  Classes
    are keyed by (canonical id, negated), which partitions as the negated
    formulas' ids would, with no structural hashing of a shared DAG.
    """
    interner = Interner()
    reps: dict = {}  # (canonical id, negated) -> representative
    seen: dict = {}  # (id(node), negated) -> node
    work = []

    def visit(f: Formula, negated: bool):
        if type(f) is Neg and not negated:
            f, negated = f.body, True
        if (id(f), negated) not in seen:
            seen[id(f), negated] = f
            work.append((f, negated))

    visit(desugar_vec(phi), False)
    while work:
        f, negated = work.pop()
        key = (interner.canon(f), negated)
        if key not in reps:
            reps[key] = Neg(f) if negated else f
        t = type(f)
        if t is Or:
            visit(f.left, negated)
            visit(f.right, negated)
        elif t is Dia or t is Lam:
            visit(f.body, negated)
        elif t is App:
            visit(f.func, negated)
            visit(f.arg, False)
            visit(f.arg, True)
        elif t is Neg:  # only ever negated: !!x
            visit(f.body, False)
        elif t is Mu:
            visit(substitute(f.body, f.var, Neg(Var(f.var))) if negated
                  else f.body, negated)
        elif negated:  # a variable or proposition
            visit(f, False)
    return list(reps.values())


def measures(phi: Formula):
    """(closure size, number of distinct lambda-bound variable names).
    The names are those of the lambdas the closure walk meets, at either
    polarity: the lambdas of its root, `closure[0]`, and their copies in
    a negated mu's substituted body, which bind the same names."""
    closure = _closure_reps(phi)
    return len(closure), len(lambda_binder_names(closure[0]))


# ---------------------------------------------------------------------------
# Vector fixpoints


def desugar_vec(phi: Formula) -> Formula:
    """Remove every MuVec node via the parametrised nested-fixpoint form;
    a formula with none is returned as it is, after one scan."""
    if not any(isinstance(f, MuVec) for f in iter_nodes(phi)):
        return phi

    def step(f: Formula, kids) -> Formula:
        if isinstance(f, MuVec):
            bindings = [(v, t, k) for (v, t, _), k in zip(f.bindings, kids)]
            return _bekic(bindings, f.index - 1)
        return rebuild(f, kids)

    return fold(phi, step)


def _bekic(bindings, index0):
    if len(bindings) == 1:
        v, t, b = bindings[0]
        return Mu(v, t, b)
    xn, tn, bn = bindings[-1]
    last_open = Mu(xn, tn, bn)
    reduced = [(v, t, substitute(b, xn, last_open)) for v, t, b in bindings[:-1]]
    if index0 < len(bindings) - 1:
        return _bekic(reduced, index0)
    body = bn
    for j, (v, _, _) in enumerate(bindings[:-1]):
        body = substitute(body, v, _bekic(reduced, j))
    return Mu(xn, tn, body)
