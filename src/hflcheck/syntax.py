"""Core formula syntax: AST, derived forms, substitution, closure, measures.

Formulas are immutable trees built from nine constructors.  Every node
carries its free variable names, computed once at construction from its
children's sets.  Substitution shares untouched subtrees, so formulas
produced by unfolding are DAGs in memory; every traversal here memoizes on
object identity to stay linear in the number of distinct nodes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field


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

    Sugar over nested Mu: `desugar_vec` removes every MuVec node.
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


def tree_size(phi: Formula, _memo=None) -> int:
    """Syntactic length: node count of the fully unfolded tree (big int)."""
    memo = _memo if _memo is not None else {}
    got = memo.get(id(phi))
    if got is not None:
        return got
    out = 1 + sum(tree_size(c, memo) for c in children(phi))
    memo[id(phi)] = out
    return out


def lambda_binder_names(phi: Formula) -> frozenset:
    return frozenset(f.var for f in iter_nodes(phi) if isinstance(f, Lam))


def contains_muvec(phi: Formula) -> bool:
    return any(isinstance(f, MuVec) for f in iter_nodes(phi))


# ---------------------------------------------------------------------------
# Substitution

_fresh_counter = itertools.count(1)


def fresh_name(base: str, avoid) -> str:
    """A grammar-legal name not in `avoid`, derived from `base`.

    The global counter is the one mutable facility here; advancing it is
    atomic under CPython, so concurrent checks stay race-free.
    """
    stem = base.rstrip("0123456789") or base
    while True:
        cand = f"{stem}{next(_fresh_counter)}"
        if cand not in avoid:
            return cand


def substitute(phi: Formula, name: str, repl: Formula) -> Formula:
    """Replace every free occurrence of `name` in `phi` by `repl`.

    Capture is avoided by renaming colliding binders of `phi` on demand.
    """
    fv_repl = free_vars(repl)
    # id(node) -> (node, result); holding the node keeps its id from being
    # reused by a node built later in this call, such as a renamed body.
    memo: dict = {}

    def go(f: Formula) -> Formula:
        if name not in free_vars(f):
            return f
        got = memo.get(id(f))
        if got is not None:
            return got[1]
        if isinstance(f, Var):
            out = repl
        elif isinstance(f, Neg):
            out = Neg(go(f.body))
        elif isinstance(f, Or):
            out = Or(go(f.left), go(f.right))
        elif isinstance(f, Dia):
            out = Dia(f.action, go(f.body))
        elif isinstance(f, App):
            out = App(go(f.func), go(f.arg))
        elif isinstance(f, Lam):
            body, var = f.body, f.var
            if var in fv_repl:
                var = fresh_name(var, fv_repl | free_vars(body) | {name})
                body = substitute(body, f.var, Var(var))
            out = Lam(var, f.variance, f.ty, go(body))
        elif isinstance(f, Mu):
            body, var = f.body, f.var
            if var in fv_repl:
                var = fresh_name(var, fv_repl | free_vars(body) | {name})
                body = substitute(body, f.var, Var(var))
            out = Mu(var, f.ty, go(body))
        elif isinstance(f, MuVec):
            bindings = list(f.bindings)
            for i, (v, t, b) in enumerate(bindings):
                if v in fv_repl:
                    avoid = set(fv_repl) | {name}
                    for _, _, bb in bindings:
                        avoid |= free_vars(bb)
                    v2 = fresh_name(v, avoid)
                    bindings = [
                        (w if w != v else v2, tw, substitute(bw, v, Var(v2)))
                        for w, tw, bw in bindings
                    ]
            out = MuVec(
                f.index, tuple((v, t, go(b)) for v, t, b in bindings)
            )
        else:
            raise TypeError(f"not a formula: {f!r}")
        memo[id(f)] = (f, out)
        return out

    return go(phi)


# ---------------------------------------------------------------------------
# Alpha-normal interning
#
# Canonical integer ids for formulas modulo bound-variable names: bound
# occurrences are keyed by binder distance, free ones by name.  Identity of
# canon ids is alpha-equality.


class Interner:
    def __init__(self):
        self._table: dict = {}
        # (id(node), binder signature) -> (node, canon id); holding the
        # node keeps its id from being reused while the interner lives.
        self._memo: dict = {}

    def canon(self, phi: Formula) -> int:
        return self._go(phi, {}, 0)

    def _go(self, f: Formula, benv: dict, depth: int) -> int:
        fvs = free_vars(f)
        sig = tuple(sorted((x, depth - benv[x]) for x in fvs if x in benv))
        mkey = (id(f), sig)
        got = self._memo.get(mkey)
        if got is not None:
            return got[1]
        if isinstance(f, Prop):
            key = ("q", f.name)
        elif isinstance(f, Var):
            if f.name in benv:
                key = ("b", depth - benv[f.name])
            else:
                key = ("v", f.name)
        elif isinstance(f, Neg):
            key = ("n", self._go(f.body, benv, depth))
        elif isinstance(f, Or):
            key = ("o", self._go(f.left, benv, depth), self._go(f.right, benv, depth))
        elif isinstance(f, Dia):
            key = ("d", f.action, self._go(f.body, benv, depth))
        elif isinstance(f, App):
            key = ("a", self._go(f.func, benv, depth), self._go(f.arg, benv, depth))
        elif isinstance(f, Lam):
            b2 = dict(benv)
            b2[f.var] = depth
            key = ("l", f.variance, f.ty, self._go(f.body, b2, depth + 1))
        elif isinstance(f, Mu):
            b2 = dict(benv)
            b2[f.var] = depth
            key = ("m", f.ty, self._go(f.body, b2, depth + 1))
        elif isinstance(f, MuVec):
            b2 = dict(benv)
            for i, (v, _, _) in enumerate(f.bindings):
                b2[v] = depth + i
            d2 = depth + len(f.bindings)
            key = (
                "V",
                f.index,
                tuple((t, self._go(b, b2, d2)) for _, t, b in f.bindings),
            )
        else:
            raise TypeError(f"not a formula: {f!r}")
        cid = self._table.get(key)
        if cid is None:
            cid = len(self._table)
            self._table[key] = cid
        self._memo[mkey] = (f, cid)
        return cid


def alpha_eq(a: Formula, b: Formula) -> bool:
    it = Interner()
    return it.canon(a) == it.canon(b)


# ---------------------------------------------------------------------------
# Fischer-Ladner closure and measures


def fl_closure(phi: Formula):
    """The closure set, as representative formulas (alpha-deduplicated)."""
    return set(_closure_reps(phi))


def _closure_reps(phi: Formula) -> list:
    """One representative per alpha-class of the closure.  Classes are
    told apart by canonical id, never by structural hashing, which walks
    the whole unfolded tree of a shared DAG."""
    if contains_muvec(phi):
        raise ValueError("fl_closure requires a vector-fixpoint-free formula")
    interner = Interner()
    reps: dict = {}
    work = []

    def add(f: Formula):
        cid = interner.canon(f)
        if cid not in reps:
            reps[cid] = f
            work.append(f)

    add(phi)
    while work:
        f = work.pop()
        if isinstance(f, Or):
            add(f.left)
            add(f.right)
        elif isinstance(f, Dia):
            add(f.body)
        elif isinstance(f, App):
            add(f.func)
            add(f.arg)
            add(Neg(f.arg))
        elif isinstance(f, (Lam, Mu)):
            add(f.body)
        elif isinstance(f, Neg):
            g = f.body
            if isinstance(g, Or):
                add(Neg(g.left))
                add(Neg(g.right))
            elif isinstance(g, Dia):
                add(Neg(g.body))
            elif isinstance(g, App):
                add(Neg(g.func))
                add(g.arg)
                add(Neg(g.arg))
            elif isinstance(g, Lam):
                add(Neg(g.body))
            elif isinstance(g, Mu):
                add(Neg(substitute(g.body, g.var, Neg(Var(g.var)))))
            elif isinstance(g, Neg):
                add(g.body)
            elif isinstance(g, (Var, Prop)):
                add(g)
    return list(reps.values())


def measures(phi: Formula):
    """(closure size, number of distinct lambda-bound variable names)."""
    closure = _closure_reps(phi)
    lam_vars = {f.var for f in closure if isinstance(f, Lam)}
    return len(closure), len(lam_vars)


# ---------------------------------------------------------------------------
# Vector fixpoints


def desugar_vec(phi: Formula) -> Formula:
    """Remove every MuVec node via the parametrised nested-fixpoint form."""
    memo: dict = {}

    def go(f: Formula) -> Formula:
        got = memo.get(id(f))
        if got is not None:
            return got
        if isinstance(f, (Prop, Var)):
            out = f
        elif isinstance(f, Neg):
            out = Neg(go(f.body))
        elif isinstance(f, Or):
            out = Or(go(f.left), go(f.right))
        elif isinstance(f, Dia):
            out = Dia(f.action, go(f.body))
        elif isinstance(f, App):
            out = App(go(f.func), go(f.arg))
        elif isinstance(f, Lam):
            out = Lam(f.var, f.variance, f.ty, go(f.body))
        elif isinstance(f, Mu):
            out = Mu(f.var, f.ty, go(f.body))
        elif isinstance(f, MuVec):
            bindings = [(v, t, go(b)) for v, t, b in f.bindings]
            out = _bekic(bindings, f.index - 1)
        else:
            raise TypeError(f"not a formula: {f!r}")
        memo[id(f)] = out
        return out

    return go(phi)


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
