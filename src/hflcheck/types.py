"""Types with variances, the typing judgment, and the quantitative bounds.

All binders in the formula grammar are annotated, so `typecheck` is a
checker that synthesizes types along application spines; there is no
unification.
The paper's bounds are exact big-integer computations guarded by a digit
budget; the lattices' own sizes, heights and widths are `denote`'s.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from . import syntax
from .errors import BoundBudgetError, TypeError_, VarianceError
from .syntax import App, Dia, Formula, Lam, Mu, MuVec, Neg, Or, Prop, Var


class Variance(enum.Enum):
    PLUS = "+"
    MINUS = "-"
    ZERO = "0"


@dataclass(frozen=True, slots=True)
class HflType:
    pass


@dataclass(frozen=True, slots=True)
class PrType(HflType):
    def __repr__(self):
        return "Pr"


@dataclass(frozen=True, slots=True)
class Arrow(HflType):
    arg: HflType
    variance: Variance
    result: HflType


PR = PrType()


def arrows(ty: HflType) -> list:
    """The arrows of `ty` viewed as t1 -> ... -> tm -> Pr."""
    out = []
    while isinstance(ty, Arrow):
        out.append(ty)
        ty = ty.result
    return out


def uncurry(ty: HflType) -> list:
    """Argument types of `ty` viewed as t1 -> ... -> tm -> Pr."""
    return [a.arg for a in arrows(ty)]


def ord_(ty: HflType) -> int:
    if isinstance(ty, PrType):
        return 0
    return max(1 + ord_(a) for a in uncurry(ty))


def mar(ty: HflType) -> int:
    if isinstance(ty, PrType):
        return 0
    args = uncurry(ty)
    return max([len(args)] + [mar(a) for a in args])


def chain_type(k: int) -> HflType:
    """The type tower t0 = Pr, t_{k+1} = t_k^0 -> Pr used for big counters."""
    ty: HflType = PR
    for _ in range(k):
        ty = Arrow(ty, Variance.ZERO, PR)
    return ty


def format_type(ty: HflType) -> str:
    if isinstance(ty, PrType):
        return "Pr"
    arg = format_type(ty.arg)
    if isinstance(ty.arg, Arrow):
        arg = f"({arg})"
    return f"{arg}^{ty.variance.value} -> {format_type(ty.result)}"


# ---------------------------------------------------------------------------
# The typing judgment


def typecheck(phi: Formula, types_out: dict | None = None) -> HflType:
    """Type of the closed formula `phi` per the nine inference rules.

    When `types_out` is given, it is filled with id(node) -> type for every
    subformula (used by game construction).  A node object shared under two
    different typings has no single entry there, so it is refused with
    TypeError_.

    Negation flips a polarity bit instead of complementing the context:
    `Neg` and the complement pass of a `-` or `0` application type their
    operand at the other polarity.  A binding entered at odd polarity
    stores its variance complemented, so a variable's effective variance
    is the stored one, complemented iff the bit is set.  Each (effective
    variance, type) pair gets a small int once per call, and a binding
    keeps the ints of its pair at either polarity, made when its binder is
    entered.

    Memoized on the node's identity and the ints of its free variables'
    bindings at the current polarity, which keeps shared unfolded formulas
    cheap to check; a closed node is keyed by its identity alone, at either
    polarity.  No type or variance is hashed per node.
    """
    numbers: dict = {}  # type -> int of (+, type); (-, type), (0, type) follow
    pairs: list = []  # int -> (effective variance, type)

    def binding(v: Variance, ty: HflType, neg: bool) -> tuple:
        """The ints, at polarity 0 and 1, of a binder of variance v entered
        at polarity neg."""
        plus = numbers.get(ty)
        if plus is None:
            plus = numbers[ty] = len(pairs)
            pairs.extend((w, ty) for w in Variance)
        if v is Variance.ZERO:
            return (plus + 2, plus + 2)
        here = plus + (v is Variance.MINUS)
        there = plus + (v is Variance.PLUS)
        return (there, here) if neg else (here, there)

    scope: dict = {}  # name -> the ints of its innermost binding
    unbound = (None, None)  # a name's entry outside its binders
    memo: dict = {}

    def go(f: Formula, neg: bool) -> HflType:
        # The memo check and the rules share one function, so each level
        # of nesting takes one Python frame.
        try:
            fv = f.fv
        except AttributeError:
            syntax.free_vars(f)  # raises TypeError for a non-formula
            raise
        if fv:
            # a node's fv set iterates in one order, so ints alone suffice
            key = (id(f), *[scope.get(x, unbound)[neg] for x in fv])
        else:
            key = id(f)
        got = memo.get(key)
        if got is not None:
            return got
        if isinstance(f, Prop):
            ty = PR
        elif isinstance(f, Var):
            b = scope.get(f.name, unbound)
            if b is unbound:
                raise TypeError_(f"unbound variable {f.name}", f)
            v, ty = pairs[b[neg]]
            if v is Variance.MINUS:
                raise VarianceError(
                    f"variable {f.name} used at negative variance", f
                )
        elif isinstance(f, Neg):
            ty = go(f.body, not neg)
        elif isinstance(f, Or):
            for side in (f.left, f.right):
                if not isinstance(go(side, neg), PrType):
                    raise TypeError_("disjunction over a non-ground operand", f)
            ty = PR
        elif isinstance(f, Dia):
            if not isinstance(go(f.body, neg), PrType):
                raise TypeError_("modality over a non-ground operand", f)
            ty = PR
        elif isinstance(f, Lam):
            outer = scope.get(f.var, unbound)
            scope[f.var] = binding(f.variance, f.ty, neg)
            body_ty = go(f.body, neg)
            scope[f.var] = outer
            ty = Arrow(f.ty, f.variance, body_ty)
        elif isinstance(f, App):
            fun_ty = go(f.func, neg)
            if not isinstance(fun_ty, Arrow):
                raise TypeError_("application of a non-function", f)
            v = fun_ty.variance
            if v is not Variance.MINUS:
                got = go(f.arg, neg)
                if got != fun_ty.arg:
                    raise TypeError_(
                        f"argument type {format_type(got)} differs from "
                        f"expected {format_type(fun_ty.arg)}", f
                    )
            if v is not Variance.PLUS:
                got = go(f.arg, not neg)
                if got != fun_ty.arg:
                    raise TypeError_(
                        f"argument type {format_type(got)} differs from "
                        f"expected {format_type(fun_ty.arg)} (complement pass)", f
                    )
            ty = fun_ty.result
        elif isinstance(f, Mu):
            outer = scope.get(f.var, unbound)
            scope[f.var] = binding(Variance.PLUS, f.ty, neg)
            body_ty = go(f.body, neg)
            scope[f.var] = outer
            if body_ty != f.ty:
                raise TypeError_(
                    f"fixpoint body has type {format_type(body_ty)}, "
                    f"declared {format_type(f.ty)}", f
                )
            ty = f.ty
        elif isinstance(f, MuVec):
            outer = [(v, scope.get(v, unbound)) for v, _, _ in f.bindings]
            for v, t, _ in f.bindings:
                scope[v] = binding(Variance.PLUS, t, neg)
            for v, t, b in f.bindings:
                body_ty = go(b, neg)
                if body_ty != t:
                    raise TypeError_(
                        f"component {v} has type {format_type(body_ty)}, "
                        f"declared {format_type(t)}", f
                    )
            scope.update(outer)
            ty = f.bindings[f.index - 1][1]
        else:
            raise TypeError_(f"not a formula: {f!r}", f)
        memo[key] = ty
        if types_out is not None:
            if types_out.setdefault(id(f), ty) != ty:
                raise TypeError_(
                    "shared subformula has types "
                    f"{format_type(types_out[id(f)])} and {format_type(ty)}", f
                )
        return ty

    return go(phi, False)


def fragment(types: dict):
    """(order, maximal arity) over every type in a derivation, given the
    table that `typecheck` filled with `types_out`.

    The table covers every binder annotation: a `Lam`'s entry is an arrow
    from its annotation, a `Mu`'s entry is its annotation, and each `MuVec`
    component body is typed to its declared type."""
    seen = set(types.values())
    return max(map(ord_, seen)), max(map(mar, seen))


# ---------------------------------------------------------------------------
# Quantitative bounds (exact big integers, digit-budgeted)

# A bound whose computation would pass this many bits (about a million
# decimal digits) is refused with BoundBudgetError.
BIT_BUDGET = int(10**6 * 3.33) + 16


def tower(n: int, k: int) -> int:
    """tower(n,0) = n, tower(n,k+1) = 2^tower(n,k)."""
    if n < 0 or k < 0:
        raise ValueError("tower arguments must be nonnegative")
    val = n
    for i in range(k):
        if val > BIT_BUDGET:
            raise BoundBudgetError(f"tower({n},{k}) [stopped at height {i}]")
        val = 2**val
    return val


def big_f(k: int, p: int) -> int:
    """F_0(p) = 2^p, F_{k+1}(p) = 2^(p * F_k(p)): chain-lattice cardinalities."""
    if k < 0 or p < 0:
        raise ValueError("F arguments must be nonnegative")
    if p > BIT_BUDGET:
        raise BoundBudgetError(f"F({k},{p})")
    val = 2**p
    for i in range(k):
        if p * val > BIT_BUDGET:
            raise BoundBudgetError(f"F({k},{p}) [stopped at level {i}]")
        val = 2 ** (p * val)
    return val


def lattice_size_bound(ty: HflType, n: int) -> int:
    """Upper bound on the lattice cardinality of `ty` over n states."""
    if n < 1:
        raise ValueError("need at least one state")
    k, m = ord_(ty), mar(ty)
    return tower(n * (m + k) ** k, k + 1)


def type_count_bound(k: int, m: int) -> int:
    """Upper bound on the number of types of order <= k, arity <= m."""
    if k < 1 or m < 1:
        raise ValueError("defined for k, m >= 1")
    return m ** (k * m ** (k - 1))


def height_bound(ty: HflType, n: int) -> int:
    """Upper bound on the height of the monotone lattice of `ty`."""
    k, m = ord_(ty), mar(ty)
    if k == 0:
        return n + 1
    return (n + 1) * tower(n * (m + k - 1) ** (k - 1), k) ** m
