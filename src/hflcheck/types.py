"""Types with variances, the typing judgment, and the quantitative bounds.

All binders in the formula grammar are annotated, so `infer` is a checker
that synthesizes types along application spines; there is no unification.
Bounds are exact big-integer computations guarded by a digit budget.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

from . import syntax
from .errors import BoundBudgetError, TypeError_, VarianceError
from .syntax import App, Dia, Formula, Lam, Mu, MuVec, Neg, Or, Prop, Var


class Variance(enum.Enum):
    PLUS = "+"
    MINUS = "-"
    ZERO = "0"

    def complement(self) -> "Variance":
        if self is Variance.PLUS:
            return Variance.MINUS
        if self is Variance.MINUS:
            return Variance.PLUS
        return Variance.ZERO


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


def uncurry(ty: HflType):
    """Argument types of `ty` viewed as t1 -> ... -> tm -> Pr."""
    args = []
    while isinstance(ty, Arrow):
        args.append(ty.arg)
        ty = ty.result
    return args


def ord_(ty: HflType) -> int:
    if isinstance(ty, PrType):
        return 0
    return max(1 + ord_(a) for a in uncurry(ty))


def mar(ty: HflType) -> int:
    if isinstance(ty, PrType):
        return 0
    args = uncurry(ty)
    return max([len(args)] + [mar(a) for a in args])


def chain_type(k: int, variance: Variance = Variance.ZERO) -> HflType:
    """The type tower t0 = Pr, t_{k+1} = t_k -> Pr used for big counters."""
    ty: HflType = PR
    for _ in range(k):
        ty = Arrow(ty, variance, PR)
    return ty


def format_type(ty: HflType) -> str:
    if isinstance(ty, PrType):
        return "Pr"
    arg = format_type(ty.arg)
    if isinstance(ty.arg, Arrow):
        arg = f"({arg})"
    return f"{arg}^{ty.variance.value} -> {format_type(ty.result)}"


# ---------------------------------------------------------------------------
# Contexts and the typing judgment


class Context:
    """Immutable map from variable name to (variance, type)."""

    __slots__ = ("_entries",)

    def __init__(self, entries=None):
        self._entries = dict(entries or {})

    def lookup(self, name):
        return self._entries.get(name)

    def extend(self, name, variance, ty) -> "Context":
        e = dict(self._entries)
        e[name] = (variance, ty)
        return Context(e)

    def complement(self) -> "Context":
        return Context(
            {x: (v.complement(), t) for x, (v, t) in self._entries.items()}
        )

    def items(self):
        return self._entries.items()

    def __contains__(self, name):
        return name in self._entries

    def __len__(self):
        return len(self._entries)


EMPTY_CONTEXT = Context()


def infer(ctx: Context, phi: Formula, types_out: dict | None = None) -> HflType:
    """Type of `phi` under `ctx` per the nine inference rules.

    When `types_out` is given, it is filled with id(node) -> type for every
    subformula (used by game construction).  Memoized on (node identity,
    context restricted to the node's free variables), which keeps shared
    unfolded formulas cheap to check.
    """
    memo: dict = {}
    collected = types_out if types_out is not None else None

    def ctx_key(ctx: Context, f: Formula):
        fvs = syntax.free_vars(f)
        entries = [(x, v, t) for x, (v, t) in ctx.items() if x in fvs]
        return tuple(sorted(entries, key=_ctx_sort_key))

    def go(ctx: Context, f: Formula) -> HflType:
        key = (id(f), ctx_key(ctx, f))
        got = memo.get(key)
        if got is not None:
            return got
        ty = rule(ctx, f)
        memo[key] = ty
        if collected is not None:
            collected[id(f)] = ty
        return ty

    def rule(ctx: Context, f: Formula) -> HflType:
        if isinstance(f, Prop):
            return PR
        if isinstance(f, Var):
            ent = ctx.lookup(f.name)
            if ent is None:
                raise TypeError_(f"unbound variable {f.name}", f)
            v, ty = ent
            if v is Variance.MINUS:
                raise VarianceError(
                    f"variable {f.name} used at negative variance", f
                )
            return ty
        if isinstance(f, Neg):
            return go(ctx.complement(), f.body)
        if isinstance(f, Or):
            for side in (f.left, f.right):
                if not isinstance(go(ctx, side), PrType):
                    raise TypeError_("disjunction over a non-ground operand", f)
            return PR
        if isinstance(f, Dia):
            if not isinstance(go(ctx, f.body), PrType):
                raise TypeError_("modality over a non-ground operand", f)
            return PR
        if isinstance(f, Lam):
            body_ty = go(ctx.extend(f.var, f.variance, f.ty), f.body)
            return Arrow(f.ty, f.variance, body_ty)
        if isinstance(f, App):
            fun_ty = go(ctx, f.func)
            if not isinstance(fun_ty, Arrow):
                raise TypeError_("application of a non-function", f)
            v = fun_ty.variance
            if v in (Variance.PLUS, Variance.ZERO):
                got = go(ctx, f.arg)
                if got != fun_ty.arg:
                    raise TypeError_(
                        f"argument type {format_type(got)} differs from "
                        f"expected {format_type(fun_ty.arg)}", f
                    )
            if v in (Variance.MINUS, Variance.ZERO):
                got = go(ctx.complement(), f.arg)
                if got != fun_ty.arg:
                    raise TypeError_(
                        f"argument type {format_type(got)} differs from "
                        f"expected {format_type(fun_ty.arg)} (complement pass)", f
                    )
            return fun_ty.result
        if isinstance(f, Mu):
            body_ty = go(ctx.extend(f.var, Variance.PLUS, f.ty), f.body)
            if body_ty != f.ty:
                raise TypeError_(
                    f"fixpoint body has type {format_type(body_ty)}, "
                    f"declared {format_type(f.ty)}", f
                )
            return f.ty
        if isinstance(f, MuVec):
            ctx2 = ctx
            for v, t, _ in f.bindings:
                ctx2 = ctx2.extend(v, Variance.PLUS, t)
            for v, t, b in f.bindings:
                body_ty = go(ctx2, b)
                if body_ty != t:
                    raise TypeError_(
                        f"component {v} has type {format_type(body_ty)}, "
                        f"declared {format_type(t)}", f
                    )
            return f.bindings[f.index - 1][1]
        raise TypeError_(f"not a formula: {f!r}", f)

    return go(ctx, phi)


def _ctx_sort_key(item):
    name, variance, ty = item
    return (name, variance.value, repr(ty))


def typecheck(phi: Formula, ctx: Context = EMPTY_CONTEXT) -> HflType:
    return infer(ctx, phi)


def fragment(phi: Formula):
    """(order, maximal arity) over every type in the annotated derivation."""
    types: dict = {}
    top = infer(EMPTY_CONTEXT, phi, types_out=types)
    seen = list(types.values()) + [top]
    for f in syntax.iter_nodes(phi):
        if isinstance(f, (Lam, Mu)):
            seen.append(f.ty)
        elif isinstance(f, MuVec):
            seen.extend(t for _, t, _ in f.bindings)
    k = max(ord_(t) for t in seen)
    m = max(mar(t) for t in seen)
    return k, m


# ---------------------------------------------------------------------------
# Quantitative bounds (exact big integers, digit-budgeted)

DEFAULT_DIGIT_BUDGET = 10**6


def _bits_budget(digit_budget: int) -> int:
    return int(digit_budget * 3.33) + 16


def tower(n: int, k: int, digit_budget: int = DEFAULT_DIGIT_BUDGET) -> int:
    """tower(n,0) = n, tower(n,k+1) = 2^tower(n,k)."""
    if n < 0 or k < 0:
        raise ValueError("tower arguments must be nonnegative")
    limit = _bits_budget(digit_budget)
    val = n
    for i in range(k):
        if val > limit:
            raise BoundBudgetError(f"tower({n},{k}) [stopped at height {i}]")
        val = 2**val
    return val


def big_f(k: int, p: int, digit_budget: int = DEFAULT_DIGIT_BUDGET) -> int:
    """F_0(p) = 2^p, F_{k+1}(p) = 2^(p * F_k(p)): chain-lattice cardinalities."""
    if k < 0 or p < 0:
        raise ValueError("F arguments must be nonnegative")
    limit = _bits_budget(digit_budget)
    if p > limit:
        raise BoundBudgetError(f"F({k},{p})")
    val = 2**p
    for i in range(k):
        if p * val > limit:
            raise BoundBudgetError(f"F({k},{p}) [stopped at level {i}]")
        val = 2 ** (p * val)
    return val


def lattice_size_bound(ty: HflType, n: int,
                       digit_budget: int = DEFAULT_DIGIT_BUDGET) -> int:
    """Upper bound on the lattice cardinality of `ty` over n states."""
    if n < 1:
        raise ValueError("need at least one state")
    k, m = ord_(ty), mar(ty)
    return tower(n * (m + k) ** k, k + 1, digit_budget)


def lattice_size_bound_at_least(ty: HflType, n: int, floor: int) -> bool:
    """Decide floor <= the size bound without materializing the tower.

    Towers only grow upward, so once a partial tower passes the floor the
    comparison is settled; this stays exact for bounds far over any digit
    budget.
    """
    if n < 1:
        raise ValueError("need at least one state")
    k, m = ord_(ty), mar(ty)
    val = n * (m + k) ** k
    for _ in range(k + 1):
        if val >= floor.bit_length() + 1:
            return True
        val = 2**val
    return val >= floor


def type_count_bound(k: int, m: int) -> int:
    """Upper bound on the number of types of order <= k, arity <= m."""
    if k < 1 or m < 1:
        raise ValueError("defined for k, m >= 1")
    return m ** (k * m ** (k - 1))


def height_bound(ty: HflType, n: int,
                 digit_budget: int = DEFAULT_DIGIT_BUDGET) -> int:
    """Upper bound on the height of the monotone lattice of `ty`."""
    k, m = ord_(ty), mar(ty)
    if k == 0:
        return n + 1
    return (n + 1) * tower(n * (m + k - 1) ** (k - 1), k, digit_budget) ** m


@functools.lru_cache(maxsize=1024)
def full_space_cardinality(ty: HflType, n: int,
                           digit_budget: int = DEFAULT_DIGIT_BUDGET) -> int:
    """Exact size of the full (all-tables) function space over n states.

    Memoized: enumeration and indexing ask for the same few types over and
    over.  A refusal raises and so is never cached."""
    limit = _bits_budget(digit_budget)

    def go(t: HflType) -> int:
        if isinstance(t, PrType):
            return 2**n
        dom = go(t.arg)
        cod = go(t.result)
        if dom * cod.bit_length() > limit:
            raise BoundBudgetError(f"|{format_type(t)}| over {n} states")
        return cod**dom

    return go(ty)


def full_space_height(ty: HflType, n: int,
                      digit_budget: int = DEFAULT_DIGIT_BUDGET) -> int:
    """Exact height of the full function space: 1 + n * prod |arg_i|."""
    atoms = n
    for a in uncurry(ty):
        atoms *= full_space_cardinality(a, n, digit_budget)
    return 1 + atoms
