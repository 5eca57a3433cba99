"""Independent reference implementations the test suite checks against,
and the small helpers that only the tests use.

The oracles deliberately avoid the package's evaluator machinery: plain
frozensets, explicit iteration, direct graph walks.
"""

from __future__ import annotations

from dataclasses import replace
from typing import NamedTuple

from hflcheck.denote import Func, Ground, cardinality, element_at, leq, pack
from hflcheck.encodings import counter_formula
from hflcheck.errors import BoundBudgetError, InternalError, TypeError_, VarianceError
from hflcheck.games import EXISTS, FORALL, WIN_A, WIN_E
from hflcheck.syntax import (
    App,
    Dia,
    Interner,
    Lam,
    Mu,
    MuVec,
    Neg,
    Or,
    Prop,
    Var,
    and_,
    and_all,
    apply_all,
    fold,
    free_vars,
    or_all,
    rebuild,
)
from hflcheck.types import (
    BIT_BUDGET,
    PR,
    Arrow,
    PrType,
    Variance,
    big_f,
    chain_type,
    format_type,
    fragment,
    mar,
    ord_,
    typecheck,
)


def mu_check(lts, formula, env=None) -> frozenset:
    """Brute-force modal fixpoint logic evaluator (no lambdas, no tables).

    Fixpoints iterate from the empty set until stable.  Only the ground
    fragment is supported; anything else is a test bug.
    """
    env = env or {}
    states = frozenset(range(lts.n))
    if isinstance(formula, Prop):
        return frozenset(s for s in states if formula.name in lts.labels[s])
    if isinstance(formula, Var):
        return env[formula.name]
    if isinstance(formula, Neg):
        return states - mu_check(lts, formula.body, env)
    if isinstance(formula, Or):
        return mu_check(lts, formula.left, env) | mu_check(lts, formula.right, env)
    if isinstance(formula, Dia):
        body = mu_check(lts, formula.body, env)
        out = set()
        for s, t in lts.edges.get(formula.action, ()):
            if t in body:
                out.add(s)
        return frozenset(out)
    if isinstance(formula, Mu):
        current = frozenset()
        while True:
            env2 = dict(env)
            env2[formula.var] = current
            new = mu_check(lts, formula.body, env2)
            if new == current:
                return current
            current = new
    raise AssertionError(f"not a ground-fragment formula: {formula!r}")


def is_monotone(d, args) -> bool:
    """Whether the table `d` is monotone in the pointwise order of its
    argument lattice, whose elements `args` lists in canonical order."""
    m = len(args)
    for i in range(m):
        for j in range(m):
            if leq(args[i], args[j]) and not leq(d.table[i], d.table[j]):
                return False
    return True


def reference_cardinality(ty, n, budget=BIT_BUDGET) -> int:
    """The exact size of the full lattice of `ty` over n states, built as
    a big integer: |r| ** |a| at a -> r.  Refused (BoundBudgetError) where
    |a| times the bit length of |r| passes `budget`, argument first."""
    if isinstance(ty, PrType):
        return 2**n
    dom = reference_cardinality(ty.arg, n, budget)
    cod = reference_cardinality(ty.result, n, budget)
    if dom * cod.bit_length() > budget:
        raise BoundBudgetError(f"|{format_type(ty)}| over {n} states")
    return cod**dom


# Lattice elements as nested tuple tables: a state set is its bitmask and
# a function the tuple of its entries, argument index 0 first.  The
# canonical index reads a table as a base-|result| numeral whose most
# significant digit sits at the highest argument.


def tuple_element_at(ty, n, i):
    """The i-th element of the lattice of `ty` over n states."""
    if isinstance(ty, PrType):
        if not 0 <= i < 1 << n:
            raise IndexError(i)
        return i
    dom = reference_cardinality(ty.arg, n)
    cod = reference_cardinality(ty.result, n)
    if not 0 <= i < cod**dom:
        raise IndexError(i)
    digits = []
    for _ in range(dom):
        i, d = divmod(i, cod)
        digits.append(d)
    return tuple(tuple_element_at(ty.result, n, d) for d in digits)


def tuple_index_of(ty, n, t) -> int:
    """Inverse of tuple_element_at."""
    if isinstance(ty, PrType):
        return t
    cod = reference_cardinality(ty.result, n)
    i = 0
    for entry in reversed(t):
        i = i * cod + tuple_index_of(ty.result, n, entry)
    return i


def tuple_leq(t1, t2) -> bool:
    if isinstance(t1, int):
        return t1 & ~t2 == 0
    return all(map(tuple_leq, t1, t2))


def tuple_complement(t, n):
    if isinstance(t, int):
        return t ^ ((1 << n) - 1)
    return tuple(tuple_complement(e, n) for e in t)


def tuple_join(t1, t2):
    if isinstance(t1, int):
        return t1 | t2
    return tuple(map(tuple_join, t1, t2))


def as_tuple(d):
    """A denotation as a tuple table, read through `Func.table`."""
    if isinstance(d, Ground):
        return d.mask
    return tuple(as_tuple(e) for e in d.table)


def underflow_word(word) -> bool:
    """Membership in the grammar X -> out | in X X over {in, out}.

    Exactly the words with one more out than in whose proper prefixes are
    never out-heavy.
    """
    if not word:
        return False
    balance = 0
    for a in word[:-1]:
        balance += 1 if a == "in" else -1
        if balance < 0:
            return False
    return balance + (1 if word[-1] == "in" else -1) == -1


def buffer_oracle(word) -> bool:
    """Some nonempty prefix of the word is an underflow word."""
    return any(underflow_word(word[:i]) for i in range(1, len(word) + 1))


def bisim_word_oracle(lts, start: int) -> bool:
    """Single-action-per-layer characterization of word-likeness.

    Walks the sets of states reachable by paths of each exact length; the
    model counts as word-like when no layer enables two distinct actions.
    Layer sets over a finite system eventually repeat, which bounds the
    walk.
    """
    layer = frozenset([start])
    seen = set()
    while layer and layer not in seen:
        seen.add(layer)
        enabled = set()
        nxt = set()
        for a, es in lts.edges.items():
            for s, t in es:
                if s in layer:
                    enabled.add(a)
                    nxt.add(t)
        if len(enabled) > 1:
            return False
        layer = frozenset(nxt)
    return True


def reference_typecheck(phi, types_out: dict | None = None):
    """The typing judgment as `types.typecheck` states it, with whole
    contexts.

    A context is a dict from name to (variance, type), empty at the root.
    `Neg` and the complement pass of a `-` or `0` application type their
    operand under a complemented copy of it, and the memo key holds its
    (name, variance, type) entries for the node's free variables.  Same
    errors, in the same order, and the same `types_out` table as
    `types.typecheck`.
    """
    memo: dict = {}
    flip = {Variance.PLUS: Variance.MINUS, Variance.MINUS: Variance.PLUS,
            Variance.ZERO: Variance.ZERO}

    def complement(ctx: dict) -> dict:
        return {x: (flip[v], t) for x, (v, t) in ctx.items()}

    def ctx_key(ctx: dict, f):
        fvs = free_vars(f)
        entries = [(x, v, t) for x, (v, t) in ctx.items() if x in fvs]
        return tuple(sorted(entries))  # names are unique: compared alone

    def go(ctx: dict, f):
        key = (id(f), ctx_key(ctx, f))
        got = memo.get(key)
        if got is not None:
            return got
        if isinstance(f, Prop):
            ty = PR
        elif isinstance(f, Var):
            ent = ctx.get(f.name)
            if ent is None:
                raise TypeError_(f"unbound variable {f.name}", f)
            v, ty = ent
            if v is Variance.MINUS:
                raise VarianceError(
                    f"variable {f.name} used at negative variance", f
                )
        elif isinstance(f, Neg):
            ty = go(complement(ctx), f.body)
        elif isinstance(f, Or):
            for side in (f.left, f.right):
                if not isinstance(go(ctx, side), PrType):
                    raise TypeError_("disjunction over a non-ground operand", f)
            ty = PR
        elif isinstance(f, Dia):
            if not isinstance(go(ctx, f.body), PrType):
                raise TypeError_("modality over a non-ground operand", f)
            ty = PR
        elif isinstance(f, Lam):
            body_ty = go({**ctx, f.var: (f.variance, f.ty)}, f.body)
            ty = Arrow(f.ty, f.variance, body_ty)
        elif isinstance(f, App):
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
                got = go(complement(ctx), f.arg)
                if got != fun_ty.arg:
                    raise TypeError_(
                        f"argument type {format_type(got)} differs from "
                        f"expected {format_type(fun_ty.arg)} (complement pass)", f
                    )
            ty = fun_ty.result
        elif isinstance(f, Mu):
            body_ty = go({**ctx, f.var: (Variance.PLUS, f.ty)}, f.body)
            if body_ty != f.ty:
                raise TypeError_(
                    f"fixpoint body has type {format_type(body_ty)}, "
                    f"declared {format_type(f.ty)}", f
                )
            ty = f.ty
        elif isinstance(f, MuVec):
            ctx2 = {**ctx, **{v: (Variance.PLUS, t) for v, t, _ in f.bindings}}
            for v, t, b in f.bindings:
                body_ty = go(ctx2, b)
                if body_ty != t:
                    raise TypeError_(
                        f"component {v} has type {format_type(body_ty)}, "
                        f"declared {format_type(t)}", f
                    )
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

    return go({}, phi)


# ---------------------------------------------------------------------------
# Alpha-normal interning by recursion
#
# Canonical integer ids for formulas modulo bound-variable names: bound
# occurrences are keyed by binder distance, free ones by name.  Identity of
# canon ids is alpha-equality.  `syntax.Interner` gives the same partition
# with one `fold` step; this one takes a Python frame per level.


class ReferenceInterner:
    def __init__(self):
        self._table: dict = {}
        # (id(node), binder signature) -> (node, canon id); holding the
        # node keeps its id from being reused while the interner lives.
        self._memo: dict = {}

    def canon(self, phi) -> int:
        return self._go(phi, {}, 0)

    def _go(self, f, benv: dict, depth: int) -> int:
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


# ---------------------------------------------------------------------------
# Helpers only the tests use


def fragment_of(phi):
    """`types.fragment` of the closed formula phi's typing table."""
    table: dict = {}
    typecheck(phi, types_out=table)
    return fragment(table)


def empty(n: int) -> Ground:
    return Ground(n, 0)


def top(ty, n: int):
    return element_at(ty, n, cardinality(ty, n) - 1)


def join(d1, d2):
    return replace(d1, mask=d1.mask | d2.mask)


def alpha_eq(a, b) -> bool:
    it = Interner()
    return it.canon(a) == it.canon(b)


def lattice_size_bound_at_least(ty, n: int, floor: int) -> bool:
    """Decide floor <= `types.lattice_size_bound(ty, n)` without
    materializing the tower.

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


def encode_tape(cells, k: int, p: int) -> Func:
    """The denotation of a concrete tape: position h maps to S iff cell h."""
    ones = (1 << p) - 1
    masks = [ones if c else 0 for c in cells]
    if len(masks) != big_f(k, p):
        raise ValueError(
            f"a level-{k} tape over {p} states has {big_f(k, p)} cells")
    return Func(Arrow(chain_type(k), Variance.ZERO, PR), p, pack(masks, p), p)


def macro_case_literal(k: int, p: int, pairs, default):
    """The flat two-disjunct shape of `encodings.macro_case`.

    It deviates from macro_case's contract ("body of the matching guard,
    else default") when a matched body is false and the default is not.
    """
    pairs = tuple(pairs)
    if not pairs:
        raise ValueError("literal case needs at least one branch")
    eqk = counter_formula("eq", k, p)
    arg = Var("I")
    hits = or_all([
        and_(apply_all(eqk, arg, guard), body) for guard, body in pairs
    ])
    misses = and_all([
        Or(Neg(apply_all(eqk, arg, guard)), Neg(body)) for guard, body in pairs
    ])
    return Lam("I", Variance.ZERO, chain_type(k),
               Or(hits, and_(default, misses)))


def share_closed(phi):
    """`phi` with all structurally equal closed subformulas made one
    object.  Open subformulas are rebuilt but never merged: a shared open
    node could need two typings."""
    shared: dict = {}

    def step(f, kids):
        g = rebuild(f, kids)
        return g if g.fv else shared.setdefault(g, g)

    return fold(phi, step)


def topological_order(game):
    """The game's nodes in an order where every move goes forward (Kahn's
    algorithm); refused for a graph with a cycle."""
    indeg = [0] * game.node_count
    for succs in game.edges:
        for v in succs:
            indeg[v] += 1
    stack = [u for u in range(game.node_count) if indeg[u] == 0]
    order = []
    while stack:
        u = stack.pop()
        order.append(u)
        for v in game.edges[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                stack.append(v)
    if len(order) != game.node_count:
        raise InternalError("game graph has a cycle; plays must be finite")
    return order


class ReferenceSolution(NamedTuple):
    winner: str
    winners: list
    strategy: dict  # node -> chosen successor, total on the winner's nodes


def reference_solve(game) -> ReferenceSolution:
    """Backward induction along `topological_order` reversed, after a
    separate pass over the kinds, recording each winning move as it is
    found: the solver `games.solve` and the strategy its `Solution`
    derives are checked against it."""
    for u, k in enumerate(game.kinds):
        if k in (WIN_E, WIN_A):
            if game.edges[u]:
                raise InternalError("terminal node with outgoing edges")
        elif not game.edges[u]:
            raise InternalError("non-terminal node without moves")
    winners = [None] * game.node_count
    strategy_e: dict = {}
    strategy_a: dict = {}
    for u in reversed(topological_order(game)):
        k = game.kinds[u]
        if k == WIN_E:
            winners[u] = EXISTS
        elif k == WIN_A:
            winners[u] = FORALL
        elif k == EXISTS:
            winners[u] = FORALL
            for v in game.edges[u]:
                if winners[v] == EXISTS:
                    winners[u] = EXISTS
                    strategy_e[u] = v
                    break
        else:
            winners[u] = EXISTS
            for v in game.edges[u]:
                if winners[v] == FORALL:
                    winners[u] = FORALL
                    strategy_a[u] = v
                    break
    winner = winners[game.start]
    strategy = dict(strategy_e if winner == EXISTS else strategy_a)
    own_kind = EXISTS if winner == EXISTS else FORALL
    for u, k in enumerate(game.kinds):
        if k == own_kind and u not in strategy:
            strategy[u] = game.edges[u][0]
    return ReferenceSolution(winner, winners, strategy)
