"""Denotational evaluation, approximants, and fixpoint elimination.

Two engines share one evaluator, which compiles each formula node once
into a Python closure `run(env)` (Feeley & Lapalme, "Using closures for
code generation", 1987), so evaluation does no dispatch on node kinds.
Compilation is one `syntax.fold` over the formula, children first and
without recursion, with the evaluator's table of compiled nodes as its
`done` table, so each node object is compiled once per `Evaluator`.  A
closed application, lambda or fixpoint (one without free variables, as
the node itself records) keeps its value in its own closure cell, so it
is evaluated once per evaluator, not once per argument or iteration of an
enclosing lambda or fixpoint.  A proposition, and a negation, disjunction
or diamond over such constants only, is folded: it is evaluated when
compiled, and its closure returns that state set and carries it as its
`value`.  A negation over a disjunction or diamond compiles with it into
one closure, and a double negation is its operand's closure.  Fixpoint
elimination is another fold: it rebuilds the formula and replaces each mu
by its unfolding.

The `demand` engine keeps every lambda value as a closure that computes a
result when applied and, over a small domain, memoizes it by the
argument's canonical index.  It solves every least fixpoint locally with
`FixSolver` (chaotic iteration, justified by Knaster-Tarski over the
finite lattices).  The `tabulate` engine turns every lambda into a full
table and iterates whole lattice values from bottom.  Both only ever move
approximations upward; any descent is reported as an internal error,
never papered over.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import denote, syntax, types
from .denote import Denotation, Func, Ground, enumerate_lattice
from .errors import (
    BoundBudgetError,
    HflError,
    InternalError,
    IterationCapError,
    UnboundVariableError,
    UnfoldBudgetError,
    show_int,
)
from .lts import Lts
from .syntax import (
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
    ff,
    substitute,
)
from .types import Arrow, HflType, PrType, Variance, arrows, format_type


# The largest lambda domain over which a closure memoizes its results.
AUTO_TABLE_LIMIT = 4096

# One demand solver refuses (IterationCapError) once it has made more
# fixpoint body evaluations than this.
MAX_FIXPOINT_EVALS = 10**7


@dataclass
class EvalStats:
    fixpoint_iterations: int = 0
    memo_hits: int = 0


@dataclass
class EvalConfig:
    engine: str = "demand"  # or "tabulate"
    enum_limit: int = denote.DEFAULT_ENUM_LIMIT
    stats: EvalStats = field(init=False, default_factory=EvalStats)

    def __post_init__(self):
        if self.engine not in ("demand", "tabulate"):
            raise ValueError(f"unknown engine {self.engine!r}")


# ---------------------------------------------------------------------------
# Run-time values beyond plain denotations


class LamClosure:
    """A lambda's value: its node, its compiled body, its environment and,
    when its domain has at most AUTO_TABLE_LIMIT elements, a memo from an
    argument's canonical index to the result."""

    __slots__ = ("node", "body", "env", "memo")

    def __init__(self, node, body, env, memo):
        self.node = node
        self.body = body
        self.env = env
        self.memo = memo


class NegWrap:
    """Pointwise complement of a suspended function value."""

    __slots__ = ("inner",)

    def __init__(self, inner):
        self.inner = inner


class FixRef:
    """A fixpoint component, partially applied to reified arguments."""

    __slots__ = ("solver", "comp", "args", "total_arity")

    def __init__(self, solver, comp, args):
        self.solver = solver
        self.comp = comp
        self.args = args
        self.total_arity = solver.arities[comp]


class FixSolver:
    """Demand-driven least fixpoint of one simultaneous group of (name,
    type, compiled body) bindings: a local solver for a monotone system with
    dynamic dependencies (Le Charlier & Van Hentenryck, 1992; Fecht & Seidl,
    SCP 1999)."""

    def __init__(self, ev, bindings, env):
        self.ev = ev
        self.bindings = bindings
        self.arities = [len(arrows(ty)) for _, ty, _ in bindings]
        self.plus = [{i for i, arrow in enumerate(arrows(ty))
                      if arrow.variance is Variance.PLUS} for _, ty, _ in bindings]
        self.env = dict(env)
        for i, (name, _, _) in enumerate(bindings):
            self.env[name] = FixRef(self, i, ())
        self.memo: dict = {}
        self.deps: dict = {}
        self.dirty: dict = {}  # keys to re-evaluate, in insertion order
        self.current = None
        self.evals = 0  # body evaluations, checked against the cap

    def read(self, comp, args) -> Ground:
        """The join of the entries of `comp` whose arguments lie below
        `args` in the + positions and equal them in the others.

        Entries stay below the least fixpoint, which is monotone in the +
        positions, so the join stays below it at `args`; entries only rise,
        so reads only rise, even at an `args` computed from an in-flight
        approximation (the buffer walk's X (X Z)), where a plain lookup can
        fall to a fresh bottom entry.  Only + positions are joined: typing
        keeps a fixpoint's own variables out of ^0 and ^- argument
        positions, so no approximation moves a key there, and the least
        fixpoint need not be monotone in them.  A changed entry re-runs the
        readers of every key above it, even of a key stored after it."""
        key = (comp, args)
        if key not in self.memo:
            self.memo[key] = self.ev._ground(0)
            self.deps[key] = set()
            self.dirty[key] = None
        else:
            self.ev.cfg.stats.memo_hits += 1
        if self.current is None:
            self._run()
        else:
            self.deps[key].add(self.current)
        plus = self.plus[comp]
        if not plus:
            return self.memo[key]
        mask = 0
        for k, v in self.memo.items():
            if k[0] == comp and _below(k[1], args, plus):
                mask |= v.mask
        return self.ev._ground(mask)

    def _run(self):
        stats = self.ev.cfg.stats
        while self.dirty:
            key, _ = self.dirty.popitem()
            stats.fixpoint_iterations += 1
            self.evals += 1
            if self.evals > MAX_FIXPOINT_EVALS:
                raise IterationCapError(
                    f"over {MAX_FIXPOINT_EVALS} fixpoint body evaluations; "
                    "likely non-convergence"
                )
            self.current = key
            try:
                comp, args = key
                val = self.bindings[comp][2](self.env)
                for a in args:
                    val = self.ev.apply_value(val, a)
            finally:
                self.current = None
            old = self.memo[key]
            if val.mask != old.mask:
                if old.mask & ~val.mask:
                    raise InternalError(
                        "fixpoint approximation moved down the order"
                    )
                self.memo[key] = val
                plus = self.plus[comp]
                for k in self.deps if plus else (key,):
                    if k[0] == comp and _below(args, k[1], plus):
                        for d in self.deps[k]:
                            self.dirty[d] = None


# ---------------------------------------------------------------------------
# The evaluator


class Evaluator:
    """Evaluates well-typed formulas over one transition system."""

    def __init__(self, lts: Lts, cfg: EvalConfig | None = None):
        self.lts = lts
        self.n = lts.n
        self._full_mask = (1 << lts.n) - 1
        self.cfg = cfg or EvalConfig()
        self._prop_masks: dict = {}
        self._pred_masks: dict = {}
        for a, es in lts.edges.items():
            by_target = [0] * lts.n
            for s, t in es:
                by_target[t] |= 1 << s
            self._pred_masks[a] = by_target
        # id(node) -> (node, compiled closure), the `done` table of
        # `syntax.fold`; holding the node keeps its id from being reused, so
        # an id found here is the node itself.
        self._compiled: dict = {}
        self._grounds: dict = {}  # mask -> the one Ground with that mask
        self._enums: dict = {}  # type -> tuple of its elements

    # -- helpers

    def prop_mask(self, name: str) -> int:
        m = self._prop_masks.get(name)
        if m is None:
            m = 0
            for s in range(self.n):
                if name in self.lts.labels[s]:
                    m |= 1 << s
            self._prop_masks[name] = m
        return m

    def _ground(self, mask: int) -> Ground:
        """The evaluator's one Ground for `mask`."""
        g = self._grounds.get(mask)
        if g is None:
            g = self._grounds[mask] = Ground(self.n, mask)
        return g

    def enum(self, ty: HflType) -> tuple:
        """The elements of the lattice of `ty` in canonical order,
        enumerated on the first call for each type."""
        got = self._enums.get(ty)
        if got is None:
            got = enumerate_lattice(ty, self.n, self.cfg.enum_limit)
            self._enums[ty] = got
        return got

    # -- value operations

    def apply_value(self, f, a):
        kind = type(f)
        if kind is Func or kind is LamClosure and f.memo is not None:
            # Applied by the argument's index.  A closure's body gets the
            # denotation, so a kept result cannot depend on later reads
            # through a suspended argument.
            if type(a) is not Ground:
                a = self.reify_value(a)
            if kind is Func:
                m = denote.entry_index(f.mask, a.mask, f.width)
                r = f.ty.result
                if type(r) is PrType:
                    return self._grounds.get(m) or self._ground(m)
                return Func(r, self.n, m, denote.bits(r.result, self.n))
            got = f.memo.get(a.mask)
            if got is None:
                got = f.memo[a.mask] = f.body({**f.env, f.node.var: a})
            return got
        if kind is LamClosure:
            return f.body({**f.env, f.node.var: a})
        if kind is NegWrap:
            return self.complement_value(self.apply_value(f.inner, a))
        if kind is FixRef:
            args2 = f.args + (self.reify_value(a),)
            if len(args2) == f.total_arity:
                return f.solver.read(f.comp, args2)
            return FixRef(f.solver, f.comp, args2)
        raise InternalError(f"applied a non-function value {f!r}")

    def complement_value(self, v):
        if isinstance(v, Ground):
            return self._ground(v.mask ^ self._full_mask)
        if isinstance(v, Func):
            return denote.complement(v)
        if isinstance(v, NegWrap):
            return v.inner
        return NegWrap(v)

    def reify_value(self, v) -> Denotation:
        if isinstance(v, (Ground, Func)):
            return v
        if isinstance(v, NegWrap):
            return denote.complement(self.reify_value(v.inner))
        if isinstance(v, LamClosure):
            dom_ty = v.node.ty
            variance = v.node.variance
        elif isinstance(v, FixRef):
            arrow = arrows(v.solver.bindings[v.comp][1])[len(v.args)]
            dom_ty = arrow.arg
            variance = arrow.variance
        else:
            raise InternalError(f"cannot reify {v!r}")
        entries = [self.reify_value(self.apply_value(v, d))
                   for d in self.enum(dom_ty)]
        if type(entries[0]) is Ground:
            result_ty, width = PrType(), self.n
        else:
            result_ty = entries[0].ty
            width = denote.bits(result_ty, self.n)
        return Func(Arrow(dom_ty, variance, result_ty), self.n,
                    denote.pack([e.mask for e in entries], width), width)

    # -- compilation

    def eval(self, phi: Formula, env: dict):
        return self._compile(phi)(env)

    def _compile(self, phi: Formula):
        """The closure computing `phi`, compiling every node not yet
        compiled, children before parents."""
        if not isinstance(phi, Formula):
            raise InternalError(f"not a formula: {phi!r}")
        return syntax.fold(phi, self._compile_node, done=self._compiled)

    def _compile_node(self, phi: Formula, kids):
        """The closure for one node, given its children's closures."""
        grounds = self._grounds
        ground = self._ground
        full = self._full_mask
        closed = not phi.fv
        if isinstance(phi, Prop):
            return _constant(ground(self.prop_mask(phi.name)))
        elif isinstance(phi, Var):
            name = phi.name

            def run(env):
                try:
                    v = env[name]
                except KeyError:
                    raise UnboundVariableError(name) from None
                if type(v) is FixRef and v.total_arity == len(v.args):
                    return v.solver.read(v.comp, v.args)
                return v
        elif isinstance(phi, Neg):
            const = getattr(kids[0], "value", None)
            if const is not None:
                return _constant(ground(const.mask ^ full))
            inner = phi.body
            if isinstance(inner, Neg):
                return self._compiled[id(inner.body)][1]
            if isinstance(inner, Or):
                left_run = self._compiled[id(inner.left)][1]
                right_run = self._compiled[id(inner.right)][1]

                def run(env):
                    left = left_run(env)
                    if left.mask == full:  # skips the right, as Or does
                        return grounds.get(0) or ground(0)
                    m = (left.mask | right_run(env).mask) ^ full
                    return grounds.get(m) or ground(m)
            elif isinstance(inner, Dia):
                body = self._compiled[id(inner.body)][1]
                by_target = self._pred_masks.get(inner.action) or [0] * self.n

                def run(env):
                    m = _pre_image(by_target, body(env).mask) ^ full
                    return grounds.get(m) or ground(m)
            else:
                body = kids[0]
                complement = self.complement_value

                def run(env):
                    v = body(env)
                    if type(v) is Ground:
                        m = v.mask ^ full
                        return grounds.get(m) or ground(m)
                    return complement(v)
        elif isinstance(phi, Or):
            left_run, right_run = kids
            left_value = getattr(left_run, "value", None)
            right_value = getattr(right_run, "value", None)
            if left_value is not None and right_value is not None:
                return _constant(ground(left_value.mask | right_value.mask))

            def run(env):
                left = left_run(env)
                if left.mask == full:
                    # The union is already everything; skip the right
                    # operand.  This makes if-then-else under a 2-valued
                    # guard lazy in the untaken branch, which the
                    # word-rebuilding fixpoint needs to stay within its
                    # intended orbit.
                    return left
                m = left.mask | right_run(env).mask
                return grounds.get(m) or ground(m)
        elif isinstance(phi, Dia):
            body = kids[0]
            by_target = self._pred_masks.get(phi.action) or [0] * self.n
            const = getattr(body, "value", None)
            if const is not None:
                return _constant(ground(_pre_image(by_target, const.mask)))

            def run(env):
                m = _pre_image(by_target, body(env).mask)
                return grounds.get(m) or ground(m)
        elif isinstance(phi, App):
            func_run, arg_run = kids
            apply = self.apply_value
            if closed:
                kept = []

                # Kept here rather than by _once, so that a chain of closed
                # applications takes one frame per level on the first call.
                def run(env):
                    if not kept:
                        kept.append(apply(func_run(env), arg_run(env)))
                    return kept[0]
            else:
                def run(env):
                    return apply(func_run(env), arg_run(env))
        elif isinstance(phi, Lam):
            body = kids[0]
            if self.cfg.engine == "tabulate":
                def run(env):
                    return self.reify_value(LamClosure(phi, body, env, None))
            else:
                try:
                    small = denote.cardinality(phi.ty, self.n) <= AUTO_TABLE_LIMIT
                except BoundBudgetError:
                    small = False

                def run(env):
                    return LamClosure(phi, body, env, {} if small else None)
        else:  # Mu or MuVec; children() has rejected anything else
            bindings, index0 = _fix_bindings(phi)
            bindings = [(v, ty, k) for (v, ty, _), k in zip(bindings, kids)]
            if self.cfg.engine == "tabulate":
                def run(env):
                    return self.lfp_global_bindings(bindings, env, index0)
            else:
                def run(env):
                    solver = FixSolver(self, bindings, env)
                    if solver.arities[index0] == 0:
                        return solver.read(index0, ())
                    return FixRef(solver, index0, ())
        # A closed node's value does not depend on the environment, so a
        # closed application, lambda or fixpoint keeps it once made.  A
        # proposition, and a Neg, Or or Dia over such constants only, was
        # folded above: evaluated now, its closure returns that Ground.
        # Any other closed Neg, Or or Dia costs a few bit operations per
        # node down to kept values; wrapping those as well would take a
        # second frame per level of nesting.  A Neg over an Or or a Dia
        # runs its operand's operands itself, and a Neg over a Neg is the
        # inner operand's closure, so a negation takes no call of its own.
        if closed and isinstance(phi, (Lam, Mu, MuVec)):
            return _once(run)
        return run

    def lfp_global_bindings(self, bindings, env, index0):
        """Whole-value iteration from bottom for a simultaneous fixpoint;
        `bindings` holds (name, type, compiled body) triples."""
        tys = [ty for _, ty, _ in bindings]
        vals = [denote.bottom(ty, self.n) for ty in tys]
        cap = 2 + sum(denote.height(ty, self.n) - 1 for ty in tys)
        iters = 0
        while True:
            iters += 1
            self.cfg.stats.fixpoint_iterations += 1
            if iters > cap:
                raise IterationCapError(
                    f"global fixpoint failed to stabilize within {cap} rounds"
                )
            env2 = dict(env)
            for (name, _, _), v in zip(bindings, vals):
                env2[name] = v
            new = [self.reify_value(body(env2)) for _, _, body in bindings]
            for old_v, new_v in zip(vals, new):
                if not denote.leq(old_v, new_v):
                    raise InternalError(
                        "fixpoint iterates are not an ascending chain"
                    )
            if new == vals:
                return vals[index0]
            vals = new

    # -- public entry points

    def eval_closed(self, phi: Formula):
        types.typecheck(phi)
        return self._compile(phi)({})

    def denotation(self, phi: Formula) -> Denotation:
        return self.reify_value(self.eval_closed(phi))


def _constant(value):
    """The closure of a node whose value is `value` in every environment;
    `value` stays readable as its attribute, so parents can fold too."""

    def run(env):
        return value

    run.value = value
    return run


def _once(run):
    """`run` for a closed node, called on the first use only."""
    cell = []

    def run_closed(env):
        if not cell:
            cell.append(run(env))
        return cell[0]

    return run_closed


def _pre_image(by_target, mask: int) -> int:
    out = 0
    t = 0
    while mask:
        if mask & 1:
            out |= by_target[t]
        mask >>= 1
        t += 1
    return out


def _fix_bindings(phi):
    if isinstance(phi, Mu):
        return [(phi.var, phi.ty, phi.body)], 0
    return list(phi.bindings), phi.index - 1


def _below(args, bound, plus) -> bool:
    """`args` lies below `bound` at `plus` and equals it elsewhere."""
    return all(
        a.mask & ~b.mask == 0 if i in plus else a == b
        for i, (a, b) in enumerate(zip(args, bound))
    )


def evaluate(lts: Lts, phi: Formula, cfg: EvalConfig | None = None,
             typecheck: bool = True) -> Denotation:
    """Denotation of the closed formula `phi` over `lts`."""
    ev = Evaluator(lts, cfg)
    if typecheck:
        types.typecheck(phi)
    return ev.reify_value(ev.eval(phi, {}))


def check_query(lts: Lts, state: int, ty: HflType) -> None:
    """Refuse `state |= phi` unless phi's type `ty` is Pr and lts has state."""
    if not isinstance(ty, PrType):
        raise HflError(f"formula has type {format_type(ty)}, not Pr")
    if not 0 <= state < lts.n:
        raise HflError(f"state {state} out of range")


def holds(lts: Lts, state: int, phi: Formula,
          cfg: EvalConfig | None = None) -> bool:
    check_query(lts, state, types.typecheck(phi))
    return bool(evaluate(lts, phi, cfg=cfg, typecheck=False).mask >> state & 1)


# ---------------------------------------------------------------------------
# Approximants and fixpoint elimination


def approximant(mu: Mu, alpha: int) -> Formula:
    """The alpha-fold unfolding of `mu` starting from the constant-bottom map.

    The zeroth approximant reuses the fixed binder names Z1..Zm, with each
    binder variance copied from the fixpoint's own arrow type so that the
    result checks under the same typing as the original.
    """
    if alpha < 0:
        raise ValueError("approximant index must be nonnegative")
    acc: Formula = ff()
    spine = arrows(mu.ty)
    for i in range(len(spine), 0, -1):
        acc = Lam(f"Z{i}", spine[i - 1].variance, spine[i - 1].arg, acc)
    for _ in range(alpha):
        acc = substitute(mu.body, mu.var, acc)
    return acc


DEFAULT_UNFOLD_BUDGET = 4096
DEFAULT_SIZE_BUDGET = 10**6


def eliminate_fixpoints(phi: Formula, lts: Lts,
                        unfold_budget: int = DEFAULT_UNFOLD_BUDGET,
                        size_budget: int = DEFAULT_SIZE_BUDGET) -> Formula:
    """Equivalent fixpoint-free formula over `lts`, innermost first.

    Each mu is replaced by its h-fold approximant at h = the exact height
    of the full-space lattice of its type, which dominates the monotone
    height, so the approximant already equals the fixpoint.  Vector
    fixpoints are first rewritten into nested ones by `desugar_vec`.
    """
    phi = syntax.desugar_vec(phi)
    n = lts.n
    renamed: set = set()  # lambda names given to binders that would capture

    def step(f: Formula, kids) -> Formula:
        if not isinstance(f, Mu):
            return syntax.rebuild(f, kids)
        h = denote.height(f.ty, n)
        if h > unfold_budget:
            raise UnfoldBudgetError(h, unfold_budget,
                                    f"of mu {f.var} needs {show_int(h)} unfoldings")
        mu = syntax.rebuild(f, kids)
        names = syntax.lambda_binder_names(mu.body) if mu.fv else frozenset()
        if names & mu.fv:
            # Every unfolding substitutes an approximant with mu's free
            # names, so a binder of one of them above an occurrence of
            # mu's variable would be renamed afresh each time, and the
            # lambda names would grow with the unfoldings: rename it once.
            mu = Mu(mu.var, mu.ty, substitute(mu.body, mu.var, Var(mu.var),
                                              mu.fv))
            renamed.update(syntax.lambda_binder_names(mu.body) - names)
        acc = approximant(mu, h)
        size = syntax.dag_size(acc)
        if size > size_budget:
            raise UnfoldBudgetError(
                size, size_budget,
                f"of mu {f.var} needs {size} distinct nodes")
        return acc

    out = syntax.fold(phi, step)
    before = syntax.lambda_binder_names(phi)
    after = syntax.lambda_binder_names(out)
    max_arity = max(
        [0] + [len(arrows(f.ty)) for f in syntax.iter_nodes(phi) if isinstance(f, Mu)]
    )
    if len(after) > len(before) + max_arity + len(renamed):
        raise InternalError(
            "elimination introduced more lambda names than the bound allows"
        )
    return out
