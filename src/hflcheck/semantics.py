"""Denotational evaluation, approximants, and fixpoint elimination.

Two engines share one evaluator, which compiles each formula node once
into a Python closure `run(env)` (Feeley & Lapalme, "Using closures for
code generation", 1987): the kind of the node, the Ground of a
proposition, the tabulation choice for a lambda and the fixpoint strategy
are all settled at compile time, so evaluation does no dispatch on node
kinds.  Compilation walks the formula iteratively, children first, once
per node object per `Evaluator`; a closed lambda or fixpoint keeps its
value in its own closure cell.

The `demand` engine keeps lambda values as closures and solves least
fixpoints locally: each fully applied fixpoint argument tuple gets a memo
entry initialized at bottom and re-propagated through recorded
dependencies until stable (chaotic iteration, justified by Knaster-Tarski
over the finite lattices).  The `tabulate` engine builds full argument
tables eagerly and iterates whole lattice values from bottom.  Both only
ever move approximations upward; any descent is reported as an internal
error, never papered over.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import denote, syntax
from .denote import Denotation, Func, Ground, enumerate_lattice, index_of
from .errors import (
    BoundBudgetError,
    InternalError,
    IterationCapError,
    UnboundVariableError,
    UnfoldBudgetError,
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
from .types import (
    EMPTY_CONTEXT,
    Arrow,
    HflType,
    PrType,
    full_space_height,
    infer,
    uncurry,
)


@dataclass
class EvalStats:
    fixpoint_iterations: int = 0
    memo_hits: int = 0
    tabulated_lambdas: int = 0


@dataclass
class EvalConfig:
    engine: str = "demand"  # or "tabulate"
    enum_limit: int = denote.DEFAULT_ENUM_LIMIT
    max_fixpoint_evals: int = 10**7
    # Closed lambdas over domains at most this large are turned into tables
    # by the demand engine when provably safe; applications become lookups.
    auto_table_limit: int = 4096
    stats: EvalStats = field(default_factory=EvalStats)

    def __post_init__(self):
        if self.engine not in ("demand", "tabulate"):
            raise ValueError(f"unknown engine {self.engine!r}")
        if self.max_fixpoint_evals < 1:
            raise ValueError("iteration cap must be at least 1")


# ---------------------------------------------------------------------------
# Run-time values beyond plain denotations


class LamClosure:
    """A lambda's value: its node, its compiled body and its environment."""

    __slots__ = ("node", "body", "env")

    def __init__(self, node, body, env):
        self.node = node
        self.body = body
        self.env = env


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

    def remaining_type(self):
        ty = self.solver.bindings[self.comp][1]
        for _ in self.args:
            ty = ty.result
        return ty


class FixSolver:
    """Demand-driven least fixpoint of one simultaneous binding group.

    `bindings` holds (name, type, compiled body) triples.
    """

    def __init__(self, ev, bindings, env):
        self.ev = ev
        self.bindings = bindings
        self.arities = [len(uncurry(ty)) for _, ty, _ in bindings]
        self.env = dict(env)
        for i, (name, _, _) in enumerate(bindings):
            self.env[name] = FixRef(self, i, ())
        self.memo: dict = {}
        self.deps: dict = {}
        self.dirty: list = []
        self.queued: set = set()
        self.current = None

    def read(self, comp, args) -> Ground:
        key = (comp, args)
        if key not in self.memo:
            self.memo[key] = self.ev._ground(0)
            self.deps[key] = set()
            self._push(key)
        else:
            self.ev.cfg.stats.memo_hits += 1
        if self.current is not None:
            self.deps[key].add(self.current)
            return self.memo[key]
        self._run()
        return self.memo[key]

    def _push(self, key):
        if key not in self.queued:
            self.queued.add(key)
            self.dirty.append(key)

    def _run(self):
        stats = self.ev.cfg.stats
        cap = self.ev.cfg.max_fixpoint_evals
        while self.dirty:
            key = self.dirty.pop()
            self.queued.discard(key)
            stats.fixpoint_iterations += 1
            if stats.fixpoint_iterations > cap:
                raise IterationCapError(
                    f"over {cap} fixpoint body evaluations; "
                    "likely non-convergence"
                )
            self.current = key
            try:
                comp, args = key
                val = self.bindings[comp][2](self.env)
                for a in args:
                    val = self.ev.apply_value(val, a)
                if not isinstance(val, Ground):
                    val = self.ev.reify_value(val)
            finally:
                self.current = None
            old = self.memo[key]
            if val.mask != old.mask:
                if old.mask & ~val.mask:
                    raise InternalError(
                        "fixpoint approximation moved down the order"
                    )
                self.memo[key] = val
                for d in self.deps[key]:
                    self._push(d)


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
        # id(node) -> (node, compiled closure, typechecked as a closed root);
        # holding the node keeps its id from being reused, so an id found
        # here is the node itself.
        self._compiled: dict = {}
        self._grounds: dict = {}  # mask -> the one Ground with that mask
        self._enums: dict = {}  # type -> tuple of its elements
        # id(element) -> canonical index, for every enumerated Func; the
        # tuples in _enums keep those ids from being reused.
        self._enum_index: dict = {}

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
            got = tuple(enumerate_lattice(ty, self.n, self.cfg.enum_limit))
            self._enums[ty] = got
            if isinstance(ty, Arrow):
                self._enum_index.update((id(d), i) for i, d in enumerate(got))
        return got

    # -- value operations

    def apply_value(self, f, a):
        kind = type(f)
        if kind is Func:
            if type(a) is Ground:
                return f.table[a.mask]
            i = self._enum_index.get(id(a))
            if i is None:
                i = index_of(self.reify_value(a))
            return f.table[i]
        if kind is LamClosure:
            env2 = dict(f.env)
            env2[f.node.var] = a
            return f.body(env2)
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
            arrow = v.remaining_type()
            dom_ty = arrow.arg
            variance = arrow.variance
        else:
            raise InternalError(f"cannot reify {v!r}")
        entries = tuple(
            self.reify_value(self.apply_value(v, d)) for d in self.enum(dom_ty)
        )
        result_ty = PrType() if isinstance(entries[0], Ground) else entries[0].ty
        return Func(Arrow(dom_ty, variance, result_ty), self.n, entries)

    # -- compilation

    def eval(self, phi: Formula, env: dict):
        return self._compile(phi)(env)

    def _compile(self, phi: Formula):
        """The closure computing `phi`, compiling every node not yet
        compiled, children before parents, with an explicit stack: a
        recursive compiler would need two frames per level of nesting."""
        table = self._compiled
        hit = table.get(id(phi))
        if hit is not None:
            return hit[1]
        stack = [(phi, False)]  # (node, are its children compiled?)
        while stack:
            f, children_done = stack.pop()
            if id(f) in table:
                continue
            if children_done:
                table[id(f)] = (f, self._compile_node(f), False)
                continue
            try:
                children = syntax.children(f)
            except TypeError:
                raise InternalError(f"not a formula: {f!r}") from None
            stack.append((f, True))
            for c in children:
                if id(c) not in table:
                    stack.append((c, False))
        return table[id(phi)][1]

    def _compile_node(self, phi: Formula):
        """The closure for one node whose children are compiled."""
        table = self._compiled

        def compiled(f):
            return table[id(f)][1]

        grounds = self._grounds
        ground = self._ground
        full = self._full_mask
        if isinstance(phi, Prop):
            value = ground(self.prop_mask(phi.name))
            return lambda env: value
        if isinstance(phi, Var):
            name = phi.name

            def run_var(env):
                try:
                    v = env[name]
                except KeyError:
                    raise UnboundVariableError(name) from None
                if type(v) is FixRef and v.total_arity == len(v.args):
                    return v.solver.read(v.comp, v.args)
                return v

            return run_var
        if isinstance(phi, Neg):
            body = compiled(phi.body)
            complement = self.complement_value

            def run_neg(env):
                v = body(env)
                if type(v) is Ground:
                    m = v.mask ^ full
                    return grounds.get(m) or ground(m)
                return complement(v)

            return run_neg
        if isinstance(phi, Or):
            left_run = compiled(phi.left)
            right_run = compiled(phi.right)

            def run_or(env):
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

            return run_or
        if isinstance(phi, Dia):
            body = compiled(phi.body)
            by_target = self._pred_masks.get(phi.action) or [0] * self.n

            def run_dia(env):
                m = _pre_image(by_target, body(env).mask)
                return grounds.get(m) or ground(m)

            return run_dia
        if isinstance(phi, App):
            func_run = compiled(phi.func)
            arg_run = compiled(phi.arg)
            apply = self.apply_value

            def run_app(env):
                f = func_run(env)
                a = arg_run(env)
                if type(f) is Func and type(a) is Ground:
                    return f.table[a.mask]
                return apply(f, a)

            return run_app
        closed = not syntax.free_vars(phi)
        if isinstance(phi, Lam):
            body = compiled(phi.body)
            if self.cfg.engine == "tabulate" or (
                closed and self._table_safe(phi)
            ):
                def make(env):
                    return self._tabulate_lambda(phi, body, env)
            else:
                def make(env):
                    return LamClosure(phi, body, env)
        else:  # Mu or MuVec; children() has rejected anything else
            bindings, index0 = _fix_bindings(phi)
            bindings = [(name, ty, compiled(b)) for name, ty, b in bindings]
            names = {name for name, _, _ in bindings}
            # Demand-local solving is sound when the fixpoint's own
            # variables only head application spines: then no memo key is
            # computed from an in-flight approximation, so every entry
            # ascends.  A fixpoint that feeds itself its own output (like
            # the buffer walk's X (X Z)) is iterated as a whole value.
            if self.cfg.engine == "tabulate" or not _fixvars_head_only(
                phi, names
            ):
                def make(env):
                    return self.lfp_global_bindings(bindings, env, index0)
            else:
                def make(env):
                    solver = FixSolver(self, bindings, env)
                    if solver.arities[index0] == 0:
                        return solver.read(index0, ())
                    return FixRef(solver, index0, ())
        return _once(make) if closed else make

    def _table_safe(self, phi: Lam) -> bool:
        """Tabulate a closed lambda when its domain is small and every
        fixpoint under it keeps its own variables in application-head
        position.  The head condition keeps the fixpoint transformers
        monotone no matter which table the binder is given, so tabulation
        over the full function space cannot diverge."""
        try:
            if denote.cardinality(phi.ty, self.n) > self.cfg.auto_table_limit:
                return False
        except BoundBudgetError:
            return False
        for f in syntax.iter_nodes(phi.body):
            if isinstance(f, Mu):
                names = {f.var}
            elif isinstance(f, MuVec):
                names = {v for v, _, _ in f.bindings}
            else:
                continue
            if not _fixvars_head_only(f, names):
                return False
        return True

    def _tabulate_lambda(self, phi: Lam, body, env: dict) -> Func:
        self.cfg.stats.tabulated_lambdas += 1
        entries = []
        for d in self.enum(phi.ty):
            env2 = dict(env)
            env2[phi.var] = d
            entries.append(self.reify_value(body(env2)))
        result_ty = PrType() if isinstance(entries[0], Ground) else entries[0].ty
        return Func(Arrow(phi.ty, phi.variance, result_ty), self.n, tuple(entries))

    def lfp_global_bindings(self, bindings, env, index0):
        """Whole-value iteration from bottom for a simultaneous fixpoint;
        `bindings` holds (name, type, compiled body) triples."""
        tys = [ty for _, ty, _ in bindings]
        vals = [denote.bottom(ty, self.n) for ty in tys]
        atoms = sum(full_space_height(ty, self.n) - 1 for ty in tys)
        cap = atoms + 2
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

    def eval_closed(self, phi: Formula, typecheck: bool = True):
        if typecheck:
            hit = self._compiled.get(id(phi))
            if hit is None or not hit[2]:
                infer(EMPTY_CONTEXT, phi)
                self._compiled[id(phi)] = (phi, self._compile(phi), True)
        return self._compile(phi)({})

    def denotation(self, phi: Formula, typecheck: bool = True) -> Denotation:
        return self.reify_value(self.eval_closed(phi, typecheck))


def _once(make):
    """A closed node's closure: its value does not depend on the
    environment, so it is made on the first call and kept."""
    cell = []

    def run_closed(env):
        if not cell:
            cell.append(make(env))
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


def _fixvars_head_only(fix_node, names) -> bool:
    """True when the fixpoint variables only head application spines, i.e.
    they are applied but never passed into another function's argument."""
    bodies = (
        [fix_node.body]
        if isinstance(fix_node, Mu)
        else [b for _, _, b in fix_node.bindings]
    )
    for body in bodies:
        for f in syntax.iter_nodes(body):
            if isinstance(f, App) and syntax.free_vars(f.arg) & names:
                return False
    return True


def evaluate(lts: Lts, phi: Formula, env: dict | None = None,
             cfg: EvalConfig | None = None, ctx=None,
             typecheck: bool = True) -> Denotation:
    """Denotation of `phi` over `lts`; `phi` must be closed unless env/ctx given."""
    ev = Evaluator(lts, cfg)
    if typecheck:
        infer(ctx or EMPTY_CONTEXT, phi)
    return ev.reify_value(ev.eval(phi, dict(env or {})))


def holds(lts: Lts, state: int, phi: Formula,
          cfg: EvalConfig | None = None) -> bool:
    d = evaluate(lts, phi, cfg=cfg)
    if not isinstance(d, Ground):
        raise InternalError("model checking needs a ground formula")
    return bool(d.mask >> state & 1)


def lfp_global(transformer, ty: HflType, n: int,
               cfg: EvalConfig | None = None) -> Denotation:
    """Least fixpoint of a monotone transformer on the full-space lattice.

    Iterates from bottom; the iteration count never exceeds one plus the
    number of ground atoms of the lattice, which is asserted.
    """
    cfg = cfg or EvalConfig()
    val = denote.bottom(ty, n)
    atoms = full_space_height(ty, n) - 1
    steps = 0
    while True:
        cfg.stats.fixpoint_iterations += 1
        new = transformer(val)
        if not denote.leq(val, new):
            raise InternalError("transformer is not monotone from bottom")
        if new == val:
            return val
        steps += 1
        if steps > atoms + 1:
            raise IterationCapError("fixpoint exceeded the lattice height")
        val = new


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
    acc = _zero_approximant(mu.ty)
    for _ in range(alpha):
        acc = substitute(mu.body, mu.var, acc)
    return acc


def _zero_approximant(ty: HflType) -> Formula:
    args = uncurry(ty)
    acc: Formula = ff()
    arrows = []
    t = ty
    while isinstance(t, Arrow):
        arrows.append(t)
        t = t.result
    for i in range(len(args), 0, -1):
        acc = Lam(f"Z{i}", arrows[i - 1].variance, args[i - 1], acc)
    return acc


DEFAULT_UNFOLD_BUDGET = 4096
DEFAULT_SIZE_BUDGET = 10**6


def eliminate_fixpoints(phi: Formula, lts: Lts,
                        unfold_budget: int = DEFAULT_UNFOLD_BUDGET,
                        size_budget: int = DEFAULT_SIZE_BUDGET) -> Formula:
    """Equivalent fixpoint-free formula over `lts`, innermost first.

    Each mu is replaced by its h-fold approximant at h = the exact height
    of the full-space lattice of its type, which dominates the monotone
    height, so the approximant already equals the fixpoint.
    """
    if syntax.contains_muvec(phi):
        raise ValueError("desugar vector fixpoints before elimination")
    n = lts.n
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
            body = go(f.body)
            h = full_space_height(f.ty, n)
            if h > unfold_budget:
                raise UnfoldBudgetError(h, unfold_budget)
            acc = _zero_approximant(f.ty)
            for _ in range(h):
                acc = substitute(body, f.var, acc)
            if syntax.dag_size(acc) > size_budget:
                raise UnfoldBudgetError(syntax.dag_size(acc), size_budget)
            out = acc
        else:
            raise InternalError(f"not a formula: {f!r}")
        memo[id(f)] = out
        return out

    out = go(phi)
    before = syntax.lambda_binder_names(phi)
    after = syntax.lambda_binder_names(out)
    max_arity = max(
        [0] + [len(uncurry(f.ty)) for f in syntax.iter_nodes(phi) if isinstance(f, Mu)]
    )
    if len(after) > len(before) + max_arity:
        raise InternalError(
            "elimination introduced more lambda names than the bound allows"
        )
    return out
