"""Reachability games for fixpoint-free formulas, and the full pipeline.

A configuration node asserts that a state belongs to the current formula's
value applied to the argument stack.  Disjunctions and diamonds branch for
the proponent, their negations for the opponent; an application runs a
short protocol: the proponent guesses the argument's value as a table,
then the opponent either pushes the guess and continues with the function
or challenges the guess pointwise by picking arguments, a state, and a
polarity.  The opponent's tuple choice is decomposed into a chain of
single choices, which preserves winners because every link belongs to the
opponent.  Terminals are classified by the literal winning conditions,
including stuck modalities.  Every move strictly shrinks the formula, so
the graph is a DAG and backward induction solves it in one pass.

Every value the builder carries (a guess, a challenge argument, a bound
variable) is an element of a finite lattice, so it is carried as its
canonical index, which is also its encoding (see `denote`).  Configurations
are keyed by the state, the argument stack and the values of the formula's
free variables as such indices; where a terminal or a challenge outcome
reads a value applied to arguments, shifts pick the entry out of the index.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import denote, semantics, surface, syntax
from .errors import GameLimitError, InternalError
from .lts import Lts
from .syntax import App, Dia, Formula, Lam, Mu, MuVec, Neg, Or, Prop, Var
from .types import EMPTY_CONTEXT, PrType, fragment, infer, tower, uncurry

EXISTS = "exists"
FORALL = "forall"
WIN_E = "win_exists"
WIN_A = "win_forall"

DEFAULT_GAME_LIMIT = 10**7


@dataclass
class Game:
    kinds: list
    payloads: list
    edges: list
    start: int
    lts: Lts

    @property
    def node_count(self):
        return len(self.kinds)

    @property
    def edge_count(self):
        return sum(len(e) for e in self.edges)


@dataclass
class Solution:
    winner: str  # EXISTS or FORALL
    winners: list  # per node
    strategy: dict  # node -> chosen successor, total on the winner's nodes


def game_size_bound(n: int, size: int, k: int, m: int, v: int) -> int:
    """Closed-form size bound for games of (order k, arity m) formulas."""
    base = 4 * n * n * size * size
    if k == 0:
        return base
    if k == 1:
        factor = m
    else:
        factor = m ** ((k - 1) * m ** (k - 2))
    t = factor * tower(n * (k - 1 + m) ** (k - 1), k)
    return base * t ** (2 * (m + v))


def size_bound_for(phi: Formula, lts: Lts) -> int:
    """The bound above instantiated with the formula's own measures."""
    size, v = syntax.measures(phi)
    k, m = fragment(phi)
    return game_size_bound(lts.n, size, k, m, v)


def _unchanged(f: Formula) -> Formula:
    return f


class _Builder:
    def __init__(self, lts, phi, limit, enum_limit):
        self.lts = lts
        self.phi = phi
        self.limit = limit
        self.enum_limit = enum_limit
        for f in syntax.iter_nodes(phi):
            if isinstance(f, (Mu, MuVec)):
                raise ValueError(
                    "game construction needs a fixpoint-free formula"
                )
        self.types: dict = {}
        top = infer(EMPTY_CONTEXT, phi, types_out=self.types)
        if not isinstance(top, PrType):
            raise ValueError("game construction needs a formula of ground type")
        self.negs: dict = {}
        self.fv_names: dict = {}  # id(f) -> f's free variables, sorted
        self.kinds: list = []
        self.payloads: list = []
        self.edges: list = []
        self.index: dict = {}
        self.pending: list = []
        self.used = 0

    def neg_of(self, f: Formula) -> Formula:
        got = self.negs.get(id(f))
        if got is None:
            got = Neg(f)
            self.negs[id(f)] = got
            self.types[id(got)] = self.types[id(f)]
        return got

    def domain(self, ty) -> int:
        """The size of the lattice of `ty`, whose elements are guessed or
        picked one by one; refused past the enumeration limit."""
        return denote.lattice_size(ty, self.lts.n, self.enum_limit)

    def charge(self):
        self.used += 1
        if self.used > self.limit:
            raise GameLimitError(self.used, self.limit,
                                 size_bound_for(self.phi, self.lts))

    def new_node(self, kind, payload, key):
        idx = len(self.kinds)
        self.kinds.append(kind)
        self.payloads.append(payload)
        self.edges.append([])
        self.index[key] = idx
        self.charge()
        return idx

    def add_edge(self, u, v):
        self.edges[u].append(v)
        self.charge()

    def config(self, state, stack, env, f):
        """The node for `state` in f applied to `stack` under `env`.

        `stack` is a tuple of argument indices and `env` maps variable
        names to indices; the key holds only f's free variables.
        """
        names = self.fv_names.get(id(f))
        if names is None:
            names = tuple(sorted(syntax.free_vars(f)))
            self.fv_names[id(f)] = names
        key = ("c", state, stack, tuple([env[x] for x in names]), id(f))
        got = self.index.get(key)
        if got is not None:
            return got
        idx = self.new_node(None, ("config", state, stack, env, f), key)
        self.pending.append(idx)
        return idx

    def aux(self, kind, payload, key):
        got = self.index.get(key)
        if got is not None:
            return got
        idx = self.new_node(kind, payload, key)
        self.pending.append(idx)
        return idx

    def applied(self, ty, i, args) -> int:
        """The state set of the i-th element of `ty` applied to `args`."""
        n = self.lts.n
        for a in args:
            ty = ty.result
            i = denote.entry_index(i, a, denote.bits(ty, n))
        return i

    def build(self, start_state):
        start = self.config(start_state, (), {}, self.phi)
        while self.pending:
            idx = self.pending.pop()
            payload = self.payloads[idx]
            if payload[0] == "config":
                self.expand_config(idx, payload)
            elif payload[0] == "g":
                self.expand_guess(idx, payload)
            else:
                self.expand_challenge(idx, payload)
        return Game(self.kinds, self.payloads, self.edges, start, self.lts)

    def expand_config(self, idx, payload):
        _, state, stack, env, f = payload
        # A negated configuration moves like its body, with the players'
        # roles swapped and every successor negated.
        negated = isinstance(f, Neg)
        if negated:
            g = f.body
            owner, win, lose, wrap = FORALL, WIN_A, WIN_E, self.neg_of
        else:
            g = f
            owner, win, lose, wrap = EXISTS, WIN_E, WIN_A, _unchanged
        if isinstance(g, Prop):
            self.kinds[idx] = win if self.lts.has_prop(state, g.name) else lose
        elif isinstance(g, Var):
            val = self.applied(self.types[id(g)], env[g.name], stack)
            self.kinds[idx] = win if val >> state & 1 else lose
        elif isinstance(g, Or):
            self.kinds[idx] = owner
            self.add_edge(idx, self.config(state, (), env, wrap(g.left)))
            self.add_edge(idx, self.config(state, (), env, wrap(g.right)))
        elif isinstance(g, Dia):
            succs = self.lts.successors(state, g.action)
            if not succs:
                self.kinds[idx] = lose
            else:
                self.kinds[idx] = owner
                body = wrap(g.body)
                for t in succs:
                    self.add_edge(idx, self.config(t, (), env, body))
        elif isinstance(g, Lam):
            self.kinds[idx] = EXISTS
            env2 = dict(env)
            env2[g.var] = stack[0]
            self.add_edge(
                idx, self.config(state, stack[1:], env2, wrap(g.body))
            )
        elif isinstance(g, App):
            self.app_node(idx, state, stack, env, g, negated)
        elif isinstance(g, Neg):  # f is Neg(Neg x): one edge to x
            self.kinds[idx] = EXISTS
            self.add_edge(idx, self.config(state, stack, env, g.body))
        else:
            raise InternalError(f"unhandled formula {f!r}")

    def app_node(self, idx, state, stack, env, app, negated):
        self.kinds[idx] = EXISTS
        sigma = self.types[id(app.arg)]
        for gi in range(self.domain(sigma)):
            aux = self.aux(
                FORALL,
                ("g", state, stack, env, app, gi, negated, idx),
                ("g", idx, gi),
            )
            self.add_edge(idx, aux)

    def expand_guess(self, idx, payload):
        _, state, stack, env, app, gi, negated, _parent = payload
        func = self.neg_of(app.func) if negated else app.func
        self.add_edge(idx, self.config(state, (gi,) + stack, env, func))
        entry = self.aux(FORALL, ("h", env, app, gi, (), idx), ("h", idx, ()))
        self.add_edge(idx, entry)

    def expand_challenge(self, idx, payload):
        _, env, app, gi, hs, guess_idx = payload
        sigma_args = uncurry(self.types[id(app.arg)])
        picked = len(hs)
        if picked < len(sigma_args):
            for hi in range(self.domain(sigma_args[picked])):
                hs2 = hs + (hi,)
                succ = self.aux(
                    FORALL,
                    ("h", env, app, gi, hs2, guess_idx),
                    ("h", guess_idx, hs2),
                )
                self.add_edge(idx, succ)
            return
        self.add_challenge_outcomes(idx, env, app, gi, hs)

    def add_challenge_outcomes(self, idx, env, app, gi, hs):
        value = self.applied(self.types[id(app.arg)], gi, hs)
        for t in range(self.lts.n):
            if value >> t & 1:
                self.add_edge(idx, self.config(t, hs, env, app.arg))
            else:
                self.add_edge(idx, self.config(t, hs, env, self.neg_of(app.arg)))


def build_game(lts: Lts, start_state: int, phi: Formula,
               limit: int = DEFAULT_GAME_LIMIT,
               enum_limit: int = denote.DEFAULT_ENUM_LIMIT) -> Game:
    """The model-checking game for a closed, fixpoint-free ground formula.

    Configurations are hash-consed so shared subformulas share subgames;
    their keys hold canonical lattice indices (positions in each type's
    enumeration) for the argument stack and the free variables' values.
    Construction counts nodes plus edges as it goes and stops with the
    closed-form estimate attached once the count passes `limit`.
    """
    if not 0 <= start_state < lts.n:
        raise ValueError(f"state {start_state} out of range")
    return _Builder(lts, phi, limit, enum_limit).build(start_state)


def solve(game: Game) -> Solution:
    """Backward induction over the DAG; linear in the edge count."""
    n = game.node_count
    for u, k in enumerate(game.kinds):
        if k in (WIN_E, WIN_A):
            if game.edges[u]:
                raise InternalError("terminal node with outgoing edges")
        elif not game.edges[u]:
            raise InternalError("non-terminal node without moves")

    order = topological_order(game)
    winners = [None] * n
    strategy_e: dict = {}
    strategy_a: dict = {}
    for u in reversed(order):
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
    return Solution(winner, winners, strategy)


def topological_order(game: Game):
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


def check_via_games(lts: Lts, state: int, phi: Formula,
                    game_limit: int = DEFAULT_GAME_LIMIT,
                    enum_limit: int = denote.DEFAULT_ENUM_LIMIT,
                    unfold_budget: int = semantics.DEFAULT_UNFOLD_BUDGET,
                    size_budget: int = semantics.DEFAULT_SIZE_BUDGET) -> bool:
    """Eliminate fixpoints, build the game, solve; true iff state satisfies."""
    phi = syntax.desugar_vec(phi)
    infer(EMPTY_CONTEXT, phi)
    fp_free = semantics.eliminate_fixpoints(phi, lts, unfold_budget,
                                            size_budget)
    game = build_game(lts, state, fp_free, game_limit, enum_limit)
    return solve(game).winner == EXISTS


# ---------------------------------------------------------------------------
# Export


def _node_label(game: Game, u: int) -> str:
    payload = game.payloads[u]
    if payload[0] == "config":
        _, state, stack, _env, f = payload
        text = surface.print_formula(f)
        if len(text) > 40:
            text = text[:37] + "..."
        if stack:
            return f"{state} ({len(stack)} args) |- {text}"
        return f"{state} |- {text}"
    if payload[0] == "g":
        return "guess"
    return f"pick {len(payload[4])}"


def export_game(game: Game, fmt: str, solution: Solution | None = None) -> str:
    if fmt == "dot":
        return _export_dot(game, solution)
    if fmt == "json":
        return _export_json(game, solution)
    raise ValueError(f"unknown export format {fmt!r}")


def _export_dot(game: Game, solution) -> str:
    shapes = {EXISTS: "diamond", FORALL: "box", WIN_E: "doublecircle",
              WIN_A: "doubleoctagon"}
    lines = ["digraph game {"]
    for u in range(game.node_count):
        label = _node_label(game, u).replace('"', "'")
        attrs = [f"shape={shapes[game.kinds[u]]}", f'label="{label}"']
        if solution is not None:
            color = "green" if solution.winners[u] == EXISTS else "red"
            attrs.append(f"color={color}")
        if u == game.start:
            attrs.append("penwidth=3")
        lines.append(f'  n{u} [{", ".join(attrs)}];')
    for u, succs in enumerate(game.edges):
        for v in succs:
            lines.append(f"  n{u} -> n{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _export_json(game: Game, solution) -> str:
    nodes = []
    for u in range(game.node_count):
        entry = {"id": u, "kind": game.kinds[u], "label": _node_label(game, u)}
        if solution is not None:
            entry["winner"] = solution.winners[u]
        nodes.append(entry)
    doc = {
        "schema": "hflcheck-game-v1",
        "start": game.start,
        "nodes": nodes,
        "edges": [[u, v] for u in range(game.node_count)
                  for v in game.edges[u]],
    }
    if solution is not None:
        doc["winner"] = solution.winner
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
