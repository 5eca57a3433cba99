"""Reachability games for fixpoint-free formulas.

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
canonical index, which is also its encoding (see `denote`); shifts pick a
value's entry at some arguments out of the index.  Only configurations are
hash-consed, keyed by the state, the argument stack and the values of the
formula's free variables; guess and pick nodes are made once, by their
parent.  A challenge's outcomes depend on the guess only through its entry
at the picked arguments, so each application node shares one outcome list
among all guesses that agree there.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import denote, semantics, surface, syntax
from .errors import BoundBudgetError, GameLimitError, InternalError
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
    """Node u has kind kinds[u], label data payloads[u] and successors
    edges[u].  Edge lists are read-only: nodes may share one list (every
    terminal, and the challenge leaves with equal outcomes)."""

    kinds: list
    payloads: list
    edges: list
    start: int
    lts: Lts
    order_arity: tuple  # `types.fragment` of the formula played

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


def size_bound_for(phi: Formula, lts: Lts, order_arity: tuple) -> int:
    """The bound above instantiated with the formula's own measures;
    `order_arity` is its `types.fragment`, as a `Game` records it."""
    size, v = syntax.measures(phi)
    k, m = order_arity
    return game_size_bound(lts.n, size, k, m, v)


_GUESS = ("guess",)


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
        self.moves: dict = {}  # id(f) -> how f's configurations move, and f
        self.kinds: list = []
        self.payloads: list = []
        self.edges: list = []
        self.index: dict = {}  # configuration key -> node
        self.pending: list = []  # configuration nodes, guess and pick items
        self.used = 0
        self.no_moves: list = []

    def target(self, f: Formula, negate=False) -> tuple:
        """f, negated if asked (one Neg per f), and its sorted free names."""
        if negate:
            if id(f) not in self.negs:
                self.negs[id(f)] = Neg(f)
            f = self.negs[id(f)]
        return f, tuple(sorted(f.fv))

    def widths(self, ty) -> tuple:
        """The entry widths of ty's successive results, with which
        `denote.entry_index` reads a value applied to arguments."""
        out = []
        for _ in uncurry(ty):
            ty = ty.result
            out.append(denote.bits(ty, self.lts.n))
        return tuple(out)

    def compile(self, f: Formula) -> tuple:
        """How configurations of f move: a tag, its data, and f itself.

        An application's data: the targets of its function, argument and
        negated argument, its guess and pick domain sizes, the argument's
        entry widths and the pick payloads.  Domains are sized at the first
        expansion; each pick lattice is smaller than the guessed one, so
        it is refused only where the guess domain already is.
        """
        # A negated configuration moves like its body, with the players'
        # roles swapped and every successor negated.
        neg = isinstance(f, Neg)
        g = f.body if neg else f
        owner, win, lose = (FORALL, WIN_A, WIN_E) if neg else (EXISTS, WIN_E, WIN_A)
        if isinstance(g, Prop):
            return "prop", tuple([win if self.lts.has_prop(s, g.name)
                                  else lose for s in range(self.lts.n)]), f
        if isinstance(g, Var):
            return "var", (g.name, self.widths(self.types[id(g)]), win, lose), f
        if isinstance(g, Or):
            return "or", (owner, self.target(g.left, neg),
                          self.target(g.right, neg)), f
        if isinstance(g, Dia):
            return "dia", (owner, lose, g.action, self.target(g.body, neg)), f
        if isinstance(g, Lam):
            return "lam", (g.var, self.target(g.body, neg)), f
        if isinstance(g, App):
            sigma = self.types[id(g.arg)]
            sizes = [denote.lattice_size(ty, self.lts.n, self.enum_limit)
                     for ty in [sigma] + uncurry(sigma)]
            return "app", (self.target(g.func, neg), self.target(g.arg),
                           self.target(g.arg, True), sizes, self.widths(sigma),
                           tuple([("pick", k) for k in range(len(sizes))])), f
        if isinstance(g, Neg):  # f is Neg(Neg x): one edge to x
            return "neg", self.target(g.body), f
        raise InternalError(f"unhandled formula {f!r}")

    def charge(self, count):
        """Count `count` more nodes plus edges; refused past the limit.
        Each step charges what it adds at once (the hottest inline this),
        before it makes a domain's worth of nodes: it refuses in the step,
        and with the count, where counting one by one would."""
        self.used += count
        if self.used > self.limit:
            try:
                estimate, refusal = size_bound_for(
                    self.phi, self.lts, fragment(self.types)), None
            except BoundBudgetError as e:
                estimate, refusal = None, e
            raise GameLimitError(self.limit + 1, self.limit, estimate, refusal)

    def fan(self, idx, payload, count) -> int:
        """Give idx `count` new opponent successors; the first's index."""
        self.charge(2 * count)
        first = len(self.kinds)
        self.kinds.extend([FORALL] * count)
        self.payloads.extend([payload] * count)
        self.edges.extend([None] * count)
        self.edges[idx] = list(range(first, first + count))
        return first

    def config(self, state, stack, env, target):
        """The node for `state` in f applied to `stack` under `env`.

        `target` is f with its sorted free variables, `stack` a tuple of
        argument indices and `env` maps variable names to indices; the
        key holds only f's free variables.
        """
        f, names = target
        key = (state, stack, tuple([env[x] for x in names]), id(f))
        got = self.index.get(key)
        if got is None:
            got = self.index[key] = len(self.kinds)
            self.kinds.append(None)
            self.payloads.append(("config", state, stack, env, f))
            self.edges.append(None)
            self.used += 1
            self.pending.append(got)
        return got

    def build(self, start_state):
        start = self.config(start_state, (), {}, (self.phi, ()))
        self.charge(0)
        pending = self.pending
        while pending:
            item = pending.pop()
            if type(item) is int:
                self.expand_config(item)
            elif len(item) == 3:
                self.expand_guess(*item)
            else:
                self.expand_pick(*item)
        return Game(self.kinds, self.payloads, self.edges, start, self.lts,
                    fragment(self.types))

    def expand_config(self, idx):
        _, state, stack, env, f = self.payloads[idx]
        entry = self.moves.get(id(f))
        if entry is None:
            entry = self.moves[id(f)] = self.compile(f)
        tag, data, _ = entry
        config = self.config
        if tag == "prop":
            kind, out = data[state], self.no_moves
        elif tag == "var":
            name, widths, win, lose = data
            val = env[name]
            for a, w in zip(stack, widths):
                val = denote.entry_index(val, a, w)
            kind, out = (win if val >> state & 1 else lose), self.no_moves
        elif tag == "or":
            kind = data[0]
            out = [config(state, (), env, data[1]),
                   config(state, (), env, data[2])]
        elif tag == "dia":
            succs = self.lts.successors(state, data[2])
            kind = data[0] if succs else data[1]
            out = [config(t, (), env, data[3]) for t in succs] or self.no_moves
        elif tag == "lam":
            env2 = dict(env)
            env2[data[0]] = stack[0]
            kind, out = EXISTS, [config(state, stack[1:], env2, data[1])]
        elif tag == "neg":
            kind, out = EXISTS, [config(state, stack, env, data)]
        else:  # an application: the proponent guesses the argument
            self.kinds[idx] = EXISTS
            count = data[3][0]
            first = self.fan(idx, _GUESS, count)
            work = (state, stack, env, data, {})
            self.pending.extend([(work, gi, first + gi) for gi in range(count)])
            return
        self.kinds[idx] = kind
        self.edges[idx] = out
        self.charge(len(out))

    def expand_guess(self, work, gi, idx):
        """The opponent pushes guess gi onto the function's stack, or
        starts to challenge it."""
        state, stack, env, app, _ = work
        out = [self.config(state, (gi,) + stack, env, app[0])]  # function
        root = len(self.kinds)
        self.kinds.append(FORALL)
        self.payloads.append(app[5][0])  # ("pick", 0)
        self.edges.append(None)
        self.pending.append((work, gi, (), root))
        out.append(root)
        self.edges[idx] = out
        self.used += 3
        if self.used > self.limit:
            self.charge(0)

    def expand_pick(self, work, gi, hs, idx):
        """The opponent picks the next challenge argument or, all picked,
        a state and whether the guessed value holds there."""
        _, _, env, app, outcomes = work
        _, arg, negarg, sizes, widths, picks = app
        k = len(hs) + 1
        if k < len(sizes):
            first = self.fan(idx, picks[k], sizes[k])
            self.pending.extend([(work, gi, hs + (hi,), first + hi)
                                 for hi in range(sizes[k])])
            return
        # The outcomes depend on the guess only through its value at hs,
        # so every guess that agrees there shares one list of them.
        for a, w in zip(hs, widths):
            gi = denote.entry_index(gi, a, w)
        out = outcomes.get((hs, gi))
        if out is None:
            out = outcomes[hs, gi] = [
                self.config(t, hs, env, arg if gi >> t & 1 else negarg)
                for t in range(self.lts.n)]
        self.edges[idx] = out
        self.used += len(out)
        if self.used > self.limit:
            self.charge(0)


def build_game(lts: Lts, start_state: int, phi: Formula,
               limit: int = DEFAULT_GAME_LIMIT,
               enum_limit: int = denote.DEFAULT_ENUM_LIMIT) -> Game:
    """The model-checking game for a closed, fixpoint-free ground formula.

    Configurations are hash-consed so shared subformulas share subgames.
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
    """Whether `state` satisfies `phi`, by `pipeline.play` as `check` and
    `game` do."""
    from .pipeline import play  # here, as pipeline imports this module

    return play(lts, state, phi, game_limit, enum_limit, unfold_budget,
                size_budget)[2].winner == EXISTS


# ---------------------------------------------------------------------------
# Export


def _node_labels(game: Game):
    """Each node's label in node order, read off its payload: ("config",
    state, stack, env, f) for a configuration, the shared ("guess",) or
    ("pick", k) else.  Each formula is printed once, however many
    configurations hold it."""
    texts: dict = {}  # id(f) -> f printed, cut to 40 characters
    for payload in game.payloads:
        if payload[0] == "config":
            _, state, stack, _env, f = payload
            if id(f) not in texts:
                text = surface.print_formula(f)
                texts[id(f)] = text if len(text) <= 40 else text[:37] + "..."
            args = f" ({len(stack)} args)" if stack else ""
            yield f"{state}{args} |- {texts[id(f)]}"
        elif payload[0] == "guess":
            yield "guess"
        else:
            yield f"pick {payload[1]}"


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
    for u, label in enumerate(_node_labels(game)):
        label = label.replace('"', "'")
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
    for u, label in enumerate(_node_labels(game)):
        entry = {"id": u, "kind": game.kinds[u], "label": label}
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
