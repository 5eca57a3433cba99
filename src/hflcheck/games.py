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
the graph is a DAG.  `solve` is local: depth first from the start, each
node reads its moves last first and stops at the first its owner wins, so
it settles a small part of a big game.  It sees only the cycles and
malformed nodes among the moves it reads, and refuses those.  Every
node's winner, by backward induction over every edge, and a winning
strategy derived from them are computed when first read.

Forced guesses.  At an application of a function to an argument, a
challenge of guess g at picked arguments hs and state t continues at the
argument's configuration (t, hs) if bit (hs, t) of g is set, and at the
negated argument's otherwise; bit (hs, t) of a table is its bit
sum(h_i * w_i) + t, with w_i the entry widths of its successive results.
Let g* set exactly the bits (hs, t) whose argument configuration the
proponent wins.  Claim: the proponent wins the application if and only if
it wins the function's configuration at g*, for g* is the one guess whose
challenge root it wins.  Proof, by induction on the formula, which every
move shrinks, together with duality: the proponent wins a configuration
if and only if it loses the configuration's negation (same state, stack
and values).  Duality holds at terminals, whose win and loss swap; at
disjunctions, diamonds and lambdas, whose owner swaps and whose moves are
negated; and at applications by the claim, as both polarities challenge
with the same argument, so read the same g*, and their function
configurations at g* are each other's negations.  For the claim: by
duality the proponent wins the leaf (hs, t) of g's challenge if and only
if bit (hs, t) of g equals that of g*.  The challenge root and its picks
belong to the opponent and reach one leaf per bit of the guess, so the
proponent wins the root if and only if g = g*.  A guess node belongs to
the opponent, who pushes the guess or challenges it: every guess but g*
is lost, and g* is won exactly when its function configuration is.

`build_game` returns the game unbuilt; the full build makes its lists on
their first read.  A `solve` before that builds on demand: it makes a
configuration's kind and moves when it first reads it, with the full
build's code, but for applications, whose guess it forces.  It settles
the argument's configurations at every (hs, t) first, reading them in
full, and then gives the application one move, to the function's
configuration at g*.  No guess or challenge node is made, and the guess
domain is never sized, only the pick domains.  The winner is the built
game's, by the claim; the nodes settled are fewer.  Over the p = 2
counter corpus it settles 4,457 nodes (12,533 reading every guess last
first), and makes 5,056 nodes and 4,933 edges of the full builds'
1,278,890 and 2,953,025.

Every value the builder carries (a guess, a challenge argument, a bound
variable) is an element of a finite lattice, so it is carried as its
canonical index, which is also its encoding (see `denote`); shifts pick a
value's entry at some arguments out of the index.  Only configurations are
hash-consed (Filliâtre & Conchon, ML 2006), keyed by plain data: the
state, the argument stack, the values of the formula's sorted free
variables, and the formula's number.  A negation only swaps the players'
roles, so the builder reads leading negations as a polarity and numbers
each (non-negation node, polarity) pair the first time it meets it.  The
key is also the node's payload.  Guess and pick nodes are made once, by
their parent.  A challenge's outcomes depend on the guess only through its
entry at the picked arguments, so each application node shares one
outcome tuple among all guesses that agree there.

Payloads are tuples of ints, and successors tuples of ints or, for a fan
of guess or pick nodes, a `range`.  The cyclic garbage collector never
tracks a range and stops tracking such a tuple (nested tuples one level
per collection); still, full collections took some 5 % of the time of
the p = 2 counter corpus's full builds and solves.  The full build
expands nodes depth first from one stack of configurations and fans,
each fan a generator that expands its nodes from the last down.  A step
ends only where it pushed work, a configuration or a fan, which is
expanded before the next step; node numbers follow that order.  A pick
fan whose leaves all reuse outcomes pushes nothing: it is made whole in
its parent's step.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property

from . import denote, surface, syntax
from .errors import BoundBudgetError, GameLimitError, InternalError
from .lts import Lts
from .syntax import App, Dia, Formula, Lam, Mu, MuVec, Neg, Or, Prop, Var
from .types import PrType, arrows, fragment, tower, typecheck, uncurry

EXISTS = "exists"
FORALL = "forall"
WIN_E = "win_exists"
WIN_A = "win_forall"

DEFAULT_GAME_LIMIT = 10**7


@dataclass
class Game:
    """Node u has kind kinds[u], label data payloads[u] and successors
    edges[u], node indices in move order: a tuple, or a range for the
    guesses or picks of one fan.  Nodes may share one tuple (every
    terminal its empty one, and the challenge leaves with equal outcomes).

    A configuration's payload is its key, plain ints and tuples: (state,
    stack, (values, t)), with the argument indices on the stack, the values
    of formula t's sorted free variables, and t a position in `formulas`.
    A guess node's payload is the shared ("guess",), a pick node's the
    shared ("pick", k) for its k-th argument.  An unbuilt game's lists
    are all made at the first read of one, from `unbuilt`."""

    kinds: list
    payloads: list
    edges: list
    start: int
    formulas: list  # formula number t -> the formula
    order_arity: tuple  # `types.fragment` of the formula played
    unbuilt = None  # (builder inputs, start state) until the lists are built
    LISTS = ("kinds", "payloads", "edges", "start", "formulas")

    def __getattr__(self, name):
        # Reached only for an attribute not set: a list of an unbuilt game.
        if self.unbuilt is None or name not in self.LISTS:
            raise AttributeError(name)
        args, state = self.unbuilt
        vars(self).update(zip(self.LISTS, _Builder(*args).build(state)))
        self.unbuilt = None
        return vars(self)[name]

    @property
    def node_count(self):
        return len(self.kinds)

    @property
    def edge_count(self):
        return sum(len(e) for e in self.edges)


@dataclass
class Solution:
    """A solved game: the winner from its start, how many nodes the local
    solve settled to find it, and how many nodes and edges it had made.
    The winner of every node and the strategy are derived on their first
    read, on the built game (which builds it, if it is not yet)."""

    winner: str  # EXISTS or FORALL
    game: Game
    explored: int  # nodes `solve` settled
    nodes: int  # the built game's nodes and edges, or those made on demand
    edges: int

    @cached_property
    def winners(self) -> list:
        """Each node's winner, by backward induction over the whole game:
        it reads every edge, so it refuses every cycle and malformed node,
        also those the local solve did not reach."""
        game = self.game
        kinds, n = game.kinds, game.node_count
        return _settle(kinds, game.edges, range(n - 1, -1, -1), [None] * n)

    @cached_property
    def strategy(self) -> dict:
        """Node -> chosen successor, total on the winner's nodes: the
        first successor the winner wins, else (the node is lost) the
        first successor."""
        winner, winners, edges = self.winner, self.winners, self.game.edges
        return {u: next((v for v in edges[u] if winners[v] == winner),
                        edges[u][0])
                for u, k in enumerate(self.game.kinds) if k == winner}


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
    def __init__(self, lts, phi, limit, enum_limit, types=None):
        self.lts = lts
        self.phi = phi
        self.limit = limit
        self.enum_limit = enum_limit
        if types is None:  # phi is not checked yet
            for f in syntax.iter_nodes(phi):
                if isinstance(f, (Mu, MuVec)):
                    raise ValueError(
                        "game construction needs a fixpoint-free formula"
                    )
            types = {}
            if not isinstance(typecheck(phi, types_out=types), PrType):
                raise ValueError(
                    "game construction needs a formula of ground type")
        self.types: dict = types
        self.numbers: dict = {}  # (id(f), negated) -> t, f not a Neg
        self.formulas: list = []  # t -> the formula
        self.moves: list = []  # t -> how its configurations move, once known
        self.kinds: list = []
        self.payloads: list = []
        self.edges: list = []
        self.index: dict = {}  # configuration key -> node
        # A full build's configurations to expand, and fans (`guesses`,
        # `choices`); None in a solve on demand, which opens what it reads.
        self.pending = None
        self.used = 0
        self.winners: dict = {}  # a solve on demand's, which `force` reads

    def target(self, f: Formula, scope: tuple, negate=False) -> tuple:
        """The number t of f, negated if asked, and where each of its
        sorted free names sits in `scope`, the names whose values the
        parent configuration carries; None where that is all of `scope` in
        order, so that f's keys share the parent's values.  Leading
        negations fold into the polarity: one number per (non-negation
        node, polarity)."""
        while type(f) is Neg:
            f, negate = f.body, not negate
        key = (id(f), negate)
        t = self.numbers.get(key)
        if t is None:
            t = self.numbers[key] = len(self.formulas)
            self.formulas.append(Neg(f) if negate else f)
            self.moves.append(None)
        pos = tuple([scope.index(x) for x in sorted(f.fv)])
        return t, None if pos == tuple(range(len(scope))) else pos

    def widths(self, ty) -> tuple:
        """The entry widths of ty's successive results, with which
        `denote.entry_index` reads a value applied to arguments."""
        return tuple([denote.bits(a.result, self.lts.n) for a in arrows(ty)])

    def compile(self, t: int) -> tuple:
        """How configurations of formula t move: a tag and its data, in
        which each successor formula is a `target` in t's scope.

        An application's data: the targets of its function, argument and
        negated argument, its guess and pick domain sizes, the argument's
        entry widths and the pick payloads.  Domains are sized at the first
        expansion, the guess domain only in a full build (None on demand);
        each pick lattice is smaller than the guessed one.
        """
        f = self.formulas[t]
        scope = tuple(sorted(f.fv))
        # A negated configuration moves like its body (no Neg: see
        # `target`), with the players' roles swapped and every successor
        # negated.
        neg = isinstance(f, Neg)
        g = f.body if neg else f
        owner, win, lose = (FORALL, WIN_A, WIN_E) if neg else (EXISTS, WIN_E, WIN_A)
        if isinstance(g, Prop):
            return "prop", tuple([win if self.lts.has_prop(s, g.name)
                                  else lose for s in range(self.lts.n)])
        if isinstance(g, Var):
            return "var", (self.widths(self.types[id(g)]), win, lose)
        if isinstance(g, Or):
            return "or", (owner, self.target(g.left, scope, neg),
                          self.target(g.right, scope, neg))
        if isinstance(g, Dia):
            return "dia", (owner, lose, g.action,
                           self.target(g.body, scope, neg))
        if isinstance(g, Lam):
            return "lam", self.target(g.body, scope + (g.var,), neg)
        if isinstance(g, App):
            sigma = self.types[id(g.arg)]
            n, limit = self.lts.n, self.enum_limit
            # A full build enumerates the guesses, the biggest domain, so
            # it sizes them first; a solve on demand forces its guess (see
            # `force`) and sizes only the picks.
            guesses = (None if self.pending is None
                       else denote.lattice_size(sigma, n, limit))
            sizes = [guesses] + [denote.lattice_size(ty, n, limit)
                                 for ty in uncurry(sigma)]
            return "app", (self.target(g.func, scope, neg),
                           self.target(g.arg, scope),
                           self.target(g.arg, scope, True), sizes,
                           self.widths(sigma),
                           tuple([("pick", k) for k in range(len(sizes))]))
        raise InternalError(f"unhandled formula {f!r}")

    def charge(self):
        """Refuse the build if the nodes plus edges charged to `used` are
        past the limit.  Each step adds what it makes to `used` at once,
        and checks it, before it makes a domain's worth of nodes: it
        refuses in the step, and with the count, where counting one by one
        would.  A fan of leaves that all reuse outcomes is charged once."""
        if self.used > self.limit:
            try:
                estimate, refusal = size_bound_for(
                    self.phi, self.lts, fragment(self.types)), None
            except BoundBudgetError as e:
                estimate, refusal = None, e
            raise GameLimitError(self.limit + 1, self.limit, estimate, refusal)

    def fan(self, idx, payload, succs, cost=2) -> int:
        """Give idx new opponent successors with successors `succs` (None
        until filled), charged `cost` each; the first's index."""
        count = len(succs)
        self.used += cost * count
        if self.used > self.limit:
            self.charge()
        first = len(self.kinds)
        self.kinds.extend([FORALL] * count)
        self.payloads.extend([payload] * count)
        self.edges.extend(succs)
        self.edges[idx] = range(first, first + count)
        return first

    def config(self, state, stack, values, target):
        """The node for `state` in formula t applied to `stack`.

        `target` is t with the positions of its free names in the parent's
        scope, whose values are `values`; `stack` is a tuple of argument
        indices.  The key's last part is what t's configurations read: the
        values of its free variables only, and t.
        """
        t, pos = target
        key = (state, stack, (values if pos is None else
                              tuple([values[p] for p in pos]), t))
        got = self.index.get(key)
        return self.add(key) if got is None else got

    def add(self, key) -> int:
        """A new configuration node under `key`, its payload too, queued
        for expansion in a full build."""
        got = self.index[key] = len(self.kinds)
        self.kinds.append(None)
        self.payloads.append(key)
        self.edges.append(None)
        self.used += 1
        if self.pending is not None:
            self.pending.append(got)
        return got

    def begin(self, start_state) -> int:
        """The start node, charged."""
        start = self.config(start_state, (), (), self.target(self.phi, ()))
        self.charge()
        return start

    def build(self, start_state) -> tuple:
        """The whole game from `start_state`: its lists, in `Game.LISTS`
        order."""
        pending = self.pending = []
        try:
            start = self.begin(start_state)
            while pending:
                item = pending[-1]
                if type(item) is int:
                    pending.pop()
                    self.expand_config(item)
                elif next(item, True):  # a fan with no step left
                    pending.pop()
        finally:
            # Suspended fans hold the builder: drop them, so that a refused
            # build is freed without a cyclic collection.
            pending.clear()
        return self.kinds, self.payloads, self.edges, start, self.formulas

    def expand_config(self, idx):
        state, stack, (values, t) = self.payloads[idx]
        entry = self.moves[t]
        if entry is None:
            entry = self.moves[t] = self.compile(t)
        tag, data = entry
        config = self.config
        if tag == "or":
            kind = data[0]
            out = (config(state, (), values, data[1]),
                   config(state, (), values, data[2]))
        elif tag == "lam":
            kind, out = EXISTS, (config(state, stack[1:],
                                        values + (stack[0],), data),)
        elif tag == "app":
            if self.pending is None:  # on demand the guess is forced
                self.force(idx, state, stack, values, data)
                return
            # The proponent guesses the argument.  The last key parts (see
            # `config`) of the function, and of the argument and negated
            # argument, which challenges read.
            part, *parts = [(values if pos is None else
                             tuple([values[p] for p in pos]), u)
                            for u, pos in data[:3]]
            self.kinds[idx] = EXISTS
            self.pending.append(
                self.guesses(idx, (state, stack, part, parts, data)))
            return
        elif tag == "var":
            widths, win, lose = data
            val = values[0]
            for a, w in zip(stack, widths):
                val = denote.entry_index(val, a, w)
            kind, out = (win if val >> state & 1 else lose), ()
        elif tag == "dia":
            succs = self.lts.successors(state, data[2])
            kind = data[0] if succs else data[1]
            out = tuple([config(s, (), values, data[3]) for s in succs])
        else:
            kind, out = data[state], ()
        self.kinds[idx] = kind
        self.edges[idx] = out
        self.used += len(out)
        if self.used > self.limit:
            self.charge()

    def guess(self, idx, key, payload) -> int:
        """Give guess node idx its moves: to the function's configuration
        under `key`, and to a new challenge root with `payload`, returned."""
        function = self.index.get(key)
        if function is None:
            function = self.add(key)
        root = len(self.kinds)
        self.kinds.append(FORALL)
        self.payloads.append(payload)
        self.edges.append(None)
        self.edges[idx] = (function, root)
        self.used += 3
        if self.used > self.limit:
            self.charge()
        return root

    def guesses(self, idx, app):
        """Application node idx's fan of guesses, from the last down: the
        opponent pushes guess gi onto the function's stack, or challenges
        it at a pick root.  A step ends only where it pushed work."""
        state, stack, part, parts, data = app
        _, _, _, sizes, _, picks = data
        first = self.fan(idx, _GUESS, [None] * sizes[0])
        outcomes: dict = {}  # challenge outcomes guesses share (`pick_fan`)
        edges, pending = self.edges, self.pending
        depth = len(pending)
        ground = len(sizes) == 1
        for gi in range(sizes[0] - 1, -1, -1):
            root = self.guess(first + gi, (state, (gi,) + stack, part),
                              picks[0])
            if ground:  # a ground argument: the root picks the state at once
                edges[root] = out = self.challenge(parts, (), gi)
                self.used += len(out)
                if self.used > self.limit:
                    self.charge()
            else:
                self.pick_fan(root, data, outcomes, parts, gi, ())
            if len(pending) != depth:
                yield

    def pick_fan(self, idx, data, outcomes, parts, gi, hs):
        """Give pick node idx its fan of the choices of the next argument,
        for guess gi challenged at arguments hs so far.  A fan of the last
        argument's choices, leaves whose edges are outcomes, that all reuse
        outcomes is made whole here; any other is left to `choices`."""
        _, _, _, sizes, widths, picks = data
        k = len(hs) + 1
        leaves = k + 1 == len(sizes)
        if not leaves:
            self.fan(idx, picks[k], [None] * sizes[k])
        else:
            for a, w in zip(hs, widths):
                gi = denote.entry_index(gi, a, w)
            w = widths[-1]
            mask = (1 << w) - 1
            # The outcomes depend on the guess only through its value at
            # the picked arguments: the guesses that agree there share them.
            shared = outcomes.get(hs)
            if shared is None:
                shared = outcomes[hs] = {}
            outs = [shared.get(hi << w | gi >> hi * w & mask)
                    for hi in range(sizes[k])]
            if None not in outs:
                self.fan(idx, picks[k], outs, 2 + self.lts.n)
                return
            self.fan(idx, picks[k], outs)
            outcomes = shared
        self.pending.append(
            self.choices(idx, data, outcomes, parts, gi, hs, leaves))

    def choices(self, idx, data, outcomes, parts, gi, hs, leaves):
        """The choices of pick node idx's fan, made by `pick_fan`, from the
        last down; a step ends only where it pushed work.  Before the last
        argument each choice gets its own fan.  In a fan of `leaves` each
        is charged in turn; one with no outcome yet (None) challenges gi,
        the guess's entry at hs, and records the outcome in `outcomes`."""
        pending = self.pending
        depth = len(pending)
        edges = self.edges
        choice = edges[idx]
        w = data[4][-1]
        for hi in range(len(choice) - 1, -1, -1):
            if not leaves:
                self.pick_fan(choice[hi], data, outcomes, parts, gi,
                              hs + (hi,))
            else:
                if edges[choice[hi]] is None:
                    g = denote.entry_index(gi, hi, w)
                    edges[choice[hi]] = outcomes[hi << w | g] = (
                        self.challenge(parts, hs + (hi,), g))
                self.used += self.lts.n
                if self.used > self.limit:
                    self.charge()
            if len(pending) != depth:
                yield

    def challenge(self, parts, picked, g) -> tuple:
        """Where a challenge at arguments `picked` of a guess whose value
        there is g leads: the opponent picks a state t and the argument,
        negated unless t is in g, continues at t.  `parts` are the last
        key parts of the argument and the negated argument."""
        part, negpart = parts
        index = self.index
        out = []
        for t in range(self.lts.n):
            key = (t, picked, part if g >> t & 1 else negpart)
            got = index.get(key)
            out.append(self.add(key) if got is None else got)
        return tuple(out)

    def force(self, idx, state, stack, values, data):
        """Make application node idx's moves in a solve on demand, in two
        calls (see the module docstring).  The first makes the argument's
        configurations at every pick tuple hs and state t, which `_settle`
        reads in full, and holds them as idx's edges until the second: once
        they are settled, that makes idx's one move, to the function's
        configuration at g*, whose bit sum(h_i * w_i) + t is set where the
        proponent wins the argument at (t, hs).  Pick tuples run in
        lexicographic order and t fastest, so the b-th configuration of
        the first call holds bit b."""
        func, arg, _, sizes, _, _ = data
        edges, config = self.edges, self.config
        args = edges[idx]
        if args is None:
            states = range(self.lts.n)
            args = []
            for hs in itertools.product(*map(range, sizes[1:])):
                args += [config(t, hs, values, arg) for t in states]
                if self.used > self.limit:
                    self.charge()
            edges[idx] = tuple(args)
            return
        winners = self.winners
        g = int("".join(["1" if winners[v] is EXISTS else "0"
                         for v in reversed(args)]), 2)
        self.kinds[idx] = EXISTS
        edges[idx] = (config(state, (g,) + stack, values, func),)
        self.used += 1
        if self.used > self.limit:
            self.charge()

    def open(self, v) -> tuple:
        """Configuration v's kind and moves, made in a solve on demand when
        it first reads v, as the full build makes them but for node numbers
        and applications, whose guess is forced (`force`): a kind None
        until the argument is settled."""
        self.expand_config(v)
        return self.kinds[v], self.edges[v]


def build_game(lts: Lts, start_state: int, phi: Formula,
               limit: int = DEFAULT_GAME_LIMIT,
               enum_limit: int = denote.DEFAULT_ENUM_LIMIT) -> Game:
    """The model-checking game for a closed, fixpoint-free ground formula,
    checked now and returned unbuilt (see `Game`).

    Configurations are hash-consed so shared subformulas share subgames.
    The build, and a solve on demand, count nodes plus edges as they go
    and stop with the closed-form estimate attached once the count passes
    `limit`.
    """
    if not 0 <= start_state < lts.n:
        raise ValueError(f"state {start_state} out of range")
    types = _Builder(lts, phi, limit, enum_limit).types
    game = Game.__new__(Game)
    game.order_arity = fragment(types)
    game.unbuilt = (lts, phi, limit, enum_limit, types), start_state
    return game


def solve(game: Game) -> Solution:
    """The winner from the start, settling only the nodes it needs: the
    local model checking of Stevens & Stirling ("Practical model-checking
    using games", TACAS 1998).  Each node reads its moves last first and
    stops at the first one its owner wins; the order comes from the game
    alone.  On the built counter corpus at p = 2 it settles under 1 % of
    the nodes of the biggest games, against about a fifth in builder order.

    A game not yet built is made on demand, node by node as the solve
    reads it, under the game's limit, and each application's guess is
    forced (see the module docstring): it settles 206 nodes of forall(eq
    max) from each state, against 2,425 on the built game.  A local solve
    sees only the cycles and malformed nodes among the moves it reads, and
    refuses those; the builder's games have none, as every move shrinks
    the formula.  `Solution.winners` runs the full pass on the built game,
    which reads every edge."""
    if game.unbuilt is None:
        winners = _settle(game.kinds, game.edges, (game.start,), {})
        return Solution(winners[game.start], game, len(winners),
                        game.node_count, game.edge_count)
    args, state = game.unbuilt
    play = _Builder(*args)
    start = play.begin(state)
    winners = _settle(play.kinds, play.edges, (start,), play.winners,
                      play.open)
    made = len(play.kinds)
    return Solution(winners[start], game, len(winners), made, play.used - made)


def _settle(kinds, edges, roots, winners, expand=None):
    """Each node's winner in `winners`, an empty dict for a local solve or
    one None per node: depth first from each root in turn, on an explicit
    stack of open nodes.  A node reads its moves last first, settling a
    terminal at once and opening any other node it has not settled;
    reaching an open node again is a cycle.  An open node settles once its
    moves are read, or, if local, once its owner wins one; it wins if its
    owner wins a move.  Read in full this is backward induction, linear in
    nodes plus edges.  Moves still None come from `expand`, which gives a
    node's kind and moves; a kind None (an application's argument, see
    `_Builder.force`) has its moves read in full, as the roots are, and
    then `expand` gives the node's own."""
    local = type(winners) is dict
    read = winners.get if local else winners.__getitem__  # False while open
    # Each open node, deepest last, as [node, owner, its unread moves,
    # whether its owner wins one read so far]; the bottom entry reads the
    # roots and belongs to no one.
    stack: list = [[None, None, iter(roots), False]]
    while True:
        frame = stack[-1]
        u, owner, unread, wins = frame
        if not (wins and local):
            for v in unread:
                won = read(v)
                if won is None:
                    k, succs = kinds[v], edges[v]
                    if succs is None:
                        k, succs = expand(v)
                    if k == WIN_E or k == WIN_A:
                        if succs:
                            raise InternalError(
                                "terminal node with outgoing edges")
                        won = winners[v] = EXISTS if k == WIN_E else FORALL
                    elif not succs:
                        raise InternalError("non-terminal node without moves")
                    else:  # open v
                        winners[v] = False
                        frame[3] = wins
                        stack.append([v, _owner(k), reversed(succs), False])
                        break
                elif won is False:
                    raise InternalError(
                        "game graph has a cycle; plays must be finite")
                if won is owner:
                    wins = True
                    if local:
                        break
            if stack[-1] is not frame:  # read v's moves first
                continue
        if u is None:  # every root is settled
            return winners
        if owner is None:  # u's argument is settled: read u's own moves
            k, succs = expand(u)
            frame[1:] = _owner(k), reversed(succs), False
            continue
        won = owner if wins else FORALL if owner is EXISTS else EXISTS
        winners[u] = won
        stack.pop()
        if stack[-1][1] is won:  # u was its parent's last move read
            stack[-1][3] = True


def _owner(kind):
    """Who chooses at a node of `kind` that has moves; None for a node
    whose moves are read in full."""
    return None if kind is None else EXISTS if kind == EXISTS else FORALL


# ---------------------------------------------------------------------------
# Export


def _node_labels(game: Game):
    """Each node's label in node order, read off its payload: the shared
    ("guess",) or ("pick", k) marker, else a configuration's key (state,
    stack, (values, t)).  Each formula t is printed once, however many
    configurations hold it."""
    texts: dict = {}  # t -> game.formulas[t] printed, cut to 40 characters
    for payload in game.payloads:
        if payload[0] == "guess":
            yield "guess"
        elif payload[0] == "pick":
            yield f"pick {payload[1]}"
        else:
            state, stack, (_, t) = payload
            if t not in texts:
                text = surface.print_formula(game.formulas[t])
                texts[t] = text if len(text) <= 40 else text[:37] + "..."
            args = f" ({len(stack)} args)" if stack else ""
            yield f"{state}{args} |- {texts[t]}"


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
