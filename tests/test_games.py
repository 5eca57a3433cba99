"""Game construction, solving, exports, and the checking pipeline."""

import functools
import gc
import hashlib
import itertools
import json
import random
import tracemalloc
import weakref

import pytest

from hflcheck.denote import DEFAULT_ENUM_LIMIT
from hflcheck.encodings import bit_formula, chi_formula, counter_formula
from hflcheck.errors import (
    BudgetError,
    EnumLimitError,
    GameLimitError,
    HflError,
    InternalError,
    VarianceError,
)
from hflcheck.games import (
    DEFAULT_GAME_LIMIT,
    EXISTS,
    FORALL,
    WIN_A,
    WIN_E,
    Game,
    _Builder,
    build_game,
    export_game,
    game_size_bound,
    solve,
)
from hflcheck.lts import gen_chain, gen_counter_lts, gen_word_lts, make_lts
from hflcheck.pipeline import check_via_games
from hflcheck.semantics import EvalConfig, eliminate_fixpoints, evaluate, holds
from hflcheck.surface import parse_formula
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
    _closure_reps,
    apply_all,
    children,
    dag_size,
    desugar_vec,
    ff,
    fold,
    free_vars,
    rebuild,
    tt,
)
from hflcheck.types import PR, Arrow, Variance, typecheck

import oracles
import randgen

Z = Variance.ZERO


def test_prop_terminal():
    lts = make_lts(1, [], [(0, "q")])
    game = build_game(lts, 0, Prop("q"))
    assert game.node_count == 1
    assert game.kinds[game.start] == WIN_E
    game = build_game(lts, 0, Prop("p"))
    assert game.kinds[game.start] == WIN_A


def test_stuck_diamond_loses_for_proponent():
    lts = gen_chain(1)  # deadlocked single state
    game = build_game(lts, 0, Dia("a", tt()))
    assert game.node_count == 1
    assert game.kinds[game.start] == WIN_A
    # and the dual stuck box wins for the proponent
    game = build_game(lts, 0, Neg(Dia("a", tt())))
    assert game.kinds[game.start] == WIN_E


def test_solve_trivial():
    lts = make_lts(1, [], [(0, "q")])
    assert solve(build_game(lts, 0, Prop("q"))).winner == EXISTS


def test_opponent_picks_losing_branch():
    # !(q | p) at a state where q holds but p does not: opponent picks !q? no,
    # picks the refutable side; here q holds so !q loses, !p wins for them
    lts = make_lts(1, [], [(0, "q")])
    game = build_game(lts, 0, Neg(Or(Prop("q"), Prop("p"))))
    assert game.kinds[game.start] == FORALL
    assert solve(game).winner == FORALL


def test_game_requires_fixpoint_free_ground():
    lts = gen_chain(2)
    with pytest.raises(ValueError):
        build_game(lts, 0, Mu("X", PR, Var("X")))
    with pytest.raises(ValueError):
        build_game(lts, 0, Lam("X", Z, PR, Var("X")))


def test_game_limit_carries_estimate():
    # Guessing a Pr -> Pr table over two states takes 256 guesses, each
    # challenged at 4 arguments; 1,008 of the 1,024 challenge leaves reuse
    # the outcome list of an earlier guess that agrees there.  The count
    # passes limits 623, 624 and 626 on reused edges, within a run of such
    # leaves, and reused edges count like new ones up to the last move.
    lts = make_lts(2, [(0, "a", 1), (1, "a", 0)], [(0, "q")])
    phi = App(Lam("F", Z, Arrow(PR, Z, PR), App(Var("F"), Prop("q"))),
              Lam("X", Z, PR, Dia("a", Var("X"))))
    for limit in (0, 1, 3, 7, 100, 623, 624, 626, 14_420):
        with pytest.raises(GameLimitError) as err:
            build_game(lts, 0, phi, limit=limit).node_count
        assert err.value.actual == limit + 1
        assert err.value.estimate >= err.value.limit == limit
    game = build_game(lts, 0, phi, limit=14_421)
    assert (game.node_count, game.edge_count) == (5_173, 9_248)
    # At order 3 the closed-form bound is refused even on one state: the
    # builder still reports its limit, with the refusal for the estimate.
    loop = make_lts(1, [(0, "a", 0)], [(0, "q")])
    pr_pr = Arrow(PR, Z, PR)
    order3 = App(Lam("K", Z, Arrow(pr_pr, Z, PR),
                     App(Var("K"), Lam("Y", Z, PR, Dia("a", Var("Y"))))),
                 Lam("F", Z, pr_pr, App(Var("F"), Prop("q"))))
    with pytest.raises(GameLimitError) as err:
        build_game(loop, 0, order3, limit=5).node_count
    assert (err.value.actual, err.value.limit, err.value.estimate) == (6, 5, None)
    assert str(err.value).startswith(
        "game grew past 5 (at 6); closed-form estimate over budget (bound "
        "astronomically large: tower(9,3)")


def test_guess_domain_past_enum_limit_is_refused():
    # The guessed argument has type Pr -> Pr: 4**4 = 256 tables over two
    # states, so the builder refuses below that limit and builds at it.
    lts = make_lts(2, [(0, "a", 1), (1, "a", 0)], [(0, "q")])
    phi = App(Lam("F", Z, Arrow(PR, Z, PR), App(Var("F"), Prop("q"))),
              Lam("X", Z, PR, Dia("a", Var("X"))))
    with pytest.raises(EnumLimitError) as err:
        build_game(lts, 0, phi, enum_limit=255).node_count
    assert (err.value.cardinality, err.value.limit) == (256, 255)
    assert solve(build_game(lts, 0, phi, enum_limit=256)).winner == FORALL
    assert solve(build_game(lts, 1, phi, enum_limit=256)).winner == EXISTS


def test_check_via_games_examples():
    lts = make_lts(3, [(0, "a", 1), (1, "a", 2)], [(2, "q")])
    phi = Mu("X", PR, Or(Prop("q"), Dia("a", Var("X"))))
    assert check_via_games(lts, 0, phi) is True
    assert check_via_games(gen_chain(1), 0, tt()) is True
    assert check_via_games(gen_chain(1), 0, ff()) is False


def test_holds_and_games_refuse_bad_queries_alike():
    # Both procedures run the same query check before any evaluation: a
    # state outside the model and a formula that is not of type Pr are
    # refused with the error `hflcheck check` prints.
    lts = gen_chain(2)
    reach = Mu("X", PR, Or(Prop("q"), Dia("a", Var("X"))))
    for state, phi, message in (
        (2, reach, "state 2 out of range"),
        (-1, reach, "state -1 out of range"),
        (0, Lam("X", Variance.PLUS, PR, Var("X")),
         "formula has type Pr^+ -> Pr, not Pr"),
    ):
        for decide in (holds, check_via_games):
            with pytest.raises(HflError) as err:
                decide(lts, state, phi)
            assert (type(err.value), str(err.value)) == (HflError, message)


def test_holds_and_games_type_a_vector_fixpoint_as_written():
    # Y occurs negatively in X's component: the system is not monotone and
    # both procedures refuse it, though its Bekic form would type.
    lts = make_lts(2, [(0, "a", 1)], [(1, "q")])
    vec = MuVec(1, (("X", PR, Neg(Var("Y"))), ("Y", PR, Prop("q"))))
    assert typecheck(desugar_vec(vec)) == PR
    for decide in (holds, check_via_games):
        with pytest.raises(VarianceError) as err:
            decide(lts, 0, vec)
        assert str(err.value) == "variable Y used at negative variance"


def test_check_via_games_buffer_single_out():
    from hflcheck.encodings import buffer_formula

    word = ("out",)
    got = check_via_games(gen_word_lts(word), 0, buffer_formula())
    assert got == oracles.buffer_oracle(word)


def test_solved_game_assigns_every_node():
    rng = random.Random(6)
    for _ in range(50):
        lts = randgen.random_lts(rng, 2)
        phi = randgen.random_hfl_formula(rng, randgen.HoGenConfig(max_depth=3))
        try:
            flat = eliminate_fixpoints(desugar_vec(phi), lts, 64)
            game = build_game(lts, 0, flat, 10**5)
            winners = solve(game).winners  # the full build
        except BudgetError:
            continue
        assert all(w in (EXISTS, FORALL) for w in winners)
        oracles.topological_order(game)  # acyclic


def test_strategy_replay_fuzz():
    rng = random.Random(7)
    games_done = 0
    made = (0, 0, 0)
    while games_done < 60:
        lts = randgen.random_lts(rng, 2)
        phi = randgen.random_hfl_formula(rng, randgen.HoGenConfig(max_depth=3))
        try:
            flat = eliminate_fixpoints(desugar_vec(phi), lts, 64)
            game = build_game(lts, 0, flat, 10**5)
            sol = solve(game)
            game.node_count  # the full build, which the replays read
        except BudgetError:
            continue
        made = _sum(made, _assert_on_demand_solve_agrees(
            functools.partial(build_game, lts, 0, flat, 10**5)))
        own = EXISTS if sol.winner == EXISTS else FORALL
        for _ in range(10):
            node = game.start
            while game.kinds[node] not in (WIN_E, WIN_A):
                if game.kinds[node] == own:
                    node = sol.strategy[node]
                else:
                    node = rng.choice(game.edges[node])
            won_by = EXISTS if game.kinds[node] == WIN_E else FORALL
            assert won_by == sol.winner
        games_done += 1
    # Nodes settled, and nodes and edges made, by the solves on demand,
    # which force each guess; reading every guess last first, they settled
    # 2,113 and made 4,337 and 5,657.
    assert made == (229, 269, 178)


def _random_instances(seed, count):
    """`count` (system, fixpoint-free formula, game from state 0) triples
    over random 2-state systems and formulas, drawn with the strategy
    replay fuzz's generator and budgets."""
    rng = random.Random(seed)
    while count:
        lts = randgen.random_lts(rng, 2)
        phi = randgen.random_hfl_formula(rng, randgen.HoGenConfig(max_depth=3))
        try:
            flat = eliminate_fixpoints(desugar_vec(phi), lts, 64)
            game = build_game(lts, 0, flat, 10**5)
            game.node_count  # the full build, which every caller reads
        except BudgetError:
            continue
        yield lts, flat, game
        count -= 1


def _random_games(seed, count):
    return (game for _, _, game in _random_instances(seed, count))


def _assert_solves_like_reference(game):
    got, want = solve(game), oracles.reference_solve(game)
    assert (got.winner, got.winners, got.strategy) == (
        want.winner, want.winners, want.strategy)


def test_solve_matches_reference_solve_on_random_games():
    for game in _random_games(7, 200):
        _assert_solves_like_reference(game)


@pytest.mark.parametrize("name,i,j", [("eq", 0, 3), ("gt", 1, 3)],
                         ids=["eq(0,3)", "gt(1,3)"])
def test_solve_matches_reference_solve_on_small_corpus_games(name, i, j):
    lts, fp_free = _counter_corpus_game(name, i, j)
    for state in range(lts.n):
        _assert_solves_like_reference(build_game(lts, state, fp_free))


def test_local_solve_matches_reference_solve_on_random_games():
    # The winner comes from the local solve alone: no full pass has run.
    for game in _random_games(7, 200):
        sol = solve(game)
        assert "winners" not in vars(sol)
        assert sol.winner == oracles.reference_solve(game).winner
        assert 1 <= sol.explored <= game.node_count


@pytest.mark.parametrize("args,explored,built,nodes", [
    (("gt", 1, 3), 44, 88, 858),
    (("eq", 0, 3), 22, 51, 253),
    (("exists",), 200, 867, 107_989),
    (("forall",), 206, 2_425, 505_813),
], ids=["gt(1,3)", "eq(0,3)", "exists(eq max)", "forall(eq max)"])
def test_local_solve_explored_counts_are_pinned(args, explored, built, nodes):
    # A solve on demand, which forces each guess, settles `explored` nodes
    # from each start.  On the built game, reading moves last first settles
    # `built`; in builder order a local solve settles 511 of gt(1,3)'s,
    # 167 of eq(0,3)'s, 17,295 of exists(eq max)'s and 121,591 (state 0)
    # of forall(eq max)'s.
    lts, fp_free = _counter_corpus_game(*args)
    for state in range(lts.n):
        game = build_game(lts, state, fp_free)
        assert solve(game).explored == explored
        assert (game.node_count, solve(game).explored) == (nodes, built)
        del game


def test_solve_allocates_only_its_winners():
    # `solve` keeps one winner per settled node (a dict entry) and derives
    # no strategy; a node -> move table would cost some 50 bytes a node.
    lts, fp_free = _counter_corpus_game("gt", 1, 3)
    game = build_game(lts, 0, fp_free)
    assert game.node_count == 858
    tracemalloc.start()
    try:
        solve(game)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * game.node_count + 4096, peak


def _hand_game(kinds, edges):
    return Game(kinds, [None] * len(kinds), [tuple(e) for e in edges], 0,
                [], (0, 0))


@pytest.mark.parametrize("kinds,edges,message", [
    ([EXISTS, WIN_E, WIN_A], [[1], [2], []],
     "terminal node with outgoing edges"),
    ([FORALL, EXISTS, WIN_E], [[1, 2], [], []],
     "non-terminal node without moves"),
    ([EXISTS, FORALL], [[1], [0]],
     "game graph has a cycle; plays must be finite"),
    # The cycle runs through a move its owner would not take: node 0 wins
    # by its first move, to the terminal.
    ([EXISTS, FORALL, WIN_E], [[2, 1], [0], []],
     "game graph has a cycle; plays must be finite"),
], ids=["terminal-with-moves", "stuck-non-terminal", "cycle",
        "cycle-past-a-winning-move"])
def test_solve_refuses_malformed_games(kinds, edges, message):
    game = _hand_game(kinds, edges)
    for decide in (solve, oracles.reference_solve):
        with pytest.raises(InternalError) as err:
            decide(game)
        assert str(err.value) == message


def test_local_solve_reads_no_cycle_behind_a_winning_move():
    # Node 0's last move wins at once, so the local solve never reads the
    # cycle behind its first; the full pass reads every edge.
    game = _hand_game([EXISTS, FORALL, WIN_E], [[1, 2], [0], []])
    sol = solve(game)
    assert (sol.winner, sol.explored) == (EXISTS, 2)
    with pytest.raises(InternalError) as err:
        sol.winners
    assert str(err.value) == "game graph has a cycle; plays must be finite"


def test_game_agrees_with_eval_random():
    rng = random.Random(8)
    agree = 0
    while agree < 200:
        lts = randgen.random_lts(rng, 3)
        phi = randgen.random_hfl_formula(rng, randgen.HoGenConfig(max_depth=4))
        state = rng.randrange(lts.n)
        try:
            via_games = check_via_games(lts, state, phi, game_limit=10**6,
                                        unfold_budget=600)
        except BudgetError:
            continue
        assert via_games == holds(lts, state, phi)
        agree += 1


def test_node_shared_under_two_typings_is_never_misjudged():
    # One Var object, of type Pr^0 -> Pr on the left and Pr on the right.
    # The builder reads entry widths by node identity, so it may refuse
    # this formula, but it must never read the wrong widths and say False.
    x = Var("X")
    phi = App(Lam("X", Z, Arrow(PR, Z, PR), App(x, Prop("p"))),
              Lam("X", Z, PR, x))  # means p
    lts = make_lts(2, [(0, "a", 1)], [(0, "p")])
    assert holds(lts, 0, phi)
    try:
        assert check_via_games(lts, 0, phi) is True
    except HflError:
        pass


def test_verdicts_do_not_depend_on_shared_closed_subformulas():
    # Configurations are keyed by node identity, so sharing may change a
    # game's size; it must not change any procedure's verdict.
    rng = random.Random(11)
    gained = games = 0
    for _ in range(300):
        lts = randgen.random_lts(rng, 2)
        phi = randgen.random_hfl_formula(
            rng, randgen.HoGenConfig(max_depth=4, tabulate_safe=True))
        twin = oracles.share_closed(phi)
        gained += dag_size(twin) < dag_size(phi)
        want = evaluate(lts, phi)
        for engine in ("demand", "tabulate"):
            assert evaluate(lts, twin, cfg=EvalConfig(engine=engine)) == want
        state = rng.randrange(lts.n)
        try:
            got = check_via_games(lts, state, twin, game_limit=10**5,
                                  unfold_budget=64)
            flat = eliminate_fixpoints(desugar_vec(phi), lts, 64)
            game = build_game(lts, state, oracles.share_closed(flat), 10**5)
            shared = solve(game).winner == EXISTS
        except BudgetError:
            continue
        assert got == bool(want.mask >> state & 1)
        assert shared == got
        games += 1
    assert gained > 150 and games > 250


def _binders_reusing_x_and_y(phi, rng):
    """An alpha-variant of phi whose binders are named X or Y wherever
    that captures no variable, so that inner binders shadow outer ones."""
    def go(f, env):
        if isinstance(f, Var):
            return Var(env.get(f.name, f.name))
        if isinstance(f, (Lam, Mu)):
            taken = {env.get(x, x) for x in f.body.fv - {f.var}}
            names = [x for x in ("X", "Y") if x not in taken]
            name = rng.choice(names) if names else f.var
            body = go(f.body, {**env, f.var: name})
            if isinstance(f, Lam):
                return Lam(name, f.variance, f.ty, body)
            return Mu(name, f.ty, body)
        return rebuild(f, [go(kid, env) for kid in children(f)])

    return go(phi, {})


def _over_p(phi):
    """(\\(P:Pr)^0. phi') p, where phi' is phi with P for p: the same
    formula, with a binder above it, so that its fixpoints that read p
    have a free variable, which elimination must not let a lambda of the
    same name capture."""
    body = fold(phi, lambda f, kids: Var("P") if f == Prop("p")
                else rebuild(f, kids))
    return App(Lam("P", Z, PR, body), Prop("p"))


def _shadows(f, bound=frozenset()) -> bool:
    """Whether some binder of f lies under a binder of the same name."""
    if isinstance(f, (Lam, Mu)):
        if f.var in bound:
            return True
        bound |= {f.var}
    return any(_shadows(kid, bound) for kid in children(f))


def test_verdicts_do_not_depend_on_colliding_binder_names():
    # The generator names every binder apart; the variant of the formula
    # over p reuses X and Y, which elimination, the closure and the
    # builder must keep apart.
    rng = random.Random(12)
    shadowing = games = 0
    for depth in [4] * 250 + [5] * 250:
        lts = randgen.random_lts(rng, 2)
        phi = randgen.random_hfl_formula(
            rng, randgen.HoGenConfig(max_depth=depth, tabulate_safe=True))
        twin = _binders_reusing_x_and_y(_over_p(phi), rng)
        assert oracles.alpha_eq(twin, _over_p(phi))
        shadowing += _shadows(twin)
        want = evaluate(lts, phi)
        state = rng.randrange(lts.n)
        for f in (phi, twin):
            for engine in ("demand", "tabulate"):
                assert evaluate(lts, f, cfg=EvalConfig(engine=engine)) == want
            try:
                got = check_via_games(lts, state, f, game_limit=10**5,
                                      unfold_budget=64)
            except BudgetError:
                continue
            assert got == bool(want.mask >> state & 1)
            games += 1
    assert shadowing > 200 and games > 900


class _WeakProp(Prop):
    """A proposition leaf that can be referenced weakly."""


def test_no_module_table_keeps_a_formula_alive():
    leaf = _WeakProp("q")
    ref = weakref.ref(leaf)
    lts = make_lts(2, [(0, "a", 1), (1, "a", 1)], [(1, "q")])
    step = Lam("X", Z, PR, Or(leaf, Dia("a", Var("X"))))
    phi = App(step, Mu("Y", PR, Or(leaf, Dia("a", Var("Y")))))
    assert free_vars(step.body) == {"X"}
    assert evaluate(lts, phi).mask == 0b11
    assert check_via_games(lts, 0, phi)
    del leaf, step, phi
    gc.collect()
    assert ref() is None


def test_eliminated_game_matches_direct_evaluation():
    rng = random.Random(9)
    done = 0
    while done < 80:
        lts = randgen.random_lts(rng, 2)
        phi = randgen.random_hfl_formula(rng, randgen.HoGenConfig(max_depth=3))
        try:
            flat = eliminate_fixpoints(desugar_vec(phi), lts, 64)
            won = solve(build_game(lts, 0, flat, 10**5)).winner == EXISTS
        except BudgetError:
            continue
        assert won == holds(lts, 0, flat)
        done += 1


def test_size_bound_convention_k1():
    # at order 1 the leading type-count factor degrades to the arity
    assert game_size_bound(2, 3, 1, 1, 0) == 4 * 4 * 9 * (1 * 4) ** 2
    assert game_size_bound(2, 3, 0, 0, 0) == 4 * 4 * 9


def test_export_dot_single_node():
    lts = make_lts(1, [], [(0, "q")])
    game = build_game(lts, 0, Prop("q"))
    dot = export_game(game, "dot")
    assert dot.startswith("digraph")
    assert dot.count("n0") >= 1


def test_export_json_winners_and_counts():
    lts = make_lts(2, [(0, "a", 1)], [(1, "q")])
    game = build_game(lts, 0, Dia("a", Prop("q")))
    sol = solve(game)
    doc = json.loads(export_game(game, "json", sol))
    assert doc["schema"] == "hflcheck-game-v1"
    assert len(doc["nodes"]) == game.node_count
    assert len(doc["edges"]) == game.edge_count
    assert all(n["winner"] in (EXISTS, FORALL) for n in doc["nodes"])
    assert doc["winner"] == EXISTS


def test_export_json_deterministic():
    lts = make_lts(2, [(0, "a", 1), (0, "a", 0)], [(1, "q")])
    phi = Or(Dia("a", Prop("q")), Prop("p"))
    one = export_game(build_game(lts, 0, phi), "json", solve(build_game(lts, 0, phi)))
    two = export_game(build_game(lts, 0, phi), "json", solve(build_game(lts, 0, phi)))
    assert one == two


def _counter_corpus_game(name, i=None, j=None, p=2):
    """The counter model and the eliminated formula of a corpus entry:
    `name` of numerals i and j, or `name` (exists or forall) over the
    `eq ... max` predicate."""
    lts = gen_counter_lts(p)
    if i is None:
        pred = Lam("W", Z, PR, apply_all(counter_formula("eq", 0, p),
                                         Var("W"),
                                         counter_formula("max", 0, p)))
        phi = App(counter_formula(name, 0, p), pred)
    else:
        phi = apply_all(counter_formula(name, 0, p), chi_formula(i, 0, p),
                        chi_formula(j, 0, p))
    flat = desugar_vec(phi)
    typecheck(flat)
    return lts, eliminate_fixpoints(flat, lts)


def _small_counter_corpus(p=2):
    """The counter model and the eliminated formulas of the corpus entries
    but the two quantified ones: each bit, and each comparison of two
    numerals."""
    lts = gen_counter_lts(p)
    phis = [bit_formula(i, p) for i in range(2**p)] + [
        apply_all(counter_formula(name, 0, p), chi_formula(i, 0, p),
                  chi_formula(j, 0, p))
        for i in range(2**p) for j in range(2**p)
        for name in ("eq", "lt", "gt")]
    out = []
    for phi in phis:
        flat = desugar_vec(phi)
        typecheck(flat)
        out.append(eliminate_fixpoints(flat, lts))
    return lts, out


def test_game_limit_is_exact_on_small_corpus_games():
    # A build charges what each step adds before it adds it, so a limit
    # of exactly the game's nodes plus edges builds the same game and one
    # less refuses it, fans of guesses and picks included.
    lts, fp_frees = _small_counter_corpus()
    built = 0
    for fp_free in fp_frees:
        for state in range(lts.n):
            game = build_game(lts, state, fp_free)
            size = game.node_count + game.edge_count
            assert size < 200_000
            digest = _structure_digest(game, solve(game))
            again = build_game(lts, state, fp_free, limit=size)
            assert _structure_digest(again, solve(again)) == digest
            with pytest.raises(GameLimitError) as err:
                build_game(lts, state, fp_free, limit=size - 1).node_count
            assert (err.value.limit, err.value.actual) == (size - 1, size)
            built += 1
    assert built == 104


def _structure_digest(game, solution):
    """sha256 over the kinds, the edges (as tuples, in order), the start and
    the winners: what an export pins but the labels, for games too big to
    export in a test."""
    text = repr((game.kinds, [tuple(e) for e in game.edges], game.start,
                 solution.winners))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name,i,j,nodes,edges,winner,digests", [
    ("eq", 0, 3, 253, 386, FORALL, None),
    ("gt", 1, 3, 858, 1_568, FORALL, None),
    ("exists", None, None, 107_989, 223_972, EXISTS,
     ("1bd47487b196a959f61f624deb8803d8a83b10d285dd91452bb133f28a01eee8",
      "1c48e4a0fc2ec6603f4b2ce369b718a091a0180014a96100b693e35c8e8872da")),
], ids=["eq(0,3)", "gt(1,3)", "exists(eq max)"])
def test_counter_corpus_game_sizes_are_pinned(name, i, j, nodes, edges, winner,
                                              digests):
    # A builder that builds a different game may still reach the right
    # verdict, so the sizes of a few counter-corpus games are pinned too,
    # and the structure of a big one, whose builds take the hot paths the
    # small exported games below hardly reach.  Configurations are keyed
    # by node identity, so the sizes also pin how the eliminated formula
    # shares its subformulas.
    lts, fp_free = _counter_corpus_game(name, i, j)
    for state in range(lts.n):
        game = build_game(lts, state, fp_free)
        assert (game.node_count, game.edge_count) == (nodes, edges)
        sol = solve(game)
        assert sol.winner == winner
        if digests is not None:
            assert _structure_digest(game, sol) == digests[state]


def test_forall_eq_max_game_size_is_pinned():
    # The corpus game in which guesses share challenge outcomes the most.
    lts, fp_free = _counter_corpus_game("forall")
    digests = (
        "ca314fa01bf5753b447dc98f71273f99a3f865d74b4d89b06a5ca895f67de40b",
        "c715c58f621507122de5dc4e419ce6da5556e692b5bd888942614117685a5ce8")
    for state, digest in enumerate(digests):
        game = build_game(lts, state, fp_free)
        assert (game.node_count, game.edge_count) == (505_813, 1_207_268)
        sol = solve(game)
        assert sol.winner == FORALL
        assert _structure_digest(game, sol) == digest
        del game, sol


@pytest.mark.parametrize("name,i,j,digests", [
    ("eq", 0, 3, ("2a36260cf8a8d501cb1606e42ccff1c1fe9bb9cb6d51c39e23a1ab6ac9b32fa8",
                  "5c9df43a9f523ad6e1e51145b7e5088f331a281664524d2abd3703fd2b3a2e4e")),
    ("gt", 1, 3, ("6c111ce0654143779957482adf280afc61045cdb9a734f92f83f11c7e5de7451",
                  "d7c87f8ebdce08137856e6b8543f5b203b2add05cb4209590f200b189611536f")),
], ids=["eq(0,3)", "gt(1,3)"])
def test_counter_corpus_game_exports_are_pinned(name, i, j, digests):
    # Equal sizes do not make equal games: the digests pin every node's
    # number, kind and label, every edge in order, the start and the
    # winners, as exported for each state.
    lts, fp_free = _counter_corpus_game(name, i, j)
    for state, digest in enumerate(digests):
        game = build_game(lts, state, fp_free)
        text = export_game(game, "json", solve(game))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


# Formulas whose guessed argument takes two arguments, so that a challenge
# picks the first before the last, and the label of their one state.
_TWO_ARGUMENT_GUESSES = [
    ("(\\(F:Pr^0 -> Pr^0 -> Pr)^0. F p (<a> q)) "
     "(\\(X:Pr)^0. \\(Y:Pr)^0. X & !Y)", "p"),
    ("(\\(G:(Pr^0 -> Pr)^0 -> Pr^0 -> Pr)^0. G (\\(Z:Pr)^0. !Z) q) "
     "(\\(H:Pr^0 -> Pr)^0. \\(Y:Pr)^0. H Y | <a> Y)", "q"),
]
_TWO_ARGUMENT_IDS = ["F:Pr->Pr->Pr", "G:(Pr->Pr)->Pr->Pr"]


def _two_argument_guess_game(text, label, limit=DEFAULT_GAME_LIMIT):
    lts = make_lts(1, [(0, "a", 0)], [(0, label)])
    phi = parse_formula(text)
    typecheck(phi)
    return build_game(lts, 0, phi, limit)


@pytest.mark.parametrize("text,label,nodes,edges,digests", [
    (*_TWO_ARGUMENT_GUESSES[0], 487, 642,
     ("d6d5b9d3b70ce69024157aff8744fcd28bf1e72e57c0f4176626d201fcd1d036",
      "5a4e669455188be1de2291cd763e33171f23e4fd2130f5512252c21d9d489392")),
    (*_TWO_ARGUMENT_GUESSES[1], 16_039, 22_728,
     ("f562109d12c74c5e970362c9e4e08dbda1c95fc4295fb68ddf772d04b40a2466",
      "613eb4e603599d3bc261973bad9d591ad8c8a19d5ca53166be3f87c53adb1e00")),
], ids=_TWO_ARGUMENT_IDS)
def test_two_argument_guess_games_are_pinned(text, label, nodes, edges,
                                             digests):
    # The guessed argument takes two arguments, so a challenge picks the
    # first before the last: no other pinned game has a pick fan whose
    # choices are not leaves.  The digests are the structure's and the
    # JSON export's.
    game = _two_argument_guess_game(text, label)
    sol = solve(game)
    assert (game.node_count, game.edge_count) == (nodes, edges)
    assert sol.winner == EXISTS
    exported = export_game(game, "json", sol)
    assert (_structure_digest(game, sol),
            hashlib.sha256(exported.encode()).hexdigest()) == digests


def test_game_numbers_each_node_once_per_polarity():
    # A negation only swaps the players' roles, so the builder reads
    # leading negations as a polarity: `!!x` is x, and a positive `!h` is
    # h negated.  Each formula number is then a node that is not a `Neg`,
    # or its negation, and no two numbers share a node and polarity.
    lts, fp_frees = _small_counter_corpus()
    fp_frees += [_counter_corpus_game(q)[1] for q in ("exists", "forall")]
    games = itertools.chain(
        (build_game(lts, s, f) for f in fp_frees for s in range(lts.n)),
        (_two_argument_guess_game(*case) for case in _TWO_ARGUMENT_GUESSES))
    built = 0
    for game in games:
        pairs = set()
        for f in game.formulas:
            neg = type(f) is Neg
            base = f.body if neg else f
            assert type(base) is not Neg, f
            pairs.add((id(base), neg))
        assert len(pairs) == len(game.formulas)
        built += 1
    assert built == 110


@pytest.mark.parametrize("text,label", _TWO_ARGUMENT_GUESSES,
                         ids=_TWO_ARGUMENT_IDS)
def test_game_limit_is_exact_on_two_argument_guess_games(text, label):
    # The check of test_game_limit_is_exact_on_small_corpus_games on the
    # only games with nested pick fans, whose leaves are made in the step
    # of the fan above them, or by a fan of their own where an outcome is
    # new.
    game = _two_argument_guess_game(text, label)
    size = game.node_count + game.edge_count
    digest = _structure_digest(game, solve(game))
    again = _two_argument_guess_game(text, label, limit=size)
    assert _structure_digest(again, solve(again)) == digest
    with pytest.raises(GameLimitError) as err:
        _two_argument_guess_game(text, label, limit=size - 1).node_count
    assert (err.value.limit, err.value.actual) == (size - 1, size)


def _assert_on_demand_solve_agrees(make):
    """Solve a game that `make` returns unbuilt, and one that it returns
    and is then built: both find the same winner, and the first makes no
    more nodes and edges than the full game has.  Returns the first's
    nodes settled, and nodes and edges made."""
    lazy, built = make(), make()
    nodes, edges = built.node_count, built.edge_count
    got, want = solve(lazy), solve(built)
    assert lazy.unbuilt is not None
    assert got.winner == want.winner
    assert got.explored <= got.nodes <= nodes and got.edges <= edges
    assert (want.nodes, want.edges) == (nodes, edges)
    return got.explored, got.nodes, got.edges


def _sum(totals, counts):
    return tuple([a + b for a, b in zip(totals, counts)])


def test_on_demand_solve_agrees_with_built_solve_on_counter_corpus():
    # The 108 checks of the p = 2 counter corpus.  Forcing each guess, the
    # solves settle 4,457 nodes and make 5,056 nodes and 4,933 edges in
    # all; reading every guess last first, they settled 12,533 and made
    # 18,878 and 25,307, of the full games' 1,278,890 and 2,953,025.
    lts, fp_frees = _small_counter_corpus()
    fp_frees += [_counter_corpus_game(q)[1] for q in ("exists", "forall")]
    made = (0, 0, 0)
    checks = 0
    for fp_free in fp_frees:
        for state in range(lts.n):
            made = _sum(made, _assert_on_demand_solve_agrees(
                functools.partial(build_game, lts, state, fp_free)))
            checks += 1
    assert (checks, made) == (108, (4_457, 5_056, 4_933))


def test_on_demand_solve_agrees_with_built_solve_on_random_games():
    # Forcing each guess, the 200 random games' solves settle 1,071 nodes
    # and make 1,218 nodes and 825 edges in all, where reading every guess
    # last first settled 21,754 and made 45,441 and 61,367.
    made = (0, 0, 0)
    for lts, flat, _ in _random_instances(7, 200):
        made = _sum(made, _assert_on_demand_solve_agrees(
            functools.partial(build_game, lts, 0, flat, 10**5)))
    assert made == (1_071, 1_218, 825)
    made = [_assert_on_demand_solve_agrees(
        functools.partial(_two_argument_guess_game, *case))
        for case in _TWO_ARGUMENT_GUESSES]
    assert made == [(24, 24, 21), (47, 51, 44)]


def _challenge_leaves(game, root):
    """The configurations a challenge root leads to, in pick order: picked
    arguments in lexicographic order, the state last."""
    for v in game.edges[root]:
        if game.payloads[v][0] == "pick":
            yield from _challenge_leaves(game, v)
        else:
            yield v


def _assert_guesses_are_forced(game) -> int:
    """The forced-guess claim of the `games` docstring, on the built game:
    at each application node, g*, read off the winners of the argument's
    configurations, is the only guess whose challenge root the proponent
    wins, and the application's winner is that of the function's
    configuration at g*.  Returns the number of applications."""
    winners, edges, payloads = solve(game).winners, game.edges, game.payloads
    apps = 0
    for u, guesses in enumerate(edges):
        if not guesses or payloads[guesses[0]] != ("guess",):
            continue
        # Guess 0's challenges lead to the negated argument everywhere,
        # and the last guess's, every bit set, to the argument: in pick
        # order, one leaf per bit of the guess.
        negated = list(_challenge_leaves(game, edges[guesses[0]][1]))
        args = list(_challenge_leaves(game, edges[guesses[-1]][1]))
        assert len(guesses) == 1 << len(args) == 1 << len(negated)
        assert all(winners[a] != winners[b] for a, b in zip(args, negated))
        star = sum([1 << b for b, v in enumerate(args) if winners[v] == EXISTS])
        for g, v in enumerate(guesses):
            root = edges[v][1]
            assert winners[root] == (EXISTS if g == star else FORALL), (u, g)
        assert winners[u] == winners[edges[guesses[star]][0]]
        apps += 1
    return apps


def test_only_the_arguments_value_survives_its_challenges():
    # On the built games of the p = 1 counter corpus, 200 random games and
    # the two-argument guess games.
    lts, fp_frees = _small_counter_corpus(p=1)
    fp_frees += [_counter_corpus_game(q, p=1)[1] for q in ("exists", "forall")]
    games = itertools.chain(
        (build_game(lts, s, f) for f in fp_frees for s in range(lts.n)),
        (game for _, _, game in _random_instances(7, 200)),
        (_two_argument_guess_game(*case) for case in _TWO_ARGUMENT_GUESSES))
    assert sum(map(_assert_guesses_are_forced, games)) == 1_447


def test_forced_guess_reaches_past_the_guess_domain():
    # On a 5-state cycle the guessed Pr -> Pr table has 2^(5 * 32) values,
    # so the full build refuses to enumerate them; the solve on demand
    # forces its guess, sizing only the 32 picks, and decides.
    lts = make_lts(5, [(s, "a", (s + 1) % 5) for s in range(5)], [(0, "q")])
    phi = parse_formula("(\\(F:Pr -> Pr). F q) (\\(Y:Pr). <a> Y)")
    with pytest.raises(EnumLimitError) as err:
        build_game(lts, 0, phi).node_count
    assert err.value.cardinality == 2**160
    for state in range(lts.n):
        assert check_via_games(lts, state, phi) == holds(lts, state, phi) == (
            state == 4)


def test_on_demand_game_limit_is_exact():
    # A solve on demand charges each node and edge it makes as it makes
    # them: a limit of exactly what it makes decides alike, and one less
    # refuses, as a full build does at the full game's size.
    lts, fp_frees = _small_counter_corpus()
    makers = [functools.partial(build_game, lts, state, fp_free)
              for fp_free in fp_frees for state in range(lts.n)]
    makers += [functools.partial(_two_argument_guess_game, *case)
               for case in _TWO_ARGUMENT_GUESSES]
    for make in makers:
        sol = solve(make(DEFAULT_GAME_LIMIT))
        made = sol.nodes + sol.edges
        again = solve(make(made))
        assert (again.winner, again.explored, again.nodes, again.edges) == (
            sol.winner, sol.explored, sol.nodes, sol.edges)
        with pytest.raises(GameLimitError) as err:
            solve(make(made - 1))
        assert (err.value.limit, err.value.actual) == (made - 1, made)
        with pytest.raises(GameLimitError) as full:  # the build's refusal
            make(made - 1).node_count
        assert str(err.value) == str(full.value)
    assert len(makers) == 106


def test_check_via_games_never_builds_the_game(monkeypatch):
    # `check_via_games` decides from the nodes its solve makes: the full
    # build of forall(eq max), 505,813 nodes, never runs.
    def refused(builder, start_state):
        raise AssertionError("the full build ran")

    monkeypatch.setattr(_Builder, "build", refused)
    lts = gen_counter_lts(2)
    pred = Lam("W", Z, PR, apply_all(counter_formula("eq", 0, 2), Var("W"),
                                     counter_formula("max", 0, 2)))
    phi = App(counter_formula("forall", 0, 2), pred)
    assert [check_via_games(lts, s, phi) for s in range(lts.n)] == [
        False, False]


def test_refused_build_frees_its_builder():
    # A refused build leaves nothing that holds its builder in a cycle, so
    # the builder and its partial game are freed once the error is, with
    # no cyclic collection.
    lts, fp_free = _counter_corpus_game("forall")
    refs = []

    def refused():
        builder = _Builder(lts, fp_free, 200_000, DEFAULT_ENUM_LIMIT)
        refs.append(weakref.ref(builder))
        builder.build(0)

    gc.disable()
    try:
        try:
            refused()
        except GameLimitError:
            pass
        assert refs[0]() is None
    finally:
        gc.enable()


def _configurations(game):
    """The configurations' payloads, which are their keys (state, stack,
    (values, t)); every other payload is a ("guess",) or ("pick", k)
    marker."""
    return [p for p in game.payloads if type(p[0]) is int]


def _assert_configurations_lie_in_the_closure(lts, fp_free):
    interner = Interner()
    closure = {interner.canon(f) for f in _closure_reps(fp_free)}
    for state in range(lts.n):
        game = build_game(lts, state, fp_free)
        for t in {key[2][1] for key in _configurations(game)}:
            assert interner.canon(game.formulas[t]) in closure, (
                game.formulas[t])


@pytest.mark.parametrize("name,i,j", [("eq", 0, 3), ("gt", 1, 3)],
                         ids=["eq(0,3)", "gt(1,3)"])
def test_configuration_formulas_lie_in_the_closure(name, i, j):
    # The game's positions are closure formulas, which is what makes the
    # closure size the formula size of the paper's bound.
    _assert_configurations_lie_in_the_closure(*_counter_corpus_game(name, i, j))


def test_configuration_under_an_alpha_merged_lambda_lies_in_the_closure():
    phi = parse_formula("(\\(X:Pr)^+. X) p | (\\(Y:Pr)^+. Y) q")
    _assert_configurations_lie_in_the_closure(gen_chain(2), phi)


def test_configurations_of_random_games_lie_in_the_closure():
    # The closure walk descends into every lambda it meets, also one
    # alpha-equal to a lambda met before, whose body the game still plays.
    for lts, flat, _ in _random_instances(5, 296):
        _assert_configurations_lie_in_the_closure(lts, flat)


def _plain(x):
    return type(x) is int or (type(x) is tuple and all(map(_plain, x)))


def test_configuration_payloads_are_plain_data():
    # A payload made of ints and tuples only is untracked by the cyclic
    # collector once collected (a nested tuple one level per collection),
    # so a built game adds nothing to the cost of later full collections.
    lts, fp_free = _counter_corpus_game("gt", 1, 3)
    game = build_game(lts, 0, fp_free)
    tracked = None
    while True:
        gc.collect()
        before, tracked = tracked, sum(map(gc.is_tracked, game.payloads))
        if tracked == before:
            break
    assert tracked == 0
    configs = _configurations(game)
    assert len(configs) > game.node_count // 2
    assert all(map(_plain, configs))
