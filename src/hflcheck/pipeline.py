"""The elim-game pipeline behind `check`, `game` and the library's
`check_via_games`; it sits above the layers whose stages it runs, so that
neither procedure imports the other."""

from . import denote, games, semantics, types
from .lts import Lts
from .syntax import Formula


def play(lts: Lts, state: int, phi: Formula, game_limit: int,
         enum_limit: int, unfold_budget: int, size_budget: int) -> tuple:
    """Typecheck `phi` as written, check the query, eliminate fixpoints
    (which rewrites vector fixpoints by Bekic's lemma), check the game
    from `state` and solve it, each once.  Returns the fixpoint-free
    formula, the game and its solution.  The solve is local, making only
    the nodes it reads; the game is built, and the solution derives every
    winner and the strategy, on their first read, as exports need."""
    semantics.check_query(lts, state, types.typecheck(phi))
    fp_free = semantics.eliminate_fixpoints(phi, lts, unfold_budget,
                                            size_budget)
    game = games.build_game(lts, state, fp_free, game_limit, enum_limit)
    return fp_free, game, games.solve(game)


def check_via_games(lts: Lts, state: int, phi: Formula,
                    game_limit: int = games.DEFAULT_GAME_LIMIT,
                    enum_limit: int = denote.DEFAULT_ENUM_LIMIT,
                    unfold_budget: int = semantics.DEFAULT_UNFOLD_BUDGET,
                    size_budget: int = semantics.DEFAULT_SIZE_BUDGET) -> bool:
    """Whether `state` satisfies `phi`, by `play` as `check` and `game`
    do."""
    return play(lts, state, phi, game_limit, enum_limit, unfold_budget,
                size_budget)[2].winner == games.EXISTS
