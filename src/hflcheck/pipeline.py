"""The elim-game pipeline behind `check`, `game` and `check_via_games`; it
sits above the layers whose stages it runs, as the command line did."""

from . import games, semantics, types
from .lts import Lts
from .syntax import Formula


def play(lts: Lts, state: int, phi: Formula, game_limit: int,
         enum_limit: int, unfold_budget: int, size_budget: int) -> tuple:
    """Typecheck `phi` as written, check the query, eliminate fixpoints
    (which rewrites vector fixpoints by Bekic's lemma), build the game
    from `state` and solve it, each once.  Returns the fixpoint-free
    formula, the game and its solution.  The solve is local, reading
    moves last first; the solution derives every node's winner and the
    strategy on their first read, as an export or a witness needs."""
    semantics.check_query(lts, state, types.typecheck(phi))
    fp_free = semantics.eliminate_fixpoints(phi, lts, unfold_budget,
                                            size_budget)
    game = games.build_game(lts, state, fp_free, game_limit, enum_limit)
    return fp_free, game, games.solve(game)
