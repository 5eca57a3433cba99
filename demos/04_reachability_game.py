"""Inside the decision procedure: elimination, game, local solve.

Model checking runs in two steps: every fixpoint is replaced by finitely
many unfoldings (the lattice height bounds how many), then the
fixpoint-free formula becomes a finite reachability game whose winner
answers the question.  This script shows the intermediate artifacts.
"""

from hflcheck import (
    build_game,
    eliminate_fixpoints,
    export_game,
    parse_formula,
    print_formula,
    solve,
)
from hflcheck.games import EXISTS
from hflcheck.lts import make_lts
from hflcheck.syntax import tree_size

model = make_lts(3, [(0, "a", 1), (1, "a", 0), (1, "a", 2)], [(2, "q")])
phi = parse_formula("mu (X:Pr). q | <a> X")
print("formula:", print_formula(phi))

flat = eliminate_fixpoints(phi, model)
print(f"after elimination: fixpoint-free, {tree_size(flat)} symbols")
print(" ", print_formula(flat)[:72], "...")

game = build_game(model, 0, flat)
print(f"game: {game.node_count} nodes, {game.edge_count} edges")

solution = solve(game)
print(f"winner at the start node: {solution.winner}, settling "
      f"{solution.explored} of {game.node_count} nodes")
assert solution.winner == EXISTS  # state 2 is reachable from 0

dot = export_game(game, "dot", solution)
print("\nfirst lines of the DOT dump (render with graphviz):")
for line in dot.splitlines()[:6]:
    print(" ", line)
