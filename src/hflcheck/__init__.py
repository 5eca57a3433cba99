"""Model checking for higher-order fixpoint logic over finite systems."""

import sys as _sys

# Unfolded fixpoint approximants nest deeply; traversals recurse with them.
if _sys.getrecursionlimit() < 20000:
    _sys.setrecursionlimit(20000)

from . import denote, encodings, games, lts, semantics, surface, syntax, types
from .denote import (
    Denotation,
    Func,
    Ground,
    complement,
    enumerate_lattice,
    index_of,
    leq,
    number_repr,
)
from .errors import HflError
from .games import build_game, export_game, solve
from .lts import Lts, gen_chain, gen_counter_lts, gen_counter_lts_labeled, gen_word_lts
from .pipeline import check_via_games, play
from .semantics import (
    EvalConfig,
    Evaluator,
    approximant,
    eliminate_fixpoints,
    evaluate,
    holds,
)
from .surface import parse_formula, parse_type, print_formula, print_type
from .syntax import Formula, desugar_vec, fl_closure, measures, substitute
from .types import HflType, Variance, fragment, typecheck

__all__ = [
    "Denotation",
    "EvalConfig",
    "Evaluator",
    "Formula",
    "Func",
    "Ground",
    "HflError",
    "HflType",
    "Lts",
    "Variance",
    "approximant",
    "build_game",
    "check_via_games",
    "complement",
    "denote",
    "desugar_vec",
    "eliminate_fixpoints",
    "encodings",
    "enumerate_lattice",
    "evaluate",
    "export_game",
    "fl_closure",
    "fragment",
    "games",
    "gen_chain",
    "gen_counter_lts",
    "gen_counter_lts_labeled",
    "gen_word_lts",
    "holds",
    "index_of",
    "leq",
    "lts",
    "measures",
    "number_repr",
    "parse_formula",
    "parse_type",
    "play",
    "print_formula",
    "print_type",
    "semantics",
    "solve",
    "substitute",
    "surface",
    "syntax",
    "typecheck",
    "types",
]
