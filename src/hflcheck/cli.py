"""Command-line front end.

Exit codes: 0 = property holds (or command succeeded), 1 = property fails,
2 = any error (parse, type, budget, format).  All set iterations are
sorted, so identical inputs give identical output; --no-timing removes the
one nondeterministic field from reports.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import (denote, encodings, games, lts, pipeline, semantics, surface,
               syntax, types)
from .errors import HflError, over_budget, show_int

REPORT_SCHEMA = "hflcheck-check-v1"


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _parse_word(text: str):
    word = []
    for ch in text:
        if ch in "t1":
            word.append(True)
        elif ch in "f0":
            word.append(False)
        else:
            raise ValueError(f"word symbols are t/f (or 1/0), got {ch!r}")
    return tuple(word)


def cmd_check(args) -> int:
    model = lts.load(_read(args.lts))
    phi = surface.parse_formula(_read(args.formula))
    cfg = semantics.EvalConfig(
        engine="tabulate" if args.engine == "naive" else "demand",
        enum_limit=args.enum_limit,
    )
    started = time.monotonic()
    game_nodes = game_edges = game_nodes_explored = None
    bounds = {}
    if args.engine == "elim-game":
        fp_free, game, solution = pipeline.play(
            model, args.state, phi, args.game_limit, args.enum_limit,
            args.unfold_limit, args.size_limit)
        game_nodes, game_edges = solution.nodes, solution.edges
        game_nodes_explored = solution.explored
        if args.json:  # only the report prints the bound
            try:
                bound = games.size_bound_for(fp_free, model, game.order_arity)
                bounds["game_size_bound"] = show_int(bound)
                bounds["game_within_bound"] = max(game_nodes, game_edges) <= bound
            except HflError as e:
                bounds["game_size_bound"] = over_budget(e)
        verdict = solution.winner == games.EXISTS
    else:
        verdict = semantics.holds(model, args.state, phi, cfg)
    elapsed = time.monotonic() - started

    if args.json:
        report = {
            "schema": REPORT_SCHEMA,
            "formula": args.formula,
            "lts": args.lts,
            "state": args.state,
            "engine": args.engine,
            "verdict": verdict,
            "bounds": bounds,
            "stats": {
                "fixpoint_iterations": cfg.stats.fixpoint_iterations,
                "memo_hits": cfg.stats.memo_hits,
                "game_nodes": game_nodes,
                "game_edges": game_edges,
                "game_nodes_explored": game_nodes_explored,
            },
        }
        if not args.no_timing:
            report["stats"]["wall_seconds"] = round(elapsed, 6)
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        rel = "in" if verdict else "not in"
        print(f"state {args.state} is {rel} the denotation")
    return 0 if verdict else 1


def cmd_typecheck(args) -> int:
    phi = surface.parse_formula(_read(args.formula))
    table: dict = {}
    ty = types.typecheck(phi, table)
    size, lam_vars = syntax.measures(phi)
    k, m = types.fragment(table)
    bounds = {}
    for name, fn in (
        ("lattice_size", lambda: types.lattice_size_bound(ty, args.states)),
        ("height", lambda: types.height_bound(ty, args.states)),
        ("type_count", lambda: types.type_count_bound(max(k, 1), max(m, 1))),
    ):
        try:
            bounds[name] = show_int(fn())
        except HflError as e:
            bounds[name] = over_budget(e)
    if args.json:
        print(json.dumps({
            "type": types.format_type(ty),
            "order": k,
            "arity": m,
            "closure_size": size,
            "lambda_vars": lam_vars,
            "bounds": bounds,
        }, indent=2, sort_keys=True))
    else:
        print(f"type: {types.format_type(ty)}")
        print(f"order={k} arity={m} |phi|={size} v(phi)={lam_vars}")
        for name, v in bounds.items():
            print(f"bound {name} (n={args.states}): {v}")
    return 0


def cmd_game(args) -> int:
    model = lts.load(_read(args.lts))
    phi = surface.parse_formula(_read(args.formula))
    _, game, solution = pipeline.play(model, args.state, phi, args.game_limit,
                                      args.enum_limit, args.unfold_limit,
                                      args.size_limit)
    _write(args.out, games.export_game(game, args.dump, solution))
    return 0


def cmd_gen(args) -> int:
    fam = args.family
    if fam == "lts-counter":
        _write(args.out, lts.save(lts.gen_counter_lts(args.p)))
    elif fam == "lts-counter-labeled":
        _write(args.out,
               lts.save(lts.gen_counter_lts_labeled(args.p, _parse_word(args.word))))
    elif fam == "lts-chain":
        _write(args.out, lts.save(lts.gen_chain(args.n, args.action)))
    elif fam == "lts-word":
        _write(args.out, lts.save(lts.gen_word_lts(args.actions.split(","))))
    elif fam == "counter":
        phi = encodings.counter_formula(args.name, args.k, args.p)
        _write(args.out, surface.print_formula(phi) + "\n")
    elif fam == "bit":
        _write(args.out,
               surface.print_formula(encodings.bit_formula(args.i, args.p)) + "\n")
    elif fam == "chi":
        _write(args.out,
               surface.print_formula(
                   encodings.chi_formula(args.i, args.k, args.p)) + "\n")
    elif fam == "tape":
        tp = encodings.tape_formulas(args.k, args.p, _parse_word(args.word))
        which = {
            "head0": tp.head0,
            "tape0": tp.tape0,
            "tape-empty": tp.tape_empty,
            "read-tt": tp.read[True],
            "read-ff": tp.read[False],
            "write-tt": tp.write[True],
            "write-ff": tp.write[False],
            "move-left": tp.move[-1],
            "move-none": tp.move[0],
            "move-right": tp.move[1],
            "tape-built": encodings.tape_built_formula(args.k, args.p),
        }[args.which]
        _write(args.out, surface.print_formula(which) + "\n")
    elif fam == "showcase":
        params = {}
        if args.name == "phi_m":
            params["m"] = args.m
            params["actions"] = tuple(args.actions.split(","))
        elif args.name == "bisim_word":
            params["actions"] = tuple(args.actions.split(","))
        phi = encodings.showcase_formula(args.name, **params)
        _write(args.out, surface.print_formula(phi) + "\n")
    elif fam == "repr":
        d = denote.number_repr(args.i, args.k, args.p)
        print(f"index_of(repr({args.i},{args.k},{args.p})) = {denote.index_of(d)}")
        print(d)
    else:
        raise HflError(f"unknown family {fam!r}")
    return 0


def cmd_atm(args) -> int:
    machine = encodings.parse_atm(_read(args.machine))
    if args.action == "run":
        word = _parse_word(args.word)
        verdict = encodings.atm_accepts(machine, word, args.space)
        print("accept" if verdict else "reject")
        return 0
    # compile
    word = _parse_word(args.word) if args.word is not None else None
    phi = encodings.machine_formula(machine, args.k, args.p, word)
    if word is not None:
        model = lts.gen_counter_lts(args.p)
    else:
        model = lts.gen_counter_lts_labeled(args.p, _parse_word(args.labeled))
    base = args.out
    _write(f"{base}.hfl", surface.print_formula(phi) + "\n")
    _write(f"{base}.lts", lts.save(model))
    print(f"wrote {base}.hfl and {base}.lts")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process; `main` only reads it."""
    ap = argparse.ArgumentParser(
        prog="hflcheck",
        description="Model checker for higher-order fixpoint logic",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_budgets(p):
        for flag, default, what in (
            ("--enum-limit", denote.DEFAULT_ENUM_LIMIT, "lattice elements "
             "to enumerate; check --engine elim-game enumerates only the "
             "challenges' picks, game --dump the guesses too"),
            ("--game-limit", games.DEFAULT_GAME_LIMIT, "game nodes+edges "
             "made by check's solve, or built by game --dump"),
            ("--unfold-limit", semantics.DEFAULT_UNFOLD_BUDGET,
             "unfoldings per fixpoint"),
            ("--size-limit", semantics.DEFAULT_SIZE_BUDGET,
             "distinct nodes after elimination"),
        ):
            p.add_argument(flag, type=int, default=default,
                           help=f"max {what} (default %(default)s)")

    p = sub.add_parser("check", help="decide state |= formula")
    p.add_argument("--lts", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--state", type=int, required=True)
    p.add_argument("--engine", choices=("naive", "demand", "elim-game"),
                   default="demand")
    p.add_argument("--json", action="store_true")
    p.add_argument("--no-timing", action="store_true")
    add_budgets(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("typecheck", help="type, measures and bounds")
    p.add_argument("--formula", required=True)
    p.add_argument("--states", type=int, default=1,
                   help="state count for the quantitative bounds")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_typecheck)

    p = sub.add_parser("game", help="build, solve and dump the game")
    p.add_argument("--lts", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--state", type=int, required=True)
    p.add_argument("--dump", choices=("dot", "json"), default="dot")
    p.add_argument("-o", "--out", default=None)
    add_budgets(p)
    p.set_defaults(fn=cmd_game)

    p = sub.add_parser("gen", help="generate models and formula families")
    p.add_argument("family", choices=(
        "lts-counter", "lts-counter-labeled", "lts-chain", "lts-word",
        "counter", "bit", "chi", "tape", "showcase", "repr",
    ))
    p.add_argument("--p", type=int, default=2, help="counter system size")
    p.add_argument("--n", type=int, default=2, help="chain length")
    p.add_argument("--k", type=int, default=0, help="type level")
    p.add_argument("--i", type=int, default=0, help="index argument")
    p.add_argument("--m", type=int, default=1, help="tower level")
    p.add_argument("--name", default="inc",
                   help="counter op or showcase name")
    p.add_argument("--word", default="", help="tape word, e.g. ttf")
    p.add_argument("--action", default="a")
    p.add_argument("--actions", default="a,b")
    p.add_argument("--which", default="tape0",
                   help="tape formula selector")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("atm", help="run or compile an alternating machine")
    p.add_argument("action", choices=("run", "compile"))
    p.add_argument("--machine", required=True)
    p.add_argument("--word", default=None)
    p.add_argument("--space", type=int, default=8)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--labeled", default="",
                   help="word carried by labels when compiling without --word")
    p.add_argument("-o", "--out", default="machine")
    p.set_defaults(fn=cmd_atm)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except HflError as e:
        print(f"error[{type(e).__name__}]: {e}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as e:
        print(f"error[{type(e).__name__}]: {e}", file=sys.stderr)
        return 2
    except RecursionError as e:
        # Parsing, typing and evaluation recurse with the formula's
        # nesting; input nested past the recursion limit is an error, not
        # a failing property.
        print(f"error[RecursionError]: input nested too deeply ({e})",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
