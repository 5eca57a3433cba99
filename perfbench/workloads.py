"""The three workloads: seeded set-up, then one timed pass of checks.

Each workload has a `setup(seed, workdir)` that builds every input and
reference answer, and a `run(inputs, rec)` that makes one pass of checks
through a `Recorder`.  A check is one verdict or one query.  Only the
program's public API is called, always through its modules, so the traced
run sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
from collections import Counter
from dataclasses import dataclass

import gen
from hflcheck import (cli, denote, encodings, games, lts, semantics, surface,
                      syntax, types)


class Recorder:
    """Times checks and compares each verdict with its reference.

    Latencies are read from the wall time of `clock` (see clock.py), which
    leaves out the time of its probes.
    """

    def __init__(self, tracer, clock):
        self.tracer = tracer
        self.clock = clock
        self.latencies: list = []
        self.errors: Counter = Counter()
        self.mismatches: list = []

    def check(self, label, fn, want):
        """Run one check; return its result, or None when it failed.

        A check fails when it raises; the failure is counted by error
        class.  A result other than `want` is a wrong verdict, unless
        `want` is None (no reference for this check).
        """
        if self.tracer is not None:
            self.tracer.check_id = len(self.latencies)
        t0 = self.clock.read()[0]
        try:
            got = fn()
        except Exception as e:  # any raised error is a failed check
            self.latencies.append(self.clock.read()[0] - t0)
            self.errors[getattr(e, "error_class", type(e).__name__)] += 1
            return None
        self.latencies.append(self.clock.read()[0] - t0)
        if want is not None and got != want:
            self.mismatches.append(f"{label}: got {got!r}, want {want!r}")
        return got


# ---------------------------------------------------------------------------
# encoded-eval: the demand engine on the counter and machine encodings

TABLE_K, TABLE_P = 1, 2
TABLES = ("inc", "eq", "lt")
MACHINE_PS = (2, 3)
QUERIES_PER_MACHINE_CHECK = 40


@dataclass
class EncodedInputs:
    model: object
    tables: dict
    reprs: list
    queries: list  # (op, i, j, want)
    machine_checks: list  # (label, p, formula, model or None, want mask)
    counts: dict


def setup_encoded(seed: int, workdir: str) -> EncodedInputs:
    rng = random.Random(seed)
    f = types.big_f(TABLE_K, TABLE_P)
    full_mask = (1 << TABLE_P) - 1
    tables = {name: encodings.counter_formula(name, TABLE_K, TABLE_P)
              for name in TABLES}
    reprs = [denote.number_repr(i, TABLE_K, TABLE_P) for i in range(f)]
    machine_checks = []
    for p in MACHINE_PS:
        accept = (1 << p) - 1
        for name, machine in gen.machines().items():
            label_carried = encodings.machine_formula(machine, 0, p, None)
            for word in gen.words(p - 1):
                want = accept if encodings.atm_accepts(machine, word, 2**p) else 0
                spelled = encodings.machine_formula(machine, 0, p, word)
                machine_checks.append((f"{name}/spelled/{p}", p, spelled,
                                       None, want))
                machine_checks.append((
                    f"{name}/labels/{p}", p, label_carried,
                    lts.gen_counter_lts_labeled(p, word), want))
    queries = []
    for _ in range(QUERIES_PER_MACHINE_CHECK * len(machine_checks)):
        op = rng.choice(TABLES)
        i, j = rng.randrange(f), rng.randrange(f)
        if op == "inc":
            want = (i + 1) % f
        else:
            want = full_mask if (i == j if op == "eq" else i < j) else 0
        queries.append((op, i, j, want))
    return EncodedInputs(
        model=lts.gen_counter_lts(TABLE_P), tables=tables, reprs=reprs,
        queries=queries, machine_checks=machine_checks,
        counts={"tables": len(tables), "queries": len(queries),
                "machine_checks": len(machine_checks)})


def run_encoded(inp: EncodedInputs, rec: Recorder) -> dict:
    cfg = semantics.EvalConfig()
    ev = semantics.Evaluator(inp.model, cfg)
    table = {name: ev.eval_closed(phi) for name, phi in inp.tables.items()}
    reprs = inp.reprs

    def query(op, i, j):
        v = ev.apply_value(table[op], reprs[i])
        if op == "inc":
            return denote.index_of(ev.reify_value(v))
        return ev.reify_value(ev.apply_value(v, reprs[j])).mask

    spelled_ev = {p: semantics.Evaluator(lts.gen_counter_lts(p), cfg)
                  for p in MACHINE_PS}
    # The host's speed drifts over seconds, so query latencies are sampled
    # all through the pass: a block of queries follows each machine check.
    block = QUERIES_PER_MACHINE_CHECK
    for n, (label, p, phi, model, want) in enumerate(inp.machine_checks):
        if model is None:
            rec.check(label, lambda: spelled_ev[p].denotation(phi).mask, want)
        else:
            rec.check(label,
                      lambda: semantics.evaluate(model, phi, cfg=cfg).mask, want)
        for op, i, j, want_q in inp.queries[n * block:(n + 1) * block]:
            rec.check(f"{op}({i},{j})", lambda: query(op, i, j), want_q)
    return vars(cfg.stats).copy()


# ---------------------------------------------------------------------------
# counter-games: fixpoint elimination, game build and solve on the corpus

CORPUS_P = 2


@dataclass
class GameInputs:
    model: object
    checks: list  # (label, formula, state, want)
    counts: dict


def setup_games(seed: int, workdir: str) -> GameInputs:
    """The corpus is fixed and so is the order of its checks, which the
    state of caches and memory after each large game depends on; the seed
    changes neither."""
    checks = [(label, phi, s, holds_at(s))
              for label, phi, holds_at in gen.counter_corpus(CORPUS_P)
              for s in range(CORPUS_P)]
    return GameInputs(model=lts.gen_counter_lts(CORPUS_P), checks=checks,
                      counts={"formulas": len(checks) // CORPUS_P,
                              "checks": len(checks)})


def run_games(inp: GameInputs, rec: Recorder) -> dict:
    model = inp.model

    def pipeline(phi, state):
        flat = syntax.desugar_vec(phi)
        types.typecheck(flat)
        fp_free = semantics.eliminate_fixpoints(flat, model)
        game = games.build_game(model, state, fp_free)
        return games.solve(game).winner == games.EXISTS

    for label, phi, state, want in inp.checks:
        rec.check(f"{label}@{state}", lambda: pipeline(phi, state), want)
    return {}


# ---------------------------------------------------------------------------
# random-cli: small random instances through `hflcheck check`, per engine

CLI_INSTANCES = 1000
CLI_MAX_STATES = 3
GROUND_SHARE = 0.3
GROUND_DEPTH = 6
HFL_DEPTH = 4
# Elimination hashes eliminated formulas as trees, so its cost grows with
# gen.unfolded_size, which is exponential in fixpoint nesting: a random
# instance past this size takes seconds to minutes, and whether a seed
# draws one would decide run_s.  Such instances are drawn again; the fixed
# elimination probe keeps that cost in every pass at a bounded size.
MAX_UNFOLDED_SIZE = 10_000
ENGINES = ("naive", "demand", "elim-game")
_ERROR_CLASS = re.compile(r"error\[(\w+)\]")


class CliError(Exception):
    """`hflcheck check` exited 2; carries the error class it printed."""

    def __init__(self, stderr: str):
        super().__init__(stderr)
        m = _ERROR_CLASS.search(stderr)
        self.error_class = m.group(1) if m else "exit-2"


@dataclass
class CliInputs:
    instances: list  # (lts path, formula path, state, want or None)
    counts: dict


def setup_cli(seed: int, workdir: str) -> CliInputs:
    rng = random.Random(seed)
    drawn = []
    redrawn = 0
    while len(drawn) < CLI_INSTANCES:
        model = gen.random_lts(rng, CLI_MAX_STATES)
        is_ground = rng.random() < GROUND_SHARE
        if is_ground:
            phi = gen.random_mu_formula(rng, GROUND_DEPTH)
        else:
            phi = gen.random_hfl_formula(rng, HFL_DEPTH)
        state = rng.randrange(model.n)
        if gen.unfolded_size(phi, model.n) > MAX_UNFOLDED_SIZE:
            redrawn += 1
        else:
            drawn.append((model, phi, state, is_ground))
    model, phi = gen.elimination_probe()
    drawn.append((model, phi, 0, True))
    instances = []
    for n, (model, phi, state, is_ground) in enumerate(drawn):
        # Ground instances have a brute-force answer; HFL ones are gated by
        # agreement among the engines that return a verdict.
        want = state in gen.mu_check(model, phi) if is_ground else None
        lts_path = os.path.join(workdir, f"{n}.lts")
        phi_path = os.path.join(workdir, f"{n}.hfl")
        _write(lts_path, lts.save(model))
        _write(phi_path, surface.print_formula(phi) + "\n")
        instances.append((lts_path, phi_path, state, want))
    ground = sum(1 for d in drawn if d[3])
    return CliInputs(instances=instances,
                     counts={"instances": len(drawn), "ground": ground,
                             "hfl": len(drawn) - ground, "probe": 1,
                             "redrawn": redrawn,
                             "checks": len(drawn) * len(ENGINES)})


def _write(path: str, text: str) -> None:
    """Write text to path unless the file already holds exactly that text.

    The children of one run share their input directory.  Creating a file
    costs hundreds of microseconds of kernel time on some hosts, and that
    cost drifts by half between runs, while reading the file back costs
    tens: so only the run's first child pays for creating the files, and
    set-up time stays a measure of the program and the generators.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            if fh.read() == text:
                return
    except FileNotFoundError:
        pass
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def run_cli(inp: CliInputs, rec: Recorder) -> dict:
    reports = []

    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code == 2:
            raise CliError(err.getvalue())
        reports.append(out.getvalue())
        return code == 0

    for n, (lts_path, phi_path, state, want) in enumerate(inp.instances):
        verdicts = set()
        for engine in ENGINES:
            argv = ["check", "--lts", lts_path, "--formula", phi_path,
                    "--state", str(state), "--engine", engine, "--json"]
            got = rec.check(f"{n}/{engine}", lambda: check(argv), want)
            if got is not None:
                verdicts.add(got)
        if len(verdicts) > 1:
            rec.mismatches.append(f"instance {n}: engines disagree")
    # The report carries two of the three evaluator counters.
    stats = {"fixpoint_iterations": 0, "memo_hits": 0, "tabulated_lambdas": 0}
    for text in reports:
        report = json.loads(text)["stats"]
        stats["fixpoint_iterations"] += report["fixpoint_iterations"]
        stats["memo_hits"] += report["memo_hits"]
    return stats


WORKLOADS = {
    "encoded-eval": (setup_encoded, run_encoded),
    "counter-games": (setup_games, run_games),
    "random-cli": (setup_cli, run_cli),
}
