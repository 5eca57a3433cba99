"""The hflcheck benchmark: three workloads, each pass in a fresh process.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Without --workload, all three workloads run one after another.  --seconds
defaults to `run_seconds` of BENCHMARK.json, the one place the run length
is set.  A run of one workload starts one child process at a time
(`child.py`): one set-up-only child to warm up, then rounds of
SETUPS_PER_ROUND set-up-only children and one pass.  After the first, a
round starts only if it would end within --seconds; set-up-only children
close the run.  Every child is a fresh
interpreter, so module-level caches start empty in every pass.

With --trace 0 the metrics are the end-to-end ones, which BENCHMARK.json
bounds: run_ref_s, the pass time on the scaled clock of clock.py (the time
at the reference speed of the host), and peak_rss_mb, both medians over
the passes, and setup_s, the set-up time on the scaled clock, lower
quartile over all set-ups (slow spells of the host only add time).  Printed and recorded as well: run_s, the wall
time of a pass (median over the passes), check latency percentiles and
the failed share.  Every pass makes the same checks, so each check's
latency is its lowest over the passes; a slow spell of the host during
one pass would otherwise decide the percentiles.  With --trace 1 each
round is an untraced pass and a traced one; the metrics are the per-layer
numbers of the traced passes and the tracing overhead.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  The full result, with provenance, goes to
.perfbench/result-<workload>-seed<seed>-trace<t>.json.  The exit code is 0
when every verdict matched its reference, 1 on a wrong verdict and 2 when
a pass could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("encoded-eval", "counter-games", "random-cli")
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    RUN_SECONDS = json.load(_fh)["run_seconds"]
# Set-up-only children before each pass and after the last one.
SETUPS_PER_ROUND = 8
# A run must end within 180 s.
CHILD_TIMEOUT_S = 170.0
# Fixed string hashing, so that set iteration order, and with it every
# traced count, repeats exactly between processes.
CHILD_ENV = {**os.environ, "PYTHONHASHSEED": "0"}


class PassError(Exception):
    """A child process ended without a record of its pass."""


def child(workload: str, seed: int, mode: str, deadline: float,
          index: int = 0) -> dict:
    timeout = max(1.0, min(CHILD_TIMEOUT_S, deadline - time.monotonic()))
    argv = [sys.executable, os.path.join(HERE, "child.py"), workload,
            str(seed), mode, str(index)]
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=CHILD_ENV, timeout=timeout,
                              capture_output=True, text=True)
    except subprocess.TimeoutExpired:
        raise PassError(f"{workload} {mode} pass ran over {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise PassError(f"{workload} {mode} pass exited {proc.returncode}:\n"
                        f"{proc.stderr.strip()}")
    return json.loads(lines[-1])


def lower_quartile(values) -> float:
    """The first quartile; a traced run has a single set-up."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4)[0]


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    inputs = os.path.join(OUT, f"inputs-{workload}-seed{seed}")
    try:
        return _measure(workload, seed, seconds, trace)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)


def _measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    deadline = started + CHILD_TIMEOUT_S
    plain, traced, setups = [], [], []

    def sample_setups():
        for _ in range(0 if trace else SETUPS_PER_ROUND):
            setups.append(child(workload, seed, "setup", deadline))

    # A round is the set-ups and the pass (or passes) before the next
    # set-ups.  After the first, a round starts only if one as long as the
    # last would still end within the run's time.  The first child of a run
    # only warms up: its set-up was often the slowest of the run.
    if not trace:
        child(workload, seed, "setup", deadline)
    round_s = 0.0
    while not plain or time.monotonic() - started + round_s < seconds:
        round_started = time.monotonic()
        sample_setups()
        plain.append(child(workload, seed, "run", deadline))
        if trace:
            traced.append(child(workload, seed, "trace", deadline,
                                len(traced)))
        round_s = time.monotonic() - round_started
    sample_setups()
    setup_walls = [p["setup_wall_s"] for p in setups + plain]
    setups = [p["setup_s"] for p in setups + plain]

    latencies = [min(xs) for xs in zip(*(p["latencies_ms"] for p in plain))]
    errors = {}
    for p in plain:
        for cls, n in p["errors"].items():
            errors[cls] = errors.get(cls, 0) + n
    failed = sum(errors.values())
    run_s = statistics.median(p["run_s"] for p in plain)
    summary = {
        "setup_s": lower_quartile(setups),
        "setup_wall_s": statistics.median(setup_walls),
        "run_ref_s": statistics.median(p["run_ref_s"] for p in plain),
        "run_s": run_s,
        "check_p50_ms": percentile(latencies, 50),
        "check_p90_ms": percentile(latencies, 90),
        "check_p99_ms": percentile(latencies, 99),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        "failed_share": failed / (len(latencies) * len(plain)),
    }
    layers = {}
    if trace:
        for name in traced[0]["layers"]:
            layers[name] = statistics.median(p["layers"][name] for p in traced)
        traced_run_s = statistics.median(p["run_s"] for p in traced)
        layers["trace.overhead_s"] = traced_run_s - run_s
        layers["trace.overhead_share"] = (traced_run_s - run_s) / run_s
    mismatches = [m for p in plain + traced for m in p["mismatches"]]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "provenance": provenance(),
        "counts": plain[0]["counts"],
        "passes": len(plain),
        "traced_passes": len(traced),
        "setups": len(setups),
        "checks_per_pass": len(latencies),
        "attempted": len(latencies) * len(plain),
        "failed": failed,
        "errors": errors,
        "mismatches": mismatches,
        "summary": summary,
        "layers": layers,
        "spans_files": [p["spans_file"] for p in traced],
        "pass_run_s": [p["run_s"] for p in plain],
        "pass_run_ref_s": [p["run_ref_s"] for p in plain],
        "probe_ms_quartiles": statistics.quantiles(
            [x for p in plain for x in p["probes_ms"]], n=4),
        "pass_setup_s": setups,
        "wall_s": time.monotonic() - started,
    }


def provenance() -> dict:
    src = os.path.join(ROOT, "src")
    lines = 0
    for dirpath, _, files in os.walk(src):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(),
        "src_lines": lines,
    }


def git_revision() -> str:
    """HEAD's commit id read from .git, or "unknown" outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


# The metrics of the result line, which BENCHMARK.json bounds.
END_TO_END = {"setup_s": "s", "run_ref_s": "s", "peak_rss_mb": "MB"}
# Printed and recorded, not bounded: wall times of the pass (run_s) and of
# its checks.  On a shared 2-core virtual machine they swung by up to 1.6x
# with other tenants' load, so they spread past any bound the benchmark
# may set.
LATENCIES = ("check_p50_ms", "check_p90_ms")


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_rate"):
        return "1/s"
    if name.endswith("_share"):
        return "share"
    return "count"


def report(result: dict) -> dict:
    """Print the human-readable lines; return the contract's JSON line."""
    s = result["summary"]
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"passes {result['passes']}  set-ups {result['setups']}  "
          f"checks {result['attempted']} ({result['checks_per_pass']} per pass)"
          f"  inputs {result['counts']}")
    for name, unit in END_TO_END.items():
        print(f"  {name:<16} {s[name]:.6g} {unit}")
    for name in ("setup_wall_s", "run_s"):
        print(f"  {name:<16} {s[name]:.6g} s (wall time; not bounded)")
    latencies = LATENCIES
    if result["workload"] == "random-cli":
        latencies += ("check_p99_ms",)
    for name in latencies:
        print(f"  {name:<16} {s[name]:.6g} ms "
              f"(of {result['checks_per_pass']} checks; not bounded)")
    errors = ", ".join(f"{k} {v}" for k, v in sorted(result["errors"].items()))
    print(f"  {'failed_share':<16} {s['failed_share']:.6g} "
          f"({result['failed']} of {result['attempted']}{'; ' + errors if errors else ''})")
    for m in result["mismatches"][:20]:
        print(f"  WRONG VERDICT {m}")
    if result["trace"]:
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in result["layers"].items()}
        for k, v in metrics.items():
            print(f"  {k:<30} {v['value']:.6g} {v['unit']}")
    else:
        metrics = {k: {"value": s[k], "unit": u} for k, u in END_TO_END.items()}
    return {"correct": not result["mismatches"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    correct = True
    for workload in [args.workload] if args.workload else WORKLOADS:
        try:
            result = measure(workload, args.seed, args.seconds, bool(args.trace))
        except PassError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(
            OUT, f"result-{workload}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
        line = report(result)
        print(json.dumps(line))
        correct = correct and line["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
