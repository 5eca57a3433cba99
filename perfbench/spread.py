"""Steadiness of the benchmark over seeds, and the baseline file.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 10] [--first-seed 1]
                                [--out perfbench/results/baseline.json]
                                [--against perfbench/results/baseline.json]

Runs `run.py` once per seed for each workload, one run at a time, with its
default run length (`run_seconds` of BENCHMARK.json).  For each metric of
the runs' summaries it prints the median and the spread: the distance
between the first and third quartile (`statistics.quantiles(values, n=4)`)
as a share of the median.  Every metric that BENCHMARK.json bounds is
steady when its spread is below a third of its bound; the unbounded
latencies are only reported.  With --against, each bounded median is also
compared with the same workload's median in an earlier output of this
script, and must not be worse by more than its bound.  Then it makes one
traced run per workload on the first seed.  With --out, every run's result
line and the summary are written to one JSON file.  The exit code is 1
when any bounded metric is not steady or has moved past its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench_run(workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
            workload, "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv[1:])} exited {proc.returncode}:\n"
                 f"{proc.stdout}{proc.stderr}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(ROOT, ".perfbench",
                        f"result-{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        line["result"] = json.load(fh)
    return line


def spread(values) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out")
    ap.add_argument("--against")
    args = ap.parse_args(argv)
    earlier = {}
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            earlier = json.load(fh)["summary"]
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    summary, runs, steady = {}, {}, True
    for workload in args.workloads.split(","):
        lines = []
        for seed in seeds:
            lines.append(bench_run(workload, seed, 0))
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v:.5g}"
                for k, v in lines[-1]["result"]["summary"].items()),
                flush=True)
        summary[workload] = {}
        bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
        for name in lines[0]["result"]["summary"]:
            values = [line["result"]["summary"][name] for line in lines]
            median = statistics.median(values)
            share = spread(values) if median else 0.0
            bound = bounds.get(name)
            ok = bound is None or share < bound / 3
            note = "" if ok else "  NOT STEADY"
            before = earlier.get(workload, {}).get(name)
            if bound is not None and before:
                moved = median / before["median"] - 1
                note += f"  moved {moved:+.4f}"
                if moved > bound:
                    ok = False
                    note += " PAST BOUND"
            steady = steady and ok
            summary[workload][name] = {
                "median": median, "spread": share, "bound": bound}
            print(f"  {name:<14} median {median:.5g}  "
                  f"spread {share:.4f}  bound {bound}{note}")
        traced = bench_run(workload, args.first_seed, 1)
        runs[workload] = {"untraced": lines, "traced": traced}
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seeds": list(seeds), "summary": summary, "runs": runs},
                      fh, indent=1)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
