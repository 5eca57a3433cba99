"""One fresh process: set up a workload and, unless asked for set-up only,
make one timed pass over it.

    python3 perfbench/child.py WORKLOAD SEED MODE [INDEX]

MODE is `setup` (set-up only), `run` (one untraced pass) or `trace` (one
pass with the tracer installed before set-up).  Set-up and untraced
passes are timed on the scaled clock of clock.py, traced passes on the
wall clock.  INDEX numbers the traced passes of a run, so that each
writes its own spans file.  The last line
of standard output is one JSON record of the pass.  `run.py` starts this
script; it is not meant to be run by hand, except to debug one pass.

Exit codes: 0 when every verdict matched its reference, 1 on a wrong
verdict (the record is still printed), 2 when the program cannot be
imported from this checkout.
"""

from __future__ import annotations

import time

import clock as clocks  # from this script's directory

# Set-up is timed on the scaled clock from here on, so that the import of
# the program counts too.
CLOCK = clocks.ScaledClock()
CLOCK.start()
STARTED = CLOCK.read()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")


def _import_program():
    """Import hflcheck from this checkout's src/, and nowhere else."""
    sys.path[:0] = [SRC, HERE]
    try:
        import hflcheck
    except ImportError as e:
        print(f"cannot import hflcheck from {SRC}: {e}", file=sys.stderr)
        sys.exit(2)
    where = os.path.dirname(os.path.abspath(hflcheck.__file__))
    if os.path.commonpath([where, SRC]) != SRC:
        print(f"hflcheck was imported from {where}, not from {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return hflcheck


def main(argv) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    index = int(argv[3]) if len(argv) > 3 else 0
    hflcheck = _import_program()
    tracer = None
    if mode == "trace":
        # Traced children run on the wall clock, without probes, as the
        # tracer's spans are wall-clock times.
        CLOCK.stop()
        import tracing

        tracer = tracing.Tracer()
        tracer.install(hflcheck)
    import workloads

    setup, run = workloads.WORKLOADS[workload]
    # Shared by the children of one run, which make the same inputs;
    # run.py removes it when the run ends.
    workdir = os.path.join(OUT, f"inputs-{workload}-seed{seed}")
    os.makedirs(workdir, exist_ok=True)
    inputs = setup(seed, workdir)
    wall0, ref0 = CLOCK.read()
    record = {"mode": mode, "setup_s": ref0 - STARTED[1],
              "setup_wall_s": wall0 - STARTED[0], "counts": inputs.counts}
    if mode != "setup":
        clock = clocks.Clock() if tracer else CLOCK
        rec = workloads.Recorder(tracer, clock)
        t0 = time.perf_counter()
        wall0, ref0 = clock.read()
        eval_stats = run(inputs, rec)
        wall1, ref1 = clock.read()
        record.update(
            run_s=wall1 - wall0,
            run_ref_s=ref1 - ref0,
            peak_rss_mb=resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
            latencies_ms=[x * 1e3 for x in rec.latencies],
            errors=dict(rec.errors),
            mismatches=rec.mismatches,
        )
        if tracer is not None:
            record["layers"] = tracer.layer_metrics(eval_stats)
            record["calls"] = tracer.calls()
            path = os.path.join(
                OUT, f"spans-{workload}-seed{seed}-pass{index}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(tracer.dump_spans(t0), fh)
            record["spans_file"] = os.path.relpath(path, ROOT)
    CLOCK.stop()
    record["probes_ms"] = [x * 1e3 for x in CLOCK.probes]
    print(json.dumps(record))
    return 1 if record.get("mismatches") else 0


if __name__ == "__main__":
    try:
        code = main(sys.argv[1:])
    finally:
        # Also on a way out by an exception or sys.exit: a timer left armed
        # would end the process with SIGALRM at shutdown.
        CLOCK.stop()
    sys.exit(code)
