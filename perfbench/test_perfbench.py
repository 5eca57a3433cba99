"""The benchmark's own tests: a traced pass is reproducible, and the scaled
clock leaves out its probes.

Run with `python -m pytest perfbench/test_perfbench.py` from the repository
root.  It takes about half a minute: two traced passes of random-cli.
"""

import os
import shutil
import time

import clock
import run


def test_two_traced_passes_give_identical_counts():
    deadline = time.monotonic() + 2 * run.CHILD_TIMEOUT_S
    try:
        first, second = [run.child("random-cli", 7, "trace", deadline, i)
                         for i in range(2)]
    finally:
        shutil.rmtree(os.path.join(run.OUT, "inputs-random-cli-seed7"),
                      ignore_errors=True)
    assert not first["mismatches"]
    assert first["calls"] == second["calls"]
    counts = [k for k in first["layers"] if run.layer_unit(k) == "count"]
    assert counts
    assert ({k: first["layers"][k] for k in counts}
            == {k: second["layers"][k] for k in counts})
    assert first["calls"]["semantics.Evaluator.eval"] > 0
    assert first["layers"]["games.nodes"] > 0


def test_scaled_clock_leaves_out_its_probes():
    scaled = clock.ScaledClock()
    scaled.start()
    try:
        wall0, ref0 = scaled.read()
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.5:
            pass
        wall1, ref1 = scaled.read()
        elapsed = time.perf_counter() - t0
    finally:
        scaled.stop()
    assert len(scaled.probes) >= 5
    assert wall1 - wall0 < elapsed
    assert ref1 - ref0 > 0
