"""A clock for set-up and the timed pass that corrects for the host's speed.

The benchmark runs on virtual machines that share their cores with other
tenants, and there a fixed piece of Python code runs up to 1.5 times
slower or faster from one second to the next, with no steal time to show
for it and no hardware counters to count instructions instead.  So while
a child runs, `ScaledClock` interrupts it PROBE_EVERY_S seconds of wall
time after each probe (SIGALRM) and times a fixed probe: a loop of
function calls, dictionary and integer work that allocates no container,
so it never starts the garbage collector.  Wall time up to the next probe is scaled
by PROBE_REF_S over the probe's time, which gives the time the child
would have taken had the host run at the speed at which the probe takes
PROBE_REF_S.  That is the reference speed; PROBE_REF_S is about the
probe's fastest time on the host the committed baseline was measured on
(2-core virtual machine, Python 3.11.7).

The probes' own time is taken out of both readings, so `read()` gives the
wall time of the program alone and its reference time.  `Clock` is the
same interface without probes, for passes that must not be interrupted;
its reference time is its wall time.
"""

from __future__ import annotations

import signal
import time

PROBE_EVERY_S = 0.02
PROBE_REF_S = 0.0008
_PROBE_LOOPS = 5000
_PROBE_TABLE = dict.fromkeys(range(64), 0)


def _step(table: dict, i: int) -> int:
    k = (i * 7) & 63
    table[k] = table[k] + 1
    return (i ^ k) % 13


def _probe() -> int:
    table = _PROBE_TABLE
    total = 0
    for i in range(_PROBE_LOOPS):
        total += _step(table, i)
    return total


class Clock:
    """Wall time, read as (wall, reference) with both the same."""

    def read(self) -> tuple:
        t = time.perf_counter()
        return t, t


class ScaledClock:
    """Wall time and reference time, both without the probes' time."""

    def __init__(self):
        self.probes = []  # each probe's time, in order
        self._probe_s = 0.0  # time spent in probes so far
        self._ref = 0.0  # reference time up to self._since
        self._since = 0.0
        self._scale = 1.0
        self._handler = None
        self._running = False

    def _tick(self, signum=None, frame=None) -> None:
        if not self._running:
            return
        t0 = time.perf_counter()
        self._ref += (t0 - self._since) * self._scale
        _probe()
        t1 = time.perf_counter()
        self._scale = PROBE_REF_S / (t1 - t0)
        self._probe_s += t1 - t0
        self._since = t1
        self.probes.append(t1 - t0)
        # One-shot, armed after the probe, so that no probe interrupts
        # another however long the host stalls one.
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S)

    def start(self) -> None:
        self._handler = signal.signal(signal.SIGALRM, self._tick)
        self._running = True
        self._since = time.perf_counter()
        self._tick()

    def stop(self) -> None:
        # A probe that runs from here on neither probes nor arms the timer.
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)

    def read(self) -> tuple:
        # A probe can run between any two lines here; read again if one did.
        while True:
            n = len(self.probes)
            t = time.perf_counter()
            wall = t - self._probe_s
            ref = self._ref + (t - self._since) * self._scale
            if n == len(self.probes):
                return wall, ref
