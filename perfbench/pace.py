"""The host's pace, sampled while an interval is timed.

On a shared host, other tenants slow every process on it by 20-40% for
stretches of seconds, which is more than the benchmark's bounds.  While a
``Paced`` block runs, a timer interrupts it every ``INTERVAL_S`` to time a
small fixed piece of reference work (a probe).  The block's wall time, less
the probes', is then scaled by ``NOMINAL_S`` over the probes' mean CPU time,
which cancels most of that slowdown and keeps the figure in seconds.  CPU
time of this thread, not wall time, so that a program thread holding the
interpreter lock during a probe does not make the host look slow.

The probe is interpreted Python over ``Fraction``, ``int`` and ``dict``
objects, as gwlab's hot loops are, with a footprint of a few kilobytes, so
that a workload's own cache use moves it little.  Garbage collection is off
while it runs, so that objects a workload keeps alive do not slow the probe
and flatter the workload.  It imports nothing, so it is safe to run while an
import is in progress.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.1
# Mean probe CPU time, within a workload, on the host the bounds were set on: 2 vCPUs of an Intel
# Xeon, CPython 3.11.7.  Only ratios of probe times matter; this constant
# keeps scaled times close to wall times on that host.
NOMINAL_S = 0.0025


def _probe() -> None:
    total = Fraction(0)
    for i in range(450):
        total += Fraction(i % 7 + 1, i % 11 + 2)
    counts: dict[int, int] = {}
    for i in range(6_000):
        counts[i & 255] = counts.get(i & 255, 0) + i


# Warm the probe up (bytecode specialisation, first allocations), so that
# the first probe of a fresh interpreter is not an outlier.
for _ in range(10):
    _probe()


class Paced:
    """Times a block and samples the host's pace while it runs.

    After the block, ``raw_s`` is its wall time, ``pace_s`` the probes'
    mean CPU time and ``seconds`` the wall time less the probes', at the
    nominal pace.
    """

    def __init__(self) -> None:
        self.probes: list[float] = []  # CPU seconds of each probe
        self.probe_wall_s = 0.0
        self.raw_s = 0.0
        self.pace_s = 0.0
        self.seconds = 0.0

    def _tick(self, signum=None, frame=None) -> None:
        enabled = gc.isenabled()
        gc.disable()
        wall, cpu = time.perf_counter(), time.thread_time()
        _probe()
        self.probes.append(time.thread_time() - cpu)
        self.probe_wall_s += time.perf_counter() - wall
        if enabled:
            gc.enable()

    def __enter__(self) -> "Paced":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._start = time.perf_counter()
        self._tick()  # at least one probe, however short the block
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.raw_s = time.perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        self.pace_s = sum(self.probes) / len(self.probes)
        self.seconds = (self.raw_s - self.probe_wall_s) * NOMINAL_S / self.pace_s
