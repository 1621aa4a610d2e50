"""Host speed, sampled while the benchmark's work runs.

The benchmark runs on a shared VM whose speed moves by up to 2x, in
stretches of a fraction of a second and in phases that last minutes; the
process's CPU time moves with it.  Raw times of the same code taken
minutes apart therefore spread past any useful bound.

run.py pins its process, and so every child it starts, to one CPU, and
runs a SpeedSampler thread through each timed run.  Every SAMPLE_PERIOD_S
the thread runs one fixed pure-Python reference block and records when it
started and the CPU time it took (``time.thread_time``, which leaves out
any time the thread waited for the CPU).  A unit of work (one CLI process,
or one call inside a worker process) that ran from t0 to t1 is reported in
reference-speed seconds::

    scaled = (t1 - t0) * BLOCK_S / (mean CPU time of the blocks that
                                    started in [t0 - SAMPLE_PERIOD_S, t1 + SAMPLE_PERIOD_S])

Blocks run only before and after a unit would say little about a unit
of several seconds, whose speed changes many times while it runs; the
samples taken during it follow those changes.  BLOCK_S is a block's
median CPU time in benchmark runs on the 2.1 GHz Xeon VM core
(Python 3.11) the benchmark was calibrated on, so there scaled and raw
seconds are close on average.  A change to the program moves the raw time
and leaves the blocks alone, so it shows in the scaled time in full; a
change of host speed moves both and cancels.  The blocks live here,
outside the package, so no change to the program can alter them.  The
sampler takes about 2% of the CPU from the work it measures, the same on
every commit.  A change that makes the program evict more of the CPU's
caches also slows the blocks a little, so it shows slightly less than in
full.
"""

from __future__ import annotations

import os
import threading
import time
from array import array
from bisect import bisect_left, bisect_right

#: a reference block's median CPU seconds in benchmark runs on a 2.1 GHz Xeon
#: VM core (Python 3.11)
BLOCK_S = 0.0006
SAMPLE_PERIOD_S = 0.02


def pin_to_one_cpu() -> None:
    """Pin the calling thread, and the threads and children it starts later, to one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def reference_block() -> int:
    """A fixed mix of small-int arithmetic, dict work and calls."""
    table: dict = {}
    total = 0
    for i in range(1500):
        key = (i * 7919) & 255
        table[key] = table.get(key, 0) + (i * i) % 13
        total += _mix(key, i)
    return total + len(table)


def _mix(a: int, b: int) -> int:
    return (a ^ b) & 0xFF


class SpeedSampler:
    """A thread that times a reference block every SAMPLE_PERIOD_S; use it as a context."""

    def __init__(self):
        self.starts = array("d")
        self.cpu_s = array("d")
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-sampler", daemon=True)

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(SAMPLE_PERIOD_S):
            start = time.perf_counter()
            c0 = time.thread_time()
            reference_block()
            self.cpu_s.append(time.thread_time() - c0)
            self.starts.append(start)

    def scaled(self, t0: float, t1: float) -> float:
        """The seconds from t0 to t1 (perf_counter) at the reference speed."""
        lo = bisect_left(self.starts, t0 - SAMPLE_PERIOD_S)
        hi = bisect_right(self.starts, t1 + SAMPLE_PERIOD_S)
        if lo == hi:
            raise RuntimeError(f"no speed sample near [{t0:.3f}, {t1:.3f}]")
        return (t1 - t0) * BLOCK_S * (hi - lo) / sum(self.cpu_s[lo:hi])
