"""Machine speed, measured with a fixed reference task, to scale timings by.

The machines this benchmark runs on share their cores with other load, and
their speed swings by a third or more within seconds and from one minute to
the next. An op's wall time then says as much about the neighbours as about
the program. A short fixed task, timed every ``EVERY_S`` seconds between ops,
tracks that speed: on a 2-core VM its time and the throughput of the
``paths-long`` ops moved together with a correlation of 0.92.

Op times are reported scaled to a machine on which the reference task takes
``REF_MS`` milliseconds: ``scaled = wall * REF_MS / ref``. ``ref`` is one
number per run, the reference's mean time over the run weighted by op time;
the op's reading is the mean of those taken just before and just after it.
The reference task is the benchmark's own code and never calls the package,
so a change in the package's speed moves the scaled times in the same
proportion as the wall times.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# The reference task's median time on the 2-core VM the benchmark was built on.
REF_MS = 2.0
# Time the reference again once this many seconds have passed since the last time.
EVERY_S = 0.2
REPEATS = 3


def reference_task() -> str:
    """Float formatting in a Python loop plus small numpy array updates.

    The mix is that of the ops: per-row Python work and CSV formatting on
    one side, vectorised array arithmetic on the other.
    """
    out = []
    for k in range(1500):
        x = 1.0 + k / 997.0
        out.append(format(math.log(x) * 0.5 + x**0.3, ".12g"))
    a = np.linspace(0.1, 2.0, 4096)
    for _ in range(16):
        a = np.sqrt(a * a + 0.5) - 0.25
    return ",".join(out) + format(float(a.sum()), ".12g")


def reference_ms() -> float:
    """Median of REPEATS back-to-back timings of the reference task, in ms."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        reference_task()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


class Clock:
    """The latest reference time, renewed once EVERY_S seconds have passed."""

    def __init__(self):
        self.ref_ms = reference_ms()
        self.at = time.perf_counter()

    def now(self) -> float:
        if time.perf_counter() - self.at >= EVERY_S:
            self.ref_ms = reference_ms()
            self.at = time.perf_counter()
        return self.ref_ms


def scale(ref_ms: float) -> float:
    """Factor that turns a wall time taken at reference time ``ref_ms`` into a scaled one."""
    return REF_MS / ref_ms
