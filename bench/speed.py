"""Host speed, measured beside the program so that contention can be divided out.

The benchmark runs on cores it shares with other tenants. While a neighbour
is busy, the same single-threaded call takes about 1.6 times as long, and
the busy and quiet spells each last some 10 to 30 seconds, so whole runs
land in one or the other. A run therefore times a fixed calibration kernel,
which does not touch prophet_samples, at most every INTERVAL_S seconds
between tasks. Each task time is divided by the speed factor, the median
kernel time within WINDOW_S seconds of it over the quiet-core time in
REFERENCE_S, and so is reported at the speed of quiet cores. In probes on
a 2-core host, dividing cut the spread of 4-second medians of the library's
Python-bound calls (adversary, semi_exact_ordinal, the paper sweep) three-
to five-fold; it did not help array-bound calls such as build_dd_mixture at
k = 3200. A program change moves the kernel not at all and the reported
time in full.

A workload that runs on several worker threads is timed against the kernel
run once on each of as many threads at the same time: a kernel on one
thread reads the contention of one core only, and dividing by it made the
spread of the two-worker workload wider, where the two-thread kernel made it
narrower.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Kernel time by thread count on quiet cores of the 2-core host the bounds
# were set on (the 5th percentile of 400 timings).
REFERENCE_S = {1: 4.0e-3, 2: 6.3e-3}
INTERVAL_S = 0.1
WINDOW_S = 0.15

# A box of three segments, one of them an atom, and long arrays.
_SEGMENTS = ((0.3, 0.0, 1.0), (0.2, 1.5, 1.5), (0.5, 2.0, 3.0))
_LARGE = np.linspace(0.0, 1.0, 100_000)


def _cdf(x: float) -> float:
    arr = np.asarray(x, dtype=float)
    out = np.zeros_like(arr)
    for w, lo, hi in _SEGMENTS:
        if lo == hi:
            out += w * (arr >= lo)
        else:
            out += w * np.clip((arr - lo) / (hi - lo), 0.0, 1.0)
    return float(out)


def kernel() -> float:
    """Fixed work in the library's style: scalar numpy calls, the interpreter, long arrays.

    The scalar CDF is written like the library's own, because a kernel of
    plain integer arithmetic slowed less under contention than the
    library's scalar code does, and so under-corrected it.
    """
    total = 0.0
    for i in range(150):
        total += _cdf(0.02 * i)
    for _ in range(2):
        np.exp(np.log1p(_LARGE))
    for i in range(10_000):
        total += i * i
    return total


class SpeedProbe:
    """Kernel timings over a run, and the speed factor around any moment.

    With threads > 1 the kernel runs once on each of that many threads at
    once; close() stops them.
    """

    def __init__(self, threads: int = 1) -> None:
        self.threads = threads
        self.reference_s = REFERENCE_S[threads]
        self._pool = ThreadPoolExecutor(threads) if threads > 1 else None
        self.at: list[float] = []
        self.took: list[float] = []

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()

    def sample(self) -> None:
        t0 = time.perf_counter()
        if self._pool is None:
            kernel()
        else:
            for future in [self._pool.submit(kernel) for _ in range(self.threads)]:
                future.result()
        t1 = time.perf_counter()
        self.at.append(0.5 * (t0 + t1))
        self.took.append(t1 - t0)

    def maybe_sample(self) -> None:
        if not self.at or time.perf_counter() - self.at[-1] >= INTERVAL_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """Median kernel time near [start, end] over the reference time."""
        at = np.asarray(self.at)
        lo, hi = np.searchsorted(at, [start - WINDOW_S, end + WINDOW_S])
        if hi <= lo:
            nearest = int(np.argmin(np.abs(at - 0.5 * (start + end))))
            lo, hi = nearest, nearest + 1
        return float(np.median(self.took[lo:hi])) / self.reference_s
