"""Machine-speed reference for the end-to-end timings.

The benchmark shares a small machine with other tenants, and its speed
drifts by tens of percent over seconds to minutes.  A fixed pure-Python
loop (tuples, dict updates and ``Fraction`` sums, like the recognizers) is
timed between ops at least every ``INTERVAL_S``; each op's latency is then
scaled by ``NOMINAL_S`` over the mean of the two reference samples that
bracket it.  A scaled time is what the op would have taken on a machine that
runs the reference loop in ``NOMINAL_S`` seconds.  The loop runs with the
garbage collector off, so the program's heap does not change it.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

NOMINAL_S = 0.005
INTERVAL_S = 0.25


def reference_loop() -> None:
    counts = {}
    acc = Fraction(0)
    for i in range(1500):
        p = (i % 7, i % 11, i % 13)
        counts[p] = counts.get(p, 0) + 1
        acc += Fraction(i % 5, 1 + i % 3)


class SpeedReference:
    def __init__(self):
        self.samples = []
        self._last = float("-inf")

    def sample(self) -> int:
        """Time the reference loop once; returns the sample's index."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            reference_loop()
            self.samples.append(time.perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()
        self._last = time.perf_counter()
        return len(self.samples) - 1

    def tick(self) -> int:
        """Sample when the interval has passed since the last sample; returns
        the index of the latest sample, which precedes the next op."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            return self.sample()
        return len(self.samples) - 1

    def scale(self, before: int) -> float:
        """Factor for an op that ran between sample ``before`` and the next
        one."""
        return NOMINAL_S / ((self.samples[before] + self.samples[before + 1]) / 2)

    def scaled(self, ops):
        """Scaled latencies of (seconds, sample index before) records."""
        return [lat * self.scale(before) for lat, before in ops]
