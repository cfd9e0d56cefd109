"""Machine-speed calibration for the end-to-end times.

The benchmark runs on shared machines whose speed drifts by 20-30% over
minutes, for every process alike.  To keep that drift out of the figures,
a fixed pure-Python burst (integer loop plus exact Fraction sums, the kind
of work sdlab's Python code does; no sdlab code) is timed every
`EVERY_S` seconds alongside the measured work.  Each measured time is then
reported at the reference speed:

    reported = measured * REF_BURST_S / median(bursts timed alongside it)

`REF_BURST_S` is the median burst time on the reference machine (a 2-vCPU
Xeon VM, Python 3.11), so where the machine runs at that speed the
reported seconds equal the measured ones.  The burst runs with the garbage
collector off, so the size of the program's heap does not change it.
Measured seconds are kept next to the reported ones in every run's record.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

REF_BURST_S = 0.0071
EVERY_S = 0.5  # seconds of measured work between two bursts


def burst() -> float:
    """Seconds for one fixed pure-Python burst."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        s = 0
        for i in range(40000):
            s += i * i % 7
        f = Fraction(0)
        for i in range(1, 700):
            f += Fraction(1, i)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Speedometer:
    """Bursts timed alongside measured work, and the time they took (which
    the caller leaves out of what it measures)."""

    def __init__(self):
        self.samples: list = []
        self.spent = 0.0
        self._last = time.perf_counter()

    def tick(self, force: bool = False) -> None:
        """Time a burst if `EVERY_S` seconds passed since the last one."""
        t0 = time.perf_counter()
        if force or t0 - self._last >= EVERY_S:
            self.samples.append(burst())
            self._last = time.perf_counter()
            self.spent += self._last - t0

    def factor(self) -> float:
        """Reference over current speed: multiply measured seconds by it."""
        return REF_BURST_S / statistics.median(self.samples)
