"""Machine-speed calibration for a shared, noisy host.

On the 2-core VM this benchmark was sized on, one fixed computation ran
1.03x to 1.93x slower than its best, in 3 s windows over 75 s, in CPU time as
much as in wall time, and whole 30 s runs were up to 1.6x slower than their
neighbours.  A fixed pure-Python loop, timed next to the ops, measures the
local speed.  An op's time is scaled by ``REFERENCE_S`` over the loop's local
time: the op's time on this machine when idle.  For one op repeated for 60 s,
scaling cut the range of its 10 s window means from 19% to 1.4%.
"""

from __future__ import annotations

import gc
from time import perf_counter

# seconds per loop on the idle 2-core x86-64 VM, CPython 3.11.7
REFERENCE_S = 0.0016
PROBE_EVERY_S = 0.2


def _loop() -> int:
    """Interpreter work of the program's kind: tuple keys, dicts, short strings."""
    memo = {}
    hits = 0
    for i in range(4000):
        memo[(i, i + 1, i + 2)] = ("1" if i & 1 else "0") + ("1" if i & 2 else "0")
        hits += (i - 1, i, i + 1) in memo
    return hits


def loop_seconds() -> float:
    """Seconds per calibration loop here and now: mean of 3, collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        for _ in range(3):
            _loop()
        return (perf_counter() - t0) / 3
    finally:
        if enabled:
            gc.enable()


class SpeedLog:
    """Calibration probes in time order, at most one per PROBE_EVERY_S."""

    def __init__(self):
        self.probes = []
        self._last = float("-inf")

    def probe(self) -> int:
        """Takes a probe; returns its index."""
        self.probes.append(loop_seconds())
        self._last = perf_counter()
        return len(self.probes) - 1

    def before_timing(self) -> int:
        """Index of a recent probe, taking a new one when the last is stale."""
        if perf_counter() - self._last >= PROBE_EVERY_S:
            return self.probe()
        return len(self.probes) - 1

    def scale(self, seconds: float, before: int) -> float:
        """A duration measured after probe `before`, at reference speed.

        Uses the mean of that probe and the next one, so a probe must have
        been taken after the timed interval.
        """
        local = (self.probes[before] + self.probes[before + 1]) / 2
        return seconds * REFERENCE_S / local
