"""Samples how fast this machine runs Python while the benchmark measures,
so that the benchmark states every time at one reference speed.

On a shared host a vCPU's speed drifts, by up to 1.7x within a quarter of a
second and over minutes, with no steal time to show for it, and every wall
time drifts with it.  ``probe`` is a fixed piece of pure Python of the kind
sheafmod spends its time in, and never calls sheafmod, so a change to the
program does not move it.  While a ``Sampler`` is active, a SIGALRM handler
runs the probe every ``INTERVAL_S`` of wall time, also in the middle of a
timed call; the handler's own time is taken out of the call's time, and the
call's time is scaled by ``REFERENCE_S`` over the median probe time during
the call and ``MARGIN_S`` around it.

The probe has two parts, because when the host is busy the program slows
less than Fraction arithmetic does and more than plain small-int bytecode
does: products of dicts of Fractions (about 70% of the probe's time), then a
small-int recurrence.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

# The probe's time on the reference machine: a time reported by the
# benchmark is what the call would take where the probe takes this long.
REFERENCE_S = 0.0003
INTERVAL_S = 0.025
MARGIN_S = 0.05

_A = [((i, j), Fraction(i - j, j + 1)) for i in range(3) for j in range(3)]
_B = [((i, j), Fraction(j + 2, i + 1)) for i in range(3) for j in range(3)]
_INT_STEPS = 1200


def probe() -> float:
    """Run the probe once; return its wall time in seconds."""
    t0 = time.perf_counter()
    out: dict = {}
    for (ai, aj), va in _A:
        for (bi, bj), vb in _B:
            key = (ai + bi, aj + bj)
            out[key] = out.get(key, 0) + va * vb
    x = 0
    for i in range(_INT_STEPS):
        x = (x * 31 + i) & 0xFFFF
    return time.perf_counter() - t0


class Sampler:
    """Context manager that runs ``probe`` every ``INTERVAL_S`` from a
    SIGALRM handler in the main thread.  ``busy`` is the handler's total
    time so far: a caller subtracts its growth from what it times."""

    def __init__(self) -> None:
        self.at: list[float] = []  # start of each probe
        self.took: list[float] = []  # duration of each probe
        self.busy = 0.0
        self._ticking = False

    def _tick(self, signum=None, frame=None) -> None:
        if self._ticking:  # a signal that arrives during the probe is dropped
            return
        self._ticking = True
        t0 = time.perf_counter()
        self.took.append(probe())
        self.at.append(t0)
        self.busy += time.perf_counter() - t0
        self._ticking = False

    def __enter__(self) -> "Sampler":
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start: float, end: float, seconds: float) -> float:
        """``seconds`` measured between ``start`` and ``end``, at the
        reference speed; with no probe in reach, the nearest one is used."""
        lo = bisect_left(self.at, start - MARGIN_S)
        hi = bisect_right(self.at, end + MARGIN_S)
        if lo == hi:
            lo, hi = max(0, lo - 1), lo + 1
        return seconds * REFERENCE_S / statistics.median(self.took[lo:hi])

    def speed(self) -> float:
        """Reference probe time over the median probe time: the factor that
        brings this machine's times to the reference speed."""
        return REFERENCE_S / statistics.median(self.took)
