"""Host-speed reference probe and the segment timer that uses it.

The host this benchmark was built on lends it a share of a machine it
shares with other tenants, and the speed a core runs at changes by up to
a third over seconds to minutes.  CPU time moves with it (a fixed loop's
CPU time equals its wall time at either speed), so timing CPU instead of
wall time does not help, and neither does averaging inside a run: ten
runs of one workload span many minutes.

The untraced run therefore interleaves a fixed reference kernel, the
*probe*, with the program (:class:`SegmentTimer`).  A segment's *scaled*
time is its wall time times ``REFERENCE_S`` over the mean probe time
around and during it: the time the segment would have taken on a host
where the probe takes ``REFERENCE_S``.  The probe is part interpreted
loop, part numpy gather and sort, the two kinds of work the program's
layers do.  It lives in the benchmark, so a change to the program moves
the scaled times by the same share as the wall times; only the host's
speed is divided out.  Probe time is never inside a timed segment.
"""

from __future__ import annotations

import signal
import time
from typing import Any, Callable, List, Optional, Tuple

import numpy as np

#: Probe time that defines the reference speed (about the probe's time on
#: the 2-core x86_64 VM the benchmark was built on, at its faster level).
REFERENCE_S = 0.004

_N = 1 << 15
_VALUES = np.random.default_rng(20190531).random(_N)
_ORDER = np.random.default_rng(20200601).permutation(_N)
_OUT = np.empty(_N)


def _kernel() -> float:
    s = 0
    for i in range(60_000):
        s += i * i
    np.take(_VALUES, _ORDER, out=_OUT)
    _OUT.sort()
    return float(s) + float(_OUT[0])


def probe() -> float:
    """Seconds the reference kernel takes now: the fastest of three
    back-to-back repetitions, so one interrupt does not read as a slow
    host."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def scale(seconds: float, probes: List[float]) -> float:
    """``seconds`` at the reference speed, given the probes taken over it."""
    return seconds * REFERENCE_S / (sum(probes) / len(probes))


class SegmentTimer:
    """Times consecutive segments of work.

    With ``probing`` off it is a plain wall clock (``scaled == wall``).
    With it on, a probe runs before the first segment and after each.
    While a segment runs, SIGALRM every ``PERIOD_S`` runs one more probe
    in the main thread, between the program's bytecodes (a long C call
    defers it to its end).  The program is paused while the handler
    runs, so the handler's time is taken out of the segment's wall time.
    A segment is scaled by the mean of its own probes and those on
    either side of it; long segments (a 7 s first step) are thereby
    scaled by the speed they ran at, not only the speed at their ends.
    Only for the main thread of a process that uses no SIGALRM itself.
    """

    PERIOD_S = 0.25

    def __init__(self, probing: bool = False):
        self.probing = probing
        self._before: Optional[float] = probe() if probing else None
        self._inside: List[float] = []
        self._paused = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._inside.append(probe())
        self._paused += time.perf_counter() - t0

    def time(self, fn: Callable[..., Any], *args: Any) -> Tuple[Any, float, float]:
        """Run ``fn(*args)``; return (result, wall seconds, scaled seconds).

        With probing, the wall seconds exclude the in-segment probes."""
        if not self.probing:
            t0 = time.perf_counter()
            result = fn(*args)
            wall = time.perf_counter() - t0
            return result, wall, wall
        self._inside, self._paused = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.siginterrupt(signal.SIGALRM, False)
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            wall = time.perf_counter() - t0 - self._paused
            signal.signal(signal.SIGALRM, previous)
        after = probe()
        scaled = scale(wall, [self._before, *self._inside, after])
        self._before = after
        return result, wall, scaled
