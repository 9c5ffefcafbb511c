"""Scale measured times to a reference CPU speed.

On the shared box the benchmark was tuned on, the CPU a run is pinned
to slows down and speeds up with the load of other tenants, by up to
about 1.6x, over seconds and over minutes.  A run of a minute cannot
average that out: the same pass took 15 s in one run and 24 s in the
next.  So while a run measures, a SIGALRM timer in the benchmark's own
process runs a fixed pure-Python snippet every ``PERIOD_S`` on the same
CPU and records how long it took.  A time measured over ``[t0, t1]`` is
scaled by ``REFERENCE_S`` over the median snippet time inside that
window: it reads as what the box would have taken at the speed it had
when the snippet took ``REFERENCE_S``.

The snippet is arithmetic on small integers, so it tracks how fast the
core runs the interpreter, and not the cache the program itself fills.
Child processes do not inherit the timer.  Each tick costs about
0.1 ms, and a context switch when a child is running: about 0.5% of
the CPU.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

#: time between two snippet runs
PERIOD_S = 0.025
#: about the median snippet time over the runs the benchmark was tuned
#: with (2-vCPU Intel Xeon, Python 3.11.7): the speed scaled times read
#: at, so they stay close to the walls a user sees on that box
REFERENCE_S = 1.35e-4
#: fewest snippet times one scale is taken from; a shorter window
#: borrows the nearest ones around it
MIN_SAMPLES = 9


def snippet() -> int:
    total = 0
    for i in range(1500):
        total += i * i
    return total


class SpeedProbe:
    """Snippet times over the run; :meth:`scale` turns them into the
    factor that brings a window's times to the reference speed."""

    def __init__(self) -> None:
        self.ticks: list[tuple[float, float]] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t = time.perf_counter()
        snippet()
        self.ticks.append((t, time.perf_counter() - t))

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the median snippet time in ``[t0, t1]``
        (``time.perf_counter`` values, which child processes share)."""
        ticks = list(self.ticks)
        if not ticks:
            raise RuntimeError("no speed samples: the timer did not run")
        starts = [t for t, _ in ticks]
        lo = bisect.bisect_left(starts, t0)
        hi = bisect.bisect_right(starts, t1)
        if hi - lo < MIN_SAMPLES:
            mid = (lo + hi) // 2
            lo = max(0, mid - MIN_SAMPLES // 2)
            hi = min(len(ticks), lo + MIN_SAMPLES)
        return REFERENCE_S / statistics.median(d for _, d in ticks[lo:hi])
