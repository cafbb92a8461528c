"""Host-speed reference: scales job times to a fixed host speed.

On a shared host the same code runs up to about 1.6x slower for
stretches of 0.1 s to tens of seconds, in user time as much as in wall
time (another tenant on the same physical core), which scatters raw
timings by far more than a change worth measuring.  A Probe times a
small fixed kernel every PERIOD_S seconds from a SIGALRM
handler, so also in the middle of a long library call.  An interval's
time is then scaled by the kernel's nominal duration over its mean
duration in and around that interval, and the handler's own time is
taken out.  The kernel calls no library code and stay the same from one
commit to the next, so a change to the library cannot move them; a
scaled time reads as seconds on a host where the kernel takes its
nominal duration (a 2.0 GHz Xeon core with no other tenant).

The kernel mixes Fraction and big-integer arithmetic with list slicing
and sorting.  Under the host's slow stretches it slows about as much as
the jobs of both workloads (measured with a kernel twice this size: a
log-log slope of 1.06 to 1.12 against the jobs' own slowdown, where an
interpreted integer loop gave 0.68 and a numpy reduction 0.54).
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.025
NOMINAL_S = 230e-6  # the kernel's duration on the reference host


def _negate(v: int) -> int:
    return -v


def _kernel() -> int:
    x, acc = Fraction(1, 3), Fraction(0)
    for i in range(1, 20):
        acc = acc * x + Fraction(i, 7)
    items = list(range(6000))
    return (sum(i * 12345678901234567 for i in range(30)) + acc.numerator
            + sum(items[::7]) + len(sorted(items[:1000], key=_negate)))


class Probe:
    """Samples the reference kernel while active; a context manager."""

    def __init__(self):
        self.at: list[float] = []  # start time of each sample
        self.took: list[float] = []  # kernel seconds of each sample
        self.spent = 0.0  # handler seconds so far

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        self.at.append(t0)
        self.took.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def slowdown(self, start: float, end: float) -> float:
        """Mean kernel duration over nominal, in [start, end] and one sample each side."""
        lo = max(0, bisect.bisect_left(self.at, start) - 1)
        hi = bisect.bisect_right(self.at, end) + 1
        return statistics.fmean(self.took[lo:hi]) / NOMINAL_S

    def timed(self, call):
        """(result, raw seconds, scaled seconds) of call(); handler time excluded."""
        spent, t0 = self.spent, time.perf_counter()
        out = call()
        t1 = time.perf_counter()
        raw = t1 - t0 - (self.spent - spent)
        return out, raw, raw / self.slowdown(t0, t1)

    def median_slowdown(self) -> float:
        return statistics.median(self.took) / NOMINAL_S
