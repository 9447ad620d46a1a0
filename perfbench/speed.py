"""The machine's speed, sampled while a workload runs.

On a shared machine the same pure-Python loop runs 20-40 % slower for
minutes at a time while other tenants are busy, which moves every wall
time of a run together.  While a SpeedProbe is active, a timer signal
runs a fixed loop every INTERVAL_S, in between the bytecodes of whatever
op is running, and records how long it took.  The loop has two halves
of about equal time: integer arithmetic, which width and solver ops
track most closely, and calls, tuples, appends, dict stores and a sort,
which CLI and oracle ops track most closely.

An op's relative time is its time, less the probes that ran inside it,
over the median probe time around and during it.  Measured over 100 s
on a shared 2-vCPU Intel Xeon machine under Python 3.11, ten-second
medians of raw op times drifted by 15-20 % (standard deviation over
mean) and their ratios to the probe by 3-8 %.  The unit of relative
time, "ref", is one run of the probe loop.  The probes take about 1 %
of the run, inside whichever span is open when they fire.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from array import array

ARITHMETIC_LOOP = 1500
OBJECT_LOOP = 250
INTERVAL_S = 0.02
WINDOW_NS = 50_000_000


def _pair(a: int, b: int) -> tuple[int, int]:
    return (a, b)


def _second(pair: tuple[int, int]) -> int:
    return pair[1]


class SpeedProbe:
    def __init__(self) -> None:
        self.starts = array("q")
        self.costs = array("q")
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        collecting = gc.isenabled()
        gc.disable()  # a collection here would take the op's garbage with it
        t0 = time.perf_counter_ns()
        total = 0
        for i in range(ARITHMETIC_LOOP):
            total += i * i
        pairs, latest = [], {}
        for i in range(OBJECT_LOOP):
            pair = _pair(i, i & 7)
            pairs.append(pair)
            latest[i & 63] = pair
        pairs.sort(key=_second)
        self.starts.append(t0)
        self.costs.append(time.perf_counter_ns() - t0)
        if collecting:
            gc.enable()

    def __enter__(self) -> "SpeedProbe":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def measure(self, t0: int, t1: int) -> tuple[int, float]:
        """Net nanoseconds and relative time of the interval [t0, t1)."""
        inside = slice(bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1))
        net = t1 - t0 - sum(self.costs[inside])
        lo = bisect.bisect_left(self.starts, t0 - WINDOW_NS)
        hi = bisect.bisect_left(self.starts, t1 + WINDOW_NS)
        around = self.costs[lo:hi] or self.costs[max(0, lo - 1):lo + 1]
        return net, net / statistics.median(around)
