"""Host-speed calibration: a fixed pure-Python job, timed every INTERVAL seconds.

Shared 2-vCPU hosts change speed by a third within seconds. Light
ratio-exact ops repeated over 30 s on one spread by 7-33% per pass
(quartile distance over median, passes of 0.8 s); after dividing by
the speed of ``job`` below, sampled around each op, the same passes spread
by 2-6%. The job has tso's instruction mix: dict lookups, a heap and float
sums in a Dijkstra loop, and it imports nothing from tso, so a change to
the program cannot move it. The benchmark runs the job from a timer signal
throughout, takes the job's time out of every measurement, and reports
times at the reference speed, where the job takes REFERENCE_S:

    reported = measured * mean(REFERENCE_S / job time) over the samples
               within WINDOW_S of the measurement

The mean of speeds, not of times, is the work rate averaged over time, and
a job slowed by a stray interruption barely moves it.
"""

from __future__ import annotations

import bisect
import heapq
import random
import signal
import statistics
import time

INTERVAL = 0.05
REFERENCE_S = 0.0005
WINDOW_S = 0.3  # job samples this far either side of a measurement set its speed

_rng = random.Random(7)
_N = 20
_ADJ = {u: [(v, _rng.random()) for v in range(_N) if v != u and _rng.random() < 0.3] for u in range(_N)}


def job() -> float:
    """All-pairs shortest paths on a fixed random 20-node digraph, dict and heap based."""
    total = 0.0
    for s in range(_N):
        dist = {s: 0.0}
        heap = [(0.0, s)]
        done = set()
        while heap:
            d, u = heapq.heappop(heap)
            if u in done:
                continue
            done.add(u)
            for v, w in _ADJ[u]:
                nd = d + w
                if nd < dist.get(v, 1e18):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        total += sum(dist.values())
    return total


class SpeedSampler:
    """Runs ``job`` every INTERVAL seconds of wall time while active.

    ``clock()`` is perf_counter minus the time spent in the job, so
    durations read from it exclude the calibration. Use as a context
    manager around everything that is timed.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []
        self.busy = 0.0
        self._previous = None

    def clock(self) -> float:
        return time.perf_counter() - self.busy

    def _sample(self, *_args):
        t0 = time.perf_counter()
        job()
        d = time.perf_counter() - t0
        self.starts.append(t0)
        self.times.append(d)
        self.busy += d

    def __enter__(self):
        for _ in range(5):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def scale(self, start: float, end: float) -> float:
        """Mean of REFERENCE_S / job time over the samples within WINDOW_S of [start, end]."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        near = self.times[lo:hi] or self.times[max(0, lo - 1):lo + 1]
        return statistics.fmean(REFERENCE_S / t for t in near)

    def run_scale(self) -> float:
        return statistics.fmean(REFERENCE_S / t for t in self.times)
