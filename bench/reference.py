"""A fixed pure-Python kernel that tracks how fast the machine runs right now.

On a shared host the same instance can take a third longer from one
second to the next, and the speed drifts over minutes.  The benchmark
therefore runs this kernel between instances and scales each instance's
time by how fast the kernel ran around it: a time in "reference
milliseconds" is what the instance would have taken had the kernel run in
``NOMINAL_S``.  The kernel is the benchmark's own code and does the kind
of work the engines do (dict, set and list traffic over a graph), so a
change to the package changes the scaled times and leaves the kernel
alone.
"""

from __future__ import annotations

import bisect
import random
import statistics
from time import perf_counter

# Median duration of one kernel run on a 2-core Intel Xeon VM (CPython
# 3.11).  It only fixes the scale of the reported times.
NOMINAL_S = 0.0004
# Kernel runs up to this many seconds before an instance starts or after
# it ends count towards its speed estimate.
WINDOW_S = 0.5
# The kernel's graph: each new vertex joins DEGREE earlier ones at random.
VERTICES = 700
DEGREE = 3


class Reference:
    def __init__(self):
        rng = random.Random(0)
        adj: dict[int, list[int]] = {v: [] for v in range(VERTICES)}
        for v in range(1, VERTICES):
            for u in rng.sample(range(v), min(v, DEGREE)):
                adj[v].append(u)
                adj[u].append(v)
        self._adj = adj
        self.times: list[float] = []  # when each kernel run ended
        self.seconds: list[float] = []  # how long it took

    def _kernel(self) -> int:
        adj = self._adj
        dist = {0: 0}
        frontier = [0]
        while frontier:
            nxt = []
            for v in frontier:
                for u in adj[v]:
                    if u not in dist:
                        dist[u] = dist[v] + 1
                        nxt.append(u)
            frontier = nxt
        odd = {v for v, d in dist.items() if d % 2}
        return sum(len(adj[v]) for v in odd) + len(sorted(dist.values()))

    def sample(self) -> float:
        """Run the kernel once and record how long it took."""
        t0 = perf_counter()
        self._kernel()
        t1 = perf_counter()
        self.times.append(t1)
        self.seconds.append(t1 - t0)
        return t1 - t0

    def scale(self, start: float, end: float) -> float:
        """Factor that turns seconds spent in [start, end] into reference seconds."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        # at least the runs just before and just after the interval
        lo = min(lo, max(bisect.bisect_left(self.times, start) - 1, 0))
        hi = max(hi, min(bisect.bisect_right(self.times, end) + 1, len(self.times)))
        return NOMINAL_S / statistics.median(self.seconds[lo:hi])
