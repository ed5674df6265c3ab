"""Machine-speed calibration for a shared host.

On a shared host the speed of one core shifts between phases up to 1.8x
apart, lasting from a second to minutes, as other tenants come and go.
Raw times from runs minutes apart are then not comparable.  A fixed
pure-Python kernel doing the program's kind of work (string-keyed sets
and dicts, sorting, small frozensets) is timed between decisions, and
each decision's time is scaled by REFERENCE_S over the kernel's time
around it: the time the decision would have taken on the host running
the kernel in REFERENCE_S.
"""

from __future__ import annotations

import bisect
import random
from statistics import median
from time import perf_counter

# About the kernel's time on a 2-vCPU KVM guest (Intel Xeon, Sapphire
# Rapids class) with CPython 3.11 in the host's faster phase.
REFERENCE_S = 0.005
INTERVAL_S = 0.1


def _inputs():
    rng = random.Random(2106)
    labels = [f"v{i:02d}" for i in range(48)]
    adj = {v: set() for v in labels}
    while sum(map(len, adj.values())) < 220:
        u, w = rng.sample(labels, 2)
        adj[u].add(w)
        adj[w].add(u)
    words = [f"w{rng.randrange(10**6)}" for _ in range(2000)]
    return {v: frozenset(ws) for v, ws in adj.items()}, words


def _kernel(graph, words):
    total = 0
    for start in sorted(graph):
        seen = {start}
        stack = [start]
        while stack:
            for w in sorted(graph[stack.pop()]):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        total += len(seen)
    table = {words[i]: frozenset(words[i : i + 4]) for i in range(0, len(words) - 3, 2)}
    pairs = sorted((min(a, b), max(a, b)) for a, b in zip(words, words[1:]))
    return total + len(table) + len(pairs)


class Calibrator:
    def __init__(self):
        self._inputs = _inputs()
        self.midpoints = []
        self.kernel_s = []
        self._due = 0.0

    def sample(self):
        start = perf_counter()
        _kernel(*self._inputs)
        end = perf_counter()
        self.midpoints.append((start + end) / 2)
        self.kernel_s.append(end - start)
        self._due = end + INTERVAL_S

    def tick(self):
        """Take a sample if one is due; called between decisions."""
        if perf_counter() >= self._due:
            self.sample()

    def scale(self, start, end) -> float:
        """REFERENCE_S over the median kernel time of the two samples on
        either side of the interval [start, end]."""
        i = bisect.bisect(self.midpoints, (start + end) / 2)
        return REFERENCE_S / median(self.kernel_s[max(0, i - 2) : i + 2])
