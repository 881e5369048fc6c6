"""A gauge of how fast the host runs Python at the moment.

The benchmark's host is a shared virtual machine whose other tenants slow
its cores down by up to 2.5x, in phases that last from a tenth of a second
to minutes. No within-run statistic hides phases that long. So every timed
episode samples a fixed reference loop between its steps, at most once per
GAP_S, and each of its times is divided by the episode's slowdown: the
median loop time over REF_MS. The times the benchmark reports are thus
those of a core on which the loop takes REF_MS, about the speed of this
host's cores when no other tenant disturbs them.

The loop is two forward auctions on fixed matrices, a 12x12 one in three
epsilon phases and a 100x100 one in a single phase: pure Python with the
instruction mix of fleetroll's hot paths (list indexing, float compares,
short and long inner loops). Timed next to the same rollout-city and
stability-hotspot episodes over ten minutes of shifting load, episode time
grew as the loop time to the power 0.99 on both; the small auction alone
gave 0.79, which over-corrects. The loop shares no code with fleetroll, so a
change to fleetroll never moves the gauge.
"""

from __future__ import annotations

import random
import statistics
import time

_clock = time.perf_counter

REF_MS = 1.0    # the loop's time on an undisturbed core of the benchmark's host
GAP_S = 0.025   # at most one sample per this many seconds
TRIES = 3       # a sample is the best of this many loop runs

_SMALL = [[((i * 37 + j * 91) % 97) / 7.0 for j in range(12)] for i in range(12)]
_rng = random.Random(5)
_BIG = [[_rng.random() * 10.0 for _ in range(100)] for _ in range(100)]


def _auction(cost, eps):
    """Forward auction to a full assignment; returns the final prices."""
    n = len(cost)
    prices = [0.0] * n
    owner = [-1] * n
    queue = list(range(n))
    while queue:
        i = queue.pop()
        row = cost[i]
        best_j, best, second = 0, row[0] + prices[0], float("inf")
        for j in range(1, n):
            v = row[j] + prices[j]
            if v < best:
                second, best, best_j = best, v, j
            elif v < second:
                second = v
        prices[best_j] += second - best + eps
        if owner[best_j] >= 0:
            queue.append(owner[best_j])
        owner[best_j] = i
    return prices


def reference_loop():
    total = sum(sum(_auction(_SMALL, eps)) for eps in (3.0, 0.7, 0.1))
    return total + sum(_auction(_BIG, 0.5))


class Gauge:
    """Samples the reference loop; `slowdown` summarises the samples."""

    def __init__(self):
        self.samples_ms = []
        self._last = -float("inf")

    def sample(self):
        best = float("inf")
        for _ in range(TRIES):
            t0 = _clock()
            reference_loop()
            best = min(best, _clock() - t0)
        self.samples_ms.append(best * 1000.0)
        self._last = _clock()

    def maybe_sample(self):
        """Sample unless the last sample is younger than GAP_S; returns the
        seconds this call took, which the caller keeps out of its timings."""
        t0 = _clock()
        if t0 - self._last >= GAP_S:
            self.sample()
        return _clock() - t0

    def slowdown(self):
        if not self.samples_ms:
            self.sample()
        return statistics.median(self.samples_ms) / REF_MS
