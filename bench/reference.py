"""Reference kernel that rescales measured times to a fixed CPU speed.

The benchmark runs on shared 2-core hosts where a neighbour can slow the
whole CPU by up to 2.3x for tens of seconds; a pure-Python loop timed
back to back showed that. Such a slowdown moves raw wall times by more
than any bound worth enforcing, so every reported time is rescaled:

    reported = measured wall time * REFERENCE_S / r

where r is the median time of this fixed kernel over the bursts timed
right before and after the interval and its neighbours. The kernel uses
none of knotsum, so a change to the package cannot change r; it mixes
the operations knotsum spends its time on (small-int Bareiss, dict
polynomial products, Fractions, frozen dataclass construction, a
set-based BFS). A kernel that also chased pointers through a large
array tracked the workloads worse. REFERENCE_S is about the kernel's
median time on the host the benchmark was tuned on, so reported
figures read roughly as seconds there.
"""

from __future__ import annotations

import statistics
import time
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

REFERENCE_S = 0.0006
"""Nominal kernel time; 0.34 to 0.7 ms were measured on a 2-core x86-64 Xeon VM."""

REACH = 4
"""An interval is scaled by the bursts up to this many places before or after it."""


@dataclass(frozen=True)
class _Node:
    key: tuple[int, int]
    depth: int


def kernel() -> tuple[int, Fraction, int]:
    """One fixed unit of pure-Python work; the result is constant."""
    n = 9
    m = [[(i * 7 + j * 13) % 17 - 8 + (20 if i == j else 0) for j in range(n)] for i in range(n)]
    prev = 1
    for k in range(n - 1):
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    acc: dict[int, int] = {}
    poly = tuple((e, (e * 5) % 7 - 3) for e in range(-10, 11))
    for e1, c1 in poly:
        for e2, c2 in poly:
            acc[e1 + e2] = acc.get(e1 + e2, 0) + c1 * c2
    total = sum(Fraction(c, abs(e) + 1) for e, c in sorted(acc.items()))
    seen = {(0, 0)}
    queue = deque([_Node((0, 0), 0)])
    while queue and len(seen) < 200:
        node = queue.popleft()
        x, y = node.key
        for nxt in ((x + 1, y), (x, y + 2), (x - y, y)):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(_Node(nxt, node.depth + 1))
    return m[n - 1][n - 1], total, len(seen)


def burst(min_seconds: float = 0.003) -> float:
    """Median kernel time over a burst lasting at least min_seconds (3 runs minimum)."""
    times = []
    clock = time.perf_counter
    start = clock()
    while True:
        t0 = clock()
        kernel()
        t1 = clock()
        times.append(t1 - t0)
        if len(times) >= 3 and t1 - start >= min_seconds:
            return statistics.median(times)


def burst_after(seconds_measured: float) -> float:
    """Burst sized to the interval just measured: 5 % of it, 3 ms at least."""
    return burst(max(0.003, 0.05 * seconds_measured))


def rescaled(seconds: list[float], bursts: list[float]) -> list[float]:
    """Measured intervals at the nominal kernel speed.

    bursts[i] was taken just before interval i and bursts[i + 1] just
    after it. Interval i is scaled by the median of the bursts within
    REACH places of it: one burst is too noisy on its own, while the
    host's speed holds for seconds at a time.
    """
    if len(bursts) != len(seconds) + 1:
        raise ValueError("need one burst before each interval and one after the last")
    return [
        s * REFERENCE_S / statistics.median(bursts[max(0, i - REACH):i + REACH + 2])
        for i, s in enumerate(seconds)
    ]
