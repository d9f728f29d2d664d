"""Host-speed calibration: a fixed probe timed between work units.

The sandbox this benchmark runs in changes speed by 20-60% for seconds at
a time (sibling-core and memory contention, not steal: see the README's
"Noise floor" section), so identical work gives CPU times whose
quartiles are 7-40% apart.  The probe is a fixed piece of interpreter
work, half a pointer chase over a ring of small objects far larger than
the L2 cache and half dict/tuple churn, because the host slows
latency-bound and compute-bound code by different amounts at different
times and the program is a mix of both (either half alone over- or
under-corrects by 20-30% of the swing).  Every time the benchmark
reports is multiplied by ``REFERENCE_S / probe time`` taken around the
unit it belongs to: times are seconds *at the reference speed*, where
one probe takes ``REFERENCE_S``.  The probe is outside the program under
test, so a change to the program cannot move it.
"""

from __future__ import annotations

import bisect
import random
import time
from typing import List

RING_NODES = 200_000
WALK_STEPS = 36_000
CHURN_STEPS = 16_000
#: A probe this long means factor 1.0 (the sizing host's median state).
REFERENCE_S = 0.010
#: Units shorter than this share one calibration sample.
MIN_GAP_S = 0.2


class _Node:
    __slots__ = ("next",)


class HostSpeed:
    """Samples the probe and answers "how fast was the host during [a, b]"."""

    def __init__(self) -> None:
        nodes = [_Node() for _ in range(RING_NODES)]
        order = list(range(RING_NODES))
        random.Random(0).shuffle(order)
        for here, there in zip(order, order[1:] + order[:1]):
            nodes[here].next = nodes[there]
        self._ring = nodes  # keeps every node alive
        self._cursor = nodes[0]
        self.times: List[float] = []
        self.durations: List[float] = []

    def sample(self) -> None:
        node = self._cursor
        started = time.perf_counter()
        cpu = time.process_time()
        for _ in range(WALK_STEPS):
            node = node.next
        table = {}
        total = 0
        for i in range(CHURN_STEPS):
            table[(i * 7919) % 4099] = (i, total)
            total += i * i % 7
        sorted(table.values())
        self.durations.append(time.process_time() - cpu)
        self.times.append(started)
        self._cursor = node

    def maybe_sample(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= MIN_GAP_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """Multiplier that turns a time measured in [start, end] into
        reference-speed seconds: the mean of the samples bracketing it."""
        return speed_factor(self.times, self.durations, start, end)


def speed_factor(
    times: List[float], durations: List[float], start: float, end: float
) -> float:
    """``REFERENCE_S`` over the mean probe time from the last sample taken
    at or before ``start`` to the first taken at or after ``end``."""
    if not times:
        raise ValueError("no calibration samples")
    first = max(0, bisect.bisect_right(times, start) - 1)
    last = min(len(times) - 1, bisect.bisect_left(times, end))
    window = durations[first : max(first, last) + 1]
    return REFERENCE_S / (sum(window) / len(window))
