"""Lightweight profiling hooks for engine hot paths.

The simulator's own speed determines how large a fleet a run can cover,
so hot-path regressions (optimizer plan search, what-if costing, B+ tree
operations, Query Store aggregation) must be visible without attaching
an external profiler.  Call sites wrap work in :func:`profile` (a
context manager timing real ``perf_counter`` seconds) or tick
:func:`count` (a bare invocation counter for paths too hot to time,
like B+ tree seeks); a path too hot even for that, like per-entry
B+ tree maintenance, adds a whole batch's calls with
:meth:`Profiler.absorb`.  Both also accumulate *simulated*
cost where the caller knows it (e.g. charged what-if CPU ms), so one
table shows both the model's cost and the host's.

Profilers form a stack: the default global profiler aggregates across
every engine in the process (exactly what the fleet dashboard wants),
and tests swap in a fresh one with :func:`use_profiler`.  The stack is
one list per process: the program is single-threaded, and each shard
worker process has its own.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from typing import Dict, Iterator, List, Tuple


@dataclasses.dataclass
class HotPathStat:
    """Accumulated cost of one named hot path."""

    name: str
    calls: int = 0
    real_seconds: float = 0.0
    sim_ms: float = 0.0

    @property
    def real_ms(self) -> float:
        return self.real_seconds * 1000.0


class _Timed:
    """What :func:`profile` returns: times its ``with`` block into the
    active profiler, and lets the body attach simulated cost by setting
    ``sim_ms``.  A plain class rather than a generator context manager,
    because it wraps every statement's planning and execution."""

    __slots__ = ("name", "sim_ms", "_start")

    def __init__(self, name: str) -> None:
        self.name = name
        self.sim_ms = 0.0

    def __enter__(self) -> "_Timed":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        _stack[-1].record(
            self.name, time.perf_counter() - self._start, self.sim_ms
        )


class Profiler:
    """Accumulates :class:`HotPathStat` rows keyed by hot-path name."""

    def __init__(self) -> None:
        self._stats: Dict[str, HotPathStat] = {}

    def _stat(self, name: str) -> HotPathStat:
        stat = self._stats.get(name)
        if stat is None:
            stat = self._stats[name] = HotPathStat(name)
        return stat

    def record(self, name: str, real_seconds: float, sim_ms: float = 0.0) -> None:
        stat = self._stat(name)
        stat.calls += 1
        stat.real_seconds += real_seconds
        stat.sim_ms += sim_ms

    def count(self, name: str, sim_ms: float = 0.0) -> None:
        """Tick an invocation without timing it (cheapest possible hook)."""
        stat = self._stat(name)
        stat.calls += 1
        stat.sim_ms += sim_ms

    def count_many(self, name: str, n: int, sim_ms: float = 0.0) -> None:
        """``n`` :meth:`count` ticks in one, adding ``sim_ms`` ``n`` times
        so the float total is what ``n`` ticks leave."""
        stat = self._stat(name)
        stat.calls += n
        total = stat.sim_ms
        for _ in range(n):
            total += sim_ms
        stat.sim_ms = total

    def absorb(
        self,
        name: str,
        calls: int,
        real_seconds: float,
        sim_ms: float = 0.0,
    ) -> None:
        """Fold a pre-aggregated row (e.g. a shipped shard row) in.

        Unlike :meth:`record` this adds ``calls`` invocations at once —
        the merge path for hot-path rows that crossed a process pipe.
        """
        stat = self._stat(name)
        stat.calls += calls
        stat.real_seconds += real_seconds
        stat.sim_ms += sim_ms

    def stats(self) -> Dict[str, HotPathStat]:
        return dict(self._stats)

    def rows(self) -> List[HotPathStat]:
        """Stats ordered by real time spent (descending), then name."""
        return sorted(
            self._stats.values(), key=lambda s: (-s.real_seconds, s.name)
        )

    def drain_rows(self) -> List[Tuple[str, int, float, float]]:
        """Picklable ``(name, calls, real_seconds, sim_ms)`` rows in
        **name order** (a deterministic order, unlike :meth:`rows`' wall
        -clock order), then reset.  Shard workers ship these per tick."""
        rows = [
            (stat.name, stat.calls, stat.real_seconds, stat.sim_ms)
            for stat in sorted(self._stats.values(), key=lambda s: s.name)
        ]
        self._stats.clear()
        return rows

    def reset(self) -> None:
        self._stats.clear()


#: The profiler stack, rooted at the process-wide default profiler.
_stack: List[Profiler] = [Profiler()]


def active() -> Profiler:
    """The profiler hot-path hooks currently record into."""
    return _stack[-1]


@contextlib.contextmanager
def use_profiler(profiler: Profiler) -> Iterator[Profiler]:
    """Temporarily make ``profiler`` the active one (tests, CLI runs)."""
    _stack.append(profiler)
    try:
        yield profiler
    finally:
        _stack.pop()


def profile(name: str) -> _Timed:
    """Time a block into the active profiler: ``with profile(name) as
    handle:``.

    The handle's ``sim_ms`` may be set by the body to attach the
    simulated cost discovered while the block ran.
    """
    return _Timed(name)


def count(name: str, sim_ms: float = 0.0) -> None:
    """Tick ``name`` on the active profiler without timing."""
    _stack[-1].count(name, sim_ms)
