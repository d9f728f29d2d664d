"""Per-tick phase timers: where the fleet tick's wall-clock goes.

Sharding buys less than the worker count (``benchmarks/e2e`` measures
``fleet_sharded`` at CPU 1.12x / wall 1.53x for 2 workers); this module
makes the reason measurable.  A :class:`TickPhaseTimer` brackets every
phase of a fleet tick **on both sides of the process pipe**:

- parent side — ``build`` (tick command construction), ``dispatch``
  (pipe send), ``wait`` (blocking on shard results),
  ``merge`` (deterministic replay), ``finalize`` (watchdog, retrain,
  busy accounting).  These five partition the tick, so their sum over
  the tick's wall-clock is the attribution-coverage figure ``repro
  profile`` reports (and the test suite gates at >= 95%).
- worker side — ``worker_run`` / ``worker_drain`` per database, captured
  by a :class:`ShardTickTrace` inside the shard (any backend) and
  shipped home in the :class:`~repro.parallel.worker.ShardResult`.

Worker events carry offsets relative to the shard's own tick start;
:meth:`TickPhaseTimer.absorb_shard` re-anchors them where that start
lands on the parent timeline (the result's receipt minus its busy
time), which sidesteps any cross-process clock-base question
(``perf_counter`` bases are not guaranteed comparable across
processes), so every exported timestamp shares one timeline rooted at
the service's epoch.

Phase names are a taxonomy (:data:`PHASE_CATALOG`) linted by
``scripts/check_observability_names.py`` exactly like metric names.
"""

from __future__ import annotations

import contextlib
import time
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import TelemetryError
from repro.observability.metrics import MetricsRegistry
from repro.observability.trace_export import PARENT_TRACK, TraceEvent

#: The phase taxonomy.  Every ``timer.phase("...")`` /
#: ``trace.observe_phase("...")`` call site must use a name declared
#: here (the observability-names lint enforces it).
PHASE_CATALOG: Dict[str, str] = {
    "build": "Parent: tick command construction (classifier state, "
             "statement caps) before anything is dispatched.",
    "dispatch": "Parent: pushing the tick command into the pool "
                "(pipe send / serial loop setup).",
    "wait": "Parent: blocked on shard results — covers worker compute "
            "plus IPC serialization and transfer.",
    "merge": "Parent: DeterministicMerger replay of per-database deltas "
             "into the region store/audit/registry.",
    "finalize": "Parent: busy accounting, watchdog evaluation, and "
                "classifier retraining after the merge.",
    "worker_run": "Worker: one database's workload advance plus "
                  "control-plane processing.",
    "worker_drain": "Worker: one database's tick-delta drain "
                    "(journal/audit/metric snapshot diff).",
}

#: Parent-side phases; they partition the tick, so their per-tick sum is
#: the attribution-coverage numerator.
PARENT_PHASES: Tuple[str, ...] = (
    "build", "dispatch", "wait", "merge", "finalize",
)

#: Worker-side phases; they run *inside* the parent's ``wait`` phase and
#: are reported but never counted toward coverage (no double counting).
WORKER_PHASES: Tuple[str, ...] = ("worker_run", "worker_drain")

#: Histogram bounds for per-tick phase durations, in wall seconds.
PHASE_BOUNDS: Tuple[float, ...] = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5,
    1.0, 5.0, 15.0, 60.0,
)


class ShardTickTrace:
    """Worker-side phase collector for one shard tick.

    Offsets are relative to the trace's creation (the shard tick start),
    so the payload shipped home is meaningful regardless of which
    process — with which ``perf_counter`` base — produced it.
    """

    __slots__ = ("started", "events")

    def __init__(self) -> None:
        self.started = time.perf_counter()
        #: ``(phase, database, start_offset_s, duration_s)`` rows.
        self.events: List[Tuple[str, str, float, float]] = []

    def observe_phase(
        self, phase: str, database: str, started: float, ended: float
    ) -> None:
        """Record one phase bracket given raw ``perf_counter`` readings."""
        self.events.append(
            (phase, database, started - self.started, max(0.0, ended - started))
        )

    def totals(self) -> Dict[str, float]:
        """Seconds per phase summed over this shard's databases."""
        out: Dict[str, float] = {}
        for phase, _database, _offset, duration in self.events:
            out[phase] = out.get(phase, 0.0) + duration
        return out


class TickPhaseTimer:
    """Brackets and records the phases of each fleet tick.

    One instance lives on the :class:`ShardedFleetService`; the worker
    pool shares it (for ``dispatch``/``wait``) and the service brackets
    ``build``/``merge``/``finalize`` itself.  When ``enabled`` is False
    every method is a cheap no-op — the ``--no-profile`` escape hatch.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        enabled: bool = True,
        max_events: int = 200_000,
    ) -> None:
        self.registry = registry
        self.enabled = enabled
        self.max_events = max_events
        self.epoch = time.perf_counter()
        #: Parent + re-anchored worker events for the trace export.
        self.events: List[TraceEvent] = []
        #: One row per tick: ``{"tick", "wall_seconds", "phases", "coverage"}``.
        self.ticks: List[dict] = []
        self._tick_index = -1
        self._current: Dict[str, float] = {}
        self._dropped = 0

    # ------------------------------------------------------------------

    def begin_tick(self) -> None:
        if not self.enabled:
            return
        self._tick_index += 1
        self._current = {}

    @contextlib.contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time a parent-side phase bracket of the current tick."""
        if not self.enabled:
            yield
            return
        if name not in PHASE_CATALOG:
            raise TelemetryError(
                f"phase {name!r} is not in the PHASE_CATALOG taxonomy "
                "(src/repro/parallel/timing.py)"
            )
        started = time.perf_counter()
        try:
            yield
        finally:
            ended = time.perf_counter()
            seconds = ended - started
            self._current[name] = self._current.get(name, 0.0) + seconds
            self._add_event(
                TraceEvent(
                    track=PARENT_TRACK,
                    name=name,
                    ts=started - self.epoch,
                    dur=seconds,
                    category="phase",
                    args={"tick": self._tick_index},
                )
            )

    def now(self) -> float:
        """Parent-timeline seconds since the profiling epoch.

        The service stamps each ShardResult with this at receipt, which
        places the shard's tick on the parent timeline without ever
        comparing clock bases across processes.
        """
        return time.perf_counter() - self.epoch

    def absorb_shard(self, result, anchor: float) -> None:
        """Fold one :class:`ShardResult`'s worker-side phase events in.

        ``anchor`` is where the shard's tick start lands on the parent
        timeline.
        """
        if not self.enabled:
            return
        track = result.shard_index + 1
        for phase, database, offset, duration in result.events:
            self._current[phase] = self._current.get(phase, 0.0) + duration
            self._add_event(
                TraceEvent(
                    track=track,
                    name=phase,
                    ts=anchor + offset,
                    dur=duration,
                    category="phase",
                    args={"tick": self._tick_index, "database": database},
                )
            )
        if self.registry is not None:
            for phase, seconds in sorted(result.phase_seconds.items()):
                self.registry.histogram(
                    "fleet_phase_seconds", bounds=PHASE_BOUNDS, phase=phase
                ).observe(seconds)  # observability-names: allow-dynamic

    def end_tick(self, wall_seconds: float) -> None:
        """Close the tick: publish histograms and the coverage gauge."""
        if not self.enabled:
            return
        covered = sum(
            self._current.get(phase, 0.0) for phase in PARENT_PHASES
        )
        coverage = covered / wall_seconds if wall_seconds > 0 else 0.0
        if self.registry is not None:
            for phase in PARENT_PHASES:
                if phase in self._current:
                    self.registry.histogram(
                        "fleet_phase_seconds", bounds=PHASE_BOUNDS, phase=phase
                    ).observe(self._current[phase])  # observability-names: allow-dynamic
            self.registry.gauge("fleet_tick_attribution_ratio").set(coverage)
        self.ticks.append(
            {
                "tick": self._tick_index,
                "wall_seconds": wall_seconds,
                "phases": dict(self._current),
                "coverage": coverage,
            }
        )

    # ------------------------------------------------------------------

    def _add_event(self, event: TraceEvent) -> None:
        if len(self.events) >= self.max_events:
            self._dropped += 1
            if self.registry is not None:
                self.registry.counter(
                    "fleet_profile_events_dropped_total"
                ).inc()
            return
        self.events.append(event)

    @property
    def dropped_events(self) -> int:
        return self._dropped

    def phase_totals(self) -> Dict[str, float]:
        """Seconds per phase summed over all recorded ticks."""
        totals: Dict[str, float] = {}
        for row in self.ticks:
            for phase, seconds in row["phases"].items():
                totals[phase] = totals.get(phase, 0.0) + seconds
        return totals
