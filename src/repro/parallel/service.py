"""The sharded fleet service: dispatch ticks, merge deterministically.

:class:`ShardedFleetService` is the fleet-parallel counterpart of
:class:`repro.service.AutoIndexingService`.  Databases are sharded
across a worker pool (process, thread, or serial — see
:class:`~repro.parallel.settings.ParallelSettings`); each virtual-time
tick every shard advances its databases' workloads and control planes
concurrently, and the parent replays the resulting per-database deltas
through the :class:`~repro.parallel.merge.DeterministicMerger` into one
region-level store/audit/registry/span/event history.

Because global ordering is assigned at merge time in stable
``(db_name, seq)`` order, a run's audit JSONL, recovered store state,
and span trees are byte-identical across backends and worker counts for
the same seed.

With ``ParallelSettings.batch_ticks > 1`` the loop is **pipelined**:
the parent dispatches a batch of K tick commands in one round-trip,
workers run them back-to-back while staying hot and stream one result
per tick, and the parent merges finished ticks while later ones still
compute.  Results are released to the merger in stable ``(tick,
shard)`` order via a :class:`~repro.parallel.merge.CompletionBuffer`,
and batches flush at classifier-retrain boundaries, so batched runs
stay byte-identical to ``batch_ticks=1`` runs too.  Cross-database services stay at the parent, where they
see the same merged state at the same virtual time in every backend:
the alert watchdog evaluates over the merged registry, and the
low-impact classifier retrains on the merged validation history (the
new state is broadcast to workers with the *next* tick command).
"""

from __future__ import annotations

import collections
import time
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.clock import HOURS, SimClock
from repro.controlplane import (
    AutoIndexingConfig,
    ControlPlaneSettings,
)
from repro.controlplane.control_plane import Incident
from repro.controlplane.events import EventBus
from repro.controlplane.store import StateStore
from repro.engine.engine import EngineSettings
from repro.observability import AlertWatchdog, Telemetry
from repro.observability.alerts import default_rules
from repro.observability.profiling import Profiler
from repro.observability.slo import burn_alert_rules
from repro.observability.timeseries import SAMPLE_CATALOG, TelemetryHistory
from repro.observability.trace_export import (
    TraceEvent,
    attribution_summary,
    history_counter_events,
    span_trace_events,
)
from repro.recommender import MiRecommenderSettings
from repro.recommender.classifier import (
    LowImpactClassifier,
    examples_from_history,
)
from repro.recommender.policy import RecommenderPolicy
from repro.service import ServiceSettings
from repro.parallel.merge import CompletionBuffer, DeterministicMerger
from repro.parallel.pool import make_pool
from repro.parallel.settings import ParallelSettings
from repro.parallel.spec import (
    SharedSettings,
    database_specs,
    shard_payloads,
)
from repro.parallel.timing import (
    PARENT_PHASES,
    PHASE_BOUNDS,
    TickPhaseTimer,
    rebase_span_ops,
)
from repro.validation import ValidationSettings

#: Per-tick wall times kept in memory for p95 derivation.  Long runs
#: used to grow ``tick_wall_seconds`` without bound; the ring buffer
#: keeps the recent window while ``tick_wall_total``/``ticks_completed``
#: and the ``fleet_tick_wall_seconds`` histogram carry whole-run truth.
TICK_WALL_WINDOW = 4096


class ShardedFleetService:
    """One region's auto-indexing service, executed shard-parallel."""

    def __init__(
        self,
        n_databases: int,
        tier: str = "standard",
        seed: int = 0,
        parallel: Optional[ParallelSettings] = None,
        service_settings: Optional[ServiceSettings] = None,
        control_settings: Optional[ControlPlaneSettings] = None,
        validation_settings: Optional[ValidationSettings] = None,
        policy: Optional[RecommenderPolicy] = None,
        mi_settings: Optional[MiRecommenderSettings] = None,
        engine_settings: Optional[EngineSettings] = None,
        default_config: Optional[AutoIndexingConfig] = None,
        fault_seed: int = 0,
        name_prefix: str = "db",
    ) -> None:
        self.parallel = parallel or ParallelSettings()
        self.settings = service_settings or ServiceSettings()
        self.clock = SimClock()
        # Region-level merged state: same shapes the serial service's
        # control plane exposes, so reporting/CLI code reads either.
        self.telemetry = Telemetry()
        self.store = StateStore()
        self.events = EventBus(metrics=self.telemetry.registry)
        self.incidents: List[Incident] = []
        self.validation_history: List[dict] = []
        self.classifier = LowImpactClassifier()
        #: Fleet telemetry history: sampled at the post-merge point of
        #: every tick, over merged virtual-time state only, so runs stay
        #: byte-identical across backends with sampling enabled.
        self.history = (
            TelemetryHistory() if self.parallel.history else None
        )
        rules = default_rules()
        if self.history is not None:
            rules += burn_alert_rules(self.history.store)
        self.watchdog = AlertWatchdog(
            self.telemetry.registry, audit=self.telemetry.audit, rules=rules
        )
        #: Region-level hot-path aggregate, merged from worker profilers
        #: in stable db order each tick (``repro profile`` ranks these).
        self.profiler = Profiler()
        self.merger = DeterministicMerger(
            store=self.store,
            audit=self.telemetry.audit,
            registry=self.telemetry.registry,
            recorder=self.telemetry.recorder,
            bus=self.events,
            incidents=self.incidents,
            validation_history=self.validation_history,
            profiler=self.profiler,
        )
        self.specs = database_specs(
            n_databases,
            tier=tier,
            seed=seed,
            name_prefix=name_prefix,
            fault_seed=fault_seed,
            config=default_config,
        )
        self.database_names = [spec.name for spec in self.specs]
        shared = SharedSettings(
            control_settings=control_settings,
            validation_settings=validation_settings,
            mi_settings=mi_settings,
            policy=policy,
            engine_settings=engine_settings,
            instrument=self.parallel.instrument,
        )
        self.payloads = shard_payloads(
            self.specs, self.parallel.effective_workers, shared
        )
        self.backend = self.parallel.effective_backend
        #: One timer for the whole service: the pool brackets
        #: dispatch/wait on it, ``_tick`` brackets build/merge/finalize.
        self.phase_timer = TickPhaseTimer(
            registry=self.telemetry.registry,
            enabled=self.parallel.instrument,
        )
        self.pool = make_pool(
            self.backend,
            self.payloads,
            mp_context=self.parallel.mp_context,
            timer=self.phase_timer,
        )
        self._closed = False
        # The pool has live worker processes from here on: any failure
        # in the rest of construction must reap them, or ``close()``
        # semantics never get a chance to hold.
        try:
            self._finish_init()
        except BaseException:
            self.close()
            raise

    def _finish_init(self) -> None:
        """Construction after the pool exists (reaped on failure)."""
        #: Database name -> export track (1 + shard index): spans from a
        #: database render on the worker track that executed it.
        self._db_track = {
            spec.name: payload.shard_index + 1
            for payload in self.payloads
            for spec in payload.databases
        }
        self._shard_indices = [payload.shard_index for payload in self.payloads]
        registry = self.telemetry.registry
        registry.gauge("fleet_databases").set(len(self.specs))
        registry.gauge("fleet_workers").set(len(self.payloads))
        #: Cumulative busy seconds keyed by shard index (results arrive
        #: in completion order under pipelining, so positional indexing
        #: would misattribute).
        self._shard_busy: Dict[int, float] = {
            index: 0.0 for index in self._shard_indices
        }
        #: Recent per-tick wall-clock seconds (dispatch + merge); the
        #: fleet benchmark derives p95 tick latency from this window.
        self.tick_wall_seconds: Deque[float] = collections.deque(
            maxlen=TICK_WALL_WINDOW
        )
        #: Whole-run totals (the window above is capped).
        self.tick_wall_total = 0.0
        self.ticks_completed = 0
        self._pending_classifier_state: Optional[dict] = None
        self._last_retrain = 0.0
        #: ``(wall_ts, {series: value})`` per sampled tick, for the
        #: Perfetto counter tracks (wall clocks live only here and in
        #: the wall-flagged series — never in the audit stream).
        self._counter_samples: Deque[Tuple[float, Dict[str, float]]] = (
            collections.deque(maxlen=TICK_WALL_WINDOW)
        )

    # ------------------------------------------------------------------

    def run(self, hours: float) -> None:
        """Advance the closed loop by ``hours`` of virtual time.

        Tick ends are planned up front and dispatched in batches of up
        to ``ParallelSettings.batch_ticks`` per pool round-trip; each
        batch is flushed at classifier-retrain boundaries so broadcast
        state lands at the same virtual time a one-tick run applies it.
        """
        ends: List[float] = []
        now = self.clock.now
        remaining = hours
        while remaining > 0:
            step = min(self.settings.step_hours, remaining)
            now = now + step * HOURS
            ends.append(now)
            remaining -= step
        cursor = 0
        while cursor < len(ends):
            batch = self._plan_batch(ends[cursor:])
            self._run_batch(batch)
            cursor += len(batch)

    def _plan_batch(self, ends: Sequence[float]) -> List[float]:
        """Up to ``batch_ticks`` tick ends, cut at a retrain boundary.

        The classifier retrain check fires on virtual time alone
        (``end - _last_retrain >= retrain period``), so the boundary is
        predictable at planning time: the batch ends *with* the first
        tick whose finalize will run the check.  Any state the retrain
        broadcasts then rides the next batch's dispatch — the exact
        "new model at the next tick" semantics of the serial loop.
        """
        period = self.settings.classifier_retrain_hours * HOURS
        batch: List[float] = []
        for end in ends[: self.parallel.batch_ticks]:
            batch.append(end)
            if end - self._last_retrain >= period:
                break
        return batch

    def _run_batch(self, ends: Sequence[float]) -> None:
        """Dispatch one batch of ticks; overlap merging with compute.

        The pool streams ShardResults in completion order; arrivals are
        parked in a :class:`CompletionBuffer` and each tick is merged —
        in stable ``(tick, shard)`` order — as soon as every shard has
        delivered it, while workers keep computing the batch's later
        ticks.  Per tick, the parent phases (build/dispatch on the
        batch's first tick, then wait/merge/finalize) still partition
        the loop body, which keeps the >= 95% attribution-coverage gate
        structurally achievable under pipelining.
        """
        timer = self.phase_timer
        registry = self.telemetry.registry
        buffer = CompletionBuffer(self._shard_indices, len(ends))
        #: shard index -> (shard-clock wall of its first arrival's tick
        #: start, where that start lands on the parent timeline: receipt
        #: minus the tick's busy time).  Later ticks are anchored by the
        #: shard clock's own delta, so a batch renders back-to-back on
        #: its worker track instead of bunching at parent receipt times.
        #: Anchoring the *start* at the receipt time would shift every
        #: tick by its own duration, and a span opened in a slow tick and
        #: closed in a fast one would end before it began.
        bases: Dict[int, Tuple[float, float]] = {}
        stream = None
        for tick_index, end in enumerate(ends):
            tick_started = time.perf_counter()
            timer.begin_tick()
            if stream is None:
                with timer.phase("build"):
                    classifier_state = self._pending_classifier_state
                    self._pending_classifier_state = None
                    max_statements = self.settings.max_statements_per_step
                # The pool brackets "dispatch" here and each blocking
                # pull below as "wait", so IPC cost lands on whichever
                # tick the parent is currently assembling.
                stream = self.pool.tick_batch(
                    ends, max_statements, classifier_state
                )
            while not buffer.complete(tick_index):
                result = next(stream)
                received = timer.now()
                base_wall, base_anchor = bases.setdefault(
                    result.shard_index,
                    (result.started_wall, received - result.busy_seconds),
                )
                buffer.add(
                    result, base_anchor + (result.started_wall - base_wall)
                )
            with timer.phase("merge"):
                released = buffer.release(tick_index)
                registry.gauge("fleet_pipeline_buffered_results").set(
                    buffer.buffered
                )
                deltas = []
                for result, anchor in released:
                    timer.absorb_shard(result, anchor=anchor)
                    for delta in result.deltas:
                        if timer.enabled and delta.spans:
                            # Shift span wall clocks from the shard's
                            # perf_counter base onto the parent timeline
                            # so the export shares one epoch.  Sim-time
                            # fields are untouched — determinism is
                            # unaffected.
                            delta.spans = rebase_span_ops(
                                delta.spans, result.started_wall, anchor
                            )
                        deltas.append(delta)
                registry.gauge("fleet_merge_queue_depth").set(len(deltas))
                self.merger.merge(deltas)
            with timer.phase("finalize"):
                self._account_busy([result for result, _anchor in released])
                registry.counter("fleet_ticks_total").inc()
                self.clock.advance_to(end)
                # History samples the *merged* registry here — the
                # post-merge point, before the watchdog pass so SLO
                # burn-rate rules read a store including this tick.
                history_tick = None
                if self.history is not None:
                    history_tick = self.history.observe_tick(
                        registry, end, audit=self.telemetry.audit
                    )
                    if timer.enabled:
                        self._counter_samples.append(
                            (timer.now(), self._history_snapshot())
                        )
                self.watchdog.evaluate(end)
                self._maybe_retrain()
            wall = time.perf_counter() - tick_started
            timer.end_tick(wall)
            self._observe_tick_wall(wall)
            if self.history is not None and history_tick is not None:
                # Wall time is only known after end_tick; it lives in
                # the wall-flagged series, outside the anomaly/audit
                # path, so it cannot perturb determinism.
                self.history.observe_wall(history_tick, wall)

    def _history_snapshot(self) -> Dict[str, float]:
        """Latest non-wall history values, for the counter tracks."""
        store = self.history.store
        return {
            name: value
            for name in store.series_names()
            if not SAMPLE_CATALOG[name].wall
            for value in [store.latest(name)]
            if value is not None
        }

    def _account_busy(self, results) -> None:
        """Accumulate per-shard busy seconds keyed by ``shard_index``.

        Keyed by each result's own shard index — never by arrival
        position, which is meaningless once results stream home in
        completion order.
        """
        registry = self.telemetry.registry
        busy = []
        for result in results:
            index = result.shard_index
            self._shard_busy[index] += result.busy_seconds
            registry.gauge("fleet_shard_busy", shard=str(index)).set(
                self._shard_busy[index]
            )
            busy.append(result.busy_seconds)
        registry.gauge("fleet_tick_skew_seconds").set(
            max(busy) - min(busy) if busy else 0.0
        )

    def _observe_tick_wall(self, wall: float) -> None:
        """Record one tick's wall time: capped window + running totals."""
        self.tick_wall_seconds.append(wall)
        self.tick_wall_total += wall
        self.ticks_completed += 1
        self.telemetry.registry.histogram(
            "fleet_tick_wall_seconds", bounds=PHASE_BOUNDS
        ).observe(wall)

    def _maybe_retrain(self) -> None:
        now = self.clock.now
        if now - self._last_retrain < (
            self.settings.classifier_retrain_hours * HOURS
        ):
            return
        self._last_retrain = now
        examples = examples_from_history(self.validation_history)
        if self.classifier.fit(examples):
            # Broadcast with the next tick command so every backend
            # applies the new model at the same virtual time.
            self._pending_classifier_state = self.classifier.export_state()
            self.events.emit(
                now,
                "classifier_retrained",
                "<region>",
                examples=len(examples),
            )

    # ------------------------------------------------------------------

    @property
    def audit(self):
        """The merged decision-provenance stream."""
        return self.telemetry.audit

    def attribution(self) -> dict:
        """Where the wall-clock went: per-phase totals and coverage."""
        return attribution_summary(self.phase_timer.ticks, PARENT_PHASES)

    def trace_events(self) -> List[TraceEvent]:
        """Phase brackets, merged-span events, and history counter
        tracks for the trace export."""
        return (
            list(self.phase_timer.events)
            + span_trace_events(
                self.telemetry.recorder.spans(), self._db_track
            )
            + history_counter_events(self._counter_samples)
        )

    def track_names(self) -> dict:
        """Export track index -> human-readable label."""
        names = {0: "control plane (parent)"}
        for payload in self.payloads:
            names[payload.shard_index + 1] = (
                f"shard-{payload.shard_index} "
                f"({len(payload.databases)} db, {self.backend})"
            )
        return names

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self.pool.close()

    def __enter__(self) -> "ShardedFleetService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def build_fleet_service(
    n_databases: int,
    workers: int = 0,
    backend: str = "auto",
    instrument: bool = True,
    batch_ticks: int = 1,
    history: bool = True,
    **kwargs,
) -> ShardedFleetService:
    """Convenience constructor mirroring :func:`repro.service.build_service`."""
    parallel = ParallelSettings(
        workers=workers,
        backend=backend,
        instrument=instrument,
        batch_ticks=batch_ticks,
        history=history,
    )
    return ShardedFleetService(n_databases, parallel=parallel, **kwargs)
