"""The region service: dispatch ticks, merge deterministically.

:class:`ShardedFleetService` is the one region loop
(:func:`repro.service.build_service` runs it on the serial backend).
Databases are sharded across a worker pool (process or serial — see
:class:`~repro.parallel.settings.ParallelSettings`); each virtual-time
tick every shard advances its databases' workloads and single-database
control planes, and the parent replays the resulting per-database deltas
through the :class:`~repro.parallel.merge.DeterministicMerger` into one
region-level store/audit/registry history.

Because global ordering is assigned at merge time in stable
``(db_name, seq)`` order, a run's audit JSONL and recovered store state
are byte-identical across backends and worker counts for the same seed.

Region duties live only at the parent, where they see the same merged
state at the same virtual time in every backend: telemetry history
samples the merged registry, the alert watchdog pages on that history,
and the low-impact classifier retrains on the merged validation history
(the new state is broadcast to workers with the *next* tick command).

On the serial backend the workers' live state is in this process too;
:attr:`ShardedFleetService.fleet`, :meth:`~ShardedFleetService.database_plane`
and the two portal calls reach it, and raise on the process backend.
"""

from __future__ import annotations

import collections
import time
from typing import Deque, Dict, List, Optional, Tuple

from repro.clock import HOURS, SimClock
from repro.controlplane import (
    AutoIndexingConfig,
    ControlPlane,
    ControlPlaneSettings,
)
from repro.controlplane.control_plane import Incident, incidents_from_audit
from repro.controlplane.store import StateStore
from repro.engine.engine import EngineSettings
from repro.errors import PermanentError
from repro.observability import AlertWatchdog, Telemetry
from repro.observability.profiling import Profiler
from repro.observability.timeseries import SAMPLE_CATALOG, TelemetryHistory
from repro.observability.trace_export import (
    TraceEvent,
    attribution_summary,
    history_counter_events,
)
from repro.recommender import MiRecommenderSettings
from repro.recommender.classifier import (
    LowImpactClassifier,
    examples_from_history,
)
from repro.parallel.merge import DeterministicMerger
from repro.parallel.pool import make_pool
from repro.parallel.settings import ParallelSettings, ServiceSettings
from repro.parallel.spec import (
    SharedSettings,
    database_specs,
    shard_payloads,
)
from repro.parallel.timing import (
    PARENT_PHASES,
    PHASE_BOUNDS,
    TickPhaseTimer,
)
from repro.parallel.worker import DatabaseWorker
from repro.validation import ValidationSettings
from repro.workload.app_profiles import ApplicationProfile

#: Sampled ticks kept for the Perfetto counter tracks (the trace shows
#: the recent window of a long run; memory stays bounded).
COUNTER_TRACK_TICKS = 4096
#: Virtual hours one fleet tick advances.
STEP_HOURS = 2.0
#: Retrain the low-impact classifier every this many hours.
CLASSIFIER_RETRAIN_HOURS = 48.0


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
        mi_settings: Optional[MiRecommenderSettings] = None,
        engine_settings: Optional[EngineSettings] = None,
        default_config: Optional[AutoIndexingConfig] = None,
        fault_seed: int = 0,
        name_prefix: str = "db",
    ) -> None:
        self.parallel = parallel or ParallelSettings()
        self.settings = service_settings or ServiceSettings()
        self.clock = SimClock()
        # Region-level merged state: the same shapes a control plane
        # exposes (telemetry, store), folded from every database's plane.
        self.telemetry = Telemetry()
        self.store = StateStore()
        self.classifier = LowImpactClassifier()
        #: Fleet telemetry history: sampled at the post-merge point of
        #: every tick, over merged virtual-time state only, so runs stay
        #: byte-identical across backends with sampling enabled.
        self.history = TelemetryHistory()
        self.watchdog = AlertWatchdog(
            self.telemetry.registry,
            self.history.store,
            audit=self.telemetry.audit,
        )
        #: Region-level hot-path aggregate, merged from worker profilers
        #: in stable db order each tick (``repro profile`` ranks these).
        self.profiler = Profiler()
        self.merger = DeterministicMerger(
            store=self.store,
            audit=self.telemetry.audit,
            registry=self.telemetry.registry,
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
            self.backend, self.payloads, timer=self.phase_timer
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
        #: Database name -> its in-process worker (serial backend only).
        self._local: Optional[Dict[str, DatabaseWorker]] = (
            {
                worker.spec.name: worker
                for runner in self.pool.runners
                for worker in runner.workers
            }
            if self.backend == "serial"
            else None
        )
        registry = self.telemetry.registry
        registry.gauge("fleet_databases").set(len(self.specs))
        registry.gauge("fleet_workers").set(len(self.payloads))
        #: Cumulative busy seconds keyed by shard index.
        self._shard_busy: Dict[int, float] = {
            payload.shard_index: 0.0 for payload in self.payloads
        }
        #: Whole-run wall-clock totals (dispatch + merge); per-tick values
        #: live in the ``tick_wall_seconds`` history series, the
        #: ``fleet_tick_wall_seconds`` histogram and ``phase_timer.ticks``.
        self.tick_wall_total = 0.0
        self.ticks_completed = 0
        self._pending_classifier_state: Optional[dict] = None
        self._last_retrain = 0.0
        #: ``(wall_ts, {series: value})`` per sampled tick, for the
        #: Perfetto counter tracks (wall clocks live only here and in
        #: the wall-flagged series — never in the audit stream).
        self._counter_samples: Deque[Tuple[float, Dict[str, float]]] = (
            collections.deque(maxlen=COUNTER_TRACK_TICKS)
        )

    # ------------------------------------------------------------------

    def run(self, hours: float) -> None:
        """Advance the closed loop by ``hours`` of virtual time."""
        remaining = hours
        while remaining > 0:
            step = min(STEP_HOURS, remaining)
            self._tick(self.clock.now + step * HOURS)
            remaining -= step

    def _tick(self, end: float) -> None:
        """One fleet tick: dispatch, collect, merge, finalize.

        The parent phases (build, dispatch, wait, merge, finalize)
        partition the body, which keeps the >= 95% attribution-coverage
        gate structurally achievable.
        """
        timer = self.phase_timer
        registry = self.telemetry.registry
        tick_started = time.perf_counter()
        timer.begin_tick()
        with timer.phase("build"):
            classifier_state = self._pending_classifier_state
            self._pending_classifier_state = None
            max_statements = self.settings.max_statements_per_step
        # The pool brackets "dispatch" and each blocking receive
        # ("wait") itself.  Each result is paired with where its tick
        # *start* lands on the parent timeline: receipt minus the tick's
        # busy time.  Anchoring the start at the receipt time would
        # shift every tick's worker phases by its own duration.
        arrivals = [
            (result, timer.now() - result.busy_seconds)
            for result in self.pool.tick(
                end, max_statements, classifier_state
            )
        ]
        # Arrival order is a race; shard-index order is not.
        arrivals.sort(key=lambda arrival: arrival[0].shard_index)
        with timer.phase("merge"):
            deltas = []
            for result, anchor in arrivals:
                timer.absorb_shard(result, anchor)
                deltas.extend(result.deltas)
            registry.gauge("fleet_merge_queue_depth").set(len(deltas))
            self.merger.merge(deltas)
        with timer.phase("finalize"):
            self._account_busy([result for result, _anchor in arrivals])
            registry.counter("fleet_ticks_total").inc()
            self.clock.advance_to(end)
            # History samples the *merged* registry here — the
            # post-merge point, before the watchdog pass so SLO
            # burn-rate rules read a store including this tick.
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
        # Wall time is only known after end_tick; it lives in the
        # wall-flagged series, outside the anomaly/audit path, so it
        # cannot perturb determinism.
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

        Keyed by each result's own shard index — never by position in
        ``results``, whatever order the caller hands them over in.
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
        """Record one tick's wall time: running totals + histogram."""
        self.tick_wall_total += wall
        self.ticks_completed += 1
        self.telemetry.registry.histogram(
            "fleet_tick_wall_seconds", bounds=PHASE_BOUNDS
        ).observe(wall)

    def _maybe_retrain(self) -> None:
        now = self.clock.now
        if now - self._last_retrain < CLASSIFIER_RETRAIN_HOURS * HOURS:
            return
        self._last_retrain = now
        examples = examples_from_history(self.validation_history)
        if self.classifier.fit(examples):
            # Broadcast with the next tick command so every backend
            # applies the new model at the same virtual time.
            self._pending_classifier_state = self.classifier.export_state()
            self.telemetry.count_event("classifier_retrained", "<region>")

    # ------------------------------------------------------------------

    @property
    def audit(self):
        """The merged decision-provenance stream."""
        return self.telemetry.audit

    @property
    def incidents(self) -> List[Incident]:
        """Incidents of the whole fleet, read off the merged audit stream."""
        return incidents_from_audit(self.telemetry.audit)

    @property
    def validation_history(self) -> List[dict]:
        """Classifier examples of the whole fleet, from the merged journal."""
        return self.store.validation_history()

    # ------------------------------------------------------------------
    # In-process reach into the workers (serial backend only)

    def _worker(self, database: str) -> DatabaseWorker:
        if self._local is None:
            raise RuntimeError(
                f"database {database!r} lives in a {self.backend} worker; "
                "in-process access needs the serial backend"
            )
        return self._local[database]

    @property
    def fleet(self) -> List[ApplicationProfile]:
        """Every database's profile (engine + workload), in name order."""
        return [
            self._worker(name).profile for name in sorted(self.database_names)
        ]

    def database_plane(self, database: str) -> ControlPlane:
        """The single-database control plane that manages ``database``."""
        return self._worker(database).plane

    def set_config(self, database: str, config: AutoIndexingConfig) -> None:
        """Update a database's automation settings (the Section 2 portal)."""
        self.database_plane(database).config = config

    def request_implementation(self, rec_id: int) -> None:
        """User-initiated apply of a recommendation, by its merged id.

        The plane that owns it begins the implementation now; the merged
        store shows it after the next tick.
        """
        for (database, local_id), merged_id in self.merger.rec_ids.items():
            if merged_id == rec_id:
                self.database_plane(database).request_implementation(local_id)
                return
        raise PermanentError(f"recommendation {rec_id} is not applicable")

    def attribution(self) -> dict:
        """Where the wall-clock went: per-phase totals and coverage."""
        return attribution_summary(self.phase_timer.ticks, PARENT_PHASES)

    def trace_events(self) -> List[TraceEvent]:
        """Phase brackets and history counter tracks for the trace
        export."""
        return list(self.phase_timer.events) + history_counter_events(
            self._counter_samples
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
    **kwargs,
) -> ShardedFleetService:
    """The region service with ``workers`` shards on ``backend``."""
    parallel = ParallelSettings(
        workers=workers, backend=backend, instrument=instrument
    )
    return ShardedFleetService(n_databases, parallel=parallel, **kwargs)
