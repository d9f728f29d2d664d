"""The control plane facade: one managed database plus the micro-services.

``ControlPlane.process()`` is one pass of the database's automation: due
scheduler jobs fire (MI snapshots, analysis sessions, drop analysis,
health checks) and every non-terminal recommendation record is driven one
step through its state machine by the implementation and validation
micro-services.  Transient failures move records to RETRY with back-off;
exhausted retries and permanent failures end in ERROR (Section 4).
"""

from __future__ import annotations

import dataclasses
import enum
import functools
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.clock import DAYS, HOURS, SimClock
from repro.controlplane.faults import FaultInjector
from repro.controlplane.scheduler import JobScheduler
from repro.controlplane.states import RecommendationState
from repro.controlplane.store import RecommendationRecord, StateStore
from repro.engine.engine import SqlEngine
from repro.engine.exec.dispatch import FALLBACK_GAUGES, FALLBACK_REASONS
from repro.errors import PermanentError, TransientError
from repro.observability import Telemetry
from repro.observability.audit import AuditLog
from repro.recommender import (
    DropRecommender,
    MiRecommender,
    MiRecommenderSettings,
)
from repro.recommender.classifier import LowImpactClassifier
from repro.recommender.policy import RecommenderPolicy
from repro.recommender.recommendation import Action, IndexRecommendation
from repro.validation import ValidationSettings, Validator


class AutoMode(enum.Enum):
    """Per-database automation level (the Section 2 portal settings)."""

    AUTO = "auto"
    RECOMMEND_ONLY = "recommend_only"
    OFF = "off"


@dataclasses.dataclass
class AutoIndexingConfig:
    """CREATE INDEX / DROP INDEX automation settings for one database."""

    create_mode: AutoMode = AutoMode.AUTO
    drop_mode: AutoMode = AutoMode.RECOMMEND_ONLY
    #: True when the settings come from the logical server default.
    inherited: bool = True


@dataclasses.dataclass
class ControlPlaneSettings:
    """Cadences and a limit that callers (the service, the demos) vary."""

    snapshot_period: float = 2 * HOURS
    analysis_period: float = 12 * HOURS
    drop_analysis_period: float = 7 * DAYS
    #: Length of the post-implementation observation window.
    validation_window: float = 12 * HOURS
    #: Maximum age of a record in a non-terminal state before the health
    #: service raises an incident.
    stuck_threshold: float = 3 * DAYS


#: The health sweep's period: one cadence for every database.
HEALTH_PERIOD = 6 * HOURS
#: An ACTIVE recommendation older than this expires unimplemented.
RECOMMENDATION_EXPIRY = 14 * DAYS
#: Transient failures survived before ERROR, and the first retry's delay
#: (minutes), doubled per attempt: every database retries alike.
MAX_RETRIES = 5
RETRY_BACKOFF = 30.0
#: (start, end) hours, wrapping midnight, in which implementations may
#: start; None (no database has a window today) means any hour.
LOW_ACTIVITY_HOURS: Optional[Tuple[int, int]] = None
#: A recommendation whose twin was recently REVERTED (or ERRORed) is
#: suppressed for this long — validation already proved it harmful.
REVERT_COOLDOWN = 60 * DAYS
#: Index changes per database are serialized: validation compares
#: before/after windows, so only one change may be in flight at a time
#: for the attribution to be clean.
MAX_CONCURRENT_IMPLEMENTATIONS = 1


@dataclasses.dataclass
class Incident:
    """A service-health incident for on-call engineers (Section 4)."""

    at: float
    database: str
    rec_id: Optional[int]
    description: str


def incidents_from_audit(audit: AuditLog) -> List[Incident]:
    """Every incident raised so far, read off the audit stream in order.

    Both raise sites already leave their evidence there — ``error_raised``
    from the state machine, ``health_action{incident_raised}`` from the
    health sweep — so the list is a view of it, not a second history.
    """
    raised = []
    for event in audit.events():
        payload = event.payload
        if event.event_type == "error_raised":
            description = payload["reason"]
        elif (
            event.event_type == "health_action"
            and payload["action"] == "incident_raised"
        ):
            description = (
                f"recommendation stuck in {payload['state']} "
                f"for {payload['age_minutes'] / 60:.1f} h"
            )
        else:
            continue
        raised.append(
            Incident(event.at, event.database, event.rec_id, description)
        )
    return raised


class EngineGauge(NamedTuple):
    """One engine counter surfaced as a per-database fleet gauge."""

    name: str
    labels: Dict[str, str]
    read: Callable[[SqlEngine], float]
    #: Publish only while this holds for the engine (None: always), so
    #: series a database never exercised do not exist at all.
    when: Optional[Callable[[SqlEngine], float]] = None


def _priced_a_batch(engine: SqlEngine) -> int:
    return engine.optimizer.batch_stats.batches


def _fallback_count(reason: str) -> Callable[[SqlEngine], int]:
    return lambda engine: engine.executor.fallback_counts[reason]


#: Every engine-side monotone counter the control plane publishes, in
#: publish order.  ``scripts/check_observability_names.py`` reads the
#: names from here.  Fallback reasons a database never hit get no series
#: (consumers read a missing gauge as 0), which keeps the registry
#: O(reasons actually exercised) rather than O(7 x fleet); the what-if
#: batch gauges appear once an engine has priced its first batch.
ENGINE_GAUGES: Tuple[EngineGauge, ...] = (
    EngineGauge(
        "executor_vector_dispatch_total", {"path": "vector"},
        lambda e: e.executor.vector_statements,
    ),
    EngineGauge(
        "executor_vector_dispatch_total", {"path": "interp"},
        lambda e: e.executor.interp_statements,
    ),
    EngineGauge("executor_batch_rows", {}, lambda e: e.executor.batch_rows),
    EngineGauge(
        "executor_column_cache_hits", {},
        lambda e: e.executor.column_cache_stats()[0],
    ),
    EngineGauge(
        "executor_column_cache_misses", {},
        lambda e: e.executor.column_cache_stats()[1],
    ),
    EngineGauge(
        "executor_column_cache_invalidations", {},
        lambda e: e.executor.column_cache_stats()[2],
    ),
    EngineGauge(
        "executor_column_cache_delta_rows", {},
        lambda e: e.executor.column_cache_delta_rows(),
    ),
    *(
        EngineGauge(
            FALLBACK_GAUGES[reason], {},
            _fallback_count(reason), _fallback_count(reason),
        )
        for reason in FALLBACK_REASONS
    ),
    EngineGauge(
        "whatif_batch_batches", {},
        lambda e: e.optimizer.batch_stats.batches, _priced_a_batch,
    ),
    EngineGauge(
        "whatif_batch_configurations", {},
        lambda e: e.optimizer.batch_stats.configurations, _priced_a_batch,
    ),
    EngineGauge(
        "whatif_batch_substrate_hits", {},
        lambda e: e.optimizer.batch_stats.substrate_hits, _priced_a_batch,
    ),
    EngineGauge(
        "whatif_batch_substrate_misses", {},
        lambda e: e.optimizer.batch_stats.substrate_misses, _priced_a_batch,
    ),
)


# ----------------------------------------------------------------------
# Store hooks (state-machine metrics + audit, Section 3's observability)


def _telemetry_on_insert(
    telemetry: Telemetry, live: set, record: RecommendationRecord, at: float
) -> None:
    live.add(record.rec_id)
    registry = telemetry.registry
    recommendation = record.recommendation
    registry.counter(
        "recommendations_created_total",
        database=record.database,
        action=recommendation.action.value,
        source=recommendation.source or "unknown",
    ).inc()
    registry.gauge("records_in_state", state=record.state.value).inc()
    telemetry.audit.emit(
        at,
        "recommendation_registered",
        record.database,
        rec_id=record.rec_id,
        state=record.state.value,
        action=recommendation.action.value,
        source=recommendation.source or "unknown",
        table=recommendation.table,
        key_columns=list(recommendation.key_columns),
        estimated_improvement_pct=recommendation.estimated_improvement_pct,
        estimated_size_bytes=recommendation.estimated_size_bytes,
    )


def _telemetry_on_transition(
    telemetry: Telemetry,
    live: set,
    record: RecommendationRecord,
    old_state: RecommendationState,
    new_state: RecommendationState,
    at: float,
    note: str,
) -> None:
    if new_state.terminal:
        live.discard(record.rec_id)
    registry = telemetry.registry
    registry.counter(
        "state_transitions_total",
        database=record.database,
        from_state=old_state.value,
        to_state=new_state.value,
    ).inc()
    registry.gauge("records_in_state", state=old_state.value).dec()
    registry.gauge("records_in_state", state=new_state.value).inc()
    telemetry.audit.emit(
        at,
        "state_changed",
        record.database,
        rec_id=record.rec_id,
        from_state=old_state.value,
        to_state=new_state.value,
        note=note,
    )
    # The hook runs after the store applied the transition, so the
    # second-to-last history entry is when ``old_state`` was entered.
    registry.histogram(
        "state_duration_minutes", state=old_state.value
    ).observe(at - record.state_history[-2][0])


class ControlPlane:
    """One database's auto-indexing automation (the Section 4 state machine)."""

    def __init__(
        self,
        clock: SimClock,
        name: str,
        engine: SqlEngine,
        tier: str = "standard",
        config: Optional[AutoIndexingConfig] = None,
        *,
        settings: Optional[ControlPlaneSettings] = None,
        validation_settings: Optional[ValidationSettings] = None,
        mi_settings: Optional[MiRecommenderSettings] = None,
        fault_seed: int = 0,
    ) -> None:
        self.clock = clock
        self.settings = settings or ControlPlaneSettings()
        self.policy = RecommenderPolicy()
        self.classifier = LowImpactClassifier()
        self.name = name
        self.tier = tier
        self.engine = engine
        self.config = config or AutoIndexingConfig()
        self.mi = MiRecommender(
            engine, settings=mi_settings, classifier=self.classifier
        )
        self.drops = DropRecommender(engine)
        self.validator = Validator(engine, validation_settings)
        #: Active index build jobs keyed by recommendation id.
        self.build_jobs: Dict[int, object] = {}
        self.drop_protocols: Dict[int, object] = {}
        self.telemetry = Telemetry()
        #: Non-terminal record ids — the due-set :meth:`process` drives.
        #: Maintained by the store hooks so a quiescent database costs
        #: O(live), not O(all records ever created).
        self._live: set = set()
        self.store = StateStore()
        # The hooks reach the telemetry and the live set, not the plane:
        # the plane owns the store, so a hook holding the plane would
        # make a cycle only the cyclic collector could free.
        self.store.on_insert = functools.partial(
            _telemetry_on_insert, self.telemetry, self._live
        )
        self.store.on_transition = functools.partial(
            _telemetry_on_transition, self.telemetry, self._live
        )
        #: Last-published ENGINE_GAUGES values, so the per-tick publish
        #: skips an engine whose counters did not move.
        self._engine_gauges_published: Optional[tuple] = None
        self.scheduler = JobScheduler()
        self.faults = FaultInjector(fault_seed)
        # Lazy service imports avoid a module cycle.
        from repro.controlplane.services.recommend_service import (
            RecommendationService,
        )
        from repro.controlplane.services.implement_service import (
            ImplementationService,
        )
        from repro.controlplane.services.validate_service import (
            ValidationService,
        )
        from repro.controlplane.services.dta_service import DtaSessionManager
        from repro.controlplane.services.health_service import HealthService

        # The services keep no reference to the plane; it is an argument
        # of every call, so ownership stays a tree.
        self.recommend_service = RecommendationService()
        self.implement_service = ImplementationService()
        self.validate_service = ValidationService()
        self.dta_service = DtaSessionManager()
        self.health_service = HealthService()
        # The jobs are handed the plane when they fire (``process``) and
        # name nothing else, so they hold no reference to it; they look
        # the service method up then, so a class-level wrapper installed
        # after construction still sees every call.  Equal due times
        # fire in scheduling order.
        now = clock.now
        settings = self.settings
        self.scheduler.schedule(
            f"{name}:snapshot",
            lambda plane, at: plane.recommend_service.snapshot(plane, at),
            first_run=now + settings.snapshot_period,
            period=settings.snapshot_period,
        )
        self.scheduler.schedule(
            f"{name}:analyze",
            lambda plane, at: plane.recommend_service.analyze(plane, at),
            first_run=now + settings.analysis_period,
            period=settings.analysis_period,
        )
        self.scheduler.schedule(
            f"{name}:drop-analyze",
            lambda plane, at: plane.recommend_service.analyze_drops(
                plane, at
            ),
            first_run=now + settings.drop_analysis_period,
            period=settings.drop_analysis_period,
        )
        self.scheduler.schedule(
            f"{name}:health",
            lambda plane, at: plane.health_service.check(plane, at),
            first_run=now + HEALTH_PERIOD,
            period=HEALTH_PERIOD,
        )

    @property
    def audit(self):
        """The decision-provenance stream (``repro explain`` reads this)."""
        return self.telemetry.audit

    @property
    def incidents(self) -> List[Incident]:
        """Service-health incidents for on-call engineers (Section 4)."""
        return incidents_from_audit(self.telemetry.audit)

    @property
    def validation_history(self) -> List[dict]:
        """Labeled validation outcomes for classifier training (Section 5.2)."""
        return self.store.validation_history()

    # ------------------------------------------------------------------
    # The main loop step

    def process(self, now: Optional[float] = None) -> None:
        """One automation pass at virtual time ``now``.

        Driving iterates the *due set* — the non-terminal record ids the
        store hooks maintain — in ascending ``rec_id`` order (insertion
        order, matching the old full-table scan exactly).  A quiescent
        database therefore costs O(live records), not O(records ever
        created).
        """
        now = self.clock.now if now is None else now
        self.scheduler.run_due(now, self)
        for rec_id in sorted(self._live):
            record = self.store.get(rec_id)
            if record is None or record.terminal:
                self._live.discard(rec_id)
                continue
            self._drive(record, now)
        self._publish_engine_gauges()

    def _publish_engine_gauges(self) -> None:
        """Surface the engine's counters (:data:`ENGINE_GAUGES`) as gauges.

        The engine-side counters are monotone; publishing them as gauges
        (current value, per database) keeps the dashboard a pure read of
        the telemetry substrate.  The last published values are memoized,
        so an idle engine (nothing planned, executed or priced since the
        previous tick) skips every gauge lookup.
        """
        engine = self.engine
        values = tuple(gauge.read(engine) for gauge in ENGINE_GAUGES)
        if self._engine_gauges_published == values:
            return
        self._engine_gauges_published = values
        registry = self.telemetry.registry
        for engine_gauge, value in zip(ENGINE_GAUGES, values):
            if engine_gauge.when is None or engine_gauge.when(engine):
                registry.gauge(
                    engine_gauge.name, database=self.name, **engine_gauge.labels
                ).set(value)

    # ------------------------------------------------------------------
    # Record driving

    def _drive(self, record: RecommendationRecord, now: float) -> None:
        try:
            if record.state is RecommendationState.ACTIVE:
                self._drive_active(record, now)
            elif record.state is RecommendationState.IMPLEMENTING:
                self.implement_service.drive(self, record, now)
            elif record.state is RecommendationState.VALIDATING:
                self.validate_service.drive(self, record, now)
            elif record.state is RecommendationState.REVERTING:
                self.implement_service.drive_revert(self, record, now)
            elif record.state is RecommendationState.RETRY:
                self._drive_retry(record, now)
        except TransientError as exc:
            self._to_retry(record, now, str(exc))
        except PermanentError as exc:
            self._to_error(record, now, str(exc))

    def _drive_active(self, record: RecommendationRecord, now: float) -> None:
        if now - record.recommendation.created_at > RECOMMENDATION_EXPIRY:
            self.store.transition(record, RecommendationState.EXPIRED, now, "aged out")
            self.telemetry.count_event("recommendation_expired", self.name)
            return
        mode = (
            self.config.create_mode
            if record.recommendation.action is Action.CREATE
            else self.config.drop_mode
        )
        if mode is not AutoMode.AUTO:
            return  # waits for the user (request_implementation) or expiry
        if not self._implementation_window_open(now):
            return
        if self._in_flight() >= MAX_CONCURRENT_IMPLEMENTATIONS:
            return
        self.implement_service.begin(self, record, now)

    #: Non-terminal states that hold an index change in flight.
    _BUSY_STATES = (
        RecommendationState.IMPLEMENTING,
        RecommendationState.VALIDATING,
        RecommendationState.REVERTING,
        RecommendationState.RETRY,
    )

    def _in_flight(self) -> int:
        """Records holding an index change in flight (busy states are
        non-terminal, so the due set holds every one of them)."""
        get = self.store.get
        return sum(
            1 for rec_id in self._live if get(rec_id).state in self._BUSY_STATES
        )

    def _implementation_window_open(self, now: float) -> bool:
        if LOW_ACTIVITY_HOURS is None:
            return True
        hour = (now / HOURS) % 24.0
        start, end = LOW_ACTIVITY_HOURS
        if start <= end:
            return start <= hour < end
        return hour >= start or hour < end

    def _drive_retry(self, record: RecommendationRecord, now: float) -> None:
        if record.retry_at is not None and now < record.retry_at:
            return
        target = record.retry_target or RecommendationState.IMPLEMENTING
        needs_begin = (
            target is RecommendationState.IMPLEMENTING
            and record.implemented_at is None
            and record.rec_id not in self.build_jobs
            and record.rec_id not in self.drop_protocols
        )
        if needs_begin:
            # The failure happened before implementation started; re-run
            # the begin step (it performs the RETRY -> IMPLEMENTING move).
            self.implement_service.begin(self, record, now)
            return
        self.store.transition(record, target, now, "retrying")

    def _to_retry(
        self, record: RecommendationRecord, now: float, reason: str
    ) -> None:
        self.store.update(record, now, attempts=record.attempts + 1)
        if record.attempts > MAX_RETRIES:
            self._to_error(record, now, f"retries exhausted: {reason}")
            return
        previous = record.state
        self.store.update(
            record,
            now,
            retry_target=previous
            if previous
            in (
                RecommendationState.IMPLEMENTING,
                RecommendationState.VALIDATING,
                RecommendationState.REVERTING,
            )
            else RecommendationState.IMPLEMENTING,
            retry_at=now + RETRY_BACKOFF * (2 ** (record.attempts - 1)),
        )
        if previous is not RecommendationState.RETRY:
            self.store.transition(record, RecommendationState.RETRY, now, reason)
        self.telemetry.audit.emit(
            now,
            "retry_scheduled",
            self.name,
            rec_id=record.rec_id,
            reason=reason,
            attempt=record.attempts,
            retry_at=record.retry_at,
            retry_target=(record.retry_target.value if record.retry_target else None),
        )
        self.telemetry.count_event("recommendation_retry", self.name)

    def _to_error(
        self, record: RecommendationRecord, now: float, reason: str
    ) -> None:
        if record.state is not RecommendationState.ERROR:
            self.store.transition(record, RecommendationState.ERROR, now, reason)
        self.telemetry.audit.emit(
            now,
            "error_raised",
            self.name,
            rec_id=record.rec_id,
            reason=reason,
            attempts=record.attempts,
        )
        self.telemetry.count_event("recommendation_error", self.name)
        self.telemetry.registry.counter(
            "incidents_total", database=self.name
        ).inc()

    # ------------------------------------------------------------------
    # User actions (Section 2)

    def request_implementation(self, rec_id: int) -> None:
        """User-initiated apply of a recommendation (validated by the system)."""
        record = self.store.get(rec_id)
        if record is None or record.state is not RecommendationState.ACTIVE:
            raise PermanentError(f"recommendation {rec_id} is not applicable")
        self.implement_service.begin(self, record, self.clock.now)

    # ------------------------------------------------------------------
    # Aggregate reporting

    def register_recommendations(
        self, recommendations: List[IndexRecommendation], now: float
    ) -> List[RecommendationRecord]:
        """Insert new ACTIVE records, expiring superseded duplicates."""
        records = []
        existing_active = {}
        # Validation verdicts are sticky: re-proposing an index that was
        # just reverted (or errored) would thrash (Section 8.1's revert
        # statistics count each action once).  An index currently being
        # implemented/validated is also not re-proposed.
        suppressed = {}
        for r in self.store.all_records():
            state = r.state
            if state is RecommendationState.ACTIVE:
                existing_active[r.recommendation.structure_key()] = r
            elif state in (RecommendationState.REVERTED, RecommendationState.ERROR):
                when = r.state_history[-1][0] if r.state_history else 0.0
                key = r.recommendation.structure_key()
                suppressed[key] = max(suppressed.get(key, 0.0), when)
            elif not state.terminal:
                suppressed[r.recommendation.structure_key()] = float("inf")
        for recommendation in recommendations:
            key = recommendation.structure_key()
            suppressed_at = suppressed.get(key)
            if suppressed_at is not None and (
                suppressed_at == float("inf")
                or now - suppressed_at < REVERT_COOLDOWN
            ):
                in_flight = suppressed_at == float("inf")
                self.telemetry.audit.emit(
                    now,
                    "recommendation_suppressed",
                    self.name,
                    reason="in_flight" if in_flight else "revert_cooldown",
                    table=recommendation.table,
                    key_columns=list(recommendation.key_columns),
                    action=recommendation.action.value,
                    cooldown_until=(
                        None
                        if in_flight
                        else suppressed_at + REVERT_COOLDOWN
                    ),
                )
                continue
            previous = existing_active.get(key)
            if previous is not None:
                self.store.transition(
                    previous,
                    RecommendationState.EXPIRED,
                    now,
                    "superseded by newer recommendation",
                )
            record = self.store.insert(self.name, recommendation, now)
            records.append(record)
            existing_active[key] = record
            self.telemetry.count_event("recommendation_created", self.name)
        return records
