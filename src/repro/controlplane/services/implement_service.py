"""Micro-service (b): implement recommendations (and perform reverts).

Creates run as online index builds advanced at a configured rate of
virtual time (Section 6's "schedule during low activity" and Section
8.3's resumable-create lessons); drops use the low-priority Sch-M
protocol, one attempt per pass, so they never convoy user transactions.
Every index change ends in the engine's own DDL entry.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.controlplane.states import RecommendationState
from repro.controlplane.store import RecommendationRecord
from repro.engine.ddl import (
    BuildState,
    LowPriorityDropProtocol,
    OnlineIndexBuildJob,
)
from repro.engine.schema import auto_index_name
from repro.errors import PermanentError, TransientError
from repro.recommender.recommendation import Action

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.controlplane.control_plane import ControlPlane

#: Index build speed (rows of build work per virtual minute).
BUILD_ROWS_PER_MINUTE = 20_000.0
#: Minutes from an implementation to its validation window, for all.
VALIDATION_SETTLE = 30.0


class ImplementationService:
    """Starts and advances implementations; executes reverts (the plane
    is an argument)."""

    # ------------------------------------------------------------------
    # Starting

    def begin(
        self, plane: "ControlPlane", record: RecommendationRecord, now: float
    ) -> None:
        plane.faults.check("implement")
        recommendation = record.recommendation
        engine = plane.engine
        if recommendation.action is Action.CREATE:
            if recommendation.table not in engine.database.tables:
                raise PermanentError(
                    f"table {recommendation.table!r} was dropped"
                )
            # Name by record id: unique per database and reproducible,
            # unlike the process-global fallback counter (whose value
            # depends on allocation order across every plane in the
            # process — never stable under fleet sharding).
            definition = recommendation.to_definition(
                record.index_name
                or auto_index_name(
                    recommendation.table,
                    recommendation.key_columns,
                    seq=record.rec_id,
                )
            )
            if engine.index_exists(recommendation.table, definition.name):
                raise PermanentError(
                    f"an index named {definition.name!r} already exists"
                )
            job = OnlineIndexBuildJob(engine, definition)
            plane.build_jobs[record.rec_id] = (job, now)
            plane.store.update(record, now, index_name=definition.name)
            method = {"method": "online_resumable_build", "rows_total": job.rows_total}
        else:
            index_name = recommendation.existing_index_name
            if not engine.index_exists(recommendation.table, index_name):
                raise PermanentError(
                    f"index {index_name!r} was dropped external to the system"
                )
            plane.drop_protocols[record.rec_id] = LowPriorityDropProtocol(
                engine, recommendation.table, index_name
            )
            dropped = engine.database.table(recommendation.table).get_index(
                index_name
            )
            plane.store.update(
                record,
                now,
                index_name=index_name,
                dropped_definition=dropped.definition,
            )
            method = {"method": "low_priority_drop"}
        plane.store.transition(
            record, RecommendationState.IMPLEMENTING, now, "implementation started"
        )
        plane.telemetry.audit.emit(
            now,
            "implementation_started",
            plane.name,
            rec_id=record.rec_id,
            action=recommendation.action.value,
            index_name=record.index_name,
            table=recommendation.table,
            **method,
        )
        plane.telemetry.count_event("implement_started", plane.name)

    # ------------------------------------------------------------------
    # Advancing

    def drive(
        self, plane: "ControlPlane", record: RecommendationRecord, now: float
    ) -> None:
        if record.recommendation.action is Action.CREATE:
            self._advance_build(plane, record, now)
        else:
            self._advance_drop(plane, record, now)

    def _advance_build(
        self, plane: "ControlPlane", record: RecommendationRecord, now: float
    ) -> None:
        entry = plane.build_jobs.get(record.rec_id)
        if entry is None:
            # Control plane restarted mid-build: restart the build.
            self.begin_rebuild(plane, record, now)
            return
        job, last_advance = entry
        elapsed = max(0.0, now - last_advance)
        rows = int(elapsed * BUILD_ROWS_PER_MINUTE) + 1
        job.advance(rows, now)
        plane.build_jobs[record.rec_id] = (job, now)
        plane.engine.governor.index_build.charge_cpu(
            rows * OnlineIndexBuildJob.CPU_MS_PER_ROW, now
        )
        if job.state is BuildState.COMPLETED:
            del plane.build_jobs[record.rec_id]
            self._implemented(
                plane,
                record,
                now,
                rows_built=job.rows_total,
                build_cpu_ms=job.cpu_ms_spent,
                log_bytes_generated=job.log_bytes_generated,
            )

    def begin_rebuild(
        self, plane: "ControlPlane", record: RecommendationRecord, now: float
    ) -> None:
        """Re-create the build job after a control-plane crash.

        The new job starts from row 0: nothing persists a lost job's
        ``rows_done``, so this is a restart, not a resume, although
        ``implementation_started`` audits the build as
        ``online_resumable_build`` (every locked digest carries that
        string, so it stays)."""
        definition = record.recommendation.to_definition(record.index_name)
        if plane.engine.index_exists(record.recommendation.table, definition.name):
            self._implemented(plane, record, now)
            return
        job = OnlineIndexBuildJob(plane.engine, definition)
        plane.build_jobs[record.rec_id] = (job, now)

    def _advance_drop(
        self, plane: "ControlPlane", record: RecommendationRecord, now: float
    ) -> None:
        if record.rec_id not in plane.drop_protocols:
            raise TransientError("drop protocol lost; retrying")
        evidence = self._attempt_drop(
            plane,
            record,
            now,
            f"low-priority drop of {record.index_name!r} kept timing out",
        )
        if evidence is not None:
            self._implemented(plane, record, now, **evidence)

    def _attempt_drop(
        self,
        plane: "ControlPlane",
        record: RecommendationRecord,
        now: float,
        timed_out: str,
    ) -> Optional[dict]:
        """One attempt of the record's drop protocol: the lock-wait
        evidence once the index is gone, None while the drop waits for
        the next pass."""
        protocol = plane.drop_protocols[record.rec_id]
        if not protocol.attempt(now):
            if protocol.exhausted():
                raise TransientError(timed_out)
            return None
        del plane.drop_protocols[record.rec_id]
        return {
            "lock_attempts": len(protocol.attempts),
            "lock_timeouts": sum(1 for a in protocol.attempts if not a.succeeded),
            "lock_wait_minutes": sum(a.waited for a in protocol.attempts),
        }

    def _implemented(
        self,
        plane: "ControlPlane",
        record: RecommendationRecord,
        now: float,
        **evidence,
    ) -> None:
        first_time = record.implemented_at is None
        plane.store.update(
            record,
            now,
            implemented_at=now,
            validate_after=now + VALIDATION_SETTLE,
        )
        if first_time:
            plane.telemetry.registry.counter(
                "implementations_completed_total",
                database=plane.name,
                action=record.recommendation.action.value,
            ).inc()
        plane.telemetry.audit.emit(
            now,
            "implementation_completed",
            plane.name,
            rec_id=record.rec_id,
            action=record.recommendation.action.value,
            index_name=record.index_name,
            validation_window_opens=now + VALIDATION_SETTLE,
            **evidence,
        )
        plane.store.transition(
            record, RecommendationState.VALIDATING, now, "implemented"
        )
        plane.telemetry.count_event("implement_completed", plane.name)

    # ------------------------------------------------------------------
    # Reverting (Section 6)

    def drive_revert(
        self, plane: "ControlPlane", record: RecommendationRecord, now: float
    ) -> None:
        plane.faults.check("revert")
        engine = plane.engine
        recommendation = record.recommendation
        evidence = {}
        if recommendation.action is Action.CREATE:
            # Revert a create: drop the index (low priority, Section 8.3).
            if engine.index_exists(recommendation.table, record.index_name):
                if record.rec_id not in plane.drop_protocols:
                    plane.drop_protocols[record.rec_id] = LowPriorityDropProtocol(
                        engine, recommendation.table, record.index_name
                    )
                lock = self._attempt_drop(
                    plane, record, now, "revert drop kept timing out"
                )
                if lock is None:
                    return
                evidence = {"method": "low_priority_drop", **lock}
        else:
            # Revert a drop: recreate the index it removed, as it was.
            definition = record.dropped_definition
            if not engine.index_exists(recommendation.table, definition.name):
                engine.create_index(definition, at_time=now)
                evidence = {
                    "method": "recreate_index",
                    "rows_built": engine.database.table(
                        recommendation.table
                    ).row_count,
                }
        plane.telemetry.audit.emit(
            now,
            "revert_completed",
            plane.name,
            rec_id=record.rec_id,
            action=recommendation.action.value,
            index_name=record.index_name,
            **evidence,
        )
        plane.store.transition(
            record, RecommendationState.REVERTED, now, "reverted"
        )
        plane.telemetry.count_event("reverted", plane.name)
