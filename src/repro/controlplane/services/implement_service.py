"""Micro-service (b): implement recommendations (and perform reverts).

Creates run as online, resumable index builds advanced at a configured
rate of virtual time (Section 6's "schedule during low activity" and
Section 8.3's resumable-create lessons); drops use the low-priority Sch-M
protocol with back-off/retry so they never convoy user transactions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

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


def _lock_evidence(protocol: LowPriorityDropProtocol) -> dict:
    """Lock-wait evidence of a low-priority Sch-M drop protocol."""
    return {
        "lock_attempts": len(protocol.attempts),
        "lock_timeouts": sum(1 for a in protocol.attempts if not a.succeeded),
        "lock_wait_minutes": sum(a.waited for a in protocol.attempts),
    }


class ImplementationService:
    """Starts and advances implementations; executes reverts."""

    def __init__(self, plane: "ControlPlane") -> None:
        self.plane = plane

    # ------------------------------------------------------------------
    # Starting

    def begin(self, record: RecommendationRecord, now: float) -> None:
        plane = self.plane
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
            table = engine.database.table(recommendation.table)
            job = OnlineIndexBuildJob(table, definition, resumable=True)
            plane.build_jobs[record.rec_id] = (job, now)
            plane.store.update(record, now, index_name=definition.name)
        else:
            index_name = recommendation.existing_index_name
            if not engine.index_exists(recommendation.table, index_name):
                raise PermanentError(
                    f"index {index_name!r} was dropped external to the system"
                )
            protocol = LowPriorityDropProtocol(
                engine.locks,
                engine.database.table(recommendation.table),
                index_name,
            )
            plane.drop_protocols[record.rec_id] = protocol
            plane.store.update(record, now, index_name=index_name)
        plane.store.transition(
            record, RecommendationState.IMPLEMENTING, now, "implementation started"
        )
        if recommendation.action is Action.CREATE:
            job, _ = plane.build_jobs[record.rec_id]
            method = {"method": "online_resumable_build", "rows_total": job.rows_total}
        else:
            method = {"method": "low_priority_drop"}
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

    def drive(self, record: RecommendationRecord, now: float) -> None:
        if record.recommendation.action is Action.CREATE:
            self._advance_build(record, now)
        else:
            self._advance_drop(record, now)

    def _advance_build(self, record: RecommendationRecord, now: float) -> None:
        plane = self.plane
        entry = plane.build_jobs.get(record.rec_id)
        if entry is None:
            # Control plane restarted mid-build: restart the build.
            self.begin_rebuild(record, now)
            return
        job, last_advance = entry
        elapsed = max(0.0, now - last_advance)
        rows = int(elapsed * plane.settings.build_rows_per_minute) + 1
        progress = job.advance(rows, now=now)
        plane.build_jobs[record.rec_id] = (job, now)
        plane.engine.governor.index_build.charge_cpu(
            rows * OnlineIndexBuildJob.CPU_MS_PER_ROW, now
        )
        if progress.state is BuildState.COMPLETED:
            del plane.build_jobs[record.rec_id]
            plane.engine.missing_indexes.reset()  # schema change
            self._implemented(
                record,
                now,
                rows_built=progress.rows_total,
                build_cpu_ms=progress.cpu_ms_spent,
                log_bytes_generated=progress.log_bytes_generated,
            )

    def begin_rebuild(self, record: RecommendationRecord, now: float) -> None:
        """Re-create the build job after a control-plane crash."""
        plane = self.plane
        definition = record.recommendation.to_definition(record.index_name)
        if plane.engine.index_exists(record.recommendation.table, definition.name):
            self._implemented(record, now)
            return
        table = plane.engine.database.table(record.recommendation.table)
        job = OnlineIndexBuildJob(table, definition, resumable=True)
        plane.build_jobs[record.rec_id] = (job, now)

    def _advance_drop(self, record: RecommendationRecord, now: float) -> None:
        plane = self.plane
        protocol = plane.drop_protocols.get(record.rec_id)
        if protocol is None:
            raise TransientError("drop protocol lost; retrying")
        if protocol.attempt(now):
            del plane.drop_protocols[record.rec_id]
            plane.engine.usage_stats.drop_index(record.index_name)
            plane.engine.missing_indexes.reset()
            self._implemented(record, now, **_lock_evidence(protocol))
            return
        if protocol.exhausted():
            raise TransientError(
                f"low-priority drop of {record.index_name!r} kept timing out"
            )

    def _implemented(
        self, record: RecommendationRecord, now: float, **evidence
    ) -> None:
        plane = self.plane
        settings = plane.settings
        first_time = record.implemented_at is None
        plane.store.update(
            record,
            now,
            implemented_at=now,
            validate_after=now + settings.validation_settle,
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
            validation_window_opens=now + settings.validation_settle,
            **evidence,
        )
        plane.store.transition(
            record, RecommendationState.VALIDATING, now, "implemented"
        )
        plane.telemetry.count_event("implement_completed", plane.name)

    # ------------------------------------------------------------------
    # Reverting (Section 6)

    def drive_revert(self, record: RecommendationRecord, now: float) -> None:
        plane = self.plane
        plane.faults.check("revert")
        engine = plane.engine
        recommendation = record.recommendation
        evidence = {}
        if recommendation.action is Action.CREATE:
            # Revert a create: drop the index (low priority, Section 8.3).
            if engine.index_exists(recommendation.table, record.index_name):
                protocol = plane.drop_protocols.get(record.rec_id)
                if protocol is None:
                    protocol = LowPriorityDropProtocol(
                        engine.locks,
                        engine.database.table(recommendation.table),
                        record.index_name,
                    )
                    plane.drop_protocols[record.rec_id] = protocol
                if not protocol.attempt(now):
                    if protocol.exhausted():
                        raise TransientError("revert drop kept timing out")
                    return
                del plane.drop_protocols[record.rec_id]
                engine.usage_stats.drop_index(record.index_name)
                engine.missing_indexes.reset()
                evidence = {"method": "low_priority_drop", **_lock_evidence(protocol)}
        else:
            # Revert a drop: recreate the index.
            definition = record.recommendation.to_definition(record.index_name)
            if not engine.index_exists(recommendation.table, definition.name):
                table = engine.database.table(recommendation.table)
                job = OnlineIndexBuildJob(table, definition, resumable=True)
                job.advance(table.row_count + 1, now=now)
                engine.missing_indexes.reset()
                evidence = {"method": "recreate_index", "rows_built": job.rows_total}
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
