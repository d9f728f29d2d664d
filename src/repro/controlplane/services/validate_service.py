"""Micro-service (c): validate implemented recommendations (Section 6)."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.controlplane.states import RecommendationState
from repro.controlplane.store import RecommendationRecord
from repro.recommender.recommendation import Action
from repro.validation.validator import Verdict

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.controlplane.control_plane import ControlPlane


class ValidationService:
    """Waits out the observation window, judges, and triggers reverts
    (the plane is an argument)."""

    def drive(
        self, plane: "ControlPlane", record: RecommendationRecord, now: float
    ) -> None:
        settings = plane.settings
        window_end = record.validate_after + settings.validation_window
        if now < window_end:
            return  # still observing
        plane.faults.check("validate")
        before = (
            max(0.0, record.implemented_at - settings.validation_window),
            record.implemented_at,
        )
        after = (record.validate_after, window_end)
        action = (
            "create" if record.recommendation.action is Action.CREATE else "drop"
        )
        outcome = plane.validator.validate(
            record.index_name, action, before, after
        )
        example = self._classifier_example(plane, record, outcome)
        if outcome.should_revert:
            registry = plane.telemetry.registry
            kinds = set(example["regressed_kinds"])
            if kinds & {"INSERT", "UPDATE", "DELETE"}:
                registry.counter(
                    "validation_reverts_total",
                    database=plane.name,
                    regression="write",
                ).inc()
            if "SELECT" in kinds:
                registry.counter(
                    "validation_reverts_total",
                    database=plane.name,
                    regression="select",
                ).inc()
        plane.store.update(
            record,
            now,
            validation_summary=(
                f"{outcome.verdict.value}: {outcome.improved_count} improved, "
                f"{outcome.regressed_count} regressed "
                f"({outcome.aggregate_change:+.1%} aggregate)"
            ),
            aggregate_change=outcome.aggregate_change,
            validation_example=example,
        )
        audit = plane.telemetry.audit
        audit.emit(
            now,
            "validation_completed",
            plane.name,
            rec_id=record.rec_id,
            window_before_minutes=before[1] - before[0],
            window_after_minutes=window_end - record.validate_after,
            **outcome.to_payload(),
        )
        if outcome.should_revert:
            audit.emit(
                now,
                "revert_decided",
                plane.name,
                rec_id=record.rec_id,
                predicate=outcome.details or "regression detected",
                verdict=outcome.verdict.value,
                aggregate_change=outcome.aggregate_change,
                trigger_query_ids=[
                    statement.query_id
                    for statement in outcome.statements
                    if statement.verdict is Verdict.REGRESSED
                ],
            )
            plane.store.transition(
                record,
                RecommendationState.REVERTING,
                now,
                outcome.details or "regression detected",
            )
            plane.telemetry.count_event("validation_regression", plane.name)
            # Revert promptly rather than waiting a full process pass.
            plane.implement_service.drive_revert(plane, record, now)
            return
        plane.store.transition(
            record, RecommendationState.SUCCESS, now, "validated"
        )
        plane.telemetry.count_event("validation_success", plane.name)

    def _classifier_example(
        self, plane: "ControlPlane", record: RecommendationRecord, outcome
    ) -> dict:
        """The labeled example this outcome gives the low-impact classifier.

        It rides the journal as a record field, so the training data is
        what ``StateStore.validation_history`` reads back — after a
        crash and across the shard boundary alike.
        """
        recommendation = record.recommendation
        table = plane.engine.database.tables.get(recommendation.table)
        usage = plane.engine.usage_stats.get(record.index_name or "")
        regressed_kinds = []
        for statement in outcome.statements:
            if statement.verdict is Verdict.REGRESSED:
                info = plane.engine.query_store.query_info(statement.query_id)
                regressed_kinds.append(info.kind if info else "?")
        return {
            "database": plane.name,
            "action": recommendation.action.value,
            "source": recommendation.source,
            "estimated_impact_pct": recommendation.estimated_improvement_pct,
            "table_rows": table.row_count if table else 0,
            "index_size_bytes": recommendation.estimated_size_bytes,
            "observed_seeks": usage.user_seeks if usage else 0,
            "beneficial": outcome.verdict is Verdict.IMPROVED
            and not outcome.should_revert,
            "reverted": outcome.should_revert,
            "aggregate_change": outcome.aggregate_change,
            "regressed_kinds": regressed_kinds,
        }
