"""The user-facing management surface (Section 2).

Azure exposes the auto-indexing controls through the portal, a REST API,
and T-SQL; this module is that surface for the simulator: a
:class:`ManagementApi` over a running region service
(:func:`repro.service.build_service`) offering exactly the views the
paper's Figures 1-3 show —

- **settings** per logical server and per database, with databases
  inheriting the server default until they override it (Figure 1);
- the **current recommendations** list with estimated impact, size, and
  the statements each index will affect (Figure 2/3);
- the **history of actions** with their states and the actual before/after
  execution costs recorded by validation (the transparency requirement of
  Section 8.2);
- a **script-out** helper so users can copy a recommendation and apply it
  through their own schema-management tooling (in which case they own the
  validation, as the paper notes).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro.controlplane import AutoIndexingConfig, RecommendationState
from repro.controlplane.store import RecommendationRecord
from repro.parallel.service import ShardedFleetService
from repro.recommender.recommendation import Action


@dataclasses.dataclass
class RecommendationView:
    """One row of the portal's recommendations blade (Figure 2)."""

    rec_id: int
    action: str
    table: str
    index_columns: str
    included_columns: str
    estimated_impact_pct: float
    estimated_size_bytes: int
    impacted_statements: int
    state: str
    source: str

    def render(self) -> str:
        columns = self.index_columns
        if self.included_columns:
            columns += f" INCLUDE({self.included_columns})"
        return (
            f"#{self.rec_id} {self.action.upper()} {self.table}({columns}) "
            f"impact≈{self.estimated_impact_pct:.0f}% "
            f"size≈{self.estimated_size_bytes // 1024} KiB "
            f"[{self.state}]"
        )


@dataclasses.dataclass
class HistoryView:
    """One row of the action-history blade."""

    rec_id: int
    description: str
    state: str
    validation_summary: str
    aggregate_change: Optional[float]
    timeline: List[str]


class ManagementApi:
    """Portal/REST-style access to one region's service.

    Views read the region's merged store; settings and user-initiated
    applies reach each database's plane in process, so the service must
    run on the serial backend.
    """

    def __init__(self, service: ShardedFleetService) -> None:
        self.service = service
        #: Logical-server default settings; databases inherit these until
        #: they set an explicit override (Figure 1's "inherited" markers).
        self._server_defaults: Dict[str, AutoIndexingConfig] = {}
        self._server_of: Dict[str, str] = {}
        self._overrides: Dict[str, AutoIndexingConfig] = {}

    # ------------------------------------------------------------------
    # Logical servers and setting inheritance (Section 2)

    def register_server(
        self, server: str, default: Optional[AutoIndexingConfig] = None
    ) -> None:
        self._server_defaults[server] = default or AutoIndexingConfig()

    def assign_database(self, database: str, server: str) -> None:
        if server not in self._server_defaults:
            raise KeyError(f"unknown logical server {server!r}")
        if database not in self.service.database_names:
            raise KeyError(f"unknown database {database!r}")
        self._server_of[database] = server
        self._apply_effective(database)

    def set_server_default(self, server: str, config: AutoIndexingConfig) -> None:
        """Change a server default; inherited databases follow."""
        self._server_defaults[server] = config
        for database, assigned in self._server_of.items():
            if assigned == server and database not in self._overrides:
                self._apply_effective(database)

    def set_database_config(self, database: str, config: AutoIndexingConfig) -> None:
        """Explicit per-database override (stops inheriting)."""
        config = dataclasses.replace(config, inherited=False)
        self._overrides[database] = config
        self._apply_effective(database)

    def clear_database_override(self, database: str) -> None:
        self._overrides.pop(database, None)
        self._apply_effective(database)

    def effective_config(self, database: str) -> AutoIndexingConfig:
        override = self._overrides.get(database)
        if override is not None:
            return override
        server = self._server_of.get(database)
        if server is not None:
            default = self._server_defaults[server]
            return dataclasses.replace(default, inherited=True)
        return self.service.database_plane(database).config

    def _apply_effective(self, database: str) -> None:
        self.service.set_config(database, self.effective_config(database))

    def settings_view(self, database: str) -> Dict[str, str]:
        """The Figure 1 row: option, desired state, current state."""
        config = self.effective_config(database)
        suffix = " (inherited)" if config.inherited else ""
        return {
            "CREATE INDEX": config.create_mode.value + suffix,
            "DROP INDEX": config.drop_mode.value + suffix,
        }

    # ------------------------------------------------------------------
    # Recommendation views (Figures 2-3)

    def current_recommendations(self, database: str) -> List[RecommendationView]:
        records = self.service.store.records_for(
            database=database, state=RecommendationState.ACTIVE
        )
        return [self._view(record) for record in records]

    def recommendation_details(self, rec_id: int) -> Dict[str, object]:
        """The Figure 3 detail blade, including impacted statements."""
        record = self._record(rec_id)
        recommendation = record.recommendation
        plane = self.service.database_plane(record.database)
        query_store = plane.engine.query_store
        statements = []
        for query_id in recommendation.impacted_queries:
            info = query_store.query_info(query_id)
            if info is not None:
                statements.append(info.template_text)
        return {
            "rec_id": record.rec_id,
            "database": record.database,
            "action": recommendation.action.value,
            "index": recommendation.describe(),
            "estimated_impact_pct": recommendation.estimated_improvement_pct,
            "estimated_size_bytes": recommendation.estimated_size_bytes,
            "impacted_statements": statements,
            "state": record.state.value,
            "source": recommendation.source,
        }

    def script_out(self, rec_id: int) -> str:
        """T-SQL the user can run through their own tooling.

        Applying it manually means the system will not validate the change
        (Section 2) — the index will not carry the service's naming scheme.
        """
        record = self._record(rec_id)
        recommendation = record.recommendation
        if recommendation.action is Action.DROP:
            return (
                f"DROP INDEX [{recommendation.existing_index_name}] "
                f"ON [{recommendation.table}];"
            )
        keys = ", ".join(f"[{c}]" for c in recommendation.key_columns)
        text = (
            f"CREATE NONCLUSTERED INDEX [ix_manual_{record.rec_id}] "
            f"ON [{recommendation.table}] ({keys})"
        )
        if recommendation.included_columns:
            includes = ", ".join(
                f"[{c}]" for c in recommendation.included_columns
            )
            text += f" INCLUDE ({includes})"
        return text + ";"

    def apply_recommendation(self, rec_id: int) -> None:
        """User-initiated apply; the system implements and validates it."""
        self.service.request_implementation(rec_id)

    # ------------------------------------------------------------------
    # History (transparency, Section 8.2)

    def history(self, database: str) -> List[HistoryView]:
        views = []
        for record in self.service.store.records_for(database=database):
            views.append(
                HistoryView(
                    rec_id=record.rec_id,
                    description=record.recommendation.describe(),
                    state=record.state.value,
                    validation_summary=record.validation_summary,
                    aggregate_change=record.aggregate_change,
                    timeline=[
                        f"{at / 60.0:8.1f}h {state.value}"
                        + (f" ({note})" if note else "")
                        for at, state, note in record.state_history
                    ],
                )
            )
        return views

    # ------------------------------------------------------------------

    def _record(self, rec_id: int) -> RecommendationRecord:
        record = self.service.store.get(rec_id)
        if record is None:
            raise KeyError(f"unknown recommendation {rec_id}")
        return record

    def _view(self, record: RecommendationRecord) -> RecommendationView:
        recommendation = record.recommendation
        return RecommendationView(
            rec_id=record.rec_id,
            action=recommendation.action.value,
            table=recommendation.table,
            index_columns=", ".join(recommendation.key_columns),
            included_columns=", ".join(recommendation.included_columns),
            estimated_impact_pct=recommendation.estimated_improvement_pct,
            estimated_size_bytes=recommendation.estimated_size_bytes,
            impacted_statements=len(recommendation.impacted_queries),
            state=record.state.value,
            source=recommendation.source,
        )
