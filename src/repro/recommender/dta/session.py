"""The DTA session: lifecycle, budgets, and recommendation assembly.

A session runs the full pipeline — workload acquisition, per-query
candidate selection, MI augmentation, workload-level enumeration — under
the engine's tuning resource pool.  Exhausting the pool raises a
*transient* error so the control plane's retry machinery resumes the
session in a later window (the what-if cost cache preserves progress);
detected interference with user queries aborts the session outright
(Section 5.3.1).
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Callable, List, Optional

from repro.engine.engine import SqlEngine
from repro.recommender.dta.candidate_selection import (
    DtaCandidate,
    select_candidates,
)
from repro.recommender.dta.enumeration import (
    EnumerationConstraints,
    greedy_enumerate,
)
from repro.recommender.dta.reports import DtaReport, build_report
from repro.recommender.dta.whatif import WhatIfSession
from repro.recommender.impact import candidate_key_columns
from repro.recommender.recommendation import Action, IndexRecommendation
from repro.recommender.workload_selection import acquire_workload, window_for_tier
from repro.errors import SessionAbortedError

#: Minimum estimated improvement (%) for emitting a recommendation.
MIN_IMPROVEMENT_PCT = 5.0


class DtaSessionState(enum.Enum):
    """Lifecycle of a DTA tuning session (Section 5.3.3)."""

    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"
    ABORTED = "aborted"


@dataclasses.dataclass
class DtaSettings:
    """Session configuration."""

    tier: str = "standard"
    window_hours: Optional[float] = None
    max_indexes: int = 5
    #: Sampled-statistics budget (None = unlimited; the paper cut DTA's
    #: statistics builds 2-3x without quality loss).
    stats_column_budget: Optional[int] = 24
    sample_fraction: float = 0.05
    use_merging: bool = True


class DtaSession:
    """One tuning session over one database."""

    def __init__(
        self,
        engine: SqlEngine,
        settings: Optional[DtaSettings] = None,
        interference_check: Optional[Callable[[], bool]] = None,
    ) -> None:
        self.engine = engine
        self.settings = settings or DtaSettings()
        self.state = DtaSessionState.PENDING
        self.interference_check = interference_check
        hours, k = window_for_tier(self.settings.tier)
        self.window_hours = self.settings.window_hours or hours
        self.top_k = k
        self.whatif = WhatIfSession(
            engine,
            sample_fraction=self.settings.sample_fraction,
            stats_column_budget=self.settings.stats_column_budget,
        )
        self.report: Optional[DtaReport] = None
        self.error: Optional[str] = None

    # ------------------------------------------------------------------

    def _check_interference(self) -> None:
        if self.interference_check is not None and self.interference_check():
            self.state = DtaSessionState.ABORTED
            self._cleanup()
            raise SessionAbortedError(
                "DTA session aborted: slowing down user queries"
            )

    def _cleanup(self) -> None:
        """Remove session temp state (hypothetical indexes, caches)."""
        self.whatif.clear()

    # ------------------------------------------------------------------

    def run(self) -> List[IndexRecommendation]:
        """Execute the pipeline; returns create recommendations.

        Raises :class:`ResourceBudgetExceededError` (transient — control
        plane retries in a later window) or :class:`SessionAbortedError`.
        """
        self.state = DtaSessionState.RUNNING
        try:
            recommendations = self._run_pipeline()
        except Exception:
            if self.state is not DtaSessionState.ABORTED:
                self.state = DtaSessionState.FAILED
            raise
        self.state = DtaSessionState.COMPLETED
        return recommendations

    def _run_pipeline(self) -> List[IndexRecommendation]:
        engine = self.engine
        workload = acquire_workload(
            engine,
            now=engine.now,
            hours=self.window_hours,
            k=self.top_k,
        )
        self._check_interference()
        candidates = select_candidates(self.whatif, workload.statements)
        self._check_interference()
        candidates = self._augment_with_mi(candidates)
        result = greedy_enumerate(
            engine,
            self.whatif,
            workload.statements,
            candidates,
            constraints=EnumerationConstraints(
                max_indexes=self.settings.max_indexes
            ),
            use_merging=self.settings.use_merging,
        )
        self._check_interference()
        self.report = build_report(
            workload, result, result.chosen, self.whatif.stats
        )
        return self._assemble(result, workload)

    # ------------------------------------------------------------------

    def _augment_with_mi(
        self, candidates: List[DtaCandidate]
    ) -> List[DtaCandidate]:
        """Add MI DMV candidates DTA's own analysis missed (Section 5.3.2).

        Benefits for these come from the optimizer estimates recorded in
        the DMV, allowing statements what-if could not cost to still
        contribute candidates to the search.
        """
        from repro.recommender.dta.candidate_selection import _make_candidate

        known = {c.identity for c in candidates}
        for entry in self.engine.missing_indexes.entries():
            keys, includes = candidate_key_columns(entry.group)
            candidate = _make_candidate(entry.group.table, keys, includes, "mi")
            if candidate is None or candidate.identity in known:
                continue
            benefit = (
                entry.user_seeks
                * entry.avg_total_cost
                * entry.avg_user_impact
                / 100.0
            )
            candidate.per_query_benefit = [(0, benefit)]
            candidates.append(candidate)
            known.add(candidate.identity)
        return candidates

    def _assemble(self, result, workload) -> List[IndexRecommendation]:
        if result.improvement_pct < MIN_IMPROVEMENT_PCT:
            return []  # the whole configuration is not worth implementing
        recommendations = []
        base = max(result.base_cost, 1e-9)
        for candidate in result.chosen:
            per_index_benefit = sum(b for _q, b in candidate.per_query_benefit)
            improvement = min(99.0, 100.0 * per_index_benefit / base)
            table = self.engine.database.table(candidate.table)
            # Skip candidates an existing index already serves.
            if self._already_indexed(candidate, table):
                continue
            size = table.hypothetical_stats_view(candidate.definition).size_bytes
            recommendations.append(
                IndexRecommendation(
                    action=Action.CREATE,
                    table=candidate.table,
                    key_columns=candidate.key_columns,
                    included_columns=candidate.included_columns,
                    source="DTA",
                    estimated_improvement_pct=max(
                        improvement, result.improvement_pct / max(1, len(result.chosen))
                    ),
                    estimated_size_bytes=size,
                    impacted_queries=tuple(
                        dict.fromkeys(
                            qid for qid, _b in candidate.per_query_benefit if qid
                        )
                    ),
                    details=f"DTA {candidate.origin}; workload -{result.improvement_pct:.1f}%",
                    created_at=self.engine.now,
                )
            )
        return recommendations

    def _already_indexed(self, candidate: DtaCandidate, table) -> bool:
        wanted = set(candidate.key_columns) | set(candidate.included_columns)
        for definition in table.index_definitions():
            prefix = definition.key_columns[: len(candidate.key_columns)]
            if prefix != candidate.key_columns:
                continue
            available = set(definition.all_columns) | set(table.schema.primary_key)
            if wanted <= available:
                return True
        return False
