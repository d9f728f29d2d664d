"""Operational reporting: the Section 8.1 statistics.

Summarizes a closed-loop service run the way the paper reports its
operational snapshot: recommendation volumes by action, implemented /
validated / reverted counts, revert rate, the split of revert causes,
queries whose CPU or reads improved by more than 2x, and databases whose
aggregate CPU consumption dropped by more than half.

The counts are read from the region service's merged
:class:`~repro.observability.MetricsRegistry` — the same counters the
``repro telemetry`` dashboard renders — so the end-of-run snapshot and
the live telemetry can never disagree.  (Terminal-state transition
counters equal record counts because terminal states have no exits.)
Only the query-improvement statistics still aggregate Query Store data
directly, since they compare per-query windows no counter carries; they
read the engines in process, so the service must run on the serial
backend.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

from repro.clock import HOURS
from repro.parallel.service import ShardedFleetService


@dataclasses.dataclass
class OperationalReport:
    """Aggregate statistics of a service run."""

    create_recommendations: int
    drop_recommendations: int
    implemented: int
    validated_success: int
    reverted: int
    errors: int
    expired: int
    revert_rate: float
    #: Revert causes: recommendations whose validation saw write-statement
    #: regressions vs read(SELECT)-statement regressions.
    reverts_with_write_regression: int
    reverts_with_select_regression: int
    queries_improved_2x: int
    databases_improved_50pct: int
    databases_observed: int
    incidents: int

    def lines(self) -> List[str]:
        """Render like the paper's Section 8.1 snapshot."""
        return [
            f"create recommendations generated: {self.create_recommendations}",
            f"drop recommendations generated:   {self.drop_recommendations}",
            f"actions implemented:              {self.implemented}",
            f"validated successful:             {self.validated_success}",
            f"reverted by validation:           {self.reverted} "
            f"({self.revert_rate:.1%} of automated actions)",
            f"  … with write regressions:      {self.reverts_with_write_regression}",
            f"  … with SELECT regressions:     {self.reverts_with_select_regression}",
            f"errors / expired:                 {self.errors} / {self.expired}",
            f"queries improved >2x (CPU):       {self.queries_improved_2x}",
            f"databases with >50% CPU reduction: "
            f"{self.databases_improved_50pct} of {self.databases_observed}",
            f"incidents:                        {self.incidents}",
        ]


def _query_improvements(
    service: ShardedFleetService, window_hours: float
) -> Tuple[int, int, int]:
    """(queries improved >2x, dbs improved >50%, dbs observed).

    Compares per-query mean CPU between the first and last observation
    windows of each database, restricted to queries present in both.
    """
    improved_queries = 0
    improved_dbs = 0
    observed_dbs = 0
    for profile in service.fleet:
        engine = profile.engine
        now = engine.now
        if now <= 2 * window_hours * HOURS:
            continue
        early = engine.query_store.aggregate(0.0, window_hours * HOURS)
        late = engine.query_store.aggregate(now - window_hours * HOURS, now)

        def per_query_mean(window):
            means: Dict[int, Tuple[float, int]] = {}
            for (query_id, _plan), stats in window.items():
                cpu = stats.metrics["cpu_time_ms"]
                total, count = means.get(query_id, (0.0, 0))
                means[query_id] = (total + cpu.total, count + stats.executions)
            return {
                qid: total / count
                for qid, (total, count) in means.items()
                if count > 0
            }

        early_means = per_query_mean(early)
        late_means = per_query_mean(late)
        common = set(early_means) & set(late_means)
        if not common:
            continue
        observed_dbs += 1
        early_total = 0.0
        late_total = 0.0
        for query_id in common:
            before, after = early_means[query_id], late_means[query_id]
            early_total += before
            late_total += after
            if after > 0 and before / after >= 2.0:
                improved_queries += 1
        if early_total > 0 and late_total <= early_total * 0.5:
            improved_dbs += 1
    return improved_queries, improved_dbs, observed_dbs


def operational_report(
    service: ShardedFleetService, window_hours: float = 24.0
) -> OperationalReport:
    """Build the Section 8.1-style operational report for a service run."""
    registry = service.telemetry.registry
    creates = int(registry.total("recommendations_created_total", action="create"))
    drops = int(registry.total("recommendations_created_total", action="drop"))
    implemented = int(registry.total("implementations_completed_total"))
    success = int(registry.total("state_transitions_total", to_state="success"))
    reverted = int(registry.total("state_transitions_total", to_state="reverted"))
    errors = int(registry.total("state_transitions_total", to_state="error"))
    expired = int(registry.total("state_transitions_total", to_state="expired"))
    decided = success + reverted
    write_reverts = int(
        registry.total("validation_reverts_total", regression="write")
    )
    select_reverts = int(
        registry.total("validation_reverts_total", regression="select")
    )
    improved_queries, improved_dbs, observed_dbs = _query_improvements(
        service, window_hours
    )
    return OperationalReport(
        create_recommendations=creates,
        drop_recommendations=drops,
        implemented=implemented,
        validated_success=success,
        reverted=reverted,
        errors=errors,
        expired=expired,
        revert_rate=reverted / decided if decided else 0.0,
        reverts_with_write_regression=write_reverts,
        reverts_with_select_regression=select_reverts,
        queries_improved_2x=improved_queries,
        databases_improved_50pct=improved_dbs,
        databases_observed=observed_dbs,
        incidents=int(registry.total("incidents_total")),
    )
