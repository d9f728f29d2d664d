"""Automatic workload identification (Sections 5.1.2 and 5.3.2).

The service cannot ask a DBA for a representative workload; instead it
selects the K most expensive statements (by CPU or duration) from Query
Store over the past N hours, sizing N and K to the database's resources,
and judges the result by *workload coverage* — the fraction of total
resources consumed by the selected statements.
"""

from __future__ import annotations

import dataclasses
from typing import List, Tuple

from repro.clock import HOURS
from repro.engine.engine import SqlEngine
from repro.engine.query import InsertQuery


@dataclasses.dataclass
class WorkloadStatement:
    """One tunable statement: the AST plus its observed weight."""

    query_id: int
    query: object
    total_cpu_ms: float
    executions: int
    kind: str


@dataclasses.dataclass
class TuningWorkload:
    """The workload W handed to DTA."""

    statements: List[WorkloadStatement]
    #: Fraction of total resources covered by the analyzed statements.
    coverage: float
    #: Query ids whose text could not be acquired/tuned (fragments not in
    #: the plan cache, unsupported statements).
    unsupported: Tuple[int, ...]
    window_hours: float
    candidate_count: int


def window_for_tier(tier: str) -> Tuple[float, int]:
    """(N hours, K statements) by service tier (Section 5.3.2: N and K are
    set from the resources available to the database)."""
    table = {
        "basic": (12.0, 8),
        "standard": (24.0, 15),
        "premium": (48.0, 30),
    }
    return table.get(tier, (24.0, 15))


def acquire_workload(
    engine: SqlEngine,
    now: float,
    hours: float = 24.0,
    k: int = 15,
    metric: str = "cpu_time_ms",
    rewrite_bulk: bool = True,
) -> TuningWorkload:
    """Select and acquire the top-K statements over the past N hours.

    Statement text acquisition follows the paper's fallback chain: complete
    Query Store text, else the plan cache; BULK INSERTs are rewritten into
    equivalent INSERTs so their maintenance cost is what-if optimizable.
    Statements that cannot be acquired count against coverage.
    """
    since = max(0.0, now - hours * HOURS)
    top = engine.query_store.top_queries(since, now, k=k, metric=metric)
    statements: List[WorkloadStatement] = []
    unsupported: List[int] = []
    covered_ids: List[int] = []
    for query_id, total in top:
        query = engine.statement_for_tuning(query_id)
        if query is None:
            unsupported.append(query_id)
            continue
        if isinstance(query, InsertQuery) and query.bulk:
            if not rewrite_bulk:
                unsupported.append(query_id)
                continue
            query = InsertQuery(table=query.table, rows=query.rows, bulk=False)
        merged = engine.query_store.aggregate(since, now, query_id=query_id)
        executions = sum(stats.executions for stats in merged.values())
        info = engine.query_store.query_info(query_id)
        statements.append(
            WorkloadStatement(
                query_id=query_id,
                query=query,
                total_cpu_ms=total,
                executions=max(1, executions),
                kind=info.kind if info else "SELECT",
            )
        )
        covered_ids.append(query_id)
    coverage = engine.workload_coverage(covered_ids, since, now, metric=metric)
    return TuningWorkload(
        statements=statements,
        coverage=coverage,
        unsupported=tuple(unsupported),
        window_hours=hours,
        candidate_count=len(top),
    )


def coverage_for_k(
    engine: SqlEngine,
    now: float,
    hours: float,
    ks: List[int],
    metric: str = "cpu_time_ms",
) -> List[Tuple[int, float]]:
    """Coverage achieved as K grows (the Section 5.1.2 trade-off curve)."""
    since = max(0.0, now - hours * HOURS)
    results = []
    for k in ks:
        top = engine.query_store.top_queries(since, now, k=k, metric=metric)
        ids = [query_id for query_id, _total in top]
        results.append((k, engine.workload_coverage(ids, since, now, metric=metric)))
    return results
