"""DTA session reports (Section 5.3.2, last paragraph).

After a session completes, DTA emits a report of which statements it
analyzed, which indexes impact which statements, and the workload
coverage — used both to expose recommendation details in the UI and to
measure the effectiveness of the tuning session.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

from repro.recommender.dta.candidate_selection import DtaCandidate
from repro.recommender.dta.enumeration import EnumerationResult
from repro.recommender.dta.whatif import WhatIfStats
from repro.recommender.workload_selection import TuningWorkload


@dataclasses.dataclass
class StatementReport:
    """Per-statement outcome of the session."""

    query_id: int
    kind: str
    total_cpu_ms: float
    analyzed: bool
    impacted_by: Tuple[str, ...] = ()


@dataclasses.dataclass
class DtaReport:
    """The session's detailed report."""

    statements: List[StatementReport]
    coverage: float
    estimated_improvement_pct: float
    whatif: WhatIfStats
    iterations: int
    unsupported_query_ids: Tuple[int, ...]


def build_report(
    workload: TuningWorkload,
    result: EnumerationResult,
    chosen: List[DtaCandidate],
    whatif_stats: WhatIfStats,
) -> DtaReport:
    """Assemble the session report from the pipeline's artifacts."""
    impacted_by: Dict[int, List[str]] = {}
    for candidate in chosen:
        label = f"{candidate.table}({', '.join(candidate.key_columns)})"
        for query_id, _benefit in candidate.per_query_benefit:
            impacted_by.setdefault(query_id, []).append(label)
    statements = [
        StatementReport(
            query_id=s.query_id,
            kind=s.kind,
            total_cpu_ms=s.total_cpu_ms,
            analyzed=True,
            impacted_by=tuple(impacted_by.get(s.query_id, ())),
        )
        for s in workload.statements
    ]
    statements.extend(
        StatementReport(query_id=qid, kind="?", total_cpu_ms=0.0, analyzed=False)
        for qid in workload.unsupported
    )
    return DtaReport(
        statements=statements,
        coverage=workload.coverage,
        estimated_improvement_pct=result.improvement_pct,
        whatif=whatif_stats,
        iterations=result.iterations,
        unsupported_query_ids=workload.unsupported,
    )
