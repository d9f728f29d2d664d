"""Workload-level greedy enumeration (Section 5.3).

Given the pooled candidates from per-query selection, DTA picks the final
configuration by greedy search: repeatedly add the candidate that most
reduces the execution-weighted what-if cost of the whole workload —
including DML maintenance overheads, which the what-if DML costing
accounts for — subject to a maximum index count and a storage budget.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

from repro.engine.engine import SqlEngine
from repro.engine.schema import IndexDefinition
from repro.recommender.dta.candidate_selection import DtaCandidate
from repro.recommender.dta.whatif import WhatIfSession
from repro.recommender.merging import MergeCandidate, merge_candidates
from repro.recommender.workload_selection import WorkloadStatement

#: Stop when the best marginal improvement falls below this fraction of
#: the current workload cost.
MIN_MARGINAL_IMPROVEMENT = 0.01
#: Storage budget of a configuration in bytes (Section 5.1.1); None, as
#: the service runs DTA, is unbounded.
STORAGE_BUDGET_BYTES: Optional[int] = None


@dataclasses.dataclass
class EnumerationResult:
    """Outcome of the greedy search."""

    chosen: List[DtaCandidate]
    base_cost: float
    final_cost: float
    iterations: int

    @property
    def improvement_pct(self) -> float:
        if self.base_cost <= 0:
            return 0.0
        return 100.0 * (self.base_cost - self.final_cost) / self.base_cost


@dataclasses.dataclass
class EnumerationConstraints:
    """The tuning constraint a caller sets (Section 5.1.1)."""

    max_indexes: int = 5


def _apply_merging(candidates: List[DtaCandidate]) -> List[DtaCandidate]:
    """Merge prefix-compatible candidates before enumeration."""
    as_merge = [
        MergeCandidate(
            table=c.table,
            key_columns=c.key_columns,
            included_columns=c.included_columns,
            benefit=c.total_benefit,
            impacted_queries=tuple(qid for qid, _b in c.per_query_benefit),
            source="DTA",
        )
        for c in candidates
    ]
    merged = merge_candidates(as_merge)
    out: List[DtaCandidate] = []
    by_identity = {
        (c.table, c.key_columns, c.included_columns): c for c in candidates
    }
    from repro.recommender.dta.candidate_selection import _make_candidate

    for m in merged:
        identity = (m.table, m.key_columns, m.included_columns)
        original = by_identity.get(identity)
        if original is not None:
            out.append(original)
            continue
        rebuilt = _make_candidate(m.table, m.key_columns, m.included_columns, "merged")
        if rebuilt is None:
            continue
        rebuilt.per_query_benefit = [(qid, 0.0) for qid in m.impacted_queries]
        out.append(rebuilt)
    return out


def _candidate_size(engine: SqlEngine, candidate: DtaCandidate) -> int:
    table = engine.database.table(candidate.table)
    return table.hypothetical_stats_view(candidate.definition).size_bytes


def greedy_enumerate(
    engine: SqlEngine,
    whatif: WhatIfSession,
    statements: Sequence[WorkloadStatement],
    candidates: List[DtaCandidate],
    constraints: Optional[EnumerationConstraints] = None,
    use_merging: bool = True,
) -> EnumerationResult:
    """Greedy configuration search over the candidate pool."""
    constraints = constraints or EnumerationConstraints()
    if use_merging:
        candidates = _apply_merging(candidates)
    base_cost = whatif.workload_cost(statements, ())
    chosen: List[DtaCandidate] = []
    chosen_defs: List[IndexDefinition] = []
    remaining = list(candidates)
    current_cost = base_cost
    storage_used = 0
    iterations = 0
    while remaining and len(chosen) < constraints.max_indexes:
        iterations += 1
        # Frontier batching: the round's eligible candidates form one
        # configuration frontier priced per statement in a single batch
        # (shared plan substrate), instead of one workload sweep each.
        eligible = [
            candidate for candidate in remaining
            if STORAGE_BUDGET_BYTES is None
            or storage_used + _candidate_size(engine, candidate)
            <= STORAGE_BUDGET_BYTES
        ]
        costs = whatif.workload_cost_many(
            statements,
            chosen_defs,
            [(candidate.definition,) for candidate in eligible],
        )
        best: Tuple[Optional[DtaCandidate], float] = (None, current_cost)
        for candidate, cost in zip(eligible, costs):
            if cost < best[1]:
                best = (candidate, cost)
        candidate, cost = best
        if candidate is None:
            break
        improvement = current_cost - cost
        if improvement < MIN_MARGINAL_IMPROVEMENT * max(current_cost, 1e-9):
            break
        chosen.append(candidate)
        chosen_defs.append(candidate.definition)
        if STORAGE_BUDGET_BYTES is not None:
            storage_used += _candidate_size(engine, candidate)
        current_cost = cost
        remaining = [c for c in remaining if c.identity != candidate.identity]
    return EnumerationResult(
        chosen=chosen,
        base_cost=base_cost,
        final_cost=current_cost,
        iterations=iterations,
    )
