"""Per-query candidate selection (Section 5.3, the DTA search's first phase).

For each statement in W, DTA proposes candidate indexes derived from
sargable predicates, join columns, group-by and order-by clauses — the
analysis MI cannot do — and keeps the candidates that actually lower the
statement's what-if cost.  Candidates from MI augment the pool for
statements the what-if API cannot cost (Section 5.3.2).
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import List, Optional, Sequence, Tuple

from repro.engine.query import (
    DeleteQuery,
    SelectQuery,
    UpdateQuery,
    equality_predicates,
    range_predicates,
)
from repro.engine.schema import IndexDefinition
from repro.recommender.dta.whatif import WhatIfSession
from repro.recommender.workload_selection import WorkloadStatement

#: Minimum per-query benefit fraction in candidate selection.
MIN_BENEFIT_FRACTION = 0.05

_candidate_counter = itertools.count(1)


@dataclasses.dataclass
class DtaCandidate:
    """A candidate index with per-query benefit bookkeeping."""

    table: str
    key_columns: Tuple[str, ...]
    included_columns: Tuple[str, ...]
    definition: IndexDefinition
    #: (query_id, benefit) pairs from candidate selection.
    per_query_benefit: List[Tuple[int, float]] = dataclasses.field(
        default_factory=list
    )
    #: "sargable", "join", "groupby", "orderby", "mi".
    origin: str = "sargable"

    @property
    def identity(self) -> tuple:
        return (self.table, self.key_columns, self.included_columns)

    @property
    def total_benefit(self) -> float:
        return sum(benefit for _qid, benefit in self.per_query_benefit)


def _make_candidate(
    table: str,
    keys: Sequence[str],
    includes: Sequence[str],
    origin: str,
) -> Optional[DtaCandidate]:
    keys = tuple(dict.fromkeys(keys))
    includes = tuple(dict.fromkeys(c for c in includes if c not in keys))
    if not keys:
        return None
    name = f"_dta_hyp_{next(_candidate_counter)}"
    definition = IndexDefinition(
        name=name,
        table=table,
        key_columns=keys,
        included_columns=includes,
        hypothetical=True,
    )
    return DtaCandidate(
        table=table,
        key_columns=keys,
        included_columns=includes,
        definition=definition,
        origin=origin,
    )


def candidates_for_query(query) -> List[DtaCandidate]:
    """Structural candidates for one statement (no optimizer calls yet)."""
    if isinstance(query, (UpdateQuery, DeleteQuery)):
        if not query.predicates:
            return []
        eq = [p.column for p in equality_predicates(query.predicates)]
        rng = [p.column for p in range_predicates(query.predicates)]
        candidate = _make_candidate(query.table, eq + rng[:1], rng[1:], "sargable")
        return [candidate] if candidate else []
    if not isinstance(query, SelectQuery):
        return []
    out: List[DtaCandidate] = []
    referenced = query.referenced_columns()
    eq = [p.column for p in equality_predicates(query.predicates)]
    rng = [p.column for p in range_predicates(query.predicates)]
    # Sargable key, covering and non-covering variants.
    if eq or rng:
        keys = eq + rng[:1]
        residue = [c for c in referenced if c not in keys] + rng[1:]
        out.append(_make_candidate(query.table, keys, residue, "sargable"))
        out.append(_make_candidate(query.table, keys, (), "sargable"))
    # Order-by: equality prefix + order columns as trailing keys.
    ascending_order = [i.column for i in query.order_by if i.ascending]
    if ascending_order:
        keys = eq + [c for c in ascending_order if c not in eq]
        includes = [c for c in referenced if c not in keys]
        out.append(_make_candidate(query.table, keys, includes, "orderby"))
    # Group-by: group columns as keys, aggregated columns included.
    if query.group_by:
        keys = list(query.group_by)
        agg_columns = [a.column for a in query.aggregates if a.column]
        range_cols = [p.column for p in query.predicates if p.is_range]
        out.append(
            _make_candidate(
                query.table, keys, agg_columns + range_cols, "groupby"
            )
        )
    # Join: an index on the inner table's join column (enables NLJ seeks).
    if query.join is not None:
        join = query.join
        join_includes = list(join.select_columns)
        join_keys = [join.right_column] + [
            p.column for p in join.predicates if p.is_equality
        ]
        out.append(_make_candidate(join.table, join_keys, join_includes, "join"))
        pred_keys = [p.column for p in join.predicates if p.is_equality]
        if pred_keys:
            out.append(
                _make_candidate(
                    join.table,
                    pred_keys,
                    [join.right_column] + join_includes,
                    "join",
                )
            )
    return [c for c in out if c is not None]


def select_candidates(
    whatif: WhatIfSession,
    statements: Sequence[WorkloadStatement],
) -> List[DtaCandidate]:
    """Evaluate structural candidates per query; keep the beneficial ones.

    For every statement the base configuration and each candidate alone
    are costed with the what-if API; a candidate survives if it reduces
    the statement's cost by more than :data:`MIN_BENEFIT_FRACTION`.
    Surviving candidates are pooled and deduplicated, accumulating
    per-query benefits.
    """
    pool: dict = {}
    for statement in statements:
        candidates = candidates_for_query(statement.query)
        costs = _statement_costs(whatif, statement.query, candidates)
        base_cost = costs[0]
        if base_cost is None:
            continue
        for candidate, cost in zip(candidates, costs[1:]):
            if cost is None:
                continue
            benefit = (base_cost - cost) * statement.executions
            if benefit <= base_cost * statement.executions * MIN_BENEFIT_FRACTION:
                continue
            existing = pool.get(candidate.identity)
            if existing is None:
                pool[candidate.identity] = candidate
                existing = candidate
            existing.per_query_benefit.append((statement.query_id, benefit))
    return list(pool.values())


def _statement_costs(
    whatif: WhatIfSession, query, candidates: Sequence[DtaCandidate]
) -> List[Optional[float]]:
    """The statement's base cost, then its cost under each candidate.

    Each candidate is costed after the sampled statistics on its key
    columns are built.  A build moves its table's statistics version, so
    the costings between two builds form one frontier; when no candidate
    needs a build, the base and every candidate are one.  (A statement
    whose base cannot be costed has no candidates: only SELECT, UPDATE
    and DELETE get any, and what-if plans each of them.)
    """
    costs: List[Optional[float]] = []
    tails: list = [()]
    for candidate in candidates:
        if whatif.needs_statistics(candidate.table, candidate.key_columns):
            costs += whatif.cost_many(query, (), tails)
            tails = []
            whatif.ensure_statistics(candidate.table, candidate.key_columns)
        tails.append((candidate.definition,))
    return costs + whatif.cost_many(query, (), tails)
