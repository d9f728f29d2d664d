"""The executor facade: picks the interpreted or vectorized path.

Whether a SELECT is vectorized is one static decision,
:func:`repro.engine.exec.vector.refusal`, taken before any meter is
charged: a plan whose every node has a batch operator and whose values
and columns those operators reproduce exactly, over a driving table of
at least ``vector_min_rows`` rows (enough to amortize the projection
build).  Every plan shape the optimizer emits has one, clustered seeks
and nested-loop joins over a clustered-seek inner included; only
TOP-over-lazy-source and malformed plans interpret.  DML targets follow
the SELECT decision: an UPDATE/DELETE whose child is a clustered scan or
seek or a key lookup that decision accepts reads its target rows
through :func:`vector.target_rows`; any other child is interpreted.
Maintenance has one path (grouped index maintenance in
:class:`~repro.engine.table.Table`), and every DML statement is counted
with the vectorized ones.  Whatever the path, metering is
byte-identical — see :mod:`repro.engine.exec.metering`.

A vectorized SELECT's rows are gathered when it executes and built as
dicts only when first read
(:class:`~repro.engine.exec.columns.GatheredRows`); ``len()`` builds
nothing, and the row count is all the metrics take.

Every statement that lands on the interpreter is attributed to exactly
one reason in :data:`FALLBACK_REASONS`, published as the
``executor_fallback_<reason>_total`` gauges, so fast-path coverage is
observable per fleet:

- ``threshold`` — too few rows to amortize batching;
- ``shape`` — a plan outside the batch grammar: a malformed plan (an
  unknown table or index, a column outside its source's layout) or one
  no workload produces (TOP over a lazy source, a nested-loop join whose
  inner is not a clustered seek);
- ``literal`` — a NULL or parameter seek or residual value, which no
  array comparison reproduces.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.cost_model import ExecutionCostSettings
from repro.engine.exec import vector
from repro.engine.exec.interp import InterpExecutor, RowDict
from repro.engine.exec.metering import ExecutionMetrics, Meterings
from repro.engine.plans import (
    ClusteredScanNode,
    ClusteredSeekNode,
    DeletePlanNode,
    InsertPlanNode,
    KeyLookupNode,
    PlanNode,
    UpdatePlanNode,
)
from repro.engine.query import SelectQuery
from repro.engine.table import Table

#: Why a statement ran on the interpreter (see module docstring).  Every
#: interpreted statement increments exactly one reason counter, so the
#: sum over reasons equals ``interp_statements``.
FALLBACK_REASONS = ("threshold", "shape", "literal")

#: Gauge name per fallback reason (``executor_fallback_<reason>_total``).
#: Built here, next to the taxonomy, so the observability lint can
#: cross-check the metrics CATALOG against :data:`FALLBACK_REASONS`.
FALLBACK_GAUGES = {
    reason: f"executor_fallback_{reason}_total"
    for reason in FALLBACK_REASONS
}

#: Constants converting metered work into *actual* CPU milliseconds.
CPU_MS_PER_ROW = 0.0020
CPU_MS_PER_PAGE = 0.045
CPU_MS_PER_SORT_ROW = 0.0016
CPU_MS_PER_HASH_ROW = 0.0030
CPU_MS_PER_MAINTAINED_ENTRY = 0.0080
#: Mean IO wait per logical read converted into duration (ms).
IO_WAIT_MS_PER_PAGE = 0.010
#: Log-normal sigma of every server's run-to-run noise (concurrency) on
#: CPU time; duration draws 2.5 times it, and 0 draws nothing.
NOISE_SIGMA = 0.10

_DML_NODES = (InsertPlanNode, UpdatePlanNode, DeletePlanNode)
#: UPDATE/DELETE children whose target rows come off the batch operators.
_TARGET_NODES = (ClusteredScanNode, ClusteredSeekNode, KeyLookupNode)


class Executor:
    """Executes plans against tables, producing rows and actual metrics."""

    def __init__(
        self,
        tables: Dict[str, Table],
        settings: Optional[ExecutionCostSettings] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self._tables = tables
        self._settings = settings or ExecutionCostSettings()
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._interp = InterpExecutor(tables)
        #: Monotone dispatch counters, published as ``executor_*`` gauges.
        self.vector_statements = 0
        self.interp_statements = 0
        #: Rows that flowed through vectorized batch operators (scanned
        #: projection rows for SELECTs, affected rows for DML).
        self.batch_rows = 0
        #: Per-reason interpreter-fallback counts (monotone), published
        #: as ``executor_fallback_<reason>_total`` gauges.
        self.fallback_counts: Dict[str, int] = {
            reason: 0 for reason in FALLBACK_REASONS
        }

    # ------------------------------------------------------------------

    def execute(
        self, plan: PlanNode, query
    ) -> Tuple[Sequence[RowDict], ExecutionMetrics]:
        """Run the plan; return projected output rows and actual metrics."""
        meters = Meterings()
        meters.needed = self._needed_columns(query)
        if isinstance(plan, _DML_NODES):
            rows = self._execute_dml(plan, query, meters)
        else:
            rows = self._execute_select(plan, query, meters)
        metrics = self._finalize_metrics(meters, len(rows))
        return rows, metrics

    # ------------------------------------------------------------------
    # SELECT dispatch

    def _execute_select(
        self, plan: PlanNode, query, meters: Meterings
    ) -> Sequence[RowDict]:
        reason = vector.refusal(
            plan, self._tables, meters.needed, self._settings.vector_min_rows
        )
        if reason is None:
            rows, batch_rows = vector.run(
                plan,
                self._tables,
                meters,
                project_columns=self._projection_columns(query),
            )
            self.vector_statements += 1
            self.batch_rows += batch_rows
            return rows  # already in the final SELECT-list shape
        self.interp_statements += 1
        self.fallback_counts[reason] += 1
        return self._project(list(self._interp.iterate(plan, meters)), query)

    # ------------------------------------------------------------------
    # DML

    def _execute_dml(
        self, plan: PlanNode, query, meters: Meterings
    ) -> List[RowDict]:
        interp = self._interp
        if isinstance(plan, InsertPlanNode):
            affected = interp.execute_insert(plan, query, meters)
        else:
            targets = self._target_rows(plan, meters)
            if isinstance(plan, UpdatePlanNode):
                affected = interp.execute_update(plan, query, targets, meters)
            else:
                affected = interp.execute_delete(plan, query, targets, meters)
        self.vector_statements += 1
        self.batch_rows += affected
        return []

    def _target_rows(self, plan: PlanNode, meters: Meterings) -> List[tuple]:
        """An UPDATE/DELETE's target rows: off the batch operators when
        its child is a clustered scan or seek or a key lookup the SELECT
        decision accepts, else interpreted; same rows and charges either
        way."""
        child = plan.child
        min_rows = self._settings.vector_min_rows
        if isinstance(child, _TARGET_NODES) and (
            vector.refusal(child, self._tables, meters.needed, min_rows) is None
        ):
            return vector.target_rows(child, self._tables, meters)
        names = self._tables[plan.table].schema.column_names
        return [
            tuple(row[name] for name in names)
            for row in self._interp.iterate(child, meters)
        ]

    # ------------------------------------------------------------------

    def _needed_columns(self, query) -> Optional[Dict[str, Tuple[str, ...]]]:
        """Column subsets the row stream must carry, per table.

        SELECT streams only need referenced columns plus the primary key
        (for key lookups); DML needs full rows and returns None.
        """
        if not isinstance(query, SelectQuery):
            return None
        table = self._tables.get(query.table)
        if table is None:
            return None
        names = dict.fromkeys(query.referenced_columns())
        for pk_column in table.schema.primary_key:
            names.setdefault(pk_column)
        needed = {query.table: tuple(names)}
        if query.join is not None:
            right = self._tables.get(query.join.table)
            if right is not None:
                right_names = dict.fromkeys(
                    (query.join.right_column,)
                    + tuple(p.column for p in query.join.predicates)
                    + tuple(query.join.select_columns)
                )
                for pk_column in right.schema.primary_key:
                    right_names.setdefault(pk_column)
                needed[query.join.table] = tuple(right_names)
        return needed

    def _finalize_metrics(
        self, meters: Meterings, rows_returned: int
    ) -> ExecutionMetrics:
        pages = meters.page_meter.pages
        cpu = (
            meters.rows_processed * CPU_MS_PER_ROW
            + pages * CPU_MS_PER_PAGE
            + meters.sort_rows * CPU_MS_PER_SORT_ROW
            + meters.hash_rows * CPU_MS_PER_HASH_ROW
            + meters.maintained_entries * CPU_MS_PER_MAINTAINED_ENTRY
        )
        if NOISE_SIGMA > 0:
            cpu *= math.exp(self._rng.normal(0.0, NOISE_SIGMA))
        duration = cpu + pages * IO_WAIT_MS_PER_PAGE
        if NOISE_SIGMA > 0:
            duration *= math.exp(self._rng.normal(0.0, 2.5 * NOISE_SIGMA))
        return ExecutionMetrics(
            cpu_time_ms=cpu,
            duration_ms=duration,
            logical_reads=pages,
            rows_returned=rows_returned,
        )

    # ------------------------------------------------------------------
    # Projection

    def _projection_columns(self, query) -> Optional[Tuple[str, ...]]:
        """The final SELECT-list shape, or None when rows pass through
        unprojected (aggregates and SELECT-* queries)."""
        if not isinstance(query, SelectQuery) or query.is_aggregate:
            return None
        columns = list(query.select_columns)
        if query.join is not None:
            columns.extend(query.join.select_columns)
        return tuple(columns) if columns else None

    def _project(self, rows: List[RowDict], query) -> List[RowDict]:
        columns = self._projection_columns(query)
        if columns is None:
            return rows
        return [
            {column: row.get(column) for column in columns} for row in rows
        ]

    # ------------------------------------------------------------------
    # Observability

    def column_cache_stats(self) -> Tuple[int, int, int]:
        """(hits, misses, invalidations) summed over this engine's tables."""
        hits = misses = invalidations = 0
        for table in self._tables.values():
            cache_hits, cache_misses, cache_invalidations = table.columnar_stats
            hits += cache_hits
            misses += cache_misses
            invalidations += cache_invalidations
        return hits, misses, invalidations

    def column_cache_delta_rows(self) -> int:
        """Row changes folded into live projections instead of forcing a
        rebuild, summed over this engine's tables."""
        return sum(
            table.columnar_delta_rows for table in self._tables.values()
        )
