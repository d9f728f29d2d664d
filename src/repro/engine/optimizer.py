"""Cost-based query optimizer with a what-if API and MI emission.

The optimizer enumerates access paths (clustered scan/seek, secondary index
seek with optional key lookup, covering index scan), join strategies
(nested-loop with parameterized inner seek, hash join), and aggregation /
ordering operators, picking the plan with the lowest *estimated* cost under
the :class:`repro.engine.cost_model.CostModel`.

SELECT planning costs the **complete** plan — access + join + aggregate +
sort + top — independently for every access candidate and returns the true
argmin.  That makes plan choice monotone by construction: an index only
adds candidates, so the minimum can only fall when one is created (or
supplied hypothetically) and only rise when one is dropped.  An earlier
"effective cost" heuristic credited order-providing access paths with an
avoided-sort bonus derived from an arbitrary candidate's cardinality,
which both violated monotonicity and mispriced ordered plans under
aggregation (where the real saving is only the stream-vs-hash delta on
far fewer rows).

There is one planner.  Every statement is planned by building its
*substrate* — the part of the plan space that does not depend on a
hypothetical configuration: the base access candidates over existing
indexes, each finished into a complete plan, and the join context — and
then asking the substrate to price a tuple of hypothetical index
definitions.  Statement planning (:meth:`Optimizer.optimize`) is the empty
tuple; the what-if API (Section 5.3) prices one tuple or a whole DTA
frontier of them against one substrate held by the engine's
:class:`repro.engine.engine.WhatIfBatch`.
Hypothetical indexes are costed from closed-form shape estimates without
materializing anything.

Executed statements are planned afresh: their literals make almost every
(query, per-table version fingerprint) key unique, so nothing memoizes
their plans.  What-if pricing finds statement substrates through
:meth:`Optimizer.whatif_substrate` — the key, the bounded store
(:class:`repro.engine.plan_cache.PlanCache`) and the hit/miss counts in
one method; see the plan-cache module for the staleness rules.  The
caller that repeats a configuration (DTA's ``WhatIfSession``) memoizes
its costs itself.

**Missing-index emission** (Section 5.2): while planning an executed
statement, the optimizer compares the chosen plan against an ideal
single-table index built from the query's own sargable predicates and, if
the ideal index would beat the plan, reports a missing-index candidate to
the DMV sink.  Deliberately local: join, GROUP BY and ORDER BY columns
are *not* considered — exactly the MI limitation the paper describes.
Emission is a by-product of the plan search, as in the paper: it reads
the substrate's predicate analysis, output estimate and existing access
candidates rather than planning the statement a second time.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.engine.cost_model import CostModel
from repro.engine.plan_cache import PlanCache
from repro.engine.plans import (
    PARAM,
    ClusteredScanNode,
    ClusteredSeekNode,
    HashAggregateNode,
    HashJoinNode,
    IndexScanNode,
    IndexSeekNode,
    InsertPlanNode,
    KeyLookupNode,
    DeletePlanNode,
    NestedLoopJoinNode,
    PlanNode,
    SortNode,
    StreamAggregateNode,
    TopNode,
    UpdatePlanNode,
)
from repro.engine.query import (
    DeleteQuery,
    InsertQuery,
    Op,
    Predicate,
    SelectQuery,
    UpdateQuery,
)
from repro.engine.schema import IndexDefinition
from repro.engine.table import IndexStatsView, Table
from repro.errors import (
    ExecutionError,
    OptimizeError,
    UnknownColumnError,
    UnknownTableError,
)
from repro.observability.profiling import profile

#: Minimum relative improvement for the optimizer to report an MI candidate.
MI_REPORT_THRESHOLD = 0.05

#: Signature for a missing-index sink callback:
#: (table, equality_cols, inequality_cols, include_cols, best_cost, impact_pct)
MiSink = Callable[[str, Tuple[str, ...], Tuple[str, ...], Tuple[str, ...], float, float], None]


@dataclasses.dataclass
class _AccessCandidate:
    """One candidate access path with its bookkeeping."""

    node: PlanNode
    out_rows: float
    cost: float
    #: Columns the output is ordered by (ascending), outermost first.
    output_order: Tuple[str, ...]
    index_name: Optional[str] = None


class _PredicateAnalysis:
    """One statement's predicate analysis over one table.

    Each predicate's selectivity is estimated once, on first use, and a
    combination multiplies the memoized factors in predicate order, so it
    is the float :meth:`CostModel.combined_selectivity` would compute.
    The memo is keyed by predicate identity rather than by hashing the
    dataclass; each entry holds its predicate, so the id cannot be reused
    while the entry lives.  It is valid for the owning substrate's whole
    life, which the plan key bounds by the table's (schema, stats, data)
    versions.
    """

    __slots__ = ("table", "_model", "_memo")

    def __init__(self, model: CostModel, table: Table) -> None:
        self.table = table
        self._model = model
        self._memo: Dict[int, Tuple[Predicate, float]] = {}

    def selectivity(self, predicates: Sequence[Predicate]) -> float:
        """Combined selectivity of ``predicates``."""
        return self._model.combine_selectivities(
            self.table, [self._factor(p) for p in predicates]
        )

    def _factor(self, predicate: Predicate) -> float:
        entry = self._memo.get(id(predicate))
        if entry is None:
            entry = self._memo[id(predicate)] = (
                predicate,
                self._model.predicate_selectivity(self.table, predicate),
            )
        return entry[1]


@dataclasses.dataclass
class _JoinContext:
    """Outer-candidate-independent join planning state (computed once)."""

    join: object
    #: The inner table's predicate analysis (its ``table`` is the inner table).
    right: _PredicateAnalysis
    right_needed: Tuple[str, ...]
    right_rows: float
    distinct: float
    #: Inner-side predicates and output estimate for a per-probe seek
    #: (the join key bound to PARAM) and for the hash build side.
    nl_preds: Tuple[Predicate, ...]
    nl_out_rows: float
    hash_out_rows: float
    #: Best per-probe parameterized seek, or None if the inner side only scans.
    nl_inner: Optional[_AccessCandidate]
    #: Best build-side access for a hash join.
    hash_inner: _AccessCandidate


@dataclasses.dataclass
class BatchPricingStats:
    """Monotone counters for what-if batch traffic (per engine)."""

    #: What-if batches created (one per statement batch).
    batches: int = 0
    #: Configurations priced through a batch.
    configurations: int = 0
    #: Batches that found their statement substrate memoized.
    substrate_hits: int = 0
    #: Batches that had to build the statement substrate.
    substrate_misses: int = 0
    #: Always 0: there is no second planner to fall back to.  The field
    #: stays because ``benchmarks/e2e`` reads it by name.
    scalar_fallbacks: int = 0


class Optimizer:
    """Plans queries against a database's tables."""

    def __init__(self, tables: Dict[str, Table], cost_model: CostModel) -> None:
        self._tables = tables
        self._cost_model = cost_model
        #: Memoized what-if substrates (see :meth:`whatif_substrate`).
        self.plan_cache = PlanCache()
        #: Counters for what-if batch traffic.
        self.batch_stats = BatchPricingStats()
        #: MI's ideal index per (table, key columns, included columns): a
        #: definition is a value, so it is built once per shape, not once
        #: per statement.
        self._ideal_indexes: Dict[tuple, IndexDefinition] = {}

    # ------------------------------------------------------------------
    # Entry points

    def optimize(self, query, mi_sink: Optional[MiSink] = None) -> PlanNode:
        """Plan an executed statement: the cheapest estimated plan over
        existing indexes.

        The statement's substrate is built, priced with no hypothetical
        index and dropped (the same key at the same table versions will
        not recur), and the plan's MI candidates go to ``mi_sink``.
        """
        with profile("optimizer_plan_search"):
            substrate = _build_substrate(self, query)
            plan = substrate.price(())
            if mi_sink is not None:
                substrate.emit_missing_indexes(
                    lambda emission: mi_sink(*emission)
                )
        return plan

    def whatif_substrate(self, query):
        """The statement's what-if substrate: stored under
        :meth:`_cache_key`, else built and stored.

        This is the one place substrates are reused.  The key carries
        every referenced table's versions, so a stale substrate is never
        found; the store is :class:`PlanCache`'s bounded LRU, which the
        engine also invalidates on DDL, statistics refresh and restart.
        """
        key = self._cache_key(query)
        substrate = (
            self.plan_cache.lookup_substrate(key) if key is not None else None
        )
        if substrate is not None:
            self.batch_stats.substrate_hits += 1
            return substrate
        self.batch_stats.substrate_misses += 1
        substrate = _build_substrate(self, query)
        if key is not None:
            self.plan_cache.store_substrate(
                key, substrate, self._referenced_tables(query)
            )
        return substrate

    def _cache_key(self, query) -> Optional[Hashable]:
        """The substrate memoization key, or None when the query is not
        cacheable.

        Queries are frozen dataclasses, so the key hashes structurally;
        anything unhashable (e.g. exotic predicate values) simply bypasses
        the cache rather than erroring.
        """
        fingerprint = []
        for name in self._referenced_tables(query):
            table = self._tables.get(name)
            if table is None:
                return None  # planning will raise UnknownTableError
            fingerprint.append(
                (name, table.schema_version, table.stats_version,
                 table.data_version)
            )
        key = (query, tuple(fingerprint))
        try:
            hash(key)
        except TypeError:
            return None
        return key

    @staticmethod
    def _referenced_tables(query) -> Tuple[str, ...]:
        join = getattr(query, "join", None)
        if join is not None:
            return (query.table, join.table)
        return (query.table,)

    # ------------------------------------------------------------------
    # Helpers

    def _table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise UnknownTableError(f"table {name!r} does not exist") from None

    @staticmethod
    def _existing_indexes(table: Table) -> List[Tuple[IndexDefinition, IndexStatsView]]:
        return [
            (index.definition, index.stats_view())
            for index in table.indexes.values()
        ]

    # ------------------------------------------------------------------
    # Access-path enumeration

    def _access_candidates(
        self,
        analysis: _PredicateAnalysis,
        predicates: Tuple[Predicate, ...],
        needed_columns: Tuple[str, ...],
    ) -> Tuple[float, List[_AccessCandidate]]:
        """Output-row estimate and every access path over existing structures.

        Hypothetical indexes are costed against the same estimate through
        :meth:`_index_candidates`, one definition at a time.
        """
        model = self._cost_model
        table = analysis.table
        rows = table.row_count
        all_sel = analysis.selectivity(predicates)
        out_rows = max(0.0, all_sel * rows) if predicates else float(rows)
        candidates: List[_AccessCandidate] = []

        # 1. Clustered scan (always available).
        cview = table.clustered_stats_view()
        scan_cost = model.scan_cost(cview.leaf_pages, rows)
        candidates.append(
            _AccessCandidate(
                node=ClusteredScanNode(
                    est_rows=out_rows,
                    est_cost=scan_cost,
                    table=table.name,
                    residual=predicates,
                ),
                out_rows=out_rows,
                cost=scan_cost,
                output_order=table.schema.primary_key,
            )
        )

        # 2. Clustered seek on a PK prefix.
        pk_candidate = self._clustered_seek_candidate(
            analysis, predicates, out_rows
        )
        if pk_candidate is not None:
            candidates.append(pk_candidate)

        # 3. Secondary indexes: seeks (covering or + lookup) and covering scans.
        for definition, view in self._existing_indexes(table):
            candidates.extend(
                self._index_candidates(
                    analysis, definition, view, predicates, needed_columns,
                    out_rows,
                )
            )
        return out_rows, candidates

    def _index_candidates(
        self,
        analysis: _PredicateAnalysis,
        definition: IndexDefinition,
        view: IndexStatsView,
        predicates: Tuple[Predicate, ...],
        needed_columns: Tuple[str, ...],
        out_rows: float,
    ) -> List[_AccessCandidate]:
        """The seek and the covering scan one index offers, in that order."""
        seek = self._index_seek_candidate(
            analysis, definition, view, predicates, needed_columns, out_rows
        )
        scan = self._index_scan_candidate(
            analysis.table, definition, view, predicates, needed_columns,
            out_rows,
        )
        return [c for c in (seek, scan) if c is not None]

    def _clustered_seek_candidate(
        self,
        analysis: _PredicateAnalysis,
        predicates: Tuple[Predicate, ...],
        out_rows: float,
    ) -> Optional[_AccessCandidate]:
        model = self._cost_model
        table = analysis.table
        pk = table.schema.primary_key
        prefix = _seek_prefix(pk, predicates)
        if prefix is None:
            return None
        eq_preds, range_pred, seek_preds = prefix
        seek_sel = analysis.selectivity(seek_preds)
        view = table.clustered_stats_view()
        matched = seek_sel * table.row_count
        pages = max(1.0, seek_sel * view.leaf_pages)
        residual = tuple(p for p in predicates if p not in seek_preds)
        cost = model.seek_cost(view.height, pages, matched)
        cost += matched * model.settings.row_cpu * len(residual)
        node = ClusteredSeekNode(
            est_rows=out_rows,
            est_cost=cost,
            table=table.name,
            eq_predicates=eq_preds,
            range_predicate=range_pred,
            residual=residual,
        )
        remaining_order = pk[len(eq_preds):]
        return _AccessCandidate(
            node=node, out_rows=out_rows, cost=cost, output_order=remaining_order
        )

    def _index_seek_candidate(
        self,
        analysis: _PredicateAnalysis,
        definition: IndexDefinition,
        view: IndexStatsView,
        predicates: Tuple[Predicate, ...],
        needed_columns: Tuple[str, ...],
        out_rows: float,
    ) -> Optional[_AccessCandidate]:
        model = self._cost_model
        table = analysis.table
        prefix = _seek_prefix(definition.key_columns, predicates)
        if prefix is None:
            return None
        eq_preds, range_pred, seek_preds = prefix
        seek_sel = analysis.selectivity(seek_preds)
        matched = seek_sel * table.row_count
        leaf_pages = max(1.0, seek_sel * view.leaf_pages)
        index_columns = set(definition.all_columns) | set(table.schema.primary_key)
        leftover = [p for p in predicates if p not in seek_preds]
        index_residual = tuple(p for p in leftover if p.column in index_columns)
        lookup_residual = tuple(p for p in leftover if p.column not in index_columns)
        covering = all(column in index_columns for column in needed_columns)
        rows_after_index = matched * analysis.selectivity(
            index_residual
        ) if index_residual else matched
        cost = model.seek_cost(view.height, leaf_pages, matched)
        cost += matched * model.settings.row_cpu * len(index_residual)
        remaining_order = definition.key_columns[len(eq_preds):]
        seek_node = IndexSeekNode(
            est_rows=rows_after_index if covering and not lookup_residual else out_rows,
            est_cost=cost,
            table=table.name,
            index_name=definition.name,
            eq_predicates=eq_preds,
            range_predicate=range_pred,
            residual=index_residual,
            covering=covering and not lookup_residual,
            hypothetical=definition.hypothetical,
        )
        if covering and not lookup_residual:
            return _AccessCandidate(
                node=seek_node,
                out_rows=rows_after_index,
                cost=cost,
                output_order=remaining_order,
                index_name=definition.name,
            )
        cview = table.clustered_stats_view()
        lookup = model.lookup_cost(rows_after_index, cview.height)
        total = cost + lookup
        node = KeyLookupNode(
            est_rows=out_rows,
            est_cost=total,
            child=seek_node,
            table=table.name,
            residual=lookup_residual,
        )
        return _AccessCandidate(
            node=node,
            out_rows=out_rows,
            cost=total,
            output_order=remaining_order,
            index_name=definition.name,
        )

    def _index_scan_candidate(
        self,
        table: Table,
        definition: IndexDefinition,
        view: IndexStatsView,
        predicates: Tuple[Predicate, ...],
        needed_columns: Tuple[str, ...],
        out_rows: float,
    ) -> Optional[_AccessCandidate]:
        """Covering leaf scan of a narrower index (cheaper than table scan)."""
        model = self._cost_model
        index_columns = set(definition.all_columns) | set(table.schema.primary_key)
        if not all(column in index_columns for column in needed_columns):
            return None
        if not all(p.column in index_columns for p in predicates):
            return None
        cost = model.scan_cost(view.leaf_pages, table.row_count)
        node = IndexScanNode(
            est_rows=out_rows,
            est_cost=cost,
            table=table.name,
            index_name=definition.name,
            residual=predicates,
            hypothetical=definition.hypothetical,
        )
        return _AccessCandidate(
            node=node,
            out_rows=out_rows,
            cost=cost,
            output_order=definition.key_columns,
            index_name=definition.name,
        )

    def _cheapest_existing(
        self,
        analysis: _PredicateAnalysis,
        predicates: Tuple[Predicate, ...],
        out_rows: float,
        candidates: Sequence[_AccessCandidate],
        needed_columns: Tuple[str, ...],
        columns: Tuple[str, ...],
    ) -> float:
        """Own cost of the cheapest existing access path for a read of
        ``columns`` — the MI baseline (no downstream context).

        ``candidates`` are every existing path enumerated for
        ``needed_columns``.  Clustered paths do not depend on the columns
        read, so when the column sets differ only the secondary indexes'
        candidates (whose covering depends on them) are derived again,
        off the same predicate analysis.
        """
        if columns == needed_columns:
            return min(c.cost for c in candidates)
        costs = [c.cost for c in candidates if c.index_name is None]
        for definition, view in self._existing_indexes(analysis.table):
            costs.extend(
                c.cost
                for c in self._index_candidates(
                    analysis, definition, view, predicates, columns, out_rows
                )
            )
        return min(costs)

    # ------------------------------------------------------------------
    # SELECT planning

    def _finish_select(
        self,
        query: SelectQuery,
        table: Table,
        candidate: _AccessCandidate,
        join_ctx: Optional["_JoinContext"],
    ) -> Tuple[Optional[PlanNode], float]:
        """Complete one access candidate into a full plan and its cost."""
        plan = candidate.node
        rows = candidate.out_rows
        order = candidate.output_order
        cost = candidate.cost

        if join_ctx is not None:
            plan, rows, order, cost = self._apply_join(
                join_ctx, plan, rows, order, cost
            )

        if query.group_by or query.aggregates:
            plan, rows, order, cost = self._plan_aggregate(
                query, table, plan, rows, order, cost
            )

        if query.order_by:
            wanted = tuple(i.column for i in query.order_by)
            # Access paths deliver ascending order only, so any descending
            # item forces a Sort regardless of column match.
            satisfied = all(
                i.ascending for i in query.order_by
            ) and _order_satisfied(order, wanted)
            if not satisfied:
                cost += self._cost_model.sort_cost(rows)
                plan = SortNode(
                    est_rows=rows,
                    est_cost=cost,
                    child=plan,
                    order_by=query.order_by,
                )
                order = wanted

        if query.limit is not None:
            rows = min(rows, float(query.limit))
            plan = TopNode(
                est_rows=rows, est_cost=cost, child=plan, limit=query.limit
            )
        return plan, cost

    def _join_context(
        self, query: SelectQuery, outer: _PredicateAnalysis
    ) -> "_JoinContext":
        """Inner-side planning shared by every outer access candidate.

        The inner side's best per-probe seek and best build-side access do
        not depend on the outer candidate, so they are computed once per
        SELECT rather than once per candidate.  A self-join shares the
        outer side's predicate analysis.
        """
        join = query.join
        right = self._table(join.table)
        analysis = (
            outer
            if right is outer.table
            else _PredicateAnalysis(self._cost_model, right)
        )
        right_needed = tuple(
            dict.fromkeys(
                (join.right_column,)
                + tuple(p.column for p in join.predicates)
                + tuple(join.select_columns)
            )
        )
        right_sel = analysis.selectivity(join.predicates)
        right_rows = right_sel * right.row_count
        distinct = _distinct_estimate(right, join.right_column)
        # Nested loop: parameterized seek on the inner side.  A nested
        # loop over a full inner scan per probe is almost never
        # competitive, so only seeks bound to the join key qualify and the
        # planner falls back to hash join otherwise.
        nl_preds = (Predicate(join.right_column, Op.EQ, PARAM),) + tuple(
            join.predicates
        )
        nl_out_rows, nl_candidates = self._access_candidates(
            analysis, nl_preds, right_needed
        )
        nl_inner = min(
            filter(_param_seekable, nl_candidates),
            key=lambda c: c.cost,
            default=None,
        )
        # Hash join: scan both sides, build on inner.
        hash_out_rows, hash_candidates = self._access_candidates(
            analysis, tuple(join.predicates), right_needed
        )
        return _JoinContext(
            join=join,
            right=analysis,
            right_needed=right_needed,
            right_rows=right_rows,
            distinct=distinct,
            nl_preds=nl_preds,
            nl_out_rows=nl_out_rows,
            hash_out_rows=hash_out_rows,
            nl_inner=nl_inner,
            hash_inner=min(hash_candidates, key=lambda c: c.cost),
        )

    def _apply_join(
        self,
        ctx: "_JoinContext",
        outer_plan: PlanNode,
        outer_rows: float,
        outer_order: Tuple[str, ...],
        outer_cost: float,
    ):
        model = self._cost_model
        # Join output cardinality via the containment assumption.
        join_rows = max(
            1.0, outer_rows * ctx.right_rows / max(1.0, ctx.distinct)
        )
        nl_cost = None
        if ctx.nl_inner is not None:
            nl_cost = outer_cost + outer_rows * ctx.nl_inner.cost
        hash_cost = (
            outer_cost
            + ctx.hash_inner.cost
            + model.hash_cost(ctx.right_rows, outer_rows)
        )
        if nl_cost is not None and nl_cost <= hash_cost:
            plan = NestedLoopJoinNode(
                est_rows=join_rows,
                est_cost=nl_cost,
                outer=outer_plan,
                inner=ctx.nl_inner.node,
                join=ctx.join,
            )
            return plan, join_rows, outer_order, nl_cost
        plan = HashJoinNode(
            est_rows=join_rows,
            est_cost=hash_cost,
            outer=outer_plan,
            inner=ctx.hash_inner.node,
            join=ctx.join,
        )
        return plan, join_rows, (), hash_cost

    def _plan_aggregate(
        self,
        query: SelectQuery,
        table: Table,
        plan: PlanNode,
        rows: float,
        order: Tuple[str, ...],
        cost: float,
    ):
        model = self._cost_model
        if query.group_by:
            groups = 1.0
            for column in query.group_by:
                groups *= _distinct_estimate(table, column)
            groups = min(rows, max(1.0, groups))
        else:
            groups = 1.0
        if query.group_by and _order_satisfied(order, query.group_by):
            cost += model.aggregate_cost(rows, hashed=False)
            plan = StreamAggregateNode(
                est_rows=groups,
                est_cost=cost,
                child=plan,
                group_by=query.group_by,
                aggregates=query.aggregates,
            )
            return plan, groups, query.group_by, cost
        cost += model.aggregate_cost(rows, hashed=True)
        plan = HashAggregateNode(
            est_rows=groups,
            est_cost=cost,
            child=plan,
            group_by=query.group_by,
            aggregates=query.aggregates,
        )
        return plan, groups, (), cost

    # ------------------------------------------------------------------
    # DML planning

    def _maintained_indexes(
        self,
        table: Table,
        changed_columns: Optional[Sequence[str]] = None,
    ) -> List[Tuple[IndexDefinition, IndexStatsView]]:
        return [
            (definition, view)
            for definition, view in self._existing_indexes(table)
            if _maintains(table, definition, changed_columns)
        ]

    # ------------------------------------------------------------------
    # Missing-index emission

    def _emit_for_table(
        self,
        analysis: _PredicateAnalysis,
        predicates: Tuple[Predicate, ...],
        referenced: Tuple[str, ...],
        out_rows: float,
        existing_cost: Callable[[], float],
        record: Callable[[tuple], None],
    ) -> None:
        """Compare the current plan to an ideal local index; report if better.

        MI semantics (Section 5.2): equality predicate columns become
        EQUALITY columns, range predicate columns become INEQUALITY columns,
        other referenced columns become INCLUDE columns.  No join/group-by/
        order-by awareness and no maintenance costing.  The caller is the
        statement's substrate: ``analysis`` and ``out_rows`` are the ones
        its plan search used, and ``existing_cost`` gives the cheapest
        existing access path's own cost for ``referenced``.
        """
        if not predicates:
            return
        table = analysis.table
        if table.row_count == 0:
            return
        eq_cols = tuple(
            dict.fromkeys(p.column for p in predicates if p.is_equality)
        )
        ineq_cols = tuple(
            dict.fromkeys(
                p.column
                for p in predicates
                if p.is_range and p.column not in eq_cols
            )
        )
        if not eq_cols and not ineq_cols:
            return
        key_cols = eq_cols + ineq_cols[:1]
        include_cols = tuple(
            c for c in referenced if c not in key_cols
        ) + ineq_cols[1:]
        include_cols = tuple(dict.fromkeys(include_cols))
        shape = (
            table.name,
            key_cols,
            tuple(c for c in include_cols if c not in key_cols),
        )
        ideal = self._ideal_indexes.get(shape)
        if ideal is None:
            ideal = self._ideal_indexes[shape] = IndexDefinition(
                name="_mi_ideal",
                table=shape[0],
                key_columns=shape[1],
                included_columns=shape[2],
                hypothetical=True,
            )
        try:
            view = table.hypothetical_stats_view(ideal)
        except UnknownColumnError:
            return  # a column the table does not have: no index to suggest
        candidate = self._index_seek_candidate(
            analysis, ideal, view, predicates, referenced, out_rows
        )
        if candidate is None:
            return
        # Compare against the best access over *existing* structures only.
        best_existing = existing_cost()
        if candidate.cost >= best_existing * (1.0 - MI_REPORT_THRESHOLD):
            return
        impact = 100.0 * (1.0 - candidate.cost / best_existing)
        record(
            (
                table.name,
                eq_cols,
                ineq_cols,
                ideal.included_columns,
                best_existing,
                impact,
            )
        )


# ----------------------------------------------------------------------
# Substrates: the configuration-invariant part of a statement's plan space
#
# DTA enumeration and MI impact verification price the *same statement*
# against many hypothetical configurations, and statement execution
# prices it against none.  Everything except the configuration's own
# access-path candidates is the same in all of these: the predicate
# analysis, the base (existing-structure) candidates, the join context,
# and the completion of each base candidate through join, aggregate,
# sort, and top.  A substrate computes that part once; ``price(extras)``
# costs only the candidates the extras contribute — memoized per index
# definition, since each is a deterministic function of the frozen
# definition at this substrate's table versions — and takes the first
# strict minimum over base candidates followed by extras in the order
# given.  Base candidates come first, so on a cost tie an existing
# structure beats a hypothetical one.


def _first_min(results, best=None):
    """First strict minimum of ``(plan, cost)`` pairs, continuing ``best``."""
    for result in results:
        if best is None or result[1] < best[1]:
            best = result
    return best


class _SelectSubstrate:
    """Plan space of one SELECT."""

    def __init__(self, opt: Optimizer, query: SelectQuery) -> None:
        self._opt = opt
        self._query = query
        table = opt._table(query.table)
        self._table = table
        self._analysis = _PredicateAnalysis(opt._cost_model, table)
        self._needed = query.referenced_columns()
        self._out_rows, self._existing = opt._access_candidates(
            self._analysis, query.predicates, self._needed
        )
        candidates = self._existing
        if query.index_hint is not None:
            candidates = [
                c for c in candidates if c.index_name == query.index_hint
            ]
        self._base_candidates = candidates
        self._base_ctx: Optional[_JoinContext] = None
        if query.join is not None:
            self._base_ctx = opt._join_context(query, self._analysis)
        #: Cheapest finished base plan; None only when an index hint
        #: names no existing index (an extra may still carry the name).
        self._base_best = _first_min(
            opt._finish_select(query, table, c, self._base_ctx)
            for c in candidates
        )
        self._outer_memo: Dict[IndexDefinition, list] = {}
        self._finished_memo: Dict[IndexDefinition, list] = {}
        self._inner_memo: Dict[IndexDefinition, tuple] = {}
        self._ctx_memo: Dict[tuple, _JoinContext] = {}

    def price(self, extras: Tuple[IndexDefinition, ...]) -> PlanNode:
        best = self._price_extras(extras) if extras else self._base_best
        if best is None:
            raise ExecutionError(
                f"query hints index {self._query.index_hint!r} which does "
                f"not exist on table {self._table.name!r}"
            )
        return best[0]

    def emit_missing_indexes(self, record: Callable[[tuple], None]) -> None:
        """MI candidates for the outer table and the join's inner table.

        MI's analysis is local, "predominantly in the leaf node of a
        plan" (Section 5.1.1): the include list captures the plan leaf's
        output — selected and filtered columns — but NOT columns needed
        by upstream joins, aggregations, or sorts.  Both baselines ignore
        an index hint.
        """
        opt = self._opt
        query = self._query
        predicates = query.predicates
        leaf_columns = tuple(
            dict.fromkeys(
                tuple(query.select_columns) + tuple(p.column for p in predicates)
            )
        )
        opt._emit_for_table(
            self._analysis,
            predicates,
            leaf_columns,
            self._out_rows,
            lambda: opt._cheapest_existing(
                self._analysis, predicates, self._out_rows, self._existing,
                self._needed, leaf_columns,
            ),
            record,
        )
        ctx = self._base_ctx
        if ctx is not None:
            # The inner side's leaf read is the hash build side's: the
            # same predicates and the same columns.
            opt._emit_for_table(
                ctx.right,
                tuple(ctx.join.predicates),
                ctx.right_needed,
                ctx.hash_out_rows,
                lambda: ctx.hash_inner.cost,
                record,
            )

    def contributes(self, definition: IndexDefinition) -> bool:
        """Whether the definition offers this statement an outer or a
        join-inner access candidate; if not, ``price`` is the same with
        and without it."""
        outer, inner = self._sides(definition)
        if outer and self._outer_candidates(definition):
            return True
        return inner and any(self._inner_candidates(definition))

    def _sides(self, definition: IndexDefinition) -> Tuple[bool, bool]:
        """Whether the outer access and the join's inner side can see it."""
        query = self._query
        hint = query.index_hint
        outer = definition.table == self._table.name and (
            hint is None or hint == definition.name
        )
        inner = query.join is not None and definition.table == query.join.table
        return outer, inner

    def _price_extras(self, extras: Tuple[IndexDefinition, ...]):
        opt = self._opt
        query = self._query
        table = self._table
        outer_defs: List[IndexDefinition] = []
        inner_defs: List[IndexDefinition] = []
        for definition in extras:
            outer, inner = self._sides(definition)
            if outer:
                outer_defs.append(definition)
            if inner:
                inner_defs.append(definition)
        ctx = self._base_ctx
        if inner_defs:
            ctx = self._extended_ctx(tuple(inner_defs))
        if ctx is self._base_ctx:
            best = self._base_best
            for definition in outer_defs:
                best = _first_min(self._finished_outer(definition), best)
            return best
        # The configuration improved the join's inner side, which changes
        # every candidate's completion: re-finish each under the new
        # context (candidate enumeration itself is still reused).
        best = _first_min(
            opt._finish_select(query, table, c, ctx)
            for c in self._base_candidates
        )
        for definition in outer_defs:
            best = _first_min(
                (
                    opt._finish_select(query, table, c, ctx)
                    for c in self._outer_candidates(definition)
                ),
                best,
            )
        return best

    # -- per-definition memos ------------------------------------------

    def _outer_candidates(self, definition: IndexDefinition) -> list:
        cached = self._outer_memo.get(definition)
        if cached is None:
            cached = self._outer_memo[definition] = self._opt._index_candidates(
                self._analysis,
                definition,
                self._table.hypothetical_stats_view(definition),
                self._query.predicates,
                self._needed,
                self._out_rows,
            )
        return cached

    def _finished_outer(self, definition: IndexDefinition) -> list:
        cached = self._finished_memo.get(definition)
        if cached is None:
            cached = self._finished_memo[definition] = [
                self._opt._finish_select(
                    self._query, self._table, candidate, self._base_ctx
                )
                for candidate in self._outer_candidates(definition)
            ]
        return cached

    def _inner_candidates(self, definition: IndexDefinition) -> tuple:
        """(per-probe seeks, build-side accesses) the definition offers."""
        cached = self._inner_memo.get(definition)
        if cached is None:
            opt = self._opt
            ctx = self._base_ctx
            view = ctx.right.table.hypothetical_stats_view(definition)
            nl = [
                c
                for c in opt._index_candidates(
                    ctx.right, definition, view,
                    ctx.nl_preds, ctx.right_needed, ctx.nl_out_rows,
                )
                if _param_seekable(c)
            ]
            hashes = opt._index_candidates(
                ctx.right, definition, view,
                tuple(ctx.join.predicates), ctx.right_needed, ctx.hash_out_rows,
            )
            cached = self._inner_memo[definition] = (nl, hashes)
        return cached

    def _extended_ctx(self, inner_defs: tuple) -> _JoinContext:
        ctx = self._ctx_memo.get(inner_defs)
        if ctx is not None:
            return ctx
        base = self._base_ctx
        nl = base.nl_inner
        hash_best = base.hash_inner
        # First-minimum merge: an extra only wins with a strictly lower cost.
        for definition in inner_defs:
            nl_cands, hash_cands = self._inner_candidates(definition)
            for candidate in nl_cands:
                if nl is None or candidate.cost < nl.cost:
                    nl = candidate
            for candidate in hash_cands:
                if candidate.cost < hash_best.cost:
                    hash_best = candidate
        if nl is base.nl_inner and hash_best is base.hash_inner:
            ctx = base  # unchanged: lets price() reuse finished plans
        else:
            ctx = dataclasses.replace(base, nl_inner=nl, hash_inner=hash_best)
        self._ctx_memo[inner_defs] = ctx
        return ctx


class _InsertSubstrate:
    """Maintenance-cost prefix for an INSERT."""

    def __init__(self, opt: Optimizer, query: InsertQuery) -> None:
        self._opt = opt
        self._query = query
        table = opt._table(query.table)
        self._table = table
        model = opt._cost_model
        self._rows = float(len(query.rows))
        maintained = opt._maintained_indexes(table)
        cview = table.clustered_stats_view()
        # Left-to-right accumulation: clustered tree first, then existing
        # indexes; extras append in price().
        cost = model.maintenance_cost(cview.height, self._rows)
        for _definition, view in maintained:
            cost += model.maintenance_cost(view.height, self._rows)
        self._base_cost = cost
        self._base_names = tuple(d.name for d, _v in maintained)
        self._extra_memo: Dict[IndexDefinition, float] = {}

    def emit_missing_indexes(self, record: Callable[[tuple], None]) -> None:
        """An INSERT reads no rows, so it misses no index."""

    def contributes(self, definition: IndexDefinition) -> bool:
        """Whether the INSERT must maintain the definition."""
        return definition.table == self._table.name

    def price(self, extras: Tuple[IndexDefinition, ...]) -> PlanNode:
        table = self._table
        cost = self._base_cost
        names = self._base_names
        for definition in extras:
            if not self.contributes(definition):
                continue
            maint = self._extra_memo.get(definition)
            if maint is None:
                view = table.hypothetical_stats_view(definition)
                maint = self._extra_memo[definition] = (
                    self._opt._cost_model.maintenance_cost(
                        view.height, self._rows
                    )
                )
            cost += maint
            names += (definition.name,)
        return InsertPlanNode(
            est_rows=self._rows,
            est_cost=cost,
            table=table.name,
            row_count=len(self._query.rows),
            maintained_indexes=names,
        )


class _DmlSubstrate:
    """Access-path + maintenance substrate shared by UPDATE and DELETE.

    Unlike INSERT, the maintenance row count is the *winning* access
    candidate's output estimate, which can change per configuration, so
    maintenance terms are summed per price() from memoized tree heights.
    """

    def __init__(self, opt: Optimizer, query) -> None:
        self._opt = opt
        self._query = query
        table = opt._table(query.table)
        self._table = table
        self._analysis = _PredicateAnalysis(opt._cost_model, table)
        self._needed = tuple(table.schema.column_names)
        self._out_rows, self._existing = opt._access_candidates(
            self._analysis, query.predicates, self._needed
        )
        self._base_best = min(self._existing, key=lambda c: c.cost)
        #: UPDATE maintains only indexes its SET list touches, and pays a
        #: delete plus an insert in each; DELETE maintains every index.
        self._changed = (
            query.assigned_columns if isinstance(query, UpdateQuery) else None
        )
        self._factor = 1 if self._changed is None else 2
        self._base_maintained = tuple(
            (d.name, view.height)
            for d, view in opt._maintained_indexes(table, self._changed)
        )
        self._cview_height = table.clustered_stats_view().height
        #: definition -> (access candidates, maintained tree height or
        #: None when the statement does not write the index), or () when
        #: the definition neither serves nor is maintained by the
        #: statement.
        self._extra_memo: Dict[IndexDefinition, tuple] = {}

    def _extra(self, definition: IndexDefinition) -> tuple:
        cached = self._extra_memo.get(definition)
        if cached is None:
            cached = self._extra_memo[definition] = self._compute_extra(
                definition
            )
        return cached

    def _compute_extra(self, definition: IndexDefinition) -> tuple:
        table = self._table
        if definition.table != table.name:
            return ()
        view = table.hypothetical_stats_view(definition)
        candidates = self._opt._index_candidates(
            self._analysis, definition, view,
            self._query.predicates, self._needed, self._out_rows,
        )
        maintained = _maintains(table, definition, self._changed)
        if not candidates and not maintained:
            return ()
        return candidates, view.height if maintained else None

    def emit_missing_indexes(self, record: Callable[[tuple], None]) -> None:
        """MI candidates for the read that locates the rows."""
        opt = self._opt
        predicates = self._query.predicates
        referenced = tuple(p.column for p in predicates)
        opt._emit_for_table(
            self._analysis,
            predicates,
            referenced,
            self._out_rows,
            lambda: opt._cheapest_existing(
                self._analysis, predicates, self._out_rows, self._existing,
                self._needed, referenced,
            ),
            record,
        )

    def contributes(self, definition: IndexDefinition) -> bool:
        """Whether the definition offers an access path to the rows or
        must be maintained by the write."""
        return bool(self._extra(definition))

    def price(self, extras: Tuple[IndexDefinition, ...]) -> PlanNode:
        model = self._opt._cost_model
        table_name = self._table.name
        visible = []
        for definition in extras:
            extra = self._extra(definition)
            if extra:
                visible.append(extra + (definition.name,))
        best = self._base_best
        for candidates, _height, _name in visible:
            for candidate in candidates:
                if candidate.cost < best.cost:
                    best = candidate
        rows = best.out_rows
        factor = self._factor
        cost = best.cost + model.maintenance_cost(self._cview_height, rows)
        names: List[str] = []
        for name, height in self._base_maintained:
            cost += factor * model.maintenance_cost(height, rows)
            names.append(name)
        for _candidates, height, name in visible:
            if height is None:
                continue
            cost += factor * model.maintenance_cost(height, rows)
            names.append(name)
        if self._changed is not None:
            return UpdatePlanNode(
                est_rows=rows,
                est_cost=cost,
                child=best.node,
                table=table_name,
                assignments=self._query.assignments,
                maintained_indexes=tuple(names),
            )
        return DeletePlanNode(
            est_rows=rows,
            est_cost=cost,
            child=best.node,
            table=table_name,
            maintained_indexes=tuple(names),
        )


def _maintains(
    table: Table,
    definition: IndexDefinition,
    changed_columns: Optional[Sequence[str]],
) -> bool:
    """Whether a statement changing ``changed_columns`` (None: whole rows)
    must maintain the index."""
    if changed_columns is None:
        return True
    relevant = set(definition.all_columns) | set(table.schema.primary_key)
    return any(c in relevant for c in changed_columns)


def _param_seekable(candidate: _AccessCandidate) -> bool:
    """A seek parameterized on the join key (usable once per outer probe)."""
    node = candidate.node
    seek = node.child if isinstance(node, KeyLookupNode) else node
    if not isinstance(seek, (ClusteredSeekNode, IndexSeekNode)):
        return False
    return any(p.value is PARAM for p in seek.eq_predicates)


def _build_substrate(opt: Optimizer, query):
    if isinstance(query, SelectQuery):
        return _SelectSubstrate(opt, query)
    if isinstance(query, InsertQuery):
        return _InsertSubstrate(opt, query)
    if isinstance(query, (UpdateQuery, DeleteQuery)):
        return _DmlSubstrate(opt, query)
    raise OptimizeError(f"cannot optimize {type(query).__name__}")


# ----------------------------------------------------------------------
# Small helpers


def _seek_prefix(
    key_columns: Tuple[str, ...], predicates: Sequence[Predicate]
):
    """``(equality prefix, range predicate, seek predicates)`` a seek on
    ``key_columns`` can use, or None when it can use none.

    The prefix is the first equality predicate on each leading key column
    in turn; the range predicate is the first one on the key column after
    it, if any; the seek predicates are both, in that order.
    """
    equalities: Dict[str, Predicate] = {}
    ranges: Dict[str, Predicate] = {}
    for predicate in predicates:
        if predicate.is_equality:
            equalities.setdefault(predicate.column, predicate)
        elif predicate.is_range:
            ranges.setdefault(predicate.column, predicate)
    eq_preds: List[Predicate] = []
    for column in key_columns:
        if column not in equalities:
            break
        eq_preds.append(equalities[column])
    range_pred = None
    if len(eq_preds) < len(key_columns):
        range_pred = ranges.get(key_columns[len(eq_preds)])
    if not eq_preds and range_pred is None:
        return None
    prefix = tuple(eq_preds)
    return prefix, range_pred, prefix + ((range_pred,) if range_pred else ())


def _order_satisfied(
    available: Tuple[str, ...], wanted: Tuple[str, ...]
) -> bool:
    """True if ``available`` ordering covers ``wanted`` as a prefix."""
    if not wanted:
        return True
    if len(wanted) > len(available):
        return False
    return tuple(available[: len(wanted)]) == tuple(wanted)


def _distinct_estimate(table: Table, column: str) -> float:
    stats = table.statistics.get(column)
    if stats is not None and stats.distinct_count:
        return float(stats.distinct_count)
    return max(1.0, table.row_count / 10.0)
