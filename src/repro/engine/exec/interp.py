"""Row-at-a-time plan interpretation with actual-cost metering.

The interpreter walks plan trees against real table data, counting the
pages and rows it genuinely touches.  Row streams between operators are
dictionaries keyed by column name; scans evaluate residual predicates on
raw tuples first and only build the dictionary for qualifying rows.

This is the reference semantics: the vectorized path in
:mod:`repro.engine.exec.vector` must reproduce both its row sets and its
meter charges bit for bit.  Helpers that define value semantics
(:func:`stable_sum`, :func:`aggregate_values`, :func:`sort_rows_inplace`,
:func:`topn_rows`) live here and are shared by both paths; so does
:func:`aggregate_runs`, the vector path's per-slice reduction, which
keeps to :func:`aggregate_values`' definition.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Iterator, List, Optional, Tuple

from repro.engine.btree import PageMeter, Span, span_entries
from repro.engine.exec.metering import (
    Meterings,
    delete_meter_entries,
    hash_join_meter_rows,
    insert_meter_entries,
    sort_meter_rows,
    update_meter_entries,
)
from repro.engine.plans import (
    PARAM,
    ClusteredScanNode,
    ClusteredSeekNode,
    DeletePlanNode,
    HashAggregateNode,
    HashJoinNode,
    IndexScanNode,
    IndexSeekNode,
    InsertPlanNode,
    KeyLookupNode,
    NestedLoopJoinNode,
    PlanNode,
    SortNode,
    StreamAggregateNode,
    TopNode,
    UpdatePlanNode,
)
from repro.engine.query import (
    AggFunc,
    DeleteQuery,
    InsertQuery,
    Op,
    UpdateQuery,
)
from repro.engine.table import Table
from repro.engine.types import NULL, SqlType
from repro.errors import ExecutionError

RowDict = Dict[str, object]


class InterpExecutor:
    """Interprets plans one row dictionary at a time."""

    def __init__(self, tables: Dict[str, Table]) -> None:
        self._tables = tables

    # ------------------------------------------------------------------
    # Row-stream interpretation

    def iterate(
        self,
        node: PlanNode,
        meters: Meterings,
        binding: Optional[object] = None,
    ) -> Iterator[RowDict]:
        if isinstance(node, ClusteredScanNode):
            yield from self._iter_clustered_scan(node, meters)
        elif isinstance(node, ClusteredSeekNode):
            yield from self._iter_clustered_seek(node, meters, binding)
        elif isinstance(node, IndexSeekNode):
            yield from self._iter_index_seek(node, meters, binding)
        elif isinstance(node, IndexScanNode):
            yield from self._iter_index_scan(node, meters)
        elif isinstance(node, KeyLookupNode):
            yield from self._iter_key_lookup(node, meters, binding)
        elif isinstance(node, SortNode):
            yield from self._iter_sort(node, meters)
        elif isinstance(node, TopNode):
            yield from self._iter_top(node, meters)
        elif isinstance(node, (StreamAggregateNode, HashAggregateNode)):
            yield from self._iter_aggregate(node, meters)
        elif isinstance(node, NestedLoopJoinNode):
            yield from self._iter_nl_join(node, meters)
        elif isinstance(node, HashJoinNode):
            yield from self._iter_hash_join(node, meters)
        else:
            raise ExecutionError(f"cannot execute node {type(node).__name__}")

    def _table(self, name: str) -> Table:
        return self._tables[name]

    def _iter_clustered_scan(
        self, node: ClusteredScanNode, meters: Meterings
    ) -> Iterator[RowDict]:
        table = self._table(node.table)
        schema = table.schema
        checks = compile_predicates(node.residual, schema.position)
        names, positions = meters.columns_for(table)
        columns = tuple(zip(names, positions))
        processed = 0
        try:
            for _key, row in table.clustered.scan(meter=meters.page_meter):
                processed += 1
                for check in checks:
                    if not check(row):
                        break
                else:
                    yield {name: row[pos] for name, pos in columns}
        finally:
            meters.rows_processed += processed

    def _iter_clustered_seek(
        self,
        node: ClusteredSeekNode,
        meters: Meterings,
        binding: Optional[object],
    ) -> Iterator[RowDict]:
        table = self._table(node.table)
        schema = table.schema
        names, positions = meters.columns_for(table)
        checks = compile_predicates(node.residual, schema.position)
        entries = span_entries(
            seek_spans(table.clustered, node, meters.page_meter, binding)
        )
        for _key, row in entries:
            meters.rows_processed += 1
            if all(check(row) for check in checks):
                yield {name: row[pos] for name, pos in zip(names, positions)}

    def _iter_index_entries(
        self, node, meters: Meterings, entries
    ) -> Iterator[RowDict]:
        """Shared seek/scan entry pipeline: residual-check raw entries,
        then materialize only the needed columns."""
        table = self._table(node.table)
        index = table.get_index(node.index_name)
        sources = index_entry_layout(table, index.definition)
        names, _positions = meters.columns_for(table)
        out_columns = [
            (name,) + sources[name] for name in names if name in sources
        ]
        checks = index_entry_checks(table, index.definition, node.residual)
        processed = 0
        try:
            for key, payload in entries:
                processed += 1
                entry = key + payload if checks else key
                for check in checks:
                    if not check(entry):
                        break
                else:
                    yield {
                        name: (key[i] if in_key else payload[i])
                        for name, in_key, i in out_columns
                    }
        finally:
            meters.rows_processed += processed

    def _iter_index_seek(
        self,
        node: IndexSeekNode,
        meters: Meterings,
        binding: Optional[object],
    ) -> Iterator[RowDict]:
        table = self._table(node.table)
        index = table.get_index(node.index_name)
        entries = span_entries(
            seek_spans(index.tree, node, meters.page_meter, binding)
        )
        return self._iter_index_entries(node, meters, entries)

    def _iter_index_scan(
        self, node: IndexScanNode, meters: Meterings
    ) -> Iterator[RowDict]:
        table = self._table(node.table)
        index = table.get_index(node.index_name)
        entries = index.tree.scan(meter=meters.page_meter)
        return self._iter_index_entries(node, meters, entries)

    def _iter_key_lookup(
        self,
        node: KeyLookupNode,
        meters: Meterings,
        binding: Optional[object],
    ) -> Iterator[RowDict]:
        table = self._table(node.table)
        schema = table.schema
        names, positions = meters.columns_for(table)
        pk = schema.primary_key
        checks = compile_predicates(node.residual, schema.position)
        for partial in self.iterate(node.child, meters, binding):
            pk_values = tuple(partial[column] for column in pk)
            row = table.fetch_by_pk(pk_values, meter=meters.page_meter)
            if row is None:
                continue
            meters.rows_processed += 1
            if all(check(row) for check in checks):
                yield {name: row[pos] for name, pos in zip(names, positions)}

    def _iter_sort(
        self,
        node: SortNode,
        meters: Meterings,
        limit: Optional[int] = None,
    ) -> Iterator[RowDict]:
        rows = list(self.iterate(node.child, meters))
        meters.sort_rows += sort_meter_rows(len(rows), limit)
        if limit is not None and limit < len(rows):
            yield from topn_rows(rows, node.order_by, limit)
            return
        sort_rows_inplace(rows, node.order_by)
        yield from rows

    def _iter_top(self, node: TopNode, meters: Meterings) -> Iterator[RowDict]:
        if isinstance(node.child, SortNode):
            # TOP-N pushdown: the sort keeps only a bounded heap instead
            # of ordering its entire input (charged via sort_meter_rows).
            yield from self._iter_sort(node.child, meters, limit=node.limit)
            return
        produced = 0
        for row in self.iterate(node.child, meters):
            if produced >= node.limit:
                return
            produced += 1
            yield row

    def _iter_aggregate(self, node, meters: Meterings) -> Iterator[RowDict]:
        hashed = isinstance(node, HashAggregateNode)
        group_by = node.group_by
        groups: Dict[tuple, List[RowDict]] = {}
        order: List[tuple] = []
        hash_rows = 0
        for row in self.iterate(node.child, meters):
            hash_rows += 1
            key = tuple(row[column] for column in group_by)
            bucket = groups.get(key)
            if bucket is None:
                groups[key] = bucket = []
                order.append(key)
            bucket.append(row)
        if hashed:
            meters.hash_rows += hash_rows
        if not groups and not node.group_by:
            groups[()] = []
            order.append(())
        for key in order:
            members = groups[key]
            out: RowDict = dict(zip(node.group_by, key))
            for aggregate in node.aggregates:
                out[aggregate.label()] = compute_aggregate(aggregate, members)
            yield out

    def _iter_nl_join(
        self, node: NestedLoopJoinNode, meters: Meterings
    ) -> Iterator[RowDict]:
        join = node.join
        # Text never equals a number (the hash join's rule) and cannot
        # be ordered against one in a seek: such probes match nothing.
        inner = self._table(join.table).schema.column(join.right_column)
        text_key = inner.sql_type is SqlType.TEXT
        for outer_row in self.iterate(node.outer, meters):
            bind_value = outer_row.get(join.left_column)
            if bind_value is None or isinstance(bind_value, str) is not text_key:
                continue
            for inner_row in self.iterate(node.inner, meters, binding=bind_value):
                yield {**inner_row, **outer_row}

    def _iter_hash_join(
        self, node: HashJoinNode, meters: Meterings
    ) -> Iterator[RowDict]:
        join = node.join
        build: Dict[object, List[RowDict]] = {}
        built = 0
        for inner_row in self.iterate(node.inner, meters):
            built += 1
            build.setdefault(inner_row.get(join.right_column), []).append(inner_row)
        meters.hash_rows += hash_join_meter_rows(built)
        probed = 0
        try:
            for outer_row in self.iterate(node.outer, meters):
                probed += 1
                value = outer_row.get(join.left_column)
                if value is None:
                    continue
                for inner_row in build.get(value, ()):
                    yield {**inner_row, **outer_row}
        finally:
            # Charged on close so an early-exiting consumer (TOP) still
            # pays for exactly the outer rows it pulled — the same total
            # the old per-row increment produced.
            meters.hash_rows += hash_join_meter_rows(probed)

    # ------------------------------------------------------------------
    # DML (each returns the number of rows it affected)

    def execute_insert(
        self, plan: InsertPlanNode, query: InsertQuery, meters: Meterings
    ) -> int:
        table = self._table(plan.table)
        inserted = len(table.insert_rows(query.rows, meter=meters.page_meter))
        meters.maintained_entries += insert_meter_entries(
            inserted, len(table.indexes)
        )
        meters.rows_processed += inserted
        return inserted

    def execute_update(
        self,
        plan: UpdatePlanNode,
        query: UpdateQuery,
        targets: List[tuple],
        meters: Meterings,
    ) -> int:
        table = self._table(plan.table)
        assigned = query.assigned_columns
        affected = sum(
            1
            for index in table.indexes.values()
            if not index.maintained.isdisjoint(assigned)
        )
        table.update_rows(targets, query.assignments, meter=meters.page_meter)
        meters.maintained_entries += update_meter_entries(len(targets), affected)
        meters.rows_processed += len(targets)
        return len(targets)

    def execute_delete(
        self,
        plan: DeletePlanNode,
        query: DeleteQuery,
        targets: List[tuple],
        meters: Meterings,
    ) -> int:
        table = self._table(plan.table)
        table.delete_rows(targets, meter=meters.page_meter)
        meters.maintained_entries += delete_meter_entries(
            len(targets), len(table.indexes)
        )
        meters.rows_processed += len(targets)
        return len(targets)


# ----------------------------------------------------------------------
# Sorting helpers (shared by both execution paths)


class _DescKey:
    """Inverts comparisons so ``heapq.nsmallest`` handles DESC columns."""

    __slots__ = ("key",)

    def __init__(self, key: object) -> None:
        self.key = key

    def __lt__(self, other: "_DescKey") -> bool:
        return other.key < self.key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _DescKey) and other.key == self.key


def _order_value(value: object) -> object:
    """One ORDER BY value's key: the value itself, NULL first."""
    return NULL if value is None else value


def _composite_sort_key(order_by):
    def key(row: RowDict) -> tuple:
        parts = []
        for item in order_by:
            part = _order_value(row.get(item.column))
            parts.append(part if item.ascending else _DescKey(part))
        return tuple(parts)

    return key


def sort_rows_inplace(rows: List[RowDict], order_by) -> None:
    """Order rows by the ORDER BY list via repeated stable passes.

    Equivalent to one stable sort on the composite key; kept as the
    reference implementation because ties must preserve input order.
    """
    for item in reversed(order_by):
        rows.sort(
            key=lambda r: _order_value(r.get(item.column)),
            reverse=not item.ascending,
        )


def topn_rows(rows: List[RowDict], order_by, limit: int) -> List[RowDict]:
    """First ``limit`` rows of the fully sorted order, via a bounded heap.

    ``heapq.nsmallest`` is documented equivalent to ``sorted(...)[:n]``
    (stable), so the result matches :func:`sort_rows_inplace` + slice.
    """
    return heapq.nsmallest(limit, rows, key=_composite_sort_key(order_by))


# ----------------------------------------------------------------------
# Predicate compilation


def compile_predicates(predicates, position):
    """Compile predicates into specialized row-tuple checks;
    ``position(column)`` is the column's index in the tuple.

    Literals already have their column's type (``SqlEngine.execute``
    binds them), so the per-row closures use native comparisons without
    type guards (SQL NULL is the only special case: it never matches).
    """
    checks = []
    for predicate in predicates:
        i = position(predicate.column)
        op = predicate.op
        v = predicate.value
        if op is Op.EQ:
            checks.append(lambda row, i=i, v=v: row[i] == v and v is not None)
        elif op is Op.NEQ:
            checks.append(
                lambda row, i=i, v=v: row[i] is not None and row[i] != v
            )
        elif op is Op.LT:
            checks.append(
                lambda row, i=i, v=v: row[i] is not None and row[i] < v
            )
        elif op is Op.LE:
            checks.append(
                lambda row, i=i, v=v: row[i] is not None and row[i] <= v
            )
        elif op is Op.GT:
            checks.append(
                lambda row, i=i, v=v: row[i] is not None and row[i] > v
            )
        elif op is Op.GE:
            checks.append(
                lambda row, i=i, v=v: row[i] is not None and row[i] >= v
            )
        elif op is Op.BETWEEN:
            v2 = predicate.value2
            checks.append(
                lambda row, i=i, v=v, v2=v2: row[i] is not None
                and v <= row[i] <= v2
            )
        else:  # pragma: no cover - exhaustive over Op
            checks.append(lambda row, p=predicate, i=i: p.matches(row[i]))
    return checks


def index_entry_layout(table: Table, definition):
    """Column -> (in_key, position) map for an index's (key, payload)."""
    key_len = len(definition.key_columns)
    sources: Dict[str, Tuple[bool, int]] = {}
    for i, column in enumerate(definition.key_columns):
        sources[column] = (True, i)
    for i, column in enumerate(table.schema.primary_key):
        sources.setdefault(column, (True, key_len + i))
    for i, column in enumerate(definition.included_columns):
        sources.setdefault(column, (False, i))
    return sources


def index_entry_checks(table: Table, definition, residual):
    """Compiled ``residual`` checks over an index entry read as one
    tuple: key, then payload (a column outside the entry raises
    KeyError)."""
    sources = index_entry_layout(table, definition)
    width = len(definition.key_columns) + len(table.schema.primary_key)
    flat = {c: i if in_key else width + i for c, (in_key, i) in sources.items()}
    return compile_predicates(residual, flat.__getitem__)


def _bind(value: object, binding: Optional[object]) -> object:
    if value is PARAM:
        if binding is None:
            raise ExecutionError("unbound join parameter in seek predicate")
        return binding
    return value


def seek_spans(
    tree, node, meter: PageMeter, binding: Optional[object] = None
) -> Iterator[Span]:
    """The :meth:`~repro.engine.btree.BPlusTree.spans` walk a clustered
    or index seek ``node`` reads: its equality prefix plus optional
    range."""
    prefix = tuple(_bind(p.value, binding) for p in node.eq_predicates)
    low = high = prefix or None
    low_inclusive = high_inclusive = True
    counter = "btree_seek"
    if node.range_predicate is not None:
        counter = "btree_range_scan"
        lo, hi, lo_inclusive, hi_inclusive = node.range_predicate.range_bounds()
        if lo is not None:
            low, low_inclusive = prefix + (_bind(lo, binding),), lo_inclusive
        if hi is not None:
            high, high_inclusive = prefix + (_bind(hi, binding),), hi_inclusive
    if low is None and high is None:
        counter = "btree_scan"
    return tree.spans(low, high, low_inclusive, high_inclusive, meter, counter)


# ----------------------------------------------------------------------
# Aggregation (value semantics shared by both paths)


def stable_sum(values):
    """Order-independent sum: exact ``math.fsum`` whenever floats appear.

    Different access paths feed aggregation in different row orders
    (index order vs heap order), and naive float addition is not
    associative — plans would return different SUM/AVG bits for the same
    data.  ``fsum`` is exactly rounded, so every ordering agrees.
    All-integer inputs keep ``sum()`` to preserve the ``int`` result type.
    """
    if any(isinstance(v, float) for v in values):
        return math.fsum(values)
    return sum(values)


def aggregate_values(aggregate, values: List[object], count: int):
    """Reduce one group given its non-NULL ``values`` and member ``count``.

    ``values`` must exclude SQL NULLs; ``count`` includes them (COUNT(*)
    semantics).  Both execution paths funnel through this function so
    SUM/AVG/MIN/MAX bits agree regardless of how members were gathered.
    """
    if aggregate.func is AggFunc.COUNT:
        return count if aggregate.column is None else len(values)
    if not values:
        return None
    if aggregate.func is AggFunc.SUM:
        return stable_sum(values)
    if aggregate.func is AggFunc.AVG:
        return stable_sum(values) / len(values)
    if aggregate.func is AggFunc.MIN:
        return min(values)
    if aggregate.func is AggFunc.MAX:
        return max(values)
    raise ExecutionError(f"unhandled aggregate {aggregate.func}")


def aggregate_runs(
    aggregate, cells: Optional[List[object]], starts: List[int], stops: List[int]
) -> List[object]:
    """Reduce each run ``cells[a:b]`` (``a``, ``b`` from ``starts``,
    ``stops``) exactly as :func:`aggregate_values` reduces its members.

    ``cells`` holds the aggregate column's values of every member, run
    after run, or is None where the column reads as NULL on every row.
    One type scan per call applies :func:`stable_sum`'s rule to the whole
    column (``math.fsum`` if any cell is a float, else ``sum``), so each
    run costs one C-level call on a slice; per run it picks the same,
    since a column's stored values all have its type's one Python form.
    Cells holding a NULL, and an empty batch's one empty run, go through
    :func:`aggregate_values` run by run: NULL semantics stay defined
    once.
    """
    func = aggregate.func
    bounds = zip(starts, stops)
    if func is AggFunc.COUNT and aggregate.column is None:
        return [b - a for a, b in bounds]
    if cells is None:
        return [aggregate_values(aggregate, [], b - a) for a, b in bounds]
    types = set(map(type, cells))
    if not cells or type(None) in types:
        return [
            aggregate_values(
                aggregate, [v for v in cells[a:b] if v is not None], b - a
            )
            for a, b in bounds
        ]
    if func is AggFunc.COUNT:
        return [b - a for a, b in bounds]
    if func is AggFunc.MIN:
        return [min(cells[a:b]) for a, b in bounds]
    if func is AggFunc.MAX:
        return [max(cells[a:b]) for a, b in bounds]
    total = math.fsum if any(issubclass(t, float) for t in types) else sum
    if func is AggFunc.SUM:
        return [total(cells[a:b]) for a, b in bounds]
    if func is AggFunc.AVG:
        return [total(cells[a:b]) / (b - a) for a, b in bounds]
    raise ExecutionError(f"unhandled aggregate {func}")


def compute_aggregate(aggregate, rows: List[RowDict]):
    """Reduce one group of row dictionaries (interpreter's view)."""
    if aggregate.func is AggFunc.COUNT and aggregate.column is None:
        return len(rows)
    values = [
        row.get(aggregate.column)
        for row in rows
        if row.get(aggregate.column) is not None
    ]
    return aggregate_values(aggregate, values, len(rows))
