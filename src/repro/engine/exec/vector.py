"""Vectorized batch operators for every plan shape the optimizer emits.

The vector path executes a whole plan subtree as array operations over
the columnar projection cache: predicate masks for clustered/index
scans, index seeks as the contiguous projection slice their leaf-span
walk (:meth:`~repro.engine.btree.BPlusTree.spans`) covers, a cached
sorted equi-index for hash-join build sides probed with
``np.searchsorted``, rank-code runs for stream/hash aggregates,
``np.lexsort`` for ORDER BY, and ``argpartition`` TOP-N selection.
Accesses that read clustered rows by key are batches of those row tuples
in a per-statement :class:`~repro.engine.exec.columns.RowImage` (no
cached projection): a key lookup over an index seek or scan (the child's
span walk drained, its primary keys sorted once and resolved in one
left-to-right pass over the clustered leaves), and a clustered seek (the
interpreter's own span walk over the clustered leaves).  A nested-loop
join over a clustered-seek inner is that walk once per outer value, in
outer order, the matches one batch.  An UPDATE/DELETE over a clustered
scan or seek or a key lookup takes its target rows from
:func:`target_rows`; the maintenance itself is batched in
:class:`~repro.engine.table.Table`.

Two invariants keep it indistinguishable from the interpreter:

- **Values**: output values are cells gathered from the original Python
  entry tuples, once per column; an aggregate's reducer is chosen once
  per statement by ``stable_sum``'s rule and applied per group slice
  (:func:`~repro.engine.exec.interp.aggregate_runs`, which keeps to
  ``aggregate_values``).  NumPy decides only *which* rows, in *what
  order*, in *which group*.
- **Metering**: the same charges land on the same counters through the
  shared formulas in :mod:`repro.engine.exec.metering` — a full scan
  charges ``height + leaf_pages - 1`` pages (what the B+ tree's
  leftmost descent plus leaf hops would have metered) and ticks
  ``btree_scan`` once, as the walk would have, a seek the pages
  of the very span walk the interpreter's seek drains, a key lookup
  ``height`` pages per key past its leaf's first position
  (``key_lookup_pages``) and the real walk for the rest, per-entry
  ``rows_processed``, ``sort_meter_rows`` for sorts, ``hash_rows`` for
  hash aggregates, and ``hash_join_meter_rows`` per hash-join side.

Whether a plan runs here is decided once, before anything is charged,
by :func:`refusal` from the plan, the statement's needed columns and the
tables' layouts; a plan it accepts runs to the end on the batch
operators, which tick the active profiler as the interpreter's walks do.
"""

from __future__ import annotations

import operator
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.engine.btree import PageMeter
from repro.engine.exec.columns import (
    ColumnImage,
    ColumnVector,
    GatheredRows,
    Projection,
    RowImage,
    contiguous_slice,
    row_builder,
)
from repro.engine.exec.interp import (
    RowDict,
    aggregate_runs,
    compile_predicates,
    index_entry_checks,
    index_entry_layout,
    seek_spans,
    sort_rows_inplace,
    topn_rows,
)
from repro.engine.exec.metering import (
    Meterings,
    hash_join_meter_rows,
    key_lookup_pages,
    sort_meter_rows,
)
from repro.engine.plans import (
    PARAM,
    ClusteredScanNode,
    ClusteredSeekNode,
    HashAggregateNode,
    HashJoinNode,
    IndexScanNode,
    IndexSeekNode,
    KeyLookupNode,
    NestedLoopJoinNode,
    PlanNode,
    SortNode,
    StreamAggregateNode,
    TopNode,
)
from repro.engine.query import Op
from repro.engine.table import Table
from repro.engine.types import SqlType, key_of
from repro.observability.profiling import active, count

_AGG_NODES = (StreamAggregateNode, HashAggregateNode)
#: What a batch key lookup reads its primary keys from.
_LOOKUP_CHILDREN = (IndexSeekNode, IndexScanNode)
#: Accesses other than key lookups: scans and seeks.
_SOURCE_NODES = (ClusteredScanNode, ClusteredSeekNode) + _LOOKUP_CHILDREN

#: Residual comparisons as array operators (BETWEEN is two of them).
_COMPARE = {
    Op.EQ: operator.eq,
    Op.NEQ: operator.ne,
    Op.LT: operator.lt,
    Op.LE: operator.le,
    Op.GT: operator.gt,
    Op.GE: operator.ge,
}


def refusal(
    plan: PlanNode,
    tables: Dict[str, Table],
    needed: Optional[Dict[str, Tuple[str, ...]]],
    min_rows: int,
) -> Optional[str]:
    """Why ``plan`` must run on the interpreter, or None to run it here.

    Decided from the plan, the statement's ``needed`` columns per table
    (:attr:`Meterings.needed`) and the tables' layouts, before anything
    is charged.  The batch grammar, in which every node has an operator
    (``Access`` is a clustered or index scan, a clustered or index seek,
    or a key lookup over an index seek or scan; ``Source`` is an
    ``Access``, a hash join of two, or a nested-loop join of an
    ``Access`` outer and a clustered-seek inner):

    - ``Source``
    - ``[Top] -> Sort -> Source``
    - ``[Top] -> (Stream|Hash)Agg -> Source``
    - ``[Top] -> Sort -> (Stream|Hash)Agg -> Source``

    A plan outside it is ``shape``: a malformed plan, or one no workload
    produces — a ``Top`` directly over a source (whose early exit charges
    only the rows it pulls), a nested-loop join over any other inner.
    Inside it, in this order: ``shape`` for an unknown driving table (a
    join's outer side), ``threshold`` when that table holds fewer than
    ``min_rows`` rows, then per access ``shape`` for an unknown table or
    index or a residual column its layout lacks, and ``literal`` for a
    NULL or parameter value an array comparison would meet; last,
    ``shape`` for a GROUP BY column no side carries.  The interpreter
    runs such a malformed plan as it runs any, raising where it raises.
    """
    node = plan
    group_by: Tuple[str, ...] = ()
    if isinstance(node, TopNode):
        node = node.child
        if not isinstance(node, (SortNode,) + _AGG_NODES):
            return "shape"  # TOP over a lazy source
    if isinstance(node, SortNode):
        node = node.child
    if isinstance(node, _AGG_NODES):
        group_by = node.group_by
        node = node.child
    if isinstance(node, NestedLoopJoinNode) and not isinstance(
        node.inner, ClusteredSeekNode
    ):
        return "shape"
    joined = isinstance(node, (HashJoinNode, NestedLoopJoinNode))
    sides = (node.outer, node.inner) if joined else (node,)
    if not all(
        isinstance(side, _SOURCE_NODES)
        or (
            isinstance(side, KeyLookupNode)
            and isinstance(side.child, _LOOKUP_CHILDREN)
        )
        for side in sides
    ):
        return "shape"
    driving = tables.get(sides[0].table)
    if driving is None:
        return "shape"
    if driving.row_count < min_rows:
        return "threshold"
    carried: Optional[Set[str]] = set() if group_by else None
    for side in sides:
        reason = _access_refusal(side, tables, needed, carried)
        if reason is not None:
            return reason
    if carried is not None and not carried.issuperset(group_by):
        return "shape"
    return None


def _access_refusal(
    node: PlanNode,
    tables: Dict[str, Table],
    needed: Optional[Dict[str, Tuple[str, ...]]],
    carried: Optional[Set[str]],
) -> Optional[str]:
    """:func:`refusal`'s verdict on one access; adds the columns its
    batch carries to ``carried`` unless that is None."""
    table = tables.get(node.table)
    if table is None:
        return "shape"
    lookup = isinstance(node, KeyLookupNode)
    walked = node.child if lookup else node
    if isinstance(walked, (ClusteredScanNode, ClusteredSeekNode)):
        layout = table.schema.column_names
    else:
        index = table.indexes.get(walked.index_name)
        if index is None:
            return "shape"
        layout = index_entry_layout(table, index.definition)
    if any(predicate.column not in layout for predicate in walked.residual):
        return "shape"
    if not (lookup or isinstance(walked, ClusteredSeekNode)):
        # Values an array comparison meets.  A walked access's entries go
        # through the interpreter's own walk and compiled checks, which
        # bind a join parameter and raise on an unbound one themselves.
        literals = (
            _seek_literals(walked) if isinstance(walked, IndexSeekNode) else []
        )
        for predicate in walked.residual:
            literals.append(predicate.value)
            if predicate.op is Op.BETWEEN:
                literals.append(predicate.value2)
        if any(value is None or value is PARAM for value in literals):
            return "literal"
    if carried is not None:
        names = table.schema.column_names
        if lookup:
            layout = names  # a lookup's batch holds whole rows
        if needed is not None and table.name in needed:
            names = needed[table.name]
        carried.update(name for name in names if name in layout)
    return None


def run(
    plan: PlanNode,
    tables: Dict[str, Table],
    meters: Meterings,
    project_columns: Optional[Tuple[str, ...]] = None,
) -> Tuple[Sequence[RowDict], int]:
    """Execute a plan :func:`refusal` accepts; return (rows, batch row
    count).

    Scan, seek, key-lookup, join and sort outputs are a
    :class:`~repro.engine.exec.columns.GatheredRows`: every output cell
    is gathered here, and the row dicts are built on first read, so
    ``len()`` is free.  Aggregate outputs are built lists (their
    reductions can raise, and their sort reads their values).

    ``project_columns``, when given, is the query's final SELECT list:
    scan, join, and sort outputs are gathered directly in that shape
    (missing columns as ``None``), sparing the dispatcher's per-row
    re-projection.  Aggregate outputs ignore it — the aggregate
    operators already shape their rows, exactly as in the interpreter.
    """
    runner = _Runner(tables, meters, project_columns)
    return runner.run(plan), runner.batch_rows


def target_rows(
    node: PlanNode, tables: Dict[str, Table], meters: Meterings
) -> List[tuple]:
    """The rows an UPDATE/DELETE fed by ``node``, a clustered scan or
    seek or a key lookup :func:`refusal` accepts, targets, in plan order.

    Over a clustered scan, the scan's residual mask over the table's
    clustered projection selects them; over a clustered seek or a key
    lookup, its walk fetches them.  Either is the batch a vectorized
    SELECT's access reads, charged as it is, and the rows are the
    table's own row tuples.
    """
    batch = _Runner(tables, meters)._access_batch(node)
    return batch.projection.payloads_at(batch.selected)


class _ScanBatch:
    """Filtered rows of one scanned or seeked tree, as projection
    positions.

    ``selected`` holds the positions (in scan order) of rows passing the
    node's residual predicates: over the whole projection for a scan,
    over the seek's slice of it for a seek.  ``has`` mirrors the
    interpreter's row dictionaries exactly: a column is visible only
    when it is in the statement's needed set for this table *and* the
    projection carries it (index projections carry only their entry
    layout).
    """

    __slots__ = ("table", "projection", "selected", "_carried")

    def __init__(
        self,
        table: Table,
        projection: ColumnImage,
        selected: np.ndarray,
        needed_names: Tuple[str, ...],
    ) -> None:
        self.table = table
        self.projection = projection
        self.selected = selected
        #: Needed-set order, filtered to what this projection carries —
        #: the key set (and order) of the interpreter's row dicts.
        self._carried = tuple(
            name for name in needed_names if projection.has(name)
        )

    @property
    def count(self) -> int:
        return len(self.selected)

    def has(self, column: str) -> bool:
        return column in self._carried

    def output_names(self) -> Tuple[str, ...]:
        return self._carried

    def codes(self, column: str) -> np.ndarray:
        return self.projection.vector(column).codes()[self.selected]

    def gather(self, column: str, positions: np.ndarray) -> List[object]:
        """The column's cells at batch ``positions``, read from the
        entry tuples in one C-level pass."""
        raw = self.projection.raw_column(column)
        return list(map(raw.__getitem__, self.selected[positions].tolist()))

    def materialize(
        self,
        order: Optional[np.ndarray],
        names: Tuple[str, ...],
        missing_as_none: bool = False,
    ) -> GatheredRows:
        indices = self.selected if order is None else self.selected[order]
        return self.projection.materialize(indices, names, missing_as_none)


class _JoinBatch:
    """Matched row pairs of a hash or nested-loop join, as per-side
    image positions.

    Column resolution mirrors the interpreter's merged dictionary
    ``{**inner_row, **outer_row}``: the outer (probe) side wins name
    collisions, the inner (build) side fills the rest, and columns
    carried by neither side read as missing.
    """

    __slots__ = ("outer", "inner", "outer_pos", "inner_pos")

    def __init__(
        self,
        outer: _ScanBatch,
        inner: _ScanBatch,
        outer_pos: np.ndarray,
        inner_pos: np.ndarray,
    ) -> None:
        self.outer = outer
        self.inner = inner
        self.outer_pos = outer_pos
        self.inner_pos = inner_pos

    @property
    def count(self) -> int:
        return len(self.outer_pos)

    def has(self, column: str) -> bool:
        return self.outer.has(column) or self.inner.has(column)

    def _side(self, column: str) -> Tuple[_ScanBatch, np.ndarray]:
        if self.outer.has(column):
            return self.outer, self.outer_pos
        return self.inner, self.inner_pos

    def output_names(self) -> Tuple[str, ...]:
        """Merged-dict key order: inner carried names, then outer ones."""
        names = dict.fromkeys(self.inner.output_names())
        for name in self.outer.output_names():
            names.setdefault(name)
        return tuple(names)

    def codes(self, column: str) -> np.ndarray:
        side, pos = self._side(column)
        return side.projection.vector(column).codes()[pos]

    def gather(self, column: str, positions: np.ndarray) -> List[object]:
        side, pos = self._side(column)
        raw = side.projection.raw_column(column)
        return list(map(raw.__getitem__, pos[positions].tolist()))

    def materialize(
        self,
        order: Optional[np.ndarray],
        names: Tuple[str, ...],
        missing_as_none: bool = False,
    ) -> GatheredRows:
        if not missing_as_none:
            names = tuple(name for name in names if self.has(name))
        outer_idx = self.outer_pos if order is None else self.outer_pos[order]
        inner_idx = self.inner_pos if order is None else self.inner_pos[order]
        n = len(outer_idx)
        if n == 0 or not names:
            return GatheredRows(names, [], n)
        pickers: Dict[bool, object] = {}

        def gather(raw: List[object], positions: np.ndarray, is_outer: bool):
            pick = pickers.get(is_outer)
            if pick is None:
                span = contiguous_slice(positions)
                if span is not None:
                    pick = span
                elif n > 1:
                    pick = operator.itemgetter(*positions.tolist())
                else:
                    pick = operator.itemgetter(int(positions[0]))
                pickers[is_outer] = pick
            if type(pick) is tuple:
                return raw[pick[0]:pick[1]]
            cells = pick(raw)
            return cells if n > 1 else (cells,)

        gathered = []
        for name in names:
            if self.outer.has(name):
                raw = self.outer.projection.raw_column(name)
                gathered.append(gather(raw, outer_idx, True))
            elif self.inner.has(name):
                raw = self.inner.projection.raw_column(name)
                gathered.append(gather(raw, inner_idx, False))
            else:
                gathered.append((None,) * n)
        return GatheredRows(names, gathered, n)


class _Runner:
    def __init__(
        self,
        tables: Dict[str, Table],
        meters: Meterings,
        project_columns: Optional[Tuple[str, ...]] = None,
    ) -> None:
        self._tables = tables
        self._meters = meters
        self._project_columns = project_columns
        #: Rows that flowed through vectorized batch operators.
        self.batch_rows = 0

    # -- plan walk ------------------------------------------------------

    def run(self, plan: PlanNode) -> Sequence[RowDict]:
        node = plan
        limit: Optional[int] = None
        if isinstance(node, TopNode):
            limit = node.limit
            node = node.child
        if isinstance(node, SortNode):
            if isinstance(node.child, _AGG_NODES):
                rows = self._run_aggregate(
                    self._source_batch(node.child.child), node.child
                )
                return self._sort_dict_rows(rows, node.order_by, limit)
            return self._run_sort(self._source_batch(node.child), node, limit)
        if isinstance(node, _AGG_NODES):
            rows = self._run_aggregate(self._source_batch(node.child), node)
            return rows if limit is None else rows[:limit]
        return self._materialize_batch(self._source_batch(node))

    def _source_batch(self, node: PlanNode):
        if isinstance(node, HashJoinNode):
            return self._run_join(node)
        if isinstance(node, NestedLoopJoinNode):
            return self._run_nl_join(node)
        return self._access_batch(node)

    def _access_batch(self, node: PlanNode) -> "_ScanBatch":
        if isinstance(node, ClusteredSeekNode):
            return self._seek_batch(node, [None])[0]
        if isinstance(node, KeyLookupNode):
            return self._lookup_batch(node)
        return self._scan_batch(node)

    # -- scans ----------------------------------------------------------

    def _scan_batch(self, node) -> _ScanBatch:
        table = self._tables[node.table]
        if isinstance(node, ClusteredScanNode):
            projection = table.projection(None)
        else:
            # UnknownIndexError, as in the interpreter.
            index = table.get_index(node.index_name)
            projection = table.projection(node.index_name)
        # Raises on unknown needed columns exactly as the interpreter's
        # per-scan columns_for call does.
        names, _positions = self._meters.columns_for(table)
        operands = [
            (predicate, projection.vector(predicate.column))
            for predicate in node.residual
        ]
        if isinstance(node, IndexSeekNode):
            start, stop = self._seek_range(node, index.tree, projection)
        else:
            self._meters.page_meter.charge(projection.scan_pages)
            count("btree_scan")
            start, stop = 0, projection.row_count
        self._meters.rows_processed += stop - start
        self.batch_rows += stop - start
        count("vector_batch")
        if operands:
            mask = _mask(*operands[0], start, stop)
            for extra in operands[1:]:
                mask &= _mask(*extra, start, stop)
            selected = np.flatnonzero(mask) + start
        else:
            selected = np.arange(start, stop, dtype=np.int64)
        return _ScanBatch(table, projection, selected, names)

    def _seek_range(
        self, node: IndexSeekNode, tree, projection: Projection
    ) -> Tuple[int, int]:
        """The seek's entries as the projection slice ``[start, stop)``.

        The tree's span walk counts them and charges its pages, as the
        interpreter's seek does when drained; the first entry's order
        key, bisected in the projection's (the same entries, in the
        same order), places the slice.
        """
        start = rows = 0
        for leaf, a, b in seek_spans(tree, node, self._meters.page_meter):
            if not rows:
                start = projection.position(leaf.nkeys[a])
            rows += b - a
        return start, start + rows

    # -- key lookups ----------------------------------------------------

    def _lookup_batch(self, node: KeyLookupNode) -> _ScanBatch:
        """The clustered rows a key lookup yields, in its child's order, as
        a batch over their own columnar image.

        The child's span walk is drained as the interpreter's seek or
        scan drains it (same pages, same counter tick) and its residuals
        are checked on the raw entries by the interpreter's own compiled
        checks; the primary keys are the entry keys' suffix.  The keys
        are then resolved in one sorted pass over the clustered leaves
        (:meth:`~repro.engine.btree.BPlusTree.fetch_sorted`), charged
        ``height`` pages each by :func:`key_lookup_pages` and ticked as
        one ``btree_seek`` each; a key that pass leaves to the real walk
        takes :meth:`~repro.engine.table.Table.fetch_by_pk`, exactly the
        interpreter's lookup.  No column-cache projection is read.
        """
        table = self._tables[node.table]
        # Raises on unknown needed columns as the interpreter's lookup does.
        names, _positions = self._meters.columns_for(table)
        child = node.child
        # The interpreter's order: the lookup's residuals, then its
        # child's index and residuals.
        lookup_checks = compile_predicates(node.residual, table.schema.position)
        index = table.get_index(child.index_name)
        entry_checks = index_entry_checks(table, index.definition, child.residual)
        meter = self._meters.page_meter
        if isinstance(child, IndexSeekNode):
            spans = seek_spans(index.tree, child, meter)
        else:
            spans = index.tree.spans(meter=meter, counter="btree_scan")
        key_len = len(index.definition.key_columns)
        pks: List[tuple] = []
        entries = 0
        for leaf, a, b in spans:
            entries += b - a
            if not entry_checks:
                pks.extend([key[key_len:] for key in leaf.keys[a:b]])
                continue
            for key, payload in zip(leaf.keys[a:b], leaf.payloads[a:b]):
                entry = key + payload
                if all(check(entry) for check in entry_checks):
                    pks.append(key[key_len:])
        rows = [row for row in _fetch_rows(table, pks, meter) if row is not None]
        self._meters.rows_processed += entries + len(rows)
        self.batch_rows += entries + len(rows)
        count("vector_batch")
        if lookup_checks:
            rows = [
                row for row in rows if all(check(row) for check in lookup_checks)
            ]
        return _row_batch(table, rows, names)

    # -- clustered seeks and nested-loop joins ---------------------------

    def _seek_batch(
        self, node: ClusteredSeekNode, bindings: List[object]
    ) -> Tuple[_ScanBatch, List[int]]:
        """The rows a clustered seek yields under each of ``bindings`` in
        turn (a nested-loop join's outer values, or ``[None]``), as one
        batch over their own columnar image, and how many each binding
        yielded.

        Each binding is the interpreter's seek: the span walk over the
        clustered leaves (:func:`~repro.engine.exec.interp.seek_spans`,
        same pages, same counter tick), every entry counted and checked
        by the interpreter's compiled residual checks.
        """
        table = self._tables[node.table]
        # Raises on unknown needed columns as the interpreter's seek does.
        names, _positions = self._meters.columns_for(table)
        checks = compile_predicates(node.residual, table.schema.position)
        meter = self._meters.page_meter
        rows: List[tuple] = []
        counts = []
        for binding in bindings:
            spans = seek_spans(table.clustered, node, meter, binding)
            entries = [r for leaf, a, b in spans for r in leaf.payloads[a:b]]
            self._meters.rows_processed += len(entries)
            self.batch_rows += len(entries)
            found = [row for row in entries if all(c(row) for c in checks)]
            rows += found
            counts.append(len(found))
        count("vector_batch")
        return _row_batch(table, rows, names), counts

    def _run_nl_join(self, node: NestedLoopJoinNode) -> "_JoinBatch":
        """A nested-loop join over a clustered-seek inner: the seek walked
        once per outer row's value, in outer order, as the interpreter
        binds it, and the matches one batch."""
        join = node.join
        outer = self._access_batch(node.outer)
        values = []
        if outer.has(join.left_column):
            values = outer.gather(join.left_column, np.arange(outer.count))
        # Text never equals a number (the hash join's rule) and cannot
        # be ordered against one in a seek: such probes match nothing,
        # and neither does a NULL.
        right = self._tables[join.table].schema.column(join.right_column)
        text_key = right.sql_type is SqlType.TEXT
        probes = [
            i
            for i, value in enumerate(values)
            if value is not None and isinstance(value, str) is text_key
        ]
        inner, counts = self._seek_batch(
            node.inner, [values[i] for i in probes]
        )
        outer_pos = np.repeat(outer.selected[probes], counts)
        return _JoinBatch(outer, inner, outer_pos, inner.selected)

    # -- hash join ------------------------------------------------------

    def _run_join(self, node: HashJoinNode) -> _JoinBatch:
        join = node.join
        # Build (inner) side first, probe (outer) second — the
        # interpreter's consumption order, so error surfacing matches.
        inner = self._access_batch(node.inner)
        outer = self._access_batch(node.outer)
        # One hash charge per post-residual row on each side, exactly
        # what the interpreter's per-row build/probe increments total.
        self._meters.hash_rows += hash_join_meter_rows(inner.count)
        self._meters.hash_rows += hash_join_meter_rows(outer.count)
        empty = np.empty(0, dtype=np.int64)
        if (
            inner.count == 0
            or outer.count == 0
            or not inner.has(join.right_column)
            or not outer.has(join.left_column)
        ):
            # A key column missing from a side reads as NULL on every
            # row there, and NULL never matches — output is empty while
            # scan/hash charges stand, as in the interpreter.
            return _JoinBatch(outer, inner, empty, empty)
        outer_vec = outer.projection.vector(join.left_column)
        inner_vec = inner.projection.vector(join.right_column)
        valid_probe = ~outer_vec.nulls[outer.selected]
        probe_pos = outer.selected[valid_probe]
        if probe_pos.size == 0:
            return _JoinBatch(outer, inner, empty, empty)
        reconciled = _join_key_arrays(
            probe_pos, outer_vec.values[probe_pos], inner_vec
        )
        if reconciled is None:
            # Incomparable key domains (string vs numeric): Python
            # equality never matches across them.
            return _JoinBatch(outer, inner, empty, empty)
        probe_pos, probe_vals, sorted_vals, order = reconciled
        if sorted_vals.size and bool(
            (sorted_vals[1:] != sorted_vals[:-1]).all()
        ):
            # Unique build keys (the common FK-join shape): each probe
            # matches at most one build row, so one searchsorted plus an
            # equality check replaces the lo/hi range expansion.  Output
            # pairs are identical to the generic path's: probe-major
            # order with every count in {0, 1}.
            slot = np.searchsorted(sorted_vals, probe_vals, side="left")
            slot = np.minimum(slot, sorted_vals.size - 1)
            matched = sorted_vals[slot] == probe_vals
            outer_pos = probe_pos[matched]
            inner_pos = order[slot[matched]]
        else:
            lo = np.searchsorted(sorted_vals, probe_vals, side="left")
            hi = np.searchsorted(sorted_vals, probe_vals, side="right")
            outer_pos, inner_pos = _expand_matches(probe_pos, lo, hi, order)
        if inner.count != inner.projection.row_count:
            # Build-side residuals: keep only matches into selected rows.
            build_mask = np.zeros(inner.projection.row_count, dtype=bool)
            build_mask[inner.selected] = True
            keep = build_mask[inner_pos]
            outer_pos, inner_pos = outer_pos[keep], inner_pos[keep]
        return _JoinBatch(outer, inner, outer_pos, inner_pos)

    # -- materialization ------------------------------------------------

    def _materialize_batch(
        self, batch, order: Optional[np.ndarray] = None
    ) -> GatheredRows:
        if self._project_columns is not None:
            if isinstance(batch, _ScanBatch):
                for name in self._project_columns:
                    if not batch.projection.has(name):
                        # Unknown columns must raise exactly as the
                        # interpreter's columns_for does; known-but-absent
                        # ones (non-covering projections) become None.
                        batch.table.schema.position(name)
            return batch.materialize(
                order, self._project_columns, missing_as_none=True
            )
        return batch.materialize(order, batch.output_names())

    # -- sort / TOP-N ---------------------------------------------------

    def _run_sort(self, batch, node: SortNode, limit: Optional[int]):
        n = batch.count
        self._meters.sort_rows += sort_meter_rows(n, limit)
        keys = []
        for item in node.order_by:
            if batch.has(item.column):
                codes = batch.codes(item.column)
            else:
                # The interpreter keys a missing column as NULL for every
                # row: a constant key, i.e. a stable no-op pass.
                codes = np.zeros(n, dtype=np.int64)
            keys.append(codes if item.ascending else -codes)
        order = _ordering(keys, n, limit)
        return self._materialize_batch(batch, order)

    def _sort_dict_rows(
        self, rows: List[RowDict], order_by, limit: Optional[int]
    ) -> List[RowDict]:
        """Sort aggregate output exactly as the interpreter's SortNode."""
        self._meters.sort_rows += sort_meter_rows(len(rows), limit)
        if limit is not None and limit < len(rows):
            return topn_rows(rows, order_by, limit)
        sort_rows_inplace(rows, order_by)
        return rows

    # -- aggregation ----------------------------------------------------

    def _run_aggregate(self, batch, node) -> List[RowDict]:
        n = batch.count
        group_by = node.group_by
        if isinstance(node, HashAggregateNode):
            self._meters.hash_rows += n
        if not group_by:
            members = np.arange(n, dtype=np.int64)
            starts, stops, keys = [0], [n], []
        elif n == 0:
            return []
        else:
            members, first, last = _group_runs(
                [batch.codes(column) for column in group_by]
            )
            keys = [batch.gather(column, members[first]) for column in group_by]
            starts, stops = first.tolist(), last.tolist()
        # Each aggregate column's cells, run after run, gathered once per
        # statement; a column the batch lacks reads as NULL on every row
        # (as the interpreter's row.get does) and gathers nothing.
        cells: Dict[str, List[object]] = {}
        results = []
        for aggregate in node.aggregates:
            column = aggregate.column
            if column is not None and column not in cells and batch.has(column):
                cells[column] = batch.gather(column, members)
            results.append(
                aggregate_runs(aggregate, cells.get(column), starts, stops)
            )
        names = group_by + tuple(aggregate.label() for aggregate in node.aggregates)
        if len(set(names)) < len(names):
            # A label naming a group column keeps the key's first
            # position and takes the last value, as the interpreter's
            # sequential assignments do.
            return [dict(zip(names, row)) for row in zip(*keys, *results)]
        return row_builder(names)(keys + results)


def _row_batch(
    table: Table, rows: List[tuple], names: Tuple[str, ...]
) -> _ScanBatch:
    """Clustered row tuples as a batch over their own columnar image."""
    return _ScanBatch(
        table,
        RowImage(table.schema, rows),
        np.arange(len(rows), dtype=np.int64),
        names,
    )


def _seek_literals(node: IndexSeekNode) -> List[object]:
    """The literals that bound a seek's span walk."""
    literals = [predicate.value for predicate in node.eq_predicates]
    if node.range_predicate is not None:
        literals.append(node.range_predicate.value)
        if node.range_predicate.op is Op.BETWEEN:
            literals.append(node.range_predicate.value2)
    return literals


def _fetch_rows(
    table: Table, pks: List[tuple], meter: PageMeter
) -> List[Optional[tuple]]:
    """Each primary key's clustered row (None if absent), in ``pks``
    order, charged and ticked as one interpreter key lookup per key."""
    nkeys = [key_of(pk) for pk in pks]
    order = sorted(range(len(pks)), key=nkeys.__getitem__)
    tree = table.clustered
    rows: List[Optional[tuple]] = [None] * len(pks)
    walked = 0
    for i, row in zip(order, tree.fetch_sorted([nkeys[i] for i in order])):
        if row is None:
            walked += 1
            row = table.fetch_by_pk(pks[i], meter=meter)
        rows[i] = row
    batched = len(pks) - walked
    meter.charge(key_lookup_pages(batched, tree.height))
    if batched:
        active().absorb("btree_seek", batched, 0.0)
    return rows


def _mask(predicate, vector: ColumnVector, start: int, stop: int) -> np.ndarray:
    """Which rows ``[start, stop)`` of ``vector`` pass ``predicate``
    (a NULL passes none)."""
    values = vector.values[start:stop]
    valid = ~vector.nulls[start:stop]
    if predicate.op is Op.BETWEEN:
        return (values >= predicate.value) & (values <= predicate.value2) & valid
    return _COMPARE[predicate.op](values, predicate.value) & valid


# ----------------------------------------------------------------------
# Join key matching


def _join_key_arrays(
    probe_pos: np.ndarray, probe_vals: np.ndarray, inner_vec: ColumnVector
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Comparable (probe positions, their values, sorted build values,
    build order).

    Reconciles the two sides' array dtypes under Python ``==``, the rule
    the interpreter's build dict applies: same-kind arrays compare
    directly; string vs numeric never match; int64 vs float64 compare
    exactly in int64, so a float side keeps only its integral values in
    int64 range, cast (a cast that keeps sortedness), and any other
    float matches no int.  (FLOAT columns hold no NaN:
    ``SqlType.coerce`` rejects it.)
    """
    order, sorted_vals = inner_vec.equi_index()
    pk, bk = probe_vals.dtype.kind, sorted_vals.dtype.kind
    if pk == bk:
        return probe_pos, probe_vals, sorted_vals, order
    if pk not in "if" or bk not in "if":
        return None
    if pk == "f":
        exact = _int_valued(probe_vals)
        probe_pos, probe_vals = probe_pos[exact], probe_vals[exact]
        return probe_pos, probe_vals.astype(np.int64), sorted_vals, order
    exact = _int_valued(sorted_vals)
    return probe_pos, probe_vals, sorted_vals[exact].astype(np.int64), order[exact]


def _int_valued(values: np.ndarray) -> np.ndarray:
    """Which float64 ``values`` equal an int64: integral and within
    ``[-2**63, 2**63)`` (infinities are neither)."""
    return (np.floor(values) == values) & (values >= -(2.0**63)) & (
        values < 2.0**63
    )


def _expand_matches(
    probe_pos: np.ndarray, lo: np.ndarray, hi: np.ndarray, order: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Expand per-probe match ranges into aligned position pairs.

    Output order is probe-major (outer scan order) with each probe's
    matches in build scan order — exactly the interpreter's loop
    nesting over its build dict's per-key lists.
    """
    counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    starts = np.repeat(lo, counts)
    ends = np.cumsum(counts)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)
    inner_pos = order[starts + offsets]
    outer_pos = np.repeat(probe_pos, counts)
    return outer_pos, inner_pos


# ----------------------------------------------------------------------
# Grouping and ordering


def _group_runs(
    code_columns: List[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batch positions sorted into one run per group, and each run's
    start and stop in ``members``, runs in first-appearance order.

    A stable argsort keeps input order inside each run, so a run's first
    member is its group's first appearance: ordered by it, the runs are
    the groups in the dict-insertion order the interpreter produces.
    Several code columns fold into one key first, the dense ranks of the
    key so far times the next column's code width plus its codes (ranks
    stay below the batch size, so the key fits int64).
    """
    key = code_columns[0]
    for codes in code_columns[1:]:
        _uniq, rank = np.unique(key, return_inverse=True)
        key = rank.reshape(-1) * (int(codes.max()) + 2) + (codes + 1)
    if int(key.max()) < 1 << 15:
        # Same order, but NumPy's stable sort radix-sorts 16-bit keys.
        key = key.astype(np.int16)
    members = np.argsort(key, kind="stable")
    ordered = key[members]
    boundary = np.empty(len(key), dtype=bool)
    boundary[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    stops = np.append(starts[1:], len(key))
    appearance = np.argsort(members[starts])
    return members, starts[appearance], stops[appearance]


def _ordering(
    keys: List[np.ndarray], n: int, limit: Optional[int]
) -> np.ndarray:
    """Stable sort order over rank-code keys, optionally TOP-N limited.

    ``np.lexsort`` (stable, last key primary) over the reversed key list
    reproduces the interpreter's repeated stable passes.  With a limit, a
    single composite int64 key (ranks chained, input index as the final
    tie-break) allows ``argpartition`` selection; if the composite would
    overflow int64 we fall back to slicing the full stable order.
    """
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if limit is not None and limit <= 0:
        return np.empty(0, dtype=np.int64)
    if limit is not None and limit < n:
        composite = _composite_codes(keys, n)
        if composite is not None:
            partitioned = np.argpartition(composite, limit - 1)[:limit]
            return partitioned[np.argsort(composite[partitioned])]
    order = np.lexsort(tuple(reversed(keys)))
    if limit is not None and limit < n:
        order = order[:limit]
    return order


def _composite_codes(
    keys: List[np.ndarray], n: int
) -> Optional[np.ndarray]:
    """Chain rank-code keys plus the input index into one int64 key.

    Returns None when the combined range would overflow int64 (many
    wide keys); the caller then uses the full lexsort instead.
    """
    composite = np.zeros(n, dtype=np.int64)
    max_value = 0
    for key in keys:
        low = int(key.min())
        span = int(key.max()) - low + 1
        max_value = max_value * span + (span - 1)
        if max_value >= (1 << 62) // max(n, 1):
            return None
        composite = composite * span + (key - low)
    composite = composite * n + np.arange(n, dtype=np.int64)
    return composite
