"""Tables: a clustered B+ tree plus secondary indexes.

Every table is organized as a clustered index on its primary key (the SQL
Server default); secondary non-clustered indexes store their key columns
plus the clustering key as the row locator, plus any included columns at
the leaf.  DML maintains every secondary index, and the page charges of
that maintenance are metered — this is the mechanism by which an
over-eager index recommendation makes writes measurably slower, the main
source of MI-recommendation reverts reported in Section 8.1.

An UPDATE rewrites an entry whose key stays put in place
(:meth:`BPlusTree.replace`, structurally the delete + insert it stands
for) and deletes + re-inserts only an entry whose key moves; either way
the page charge is the same arithmetic.  Each DML batch ticks the
``btree_insert`` / ``btree_delete`` / ``btree_replace`` profiler rows
once, with the number of tree entries it maintained.
"""

from __future__ import annotations

import math
import operator
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.btree import BPlusTree, PageMeter
from repro.engine.schema import IndexDefinition, TableSchema
from repro.engine.statistics import (
    TableStatistics,
    build_column_statistics,
)
from repro.engine.types import rows_per_page
from repro.errors import (
    DuplicateObjectError,
    ExecutionError,
    SchemaError,
    UnknownIndexError,
)
from repro.observability.profiling import active


def _tick(name: str, entries: int) -> None:
    """Count ``entries`` B+ tree operations on the active profiler."""
    if entries:
        active().absorb(name, entries, 0.0)


class IndexStatsView:
    """Size/shape statistics of an index, real or hypothetical.

    The optimizer costs hypothetical (what-if) indexes without building
    them; this view provides the same numbers either from an actual tree
    or from closed-form estimates.
    """

    __slots__ = ("rows", "leaf_pages", "height")

    def __init__(self, rows: int, leaf_pages: int, height: int) -> None:
        self.rows = rows
        self.leaf_pages = max(1, leaf_pages)
        self.height = max(1, height)

    @classmethod
    def from_tree(cls, tree: BPlusTree) -> "IndexStatsView":
        return cls(len(tree), tree.leaf_page_count, tree.height)

    @classmethod
    def estimate(
        cls, rows: int, entry_width: int, internal_key_width: int
    ) -> "IndexStatsView":
        """Closed-form shape estimate used for hypothetical indexes."""
        leaf_fanout = rows_per_page(entry_width)
        leaf_pages = max(1, math.ceil(rows / leaf_fanout)) if rows else 1
        internal_fanout = max(2, rows_per_page(internal_key_width + 8))
        height = 1
        level = leaf_pages
        while level > 1:
            level = math.ceil(level / internal_fanout)
            height += 1
        return cls(rows=rows, leaf_pages=leaf_pages, height=height)

    @property
    def size_bytes(self) -> int:
        from repro.engine.types import PAGE_SIZE

        return self.leaf_pages * PAGE_SIZE


class SecondaryIndex:
    """A materialized non-clustered index on a table."""

    def __init__(self, definition: IndexDefinition, schema: TableSchema) -> None:
        if definition.clustered:
            raise SchemaError("SecondaryIndex cannot be clustered")
        for column in definition.all_columns:
            schema.position(column)  # validates existence
        self.definition = definition
        #: Columns whose update forces maintenance of this index.
        self.maintained = frozenset(definition.all_columns) | frozenset(
            schema.primary_key
        )
        self._key_of = schema.projector(
            tuple(definition.key_columns) + tuple(schema.primary_key)
        )
        self._payload_of = schema.projector(definition.included_columns)
        entry_width = schema.row_width(definition.all_columns) + schema.row_width(
            schema.primary_key
        )
        key_width = schema.row_width(definition.key_columns)
        self.tree = BPlusTree(
            leaf_capacity=rows_per_page(entry_width),
            internal_capacity=max(4, rows_per_page(key_width + 8)),
        )
        self.created_at: float = 0.0

    def bulk_load(self, entries: Iterable[Tuple[tuple, tuple]]) -> None:
        """Rebuild the tree from ``(key, payload)`` entries, keeping the
        page geometry the definition fixed at construction."""
        self.tree = BPlusTree.bulk_load(
            entries,
            leaf_capacity=self.tree.leaf_capacity,
            internal_capacity=self.tree.internal_capacity,
        )

    @property
    def name(self) -> str:
        return self.definition.name

    def entry_for_row(self, row: tuple) -> Tuple[tuple, tuple]:
        """(key, payload): key = key columns + PK, payload = included columns."""
        return self._key_of(row), self._payload_of(row)

    def stats_view(self) -> IndexStatsView:
        return IndexStatsView.from_tree(self.tree)


class Table:
    """A table: clustered index on the primary key plus secondary indexes."""

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        row_width = schema.row_width()
        pk_width = schema.row_width(schema.primary_key)
        self.clustered = BPlusTree(
            leaf_capacity=rows_per_page(row_width),
            internal_capacity=max(4, rows_per_page(pk_width + 8)),
        )
        self.indexes: Dict[str, SecondaryIndex] = {}
        self.statistics = TableStatistics(schema.name)
        #: Bumped on every index create/drop; resets the MI DMV (Section 5.2).
        self.schema_version = 0
        #: Bumped on every statistics (re)build; part of a held what-if
        #: substrate's stamp, so the substrate is rebuilt after a stats
        #: refresh.
        self.stats_version = 0
        #: Bumped once per row a DML mutation changes (see ``_changed``);
        #: cost estimates depend on live tree shape and row count, so
        #: cached plans go stale on data change.
        self.data_version = 0
        #: Columnar projection cache for the vectorized executor, created
        #: lazily on first vectorized scan.  ``clone()`` builds a fresh
        #: Table, so B-instance forks never share projections.
        self._columnar = None
        #: (all columns, key length) -> (entry width, key width) of a
        #: hypothetical index; see :meth:`hypothetical_widths`.
        self._hypothetical_widths: Dict[tuple, Tuple[int, int]] = {}

    # ------------------------------------------------------------------
    # Introspection

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def row_count(self) -> int:
        return len(self.clustered)

    @property
    def data_pages(self) -> int:
        return self.clustered.leaf_page_count

    def clustered_stats_view(self) -> IndexStatsView:
        return IndexStatsView.from_tree(self.clustered)

    def rows(self) -> Iterator[tuple]:
        """Unmetered scan of all rows in PK order."""
        for _key, row in self.clustered.items():
            yield row

    def get_index(self, name: str) -> SecondaryIndex:
        try:
            return self.indexes[name]
        except KeyError:
            raise UnknownIndexError(
                f"index {name!r} not found on table {self.name!r}"
            ) from None

    def index_definitions(self) -> List[IndexDefinition]:
        return [index.definition for index in self.indexes.values()]

    def columnar(self):
        """The table's columnar projection cache (created on first use).

        Every DML path reports the rows it changed through
        :meth:`_changed`, and the cache folds them into its projections
        on the next read; index DDL, and any ``data_version`` step the
        log does not account for, make it rebuild from the trees.  The
        cache holds no reference back to the table.
        """
        if self._columnar is None:
            from repro.engine.exec.columns import ColumnarCache

            self._columnar = ColumnarCache(
                (self.data_version, self.schema_version)
            )
        return self._columnar

    def projection(self, index_name: Optional[str] = None):
        """The columnar image of one tree (None = clustered), current as
        of now and valid until the table's next write."""
        return self.columnar().projection(self, index_name)

    @property
    def columnar_stats(self) -> Tuple[int, int, int]:
        """(hits, misses, invalidations) of the cache; zeros if unused."""
        cache = self._columnar
        if cache is None:
            return (0, 0, 0)
        return (cache.hits, cache.misses, cache.invalidations)

    @property
    def columnar_delta_rows(self) -> int:
        """Row changes the cache folded into live projections."""
        cache = self._columnar
        return 0 if cache is None else cache.delta_rows

    def hypothetical_stats_view(self, definition: IndexDefinition) -> IndexStatsView:
        """Estimated shape for an index that does not exist.

        Raises :class:`UnknownColumnError` for a column the table lacks.
        The shape follows the live row count.
        """
        return IndexStatsView.estimate(
            self.row_count, *self.hypothetical_widths(definition)
        )

    def hypothetical_widths(self, definition: IndexDefinition) -> Tuple[int, int]:
        """An index entry's width and its key's, for an index that does
        not exist.  Raises :class:`UnknownColumnError` for a column the
        table lacks, so it also validates a definition that is never
        estimated.  They depend only on the definition's columns and the
        schema, so they are memoized per column list."""
        columns = (definition.all_columns, len(definition.key_columns))
        widths = self._hypothetical_widths.get(columns)
        if widths is None:
            schema = self.schema
            widths = self._hypothetical_widths[columns] = (
                schema.row_width(definition.all_columns)
                + schema.row_width(schema.primary_key),
                schema.row_width(definition.key_columns),
            )
        return widths

    # ------------------------------------------------------------------
    # DML (metered)

    def _changed(
        self, changes: Sequence[Tuple[Optional[tuple], Optional[tuple]]]
    ) -> None:
        """The one place ``data_version`` moves: one step per changed
        row, each logged as ``(old_row | None, new_row | None)`` for the
        columnar cache to fold into its projections."""
        self.data_version += len(changes)
        if self._columnar is not None:
            self._columnar.log_changes(changes, self.row_count)

    def insert(self, row: Sequence[object], meter: Optional[PageMeter] = None) -> tuple:
        """Insert one row: the one-row spelling of :meth:`insert_rows`."""
        return self.insert_rows((row,), meter)[0]

    # The three methods below apply clustered operations in row order,
    # then one grouped pass per secondary index: each tree sees the
    # sequence a row loop would give it, so structure, page charges and
    # ``data_version`` steps do not depend on the row count (DESIGN §8).

    def insert_rows(
        self,
        rows: Iterable[Sequence[object]],
        meter: Optional[PageMeter] = None,
    ) -> List[tuple]:
        """Insert rows, maintaining every secondary index; returns the
        validated rows.

        The batch is validated as columns (:meth:`TableSchema.validate_rows`)
        and its primary keys checked as a set: against the rows before
        each and, when the table is not empty, against the table, probed
        in row order up to the first duplicate.  The first failure — a
        row's width, NULL or coercion error before its duplicate key —
        is raised after the rows before it have been inserted, which is
        the state a loop of one-row inserts leaves.
        """
        rows, error = self.schema.validate_rows(rows)
        clustered = self.clustered
        keys = list(map(self.schema.pk_values, rows))
        probe = len(clustered) > 0
        if probe or len(set(keys)) != len(keys):
            seen = set()
            for i, pk in enumerate(keys):
                if pk in seen or probe and self.fetch_by_pk(pk) is not None:
                    error = ExecutionError(
                        f"duplicate primary key {pk!r} in table {self.name!r}"
                    )
                    del rows[i:], keys[i:]
                    break
                seen.add(pk)
        pages = 0
        for pk, row in zip(keys, rows):
            clustered.insert(pk, row)
            # Base row insert: clustered traversal (at the height the
            # insert left) plus row formatting/log.
            pages += clustered.height + 2
        self._changed([(None, row) for row in rows])
        for index in self.indexes.values():
            entry_for_row = index.entry_for_row
            tree_insert = index.tree.insert
            for row in rows:
                tree_insert(*entry_for_row(row))
            # NC maintenance is ~one leaf write: upper levels are hot.
            pages += len(rows)
        _tick("btree_insert", len(rows) * (1 + len(self.indexes)))
        if meter is not None:
            meter.charge(pages)
        if error is not None:
            raise error
        return rows

    def delete_rows(
        self, rows: Iterable[tuple], meter: Optional[PageMeter] = None
    ) -> None:
        """Delete rows, maintaining every secondary index.  A row that is
        not in the table raises after the rows before it are deleted."""
        clustered = self.clustered
        pk_values = self.schema.pk_values
        deleted: List[tuple] = []
        # A delete never rebalances, so the height holds for the batch.
        row_pages = clustered.height + 2
        pages = 0
        try:
            for row in rows:
                pk = pk_values(row)
                if not clustered.delete(pk):
                    raise ExecutionError(
                        f"row with pk {pk!r} vanished during delete"
                    )
                pages += row_pages
                deleted.append(row)
        finally:
            self._changed([(row, None) for row in deleted])
            for index in self.indexes.values():
                entry_for_row = index.entry_for_row
                tree_delete = index.tree.delete
                for row in deleted:
                    tree_delete(*entry_for_row(row))
                pages += len(deleted)
            _tick("btree_delete", len(deleted) * (1 + len(self.indexes)))
            if meter is not None:
                meter.charge(pages)

    def update_rows(
        self,
        old_rows: Sequence[tuple],
        assignments: Sequence[Tuple[str, object]],
        meter: Optional[PageMeter] = None,
    ) -> List[tuple]:
        """Apply assignments to rows, maintaining affected indexes only;
        returns the resulting row for each input row.

        Values are coerced once, and only when there is a row to update;
        a row the assignments leave unchanged is skipped.  A row whose
        primary key moves is a delete plus an insert (two version steps;
        the insert may raise on a duplicate key with the rows before it
        already updated and this one deleted).  Any other row is
        replaced in place; one that is not in the table raises after
        the rows before it are updated.
        """
        if not old_rows:
            return []
        schema = self.schema
        coerced = [
            (schema.position(column), column,
             schema.column(column).sql_type.coerce(value))
            for column, value in assignments
        ]
        clustered = self.clustered
        pk_values = schema.pk_values
        pk_columns = frozenset(schema.primary_key)
        in_place: List[Tuple[tuple, tuple, List[str]]] = []

        def flush() -> None:
            """Apply the in-place updates collected so far."""
            if not in_place:
                return
            pages = updated = 0
            # A replace never changes the tree's shape, so the height
            # holds for the batch.
            row_pages = clustered.height + 2
            try:
                for old_row, new_row, _columns in in_place:
                    # One write to the clustered leaf.
                    pk = pk_values(old_row)
                    if not clustered.replace(pk, new_row):
                        raise ExecutionError(
                            f"row with pk {pk!r} vanished during update"
                        )
                    pages += row_pages
                    updated += 1
            finally:
                done = in_place[:updated]
                in_place.clear()
                self._changed([(old, new) for old, new, _columns in done])
                replaced, moved = len(done), 0
                for index in self.indexes.values():
                    maintained = index.maintained
                    entry_for_row = index.entry_for_row
                    tree = index.tree
                    for old_row, new_row, changed_columns in done:
                        if maintained.isdisjoint(changed_columns):
                            continue
                        old_key, old_payload = entry_for_row(old_row)
                        key, payload = entry_for_row(new_row)
                        if key == old_key:
                            tree.replace(key, payload)
                            replaced += 1
                        else:
                            tree.delete(old_key, old_payload)
                            tree.insert(key, payload)
                            moved += 1
                        pages += 2
                _tick("btree_replace", replaced)
                _tick("btree_delete", moved)
                _tick("btree_insert", moved)
                if meter is not None:
                    meter.charge(pages)

        results: List[tuple] = []
        for old_row in old_rows:
            new_values = list(old_row)
            changed_columns = []
            for position, column, value in coerced:
                if new_values[position] != value:
                    changed_columns.append(column)
                new_values[position] = value
            if not changed_columns:
                results.append(old_row)
                continue
            new_row = tuple(new_values)
            results.append(new_row)
            if not pk_columns.isdisjoint(changed_columns):
                flush()
                self.delete_rows((old_row,), meter)
                self.insert_rows((new_row,), meter)
            else:
                in_place.append((old_row, new_row, changed_columns))
        flush()
        return results

    def fetch_by_pk(self, pk: tuple, meter: Optional[PageMeter] = None) -> Optional[tuple]:
        """Key lookup: fetch a full row through the clustered index.

        Takes the first entry of the seek's span walk and stops, so the
        walk never pays for a leaf hop past it."""
        spans = self.clustered.spans(pk, pk, meter=meter, counter="btree_seek")
        for leaf, a, _b in spans:
            return leaf.payloads[a]
        return None

    # ------------------------------------------------------------------
    # Index DDL

    def create_index(
        self, definition: IndexDefinition, created_at: float = 0.0
    ) -> SecondaryIndex:
        """Materialize a secondary index (bulk build from a full scan)."""
        if definition.name in self.indexes:
            raise DuplicateObjectError(
                f"index {definition.name!r} already exists on {self.name!r}"
            )
        if definition.hypothetical:
            raise SchemaError("cannot materialize a hypothetical index")
        index = SecondaryIndex(definition, self.schema)
        index.bulk_load(index.entry_for_row(row) for row in self.rows())
        index.created_at = created_at
        self.indexes[definition.name] = index
        self.schema_version += 1
        return index

    def drop_index(self, name: str) -> IndexDefinition:
        index = self.get_index(name)
        del self.indexes[name]
        self.schema_version += 1
        return index.definition

    # ------------------------------------------------------------------
    # Snapshot

    def clone(self) -> "Table":
        """Structural copy: same rows (shared immutable tuples), rebuilt trees.

        Used for B-instance snapshots (Section 7.1).  ``deepcopy`` is
        unsuitable: the leaf chain recurses thousands of frames deep.
        """
        copy_table = Table(self.schema)
        copy_table.clustered = BPlusTree.bulk_load(
            self.clustered.items(),
            leaf_capacity=self.clustered.leaf_capacity,
            internal_capacity=self.clustered.internal_capacity,
        )
        for name, index in self.indexes.items():
            cloned = SecondaryIndex(index.definition, self.schema)
            cloned.bulk_load(index.tree.items())
            cloned.created_at = index.created_at
            copy_table.indexes[name] = cloned
        copy_table.statistics = TableStatistics(self.name)
        for column in self.statistics.columns():
            copy_table.statistics.set(self.statistics.get(column))
        copy_table.statistics.built_at = self.statistics.built_at
        copy_table.statistics.rows_at_build = self.statistics.rows_at_build
        copy_table.schema_version = self.schema_version
        copy_table.stats_version = self.stats_version
        copy_table.data_version = self.data_version
        return copy_table

    # ------------------------------------------------------------------
    # Statistics

    def build_statistics(
        self,
        columns: Optional[Sequence[str]] = None,
        sample_fraction: float = 1.0,
        bucket_count: int = 32,
        rng: Optional[np.random.Generator] = None,
        at_time: float = 0.0,
    ) -> int:
        """(Re)build column statistics; returns the number built."""
        if columns is None:
            columns = self.schema.column_names
        all_rows = list(self.rows())
        built = 0
        for column in columns:
            # The column's values in PK order, extracted in one C pass.
            position = operator.itemgetter(self.schema.position(column))
            self.statistics.set(
                build_column_statistics(
                    column,
                    list(map(position, all_rows)),
                    bucket_count=bucket_count,
                    sample_fraction=sample_fraction,
                    rng=rng,
                )
            )
            built += 1
        self.statistics.built_at = at_time
        self.statistics.rows_at_build = len(all_rows)
        self.stats_version += 1
        return built
