"""Tables: a clustered B+ tree plus secondary indexes.

Every table is organized as a clustered index on its primary key (the SQL
Server default); secondary non-clustered indexes store their key columns
plus the clustering key as the row locator, plus any included columns at
the leaf.  DML maintains every secondary index, and the page charges of
that maintenance are metered — this is the mechanism by which an
over-eager index recommendation makes writes measurably slower, the main
source of MI-recommendation reverts reported in Section 8.1.
"""

from __future__ import annotations

import math
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


class IndexStatsView:
    """Size/shape statistics of an index, real or hypothetical.

    The optimizer costs hypothetical (what-if) indexes without building
    them; this view provides the same numbers either from an actual tree
    or from closed-form estimates.
    """

    def __init__(self, rows: int, leaf_pages: int, height: int) -> None:
        self.rows = rows
        self.leaf_pages = max(1, leaf_pages)
        self.height = max(1, height)

    @classmethod
    def from_tree(cls, tree: BPlusTree) -> "IndexStatsView":
        return cls(rows=len(tree), leaf_pages=tree.leaf_page_count, height=tree.height)

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
        self._schema = schema
        #: Columns whose update forces maintenance of this index.
        self._maintained = frozenset(definition.all_columns) | frozenset(
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

    @property
    def name(self) -> str:
        return self.definition.name

    def entry_for_row(self, row: tuple) -> Tuple[tuple, tuple]:
        """(key, payload): key = key columns + PK, payload = included columns."""
        return self._key_of(row), self._payload_of(row)

    def insert_row(self, row: tuple) -> None:
        key, payload = self.entry_for_row(row)
        self.tree.insert(key, payload)

    def delete_row(self, row: tuple) -> None:
        key, payload = self.entry_for_row(row)
        self.tree.delete(key, payload)

    def touches_columns(self, columns: Iterable[str]) -> bool:
        """True if updating any of ``columns`` requires index maintenance."""
        maintained = self._maintained
        return any(column in maintained for column in columns)

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
        #: Bumped on every statistics (re)build; part of the optimizer's
        #: plan-cache fingerprint, so cached plans go stale on stats refresh.
        self.stats_version = 0
        #: Bumped once per row a DML mutation changes (see ``_changed``);
        #: cost estimates depend on live tree shape and row count, so
        #: cached plans go stale on data change.
        self.data_version = 0
        #: Columnar projection cache for the vectorized executor, created
        #: lazily on first vectorized scan.  ``clone()`` builds a fresh
        #: Table, so B-instance forks never share projections.
        self._columnar = None

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
        log does not account for, make it rebuild from the trees.
        """
        if self._columnar is None:
            from repro.engine.exec.columns import ColumnarCache

            self._columnar = ColumnarCache(self)
        return self._columnar

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
        """Estimated shape for an index that does not exist."""
        entry_width = self.schema.row_width(
            definition.all_columns
        ) + self.schema.row_width(self.schema.primary_key)
        key_width = self.schema.row_width(definition.key_columns)
        return IndexStatsView.estimate(self.row_count, entry_width, key_width)

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
            self._columnar.log_changes(changes)

    def insert(self, row: Sequence[object], meter: Optional[PageMeter] = None) -> tuple:
        """Insert a row, maintaining every secondary index."""
        row = self.schema.validate_row(row)
        pk = self.schema.pk_values(row)
        existing = next(self.clustered.seek_prefix(pk), None)
        if existing is not None:
            raise ExecutionError(
                f"duplicate primary key {pk!r} in table {self.name!r}"
            )
        self.clustered.insert(pk, row)
        self._changed(((None, row),))
        if meter is not None:
            # Base row insert: clustered traversal plus row formatting/log.
            meter.charge(self.clustered.height + 2)
        for index in self.indexes.values():
            index.insert_row(row)
            if meter is not None:
                # NC maintenance is ~one leaf write: upper levels are hot.
                meter.charge(1)
        return row

    def delete_row(self, row: tuple, meter: Optional[PageMeter] = None) -> None:
        pk = self.schema.pk_values(row)
        removed = self.clustered.delete(pk)
        if not removed:
            raise ExecutionError(f"row with pk {pk!r} vanished during delete")
        self._changed(((row, None),))
        if meter is not None:
            meter.charge(self.clustered.height + 2)
        for index in self.indexes.values():
            index.delete_row(row)
            if meter is not None:
                meter.charge(1)

    def update_row(
        self,
        old_row: tuple,
        assignments: Sequence[Tuple[str, object]],
        meter: Optional[PageMeter] = None,
    ) -> tuple:
        """Apply assignments to a row, maintaining affected indexes only."""
        new_values = list(old_row)
        changed_columns = []
        for column, value in assignments:
            position = self.schema.position(column)
            value = self.schema.column(column).sql_type.coerce(value)
            if new_values[position] != value:
                changed_columns.append(column)
            new_values[position] = value
        new_row = tuple(new_values)
        if not changed_columns:
            return old_row
        pk_changed = any(c in self.schema.primary_key for c in changed_columns)
        if pk_changed:
            self.delete_row(old_row, meter)
            self.insert(new_row, meter)
            return new_row
        # In-place clustered update: one write to the clustered leaf.
        pk = self.schema.pk_values(old_row)
        self.clustered.delete(pk)
        self.clustered.insert(pk, new_row)
        self._changed(((old_row, new_row),))
        if meter is not None:
            meter.charge(self.clustered.height + 2)
        for index in self.indexes.values():
            if index.touches_columns(changed_columns):
                index.delete_row(old_row)
                index.insert_row(new_row)
                if meter is not None:
                    meter.charge(2)
        return new_row

    # ------------------------------------------------------------------
    # Batched DML (metered; grouped per-index maintenance)
    #
    # The batch paths apply the *same per-tree operation sequence* as the
    # row-at-a-time methods above — clustered ops in row order, then each
    # secondary index's ops in row order — so tree structure, page
    # charges, and ``data_version`` are byte-identical to a row loop.
    # Only the interleaving across trees changes, which no counter or
    # structure observes.  See DESIGN.md §8.

    def prepare_insert_rows(
        self, rows: Iterable[Sequence[object]]
    ) -> Optional[List[tuple]]:
        """Validate a batch for :meth:`insert_rows`; ``None`` to decline.

        Checks every row's schema validation and primary-key uniqueness
        (against the table and within the batch) with unmetered seeks.
        Any failure declines the batch so the caller can fall back to
        row-at-a-time inserts, which mutate-then-raise exactly as a
        plain loop over :meth:`insert` would.
        """
        prepared: List[tuple] = []
        seen_keys = set()
        for row in rows:
            try:
                validated = self.schema.validate_row(row)
            except Exception:
                return None
            pk = self.schema.pk_values(validated)
            if pk in seen_keys:
                return None
            if next(self.clustered.seek_prefix(pk), None) is not None:
                return None
            seen_keys.add(pk)
            prepared.append(validated)
        return prepared

    def insert_rows(
        self, rows: List[tuple], meter: Optional[PageMeter] = None
    ) -> None:
        """Insert pre-validated rows (see :meth:`prepare_insert_rows`),
        maintaining each secondary index as one grouped pass."""
        clustered = self.clustered
        pk_values = self.schema.pk_values
        pages = 0
        for row in rows:
            clustered.insert(pk_values(row), row)
            # Post-insert height, as the row path charges after inserting.
            pages += clustered.height + 2
        self._changed([(None, row) for row in rows])
        for index in self.indexes.values():
            entry_for_row = index.entry_for_row
            tree_insert = index.tree.insert
            for row in rows:
                key, payload = entry_for_row(row)
                tree_insert(key, payload)
            pages += len(rows)
        if meter is not None and pages:
            meter.charge(pages)

    def delete_rows(
        self, rows: List[tuple], meter: Optional[PageMeter] = None
    ) -> None:
        """Delete rows, maintaining each secondary index as one grouped
        pass."""
        clustered = self.clustered
        pk_values = self.schema.pk_values
        pages = 0
        for row in rows:
            pk = pk_values(row)
            if not clustered.delete(pk):
                raise ExecutionError(
                    f"row with pk {pk!r} vanished during delete"
                )
            pages += clustered.height + 2
        self._changed([(row, None) for row in rows])
        for index in self.indexes.values():
            entry_for_row = index.entry_for_row
            tree_delete = index.tree.delete
            for row in rows:
                key, payload = entry_for_row(row)
                tree_delete(key, payload)
            pages += len(rows)
        if meter is not None and pages:
            meter.charge(pages)

    def update_rows(
        self,
        old_rows: List[tuple],
        coerced_assignments: Sequence[Tuple[str, object]],
        meter: Optional[PageMeter] = None,
    ) -> None:
        """Apply pre-coerced assignments to rows, grouping maintenance.

        Assignments must not touch primary-key columns (the caller
        declines those batches) and values must already be coerced to
        their column types, so no per-row code path can raise mid-batch.
        Rows the assignments leave unchanged are skipped entirely, as in
        :meth:`update_row`.
        """
        positions = [
            (self.schema.position(column), value)
            for column, value in coerced_assignments
        ]
        columns = [column for column, _value in coerced_assignments]
        changes: List[Tuple[tuple, tuple, List[str]]] = []
        for old_row in old_rows:
            new_values = list(old_row)
            changed_columns = []
            for (position, value), column in zip(positions, columns):
                if new_values[position] != value:
                    changed_columns.append(column)
                new_values[position] = value
            if changed_columns:
                changes.append((old_row, tuple(new_values), changed_columns))
        clustered = self.clustered
        pk_values = self.schema.pk_values
        pages = 0
        for old_row, new_row, _changed in changes:
            pk = pk_values(old_row)
            clustered.delete(pk)
            clustered.insert(pk, new_row)
            pages += clustered.height + 2
        self._changed([(old, new) for old, new, _columns in changes])
        for index in self.indexes.values():
            touches = index.touches_columns
            for old_row, new_row, changed_columns in changes:
                if touches(changed_columns):
                    index.delete_row(old_row)
                    index.insert_row(new_row)
                    pages += 2
        if meter is not None and pages:
            meter.charge(pages)

    def fetch_by_pk(self, pk: tuple, meter: Optional[PageMeter] = None) -> Optional[tuple]:
        """Key lookup: fetch a full row through the clustered index."""
        for _key, row in self.clustered.seek_prefix(pk, meter=meter):
            return row
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
        entries = []
        for row in self.rows():
            entries.append(index.entry_for_row(row))
        entry_width = self.schema.row_width(
            definition.all_columns
        ) + self.schema.row_width(self.schema.primary_key)
        key_width = self.schema.row_width(definition.key_columns)
        index.tree = BPlusTree.bulk_load(
            entries,
            leaf_capacity=rows_per_page(entry_width),
            internal_capacity=max(4, rows_per_page(key_width + 8)),
        )
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
        row_width = self.schema.row_width()
        pk_width = self.schema.row_width(self.schema.primary_key)
        copy_table.clustered = BPlusTree.bulk_load(
            self.clustered.items(),
            leaf_capacity=rows_per_page(row_width),
            internal_capacity=max(4, rows_per_page(pk_width + 8)),
        )
        for name, index in self.indexes.items():
            cloned = SecondaryIndex(index.definition, self.schema)
            entry_width = self.schema.row_width(
                index.definition.all_columns
            ) + pk_width
            key_width = self.schema.row_width(index.definition.key_columns)
            cloned.tree = BPlusTree.bulk_load(
                index.tree.items(),
                leaf_capacity=rows_per_page(entry_width),
                internal_capacity=max(4, rows_per_page(key_width + 8)),
            )
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
            position = self.schema.position(column)
            values = [row[position] for row in all_rows]
            self.statistics.set(
                build_column_statistics(
                    column,
                    values,
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
