"""Schema objects: columns, table schemas, and index definitions.

An :class:`IndexDefinition` mirrors the shape of a SQL Server non-clustered
index: an ordered list of key columns plus an unordered set of included
(leaf-only) columns.  Clustered indexes key the full row.  Hypothetical
indexes (used by the what-if API, Section 5.3 of the paper) are ordinary
definitions flagged ``hypothetical=True`` and never materialized.
"""

from __future__ import annotations

import dataclasses
import itertools
import operator
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.engine.types import INT_RANGES, PYTHON_TYPES, SqlType
from repro.errors import (
    QueryError,
    ReproError,
    SchemaError,
    UnknownColumnError,
)


@dataclasses.dataclass(frozen=True)
class Column:
    """A table column."""

    name: str
    sql_type: SqlType
    nullable: bool = True

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").isalnum():
            raise SchemaError(f"invalid column name {self.name!r}")


@dataclasses.dataclass(frozen=True)
class IndexDefinition:
    """Definition of a clustered or non-clustered B+ tree index.

    ``key_columns`` is the ordered seek key; ``included_columns`` are stored
    only at the leaf level and make the index covering for queries that
    reference them.  ``auto_created`` marks indexes implemented by the
    auto-indexing service (these carry the service naming scheme and are the
    only ones the service will ever revert).
    """

    name: str
    table: str
    key_columns: Tuple[str, ...]
    included_columns: Tuple[str, ...] = ()
    clustered: bool = False
    unique: bool = False
    hypothetical: bool = False
    auto_created: bool = False

    def __post_init__(self) -> None:
        if not self.key_columns:
            raise SchemaError(f"index {self.name!r} has no key columns")
        seen = set()
        for column in self.key_columns:
            if column in seen:
                raise SchemaError(
                    f"index {self.name!r} repeats key column {column!r}"
                )
            seen.add(column)
        overlap = seen.intersection(self.included_columns)
        if overlap:
            raise SchemaError(
                f"index {self.name!r} includes key columns {sorted(overlap)}"
            )

    @property
    def all_columns(self) -> Tuple[str, ...]:
        """Key columns followed by included columns."""
        return self.key_columns + tuple(self.included_columns)

    def covers(self, columns: Iterable[str]) -> bool:
        """True if every referenced column is present in this index."""
        available = set(self.all_columns)
        return all(column in available for column in columns)

    def is_duplicate_of(self, other: "IndexDefinition") -> bool:
        """True if both indexes have identical key columns in order.

        This is the paper's duplicate-index criterion (Section 5.4): key
        columns identical including order; included columns may differ.
        """
        return (
            self.table == other.table
            and self.key_columns == other.key_columns
        )

    def key_is_prefix_of(self, other: "IndexDefinition") -> bool:
        """True if this index's key is a proper or equal prefix of ``other``'s."""
        if self.table != other.table:
            return False
        if len(self.key_columns) > len(other.key_columns):
            return False
        return other.key_columns[: len(self.key_columns)] == self.key_columns

    def describe(self) -> str:
        """Human-readable summary, as shown in the recommendation UI."""
        key_part = ", ".join(self.key_columns)
        text = f"{self.table}({key_part})"
        if self.included_columns:
            text += " INCLUDE(" + ", ".join(self.included_columns) + ")"
        return text


class TableSchema:
    """Column layout and key structure of a table."""

    def __init__(
        self,
        name: str,
        columns: Sequence[Column],
        primary_key: Optional[Sequence[str]] = None,
    ) -> None:
        if not columns:
            raise SchemaError(f"table {name!r} has no columns")
        names = [column.name for column in columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"table {name!r} has duplicate column names")
        self.name = name
        self.columns: List[Column] = list(columns)
        self._positions = {column.name: i for i, column in enumerate(columns)}
        if primary_key is None:
            primary_key = (columns[0].name,)
        for column in primary_key:
            if column not in self._positions:
                raise UnknownColumnError(
                    f"primary key column {column!r} not in table {name!r}"
                )
        self.primary_key: Tuple[str, ...] = tuple(primary_key)
        #: Per column: the column, the Python types its values may have as
        #: they are (NoneType too if nullable) and its integer range.
        self._domains = [
            (
                column,
                {PYTHON_TYPES[column.sql_type]}
                | ({type(None)} if column.nullable else set()),
                INT_RANGES.get(column.sql_type),
            )
            for column in self.columns
        ]
        #: Primary-key values of a full row tuple (a compiled projector).
        self.pk_values: Callable[[tuple], tuple] = self.projector(
            self.primary_key
        )

    def __repr__(self) -> str:
        return f"TableSchema({self.name!r}, {len(self.columns)} columns)"

    @property
    def column_names(self) -> List[str]:
        return [column.name for column in self.columns]

    def position(self, name: str) -> int:
        """Ordinal position of a column; raises if unknown."""
        try:
            return self._positions[name]
        except KeyError:
            raise UnknownColumnError(
                f"column {name!r} not in table {self.name!r}"
            ) from None

    def column(self, name: str) -> Column:
        return self.columns[self.position(name)]

    def row_width(self, columns: Optional[Iterable[str]] = None) -> int:
        """Total storage width in bytes of the given columns (default all)."""
        if columns is None:
            selected = self.columns
        else:
            selected = [self.column(name) for name in columns]
        return sum(column.sql_type.width for column in selected)

    def project(self, row: tuple, columns: Sequence[str]) -> tuple:
        """Extract the named columns from a full row tuple."""
        return tuple(row[self.position(name)] for name in columns)

    def projector(self, columns: Sequence[str]) -> Callable[[tuple], tuple]:
        """A compiled :meth:`project` for one column list: the positions
        are resolved once, so per-row callers (index maintenance, the
        columnar cache) pay a single ``itemgetter`` call."""
        positions = [self.position(name) for name in columns]
        if not positions:
            return lambda row: ()
        if len(positions) == 1:
            only = positions[0]
            return lambda row: (row[only],)
        return operator.itemgetter(*positions)

    def validate_rows(
        self, rows: Iterable[Sequence[object]]
    ) -> Tuple[List[tuple], Optional[ReproError]]:
        """Coerce and validate a batch of rows against column types and
        nullability: returns the rows before the first invalid one,
        coerced, and that row's error (``None`` when every row is valid).

        A row's error is its width when wrong, else that of its first
        column, in column order, whose value cannot coerce or is NULL
        where the column is not nullable.  The batch is checked as
        columns.  A column whose values all have their type's Python
        form (:data:`~repro.engine.types.PYTHON_TYPES`: ``bool`` is no
        ``int``), NULL only where the column is nullable, no NaN and
        every INT / BIGINT / DATE inside :data:`~repro.engine.types.INT_RANGES`
        is taken as it is, after one pass over its value types and one
        ``min`` / ``max`` or sum; only another column is coerced value
        by value, up to its first failure.  A column only needs checking
        up to the first failure found in the columns before it.
        """
        if not isinstance(rows, (list, tuple)):
            rows = list(rows)
        width = len(self.columns)
        count, error = len(rows), None
        if set(map(len, rows)) - {width}:
            count = next(i for i, row in enumerate(rows) if len(row) != width)
            error = SchemaError(
                f"row width {len(rows[count])} != {width} "
                f"for table {self.name!r}"
            )
            rows = rows[:count]
        # One C pass per column; no per-row objects.
        columns = [list(map(operator.itemgetter(i), rows)) for i in range(width)]
        for i, (column, python_types, bounds) in enumerate(self._domains):
            values = columns[i]
            if len(values) > count:
                values = values[:count]
            types = set(map(type, values))
            if types <= python_types:
                # Already typed: taken as it is unless a FLOAT holds NaN
                # (the sum is NaN; ``inf`` with ``-inf`` also makes it
                # NaN and only costs the value-by-value pass below) or an
                # INT / BIGINT lies outside its range.
                if type(None) in types:
                    present = [v for v in values if v is not None]
                else:
                    present = values
                if float in types:
                    total = sum(present)
                    if total == total:
                        continue
                elif not bounds or not present or (
                    bounds[0] <= min(present) and max(present) <= bounds[1]
                ):
                    continue
            coerce = column.sql_type.coerce
            coerced = []
            for value in values:
                try:
                    value = coerce(value)
                except QueryError as exc:
                    count, error = len(coerced), exc
                    break
                if value is None and not column.nullable:
                    count = len(coerced)
                    error = SchemaError(
                        f"NULL in non-nullable column {column.name!r} "
                        f"of table {self.name!r}"
                    )
                    break
                coerced.append(value)
            columns[i] = coerced
        # Every column holds at least ``count`` values and one that
        # failed last exactly ``count``: ``zip`` stops there.
        return list(zip(*columns)), error


_AUTO_INDEX_COUNTER = itertools.count(1)


def auto_index_name(
    table: str, key_columns: Sequence[str], seq: Optional[int] = None
) -> str:
    """Generate a service-style index name.

    Mirrors the naming scheme customers asked about in Section 8.2: the
    prefix makes auto-created indexes recognizable and collision-free.
    Callers that need reproducible names (the control plane uses the
    recommendation's record id, unique per database) pass ``seq``;
    without it the suffix comes from a process-global counter, which is
    unique but depends on allocation order across the whole process.
    """
    suffix = next(_AUTO_INDEX_COUNTER) if seq is None else seq
    column_part = "_".join(key_columns[:3])
    return f"nci_auto_{table}_{column_part}_{suffix}"
