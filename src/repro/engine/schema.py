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

from repro.engine.types import SqlType
from repro.errors import SchemaError, UnknownColumnError


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

    def pk_values(self, row: tuple) -> tuple:
        """Primary-key values of a full row tuple."""
        return self.project(row, self.primary_key)

    def validate_row(self, row: Sequence[object]) -> tuple:
        """Coerce and validate a row against column types and nullability."""
        if len(row) != len(self.columns):
            raise SchemaError(
                f"row width {len(row)} != {len(self.columns)} "
                f"for table {self.name!r}"
            )
        coerced = []
        for column, value in zip(self.columns, row):
            value = column.sql_type.coerce(value)
            if value is None and not column.nullable:
                raise SchemaError(
                    f"NULL in non-nullable column {column.name!r} "
                    f"of table {self.name!r}"
                )
            coerced.append(value)
        return tuple(coerced)


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
