"""SQL type system for the engine simulator.

Only the handful of scalar types the synthetic workloads need are modeled.
Each type carries a fixed on-disk width used by the storage layer to compute
rows-per-page, which in turn drives logical-read accounting.
"""

from __future__ import annotations

import enum
import functools
from typing import Optional

from repro.errors import QueryError


class SqlType(enum.Enum):
    """Scalar column types with fixed storage widths (bytes)."""

    INT = "int"
    BIGINT = "bigint"
    FLOAT = "float"
    BOOL = "bit"
    DATE = "date"
    TEXT = "nvarchar"

    @property
    def width(self) -> int:
        """Approximate storage width in bytes, used for page math."""
        return _WIDTHS[self]

    def coerce(self, value: object) -> object:
        """Coerce a Python value to this SQL type's canonical Python form.

        Raises :class:`QueryError` if the value is not representable, NaN
        included (SQL's FLOAT has none, and it would break bisected
        order).  ``None`` (SQL NULL) passes through unchanged.
        """
        if value is None:
            return None
        try:
            if self in (SqlType.INT, SqlType.BIGINT, SqlType.DATE):
                return int(value)
            if self is SqlType.FLOAT:
                coerced = float(value)
                if coerced != coerced:
                    raise ValueError("NaN")
                return coerced
            if self is SqlType.BOOL:
                return bool(value)
            return str(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise QueryError(f"cannot coerce {value!r} to {self.value}") from exc

    def render(self, value: object) -> str:
        """Render a value as a T-SQL literal."""
        if value is None:
            return "NULL"
        if self is SqlType.TEXT:
            escaped = str(value).replace("'", "''")
            return f"N'{escaped}'"
        if self is SqlType.BOOL:
            return "1" if value else "0"
        return str(value)


_WIDTHS = {
    SqlType.INT: 4,
    SqlType.BIGINT: 8,
    SqlType.FLOAT: 8,
    SqlType.BOOL: 1,
    SqlType.DATE: 4,
    SqlType.TEXT: 32,
}

#: Logical page size in bytes (SQL Server uses 8 KiB pages).
PAGE_SIZE = 8192

#: Per-row storage overhead (record header, null bitmap, slot entry).
ROW_OVERHEAD = 10


def rows_per_page(row_width: int) -> int:
    """Number of rows that fit on one page given a row width in bytes."""
    return max(1, PAGE_SIZE // (row_width + ROW_OVERHEAD))


@functools.total_ordering
class _Null:
    """SQL NULL inside a key: equal only to itself, below every value."""

    __slots__ = ()

    def __lt__(self, other: object) -> bool:
        return other is not self


#: The one NULL stand-in; SQL orders NULLs before other values ascending.
NULL = _Null()


def key_of(key: tuple) -> tuple:
    """``key``'s order key: values compare as themselves (Python compares
    int and float exactly), NULL first.  A key without NULL is returned
    itself, else a copy with each NULL replaced by :data:`NULL`."""
    if None not in key:
        return key
    return tuple(NULL if value is None else value for value in key)


def type_for_value(value: object) -> Optional[SqlType]:
    """Best-effort inference of a SQL type from a Python value."""
    if value is None:
        return None
    if isinstance(value, bool):
        return SqlType.BOOL
    if isinstance(value, int):
        return SqlType.BIGINT
    if isinstance(value, float):
        return SqlType.FLOAT
    return SqlType.TEXT
