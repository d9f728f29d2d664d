"""SQL type system for the engine simulator.

Only the handful of scalar types the synthetic workloads need are modeled.
Each type carries a fixed on-disk width used by the storage layer to compute
rows-per-page, which in turn drives logical-read accounting.
"""

from __future__ import annotations

import enum
import functools
import numbers
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
        """Coerce a Python value to a stored value of this SQL type: its
        :meth:`convert`, which for INT, BIGINT and DATE must lie inside
        :data:`INT_RANGES` (the int64 column vectors hold no more).

        Raises :class:`QueryError` if the value is not representable.
        ``None`` (SQL NULL) passes through unchanged.
        """
        coerced = self.convert(value)
        bounds = INT_RANGES.get(self)
        if bounds and coerced is not None and not bounds[0] <= coerced <= bounds[1]:
            raise QueryError(f"cannot coerce {value!r} to {self.value}: out of range")
        return coerced

    def convert(self, value: object) -> object:
        """Convert a Python value to this SQL type's canonical Python form
        (:data:`PYTHON_TYPES`), as T-SQL converts a literal compared with
        a column of the type: an integer wider than INT, BIGINT or DATE
        is compared as it is, so it converts unchecked.

        Raises :class:`QueryError` if the value does not convert: NaN
        (SQL's FLOAT has none, and it would break bisected order) and a
        BIT that T-SQL would not convert included.  ``None`` (SQL NULL)
        passes through unchanged.
        """
        if value is None:
            return None
        try:
            if self in (SqlType.INT, SqlType.BIGINT, SqlType.DATE):
                return int(value)
            if self is SqlType.FLOAT:
                converted = float(value)
                if converted != converted:
                    raise ValueError("NaN")
                return converted
            if self is SqlType.BOOL:
                return _to_bit(value)
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


def _to_bit(value: object) -> bool:
    """T-SQL's conversion to BIT: a number is nonzero, a string is
    ``'true'`` / ``'false'`` (any case) or a number; NaN and anything
    else raise ``ValueError`` / ``TypeError``."""
    if isinstance(value, bool):
        return value
    if isinstance(value, str):
        word = value.strip().lower()
        if word in ("true", "false"):
            return word == "true"
        value = float(value)
    if not isinstance(value, numbers.Real):
        raise TypeError(f"{type(value).__name__} is not a number")
    if value != value:
        raise ValueError("NaN")
    return bool(value)


#: The Python type of every non-NULL value :meth:`SqlType.coerce` returns.
PYTHON_TYPES = {
    SqlType.INT: int,
    SqlType.BIGINT: int,
    SqlType.FLOAT: float,
    SqlType.BOOL: bool,
    SqlType.DATE: int,
    SqlType.TEXT: str,
}

#: Inclusive value range of the integer-stored types: what the int64
#: column vectors can hold, and no more than SQL Server's INT / BIGINT.
#: DATE (a day number) is 4 bytes wide, so it takes INT's range.
INT_RANGES = {
    SqlType.INT: (-(2**31), 2**31 - 1),
    SqlType.BIGINT: (-(2**63), 2**63 - 1),
    SqlType.DATE: (-(2**31), 2**31 - 1),
}

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
