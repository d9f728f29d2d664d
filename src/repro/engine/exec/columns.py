"""Columnar projection cache for the vectorized execution path.

Each :class:`ColumnarCache` belongs to one :class:`~repro.engine.table.Table`
and holds per-projection columnar images: one for the clustered tree and
one per secondary index.  A projection copies the tree's entries in scan
order and lazily normalizes each referenced column into a NumPy array
pair (filled values + NULL mask).

The images are *maintained*, not thrown away, when rows change.  Every
site in ``Table`` that bumps ``data_version`` hands the changed rows to
:meth:`ColumnarCache.log_changes`; the next :meth:`ColumnarCache.projection`
call folds the pending log into every live projection — positions found
by ``bisect`` on the tree's own order keys, then one batched patch,
masked drop and masked insert per built vector — before serving one.  A
projection is therefore valid only until the next write to its table.

Building from the tree remains the construction path: on first touch,
when ``schema_version`` moves (index create/drop), when the log does not
account for every ``data_version`` step since the last fold (so an
unlogged mutation can never serve stale data), and when the log outgrows
:data:`_REBUILD_SHARE` of the table.  ``Table.clone()`` constructs a
fresh ``Table`` (fresh cache attribute), so B-instance forks never share
projections with their origin.

Design rule: output values always come from the original Python entry
tuples — NumPy computes only masks, orders, and groupings — so result
bits match the interpreted path exactly.
"""

from __future__ import annotations

import functools
import operator
from bisect import bisect_left
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.exec.interp import index_entry_layout
from repro.engine.types import SqlType, key_of

#: SQL types stored as int64 arrays (BOOL uses 0/1; DATE is an int day).
_INT_KINDS = (SqlType.INT, SqlType.BIGINT, SqlType.DATE, SqlType.BOOL)

#: A pending change log longer than this share of the table's rows is
#: dropped with the projections on the write side (which also bounds its
#: memory); the next read rebuilds.  Fold against rebuild, measured per
#: live projection of a 5 500-row table with 3-4 built vectors: a row
#: patched in place folds in 3.6-5.4 us and breaks even at 0.09 of the
#: table, an inserted or deleted row in 5.5-9 us (0.055), a row moving
#: within an index in 17 us (0.01 — but at most 1 folded row in 10 on
#: fleet_standard and none on ingest_dml); when the rebuild must also
#: recompute rank codes the first two move to 0.15 and 0.10.  On
#: ingest_dml fold + build time is flat up to here and rises beyond:
#: 0.41 / 0.39 / 0.40 / 0.50 / 0.72 s at 0.03 / 0.05 / 0.08 / 0.15 / 0.30.
_REBUILD_SHARE = 0.08

#: One logged row change: ``(old_row | None, new_row | None)``.
Change = Tuple[Optional[tuple], Optional[tuple]]


class VectorUnsupported(Exception):
    """The vectorized path cannot handle this plan/column; fall back."""


class ColumnVector:
    """One column as (filled values, NULL mask) plus lazy rank codes."""

    __slots__ = ("values", "nulls", "_codes", "_equi")

    def __init__(self, values: np.ndarray, nulls: np.ndarray) -> None:
        self.values = values
        self.nulls = nulls
        self._codes: Optional[np.ndarray] = None
        self._equi: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def codes(self) -> np.ndarray:
        """Dense sort ranks (int64); NULLs are coded -1 so they sort
        first ascending, as :data:`~repro.engine.types.NULL` does."""
        if self._codes is None:
            _uniq, inverse = np.unique(self.values, return_inverse=True)
            codes = inverse.reshape(len(self.values)).astype(np.int64)
            codes[self.nulls] = -1
            self._codes = codes
        return self._codes

    def equi_index(self) -> Tuple[np.ndarray, np.ndarray]:
        """The column's cached hash-build side: ``(order, sorted_values)``.

        ``order`` lists the non-NULL row positions stably sorted by
        value, ``sorted_values`` the values in that order, so an
        equi-join probe is two ``searchsorted`` calls and ``order[lo:hi]``
        yields a key's matches in scan order (the order the
        interpreter's build dict preserves).  NULL rows are excluded:
        SQL equality never matches NULL.  The index lives on the vector,
        inside the owning table's :class:`ColumnarCache`, so it is
        dropped when a fold changes this vector — on the build side's
        DML/DDL, not the probe side's.
        """
        if self._equi is None:
            valid = np.flatnonzero(~self.nulls)
            values = self.values[valid]
            order = np.argsort(values, kind="stable")
            self._equi = (valid[order], values[order])
        return self._equi

    # -- maintenance (see Projection.fold) -------------------------------

    def holds(self, cells: "ColumnVector") -> bool:
        """Whether ``cells`` can be stored here without truncation (a
        string wider than this ``U<n>`` array cannot)."""
        return cells.values.dtype.itemsize <= self.values.dtype.itemsize

    def _replace(self, values: np.ndarray, nulls: np.ndarray) -> None:
        self.values = values
        self.nulls = nulls
        self._codes = None
        self._equi = None

    def patch(self, positions: List[int], cells: "ColumnVector") -> None:
        """Overwrite the rows at ``positions``, in place."""
        self.values[positions] = cells.values
        self.nulls[positions] = cells.nulls
        self._codes = None
        self._equi = None

    def keep(self, kept: np.ndarray) -> None:
        """Drop the rows where the boolean mask ``kept`` is False."""
        self._replace(self.values[kept], self.nulls[kept])

    def insert(
        self, slots: np.ndarray, kept: np.ndarray, cells: "ColumnVector"
    ) -> None:
        """Grow to ``len(kept)`` rows: ``cells`` land at ``slots``, the
        present rows, in order, where the boolean mask ``kept`` is True.
        (Shared masks cost a fifth of one ``np.insert`` per array.)"""
        values = np.empty(len(kept), dtype=self.values.dtype)
        values[kept] = self.values
        values[slots] = cells.values
        nulls = np.empty(len(kept), dtype=bool)
        nulls[kept] = self.nulls
        nulls[slots] = cells.nulls
        self._replace(values, nulls)


def _build_vector(sql_type: SqlType, raw_values: List[object]) -> ColumnVector:
    if sql_type in _INT_KINDS:
        dtype, fill = np.int64, 0
    elif sql_type is SqlType.FLOAT:
        dtype, fill = np.float64, 0.0
    else:
        dtype, fill = np.str_, ""
    if None in raw_values:
        nulls = np.array([v is None for v in raw_values], dtype=bool)
        raw_values = [fill if v is None else v for v in raw_values]
    else:
        nulls = np.zeros(len(raw_values), dtype=bool)
    # Stored values are coerced, and every integer type is range-checked
    # to fit int64 (``types.INT_RANGES``), so the conversion cannot fail.
    return ColumnVector(np.array(raw_values, dtype=dtype), nulls)


def contiguous_slice(positions: np.ndarray) -> Optional[Tuple[int, int]]:
    """``(start, stop)`` when ``positions`` is a dense ascending run,
    else ``None``.

    Full scans and high-selectivity filters select long unbroken runs
    of row positions; gathering those with one list slice skips the
    per-cell indexing entirely.  ``stop - start == n`` plus strictly
    increasing values proves the run covers every position exactly
    once.
    """
    n = positions.size
    if n == 0:
        return None
    start = int(positions[0])
    stop = int(positions[-1]) + 1
    if stop - start != n:
        return None
    if n > 1 and not bool((positions[1:] > positions[:-1]).all()):
        return None
    return start, stop


@functools.lru_cache(maxsize=256)
def row_builder(
    names: Tuple[str, ...]
) -> Callable[[List[object]], List[Dict[str, object]]]:
    """A compiled row-dict constructor for one column-name tuple.

    Takes per-column cell sequences (all the same length) and returns
    the row dictionaries, keys in ``names`` order — the same output as
    ``[dict(zip(names, cells)) for cells in zip(*columns)]``, but ~3x
    faster: the generated comprehension builds each dict with a literal
    whose keys are embedded constants, skipping the per-row ``zip`` and
    ``dict()`` call overhead.  Names are embedded via ``repr`` so any
    column name is safe to compile.  Cached per name tuple; statements
    reuse a handful of projections, so the cache stays tiny.
    """
    if not names:
        return lambda columns: []
    if len(names) == 1:
        key = names[0]
        return lambda columns: [{key: value} for value in columns[0]]
    variables = [f"v{i}" for i in range(len(names))]
    pairs = ", ".join(
        f"{name!r}: {var}" for name, var in zip(names, variables)
    )
    args = ", ".join(variables)
    source = f"lambda columns: [{{{pairs}}} for {args} in zip(*columns)]"
    return eval(source)  # noqa: S307 - keys repr-escaped above


class Projection:
    """Columnar image of one tree (clustered or one secondary index).

    Entries are copied eagerly in scan order (cheap: three lists of
    existing tuples); per-column arrays are built lazily on first use.
    :meth:`fold` then keeps all of it current with the rows DML changed.
    Valid only until the next write to the table: hold none across one.
    """

    def __init__(self, table, index_name: Optional[str] = None) -> None:
        self._schema = schema = table.schema
        #: Column -> (in_key, position) within an entry's (key, payload).
        self._layout: Dict[str, Tuple[bool, int]]
        if index_name is None:
            self._tree = table.clustered
            key_of = schema.projector(schema.primary_key)
            self._entry_for_row = lambda row: (key_of(row), row)
            self._layout = {
                name: (False, schema.position(name))
                for name in schema.column_names
            }
        else:
            index = table.get_index(index_name)
            self._tree = index.tree
            self._entry_for_row = index.entry_for_row
            self._layout = index_entry_layout(table, index.definition)
        #: The tree's order keys, keys and payloads, in scan order.
        self._nkeys, self._keys, self._payloads = self._tree.snapshot()
        self._raw: Dict[str, List[object]] = {}
        self._vectors: Dict[str, ColumnVector] = {}
        self._measure()

    def _measure(self) -> None:
        self.row_count = len(self._nkeys)
        #: Page charge of a complete scan of this tree: the descent to
        #: the leftmost leaf (= height) plus one hop per remaining leaf.
        self.scan_pages = self._tree.height + self._tree.leaf_page_count - 1

    def has(self, column: str) -> bool:
        return column in self._layout

    def raw_column(self, column: str) -> List[object]:
        """All values of one column, in scan order, as raw Python objects."""
        cached = self._raw.get(column)
        if cached is not None:
            return cached
        if column not in self._layout:
            raise VectorUnsupported(f"column {column!r} not in projection")
        in_key, i = self._layout[column]
        source = self._keys if in_key else self._payloads
        values = [entry[i] for entry in source]
        self._raw[column] = values
        return values

    def position(self, nkey: tuple) -> int:
        """The position of the first entry whose order key is ``nkey``
        or above: a ``bisect`` on the tree's own order keys."""
        return bisect_left(self._nkeys, nkey)

    def payloads_at(self, indices: np.ndarray) -> List[tuple]:
        """The stored payloads at ``indices``, in that order; for the
        clustered image these are the table's row tuples themselves."""
        payloads = self._payloads
        return [payloads[i] for i in indices.tolist()]

    def vector(self, column: str) -> ColumnVector:
        vec = self._vectors.get(column)
        if vec is None:
            sql_type = self._schema.column(column).sql_type
            vec = _build_vector(sql_type, self.raw_column(column))
            self._vectors[column] = vec
        return vec

    # -- maintenance ----------------------------------------------------

    def fold(self, log: Iterable[Change]) -> bool:
        """Apply logged row changes so the image equals its tree again.

        Returns False, leaving the image unusable, when the log does not
        describe how the tree got from the image to its current state;
        the caller then rebuilds from the tree.
        """
        entry_for_row = self._entry_for_row
        # Net the log per entry: what each touched entry was when the
        # image was last current, and what it is now.  Entry keys end in
        # the primary key, so a chain follows one row through the log.
        chains: List[List[Optional[Tuple[tuple, tuple]]]] = []
        live: Dict[tuple, list] = {}
        for old_row, new_row in log:
            old = None if old_row is None else entry_for_row(old_row)
            new = None if new_row is None else entry_for_row(new_row)
            if old == new:
                # The change left this tree's columns alone, so the table
                # did not maintain the tree either (``maintained``).
                continue
            chain = None if old is None else live.pop(old[0], None)
            if chain is None:
                chain = [old, new]
                chains.append(chain)
            else:
                chain[1] = new
            if new is not None:
                live[new[0]] = chain
        if not chains:
            return True
        nkeys = self._nkeys
        patched: List[int] = []
        before: List[Tuple[tuple, tuple]] = []
        after: List[Tuple[tuple, tuple]] = []
        removed: List[int] = []
        added: List[Tuple[tuple, Tuple[tuple, tuple]]] = []
        for old, new in chains:
            if old is not None:
                nkey = key_of(old[0])
                position = bisect_left(nkeys, nkey)
                if position == len(nkeys) or nkeys[position] != nkey:
                    return False
                if new is not None and new[0] == old[0]:
                    patched.append(position)
                    before.append(old)
                    after.append(new)
                    continue
                removed.append(position)
            if new is not None:
                added.append((key_of(new[0]), new))
        if patched:
            self._patch(patched, before, after)
        if removed:
            self._remove(sorted(removed))
        if added:
            added.sort(key=operator.itemgetter(0))
            self._add(added)
        self._measure()
        return self.row_count == len(self._tree)

    def _cells(
        self, column: str, entries: Sequence[Tuple[tuple, tuple]]
    ) -> List[object]:
        in_key, i = self._layout[column]
        side = 0 if in_key else 1
        return [entry[side][i] for entry in entries]

    def _vector_cells(
        self, column: str, cells: List[object]
    ) -> Optional[ColumnVector]:
        """``cells`` in the form the column's built vector can absorb.

        When it cannot — a string wider than the array — the vector is
        dropped instead and ``None`` returned; the lazy rebuild then
        widens it, exactly as a first build would.
        """
        fresh = _build_vector(self._schema.column(column).sql_type, cells)
        if not self._vectors[column].holds(fresh):
            del self._vectors[column]
            return None
        return fresh

    def _patch(
        self,
        positions: List[int],
        before: List[Tuple[tuple, tuple]],
        after: List[Tuple[tuple, tuple]],
    ) -> None:
        """Overwrite the entries at ``positions``, whose keys stayed put."""
        keys, payloads = self._keys, self._payloads
        for position, (key, payload) in zip(positions, after):
            keys[position] = key
            payloads[position] = payload
        for column, raw in self._raw.items():
            cells = self._cells(column, after)
            for position, cell in zip(positions, cells):
                raw[position] = cell
            vector = self._vectors.get(column)
            # An unchanged column keeps its vector, rank codes and
            # equi-index: most UPDATEs assign one or two columns.
            if vector is not None and cells != self._cells(column, before):
                fresh = self._vector_cells(column, cells)
                if fresh is not None:
                    vector.patch(positions, fresh)

    def _remove(self, positions: List[int]) -> None:
        """Drop the entries at ascending ``positions``."""
        kept = np.ones(len(self._nkeys), dtype=bool)
        kept[positions] = False
        for vector in self._vectors.values():
            vector.keep(kept)
        lists = [self._nkeys, self._keys, self._payloads, *self._raw.values()]
        for position in reversed(positions):
            for values in lists:
                del values[position]

    def _add(self, added: List[Tuple[tuple, Tuple[tuple, tuple]]]) -> None:
        """Insert ``(nkey, entry)`` pairs, ascending by order key."""
        nkeys = self._nkeys
        # Every position refers to the lists as they are now; editing
        # them back to front keeps the earlier positions valid.
        positions = [bisect_left(nkeys, nkey) for nkey, _entry in added]
        entries = [entry for _nkey, entry in added]
        # Where the new rows end up, and where the present ones do.
        slots = np.array(positions) + np.arange(len(added))
        kept = np.ones(len(nkeys) + len(added), dtype=bool)
        kept[slots] = False
        cells_of = {
            column: self._cells(column, entries) for column in self._raw
        }
        for column, cells in cells_of.items():
            if column in self._vectors:
                fresh = self._vector_cells(column, cells)
                if fresh is not None:
                    self._vectors[column].insert(slots, kept, fresh)
        for at in reversed(range(len(added))):
            position = positions[at]
            nkeys.insert(position, added[at][0])
            key, payload = entries[at]
            self._keys.insert(position, key)
            self._payloads.insert(position, payload)
            for column, raw in self._raw.items():
                raw.insert(position, cells_of[column][at])

    def materialize(
        self,
        indices: np.ndarray,
        names: Tuple[str, ...],
        missing_as_none: bool = False,
    ) -> List[Dict[str, object]]:
        """Row dictionaries for the selected positions, in the given
        column order — the same dict the interpreter would build.

        With ``missing_as_none`` the output keeps every requested name
        and fills absent columns with ``None`` (the final SELECT-list
        shape, matching ``row.get``); otherwise absent columns are
        dropped (the internal row-stream shape).

        Cells are gathered per column with ``itemgetter`` and rows are
        re-formed by the compiled :func:`row_builder`, so the per-row
        Python work is one dict-literal construction rather than a
        cell-by-cell loop.
        """
        if not missing_as_none:
            names = tuple(name for name in names if self.has(name))
        count = len(indices)
        if count == 0:
            return []
        if not names:
            return [{} for _ in range(count)]
        span = contiguous_slice(indices)
        if span is None:
            positions = indices.tolist()
            picker = (
                operator.itemgetter(*positions)
                if count > 1
                else operator.itemgetter(positions[0])
            )
        gathered = []
        for name in names:
            if not self.has(name):
                gathered.append((None,) * count)
            elif span is not None:
                gathered.append(self.raw_column(name)[span[0]:span[1]])
            elif count == 1:
                gathered.append((picker(self.raw_column(name)),))
            else:
                gathered.append(picker(self.raw_column(name)))
        return row_builder(names)(gathered)


class ColumnarCache:
    """Lazily built, DML-maintained columnar projections for one table.

    ``hits`` / ``misses`` count projection lookups (one per vectorized
    scan; a lookup served after folding pending changes is a hit),
    ``invalidations`` the times live projections were discarded to be
    rebuilt from the tree, ``delta_rows`` the logged row changes folded
    into live projections instead.  All four are monotone so they can be
    published as fleet gauges.
    """

    __slots__ = (
        "_table", "_token", "_projections", "log",
        "hits", "misses", "invalidations", "delta_rows",
    )

    def __init__(self, table) -> None:
        self._table = table
        #: ``(data_version, schema_version)`` the projections are current at.
        self._token: Tuple[int, int] = (table.data_version, table.schema_version)
        self._projections: Dict[Optional[str], Projection] = {}
        #: Row changes since ``_token``; empty unless a projection is live.
        self.log: List[Change] = []
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.delta_rows = 0

    def log_changes(self, changes: Sequence[Change]) -> None:
        """Called by ``Table`` wherever it bumps ``data_version``, with
        one ``(old_row | None, new_row | None)`` per version step."""
        if self._projections:
            self.log.extend(changes)
            if len(self.log) > _REBUILD_SHARE * self._table.row_count:
                self._discard()

    def _discard(self) -> None:
        self.invalidations += 1
        self._projections.clear()
        self.log.clear()

    def _catch_up(self) -> None:
        """Bring live projections to the table's current version: fold
        the log when it accounts for every step, else discard them."""
        table = self._table
        token = (table.data_version, table.schema_version)
        if token == self._token:
            return
        if self._projections:
            log = self.log
            if (
                token[1] == self._token[1]
                and len(log) == token[0] - self._token[0]
                and all(p.fold(log) for p in self._projections.values())
            ):
                self.delta_rows += len(log)
                log.clear()
            else:
                self._discard()
        self._token = token

    def projection(self, index_name: Optional[str] = None) -> Projection:
        """Get-or-build the columnar image of one tree (None = clustered),
        current as of now and valid until the table's next write."""
        self._catch_up()
        cached = self._projections.get(index_name)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        built = Projection(self._table, index_name)
        self._projections[index_name] = built
        return built
