"""A paged B+ tree with logical-read accounting.

This is the storage structure behind both clustered and non-clustered
indexes.  Every traversal counts the pages (nodes) it touches into a
:class:`PageMeter`, which is how the executor derives ``logical_reads`` —
the metric the paper's validator treats as a primary plan-quality signal
(Section 6).

Keys are tuples of column values, compared as themselves, with the order
key :func:`repro.engine.types.key_of` stored alongside: the key itself
unless it holds a NULL, so comparisons never see raw ``None``.

Deletion removes entries from leaves without rebalancing (underflowed nodes
are merged only when they become empty).  This keeps the implementation
compact while preserving exact key/payload contents; page counts may
slightly overstate an aggressively shrunk tree, which is harmless for the
cost accounting this simulator needs.

:meth:`BPlusTree.replace` overwrites one entry of a unique-keyed tree in
place: one descent, no leaf edit, the structure ``delete`` + ``insert``
of the same key would leave.  The mutators are per-entry hot paths and
tick no profiler; :class:`~repro.engine.table.Table` counts the entries
each DML batch maintained at once.  Seeks and scans tick per walk.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.engine.types import key_of
from repro.observability.profiling import count

Key = Tuple[object, ...]
Payload = Tuple[object, ...]
Span = Tuple["_Node", int, int]


class PageMeter:
    """Counts logical page reads performed by storage operations."""

    __slots__ = ("pages",)

    def __init__(self) -> None:
        self.pages = 0

    def charge(self, pages: int = 1) -> None:
        self.pages += pages


_NULL_METER = PageMeter()


class _Node:
    __slots__ = ("leaf", "nkeys", "children", "keys", "payloads", "next")

    def __init__(self, leaf: bool) -> None:
        self.leaf = leaf
        self.nkeys: List[Key] = []
        # Internal nodes only:
        self.children: List["_Node"] = []
        # Leaf nodes only:
        self.keys: List[Key] = []
        self.payloads: List[Payload] = []
        self.next: Optional["_Node"] = None


class BPlusTree:
    """An order-configurable B+ tree mapping composite keys to payloads.

    Duplicate keys are allowed; :meth:`seek_prefix` and :meth:`range_scan`
    return every matching entry.  Callers that need uniqueness (e.g. the
    clustered index keyed by primary key) enforce it a level above.
    """

    def __init__(self, leaf_capacity: int = 64, internal_capacity: int = 64):
        self.leaf_capacity = max(4, leaf_capacity)
        self.internal_capacity = max(4, internal_capacity)
        self._root: _Node = _Node(leaf=True)
        self._height = 1
        self._size = 0
        self._leaf_count = 1
        self._internal_count = 0

    # ------------------------------------------------------------------
    # Introspection

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        return self._height

    @property
    def page_count(self) -> int:
        """Total node (page) count, leaves plus internal nodes."""
        return self._leaf_count + self._internal_count

    @property
    def leaf_page_count(self) -> int:
        return self._leaf_count

    # ------------------------------------------------------------------
    # Construction

    @classmethod
    def bulk_load(
        cls,
        entries: Iterable[Tuple[Key, Payload]],
        leaf_capacity: int = 64,
        internal_capacity: int = 64,
    ) -> "BPlusTree":
        """Build a tree from entries, sorting them once.

        This mirrors an offline index build: a scan plus a sort, then a
        bottom-up packed construction at ~90% fill.
        """
        tree = cls(leaf_capacity=leaf_capacity, internal_capacity=internal_capacity)
        decorated = sorted(
            ((key_of(key), key, payload) for key, payload in entries),
            key=lambda item: item[0],
        )
        if not decorated:
            return tree
        fill = max(2, int(tree.leaf_capacity * 0.9))
        leaves: List[_Node] = []
        for start in range(0, len(decorated), fill):
            chunk = decorated[start : start + fill]
            leaf = _Node(leaf=True)
            leaf.nkeys = [item[0] for item in chunk]
            leaf.keys = [item[1] for item in chunk]
            leaf.payloads = [item[2] for item in chunk]
            if leaves:
                leaves[-1].next = leaf
            leaves.append(leaf)
        level = leaves
        height = 1
        internal_count = 0
        internal_fill = max(2, int(tree.internal_capacity * 0.9))
        while len(level) > 1:
            parents: List[_Node] = []
            for start in range(0, len(level), internal_fill):
                chunk = level[start : start + internal_fill]
                parent = _Node(leaf=False)
                parent.children = chunk
                parent.nkeys = [_min_nkey(child) for child in chunk[1:]]
                parents.append(parent)
            internal_count += len(parents)
            level = parents
            height += 1
        tree._root = level[0]
        tree._height = height
        tree._size = len(decorated)
        tree._leaf_count = len(leaves)
        tree._internal_count = internal_count
        return tree

    # ------------------------------------------------------------------
    # Mutation

    def insert(self, key: Key, payload: Payload) -> None:
        """Insert an entry; duplicates are stored adjacent to equals."""
        nkey = key_of(key)
        split = self._insert(self._root, nkey, key, payload)
        if split is not None:
            sep, right = split
            new_root = _Node(leaf=False)
            new_root.nkeys = [sep]
            new_root.children = [self._root, right]
            self._root = new_root
            self._height += 1
            self._internal_count += 1
        self._size += 1

    def _insert(
        self, node: _Node, nkey: Key, key: Key, payload: Payload
    ) -> Optional[Tuple[Key, _Node]]:
        if node.leaf:
            pos = bisect.bisect_right(node.nkeys, nkey)
            node.nkeys.insert(pos, nkey)
            node.keys.insert(pos, key)
            node.payloads.insert(pos, payload)
            if len(node.nkeys) > self.leaf_capacity:
                return self._split_leaf(node)
            return None
        child_pos = bisect.bisect_right(node.nkeys, nkey)
        split = self._insert(node.children[child_pos], nkey, key, payload)
        if split is None:
            return None
        sep, right = split
        node.nkeys.insert(child_pos, sep)
        node.children.insert(child_pos + 1, right)
        if len(node.children) > self.internal_capacity:
            return self._split_internal(node)
        return None

    def _split_leaf(self, node: _Node) -> Tuple[Key, _Node]:
        mid = len(node.nkeys) // 2
        right = _Node(leaf=True)
        right.nkeys = node.nkeys[mid:]
        right.keys = node.keys[mid:]
        right.payloads = node.payloads[mid:]
        right.next = node.next
        node.nkeys = node.nkeys[:mid]
        node.keys = node.keys[:mid]
        node.payloads = node.payloads[:mid]
        node.next = right
        self._leaf_count += 1
        return right.nkeys[0], right

    def _split_internal(self, node: _Node) -> Tuple[Key, _Node]:
        mid = len(node.children) // 2
        sep = node.nkeys[mid - 1]
        right = _Node(leaf=False)
        right.nkeys = node.nkeys[mid:]
        right.children = node.children[mid:]
        node.nkeys = node.nkeys[: mid - 1]
        node.children = node.children[:mid]
        self._internal_count += 1
        return sep, right

    def delete(self, key: Key, payload: Optional[Payload] = None) -> int:
        """Delete entries equal to ``key``.

        If ``payload`` is given only entries with that exact payload are
        removed (needed for non-unique secondary indexes where the payload
        carries the row locator).  Returns the number of entries removed.
        """
        nkey = key_of(key)
        removed = 0
        leaf: Optional[_Node] = self._descend_to_leaf(nkey, _NULL_METER)
        pos = bisect.bisect_left(leaf.nkeys, nkey)
        while leaf is not None:
            if pos >= len(leaf.nkeys):
                leaf = leaf.next
                pos = 0
                continue
            if leaf.nkeys[pos] != nkey:
                break
            if payload is None or leaf.payloads[pos] == payload:
                del leaf.nkeys[pos]
                del leaf.keys[pos]
                del leaf.payloads[pos]
                removed += 1
            else:
                pos += 1
        self._size -= removed
        return removed

    def replace(self, key: Key, payload: Payload) -> bool:
        """Overwrite the entry whose key equals ``key`` with ``(key,
        payload)``; False, changing nothing, if there is none.

        For unique keys only (the clustered index; a secondary index,
        whose keys end in the primary key).  There it leaves what
        ``delete(key)`` + ``insert(key, payload)`` leaves: the delete
        never rebalances, and the insert routes the key back into the
        same leaf, now one entry shorter, at the same position, so it
        cannot split.  Snapshot, height and page counts are identical;
        only the second descent and the two list edits are saved.
        """
        nkey = key_of(key)
        node = self._root
        while not node.leaf:
            # Insert's routing: every unique key lives where it sends it.
            node = node.children[bisect.bisect_right(node.nkeys, nkey)]
        pos = bisect.bisect_left(node.nkeys, nkey)
        if pos == len(node.nkeys) or node.nkeys[pos] != nkey:
            return False
        node.nkeys[pos] = nkey
        node.keys[pos] = key
        node.payloads[pos] = payload
        return True

    # ------------------------------------------------------------------
    # Lookup

    def _descend_to_leaf(self, nkey: Key, meter: PageMeter) -> _Node:
        """Descend to the leftmost leaf that can contain ``nkey``.

        Uses ``bisect_left`` on separators so duplicate keys spanning a
        separator boundary are found from their first; ``()`` finds the
        first leaf.
        """
        node = self._root
        meter.charge()
        while not node.leaf:
            pos = bisect.bisect_left(node.nkeys, nkey)
            node = node.children[pos]
            meter.charge()
        return node

    def spans(
        self,
        low: Optional[Key] = None,
        high: Optional[Key] = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
        meter: Optional[PageMeter] = None,
        counter: str = "btree_range_scan",
    ) -> Iterator[Span]:
        """Yield ``(leaf, a, b)`` spans, non-empty and in key order, whose
        entries ``leaf.keys[a:b]`` lie within :meth:`range_scan`'s bounds.

        The one walk behind every seek and scan; ticks ``counter`` once.
        It charges a page per level descended and one per leaf hop, a
        hop only when the consumer pulls past a span that ends its leaf
        (a key lookup taking one entry never pays for the next leaf).
        Empty leaves are hopped over; an exclusive low bound skips the
        entries equal to it across leaves."""
        count(counter)
        meter = meter if meter is not None else _NULL_METER
        nlow = () if low is None else key_of(low)
        leaf = self._descend_to_leaf(nlow, meter)
        a = bisect.bisect_left(leaf.nkeys, nlow)
        # ``bound + (_TOP,)`` sorts after every key beginning with
        # ``bound`` and before every later one: C bisects find the ends.
        skip = nlow + (_TOP,) if low is not None and not low_inclusive else None
        stop = None if high is None else nlow if high is low else key_of(high)
        if stop is not None and high_inclusive:
            stop += (_TOP,)
        while True:
            nkeys = leaf.nkeys
            if skip is not None:
                a = bisect.bisect_left(nkeys, skip, a)
                if a < len(nkeys):
                    skip = None
            b = len(nkeys) if stop is None else bisect.bisect_left(nkeys, stop, a)
            if a < b:
                yield leaf, a, b
            if b < len(nkeys):
                return
            leaf = leaf.next
            if leaf is None:
                return
            meter.charge()
            a = 0

    def fetch_sorted(self, nkeys: List[Key]) -> List[Optional[Payload]]:
        """Resolve ascending order keys of a unique-keyed tree in one
        left-to-right pass over its leaves, unmetered: each key's payload
        where the key sits past the first position of its leaf, else None.

        Such a key is what ``spans(key, key)`` reaches in exactly
        ``height`` pages: its leaf holds a smaller key too, so no
        separator on its path equals it and ``bisect_left`` routing takes
        the child insert routing takes.  A key at position 0 may equal a
        separator, which that routing passes on the left and pays leaf
        hops for; it is left None for the caller's real walk, as is an
        absent key.  The pass moves to the next leaf, or descends afresh
        only when the next key lies beyond that one too.
        """
        found: List[Optional[Payload]] = []
        leaf: Optional[_Node] = None
        last: Optional[Key] = None
        for nkey in nkeys:
            if last is None or nkey > last:
                successor = None if leaf is None else leaf.next
                if successor is not None and successor.nkeys and (
                    nkey <= successor.nkeys[-1]
                ):
                    leaf = successor
                else:
                    leaf = self._root
                    while not leaf.leaf:
                        leaf = leaf.children[bisect.bisect_right(leaf.nkeys, nkey)]
                last = leaf.nkeys[-1] if leaf.nkeys else None
            pos = bisect.bisect_left(leaf.nkeys, nkey)
            if 0 < pos < len(leaf.nkeys) and leaf.nkeys[pos] == nkey:
                found.append(leaf.payloads[pos])
            else:
                found.append(None)
        return found

    def seek_prefix(
        self, prefix: Key, meter: Optional[PageMeter] = None
    ) -> Iterator[Tuple[Key, Payload]]:
        """Yield all entries whose key begins with ``prefix``."""
        return span_entries(
            self.spans(prefix, prefix, meter=meter, counter="btree_seek")
        )

    def range_scan(
        self,
        low: Optional[Key] = None,
        high: Optional[Key] = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
        meter: Optional[PageMeter] = None,
    ) -> Iterator[Tuple[Key, Payload]]:
        """Yield entries with ``low <= key <= high`` (bounds optional).

        Bound keys may be shorter than stored keys; prefix comparison
        semantics apply (a 1-column bound against a 2-column key compares
        the first column only at the boundary).
        """
        full = low is None and high is None
        return span_entries(self.spans(
            low, high, low_inclusive, high_inclusive, meter,
            counter="btree_scan" if full else "btree_range_scan",
        ))

    def scan(self, meter: Optional[PageMeter] = None) -> Iterator[Tuple[Key, Payload]]:
        """Full in-order scan of all entries."""
        return self.range_scan(meter=meter)

    def items(self) -> Iterator[Tuple[Key, Payload]]:
        """Unmetered full scan (for snapshots and tests)."""
        return self.scan()

    def snapshot(self) -> Tuple[List[Key], List[Key], List[Payload]]:
        """Unmetered copy of every entry, in key order, as three parallel
        lists: order keys (:func:`key_of`), keys and payloads.

        Walks the leaf chain and extends each list a whole leaf at a
        time, so the copy runs at C speed.  The order keys are the
        tree's own, which lets a caller ``bisect`` the copy to the
        position of any key it later sees inserted or deleted.
        """
        nkeys: List[Key] = []
        keys: List[Key] = []
        payloads: List[Payload] = []
        leaf: Optional[_Node] = self._descend_to_leaf((), _NULL_METER)
        while leaf is not None:
            nkeys.extend(leaf.nkeys)
            keys.extend(leaf.keys)
            payloads.extend(leaf.payloads)
            leaf = leaf.next
        return nkeys, keys, payloads


def span_entries(spans: Iterator[Span]) -> Iterator[Tuple[Key, Payload]]:
    """The entries of a :meth:`BPlusTree.spans` walk, leaf slice by slice."""
    for leaf, a, b in spans:
        yield from zip(leaf.keys[a:b], leaf.payloads[a:b])


class _Top:
    """Above every key column value and NULL (see :meth:`BPlusTree.spans`)."""

    def __gt__(self, other: object) -> bool:
        return other is not self


_TOP = _Top()


def _min_nkey(node: _Node) -> Key:
    while not node.leaf:
        node = node.children[0]
    return node.nkeys[0]
