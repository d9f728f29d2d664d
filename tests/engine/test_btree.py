"""B+ tree unit and property tests."""

from __future__ import annotations

import bisect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.btree import BPlusTree, PageMeter
from repro.engine.types import NULL, key_of


def build_tree(entries, leaf_capacity=8, internal_capacity=8):
    tree = BPlusTree(leaf_capacity=leaf_capacity, internal_capacity=internal_capacity)
    for key, payload in entries:
        tree.insert(key, payload)
    return tree


class TestInsertScan:
    def test_empty_tree(self):
        tree = BPlusTree()
        assert len(tree) == 0
        assert list(tree.scan()) == []
        assert tree.height == 1

    def test_single_entry(self):
        tree = BPlusTree()
        tree.insert((5,), ("a",))
        assert list(tree.scan()) == [((5,), ("a",))]

    def test_scan_returns_sorted_order(self):
        rng = np.random.default_rng(3)
        keys = [int(k) for k in rng.permutation(500)]
        tree = build_tree([((k,), (k * 2,)) for k in keys])
        scanned = [key[0] for key, _payload in tree.scan()]
        assert scanned == sorted(keys)

    def test_duplicate_keys_all_returned(self):
        tree = build_tree([((7,), (i,)) for i in range(20)])
        results = list(tree.seek_prefix((7,)))
        assert len(results) == 20

    def test_composite_keys_ordering(self):
        tree = build_tree([((1, "b"), (1,)), ((1, "a"), (2,)), ((0, "z"), (3,))])
        scanned = [key for key, _p in tree.scan()]
        assert scanned == [(0, "z"), (1, "a"), (1, "b")]

    def test_null_keys_sort_first(self):
        tree = build_tree([((5,), (1,)), ((None,), (2,)), ((3,), (3,))])
        scanned = [key[0] for key, _p in tree.scan()]
        assert scanned == [None, 3, 5]

    def test_height_grows_with_size(self):
        tree = build_tree([((i,), ()) for i in range(1000)], leaf_capacity=8)
        assert tree.height >= 3
        assert tree.page_count > 100


class TestSnapshot:
    def test_parallel_lists_match_scan_and_sort_keys(self):
        rng = np.random.default_rng(5)
        keys = [None] + [int(k) for k in rng.permutation(300)]
        tree = build_tree([((k, "x"), (k,)) for k in keys])
        tree.delete((17, "x"))
        nkeys, snapshot_keys, payloads = tree.snapshot()
        assert list(zip(snapshot_keys, payloads)) == list(tree.scan())
        assert nkeys == sorted(nkeys)
        assert nkeys == [key_of(key) for key in snapshot_keys]
        # Keys are stored once: a NULL-free key is its own order key.
        assert nkeys[0] == (NULL, "x") and snapshot_keys[0] == (None, "x")
        assert all(
            nkey is key for nkey, key in zip(nkeys[1:], snapshot_keys[1:])
        )

    def test_snapshot_is_a_copy_and_unmetered(self):
        tree = build_tree([((i,), (i,)) for i in range(50)])
        nkeys, _keys, _payloads = tree.snapshot()
        nkeys.clear()
        assert len(tree.snapshot()[0]) == 50 == len(tree)


def test_every_public_method_has_a_docstring():
    public = [n for n, v in vars(BPlusTree).items()
              if callable(v) and not n.startswith("_")]
    assert [n for n in public if not getattr(BPlusTree, n).__doc__] == []


class TestSeek:
    def test_seek_prefix_exact(self):
        tree = build_tree([((i % 50, i), (i,)) for i in range(500)])
        hits = list(tree.seek_prefix((13,)))
        assert len(hits) == 10
        assert all(key[0] == 13 for key, _p in hits)

    def test_seek_prefix_missing(self):
        tree = build_tree([((i,), ()) for i in range(100)])
        assert list(tree.seek_prefix((1000,))) == []

    def test_seek_full_key(self):
        tree = build_tree([((i, i * 10), (i,)) for i in range(100)])
        hits = list(tree.seek_prefix((42, 420)))
        assert hits == [((42, 420), (42,))]


class TestRangeScan:
    @pytest.fixture
    def tree(self):
        return build_tree([((i,), (i,)) for i in range(100)])

    def test_closed_range(self, tree):
        keys = [k[0] for k, _p in tree.range_scan((10,), (20,))]
        assert keys == list(range(10, 21))

    def test_open_low(self, tree):
        keys = [k[0] for k, _p in tree.range_scan((10,), (20,), low_inclusive=False)]
        assert keys == list(range(11, 21))

    def test_open_high(self, tree):
        keys = [k[0] for k, _p in tree.range_scan((10,), (20,), high_inclusive=False)]
        assert keys == list(range(10, 20))

    def test_unbounded_low(self, tree):
        keys = [k[0] for k, _p in tree.range_scan(None, (5,))]
        assert keys == list(range(0, 6))

    def test_unbounded_high(self, tree):
        keys = [k[0] for k, _p in tree.range_scan((95,), None)]
        assert keys == list(range(95, 100))

    def test_exclusive_low_with_duplicates_spanning_leaves(self):
        tree = build_tree(
            [((5, i), (i,)) for i in range(50)] + [((6, i), (i,)) for i in range(5)],
            leaf_capacity=4,
        )
        keys = [k for k, _p in tree.range_scan((5,), None, low_inclusive=False)]
        assert all(k[0] == 6 for k in keys)
        assert len(keys) == 5

    def test_prefix_range_on_composite(self):
        tree = build_tree([((i % 10, i), (i,)) for i in range(200)])
        hits = [k for k, _p in tree.range_scan((3,), (4,))]
        assert all(k[0] in (3, 4) for k in hits)
        assert len(hits) == 40


class TestDelete:
    def test_delete_existing(self):
        tree = build_tree([((i,), (i,)) for i in range(50)])
        assert tree.delete((25,)) == 1
        assert len(tree) == 49
        assert list(tree.seek_prefix((25,))) == []

    def test_delete_missing_returns_zero(self):
        tree = build_tree([((i,), (i,)) for i in range(10)])
        assert tree.delete((99,)) == 0
        assert len(tree) == 10

    def test_delete_with_payload_filter(self):
        tree = build_tree([((7,), (i,)) for i in range(5)])
        assert tree.delete((7,), payload=(2,)) == 1
        remaining = [p for _k, p in tree.seek_prefix((7,))]
        assert (2,) not in remaining
        assert len(remaining) == 4

    def test_delete_duplicates_across_leaves(self):
        tree = build_tree([((7, i), ()) for i in range(40)], leaf_capacity=4)
        removed = tree.delete((7, 20))
        assert removed == 1
        assert len(tree) == 39


class TestBulkLoad:
    def test_bulk_load_matches_incremental(self):
        entries = [((i,), (i * 3,)) for i in range(777)]
        bulk = BPlusTree.bulk_load(entries, leaf_capacity=16)
        incremental = build_tree(entries, leaf_capacity=16)
        assert list(bulk.scan()) == list(incremental.scan())
        assert len(bulk) == 777

    def test_bulk_load_empty(self):
        tree = BPlusTree.bulk_load([])
        assert len(tree) == 0
        assert list(tree.scan()) == []

    def test_bulk_load_unsorted_input(self):
        rng = np.random.default_rng(5)
        keys = [int(k) for k in rng.permutation(300)]
        tree = BPlusTree.bulk_load([((k,), ()) for k in keys])
        assert [k[0] for k, _p in tree.scan()] == sorted(keys)


class TestPageMeter:
    def test_seek_touches_few_pages(self):
        tree = build_tree([((i,), (i,)) for i in range(5000)], leaf_capacity=64)
        meter = PageMeter()
        list(tree.seek_prefix((2500,), meter=meter))
        assert meter.pages <= tree.height + 1

    def test_scan_touches_all_leaves(self):
        tree = build_tree([((i,), (i,)) for i in range(2000)], leaf_capacity=32)
        meter = PageMeter()
        list(tree.scan(meter=meter))
        assert meter.pages >= tree.leaf_page_count


#: Integer key regions: small keys, BIGINT either side of ±2**53 (where
#: a float image of a key collides with its neighbour's) and the BIGINT
#: extremes.
_INT_REGIONS = [
    st.integers(-1000, 1000),
    st.integers(2**53 - 3, 2**53 + 3),
    st.integers(-(2**53) - 3, -(2**53) + 3),
    st.sampled_from([2**63 - 1, -(2**63 - 1), 0]),
]
_INTS = st.one_of(_INT_REGIONS)

#: One column type's key values each: an integer region; FLOAT with
#: -0.0, ±inf and subnormals; TEXT with quotes and non-ASCII.
_DOMAINS = st.sampled_from(
    _INT_REGIONS
    + [
        st.one_of(
            st.floats(-1000, 1000),
            st.sampled_from(
                [-0.0, 0.0, math.inf, -math.inf, 5e-324, -5e-324, 2.5e-310]
            ),
        ),
        st.text(alphabet="ab'é字😀", max_size=3),
    ]
)


@st.composite
def keys_and_bounds(draw, max_size):
    """Keys of one column type, plus two probes of that type."""
    values = draw(_DOMAINS)
    keys = draw(st.lists(values, min_size=1, max_size=max_size))
    return keys, draw(values), draw(values)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(_INTS, st.integers(0, 5)),
        min_size=0,
        max_size=300,
    )
)
def test_property_contents_match_sorted_multiset(pairs):
    """Tree scan equals the sorted multiset of inserted entries."""
    tree = BPlusTree(leaf_capacity=4, internal_capacity=4)
    for a, b in pairs:
        tree.insert((a, b), (a * b,))
    expected = sorted(((a, b), (a * b,)) for a, b in pairs)
    assert sorted(tree.scan()) == expected
    assert len(tree) == len(pairs)


def reference_walk(
    tree, low=None, high=None, low_inclusive=True, high_inclusive=True, meter=None
):
    """The per-entry range walk :meth:`BPlusTree.spans` replaced, kept as
    its oracle: one step per entry, a page per level descended and one
    per leaf hop, charged as the consumer pulls."""
    meter = meter if meter is not None else PageMeter()
    nlow = () if low is None else key_of(low)
    leaf = tree._descend_to_leaf(nlow, meter)
    pos = bisect.bisect_left(leaf.nkeys, nlow)
    nhigh = None if high is None else key_of(high)
    skipping = low is not None and not low_inclusive
    while True:
        if pos >= len(leaf.nkeys):
            leaf = leaf.next
            if leaf is None:
                return
            meter.charge()
            pos = 0
            continue
        nkey = leaf.nkeys[pos]
        if skipping:
            if nkey[: len(nlow)] == nlow:
                pos += 1
                continue
            skipping = False
        if nhigh is not None:
            head = nkey[: len(nhigh)]
            if head > nhigh or (head == nhigh and not high_inclusive):
                return
        yield leaf.keys[pos], leaf.payloads[pos]
        pos += 1


def pulls(walk, *bounds):
    """Each entry ``walk(*bounds, meter=...)`` yields with the pages
    charged by the time it was pulled, then the pages charged in all."""
    meter = PageMeter()
    return [(entry, meter.pages) for entry in walk(*bounds, meter=meter)], meter.pages


def first_then_close(walk, *bounds):
    """A key lookup's use of a walk: take the first entry, then close."""
    meter = PageMeter()
    entries = walk(*bounds, meter=meter)
    first = next(entries, None)
    entries.close()
    return first, meter.pages


def assert_walks_match(tree, low, high, low_inclusive=True, high_inclusive=True):
    """``range_scan`` (and ``seek_prefix`` for a one-key range) yields
    what the reference walk yields, charging the same pages at every
    pull and in all."""
    bounds = (low, high, low_inclusive, high_inclusive)
    want = pulls(reference_walk, tree, *bounds)
    assert pulls(tree.range_scan, *bounds) == want
    if low is not None and low == high and low_inclusive and high_inclusive:
        assert pulls(tree.seek_prefix, low) == want
        assert first_then_close(tree.seek_prefix, low) == first_then_close(
            reference_walk, tree, *bounds
        )


@settings(max_examples=60, deadline=None)
@given(
    keys_and_bounds(max_size=200),
    st.sets(st.integers(0, 199)),
    st.sampled_from([None, 1, 2]),
    st.sampled_from([None, 1, 2]),
    st.booleans(),
    st.booleans(),
)
def test_property_range_scan_matches_filter(
    drawn, deleted, low_width, high_width, low_inclusive, high_inclusive
):
    """Range scan equals a brute-force filter over the inserted keys.
    Over composite keys, with deletes leaving empty leaves and stale
    separators, inclusive, exclusive and open bounds of either width,
    it also yields and charges exactly what the reference walk does."""
    keys, lo, hi = drawn
    lo, hi = min(lo, hi), max(lo, hi)
    tree = BPlusTree(leaf_capacity=4)
    for k in keys:
        tree.insert((k,), ())
    got = sorted(k[0] for k, _p in tree.range_scan((lo,), (hi,)))
    expected = sorted(k for k in keys if lo <= k <= hi)
    assert got == expected

    entries = [(k, i) for i, k in enumerate(keys)]
    tree = build_tree(((e, (e[1],)) for e in entries), leaf_capacity=4)
    for i in sorted(deleted):
        if i < len(entries):
            assert tree.delete(entries[i]) == 1
    low = None if low_width is None else (lo, len(keys) // 2)[:low_width]
    high = None if high_width is None else (hi, len(keys) // 2)[:high_width]
    assert_walks_match(tree, low, high, low_inclusive, high_inclusive)
    for probe in {(lo,), (hi,), entries[0]}:
        assert_walks_match(tree, probe, probe)
        assert_walks_match(tree, probe, probe, False, high_inclusive)


@settings(max_examples=40, deadline=None)
@given(keys_and_bounds(max_size=120))
def test_property_delete_then_absent(drawn):
    """After deleting every copy of a key, seeks find nothing.  On
    unique keys, ``replace`` then leaves exactly what ``delete`` +
    ``insert`` of the same key leaves — for every surviving key, those
    equal to a separator included, beside leaves deletes emptied — and
    a deleted key is not replaced."""
    keys, lo, hi = drawn
    tree = BPlusTree(leaf_capacity=4)
    for k in keys:
        tree.insert((k,), (k,))
    target = keys[0]
    expected_removed = keys.count(target)
    assert tree.delete((target,)) == expected_removed
    assert list(tree.seek_prefix((target,))) == []
    assert len(tree) == len(keys) - expected_removed
    # Every seek around the hole, and past the ends, walks as the
    # reference does; a key lookup stopping at a leaf's last entry
    # never pays for the hop beyond it.
    for probe in {target, lo, hi, *keys[1:]}:
        assert_walks_match(tree, (probe,), (probe,))

    def shape(t):
        return t.snapshot(), t.height, t.leaf_page_count

    # Unique keys, as a secondary index's end in the primary key.
    entries = [(k, i) for i, k in enumerate(keys)]
    replaced, reference = (build_tree((e, (0,)) for e in entries) for _ in "ab")
    lo, hi = min(lo, hi), max(lo, hi)
    gone = [e for e in entries if lo <= e[0] <= hi]
    for e in gone:
        replaced.delete(e)
        reference.delete(e)
    for e in gone:
        assert replaced.replace(e, (1,)) is False
    assert shape(replaced) == shape(reference)
    for probe in {lo, hi, *keys}:  # across the leaves the deletes emptied
        assert_walks_match(replaced, (probe,), (probe,))
    for e in sorted(set(entries) - set(gone), key=key_of):
        assert replaced.replace(e, (e[1] + 2,)) is True
        reference.delete(e)
        reference.insert(e, (e[1] + 2,))
        assert shape(replaced) == shape(reference)
