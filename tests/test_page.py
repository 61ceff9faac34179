"""Pages: slotted leaves, inner routing, abLSN bookkeeping, record reset."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.lsn import AbstractLsn
from repro.common.records import VersionedRecord, sizeof_key
from repro.storage.page import (
    InnerPage,
    LeafPage,
    PAGE_HEADER_BYTES,
    PageImage,
    PageKind,
)


def rec(key, value="v", owner=0):
    return VersionedRecord(key=key, committed=value, owner_tc=owner)


class TestLeafBasics:
    def test_put_get_remove(self):
        leaf = LeafPage(1)
        leaf.put(rec(5))
        assert leaf.get(5) is not None
        assert leaf.get(6) is None
        removed = leaf.remove(5)
        assert removed is not None and removed.key == 5
        assert leaf.get(5) is None

    def test_keys_stay_sorted(self):
        leaf = LeafPage(1)
        for key in (5, 1, 9, 3, 7):
            leaf.put(rec(key))
        assert leaf.keys() == [1, 3, 5, 7, 9]
        assert [r.key for r in leaf.records_in_order()] == [1, 3, 5, 7, 9]

    def test_put_replaces_slot(self):
        leaf = LeafPage(1)
        leaf.put(rec(1, "a"))
        leaf.put(rec(1, "bb"))
        assert leaf.record_count() == 1
        assert leaf.get(1).committed == "bb"

    def test_range_inclusive_bounds(self):
        leaf = LeafPage(1)
        for key in range(10):
            leaf.put(rec(key))
        assert [r.key for r in leaf.range(3, 6)] == [3, 4, 5, 6]
        assert [r.key for r in leaf.range(None, 2)] == [0, 1, 2]
        assert [r.key for r in leaf.range(8, None)] == [8, 9]

    def test_keys_after_and_from(self):
        leaf = LeafPage(1)
        for key in (2, 4, 6):
            leaf.put(rec(key))
        assert list(leaf.keys_after(4)) == [6]
        assert list(leaf.keys_from(4)) == [4, 6]
        assert list(leaf.keys_after(None)) == [2, 4, 6]

    def test_min_max(self):
        leaf = LeafPage(1)
        assert leaf.min_key() is None and leaf.max_key() is None
        for key in (3, 1, 2):
            leaf.put(rec(key))
        assert leaf.min_key() == 1 and leaf.max_key() == 3


class TestLeafSpaceModel:
    def test_empty_page_has_header_only(self):
        assert LeafPage(1).used_bytes() == PAGE_HEADER_BYTES

    def test_used_bytes_tracks_puts_and_removes(self):
        leaf = LeafPage(1)
        record = rec(1, "hello")
        leaf.put(record)
        assert leaf.used_bytes() == PAGE_HEADER_BYTES + record.encoded_size()
        leaf.remove(1)
        assert leaf.used_bytes() == PAGE_HEADER_BYTES

    def test_fits(self):
        leaf = LeafPage(1)
        assert leaf.fits(10, PAGE_HEADER_BYTES + 10)
        assert not leaf.fits(11, PAGE_HEADER_BYTES + 10)

    @settings(max_examples=50)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=30),
                st.text(max_size=20),
                st.booleans(),
            ),
            max_size=60,
        )
    )
    def test_used_bytes_always_consistent(self, steps):
        """Property: incremental accounting == recomputed-from-scratch."""
        leaf = LeafPage(1)
        for key, value, is_remove in steps:
            if is_remove:
                leaf.remove(key)
            else:
                leaf.put(rec(key, value))
        recomputed = PAGE_HEADER_BYTES + sum(
            r.encoded_size() for r in leaf.records_in_order()
        )
        assert leaf.used_bytes() == recomputed
        assert leaf.keys() == sorted(leaf.keys())


class TestSplitHelpers:
    def test_choose_split_key_balances_bytes(self):
        leaf = LeafPage(1)
        for key in range(10):
            leaf.put(rec(key, "x" * 10))
        split = leaf.choose_split_key()
        assert 1 <= split <= 9

    def test_split_needs_two_records(self):
        leaf = LeafPage(1)
        leaf.put(rec(1))
        with pytest.raises(ValueError):
            leaf.choose_split_key()

    def test_extract_from_moves_upper_half(self):
        leaf = LeafPage(1)
        for key in range(10):
            leaf.put(rec(key))
        moved = leaf.extract_from(6)
        assert [r.key for r in moved] == [6, 7, 8, 9]
        assert leaf.keys() == [0, 1, 2, 3, 4, 5]
        recomputed = PAGE_HEADER_BYTES + sum(
            r.encoded_size() for r in leaf.records_in_order()
        )
        assert leaf.used_bytes() == recomputed


class TestAbLsnOnPages:
    def test_ablsn_created_on_demand_per_tc(self):
        leaf = LeafPage(1)
        leaf.ablsn_for(1).include(5)
        leaf.ablsn_for(2).include(9)
        assert leaf.ablsn_for(1).contains(5)
        assert not leaf.ablsn_for(1).contains(9)
        assert leaf.ablsn_for(2).contains(9)

    def test_reflects_loss(self):
        leaf = LeafPage(1)
        leaf.ablsn_for(1).include(8)
        assert leaf.reflects_loss(1, 7)
        assert not leaf.reflects_loss(1, 8)
        assert not leaf.reflects_loss(2, 0)

    def test_overhead_and_pending_counts(self):
        leaf = LeafPage(1)
        leaf.ablsn_for(1).include(5)
        leaf.ablsn_for(1).include(6)
        leaf.ablsn_for(2).include(7)
        assert leaf.pending_lsn_count() == 3
        assert leaf.ablsn_overhead_bytes() > 0


class TestRecordLevelReset:
    """Section 6.1.2: replace only the failed TC's records from disk."""

    def _page_with_two_tcs(self):
        leaf = LeafPage(1)
        leaf.put(rec(1, "tc1-old", owner=1))
        leaf.put(rec(2, "tc2-data", owner=2))
        leaf.ablsn_for(1).include(10)
        leaf.ablsn_for(2).include(11)
        disk = leaf.snapshot()
        # now TC1 updates its record beyond the stable log
        leaf.put(leaf.get(1).set_committed("tc1-lost-update"))
        leaf.ablsn_for(1).include(20)  # the lost operation
        return leaf, disk

    def test_reset_restores_failed_tc_only(self):
        leaf, disk = self._page_with_two_tcs()
        changed = leaf.reset_tc_records(1, disk)
        assert changed == 2  # removed + restored
        assert leaf.get(1).committed == "tc1-old"
        assert leaf.get(2).committed == "tc2-data"  # untouched
        assert not leaf.ablsn_for(1).contains(20)
        assert leaf.ablsn_for(1).contains(10)
        assert leaf.ablsn_for(2).contains(11)  # other TC's abLSN intact

    def test_reset_without_disk_baseline_drops_records(self):
        leaf, _disk = self._page_with_two_tcs()
        leaf.reset_tc_records(1, None)
        assert leaf.get(1) is None
        assert leaf.get(2) is not None
        assert leaf.ablsn_for(1).is_null()


class TestInnerPage:
    def _inner(self):
        inner = InnerPage(10)
        inner.separators = [10, 20]
        inner.children = [1, 2, 3]
        return inner

    def test_routing(self):
        inner = self._inner()
        assert inner.child_for(5) == 1
        assert inner.child_for(10) == 2  # separator routes right
        assert inner.child_for(15) == 2
        assert inner.child_for(25) == 3

    def test_insert_child(self):
        inner = self._inner()
        inner.insert_child(15, 9)
        assert inner.separators == [10, 15, 20]
        assert inner.children == [1, 2, 9, 3]
        assert inner.child_for(17) == 9

    def test_remove_child(self):
        inner = self._inner()
        inner.remove_child(2)
        assert inner.separators == [20]
        assert inner.children == [1, 3]

    def test_cannot_remove_leftmost(self):
        inner = self._inner()
        with pytest.raises(ValueError):
            inner.remove_child(1)

    def test_used_bytes_grows_with_children(self):
        inner = self._inner()
        before = inner.used_bytes()
        inner.insert_child(30, 4)
        assert inner.used_bytes() > before

    def test_used_bytes_follows_every_change(self):
        """The kept separator total equals a fresh sum after each way a
        separator list changes: in place by insert / remove, whole by
        assignment, and rebuilt from an image."""

        def walked(page):
            return PAGE_HEADER_BYTES + sum(map(sizeof_key, page.separators)) + 8 * len(
                page.children
            )

        inner = self._inner()
        assert inner.used_bytes() == walked(inner)
        inner.insert_child(15, 4)
        assert inner.used_bytes() == walked(inner)
        inner.remove_child(2)
        assert inner.used_bytes() == walked(inner)
        inner.separators, inner.children = ["b", "dddd"], [7, 8, 9]
        assert inner.used_bytes() == walked(inner)
        inner.insert_child("a long separator key", 5)
        assert inner.used_bytes() == walked(inner)
        clone = inner.snapshot().materialize()
        assert clone.used_bytes() == walked(inner)
        clone.remove_child(5)
        assert clone.used_bytes() == walked(clone)


class TestPageImage:
    def test_leaf_roundtrip(self):
        leaf = LeafPage(7)
        leaf.put(rec(1, "a", owner=3))
        leaf.dlsn = 5
        leaf.page_lsn = 9
        leaf.ablsn_for(3).include(4)
        image = leaf.snapshot()
        clone = image.materialize()
        assert isinstance(clone, LeafPage)
        assert clone.page_id == 7 and clone.dlsn == 5 and clone.page_lsn == 9
        assert clone.get(1).committed == "a"
        assert clone.ablsn_for(3).contains(4)
        assert not clone.dirty

    def test_image_isolated_from_source(self):
        leaf = LeafPage(7)
        leaf.put(rec(1, "a"))
        image = leaf.snapshot()
        # The image shares the leaf's record; what isolates it is that the
        # record refuses writes and a change replaces the leaf's slot.
        assert image.records[0] is leaf.get(1)
        with pytest.raises(AttributeError):
            leaf.get(1).committed = "mutated"
        leaf.put(leaf.get(1).set_committed("mutated"))
        leaf.ablsn_for(1).include(99)
        clone = image.materialize()
        assert clone.get(1).committed == "a"
        assert not clone.ablsn_for(1).contains(99)

    def test_inner_roundtrip(self):
        inner = InnerPage(8)
        inner.separators = [5]
        inner.children = [1, 2]
        inner.dlsn = 3
        clone = inner.snapshot().materialize()
        assert isinstance(clone, InnerPage)
        assert clone.separators == [5] and clone.children == [1, 2]

    def test_encoded_size_positive(self):
        leaf = LeafPage(1)
        leaf.put(rec(1))
        assert leaf.snapshot().encoded_size() > PAGE_HEADER_BYTES

    def test_kind_preserved(self):
        assert LeafPage(1).snapshot().kind is PageKind.LEAF
        assert InnerPage(1).snapshot().kind is PageKind.INNER
