"""Records, versions (Section 6.2.2) and the byte-size model."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.records import (
    KEY_MAX,
    KEY_MIN,
    RecordView,
    TOMBSTONE,
    VersionedRecord,
    sizeof_key,
    sizeof_value,
)


class TestSizeModel:
    def test_primitives(self):
        assert sizeof_value(None) == 1
        assert sizeof_value(True) == 1
        assert sizeof_value(42) == 8
        assert sizeof_value(3.14) == 8
        assert sizeof_value("abcd") == 4
        assert sizeof_value(b"abc") == 3

    def test_containers_sum_parts(self):
        assert sizeof_value([1, 2]) > 2 * sizeof_value(1)
        assert sizeof_value({"a": 1}) > sizeof_value("a") + sizeof_value(1)

    def test_unicode_counts_bytes(self):
        assert sizeof_value("héllo") == len("héllo".encode("utf-8"))

    @given(st.text(max_size=200))
    def test_strings_deterministic(self, text):
        assert sizeof_value(text) == sizeof_value(text)

    def test_key_model_matches_value_model(self):
        assert sizeof_key((1, "abc")) == sizeof_value((1, "abc"))


class TestVersionedRecord:
    def test_plain_committed_visibility(self):
        record = VersionedRecord(key=1, committed="v1")
        assert record.visible_value(read_committed=True) == "v1"
        assert record.visible_value(read_committed=False) == "v1"
        assert record.exists_for(True) and record.exists_for(False)

    def test_pending_update_splits_visibility(self):
        """Read committed sees the before version; the owner (and dirty
        readers) see the pending version (Section 6.2.2)."""
        record = VersionedRecord(key=1, committed="before")
        record = record.set_pending("after")
        assert record.visible_value(read_committed=True) == "before"
        assert record.visible_value(read_committed=False) == "after"

    def test_pending_insert_invisible_to_read_committed(self):
        """"insert two versions, a before 'null' version followed by the
        intended insert" — committed readers see nothing yet."""
        record = VersionedRecord(key=1)
        record = record.set_pending("new")
        assert not record.exists_for(True)
        assert record.exists_for(False)

    def test_pending_delete_tombstone(self):
        record = VersionedRecord(key=1, committed="v")
        record = record.set_pending(TOMBSTONE)
        assert record.exists_for(True)  # before version still readable
        assert not record.exists_for(False)  # owner sees the delete
        assert record.visible_value(read_committed=False) is None

    def test_promote_update(self):
        record = VersionedRecord(key=1, committed="old")
        record = record.set_pending("new")
        record = record.promote_pending()
        assert record.committed == "new"
        assert not record.has_pending
        assert not record.is_dead()

    def test_promote_delete_makes_dead(self):
        record = VersionedRecord(key=1, committed="v")
        record = record.set_pending(TOMBSTONE)
        record = record.promote_pending()
        assert record.committed is None
        assert record.is_dead()

    def test_promote_without_pending_is_noop(self):
        record = VersionedRecord(key=1, committed="v")
        record = record.promote_pending()
        assert record.committed == "v"

    def test_discard_restores_committed_view(self):
        record = VersionedRecord(key=1, committed="keep")
        record = record.set_pending("drop")
        record = record.discard_pending()
        assert record.visible_value(read_committed=False) == "keep"
        assert not record.has_pending

    def test_discard_pending_insert_makes_dead(self):
        record = VersionedRecord(key=1)
        record = record.set_pending("new")
        record = record.discard_pending()
        assert record.is_dead()

    def test_promote_then_promote_idempotent(self):
        """Cleanup operations may be replayed after a crash — a second
        promote must be harmless (restart re-issues cleanups)."""
        record = VersionedRecord(key=1, committed="old")
        record = record.set_pending("new")
        record = record.promote_pending()
        record = record.promote_pending()
        assert record.committed == "new"

    def test_derivation_leaves_the_source_untouched(self):
        record = VersionedRecord(key=1, committed="v", owner_tc=7)
        derived = record.set_pending("x")
        assert not record.has_pending and derived.has_pending
        assert derived.owner_tc == 7
        assert record.set_committed("w", owner_tc=3) == VersionedRecord(
            key=1, committed="w", owner_tc=3
        )
        assert record == VersionedRecord(key=1, committed="v", owner_tc=7)

    def test_every_attribute_write_raises(self):
        record = VersionedRecord(key=1, committed="v")
        for field in VersionedRecord._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, "scribbled")
        with pytest.raises(AttributeError):
            record.extra = 1
        assert not hasattr(record, "clone")

    def test_cleanup_that_changes_nothing_returns_the_same_object(self):
        """The journal's delta rule reads "same object" as "unchanged"."""
        record = VersionedRecord(key=1, committed="v", history=((1, "a"),))
        assert record.promote_pending() is record
        assert record.discard_pending() is record
        assert record.prune_history(0) is record

    def test_encoded_size_grows_with_pending(self):
        record = VersionedRecord(key=1, committed="vvvv")
        base = record.encoded_size()
        record = record.set_pending("wwwwwwww")
        assert record.encoded_size() > base

    def test_owner_chain_costs_two_bytes(self):
        """Section 6.1.2: the record->TC chain is 'two byte offsets'."""
        anon = VersionedRecord(key=1, committed="v")
        owned = VersionedRecord(key=1, committed="v", owner_tc=3)
        assert owned.encoded_size() == anon.encoded_size() + 2


class TestKeyExtremes:
    def test_ordering_against_everything(self):
        for key in (0, -(10**9), 10**9, "", "zzz", (1, 2)):
            assert KEY_MIN < key < KEY_MAX
            assert not KEY_MIN > key
            assert not KEY_MAX < key
            assert KEY_MAX >= key >= KEY_MIN

    def test_extremes_against_each_other(self):
        assert KEY_MIN < KEY_MAX
        assert not KEY_MAX < KEY_MIN
        assert KEY_MIN == KEY_MIN and KEY_MAX == KEY_MAX
        assert KEY_MIN != KEY_MAX

    def test_composite_key_bounds(self):
        low = ("m1", KEY_MIN)
        high = ("m1", KEY_MAX)
        assert low < ("m1", "u1") < high
        assert high < ("m2", KEY_MIN)

    def test_hashable(self):
        assert len({KEY_MIN, KEY_MAX, KEY_MIN}) == 2


class TestRecordView:
    def test_as_tuple(self):
        view = RecordView(1, "v")
        assert view.as_tuple() == (1, "v")

    def test_frozen(self):
        view = RecordView(1, "v")
        try:
            view.key = 2  # type: ignore[misc]
            raised = False
        except AttributeError:
            raised = True
        assert raised
