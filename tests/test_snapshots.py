"""Snapshot reads (the Section 6.3 extension: "we also see potential for
providing snapshot isolation")."""

from __future__ import annotations

import pytest

from repro import KernelConfig, UnbundledKernel
from repro.common.config import DcConfig
from repro.common.errors import SnapshotTooOldError
from repro.common.records import TOMBSTONE, VersionedRecord


def snapshot_kernel(retention=100, max_versions=16):
    config = KernelConfig(
        dc=DcConfig(
            page_size=1024,
            snapshot_retention=retention,
            snapshot_max_versions=max_versions,
        )
    )
    kernel = UnbundledKernel(config)
    kernel.create_table("v", versioned=True)
    return kernel


class TestRecordHistory:
    def test_promote_retains_history(self):
        record = VersionedRecord(key=1)
        record = record.set_pending("v1")
        record = record.promote_pending(commit_seq=1, keep_history=4)
        record = record.set_pending("v2")
        record = record.promote_pending(commit_seq=2, keep_history=4)
        assert record.committed == "v2" and record.commit_seq == 2
        assert record.history == ((1, "v1"),)

    def test_snapshot_value_walks_history(self):
        record = VersionedRecord(key=1)
        for seq, value in ((1, "a"), (5, "b"), (9, "c")):
            record = record.set_pending(value)
            record = record.promote_pending(commit_seq=seq, keep_history=4)
        assert record.snapshot_value(0) is None  # before creation
        assert record.snapshot_value(1) == "a"
        assert record.snapshot_value(4) == "a"
        assert record.snapshot_value(5) == "b"
        assert record.snapshot_value(100) == "c"

    def test_delete_leaves_tombstone_in_history(self):
        record = VersionedRecord(key=1)
        record = record.set_pending("alive")
        record = record.promote_pending(commit_seq=1, keep_history=4)
        record = record.set_pending(TOMBSTONE)
        record = record.promote_pending(commit_seq=2, keep_history=4)
        assert record.snapshot_value(1) == "alive"
        assert record.snapshot_value(2) is None
        assert not record.is_dead()  # history keeps the slot alive

    def test_history_cap(self):
        record = VersionedRecord(key=1)
        for seq in range(1, 10):
            record = record.set_pending(f"v{seq}")
            record = record.promote_pending(commit_seq=seq, keep_history=3)
        assert len(record.history) <= 3

    def test_prune_history(self):
        record = VersionedRecord(key=1)
        for seq in (1, 2, 3, 4):
            record = record.set_pending(f"v{seq}")
            record = record.promote_pending(commit_seq=seq, keep_history=10)
        pruned = record.prune_history(3)
        assert [seq for seq, _v in pruned.history] == [3]
        assert [seq for seq, _v in record.history] == [1, 2, 3]

    def test_max_seq(self):
        record = VersionedRecord(key=1)
        record = record.set_pending("a")
        record = record.promote_pending(commit_seq=7, keep_history=4)
        assert record.max_seq() == 7

    def test_derived_history_leaves_the_source_untouched(self):
        record = VersionedRecord(key=1)
        record = record.set_pending("a")
        record = record.promote_pending(commit_seq=1, keep_history=4)
        derived = record.set_pending("b")
        derived = derived.promote_pending(commit_seq=2, keep_history=4)
        assert record.history == ()
        assert derived.history == ((1, "a"),)


class TestSnapshotReads:
    def test_read_as_of_past_watermarks(self):
        kernel = snapshot_kernel()
        with kernel.begin() as txn:
            txn.insert("v", 1, "v1")
        snap1 = kernel.tc.begin_snapshot()
        with kernel.begin() as txn:
            txn.update("v", 1, "v2")
        snap2 = kernel.tc.begin_snapshot()
        with kernel.begin() as txn:
            txn.update("v", 1, "v3")
        assert snap1.read("v", 1) == "v1"
        assert snap2.read("v", 1) == "v2"

    def test_snapshot_does_not_see_later_inserts_or_deletes(self):
        kernel = snapshot_kernel()
        with kernel.begin() as txn:
            txn.insert("v", 1, "keep")
            txn.insert("v", 2, "doomed")
        snap = kernel.tc.begin_snapshot()
        with kernel.begin() as txn:
            txn.insert("v", 3, "new")
            txn.delete("v", 2)
        assert snap.read("v", 3) is None
        assert snap.read("v", 2) == "doomed"
        assert snap.scan("v") == [(1, "keep"), (2, "doomed")]

    def test_snapshot_is_transaction_consistent(self):
        """All updates of one transaction share a commit sequence: a
        snapshot sees all of them or none of them."""
        kernel = snapshot_kernel()
        with kernel.begin() as txn:
            txn.insert("v", 1, "a0")
            txn.insert("v", 2, "b0")
        snap_before = kernel.tc.begin_snapshot()
        with kernel.begin() as txn:
            txn.update("v", 1, "a1")
            txn.update("v", 2, "b1")
        snap_after = kernel.tc.begin_snapshot()
        assert snap_before.scan("v") == [(1, "a0"), (2, "b0")]
        assert snap_after.scan("v") == [(1, "a1"), (2, "b1")]

    def test_snapshot_never_sees_uncommitted(self):
        kernel = snapshot_kernel()
        with kernel.begin() as txn:
            txn.insert("v", 1, "committed")
        writer = kernel.begin()
        writer.update("v", 1, "pending")
        snap = kernel.tc.begin_snapshot()
        assert snap.read("v", 1) == "committed"
        writer.abort()

    def test_snapshot_never_blocks(self):
        kernel = snapshot_kernel()
        with kernel.begin() as txn:
            txn.insert("v", 1, "base")
        writer = kernel.begin()
        writer.update("v", 1, "held-under-x-lock")
        snap = kernel.tc.begin_snapshot()
        for _ in range(5):
            assert snap.read("v", 1) == "base"
        writer.commit()

    def test_snapshot_too_old(self):
        kernel = snapshot_kernel(retention=2)
        with kernel.begin() as txn:
            txn.insert("v", 1, "a")
        old = kernel.tc.begin_snapshot()
        for index in range(6):
            with kernel.begin() as txn:
                txn.update("v", 1, f"x{index}")
        with pytest.raises(SnapshotTooOldError):
            old.read("v", 1)
        with pytest.raises(SnapshotTooOldError):
            old.scan("v")

    def test_fresh_snapshot_still_fine_after_churn(self):
        kernel = snapshot_kernel(retention=2)
        with kernel.begin() as txn:
            txn.insert("v", 1, "a")
        for index in range(6):
            with kernel.begin() as txn:
                txn.update("v", 1, f"x{index}")
        snap = kernel.tc.begin_snapshot()
        assert snap.read("v", 1) == "x5"

    def test_retention_zero_disables_history(self):
        kernel = snapshot_kernel(retention=0)
        with kernel.begin() as txn:
            txn.insert("v", 1, "v1")
        with kernel.begin() as txn:
            txn.update("v", 1, "v2")
        record = kernel.dc.table("v").structure.get_record(1)
        assert record.history == ()


class TestSnapshotsAcrossFailures:
    def test_version_clock_survives_dc_crash(self):
        """Sequences resume above every stamped version, so new commits
        keep per-record history monotone."""
        kernel = snapshot_kernel()
        with kernel.begin() as txn:
            txn.insert("v", 1, "v1")
        with kernel.begin() as txn:
            txn.update("v", 1, "v2")
        clock_before = kernel.dc.version_watermark()
        kernel.crash_dc()
        kernel.recover_dc()
        assert kernel.dc.version_watermark() >= clock_before
        with kernel.begin() as txn:
            txn.update("v", 1, "v3")
        snap = kernel.tc.begin_snapshot()
        assert snap.read("v", 1) == "v3"
        record = kernel.dc.table("v").structure.get_record(1)
        seqs = [seq for seq, _v in record.history] + [record.commit_seq]
        assert seqs == sorted(seqs)

    def test_snapshot_history_survives_tc_crash(self):
        kernel = snapshot_kernel()
        with kernel.begin() as txn:
            txn.insert("v", 1, "v1")
        with kernel.begin() as txn:
            txn.update("v", 1, "v2")
        loser = kernel.begin()
        loser.update("v", 1, "lost")
        kernel.crash_tc()
        kernel.recover_tc()
        snap = kernel.tc.begin_snapshot()
        assert snap.read("v", 1) == "v2"
