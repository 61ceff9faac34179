"""The Section 3.1 range-locking protocols, compared head to head."""

from __future__ import annotations

import pytest

from repro import KernelConfig, TransactionAborted, UnbundledKernel
from repro.common.config import DcConfig, RangeLockProtocol, TcConfig
from repro.common.errors import ReproError
from repro.tc.range_protocols import RangePartitionProtocol, TABLE_END
from tests.conftest import populate


def kernel_with(protocol, lock_timeout=0.05, **tc_kwargs):
    config = KernelConfig(
        dc=DcConfig(page_size=512),
        tc=TcConfig(range_protocol=protocol, lock_timeout=lock_timeout, **tc_kwargs),
    )
    kernel = UnbundledKernel(config)
    kernel.create_table("t")
    return kernel


class TestFetchAheadProtocol:
    def test_scan_returns_correct_rows(self):
        kernel = kernel_with(RangeLockProtocol.FETCH_AHEAD)
        populate(kernel, 60)
        with kernel.begin() as txn:
            rows = txn.scan("t", 10, 40)
        assert [key for key, _v in rows] == list(range(10, 41))

    def test_probe_messages_sent(self):
        kernel = kernel_with(RangeLockProtocol.FETCH_AHEAD)
        populate(kernel, 60)
        probes_before = kernel.metrics.get("tc.probes")
        with kernel.begin() as txn:
            txn.scan("t", 0, 59)
        # 60 keys / batch 16 -> at least 4 probe round trips + boundary
        assert kernel.metrics.get("tc.probes") - probes_before >= 4

    def test_batch_size_controls_probe_count(self):
        for batch, expect_max in ((8, 60), (64, 3)):
            kernel = kernel_with(
                RangeLockProtocol.FETCH_AHEAD, fetch_ahead_batch=batch
            )
            populate(kernel, 60)
            before = kernel.metrics.get("tc.probes")
            with kernel.begin() as txn:
                txn.scan("t")
            used = kernel.metrics.get("tc.probes") - before
            assert used <= expect_max

    def test_scan_locks_records_and_gaps(self):
        kernel = kernel_with(RangeLockProtocol.FETCH_AHEAD)
        populate(kernel, 20)
        txn = kernel.begin()
        txn.scan("t", 5, 10)
        from repro.tc.lock_manager import LockMode

        assert kernel.tc.locks.holds(txn.txn_id, ("rec", "t", 7), LockMode.S)
        assert kernel.tc.locks.holds(txn.txn_id, ("gap", "t", 7), LockMode.S)
        txn.commit()

    def test_insert_takes_gap_lock_on_successor(self):
        kernel = kernel_with(RangeLockProtocol.FETCH_AHEAD)
        for key in (10, 30):
            with kernel.begin() as txn:
                txn.insert("t", key, "v")
        txn = kernel.begin()
        txn.insert("t", 20, "between")
        from repro.tc.lock_manager import LockMode

        assert kernel.tc.locks.holds(txn.txn_id, ("gap", "t", 30), LockMode.X)
        txn.commit()

    def test_insert_at_end_locks_table_end(self):
        kernel = kernel_with(RangeLockProtocol.FETCH_AHEAD)
        txn = kernel.begin()
        txn.insert("t", 99, "last")
        from repro.tc.lock_manager import LockMode

        assert kernel.tc.locks.holds(txn.txn_id, ("gap", "t", TABLE_END), LockMode.X)
        txn.commit()

    def test_concurrent_nonoverlapping_scans_coexist(self):
        kernel = kernel_with(RangeLockProtocol.FETCH_AHEAD, lock_timeout=0.5)
        populate(kernel, 40)
        a = kernel.begin()
        b = kernel.begin()
        assert len(a.scan("t", 0, 9)) == 10
        assert len(b.scan("t", 20, 29)) == 10  # no conflict
        a.commit()
        b.commit()


class TestFetchAheadVisibility:
    """Regression: probes must skip structurally-present but invisible
    slots, or the probe/read validation loop never converges."""

    def _versioned_kernel(self):
        from repro import KernelConfig, UnbundledKernel
        from repro.common.config import DcConfig

        kernel = UnbundledKernel(
            KernelConfig(dc=DcConfig(page_size=512, snapshot_retention=1000))
        )
        kernel.create_table("v", versioned=True)
        return kernel

    def test_scan_over_tombstone_slot_terminates(self):
        kernel = self._versioned_kernel()
        with kernel.begin() as txn:
            for key in range(5):
                txn.insert("v", key, f"v{key}")
        with kernel.begin() as txn:
            txn.delete("v", 2)  # slot survives with snapshot history
        with kernel.begin() as txn:
            rows = txn.scan("v")
        assert [key for key, _v in rows] == [0, 1, 3, 4]

    def test_own_pending_delete_also_skipped(self):
        kernel = self._versioned_kernel()
        with kernel.begin() as setup:
            for key in range(5):
                setup.insert("v", key, f"v{key}")
        with kernel.begin() as txn:
            txn.delete("v", 2)
            rows = txn.scan("v")  # same-transaction scan sees its delete
            assert [key for key, _v in rows] == [0, 1, 3, 4]

    def test_probe_skips_invisible_anchor(self):
        kernel = self._versioned_kernel()
        with kernel.begin() as txn:
            for key in range(5):
                txn.insert("v", key, f"v{key}")
        with kernel.begin() as txn:
            txn.delete("v", 2)
        keys = kernel.tc.dispatch.probe_keys("v", after=1, count=2)
        assert keys == [3, 4]


class TestRangePartitionProtocol:
    def _kernel(self, boundaries=(25, 50, 75)):
        kernel = kernel_with(RangeLockProtocol.RANGE_PARTITION)
        kernel.tc.protocol.set_boundaries("t", list(boundaries))
        populate(kernel, 100)
        return kernel

    def test_scan_returns_correct_rows(self):
        kernel = self._kernel()
        with kernel.begin() as txn:
            rows = txn.scan("t", 30, 60)
        assert [key for key, _v in rows] == list(range(30, 61))

    def test_no_probe_messages(self):
        kernel = self._kernel()
        before = kernel.metrics.get("tc.probes")
        with kernel.begin() as txn:
            txn.scan("t", 0, 99)
        assert kernel.metrics.get("tc.probes") == before

    def test_partition_of(self):
        protocol = RangePartitionProtocol.__new__(RangePartitionProtocol)
        protocol._tc = None  # type: ignore[assignment]
        protocol._boundaries = {"t": [25, 50, 75]}
        assert protocol.partition_of("t", 0) == 0
        assert protocol.partition_of("t", 25) == 1
        assert protocol.partition_of("t", 74) == 2
        assert protocol.partition_of("t", 99) == 3

    def test_scan_locks_only_touched_partitions(self):
        kernel = self._kernel()
        txn = kernel.begin()
        txn.scan("t", 30, 40)  # entirely inside partition 1
        from repro.tc.lock_manager import LockMode

        assert kernel.tc.locks.holds(txn.txn_id, ("part", "t", 1), LockMode.S)
        assert not kernel.tc.locks.holds(txn.txn_id, ("part", "t", 0), LockMode.S)
        txn.commit()

    def test_scan_blocks_insert_in_same_partition(self):
        """Coarse phantom protection: partition S vs partition IX."""
        kernel = self._kernel()
        scanner = kernel.begin()
        scanner.scan("t", 30, 40)
        inserter = kernel.begin()
        with pytest.raises((TransactionAborted, ReproError)):
            # key 45 lives in the scanned partition: the IX partition lock
            # conflicts with the scanner's S before any existence check
            inserter.insert("t", 45, "v")
        scanner.commit()

    def test_insert_in_other_partition_proceeds(self):
        kernel = self._kernel()
        scanner = kernel.begin()
        scanner.scan("t", 30, 40)  # partition 1
        with kernel.begin() as other:
            other.insert("t", 10_000, "partition 3, no conflict")
        scanner.commit()

    def test_unconfigured_table_degenerates_to_table_lock(self):
        """"Many systems ... permit table locks" — zero boundaries means
        one partition covering everything."""
        kernel = kernel_with(RangeLockProtocol.RANGE_PARTITION)
        populate(kernel, 10)
        scanner = kernel.begin()
        scanner.scan("t", 0, 3)
        blocked = kernel.begin()
        with pytest.raises((TransactionAborted, ReproError)):
            blocked.insert("t", 999, "v")
        scanner.commit()


class TestProtocolComparison:
    """The paper's trade-off: fewer locks vs less concurrency."""

    def test_partition_protocol_takes_fewer_locks(self):
        results = {}
        for protocol in (
            RangeLockProtocol.FETCH_AHEAD,
            RangeLockProtocol.RANGE_PARTITION,
        ):
            kernel = kernel_with(protocol)
            if protocol is RangeLockProtocol.RANGE_PARTITION:
                kernel.tc.protocol.set_boundaries("t", [25, 50, 75])
            populate(kernel, 100)
            before = kernel.metrics.get("locks.granted")
            with kernel.begin() as txn:
                txn.scan("t", 0, 99)
            results[protocol] = kernel.metrics.get("locks.granted") - before
        assert (
            results[RangeLockProtocol.RANGE_PARTITION]
            < results[RangeLockProtocol.FETCH_AHEAD] / 10
        )

    def test_fetch_ahead_allows_finer_concurrency(self):
        """Two scans inside what would be one partition coexist under
        fetch-ahead but conflict under a whole-table partition lock
        when one of them writes."""
        kernel = kernel_with(RangeLockProtocol.FETCH_AHEAD, lock_timeout=0.5)
        populate(kernel, 50)
        scanner = kernel.begin()
        scanner.scan("t", 0, 10)
        with kernel.begin() as writer:
            writer.update("t", 30, "fine under fetch-ahead")
        scanner.commit()

        kernel2 = kernel_with(RangeLockProtocol.RANGE_PARTITION)
        populate(kernel2, 50)  # no boundaries: table lock
        scanner2 = kernel2.begin()
        scanner2.scan("t", 0, 10)
        writer2 = kernel2.begin()
        with pytest.raises((TransactionAborted, ReproError)):
            writer2.update("t", 30, "blocked by the table lock")
        scanner2.commit()
