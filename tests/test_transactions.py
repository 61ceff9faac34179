"""TC transaction semantics: ACID surface, rollback, isolation, errors."""

from __future__ import annotations

import threading

import pytest

from repro import (
    DuplicateKeyError,
    KernelConfig,
    NoSuchRecordError,
    ReadFlavor,
    TransactionAborted,
    UnbundledKernel,
)
from repro.common.config import DcConfig, TcConfig
from repro.common.errors import ReproError
from repro.tc.transactional_component import TransactionState
from tests.conftest import lossy, populate


class TestBasics:
    def test_read_your_own_writes(self, kernel):
        with kernel.begin() as txn:
            txn.insert("t", 1, "v1")
            assert txn.read("t", 1) == "v1"
            txn.update("t", 1, "v2")
            assert txn.read("t", 1) == "v2"
            txn.delete("t", 1)
            assert txn.read("t", 1) is None

    def test_committed_data_visible_to_next_txn(self, kernel):
        with kernel.begin() as txn:
            txn.insert("t", 1, "v")
        with kernel.begin() as txn:
            assert txn.read("t", 1) == "v"

    def test_duplicate_insert_raises_without_side_effect(self, kernel):
        with kernel.begin() as txn:
            txn.insert("t", 1, "v")
        txn = kernel.begin()
        with pytest.raises(DuplicateKeyError):
            txn.insert("t", 1, "w")
        txn.abort()
        with kernel.begin() as check:
            assert check.read("t", 1) == "v"

    def test_update_and_delete_missing_raise(self, kernel):
        txn = kernel.begin()
        with pytest.raises(NoSuchRecordError):
            txn.update("t", 404, "x")
        with pytest.raises(NoSuchRecordError):
            txn.delete("t", 404)
        txn.abort()

    def test_failed_mutations_are_cancelled_in_the_log(self, kernel):
        """The DC's verdict is the existence check: an update of a missing
        key is logged as it is sent, refused, and cancelled — it leaves the
        undo chain, and its cancel marker tells restart redo to skip it,
        so undo information stays sound."""
        from repro.tc.log import CompensationRecord, OpRecord

        txn = kernel.begin()
        with pytest.raises(NoSuchRecordError):
            txn.update("t", 404, "x")
        assert txn.op_records == [] and txn.state is TransactionState.ACTIVE
        txn.abort()
        records = kernel.tc.log.all_records()
        (op,) = [r for r in records if isinstance(r, OpRecord)]
        (marker,) = [r for r in records if isinstance(r, CompensationRecord)]
        assert op.op.key == 404 and marker.canceled == op.lsn and marker.op is None
        kernel.tc.force_log()
        kernel.crash_tc()
        stats = kernel.recover_tc()
        assert stats["losers"] == 0 and stats["undo_ops"] == 0
        with kernel.begin() as check:
            assert check.read("t", 404) is None

    def test_context_manager_commits_on_success(self, kernel):
        with kernel.begin() as txn:
            txn.insert("t", 1, "v")
        assert txn.state is TransactionState.COMMITTED

    def test_context_manager_aborts_on_exception(self, kernel):
        with pytest.raises(RuntimeError):
            with kernel.begin() as txn:
                txn.insert("t", 1, "v")
                raise RuntimeError("app failure")
        assert txn.state is TransactionState.ABORTED
        with kernel.begin() as check:
            assert check.read("t", 1) is None

    def test_using_finished_txn_raises(self, kernel):
        txn = kernel.begin()
        txn.commit()
        with pytest.raises(TransactionAborted):
            txn.insert("t", 1, "v")


class TestRollback:
    def test_abort_reverses_in_reverse_order(self, kernel):
        with kernel.begin() as setup:
            setup.insert("t", 1, "one")
            setup.insert("t", 2, "two")
        txn = kernel.begin()
        txn.update("t", 1, "one-a")
        txn.update("t", 1, "one-b")
        txn.delete("t", 2)
        txn.insert("t", 3, "three")
        txn.abort()
        with kernel.begin() as check:
            assert check.read("t", 1) == "one"
            assert check.read("t", 2) == "two"
            assert check.read("t", 3) is None

    def test_abort_logs_compensation_records(self, kernel):
        from repro.tc.log import CompensationRecord

        txn = kernel.begin()
        txn.insert("t", 1, "v")
        txn.abort()
        clrs = [
            r
            for r in kernel.tc.log.all_records()
            if isinstance(r, CompensationRecord)
        ]
        assert len(clrs) == 1

    def test_abort_empty_txn(self, kernel):
        txn = kernel.begin()
        txn.abort()
        assert txn.state is TransactionState.ABORTED

    def test_double_abort_is_noop(self, kernel):
        txn = kernel.begin()
        txn.insert("t", 1, "v")
        txn.abort()
        txn.abort()


class TestIsolation:
    def test_write_blocks_conflicting_write(self):
        config = KernelConfig(tc=TcConfig(lock_timeout=0.05))
        kernel = UnbundledKernel(config)
        kernel.create_table("t")
        with kernel.begin() as setup:
            setup.insert("t", 1, "v")
        holder = kernel.begin()
        holder.update("t", 1, "held")
        other = kernel.begin()
        with pytest.raises((TransactionAborted, ReproError)):
            other.update("t", 1, "blocked")
        holder.commit()

    def test_readers_block_writers(self):
        config = KernelConfig(tc=TcConfig(lock_timeout=0.05))
        kernel = UnbundledKernel(config)
        kernel.create_table("t")
        with kernel.begin() as setup:
            setup.insert("t", 1, "v")
        reader = kernel.begin()
        assert reader.read("t", 1) == "v"
        writer = kernel.begin()
        with pytest.raises((TransactionAborted, ReproError)):
            writer.update("t", 1, "w")
        reader.commit()

    def test_phantom_prevention_scan_blocks_insert(self):
        """A scanned range's gap locks block inserts into it
        (serializability via the fetch-ahead next-key locks)."""
        config = KernelConfig(tc=TcConfig(lock_timeout=0.05))
        kernel = UnbundledKernel(config)
        kernel.create_table("t")
        for key in range(0, 20, 2):  # evens: gaps at odd keys
            with kernel.begin() as txn:
                txn.insert("t", key, "v")
        scanner = kernel.begin()
        assert len(scanner.scan("t", 4, 12)) == 5
        inserter = kernel.begin()
        with pytest.raises((TransactionAborted, ReproError)):
            inserter.insert("t", 7, "phantom")  # inside the scanned range
        scanner.commit()
        with kernel.begin() as retry:
            retry.insert("t", 7, "now fine")

    def test_phantom_gap_above_range(self):
        config = KernelConfig(tc=TcConfig(lock_timeout=0.05))
        kernel = UnbundledKernel(config)
        kernel.create_table("t")
        for key in (10, 20, 30):
            with kernel.begin() as txn:
                txn.insert("t", key, "v")
        scanner = kernel.begin()
        scanner.scan("t", 10, 25)
        blocked = kernel.begin()
        with pytest.raises((TransactionAborted, ReproError)):
            blocked.insert("t", 22, "phantom")  # inside scanned range
        scanner.commit()
        with kernel.begin() as retry:
            retry.insert("t", 22, "now fine")

    def test_deadlock_victim_aborted_and_retry_succeeds(self):
        config = KernelConfig(tc=TcConfig(lock_timeout=2.0))
        kernel = UnbundledKernel(config)
        kernel.create_table("t")
        with kernel.begin() as setup:
            setup.insert("t", 1, "a")
            setup.insert("t", 2, "b")
        t1 = kernel.begin()
        t2 = kernel.begin()
        t1.update("t", 1, "t1")
        t2.update("t", 2, "t2")
        results = {}

        def t1_closes():
            try:
                t1.update("t", 2, "t1")
                t1.commit()
                results["t1"] = "ok"
            except TransactionAborted:
                results["t1"] = "aborted"

        thread = threading.Thread(target=t1_closes)
        thread.start()
        try:
            t2.update("t", 1, "t2")
            t2.commit()
            results["t2"] = "ok"
        except TransactionAborted:
            results["t2"] = "aborted"
        thread.join(timeout=5)
        assert sorted(results.values()) == ["aborted", "ok"]
        # database consistent afterwards
        with kernel.begin() as check:
            values = {check.read("t", 1), check.read("t", 2)}
            assert values in ({"t1"}, {"t2"})


class TestMultiDcTransactions:
    def test_one_txn_two_dcs_single_commit_point(self):
        """A TC spanning DCs needs no 2PC: one log force commits both."""
        kernel = UnbundledKernel(dc_count=2)
        kernel.create_table("a", dc_name="dc1")
        kernel.create_table("b", dc_name="dc2")
        with kernel.begin() as txn:
            txn.insert("a", 1, "on-dc1")
            txn.insert("b", 1, "on-dc2")
        assert kernel.metrics.get("tclog.forces") >= 1
        with kernel.begin() as check:
            assert check.read("a", 1) == "on-dc1"
            assert check.read("b", 1) == "on-dc2"

    def test_cross_dc_abort(self):
        kernel = UnbundledKernel(dc_count=2)
        kernel.create_table("a", dc_name="dc1")
        kernel.create_table("b", dc_name="dc2")
        txn = kernel.begin()
        txn.insert("a", 1, "x")
        txn.insert("b", 1, "y")
        txn.abort()
        with kernel.begin() as check:
            assert check.read("a", 1) is None
            assert check.read("b", 1) is None

    def test_unknown_table_raises(self, kernel):
        txn = kernel.begin()
        with pytest.raises(ReproError):
            txn.insert("missing", 1, "v")
        txn.abort()


class TestScans:
    def test_scan_sees_own_uncommitted_writes(self, kernel):
        with kernel.begin() as txn:
            txn.insert("t", 1, "a")
            txn.insert("t", 2, "b")
            assert txn.scan("t") == [(1, "a"), (2, "b")]

    def test_scan_bounds_and_limit(self, populated_kernel):
        with populated_kernel.begin() as txn:
            rows = txn.scan("t", 10, 20)
            assert [k for k, _v in rows] == list(range(10, 21))
            assert len(txn.scan("t", limit=5)) == 5

    def test_scan_empty_table(self, kernel):
        with kernel.begin() as txn:
            assert txn.scan("t") == []

    def test_lossy_channel_transactions_still_exact_once(self):
        kernel = UnbundledKernel(faults=lossy(5, loss=0.25))
        kernel.create_table("t")
        for key in range(40):
            with kernel.begin() as txn:
                txn.insert("t", key, key)
        with kernel.begin() as txn:
            rows = txn.scan("t")
        assert rows == [(key, key) for key in range(40)]
        assert kernel.metrics.get("tc.resends") > 0
