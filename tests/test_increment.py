"""IncrementOp: logical, non-idempotent — exactly-once has to be real."""

from __future__ import annotations

import pytest

from repro import KernelConfig, UnbundledKernel
from repro.common.config import DcConfig, TcConfig
from repro.common.errors import NoSuchRecordError, ReproError
from repro.common.ops import IncrementOp, OpResult, inverse_of
from tests.conftest import lossy


def kernel_with(faults=None):
    config = KernelConfig(dc=DcConfig(page_size=1024))
    kernel = UnbundledKernel(config, faults=faults)
    kernel.create_table("t")
    return kernel


class TestBasics:
    def test_increment_and_read(self):
        kernel = kernel_with()
        with kernel.begin() as txn:
            txn.insert("t", "counter", 10)
            txn.increment("t", "counter", 5)
            txn.increment("t", "counter", -3)
            assert txn.read("t", "counter") == 12

    def test_missing_record(self):
        kernel = kernel_with()
        txn = kernel.begin()
        with pytest.raises(NoSuchRecordError):
            txn.increment("t", "nope", 1)
        txn.abort()

    def test_non_numeric_rejected(self):
        kernel = kernel_with()
        with kernel.begin() as setup:
            setup.insert("t", 1, "text")
            setup.insert("t", 2, True)
        txn = kernel.begin()
        with pytest.raises(ReproError):
            txn.increment("t", 1, 1)
        txn.abort()
        txn = kernel.begin()
        with pytest.raises(ReproError):
            txn.increment("t", 2, 1)  # bools are not counters
        txn.abort()

    def test_float_deltas(self):
        kernel = kernel_with()
        with kernel.begin() as txn:
            txn.insert("t", 1, 1.5)
            txn.increment("t", 1, 0.25)
            assert txn.read("t", 1) == 1.75


class TestLogicalUndo:
    def test_inverse_is_negated_delta(self):
        op = IncrementOp(table="t", key=1, delta=7)
        inverse = inverse_of(op, OpResult.okay())
        assert isinstance(inverse, IncrementOp) and inverse.delta == -7

    def test_abort_undoes_by_decrement(self):
        kernel = kernel_with()
        with kernel.begin() as setup:
            setup.insert("t", "c", 100)
        txn = kernel.begin()
        txn.increment("t", "c", 11)
        txn.increment("t", "c", 22)
        txn.abort()
        with kernel.begin() as check:
            assert check.read("t", "c") == 100

    def test_undo_info_carries_no_value(self):
        """The log's undo operation is value-independent — pure logic."""
        kernel = kernel_with()
        with kernel.begin() as setup:
            setup.insert("t", "c", 100)
        with kernel.begin() as txn:
            txn.increment("t", "c", 5)
        from repro.tc.log import OpRecord

        increments = [
            r
            for r in kernel.tc.log.all_records()
            if isinstance(r, OpRecord) and isinstance(r.op, IncrementOp)
        ]
        assert len(increments) == 1
        assert isinstance(increments[0].undo, IncrementOp)
        assert increments[0].undo.delta == -5


class TestExactlyOnce:
    def test_duplicating_channel_never_double_applies(self):
        kernel = kernel_with(lossy(3, duplicate=1.0))
        with kernel.begin() as txn:
            txn.insert("t", "c", 0)
        for _ in range(20):
            with kernel.begin() as txn:
                txn.increment("t", "c", 1)
        with kernel.begin() as check:
            assert check.read("t", "c") == 20
        assert kernel.metrics.get("dc.duplicate_ops") >= 20

    def test_lossy_channel_resends_exactly_once(self):
        kernel = kernel_with(lossy(11, loss=0.35))
        with kernel.begin() as txn:
            txn.insert("t", "c", 0)
        for _ in range(25):
            with kernel.begin() as txn:
                txn.increment("t", "c", 1)
        with kernel.begin() as check:
            assert check.read("t", "c") == 25

    def test_dc_crash_redo_does_not_double_apply(self):
        kernel = kernel_with()
        with kernel.begin() as txn:
            txn.insert("t", "c", 0)
        for _ in range(10):
            with kernel.begin() as txn:
                txn.increment("t", "c", 1)
        kernel.tc.durability.broadcast_eosl()
        kernel.dc.buffer.flush_all()  # effects stable; redo must skip them
        kernel.crash_dc()
        kernel.recover_dc()
        with kernel.begin() as check:
            assert check.read("t", "c") == 10

    def test_tc_crash_loser_increment_reversed(self):
        kernel = kernel_with()
        with kernel.begin() as txn:
            txn.insert("t", "c", 50)
        loser = kernel.begin()
        loser.increment("t", "c", 999)
        kernel.tc.force_log()
        kernel.crash_tc()
        kernel.recover_tc()
        with kernel.begin() as check:
            assert check.read("t", "c") == 50

    def test_pipelined_increments_on_distinct_keys(self):
        kernel = UnbundledKernel(
            KernelConfig(
                dc=DcConfig(page_size=1024),
                tc=TcConfig(batch_max_ops=16, undo_cache_size=0),
            )
        )
        kernel.create_table("t")
        with kernel.begin() as setup:
            for key in range(10):
                setup.insert("t", key, 0)
        with kernel.begin() as txn:
            for key in range(10):
                txn.increment("t", key, key + 1)
            assert len(txn.in_flight) == 10  # one envelope, not yet sent
            txn.sync()
            assert txn.read("t", 9) == 10  # the reply told the sum
        with kernel.begin() as check:
            assert check.scan("t") == [(key, key + 1) for key in range(10)]


class TestVersionedIncrements:
    def test_versioned_increment_respects_read_committed(self):
        config = KernelConfig(dc=DcConfig())
        kernel = UnbundledKernel(config)
        kernel.create_table("v", versioned=True)
        with kernel.begin() as txn:
            txn.insert("v", "c", 10)
        writer = kernel.begin()
        writer.increment("v", "c", 5)
        from repro.common.ops import ReadFlavor

        assert kernel.tc.read_other("v", "c", ReadFlavor.READ_COMMITTED) == 10
        assert kernel.tc.read_other("v", "c", ReadFlavor.DIRTY) == 15
        writer.commit()
        assert kernel.tc.read_other("v", "c", ReadFlavor.READ_COMMITTED) == 15

    def test_versioned_increment_abort_discards(self):
        kernel = UnbundledKernel()
        kernel.create_table("v", versioned=True)
        with kernel.begin() as txn:
            txn.insert("v", "c", 10)
        loser = kernel.begin()
        loser.increment("v", "c", 5)
        loser.abort()
        with kernel.begin() as check:
            assert check.read("v", "c") == 10
