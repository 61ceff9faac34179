"""Operation batching across the TC/DC boundary (docs/architecture.md §9.1).

The :class:`~repro.common.api.BatchedPerform` envelope is a *transport*
unit, never an atomicity unit: every enclosed operation keeps its own LSN
op id, its own reply and its own abLSN idempotence test.  Losing,
duplicating or reordering an envelope is exactly losing/duplicating/
reordering all enclosed operations together — which the per-operation
machinery of Section 5.1 already absorbs.
"""

from __future__ import annotations

import pytest

from repro import KernelConfig, UnbundledKernel
from repro.common.api import BatchedPerform, BatchedReply, PerformOperation
from repro.common.config import TcConfig
from repro.common.errors import ConfigError, TransactionAborted
from repro.common.ops import InsertOp, OpResult, OpStatus, ReadOp
from repro.dc.data_component import DataComponent
from repro.net import rpc, wire
from tests.conftest import lossy


def batching_kernel(batch_max_ops=8, undo_cache_size=0, faults=None):
    config = KernelConfig(
        tc=TcConfig(batch_max_ops=batch_max_ops, undo_cache_size=undo_cache_size),
    )
    kernel = UnbundledKernel(config, faults=faults)
    kernel.create_table("t")
    return kernel


class TestEnvelopeBasics:
    def test_batching_is_off_by_default(self, kernel):
        """The default envelope holds one operation and leaves at the
        call: every write is its own round trip."""
        with kernel.begin() as txn:
            for key in range(4):
                txn.insert("t", key, key)
                assert not txn.in_flight
        assert kernel.metrics.get("channel.batches") == 4
        assert kernel.metrics.get("channel.batched_ops") == 4
        assert kernel.metrics.get("dc.batches_received") == 4

    def test_envelope_reply_is_a_tuple_that_survives_the_wire(self):
        """``BatchedReply.replies`` is declared a tuple: an in-process
        envelope's reply is built as one, so it equals the reply a process
        DC sends — its own trip through the negotiated fast codec."""
        dc = DataComponent("dc")
        dc.create_table("t")
        dc.register_tc(7, force_log=lambda lsn, images: lsn)
        ops = (
            PerformOperation(
                tc_id=7, op_id=1, op=InsertOp(table="t", key=1, value="a")
            ),
            PerformOperation(tc_id=7, op_id=2, op=ReadOp(table="t", key=1)),
        )
        reply = dc.handle(BatchedPerform(tc_id=7, ops=ops))
        assert reply == BatchedReply(tc_id=7, replies=tuple(reply.replies))
        assert [sub.result.ok for sub in reply.replies] == [True, True]
        fast = wire.negotiate(wire.fast_vocabulary())
        frame = rpc.pack_frame(rpc.REPLY, 3, reply, fast)
        assert frame[0] == wire.FAST_MAGIC
        assert rpc.unpack_frame(frame) == (rpc.REPLY, 3, reply)

    def test_multi_op_txn_ships_one_envelope(self):
        kernel = batching_kernel()
        with kernel.begin() as txn:
            for key in range(4):
                txn.insert("t", key, f"v{key}")
        assert kernel.metrics.get("channel.batches") == 1
        assert kernel.metrics.get("channel.batched_ops") == 4
        assert kernel.metrics.get("dc.batches_received") == 1
        with kernel.begin() as check:
            assert check.scan("t") == [(key, f"v{key}") for key in range(4)]

    def test_batching_shrinks_message_count(self):
        def run(kernel):
            with kernel.begin() as txn:
                for key in range(8):
                    txn.insert("t", key, key)
            return kernel.metrics.get("channel.requests")

        assert run(batching_kernel()) < run(batching_kernel(batch_max_ops=1))

    def test_flush_at_batch_max_ops(self):
        kernel = batching_kernel(batch_max_ops=2)
        txn = kernel.begin()
        for key in range(4):
            txn.insert("t", key, key)
        # Two full envelopes went out mid-transaction; nothing is pending.
        assert kernel.metrics.get("channel.batches") == 2
        assert not txn.in_flight
        txn.commit()

    def test_scan_flushes_accumulated_writes(self):
        """A scan reads through the DC, so the transaction's own unsent
        writes must be flushed first — read-your-writes holds."""
        kernel = batching_kernel()
        with kernel.begin() as txn:
            for key in range(3):
                txn.insert("t", key, f"v{key}")
            assert txn.in_flight  # accumulated, not yet on the wire
            assert txn.scan("t") == [(key, f"v{key}") for key in range(3)]
            assert not txn.in_flight

    def test_conflicting_op_flushes_first(self):
        """Two operations on one key are never in flight together — the
        Section 1.2 obligation extends to the accumulated envelope."""
        kernel = batching_kernel()
        with kernel.begin() as txn:
            txn.insert("t", 1, "first")
            assert len(txn.in_flight) == 1
            txn.update("t", 1, "second")  # implicit flush happened
            assert txn.read("t", 1) == "second"
        with kernel.begin() as check:
            assert check.read("t", 1) == "second"
        assert kernel.metrics.get("channel.batches") >= 1

    def test_rejects_invalid_batch_max_ops(self):
        with pytest.raises(ConfigError) as err:
            TcConfig(batch_max_ops=0)
        assert err.value.field == "TcConfig.batch_max_ops"


class TestEnvelopeFaults:
    def test_lost_envelopes_are_resent_with_same_lsns(self):
        kernel = batching_kernel(faults=lossy(7, loss=0.3))
        for txn_no in range(10):
            with kernel.begin() as txn:
                for op_no in range(3):
                    txn.insert("t", txn_no * 3 + op_no, f"t{txn_no}.o{op_no}")
        assert kernel.metrics.get("channel.requests_lost") > 0
        assert kernel.metrics.get("tc.resends") > 0
        with kernel.begin() as check:
            rows = check.scan("t")
        assert rows == [
            (n * 3 + o, f"t{n}.o{o}") for n in range(10) for o in range(3)
        ]

    def test_duplicated_envelopes_absorbed_per_op(self):
        """A duplicated envelope re-executes every enclosed operation; the
        per-op abLSN test absorbs each one — exactly-once survives."""
        kernel = batching_kernel(faults=lossy(11, duplicate=1.0))
        with kernel.begin() as txn:
            for key in range(6):
                txn.insert("t", key, f"v{key}")
        assert kernel.metrics.get("dc.duplicate_ops") > 0
        with kernel.begin() as check:
            assert check.scan("t") == [(key, f"v{key}") for key in range(6)]

    def test_loss_duplication_and_reordering_combined(self):
        kernel = batching_kernel(faults=lossy(23, loss=0.2, duplicate=0.2))
        for txn_no in range(8):
            with kernel.begin() as txn:
                for op_no in range(4):
                    txn.insert("t", txn_no * 4 + op_no, txn_no)
        with kernel.begin() as check:
            assert len(check.scan("t")) == 32

    def test_semantic_rejection_is_per_op(self):
        """One rejected operation aborts the transaction (the TC validated
        it, so the DC disagreeing is a real fault), but the cancellation is
        per-op: the rejected record leaves the undo chain via a cancel
        marker while its executed siblings are inverted normally."""
        kernel = batching_kernel()
        real = kernel.dc._execute

        def rejecting(handle, sub):
            if isinstance(sub.op, InsertOp) and sub.op.key == 3:
                return OpResult(status=OpStatus.ERROR, message="injected")
            return real(handle, sub)

        kernel.dc._execute = rejecting
        txn = kernel.begin()
        for key in range(1, 5):
            txn.insert("t", key, key)
        with pytest.raises(TransactionAborted):
            txn.commit()
        assert kernel.metrics.get("tc.canceled_ops") == 1
        kernel.dc._execute = real
        with kernel.begin() as check:
            assert check.scan("t") == []


class TestBatchCrashRecovery:
    def test_unsent_batch_dies_with_the_tc(self):
        kernel = batching_kernel()
        txn = kernel.begin()
        for key in range(3):
            txn.insert("t", key, key)
        assert txn.in_flight  # accumulated only; the DC never saw them
        kernel.crash_tc()
        kernel.recover_tc()
        with kernel.begin() as check:
            assert check.scan("t") == []

    def test_committed_batch_survives_total_failure(self):
        kernel = batching_kernel()
        with kernel.begin() as txn:
            for key in range(4):
                txn.insert("t", key, f"v{key}")
        kernel.crash_all()
        kernel.recover_all()
        with kernel.begin() as check:
            assert check.scan("t") == [(key, f"v{key}") for key in range(4)]

    def test_dc_crash_mid_transaction_rolls_back(self):
        kernel = batching_kernel(batch_max_ops=2)
        txn = kernel.begin()
        txn.insert("t", 1, "a")
        txn.insert("t", 2, "b")  # envelope flushed (batch_max_ops)
        txn.insert("t", 3, "c")  # accumulated
        kernel.crash_dc()
        with pytest.raises(TransactionAborted):
            txn.commit()
        kernel.recover_dc()
        kernel.tc.retry_pending()
        assert kernel.tc.pending_zombies() == 0
        with kernel.begin() as check:
            assert check.scan("t") == []
