"""Queued mutations: a transaction's writes wait in its envelope, and
envelopes of concurrent transactions execute out of LSN order end to end."""

from __future__ import annotations

from repro import KernelConfig, UnbundledKernel
from repro.common.config import DcConfig, TcConfig
from repro.common.ops import InsertOp
from tests.conftest import lossy
from tests.test_out_of_order import run_held_at_send


def pipelined_kernel(batch_max_ops=64, faults=None):
    config = KernelConfig(
        dc=DcConfig(page_size=1024),
        tc=TcConfig(batch_max_ops=batch_max_ops, lock_timeout=60.0),
    )
    kernel = UnbundledKernel(config, faults=faults)
    kernel.create_table("t")
    return kernel


def preload(kernel, keys):
    """Commit ``keys`` (value ``p<key>``) before the concurrent inserts.

    An insert X-locks the gap below its successor.  Two transactions
    inserting into one empty stretch both guard the same successor and
    rightly serialize (queued records are invisible to the other's
    probe); a committed key between each pair of concurrent inserts gives
    every insert a gap of its own, so they run concurrently under full
    next-key locking."""
    with kernel.begin() as txn:
        for key in keys:
            txn.insert("t", key, f"p{key}")


class TestPipelineBasics:
    def test_deferred_inserts_visible_after_sync(self):
        kernel = pipelined_kernel()
        with kernel.begin() as txn:
            for key in range(20):
                txn.insert("t", key, key)
            assert len(txn.in_flight) == 20  # queued, not yet logged or sent
            txn.sync()
            assert len(txn.scan("t")) == 20
        assert kernel.metrics.get("tc.mutations") == 20
        assert kernel.metrics.get("channel.batched_ops") == 20

    def test_commit_syncs_implicitly(self):
        kernel = pipelined_kernel()
        txn = kernel.begin()
        for key in range(10):
            txn.insert("t", key, key)
        txn.commit()  # no explicit sync
        with kernel.begin() as check:
            assert len(check.scan("t")) == 10

    def test_abort_syncs_then_rolls_back(self):
        kernel = pipelined_kernel()
        txn = kernel.begin()
        for key in range(10):
            txn.insert("t", key, key)
        txn.sync()
        for key in range(10, 20):
            txn.insert("t", key, key)  # still queued: the abort forgets them
        txn.abort()
        with kernel.begin() as check:
            assert check.scan("t") == []

    def test_same_key_conflict_forces_sync(self):
        """Two operations on one key must never be in flight together —
        the TC's Section 1.2 obligation extends to its own envelopes."""
        kernel = pipelined_kernel()
        with kernel.begin() as txn:
            txn.insert("t", 1, "first")
            assert len(txn.in_flight) == 1
            txn.update("t", 1, "second")  # implicit sync happened
            assert txn.read("t", 1) == "second"
        assert kernel.metrics.get("tc.pipeline_syncs") >= 1

    def test_mixed_deferred_and_synchronous(self):
        kernel = pipelined_kernel()
        with kernel.begin() as txn:
            txn.insert("t", 1, "a")
            txn.sync()
            txn.insert("t", 2, "b")
            txn.insert("t", 3, "c")
            assert len(txn.in_flight) == 2
            txn.sync()
            assert txn.scan("t") == [(1, "a"), (2, "b"), (3, "c")]


class TestPipelineUnderReordering:
    def test_reordered_delivery_is_absorbed(self):
        """The headline case of Section 5.1: one transaction's envelope is
        logged first but held before delivery while another's, with every
        LSN higher, executes — the DC sees the envelopes out of LSN order
        and the abLSNs keep everything exactly-once."""
        kernel = pipelined_kernel()
        preload(kernel, range(1, 80, 2))
        executed = []
        real = kernel.dc._execute

        def recording(handle, sub):
            if isinstance(sub.op, InsertOp):
                executed.append(sub.op_id)
            return real(handle, sub)

        kernel.dc._execute = recording

        def writer(low, value):
            def work(txn):
                for key in range(low, 80, 4):
                    txn.insert("t", key, f"{value}{key}")

            return work

        run_held_at_send(kernel, writer(0, "a"), writer(2, "b"))
        kernel.dc._execute = real
        assert len(executed) == 40
        assert executed != sorted(executed)
        assert max(executed[:20]) > max(executed[20:])  # the later LSNs first
        assert kernel.metrics.get("dc.duplicate_ops") == 0
        with kernel.begin() as check:
            assert check.scan("t") == [
                (key, f"{'p' if key % 2 else 'ab'[key % 4 // 2]}{key}")
                for key in range(80)
            ]

    def test_reordering_plus_loss_falls_back_to_resend(self):
        kernel = pipelined_kernel(faults=lossy(23, loss=0.3))
        with kernel.begin() as txn:
            for key in range(30):
                txn.insert("t", key, key)
            txn.sync()
        with kernel.begin() as check:
            assert len(check.scan("t")) == 30
        assert kernel.metrics.get("tc.resends") > 0

    def test_pipeline_survives_crashes(self):
        kernel = pipelined_kernel()
        with kernel.begin() as txn:
            for key in range(30):
                txn.insert("t", key, key)
        kernel.crash_all()
        kernel.recover_all()
        with kernel.begin() as check:
            assert len(check.scan("t")) == 30

    def test_uncommitted_pipeline_lost_with_tc(self):
        kernel = pipelined_kernel()
        txn = kernel.begin()
        for key in range(10):
            txn.insert("t", key, key)
        txn.sync()  # delivered to the DC, but never committed
        kernel.crash_tc()
        kernel.recover_tc()
        with kernel.begin() as check:
            assert check.scan("t") == []


class TestConcurrentPipelines:
    def test_two_transactions_share_one_channel(self):
        """Two transactions' envelopes interleave on one channel; each
        reply is correlated to its own operations by LSN."""
        kernel = pipelined_kernel()
        preload(kernel, range(1, 20, 2))
        a = kernel.begin()
        b = kernel.begin()
        for key in range(0, 20, 4):
            a.insert("t", key, "a")
        for key in range(2, 20, 4):
            b.insert("t", key, "b")
        a.sync()  # each flush takes in only its own replies
        b.sync()
        a.commit()
        b.commit()
        with kernel.begin() as check:
            rows = check.scan("t")
        assert [key for key, _v in rows] == list(range(20))
        assert all(
            v == (f"p{key}" if key % 2 else "ab"[key % 4 // 2]) for key, v in rows
        )

    def test_interleaved_deferred_and_commit(self):
        kernel = pipelined_kernel()
        preload(kernel, [15, 25])
        a = kernel.begin()
        a.insert("t", 10, "a")
        with kernel.begin() as b:
            b.insert("t", 20, "b")  # another transaction commits mid-envelope
        a.commit()
        with kernel.begin() as check:
            assert check.scan("t") == [(10, "a"), (15, "p15"), (20, "b"), (25, "p25")]


class TestPipelineThroughput:
    def test_pipelining_reduces_request_count_pressure(self):
        """An envelope of twenty sends one message where twenty envelopes
        of one send twenty: every round trip saved is a request not sent."""
        sync_kernel = pipelined_kernel(batch_max_ops=1)
        with sync_kernel.begin() as txn:
            for key in range(20):
                txn.insert("t", key, key)
        sync_sent = sum(
            c.requests_sent for c in sync_kernel.tc.channels().values()
        )

        pipe_kernel = pipelined_kernel()
        with pipe_kernel.begin() as txn:
            for key in range(20):
                txn.insert("t", key, key)
            txn.sync()
        pipe_sent = sum(
            c.requests_sent for c in pipe_kernel.tc.channels().values()
        )
        assert pipe_sent < sync_sent
