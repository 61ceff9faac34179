"""Out-of-order execution (Section 5.1): why pageLSN fails, why abLSN works.

These tests reproduce the paper's motivating scenario directly: a later
operation (higher LSN) reaches a page before an earlier one, the page
becomes stable in between, and recovery must still re-execute exactly the
missing operation.
"""

from __future__ import annotations

import random

import pytest

from repro import UnbundledKernel
from repro.common.api import PerformOperation
from repro.common.config import ChannelConfig, DcConfig, KernelConfig, TcConfig
from repro.common.lsn import AbstractLsn
from repro.common.ops import InsertOp, RangeReadOp, ReadOp
from repro.dc.data_component import DataComponent
from repro.net.channel import MessageChannel
from repro.sim.schedule import DeterministicScheduler, Strategy, YieldPoint


def make_dc(page_size=512):
    dc = DataComponent("dc", config=DcConfig(page_size=page_size))
    dc.create_table("t")
    dc.register_tc(1, force_log=lambda lsn, images: lsn)
    return dc


class _HoldFirstAtSend(Strategy):
    """Run task ``first`` until its envelope sits at the ``channel.send``
    yield — logged, not yet delivered — then ``second`` to its end, then
    ``first`` again."""

    name = "hold-first-at-send"

    def __init__(self) -> None:
        self.events: list = []

    def pick(self, runnable, step):
        tasks = {task.name: task for task in runnable}
        held = any(
            event["point"] == YieldPoint.CHANNEL_SEND
            and event["task"] == "first"
            and event.get("kind") == "BatchedPerform"
            for event in self.events
        )
        if held and "second" in tasks:
            return tasks["second"]
        return tasks.get("first") or tasks["second"]


def run_held_at_send(kernel, first, second) -> DeterministicScheduler:
    """Run ``first(txn)`` and ``second(txn)`` as two committing
    transactions of the kernel's TC, ``first``'s envelope held between
    its log append and its delivery while ``second`` runs to the end."""
    strategy = _HoldFirstAtSend()
    scheduler = DeterministicScheduler(strategy)
    strategy.events = scheduler.events

    def task(work):
        def body():
            with kernel.begin() as txn:
                work(txn)

        return body

    scheduler.spawn("first", task(first))
    scheduler.spawn("second", task(second))
    scheduler.run()
    assert not scheduler.errors(), scheduler.errors()
    return scheduler


class TestTraditionalTestFails:
    """Section 5.1.1: Operation LSN <= Page LSN is wrong out of order."""

    def test_page_lsn_would_mask_earlier_op(self):
        """Simulate the broken engine: a single page LSN set to the max
        applied LSN claims LSN 5 is applied when only 9 was."""
        page_lsn = 0
        applied = set()
        # op 9 executes first
        page_lsn = max(page_lsn, 9)
        applied.add(9)
        # traditional test for op 5: 5 <= page_lsn -> "already applied"
        assert 5 <= page_lsn  # the WRONG conclusion
        assert 5 not in applied  # ...while the truth is it never ran

    def test_ablsn_gives_right_answer_in_same_scenario(self):
        ablsn = AbstractLsn()
        ablsn.include(9)
        assert not ablsn.contains(5)  # redo required — correct
        assert ablsn.contains(9)


class TestEndToEndOutOfOrder:
    def test_shuffled_delivery_reaches_consistent_state(self):
        """Non-conflicting ops (distinct keys) delivered in random order,
        then the full stream replayed in LSN order (as TC redo would):
        exactly-once semantics must hold."""
        dc = make_dc()
        ops = [
            (lsn, InsertOp(table="t", key=lsn * 2, value=f"v{lsn}"))
            for lsn in range(1, 81)
        ]
        shuffled = ops[:]
        random.Random(7).shuffle(shuffled)
        for lsn, op in shuffled:
            assert dc.perform_operation(1, lsn, op).ok
        # replay everything in order — all must be filtered
        duplicates_before = dc.metrics.get("dc.duplicate_ops")
        for lsn, op in ops:
            assert dc.perform_operation(1, lsn, op).ok
        assert dc.metrics.get("dc.duplicate_ops") - duplicates_before == 80
        result = dc.perform_operation(1, 999, RangeReadOp(table="t"))
        assert len(result.records) == 80

    def test_out_of_order_then_dc_crash_then_redo(self):
        """The full Section 5.1 scenario: out-of-order apply, a flush makes
        the page stable with a 'gap' in its abLSN, the DC crashes, and redo
        re-executes exactly the gap."""
        dc = make_dc()
        # LSN 2 arrives first, LSN 1 never arrives before the flush+crash.
        dc.perform_operation(1, 2, InsertOp(table="t", key=20, value="two"))
        dc.end_of_stable_log(1, 100)  # pretend the TC log is stable
        dc.buffer.flush_all()
        dc.crash()
        dc.recover(notify_tcs=False)
        # TC redo resends both, in order.
        assert dc.perform_operation(
            1, 1, InsertOp(table="t", key=10, value="one")
        ).ok
        before = dc.metrics.get("dc.duplicate_ops")
        assert dc.perform_operation(
            1, 2, InsertOp(table="t", key=20, value="DUP")
        ).ok
        assert dc.metrics.get("dc.duplicate_ops") == before + 1  # filtered
        assert dc.perform_operation(1, 50, ReadOp(table="t", key=10)).value == "one"
        assert dc.perform_operation(1, 51, ReadOp(table="t", key=20)).value == "two"

    def test_reordering_channel_end_to_end(self):
        """Requests sent over the channel out of LSN order (seeded
        shuffle) all execute, each once."""
        dc = make_dc()
        channel = MessageChannel(dc, ChannelConfig(), dc.metrics)
        lsns = list(range(1, 41))
        random.Random(11).shuffle(lsns)
        for lsn in lsns:
            reply = channel.request(
                PerformOperation(
                    tc_id=1,
                    op_id=lsn,
                    op=InsertOp(table="t", key=lsn, value=f"v{lsn}"),
                    eosl=0,
                )
            )
            assert reply.result.ok
        result = dc.perform_operation(1, 999, RangeReadOp(table="t"))
        assert [view.key for view in result.records] == list(range(1, 41))

    def test_higher_lsn_of_one_tc_executes_first(self):
        """Section 5.1 through the TC, on its one write path: two
        transactions of one TC insert distinct keys of one leaf, each below
        a committed key of its own (so their gap locks differ).  The
        first's envelope is logged (the lower LSN) and held at its
        ``channel.send`` yield, between the log append and the delivery,
        while the second logs, delivers and commits.  The DC executes the
        higher LSN first; each executes exactly once, and once the
        low-water mark passes both the leaf's included set is pruned."""
        kernel = UnbundledKernel(KernelConfig(tc=TcConfig(lock_timeout=60.0)))
        kernel.create_table("t")
        with kernel.begin() as txn:
            txn.insert("t", 15, "pre")
            txn.insert("t", 25, "pre")
        executed = []
        real = kernel.dc._execute

        def recording(handle, sub):
            if isinstance(sub.op, InsertOp):
                executed.append(sub.op_id)
            return real(handle, sub)

        kernel.dc._execute = recording
        run_held_at_send(
            kernel,
            lambda txn: txn.insert("t", 10, "low"),
            lambda txn: txn.insert("t", 20, "high"),
        )
        kernel.dc._execute = real
        high, low = executed
        assert high > low  # the later LSN reached the page first
        tc_id = kernel.tc.tc_id
        structure = kernel.dc.table("t").structure
        leaf = structure.find_leaf(10)
        assert structure.find_leaf(20) is leaf
        assert leaf.ablsn_for(tc_id).contains(low)
        assert leaf.ablsn_for(tc_id).contains(high)
        duplicates = kernel.metrics.get("dc.duplicate_ops")
        for lsn, key in ((low, 10), (high, 20)):
            again = InsertOp(table="t", key=key, value="again")
            assert kernel.dc.perform_operation(tc_id, lsn, again, resend=True).ok
        assert kernel.metrics.get("dc.duplicate_ops") == duplicates + 2
        kernel.tc.dispatch.broadcast_lwm()
        assert leaf.pending_lsn_count() == 0
        assert leaf.ablsn_for(tc_id).low_water >= high
        with kernel.begin() as check:
            assert check.scan("t") == [(10, "low"), (15, "pre"), (20, "high"), (25, "pre")]


class TestLwmInteraction:
    def test_lwm_prunes_after_out_of_order_completion(self):
        dc = make_dc()
        for lsn in (3, 1, 2):  # out of order
            dc.perform_operation(1, lsn, InsertOp(table="t", key=lsn, value="v"))
        leaf = dc.table("t").structure.find_leaf(1)
        assert leaf.pending_lsn_count() == 3
        dc.low_water_mark(1, 3)
        assert leaf.pending_lsn_count() == 0
        assert leaf.ablsn_for(1).low_water == 3
        # idempotence still exact after pruning
        before = dc.metrics.get("dc.duplicate_ops")
        dc.perform_operation(1, 2, InsertOp(table="t", key=2, value="dup"))
        assert dc.metrics.get("dc.duplicate_ops") == before + 1

    def test_record_level_lsn_space_comparison(self):
        """Section 5.1.1 rejects record-level LSNs as 'very expensive in
        the space required'; quantify the claim our abLSN avoids."""
        dc = make_dc()
        for lsn in range(1, 31):
            dc.perform_operation(1, lsn, InsertOp(table="t", key=lsn, value="v"))
        dc.low_water_mark(1, 30)
        leaf_ids = dc.table("t").structure.leaf_ids()
        ablsn_bytes = sum(
            dc.table("t").structure._fetch(page_id).ablsn_overhead_bytes()
            for page_id in leaf_ids
        )
        record_level_bytes = 8 * 30  # one LSN per record
        assert ablsn_bytes < record_level_bytes
