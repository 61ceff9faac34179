"""DC-restart subtleties: the force-first rule and cross-DC transactions.

When a DC crashes, acknowledged operations of *still-active* transactions
existed only in the DC's cache and the TC's volatile log tail.  Nobody's
resend loop covers them (they were acked), so the restart prompt handler
*forces the TC log first* and then redoes from the RSSP — making the tail
stable and therefore part of the redo stream.  These tests pin that
load-bearing behavior.
"""

from __future__ import annotations

import pytest

from repro import KernelConfig, UnbundledKernel
from repro.common.api import (
    BatchedPerform,
    CheckpointReply,
    CheckpointRequest,
    ControlAck,
    LowWaterMark,
    PerformOperation,
    RedoComplete,
)
from repro.common.config import DcConfig
from repro.common.errors import CrashedError
from repro.common.lsn import NULL_LSN
from repro.common.ops import InsertOp, OpStatus, ReadOp
from repro.dc.data_component import DataComponent
from tests.conftest import populate


def small_kernel(dc_count=1):
    kernel = UnbundledKernel(KernelConfig(dc=DcConfig(page_size=512)), dc_count=dc_count)
    if dc_count == 1:
        kernel.create_table("t")
    return kernel


class TestForceFirst:
    def test_acked_volatile_ops_of_active_txn_survive_dc_crash(self):
        kernel = small_kernel()
        populate(kernel, 10)
        txn = kernel.begin()
        txn.update("t", 3, "acked-but-volatile")
        assert kernel.tc.log.needs_force(kernel.tc.log.last_lsn)  # tail!
        kernel.crash_dc()
        kernel.recover_dc()  # prompt forces the log, then redoes
        assert not kernel.tc.log.needs_force(txn.op_records[-1].lsn)
        txn.commit()
        with kernel.begin() as check:
            assert check.read("t", 3) == "acked-but-volatile"

    def test_active_txn_can_still_abort_after_dc_recovery(self):
        kernel = small_kernel()
        populate(kernel, 10)
        txn = kernel.begin()
        txn.update("t", 3, "doomed")
        kernel.crash_dc()
        kernel.recover_dc()
        txn.abort()  # inverse applies against the redone state
        with kernel.begin() as check:
            assert check.read("t", 3) == "value-00003"

    def test_restart_prompt_advances_eosl_at_dc(self):
        kernel = small_kernel()
        populate(kernel, 5)
        txn = kernel.begin()
        txn.insert("t", 99, "tail")
        kernel.crash_dc()
        kernel.recover_dc()
        assert kernel.dc.buffer.eosl_for(kernel.tc.tc_id) >= txn.op_records[-1].lsn
        kernel.tc.abort(txn)


class TestCrossDcTransactionDuringDcCrash:
    def test_one_dc_of_a_cross_dc_txn_crashes(self):
        """The surviving DC keeps its half; the crashed DC's half is
        restored by redo; the transaction commits wholly."""
        kernel = small_kernel(dc_count=2)
        kernel.create_table("a", dc_name="dc1")
        kernel.create_table("b", dc_name="dc2")
        txn = kernel.begin()
        txn.insert("a", 1, "on-dc1")
        txn.insert("b", 1, "on-dc2")
        kernel.crash_dc("dc1")
        kernel.dcs["dc1"].recover(notify_tcs=True)
        txn.commit()
        with kernel.begin() as check:
            assert check.read("a", 1) == "on-dc1"
            assert check.read("b", 1) == "on-dc2"

    def test_cross_dc_abort_with_one_dc_freshly_recovered(self):
        kernel = small_kernel(dc_count=2)
        kernel.create_table("a", dc_name="dc1")
        kernel.create_table("b", dc_name="dc2")
        txn = kernel.begin()
        txn.insert("a", 1, "x")
        txn.insert("b", 1, "y")
        kernel.crash_dc("dc2")
        kernel.dcs["dc2"].recover(notify_tcs=True)
        txn.abort()
        with kernel.begin() as check:
            assert check.read("a", 1) is None
            assert check.read("b", 1) is None

    def test_sequential_crashes_of_both_dcs(self):
        kernel = small_kernel(dc_count=2)
        kernel.create_table("a", dc_name="dc1")
        kernel.create_table("b", dc_name="dc2")
        for key in range(10):
            with kernel.begin() as txn:
                txn.insert("a", key, key)
                txn.insert("b", key, -key)
        kernel.crash_dc("dc1")
        kernel.dcs["dc1"].recover(notify_tcs=True)
        kernel.crash_dc("dc2")
        kernel.dcs["dc2"].recover(notify_tcs=True)
        with kernel.begin() as check:
            assert len(check.scan("a")) == 10
            assert len(check.scan("b")) == 10


class TestRedoWindow:
    """Section 5.2.2's ordering at the DC: between ``recover()`` and a TC's
    ``RedoComplete`` the DC serves that TC's redo stream and nothing else
    of its data traffic, drops its low-water marks, refuses its
    checkpoints and hints it nothing — while other TCs go on as usual."""

    PENDING, OTHER = 1, 2

    def _dc(self):
        dc = DataComponent("dc", config=DcConfig(page_size=512))
        dc.create_table("t")
        self.prompts = []
        self.hints = []
        dc.register_tc(
            self.PENDING,
            force_log=lambda lsn, images: lsn,
            on_dc_restart=self.prompts.append,
            on_rssp_hint=lambda name, rssp: self.hints.append((self.PENDING, rssp)),
        )
        dc.register_tc(
            self.OTHER,
            force_log=lambda lsn, images: lsn,
            on_rssp_hint=lambda name, rssp: self.hints.append((self.OTHER, rssp)),
        )
        for key in range(1, 21):
            assert dc.perform_operation(self.PENDING, key, InsertOp("t", key, "v")).ok
        assert dc.perform_operation(self.OTHER, 1, InsertOp("t", 100, "w")).ok
        dc.end_of_stable_log(self.PENDING, 20)
        dc.end_of_stable_log(self.OTHER, 1)
        assert dc.checkpoint_dc_log()  # the pages reach disk with their abLSNs
        dc.crash()
        dc.recover()
        assert self.prompts == [dc]
        return dc

    @staticmethod
    def _low_waters(dc, tc_id):
        pages = map(dc.buffer.cached_page, dc.buffer.cached_ids())
        return {
            page.page_id: page.ablsns[tc_id].low_water
            for page in pages
            if tc_id in page.ablsns
        }

    def _ops(self, tc_id, first, redo=False):
        return tuple(
            PerformOperation(
                tc_id=tc_id, op_id=op_id, op=InsertOp("t", 200 + op_id, "r"), redo=redo
            )
            for op_id in (first, first + 1)
        )

    def test_ordinary_operations_bounce(self):
        dc = self._dc()
        single = PerformOperation(tc_id=self.PENDING, op_id=50, op=ReadOp("t", 1))
        with pytest.raises(CrashedError, match="awaiting redo from TC 1"):
            dc.handle(single)
        envelope = BatchedPerform(tc_id=self.PENDING, ops=self._ops(self.PENDING, 51))
        with pytest.raises(CrashedError, match="awaiting redo from TC 1"):
            dc.handle(envelope)
        assert dc.metrics.get("dc.bounced_in_redo_window") == 2
        assert dc.perform_operation(self.PENDING, 99, ReadOp("t", 251)).status is (
            OpStatus.NOT_FOUND
        )

    def test_redo_traffic_executes(self):
        dc = self._dc()
        operations = dc.metrics.get("dc.operations")
        redo = PerformOperation(
            tc_id=self.PENDING, op_id=60, op=InsertOp("t", 60, "r"), redo=True
        )
        assert dc.handle(redo).result.ok
        envelope = BatchedPerform(
            tc_id=self.PENDING, ops=self._ops(self.PENDING, 61, redo=True), redo=True
        )
        assert all(reply.result.ok for reply in dc.handle(envelope).replies)
        assert dc.metrics.get("dc.operations") == operations + 3
        assert dc.metrics.get("dc.bounced_in_redo_window") == 0

    def test_low_water_mark_is_dropped(self):
        dc = self._dc()
        before = self._low_waters(dc, self.PENDING)
        assert before  # recovered pages carry the pending TC's abLSNs
        assert dc.handle(LowWaterMark(tc_id=self.PENDING, lwm=20)) is None
        assert self._low_waters(dc, self.PENDING) == before
        assert dc.metrics.get("dc.lwm_dropped_in_redo_window") == 1

    def test_checkpoint_is_refused(self):
        dc = self._dc()
        reply = dc.handle(CheckpointRequest(tc_id=self.PENDING, new_rssp=20))
        assert isinstance(reply, CheckpointReply)
        assert reply.granted_rssp == NULL_LSN
        assert dc.metrics.get("dc.checkpoint_refused_in_redo_window") == 1
        other = dc.handle(CheckpointRequest(tc_id=self.OTHER, new_rssp=1))
        assert other.granted_rssp == 1

    def test_rssp_hint_skips_the_pending_tc(self):
        dc = self._dc()
        dc.low_water_mark(self.PENDING, 20)
        assert dc.handle(LowWaterMark(tc_id=self.OTHER, lwm=1)) is None
        self.hints.clear()
        assert dc.checkpoint_dc_log()
        assert self.hints == [(self.OTHER, 2)]
        dc.handle(RedoComplete(tc_id=self.PENDING))
        self.hints.clear()
        dc.hint_rssp_advance()
        assert sorted(self.hints) == [(self.PENDING, 21), (self.OTHER, 2)]

    def test_other_tc_is_not_bounced(self):
        dc = self._dc()
        single = PerformOperation(tc_id=self.OTHER, op_id=2, op=ReadOp("t", 100))
        assert dc.handle(single).result.value == "w"
        envelope = BatchedPerform(tc_id=self.OTHER, ops=self._ops(self.OTHER, 3))
        assert all(reply.result.ok for reply in dc.handle(envelope).replies)
        assert dc.handle(LowWaterMark(tc_id=self.OTHER, lwm=4)) is None
        assert set(self._low_waters(dc, self.OTHER).values()) == {4}
        assert dc.metrics.get("dc.bounced_in_redo_window") == 0
        assert dc.metrics.get("dc.lwm_dropped_in_redo_window") == 0

    def test_redo_complete_closes_the_window(self):
        dc = self._dc()
        ack = dc.handle(RedoComplete(tc_id=self.PENDING))
        assert ack == ControlAck(tc_id=self.PENDING)
        single = PerformOperation(tc_id=self.PENDING, op_id=70, op=ReadOp("t", 1))
        assert dc.handle(single).result.value == "v"
        assert dc.handle(LowWaterMark(tc_id=self.PENDING, lwm=20)) is None
        assert set(self._low_waters(dc, self.PENDING).values()) == {20}
        granted = dc.handle(CheckpointRequest(tc_id=self.PENDING, new_rssp=20))
        assert granted.granted_rssp == 20
        assert dc.handle(RedoComplete(tc_id=self.PENDING)) == ack
        assert dc.metrics.get("dc.bounced_in_redo_window") == 0
        assert dc.metrics.get("dc.lwm_dropped_in_redo_window") == 0
        assert dc.metrics.get("dc.checkpoint_refused_in_redo_window") == 0

    def test_no_window_without_a_prompt(self):
        dc = self._dc()
        dc.crash()
        dc.recover(notify_tcs=False)
        single = PerformOperation(tc_id=self.PENDING, op_id=80, op=ReadOp("t", 1))
        assert dc.handle(single).result.value == "v"
