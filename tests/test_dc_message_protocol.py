"""The DC's message-level protocol surface (Section 4.2.1), driven raw."""

from __future__ import annotations

import pytest

from repro.common.api import (
    CheckpointReply,
    CheckpointRequest,
    ControlAck,
    EndOfStableLog,
    LowWaterMark,
    Message,
    OperationReply,
    PerformOperation,
    RestartBegin,
    WatermarkReply,
    WatermarkRequest,
)
from repro.common.config import DcConfig
from repro.common.errors import CrashedError, ReproError
from repro.common.lsn import NULL_LSN
from repro.common.ops import InsertOp, ReadOp
from repro.dc.data_component import DataComponent
from repro.sim.metrics import Metrics


@pytest.fixture
def dc():
    component = DataComponent("dc", config=DcConfig(page_size=512))
    component.create_table("t")
    component.register_tc(1, force_log=lambda lsn, images: lsn)
    return component


class TestDispatch:
    def test_perform_operation_roundtrip(self, dc):
        reply = dc.handle(
            PerformOperation(
                tc_id=1, op_id=1, op=InsertOp(table="t", key=1, value="v")
            )
        )
        assert isinstance(reply, OperationReply)
        assert reply.op_id == 1 and reply.result.ok

    def test_piggybacked_eosl_recorded(self, dc):
        dc.handle(
            PerformOperation(
                tc_id=1, op_id=1, op=InsertOp(table="t", key=1, value="v"), eosl=42
            )
        )
        assert dc.buffer.eosl_for(1) == 42

    def test_control_message_replies(self, dc):
        # Contract-state control messages are acked, so a lossy channel can
        # resend them until delivery; LWM is an advisory hint and is not.
        assert isinstance(dc.handle(EndOfStableLog(tc_id=1, eosl=5)), ControlAck)
        assert dc.handle(LowWaterMark(tc_id=1, lwm=3)) is None
        assert isinstance(dc.handle(RestartBegin(tc_id=1, stable_lsn=0)), ControlAck)

    def test_checkpoint_request_reply(self, dc):
        dc.handle(
            PerformOperation(
                tc_id=1, op_id=1, op=InsertOp(table="t", key=1, value="v"), eosl=100
            )
        )
        dc.handle(LowWaterMark(tc_id=1, lwm=1))
        reply = dc.handle(CheckpointRequest(tc_id=1, new_rssp=2))
        assert isinstance(reply, CheckpointReply)
        assert reply.granted_rssp == 2

    def test_checkpoint_blocked_without_eosl(self, dc):
        dc.handle(
            PerformOperation(
                tc_id=1, op_id=1, op=InsertOp(table="t", key=1, value="v"), eosl=0
            )
        )
        reply = dc.handle(CheckpointRequest(tc_id=1, new_rssp=2))
        assert reply.granted_rssp == NULL_LSN  # WAL refuses the flush

    def test_watermark_request(self, dc):
        reply = dc.handle(WatermarkRequest(tc_id=1))
        assert isinstance(reply, WatermarkReply)
        assert reply.watermark == 0 and reply.floor == 0

    def test_unknown_message_type_raises(self, dc):
        class Bogus(Message):
            pass

        with pytest.raises(ReproError):
            dc.handle(Bogus(tc_id=1))

    def test_crashed_dc_rejects_all_messages(self, dc):
        dc.crash()
        with pytest.raises(CrashedError):
            dc.handle(EndOfStableLog(tc_id=1, eosl=1))


class TestRestartBeginModes:
    @pytest.mark.parametrize("mode", ["full_drop", "drop_affected", "record_reset"])
    def test_reset_mode_strings_accepted(self, dc, mode):
        dc.handle(
            PerformOperation(
                tc_id=1, op_id=1, op=InsertOp(table="t", key=1, value="v"), eosl=0
            )
        )
        dc.handle(RestartBegin(tc_id=1, stable_lsn=0, reset_mode=mode))
        if mode == "full_drop":
            assert dc.buffer.cached_ids() == []

    def test_invalid_reset_mode_rejected(self, dc):
        with pytest.raises(ValueError):
            dc.handle(RestartBegin(tc_id=1, stable_lsn=0, reset_mode="nonsense"))


class TestIdempotenceAtMessageLevel:
    def test_duplicate_message_same_reply_shape(self, dc):
        message = PerformOperation(
            tc_id=1, op_id=7, op=InsertOp(table="t", key=1, value="v")
        )
        first = dc.handle(message)
        second = dc.handle(message)
        assert first.result.ok and second.result.ok
        read = dc.handle(
            PerformOperation(tc_id=1, op_id=9, op=ReadOp(table="t", key=1))
        )
        assert read.result.value == "v"

    def test_reads_have_no_side_effects(self, dc):
        for op_id in range(10, 20):
            dc.handle(
                PerformOperation(tc_id=1, op_id=op_id, op=ReadOp(table="t", key=1))
            )
        leaf = dc.table("t").structure.find_leaf(1)
        assert leaf.ablsn_for(1).pending_count() == 0
