"""The simulated transport: loss, duplication, latency.

Out-of-order arrival comes from concurrent senders, not from the channel:
tests/test_out_of_order.py drives it through the TC."""

from __future__ import annotations

from repro.common.api import PerformOperation
from repro.common.config import ChannelConfig, DcConfig
from repro.common.ops import InsertOp, ReadOp
from repro.dc.data_component import DataComponent
from repro.net.channel import MessageChannel
from repro.sim.metrics import Metrics


def make_channel(**channel_kwargs):
    metrics = Metrics()
    dc = DataComponent("dc", config=DcConfig(page_size=512), metrics=metrics)
    dc.create_table("t")
    dc.register_tc(1, force_log=lambda lsn, images: lsn)
    channel = MessageChannel(dc, ChannelConfig(**channel_kwargs), metrics)
    return channel, dc, metrics


def op_message(op_id, key, value="v"):
    return PerformOperation(
        tc_id=1, op_id=op_id, op=InsertOp(table="t", key=key, value=value), eosl=10**9
    )


class TestWellBehaved:
    def test_request_reply(self):
        channel, dc, _m = make_channel()
        reply = channel.request(op_message(1, 1))
        assert reply is not None and reply.result.ok
        assert channel.well_behaved

    def test_crashed_dc_looks_like_loss(self):
        channel, dc, metrics = make_channel()
        dc.crash()
        assert channel.request(op_message(1, 1)) is None
        assert metrics.get("channel.requests_to_crashed_dc") == 1


class TestLossAndDuplication:
    def test_loss_is_deterministic_per_seed(self):
        outcomes = []
        for _ in range(2):
            channel, _dc, _m = make_channel(loss_rate=0.5, seed=7)
            outcomes.append(
                [channel.request(op_message(i, i)) is None for i in range(1, 30)]
            )
        assert outcomes[0] == outcomes[1]
        assert any(outcomes[0])  # some were lost
        assert not all(outcomes[0])

    def test_duplicates_absorbed_by_idempotence(self):
        channel, dc, metrics = make_channel(duplicate_rate=1.0)
        channel.request(op_message(1, 1))
        assert metrics.get("channel.requests_duplicated") == 1
        assert metrics.get("dc.duplicate_ops") == 1
        result = dc.perform_operation(1, 99, ReadOp(table="t", key=1))
        assert result.value == "v"

    def test_full_loss_never_delivers(self):
        channel, dc, _m = make_channel(loss_rate=1.0)
        assert channel.request(op_message(1, 1)) is None
        assert dc.perform_operation(1, 99, ReadOp(table="t", key=1)).value is None


class TestLatencyModel:
    def test_latency_accumulates_per_leg(self):
        channel, *_ = make_channel(latency_ms=5.0)
        channel.request(op_message(1, 1))
        assert channel.sim_time_ms == 10.0  # request + reply

    def test_ops_counter(self):
        channel, dc, _m = make_channel()
        channel.request(op_message(1, 1))
        from repro.common.api import EndOfStableLog

        channel.request(EndOfStableLog(tc_id=1, eosl=5))
        assert channel.requests_sent == 2
        assert channel.ops_sent == 1
