"""API message types, metrics, and configuration surfaces."""

from __future__ import annotations

import threading

import pytest

from repro.common.api import (
    CheckpointReply,
    CheckpointRequest,
    CrashNotice,
    EndOfStableLog,
    LowWaterMark,
    OperationReply,
    PerformOperation,
    RestartBegin,
    WatermarkReply,
    WatermarkRequest,
)
from repro.common.config import (
    ChannelConfig,
    DcConfig,
    KernelConfig,
    PageSyncStrategy,
    RangeLockProtocol,
    TcConfig,
)
from repro.common.ops import InsertOp
from repro.sim.metrics import Distribution, Metrics


class TestMessages:
    def test_messages_are_frozen(self):
        message = PerformOperation(tc_id=1, op_id=5, op=InsertOp(table="t", key=1))
        with pytest.raises(AttributeError):
            message.op_id = 6  # type: ignore[misc]

    def test_defaults(self):
        assert EndOfStableLog(tc_id=1).eosl == 0
        assert LowWaterMark(tc_id=1).lwm == 0
        assert CheckpointRequest(tc_id=1).new_rssp == 0
        assert RestartBegin(tc_id=1).reset_mode == "record_reset"
        assert WatermarkReply(tc_id=1).watermark == 0
        assert CrashNotice(tc_id=0).dc_name == ""

    def test_reply_correlation_fields(self):
        reply = OperationReply(tc_id=1, op_id=7, result=None)
        assert reply.op_id == 7

    def test_equality(self):
        a = WatermarkRequest(tc_id=1)
        b = WatermarkRequest(tc_id=1)
        assert a == b


class TestMetrics:
    def test_counters(self):
        metrics = Metrics()
        metrics.incr("x")
        metrics.incr("x", 4)
        assert metrics.get("x") == 5
        assert metrics.get("missing") == 0
        assert metrics.counters() == {"x": 5}

    def test_distributions(self):
        metrics = Metrics()
        for value in (1.0, 3.0, 5.0):
            metrics.observe("lat", value)
        dist = metrics.dist("lat")
        assert dist.count == 3
        assert dist.mean == 3.0
        assert dist.minimum == 1.0 and dist.maximum == 5.0
        assert metrics.dist("missing").count == 0

    def test_distribution_empty_mean(self):
        assert Distribution().mean == 0.0

    def test_reset(self):
        metrics = Metrics()
        metrics.incr("x")
        metrics.observe("y", 1)
        metrics.reset()
        assert metrics.get("x") == 0 and metrics.dist("y").count == 0

    def test_merged_with(self):
        a, b = Metrics(), Metrics()
        a.incr("x", 2)
        b.incr("x", 3)
        b.incr("y")
        merged = a.merged_with(b)
        assert merged["counters"] == {"x": 5, "y": 1}
        assert merged["distributions"] == {}

    def test_merged_with_keeps_distributions(self):
        a, b = Metrics(), Metrics()
        for value in (1.0, 2.0):
            a.observe("lat", value)
        for value in (3.0, 5.0):
            b.observe("lat", value)
        b.observe("bytes", 128.0)
        merged = a.merged_with(b)
        lat = merged["distributions"]["lat"]
        assert lat["count"] == 4
        assert lat["total"] == 11.0
        assert lat["min"] == 1.0 and lat["max"] == 5.0
        assert lat["p50"] is not None and lat["p99"] is not None
        assert merged["distributions"]["bytes"]["count"] == 1
        # neither source is mutated by the merge
        assert a.dist("lat").count == 2 and b.dist("lat").count == 2

    def test_snapshot_has_percentiles(self):
        metrics = Metrics()
        for value in range(1, 101):
            metrics.observe("lat", float(value))
        row = metrics.snapshot()["distributions"]["lat"]
        # log-bucket estimates: relative error is bounded by the bucket
        # ratio (~9%), so check a band, not equality
        assert 0.85 * 50 <= row["p50"] <= 1.15 * 50
        assert 0.85 * 95 <= row["p95"] <= 1.15 * 95
        assert 0.85 * 99 <= row["p99"] <= 1.15 * 99
        assert metrics.dist("lat").percentile(0.5) == row["p50"]

    def test_thread_safety(self):
        metrics = Metrics()

        def worker():
            for _ in range(1000):
                metrics.incr("n")
                metrics.observe("d", 1.0)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert metrics.get("n") == 8000
        assert metrics.dist("d").count == 8000


class TestConfig:
    def test_kernel_config_composes_defaults(self):
        config = KernelConfig()
        assert isinstance(config.dc, DcConfig)
        assert isinstance(config.tc, TcConfig)
        assert isinstance(config.channel, ChannelConfig)

    def test_default_strategy_and_protocol(self):
        assert DcConfig().sync_strategy is PageSyncStrategy.FULL_ABLSN
        assert TcConfig().range_protocol is RangeLockProtocol.FETCH_AHEAD

    def test_snapshots_disabled_by_default(self):
        assert DcConfig().snapshot_retention == 0

    def test_well_behaved_channel_by_default(self):
        """Loss and duplication come only from a fault injector, and a
        default kernel attaches none to its channels."""
        from repro import UnbundledKernel

        kernel = UnbundledKernel()
        assert kernel.tc.channels()
        assert all(channel.faults is None for channel in kernel.tc.channels().values())
