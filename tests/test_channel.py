"""The in-process transport and its one adversary, the fault injector:
seeded loss and duplication are rate rules of a ``FaultInjector``.

Out-of-order arrival comes from concurrent senders, not from the channel:
tests/test_out_of_order.py drives it through the TC."""

from __future__ import annotations

from repro.common.api import EndOfStableLog, PerformOperation
from repro.common.config import DcConfig
from repro.common.ops import InsertOp, ReadOp
from repro.dc.data_component import DataComponent
from repro.net.channel import MessageChannel
from repro.sim.faults import FaultAction, FaultInjector, FaultPoint, FaultRule
from repro.sim.metrics import Metrics
from tests.conftest import lossy


def make_channel(faults=None):
    metrics = Metrics()
    dc = DataComponent("dc", config=DcConfig(page_size=512), metrics=metrics)
    dc.create_table("t")
    dc.register_tc(1, force_log=lambda lsn, images: lsn)
    channel = MessageChannel(dc, metrics=metrics, faults=faults)
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
        assert channel.faults is None  # no injector, no misbehaviour

    def test_crashed_dc_looks_like_loss(self):
        channel, dc, metrics = make_channel()
        dc.crash()
        assert channel.request(op_message(1, 1)) is None
        assert metrics.get("channel.requests_to_crashed_dc") == 1

    def test_ops_counter(self):
        channel, dc, _m = make_channel()
        channel.request(op_message(1, 1))
        channel.request(EndOfStableLog(tc_id=1, eosl=5))
        assert channel.requests_sent == 2
        assert channel.ops_sent == 1


class TestLossAndDuplication:
    @staticmethod
    def lost_requests(seed):
        drop = FaultRule(FaultPoint.CHANNEL_SEND, FaultAction.DROP, rate=0.5)
        channel, _dc, _m = make_channel(FaultInjector([drop], seed=seed))
        return [channel.request(op_message(i, i)) is None for i in range(1, 30)]

    def test_loss_is_deterministic_per_seed(self):
        outcomes = self.lost_requests(7)
        assert self.lost_requests(7) == outcomes
        assert any(outcomes)  # some were lost
        assert not all(outcomes)
        assert self.lost_requests(8) != outcomes  # another seed, another wire

    def test_duplicates_absorbed_by_idempotence(self):
        channel, dc, metrics = make_channel(lossy(duplicate=1.0))
        channel.request(op_message(1, 1))
        assert metrics.get("channel.requests_duplicated") == 1
        assert metrics.get("dc.duplicate_ops") == 1
        result = dc.perform_operation(1, 99, ReadOp(table="t", key=1))
        assert result.value == "v"

    def test_full_loss_never_delivers(self):
        channel, dc, _m = make_channel(lossy(loss=1.0))
        assert channel.request(op_message(1, 1)) is None
        assert dc.perform_operation(1, 99, ReadOp(table="t", key=1)).value is None

    def test_a_schedule_without_rate_rules_draws_nothing(self):
        """Scripted and seeded-random schedules stay exact-count replays:
        only a rate rule consults the injector's generator."""

        class NoDraws:
            def random(self):
                raise AssertionError("a schedule with no rate rule drew")

        schedule = [
            FaultRule(FaultPoint.CHANNEL_SEND, FaultAction.DROP, after=2, count=3),
            FaultRule(FaultPoint.CHANNEL_RECV, FaultAction.DELAY, after=4),
            *FaultInjector.random_rules(3, dc_names=["dc"], rules=6, horizon=20),
        ]
        injector = FaultInjector(schedule, seed=3)
        injector._rng = NoDraws()
        channel, _dc, _m = make_channel(injector)
        for op_id in range(1, 40):
            channel.request(op_message(op_id, op_id))
        assert injector.fired  # the schedule did fire
