"""The TC <-> DC transport (Section 4.2.1: "asynchronous messages ...").

The paper treats the unbundled kernel as a distributed system: requests
flow one way, replies the other, and the network may delay, duplicate or
drop either.  :class:`MessageChannel` simulates that against a local
:class:`~repro.dc.data_component.DataComponent`: requests are delivered
inline (the "signals and shared variables ... multi-core design"
deployment), with seeded loss and duplication exercising the
resend/idempotence contracts end to end.  Out-of-order arrival — what the
abLSN machinery of Section 5.1 absorbs — comes from concurrent senders: a
transaction's envelope is logged before its ``channel.send`` yield, so
under the deterministic scheduler another task's higher LSN can reach the
DC first.

A per-message latency cost is accumulated into simulated-time metrics so
cloud experiments can charge round trips without real sleeping.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Optional

from repro.common.api import BatchedPerform, Message, OperationReply, PerformOperation
from repro.common.config import ChannelConfig
from repro.common.errors import CrashedError
from repro.dc.data_component import DataComponent
from repro.obs.tracing import NULL_TRACER
from repro.sim import schedule as _sched
from repro.sim.metrics import Metrics
from repro.sim.schedule import YieldPoint

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.sim.faults import FaultInjector


class MessageChannel:
    """One ordered-by-default channel between a TC and a DC."""

    #: Channels that can pipeline (send now, collect the reply out of
    #: order) advertise True and implement ``request_async`` /
    #: ``finish_async`` — see :class:`repro.net.process.ProcessChannel`.
    supports_async = False

    def __init__(
        self,
        dc: DataComponent,
        config: Optional[ChannelConfig] = None,
        metrics: Optional[Metrics] = None,
        name: str = "",
        faults: Optional["FaultInjector"] = None,
        tracer: Optional[object] = None,
    ) -> None:
        self.dc = dc
        self.config = config or ChannelConfig()
        self.metrics = metrics or Metrics()
        self.name = name or f"chan->{dc.name}"
        self.faults = faults
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if not self.tracer.enabled and type(self).request is MessageChannel.request:
            # No tracing: requests dispatch straight to the untraced body.
            self.request = self._request
        self._rng = random.Random(self.config.seed)
        self.sim_time_ms = 0.0
        #: Per-channel counters (cloud experiments diff these to count how
        #: many machines a workload touched with actual data operations).
        self.requests_sent = 0
        self.ops_sent = 0
        # Hot-path bindings: counter slots and config scalars resolved once
        # so the per-request path does no dict/attr chains (satellite of the
        # FIG1 fast-path work; profile with ``python -m repro trace``).
        self._requests_slot = self.metrics.counter("channel.requests")
        self._batches_slot = self.metrics.counter("channel.batches")
        self._batched_ops_slot = self.metrics.counter("channel.batched_ops")
        self._latency_ms = self.config.latency_ms

    @property
    def well_behaved(self) -> bool:
        """True when the channel neither loses nor duplicates."""
        return self.config.loss_rate == 0.0 and self.config.duplicate_rate == 0.0

    def request(self, message: Message) -> Optional[Message]:
        """Deliver one message now; returns the reply (or None).

        Misbehavior still applies: a "lost" request or reply returns None,
        and the caller's resend logic takes over.  ``CrashedError`` from a
        crashed DC is surfaced as a lost message plus a flag the TC can
        inspect via :attr:`dc`.
        """
        op_id = getattr(message, "op_id", None)
        with self.tracer.span(
            "channel.send",
            component=self.name,
            request_id=op_id,
            kind=type(message).__name__,
            op_id=op_id,
            resend=bool(getattr(message, "resend", False)),
        ) as span:
            reply = self._request(message)
            if reply is None:
                span.tags["lost"] = True
            return reply

    def _note_request(self, message: Message) -> None:
        """Per-request accounting, shared by every transport."""
        self._requests_slot.value += 1
        self.requests_sent += 1
        kind = type(message)
        if kind is PerformOperation:
            self.ops_sent += 1
        elif kind is BatchedPerform:
            # One wire message, many operations: the amplification win the
            # FIG1 optimized series measures.
            count = len(message.ops)
            self.ops_sent += count
            self._batches_slot.value += 1
            self._batched_ops_slot.value += count

    def _request(self, message: Message) -> Optional[Message]:
        if _sched.ACTIVE is not None:
            _sched.maybe_yield(
                YieldPoint.CHANNEL_SEND, self.dc.name, kind=type(message).__name__
            )
        self._note_request(message)
        self._charge_latency()
        if self._fault_lost("send"):
            self.metrics.incr("channel.requests_lost")
            return None
        if self._drop():
            self.metrics.incr("channel.requests_lost")
            return None
        try:
            reply = self.dc.handle(message)
        except CrashedError:
            self.metrics.incr("channel.requests_to_crashed_dc")
            return None
        if self._duplicate():
            self.metrics.incr("channel.requests_duplicated")
            self._charge_latency()  # the duplicate is its own trip on the wire
            try:
                self.dc.handle(message)  # idempotence absorbs the duplicate
            except CrashedError:
                pass
        if reply is None:
            return None
        self._charge_latency()
        if self._fault_lost("recv"):
            self.metrics.incr("channel.replies_lost")
            return None
        if self._drop():
            self.metrics.incr("channel.replies_lost")
            return None
        if _sched.ACTIVE is not None:
            _sched.maybe_yield(
                YieldPoint.CHANNEL_RECV, self.dc.name, kind=type(reply).__name__
            )
        return reply

    # -- misbehavior ------------------------------------------------------------------

    def _fault_lost(self, leg: str) -> bool:
        """Consult the fault injector for one wire leg; True = message lost.

        A ``delay`` outcome charges the spike to simulated time and lets the
        message through; ``drop``/``partition`` lose it; a ``crash`` rule
        fail-stops the target component mid-flight, which also loses the
        message (the caller's resend logic then observes the crash).
        """
        if self.faults is None:
            return False
        from repro.sim.faults import FaultAction, FaultPoint

        point = FaultPoint.CHANNEL_SEND if leg == "send" else FaultPoint.CHANNEL_RECV
        try:
            outcome = self.faults.hit(point, self.dc.name)
        except CrashedError:
            self.metrics.incr("channel.requests_to_crashed_dc")
            return True
        if outcome is None:
            return False
        if outcome.action == FaultAction.DELAY:
            self.sim_time_ms += outcome.delay_ms
            self.metrics.observe("channel.fault_delay_ms", outcome.delay_ms)
            return False
        return True

    def _drop(self) -> bool:
        return self.config.loss_rate > 0 and self._rng.random() < self.config.loss_rate

    def _duplicate(self) -> bool:
        return (
            self.config.duplicate_rate > 0
            and self._rng.random() < self.config.duplicate_rate
        )

    def _charge_latency(self) -> None:
        latency = self._latency_ms
        if latency:
            self.sim_time_ms += latency
            self.metrics.observe("channel.latency_ms", latency)


def build_channel(
    dc,
    config: Optional[ChannelConfig] = None,
    metrics: Optional[Metrics] = None,
    name: str = "",
    faults: Optional["FaultInjector"] = None,
    tracer: Optional[object] = None,
) -> MessageChannel:
    """Pick the channel implementation for a DC endpoint.

    An out-of-process DC (:class:`~repro.net.process.RemoteDc`) gets a
    :class:`~repro.net.process.ProcessChannel` over its pipe; anything
    else gets the simulated in-process :class:`MessageChannel`.  Keyed on
    the endpoint type, not on ``ChannelConfig.transport``, so a mixed
    deployment (some DCs local, some out-of-process) just works.
    """
    from repro.net.process import ProcessChannel, RemoteDc

    if isinstance(dc, RemoteDc):
        return ProcessChannel(
            dc, config, metrics, name=name, faults=faults, tracer=tracer
        )
    return MessageChannel(dc, config, metrics, name=name, faults=faults, tracer=tracer)
