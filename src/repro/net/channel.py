"""The TC <-> DC transport (Section 4.2.1: "asynchronous messages ...").

The paper treats the unbundled kernel as a distributed system: requests
flow one way, replies the other, and the network may delay, duplicate or
drop either.  :class:`MessageChannel` delivers requests inline to a local
:class:`~repro.dc.data_component.DataComponent` (the "signals and shared
variables ... multi-core design" deployment).  Its only adversary is an
attached :class:`~repro.sim.faults.FaultInjector`, consulted once per leg
at ``channel.send`` and ``channel.recv``: scripted drops, duplicates,
delays, partitions and crashes, or seeded rate rules for a lossy wire,
exercise the resend/idempotence contracts end to end.  Out-of-order
arrival — what the abLSN machinery of Section 5.1 absorbs — comes from
concurrent senders: a transaction's envelope is logged before its
``channel.send`` yield, so under the deterministic scheduler another
task's higher LSN can reach the DC first.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.common.api import BatchedPerform, Message, OperationReply, PerformOperation
from repro.common.config import ChannelConfig
from repro.common.errors import CrashedError
from repro.dc.data_component import DataComponent
from repro.obs.tracing import NULL_TRACER
from repro.sim import schedule as _sched
from repro.sim.faults import FaultAction, FaultPoint
from repro.sim.metrics import Metrics
from repro.sim.schedule import YieldPoint

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.sim.faults import FaultInjector

#: Fault actions that lose the message on its leg.
_LOST = (FaultAction.DROP, FaultAction.PARTITION)


class MessageChannel:
    """One ordered-by-default channel between a TC and a DC."""

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
        #: Per-channel counters (cloud experiments diff these to count how
        #: many machines a workload touched with actual data operations).
        self.requests_sent = 0
        self.ops_sent = 0
        # Hot-path bindings: counter slots resolved once so the per-request
        # path does no dict/attr chains (profile with ``python -m repro
        # trace``).
        self._requests_slot = self.metrics.counter("channel.requests")
        self._batches_slot = self.metrics.counter("channel.batches")
        self._batched_ops_slot = self.metrics.counter("channel.batched_ops")

    def request(self, message: Message) -> Optional[Message]:
        """Deliver one message now; returns the reply (or None).

        Injected faults apply: a "lost" request or reply returns None,
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

    # -- the pipelined surface --------------------------------------------------------
    #
    # Every channel has it, so its callers (the redo pump, a multi-DC
    # flush) have one shape.  Here a "slot" is the request itself, handed
    # to the DC when it is collected: the channel has no wire to overlap,
    # and collecting in send order keeps a lost request from being
    # overtaken by the ones behind it, as a FIFO pipe would.

    def request_async(self, message: Message, defer: bool = False) -> Message:
        """Queue ``message``; :meth:`finish_async` delivers it."""
        return message

    def finish_async(self, slot: Message) -> Optional[Message]:
        """Deliver a queued request now; the reply, or None when lost."""
        return self.request(slot)

    def flush(self) -> None:
        """Nothing is ever buffered here."""

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
        action = None
        if self.faults is not None:
            action = self._fault(FaultPoint.CHANNEL_SEND)
            if action in _LOST:
                self.metrics.incr("channel.requests_lost")
                return None
        try:
            reply = self.dc.handle(message)
        except CrashedError:
            self.metrics.incr("channel.requests_to_crashed_dc")
            return None
        if action == FaultAction.DUPLICATE:  # idempotence absorbs it
            self.metrics.incr("channel.requests_duplicated")
            try:
                self.dc.handle(message)
            except CrashedError:
                pass
        if reply is None:
            return None
        if self.faults is not None and self._fault(FaultPoint.CHANNEL_RECV) in _LOST:
            self.metrics.incr("channel.replies_lost")
            return None
        if _sched.ACTIVE is not None:
            _sched.maybe_yield(
                YieldPoint.CHANNEL_RECV, self.dc.name, kind=type(reply).__name__
            )
        return reply

    def _fault(self, point: str) -> Optional[str]:
        """Consult the fault injector for one wire leg: the action the
        message suffers, or None when it goes through.

        A ``delay`` outcome is recorded and lets the message through;
        ``duplicate`` delivers a request twice; ``drop``/``partition``
        lose the message; a ``crash`` rule fail-stops the
        target component mid-flight, which also loses the message (the
        caller's resend logic then observes the crash).
        """
        try:
            outcome = self.faults.hit(point, self.dc.name)
        except CrashedError:
            self.metrics.incr("channel.requests_to_crashed_dc")
            return FaultAction.DROP
        if outcome is None:
            return None
        if outcome.action == FaultAction.DELAY:
            self.metrics.observe("channel.fault_delay_ms", outcome.delay_ms)
            return None
        return outcome.action


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
