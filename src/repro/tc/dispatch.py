"""Envelope dispatch: how the TC reaches a DC (docs/architecture.md §9, §10).

Every TC→DC request leaves through :meth:`Dispatch.resend`, the one
resend loop (§4.2.1: unique id, resend until acknowledged, DC-side
idempotence).  Around it sit the ways to send once: a transaction's
pending envelopes (:meth:`Dispatch.sync`), a single logged or unlogged
operation (:meth:`Dispatch.perform`), a control message that must not be
lost (:meth:`Dispatch.request_acked`).  The stage owns the *redo
windows* — DCs whose redo stream is being resent, which ordinary
dispatch waits out — and the reply count behind the LWM broadcast.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Iterator, Optional

from repro.common.api import BatchedPerform, BatchedReply, LowWaterMark, PerformOperation
from repro.common.errors import (
    ComponentUnavailableError,
    DuplicateKeyError,
    NoSuchRecordError,
    ReproError,
    ResendExhaustedError,
    UndoImageLostError,
)
from repro.common.lsn import Lsn, NULL_LSN
from repro.common.ops import (
    IncrementOp,
    LogicalOperation,
    OpResult,
    OpStatus,
    ProbeNextKeysOp,
    RangeReadOp,
    ReadFlavor,
    ReadOp,
)
from repro.common.records import Key, RecordView, Value
from repro.net.channel import MessageChannel
from repro.sim import schedule as _sched
from repro.sim.schedule import YieldPoint
from repro.tc.handle import ABSENT
from repro.tc.log import CompensationRecord, OpRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.tc.handle import Transaction
    from repro.tc.transactional_component import TransactionalComponent


def rejection(result: OpResult, op: LogicalOperation) -> ReproError:
    """The typed error for a DC's verdict other than OK."""
    if result.status is OpStatus.DUPLICATE:
        return DuplicateKeyError(op.table, getattr(op, "key", None))
    if result.status is OpStatus.NOT_FOUND:
        return NoSuchRecordError(op.table, getattr(op, "key", None))
    return ReproError(f"operation failed: {result.message} ({op!r})")


def expect_ok(result: OpResult, op: LogicalOperation) -> None:
    if not result.ok:
        raise rejection(result, op)


def dc_down(channel: MessageChannel, dc_name: str) -> bool:
    """Crashed, or behind an unhealed (injected) partition."""
    return channel.dc.crashed or (
        channel.faults is not None and channel.faults.partitioned(dc_name)
    )


class Dispatch:
    """The TC's requests to its DCs, resent until answered."""

    def __init__(self, tc: "TransactionalComponent") -> None:
        self._tc = tc
        self._log = tc.log
        self._metrics = tc.metrics
        self._tracer = tc.tracer
        self._lwm_interval = tc.config.lwm_interval
        #: One channel per attached DC, by DC name.
        self.channels: dict[str, MessageChannel] = {}
        #: DCs whose redo stream this TC is currently resending, mapped to
        #: the thread running the resend.  Ordinary dispatch stalls on
        #: these (see :meth:`_await_redo_quiesce`); the redo thread itself
        #: passes through.
        self._dc_redo: dict[str, int] = {}
        self._redo_cv = threading.Condition()
        self._completions_since_lwm = 0
        #: RetryPolicy is stateless: one instance serves every resend loop.
        self._retry_policy = tc.config.retry_policy()
        self._syncs_slot = tc.metrics.counter("tc.pipeline_syncs")

    def reset(self) -> None:
        """TC crash: the reply count restarts with the log's volatile tail."""
        self._completions_since_lwm = 0

    # -- the one resend loop -------------------------------------------------------

    def resend(
        self,
        dc_name: str,
        attempt: Callable[[int], object],
        request_id: object = 0,
        restarting: bool = False,
    ) -> object:
        """The one resend loop (§4.2.1: unique id, resend until
        acknowledged, DC-side idempotence).

        ``attempt(tries)`` sends once (``tries > 0``: a resend) and returns
        None when the message or its reply was lost, an ``UNSTABLE``
        :class:`OpResult` when the DC's causality gate refused it, and
        anything else as the answer.  Resends follow the TC's
        :class:`~repro.common.config.RetryPolicy`: exponential backoff
        charged to simulated channel time (never slept), bounded by both
        an attempt count and a timeout budget; a refusal first waits for
        the stability it lacked (:meth:`_await_stability`).  A DC known to
        be down — crashed, or behind an unhealed partition — fails fast
        with :class:`ComponentUnavailableError` instead of burning the
        budget; an exhausted budget raises :class:`ResendExhaustedError`
        naming ``request_id`` (an op id, or what else the message is
        known by), so the caller (or supervisor) can tell
        "slow" from "gone".

        Before every try the TC must be up and the DC outside a redo
        window (:meth:`_require_reachable`); ``restarting`` skips both for
        the control messages restart sends while the TC is still marked
        crashed and the redo window is its own.
        """
        channel = self.channels[dc_name]
        policy = self._retry_policy
        attempts = 0
        waited_ms = 0.0
        while not policy.exhausted(attempts, waited_ms):
            if not restarting:
                self._require_reachable(channel, dc_name, attempts, waited_ms)
            elif dc_down(channel, dc_name):
                raise ComponentUnavailableError(f"DC {dc_name}", attempts, waited_ms)
            reply = attempt(attempts)
            attempts += 1
            if reply is None:
                if channel.dc.crashed:
                    raise ComponentUnavailableError(f"DC {dc_name}", attempts, waited_ms)
                waited_ms += policy.backoff_ms(attempts)
                self._metrics.incr("tc.resends")
            elif type(reply) is OpResult and reply.status is OpStatus.UNSTABLE:
                self._await_stability(reply)
                waited_ms += policy.backoff_ms(attempts)
            else:
                return reply
        raise ResendExhaustedError(request_id, dc_name, attempts, waited_ms)

    def _require_reachable(
        self, channel: MessageChannel, dc_name: str, attempts: int, waited_ms: float
    ) -> None:
        """Checked before every send attempt: the TC itself may have been
        crashed mid-operation (e.g. by a fault during a DC-prompted log
        force), and a DC crash can open a redo window while an operation
        is mid-retry — its resend must not land on the rebuilt DC before
        redo replays what came before it."""
        self._tc._check_up()
        self._await_redo_quiesce(dc_name)
        if dc_down(channel, dc_name):
            raise ComponentUnavailableError(f"DC {dc_name}", attempts, waited_ms)

    def _await_stability(self, refusal: OpResult) -> None:
        """A DC's causality gate refused an operation (nothing executed):
        the log-force prompt met a record, at or below the LSN the gate
        needs, whose before-image another session's envelope still owes.
        The prompt does not wait for it — that envelope may be queued
        behind the very operation that prompted — so the wait happens
        here, with the DC's latches released: until the fill (or the lock
        timeout), then the caller resends under its retry budget.
        """
        self._metrics.incr("tc.unstable_retries")
        self._log.await_fill(refusal.value, self._tc.config.lock_timeout)

    # -- redo windows -----------------------------------------------------------------

    @contextmanager
    def redo_window(self, dc_name: str) -> Iterator[None]:
        """Close ``dc_name`` to ordinary dispatch while this thread resends
        its redo stream: a new operation arriving mid-rebuild would read
        committed records as absent (and a later abort would then undo to
        that absence)."""
        with self._redo_cv:
            self._dc_redo[dc_name] = threading.get_ident()
        try:
            yield
        finally:
            with self._redo_cv:
                self._dc_redo.pop(dc_name, None)
                self._redo_cv.notify_all()
            _sched.notify(f"redo:{dc_name}")

    def _await_redo_quiesce(self, dc_name: str) -> None:
        """Stall ordinary dispatch to a DC whose redo stream is replaying.

        An operation slipping in mid-rebuild would observe committed
        records as absent — and a read-before-write would capture that
        absence as undo information, so a later abort's repeat-history
        undo would erase committed data.  The thread running the redo
        itself passes through (redo resends, zombie rollbacks and
        completions all use :meth:`perform`).
        """
        if not self._dc_redo:
            return
        me = threading.get_ident()
        with self._redo_cv:
            while self._dc_redo.get(dc_name) not in (None, me):
                _sched.wait(
                    self._redo_cv, _sched.now() + 1.0, YieldPoint.DC_REDO_WAIT,
                    dc_name, resource=f"redo:{dc_name}",
                )  # fmt: skip

    # -- sending once -----------------------------------------------------------------

    def perform(
        self,
        dc_name: str,
        op: LogicalOperation,
        op_id: Lsn,
        resend: bool = False,
        redo: bool = False,
        want_prior: bool = False,
    ) -> OpResult:
        """Send one operation, resent until acknowledged (exactly-once end
        to end, see :meth:`resend`); returns the DC's verdict."""
        channel = self.channels[dc_name]
        if self._tracer.enabled:
            # The op id *is* the trace context: DC-side spans started later
            # (e.g. redo after a crash) can recover this request's trace.
            self._tracer.bind_request(op_id)

        def attempt(tries: int) -> Optional[OpResult]:
            reply = channel.request(
                PerformOperation(
                    tc_id=self._tc.tc_id,
                    op_id=op_id,
                    op=op,
                    resend=resend or tries > 0,
                    eosl=self._log.eosl,
                    redo=redo,
                    want_prior=want_prior,
                )
            )
            return None if reply is None else reply.result

        return self.resend(dc_name, attempt, op_id)

    def request_acked(self, dc_name: str, message) -> object:
        """Deliver a control message reliably: resend until a reply arrives.

        Contract-state control messages (``RestartBegin``,
        ``EndOfStableLog`` at restart, ``RedoComplete``) must not be
        silently lost on a lossy channel.  The messages themselves are
        idempotent, so a reply lost after delivery just costs a resend.
        """
        channel = self.channels[dc_name]
        return self.resend(
            dc_name, lambda _tries: channel.request(message), restarting=True
        )

    def read_dc(self, op: LogicalOperation) -> OpResult:
        """Run one unlogged operation (a read or probe) at the DC hosting
        its table: a fresh request id, resent until answered, then
        counted as replied for the low-water mark."""
        route = self._tc.route(op.table)
        op_id = self._log.issue_read_id()
        result = self.perform(route.dc_name, op, op_id)
        self.complete_ops([op_id])
        return result

    def fetch(self, table: str, key: Key, counter=None) -> object:
        """One DC read of ``(table, key)``: its value or ``ABSENT``.
        ``counter`` (a ``Metrics.counter`` slot) counts the answered read."""
        op = ReadOp(table=table, key=key, flavor=ReadFlavor.OWN)
        result = self.read_dc(op)
        if counter is not None:
            counter.value += 1
        if result.status is OpStatus.NOT_FOUND:
            return ABSENT
        expect_ok(result, op)
        return result.value

    def probe_keys(
        self,
        table: str,
        after: Optional[Key],
        count: int,
        until: Optional[Key] = None,
        inclusive: bool = False,
    ) -> list[Key]:
        """Speculative fetch-ahead probe (unlocked, unlogged)."""
        op = ProbeNextKeysOp(
            table=table, after=after, count=count, until=until, inclusive=inclusive
        )
        result = self.read_dc(op)
        expect_ok(result, op)
        self._metrics.incr("tc.probes")
        keys = list(result.keys)
        if not keys and until is None and after is not None:
            # Authoritative emptiness: no key exists above ``after``.
            self._tc.undo_cache.learn_empty_above(table, after)
        return keys

    def read_range(
        self,
        table: str,
        low: Optional[Key],
        high: Optional[Key],
        limit: Optional[int],
        flavor: ReadFlavor,
        low_exclusive: bool = False,
    ) -> tuple[RecordView, ...]:
        """One unlocked range read at the DC hosting ``table``."""
        op = RangeReadOp(
            table=table,
            low=low,
            high=high,
            limit=limit,
            flavor=flavor,
            low_exclusive=low_exclusive,
        )
        result = self.read_dc(op)
        expect_ok(result, op)
        return result.records

    # -- a transaction's envelopes ------------------------------------------------------

    def sync(self, txn: "Transaction") -> None:
        """Flush the pending operations as one :class:`BatchedPerform`
        envelope per DC and take in the replies."""
        if not txn.in_flight:
            return
        groups: dict[str, list] = {}
        for slot, record in txn.in_flight.items():
            groups.setdefault(record.dc_name, []).append(slot)
        # Pipelined flush: pre-send every DC's first-attempt envelope
        # before collecting any reply, so N DC processes execute
        # concurrently while this one TC thread waits.  Out-of-order
        # completion is §4.2.1-safe: per-op ids correlate replies, resends
        # are absorbed by idempotence.  A presend whose reply is never
        # collected (an earlier group failed) is indistinguishable from a
        # lost reply — the records stay in flight and a later sync resends
        # the same LSNs.
        presends: dict[str, object] = {}
        if len(groups) > 1:
            for dc_name, slots in groups.items():
                channel = self.channels[dc_name]
                if dc_down(channel, dc_name):
                    continue
                presends[dc_name] = channel.request_async(
                    self.envelope(self._log_envelope(txn, slots), resend=False)
                )
        for dc_name, slots in groups.items():
            self._send_batch(txn, dc_name, slots, presend=presends.pop(dc_name, None))
        self._syncs_slot.value += 1

    def _log_envelope(self, txn: "Transaction", slots: list) -> list[OpRecord]:
        """The records of one DC's pending envelope, in order — appending
        the ones still queued to the log now, as the envelope goes out.

        Logging at flush, not at call, is what bounds how long a record
        can be *owed*: one DC round trip, however long the client thinks
        between operations.  (A resend after a transport failure finds its
        records logged already and keeps their LSNs.)
        """
        in_flight = txn.in_flight
        records = [in_flight[slot] for slot in slots]
        queued = [item for item in records if not item.lsn]
        if queued:
            txn_id = txn.txn_id
            logged = self._log.append_envelope(
                queued,
                lambda lsn, q: OpRecord(lsn, txn_id, q.op, q.undo, q.dc_name, q.owed),
            )
            fresh = iter(logged)
            records = [item if item.lsn else next(fresh) for item in records]
            in_flight.update(zip(slots, records))
            txn.op_records.extend(logged)
            txn.logged = True
        return records

    def envelope(self, records: list, resend: bool, redo: bool = False) -> BatchedPerform:
        """One envelope of logged operations, each asking for the image
        its record owes (a redo stream's with ``redo``)."""
        tc_id = self._tc.tc_id
        return BatchedPerform(
            tc_id=tc_id,
            ops=tuple(
                PerformOperation(
                    tc_id=tc_id,
                    op_id=record.lsn,
                    op=record.op,
                    resend=resend,
                    redo=redo,
                    want_prior=getattr(record, "owed", False),
                )
                for record in records
            ),
            eosl=self._log.eosl,
            redo=redo,
        )

    def _send_batch(
        self,
        txn: "Transaction",
        dc_name: str,
        slots: list,
        presend: Optional[object] = None,
    ) -> None:
        """Log and ship one DC's pending operations in a single envelope.

        Retries resend the *whole remaining* envelope with the same per-op
        LSNs (``resend=True``), which the DC's per-op abLSN idempotence
        test absorbs — the single-message contract, minus round trips.
        A semantic rejection of one operation is handled per-op (see
        :meth:`_take_in`).  Operations leave ``txn.in_flight`` as their
        replies are taken in; a transport failure leaves them there,
        logged, so a later sync (rollback repeats history) resends the
        same LSNs.

        ``presend`` is an already-dispatched first attempt (a pipelined
        reply slot from :meth:`sync`'s concurrent flush); the first try
        awaits it instead of sending again.
        """
        channel = self.channels[dc_name]
        pending: dict = {}

        def attempt(tries: int) -> object:
            nonlocal presend
            if not tries:
                # Logged only once the DC is known reachable: an envelope
                # for a DC that is down stays queued, and an abort simply
                # forgets it.
                records = self._log_envelope(txn, slots)
                pending.update(
                    (record.lsn, (slot, record)) for slot, record in zip(slots, records)
                )
            if presend is not None:
                reply, presend = channel.finish_async(presend), None
            else:
                reply = channel.request(
                    self.envelope([record for _slot, record in pending.values()], tries > 0)
                )
            if reply is None:
                return None
            assert isinstance(reply, BatchedReply)
            refusal = self._take_in(txn, pending, reply)
            if refusal is not None:
                return refusal
            # What a reply left unanswered is resent like a lost message.
            return None if pending else reply

        with self._tracer.span(
            "tc.batch_flush", component=self._tc.name, dc=dc_name, ops=len(slots)
        ):
            self.resend(dc_name, attempt, slots)

    def _take_in(
        self, txn: "Transaction", pending: dict, reply: BatchedReply
    ) -> Optional[OpResult]:
        """Settle every operation ``reply`` answers: before-images into
        their owed records (so the low-water mark never passes a record
        still owed), rejections cancelled, all of them marked replied
        under one log-mutex bracket; then raise the first rejection, if
        any.  An operation the causality gate refused stays pending; the
        verdict naming the highest LSN is returned."""
        images: dict[Lsn, Value] = {}
        completed: list[Lsn] = []
        failure: Optional[ReproError] = None
        refusal: Optional[OpResult] = None
        for sub in reply.replies:
            if sub.result is not None and sub.result.status is OpStatus.UNSTABLE:
                if sub.op_id in pending and (
                    refusal is None or sub.result.value > refusal.value
                ):
                    refusal = sub.result
                continue
            slot, record = pending.pop(sub.op_id, (None, None))
            if record is None:
                continue  # a duplicated reply; already confirmed
            completed.append(record.lsn)
            txn.in_flight.pop(slot, None)
            result, op = sub.result, record.op
            assert result is not None and op is not None
            if result.ok:
                if record.owed:
                    if result.prior is None:
                        # Never guess an undo image: fail-stop.  The owed
                        # record was never stable, so restart loses it from
                        # the log and resets it out of the DC.
                        self._tc.crash()
                        raise UndoImageLostError(f"TC {self._tc.tc_id}", record.lsn)
                    images[record.lsn] = result.prior
                if type(op) is IncrementOp:
                    txn.known[slot] = result.value
                continue
            # The op never executed: drop it from the undo chain, tell
            # restart redo to skip it, forget what the transaction and
            # the cache believed about the key.
            if record.owed:
                images[record.lsn] = None
            if record in txn.op_records:
                txn.op_records.remove(record)
            self._cancel(txn.txn_id, record)
            txn.known.pop(slot, None)
            self._tc.undo_cache.forget(slot)
            if failure is None:
                failure = rejection(result, op)
        if images:
            self._log.fill(images)
        if completed:
            self.complete_ops(completed)
        if failure is not None:
            raise failure
        return refusal

    def _cancel(self, txn_id: int, record: OpRecord) -> None:
        """Log a cancel marker: ``record``'s operation was definitively
        rejected by its DC.  It never executed, holds no undo obligation,
        and restart redo must skip it (see :class:`CompensationRecord`)."""
        self._log.append(
            lambda lsn: CompensationRecord(
                lsn=lsn,
                txn_id=txn_id,
                op=None,
                dc_name=record.dc_name,
                canceled=record.lsn,
            )
        )
        self._metrics.incr("tc.canceled_ops")

    # -- replies and the low-water mark ---------------------------------------------------

    def complete_ops(self, op_ids: list[Lsn]) -> None:
        """Mark operations replied (one tracker bracket for a whole reply
        envelope); every ``lwm_interval`` completions broadcast the LWM."""
        if self._tracer.enabled:
            for op_id in op_ids:
                self._tracer.release_request(op_id)
        lwm = self._log.complete_ops(op_ids)
        self._completions_since_lwm += len(op_ids)
        if self._completions_since_lwm >= self._lwm_interval:
            self._completions_since_lwm = 0
            self.broadcast_lwm(lwm)

    def broadcast_lwm(self, lwm: Optional[Lsn] = None) -> None:
        """Ship the low-water mark to every DC (Section 5.1.2).

        Capped at EOSL: the LWM counts replies, not stability, so the
        loser's own reply can carry it past LSNst — and ``DROP_AFFECTED``
        reads a low water above LSNst as "reflects a lost operation", so a
        TC crash would then reset every page the broadcast reached, not
        just the ones the lost operations touched (docs/architecture.md
        §6)."""
        lwm = min(lwm if lwm is not None else self._log.lwm, self._log.eosl)
        if lwm <= NULL_LSN:
            return
        redo_bypass = threading.get_ident()
        tc_id = self._tc.tc_id
        for dc_name, channel in self.channels.items():
            if self._dc_redo.get(dc_name, redo_bypass) != redo_bypass:
                # The LWM says "replies received", but the replies came
                # from the pre-crash incarnation: advancing a freshly
                # rebuilt page's abLSN low water past still-unreplayed
                # operations would make redo dedupe them and lose their
                # effects.  Skip the DC until its redo window closes (the
                # redo thread itself broadcasts when it is done).
                self._metrics.incr("tc.lwm_held_for_redo")
                continue
            channel.request(LowWaterMark(tc_id=tc_id, lwm=lwm))
        self._metrics.incr("tc.lwm_broadcasts")
