"""The transaction handle: what a client holds between begin and commit.

A :class:`Transaction` is a thin front for its TC — every call delegates
— plus the per-transaction state the TC's stages read and write: the undo
chain, values known under its locks, the pending envelopes and rollback
progress.  :class:`TracedHandle` is the part the monolithic engine's
handle shares: the state machine, the transaction's root span and the
one traced wrapper every call goes through.
"""

from __future__ import annotations

import enum
import time
from typing import TYPE_CHECKING, Callable, Optional

from repro.common.api import WatermarkRequest
from repro.common.errors import (
    ComponentUnavailableError,
    ResendExhaustedError,
    SnapshotTooOldError,
    TransactionAborted,
)
from repro.common.lsn import NULL_LSN
from repro.common.ops import LogicalOperation, OpResult, OpStatus, RangeReadOp, ReadFlavor, ReadOp
from repro.common.records import Key, Value
from repro.obs.tracing import NULL_SPAN

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.tc.log import OpRecord
    from repro.tc.transactional_component import TransactionalComponent


class _Absent:
    """Cached knowledge that a key does not exist (under our lock)."""

    def __repr__(self) -> str:
        return "<ABSENT>"


ABSENT = _Absent()


class _Owed:
    """A write's before-image the TC does not know: the write's own reply
    brings it back (``PerformOperation.want_prior``)."""

    def __repr__(self) -> str:
        return "<OWED>"


OWED = _Owed()


class QueuedOp:
    """A mutation of a batching transaction's pending envelope: validated
    and locked, neither logged nor sent.  It becomes an :class:`OpRecord`
    (and gets its LSN) when the envelope is flushed."""

    __slots__ = ("dc_name", "op", "undo", "owed")
    lsn = NULL_LSN

    def __init__(
        self,
        dc_name: str,
        op: LogicalOperation,
        undo: Optional[LogicalOperation],
        owed: bool,
    ) -> None:
        self.dc_name = dc_name
        self.op = op
        self.undo = undo
        self.owed = owed


class TransactionState(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class TracedHandle:
    """State machine, root span and commit-latency sample of a handle.

    ``latency`` is the lock-free buffer a committed transaction's
    begin-to-commit time lands in."""

    def __init__(self, txn_id: int, tracer, component: str, latency) -> None:
        self.txn_id = txn_id
        self.state = TransactionState.ACTIVE
        self._tracer = tracer
        self._component = component
        self._latency = latency
        self._started = time.perf_counter()
        #: Root span of this transaction's trace (NULL_SPAN when tracing is
        #: off).  Every user call re-activates it, so lock waits, channel
        #: sends and DC execution all land in one tree.
        if tracer.enabled:
            self.span = tracer.start_trace("txn", component=component, txn_id=txn_id)
        else:
            self.span = NULL_SPAN

    def _traced(
        self, name: Optional[str], table: Optional[str], run: Callable, *args: object
    ) -> object:
        """``run(*args)`` with the root span active — inside a child span
        ``name`` (tagged with ``table``) when one is named — finishing the
        root once the call leaves the transaction settled."""
        tracer = self._tracer
        if not tracer.enabled:
            return run(*args)
        try:
            with tracer.activate(self.span):
                if name is None:
                    return run(*args)
                tags = {} if table is None else {"table": table}
                with tracer.span(name, component=self._component, **tags):
                    return run(*args)
        finally:
            self._close_span_if_done()

    def _commit_with(self, name: str, commit: Callable) -> None:
        try:
            self._traced(name, None, commit, self)
        finally:
            if self.state is TransactionState.COMMITTED:
                self._latency.append((time.perf_counter() - self._started) * 1000.0)

    def _close_span_if_done(self) -> None:
        """Finish the root span once the transaction reaches a terminal
        state (idempotent; forced aborts inside an operation land here)."""
        if self.state is not TransactionState.ACTIVE:
            self.span.finish(outcome=self.state.value)

    # -- context manager: abort-on-error safety net ------------------------------

    def __enter__(self):
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        if self.state is TransactionState.ACTIVE:
            if exc_type is None:
                self.commit()
            else:
                self.abort()

    def _check_active(self) -> None:
        if self.state is not TransactionState.ACTIVE:
            raise TransactionAborted(self.txn_id, f"transaction is {self.state.value}")


class Transaction(TracedHandle):
    """A handle for one user transaction; all work delegates to the TC."""

    def __init__(self, tc: "TransactionalComponent", txn_id: int) -> None:
        super().__init__(txn_id, tc.tracer, tc.name, tc._commit_latency)
        self._tc = tc
        #: Forward op records, in LSN order (the undo chain).
        self.op_records: list[OpRecord] = []
        #: True once the TC log holds a record under this id; commit and
        #: abort of a transaction that logged nothing append and force
        #: nothing.  Not ``bool(op_records)``: a rejected operation leaves
        #: the undo chain but its record and cancel marker stay logged.
        #: Set where a transaction's first record is appended (the
        #: dispatch stage's envelope logging) — cancel markers,
        #: compensation and version-cleanup records only ever follow an
        #: ``OpRecord`` of the same id.
        self.logged = False
        #: Values known under our locks: (table, key) -> value | ABSENT.
        self.known: dict[tuple[str, Key], object] = {}
        #: Table-intent lock memo, table -> granted mode.  Strict 2PL never
        #: releases a lock mid-transaction, so once a table-intent mode is
        #: granted, a covered re-request needs no lock-manager call at all.
        self.table_locks: dict[str, object] = {}
        #: Keys touched in versioned tables, per table (cleanup targets).
        self.versioned_keys: dict[str, set[Key]] = {}
        #: The pending envelopes: mutations not yet acknowledged, (table,
        #: key) -> a :class:`QueuedOp` until its envelope is flushed, then
        #: the logged :class:`OpRecord` awaiting its reply.  A record left
        #: here by a failed send may or may not have executed; rollback
        #: resends it with its LSN (repeating history) before inverting.
        self.in_flight: dict[tuple[str, Key], OpRecord | QueuedOp] = {}
        #: Rollback progress, set once an abort starts (see
        #: :meth:`repro.tc.rollback.Rollback.undo`): the records whose
        #: inverses are not yet stably applied, newest first.  A retry
        #: after a DC outage resumes exactly here.
        self.undo_pending: Optional[list] = None
        #: Concurrency-control bookkeeping (tc/cc.py): read/scan sets and
        #: write slots of the validating policies.  None under 2PL.
        self.cc_state = None

    # -- operations ---------------------------------------------------------

    def insert(self, table: str, key: Key, value: Value) -> None:
        """Insert.  Like every write it joins the transaction's envelope
        for its DC, which leaves at ``TcConfig.batch_max_ops`` operations
        (at once, by default), at :meth:`sync`, a scan, a dependent read
        or commit/abort."""
        self._traced("tc.insert", table, self._tc.do_insert, self, table, key, value)

    def update(self, table: str, key: Key, value: Value) -> None:
        self._traced("tc.update", table, self._tc.do_update, self, table, key, value)

    def delete(self, table: str, key: Key) -> None:
        self._traced("tc.delete", table, self._tc.do_delete, self, table, key)

    def increment(self, table: str, key: Key, delta: float) -> None:
        """Add ``delta`` to a numeric record (logical undo: the negated
        delta — no prior value enters the log)."""
        self._traced("tc.increment", table, self._tc.do_increment, self, table, key, delta)

    def sync(self) -> None:
        """Flush the pending envelopes and collect their replies."""
        self._traced("tc.sync", None, self._tc.dispatch.sync, self)

    def read(self, table: str, key: Key) -> Optional[Value]:
        return self._traced("tc.read", table, self._tc.do_read, self, table, key)

    def scan(
        self,
        table: str,
        low: Optional[Key] = None,
        high: Optional[Key] = None,
        limit: Optional[int] = None,
    ) -> list[tuple[Key, Value]]:
        return self._traced("tc.scan", table, self._tc.do_scan, self, table, low, high, limit)

    def commit(self) -> None:
        self._commit_with("tc.commit", self._tc.commit)

    def abort(self) -> None:
        self._traced("tc.abort", None, self._tc.abort, self)


class SnapshotReader:
    """Lock-free reads as of a fixed per-DC watermark (Section 6.3).

    Obtained from :meth:`TransactionalComponent.begin_snapshot`; usable for
    as long as the DCs' retention horizons cover the watermark, after which
    reads raise :class:`~repro.common.errors.SnapshotTooOldError`.
    """

    def __init__(self, tc: "TransactionalComponent", watermarks: dict[str, int]) -> None:
        self._tc = tc
        self.watermarks = watermarks

    @classmethod
    def begin(cls, tc: "TransactionalComponent", allow_degraded: bool) -> "SnapshotReader":
        """Capture a per-DC commit-sequence watermark and return a reader.

        Snapshot reads never block and never lock; each DC's reads are
        transaction-consistent as of its watermark.  Watermarks of
        different DCs are captured independently — a cross-DC snapshot is
        per-DC consistent, not globally consistent (the extension stops
        where the paper's "we also see potential" stops).

        With ``allow_degraded=True`` an unreachable DC is simply left out
        of the snapshot: reads of healthy DCs proceed, reads routed to the
        missing DC raise :class:`ComponentUnavailableError`.  Otherwise an
        unreachable DC fails the whole call within the retry budget.
        """
        ask = WatermarkRequest(tc_id=tc.tc_id)
        watermarks: dict[str, int] = {}
        for name, channel in tc.dispatch.channels.items():
            try:
                reply = tc.dispatch.resend(
                    name, lambda _n: channel.request(ask), f"watermark:{name}"
                )
            except (ComponentUnavailableError, ResendExhaustedError):
                if not allow_degraded:
                    raise
                tc.metrics.incr("tc.degraded_snapshots")
                continue
            watermarks[name] = reply.watermark
        tc.metrics.incr("tc.snapshots")
        return cls(tc, watermarks)

    def _as_of(self, table: str) -> int:
        route = self._tc.route(table)
        watermark = self.watermarks.get(route.dc_name)
        if watermark is None:
            # Degraded snapshot: this DC was down at begin_snapshot time.
            raise ComponentUnavailableError(f"DC {route.dc_name}")
        return watermark

    def _run(self, op: LogicalOperation) -> Optional[OpResult]:
        """One snapshot read at the DC; None when a point read found
        nothing."""
        from repro.tc.dispatch import expect_ok

        result = self._tc.dispatch.read_dc(op)
        if result.status is OpStatus.NOT_FOUND and type(op) is ReadOp:
            return None
        if result.status is OpStatus.ERROR and "retention" in result.message:
            try:
                floor = int(result.message.rsplit(" ", 1)[-1])
            except ValueError:
                floor = -1
            raise SnapshotTooOldError(op.as_of, floor)
        expect_ok(result, op)
        return result

    def read(self, table: str, key: Key) -> Optional[Value]:
        op = ReadOp(table=table, key=key, flavor=ReadFlavor.SNAPSHOT, as_of=self._as_of(table))
        result = self._run(op)
        return None if result is None else result.value

    def scan(
        self,
        table: str,
        low: Optional[Key] = None,
        high: Optional[Key] = None,
        limit: Optional[int] = None,
    ) -> list[tuple[Key, Value]]:
        op = RangeReadOp(
            table=table,
            low=low,
            high=high,
            limit=limit,
            flavor=ReadFlavor.SNAPSHOT,
            as_of=self._as_of(table),
        )
        return [view.as_tuple() for view in self._run(op).records]

