"""The TC's logical log: pure record-level redo/undo, no page ids anywhere.

Section 3.2's first challenge: "the TC log records cannot contain page
identifiers. Redo needs to be done at a logical level."  Every record here
speaks only of tables, keys and logical operations.

The log has a *stable prefix* and a *volatile tail*; :meth:`TcLog.force`
moves the boundary (making EOSL advance), and :meth:`TcLog.crash` models a
TC failure by truncating the tail — the operations in it are lost forever,
which is exactly what the DC-reset protocol of Section 5.3.2 must cope
with.

LSN assignment and record append happen under one mutex, so log order
equals LSN order — the OPSR (order-preserving serializable) property of
Section 4.1.1: because the lock manager never lets conflicting operations
be outstanding together, any order consistent per-key is correct, and
append order is trivially consistent.

:class:`LwmTracker` computes the low-water mark the TC periodically ships
to DCs: the largest operation id such that *every* issued operation id at
or below it has completed (Section 5.1.2, "Establishing LSNlw").
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Optional

from repro.common.errors import CrashedError
from repro.common.lsn import Lsn, LsnGenerator, NULL_LSN
from repro.common.ops import LogicalOperation, OpResult, inverse_of
from repro.common.records import Value
from repro.obs.tracing import NULL_TRACER
from repro.sim import schedule as _sched
from repro.sim.metrics import Metrics
from repro.sim.schedule import YieldPoint


@dataclass(frozen=True)
class TcLogRecord:
    lsn: Lsn
    txn_id: int

    def encoded_size(self) -> int:
        return 24


@dataclass(frozen=True)
class OpRecord(TcLogRecord):
    """A forward logical operation, with the undo info needed to invert it.

    A *stable* OpRecord can always be rolled back, even after a crash: its
    inverse is complete before it may become stable.  Usually the TC knows
    the before-image when it appends (it read or wrote the record under its
    lock).  When it does not, the record is appended ``owed``: the image
    comes back on the operation's own reply (or on a DC force prompt, or a
    redo reply) and :meth:`TcLog.fill` completes ``undo`` from it.  While
    owed, the record holds the stable boundary back (``TcLog._force`` stops
    before it), so EOSL never reaches it, the causality gate keeps its
    effect off the DC's disk, and a TC crash loses record and effect
    together.  Nothing may read ``undo`` of an owed record.
    """

    op: Optional[LogicalOperation] = None
    undo: Optional[LogicalOperation] = None
    dc_name: str = ""
    owed: bool = False

    def _settle(self, undo: Optional[LogicalOperation]) -> None:
        # The one write after construction, made by TcLog.fill under the
        # log mutex: every holder of the record (log, undo chain, pending
        # envelope) sees the completed inverse.
        object.__setattr__(self, "undo", undo)
        object.__setattr__(self, "owed", False)

    def encoded_size(self) -> int:
        size = super().encoded_size()
        if self.op is not None:
            size += self.op.encoded_size()
        if self.undo is not None:
            size += self.undo.encoded_size()
        return size


@dataclass(frozen=True)
class CompensationRecord(TcLogRecord):
    """A redo-only record for an inverse operation applied during rollback.

    ``undo_next`` points at the LSN of the next (earlier) operation still
    to be undone, making rollback idempotent across TC crashes, exactly
    like an ARIES CLR — but logical.

    A compensation record with ``op=None`` and ``canceled`` set is a
    *cancel marker*: the forward operation at LSN ``canceled`` was
    definitively rejected by its DC (it never executed and holds no undo
    obligation), so restart redo must not replay it — replaying a
    never-executed operation into a later state could make it succeed.
    """

    op: Optional[LogicalOperation] = None
    undo_next: Lsn = NULL_LSN
    dc_name: str = ""
    canceled: Lsn = NULL_LSN

    def encoded_size(self) -> int:
        size = super().encoded_size() + 8
        if self.op is not None:
            size += self.op.encoded_size()
        return size


@dataclass(frozen=True)
class CommitRecord(TcLogRecord):
    """Transaction durably committed once this record is stable."""


@dataclass(frozen=True)
class AbortRecord(TcLogRecord):
    """Rollback has been decided; compensation records follow."""


@dataclass(frozen=True)
class TxnEndRecord(TcLogRecord):
    """All work for the transaction, including cleanup, is complete."""


@dataclass(frozen=True)
class CheckpointRecord(TcLogRecord):
    """Contract termination: redo restarts at ``rssp`` (Section 4.2)."""

    rssp: Lsn = NULL_LSN


class LwmTracker:
    """Largest id L such that every issued operation id <= L has completed."""

    def __init__(self) -> None:
        self._pending: deque[Lsn] = deque()
        self._completed: set[Lsn] = set()
        self._lwm: Lsn = NULL_LSN

    def register(self, op_id: Lsn) -> None:
        """Ids must be registered in increasing order."""
        self._pending.append(op_id)

    def complete(self, op_id: Lsn) -> None:
        self._completed.add(op_id)
        while self._pending and self._pending[0] in self._completed:
            done = self._pending.popleft()
            self._completed.discard(done)
            self._lwm = done

    @property
    def lwm(self) -> Lsn:
        return self._lwm

    def outstanding(self) -> int:
        return len(self._pending)

    def reset(self) -> None:
        self._pending.clear()
        self._completed.clear()
        self._lwm = NULL_LSN


#: How long (simulated ms, also the real wait bound) a committing
#: transaction lingers for group-commit company before forcing anyway.
GROUP_COMMIT_DEADLINE_MS = 1.0


class GroupCommitCoalescer:
    """Lets N concurrently-committing transactions share one log force.

    Durability is never relaxed: :meth:`wait_stable` returns only once the
    caller's commit LSN is at or below EOSL — force-before-ack holds at
    every ``group_commit_size``.  The knob changes *who* forces, not
    *whether* stability precedes the acknowledgement.

    Protocol: each committing transaction is bracketed by
    :meth:`enter`/:meth:`exit`.  After appending its commit record it calls
    :meth:`wait_stable`; a waiter elects itself leader — and runs the
    force on behalf of everyone parked — as soon as any of these holds:

    - a full group has gathered (``waiting >= size``),
    - every in-flight committer is already parked (``waiting >=
      committers``: nobody else can join, so waiting longer buys nothing —
      this is also why a single-threaded workload forces immediately and
      never sleeps), or
    - the flush deadline has elapsed (bounds latency when committers
      trickle in slower than they park).

    Waits are bounded (condition timeouts), so a leader whose force raises
    (injected TC crash) never strands the group: each waiter times out,
    elects itself, and observes the same failure.

    One force makes everything stable unless a record at or below the
    commit LSN still owes its before-image (:class:`OpRecord`): the stable
    boundary stops before it, so the committer waits for that fill — one
    DC round trip away, since a record is owed only while its envelope is
    on the wire — and forces again (:meth:`_force_until`).
    """

    def __init__(
        self,
        log: "TcLog",
        size: int,
        deadline_ms: Optional[float] = None,
        metrics: Optional[Metrics] = None,
    ) -> None:
        if deadline_ms is None:
            deadline_ms = GROUP_COMMIT_DEADLINE_MS
        if size < 1:
            raise ValueError(f"group_commit_size must be >= 1, got {size}")
        if deadline_ms < 0:
            raise ValueError(
                f"group_commit_deadline_ms must be >= 0, got {deadline_ms}"
            )
        self.log = log
        self.size = size
        self.deadline_ms = deadline_ms
        self.metrics = metrics or log.metrics
        # ``enter`` / ``exit`` take the plain mutex; the condition over it
        # is waited on only by a parked committer, and notified only while
        # ``_waiting`` says one is parked (both change under the mutex, so
        # a departing committer cannot miss a waiter that parked first).
        self._mutex = threading.Lock()
        self._cond = threading.Condition(self._mutex)
        self._committers = 0
        self._waiting = 0
        # Hot-path sinks (see Metrics.counter / Metrics.buffer): a lone
        # committer leads on every commit, so the lead count and its group
        # size of one are per-transaction work.
        self._leads_slot = self.metrics.counter("tclog.group_commit_leads")
        self._group_sizes = self.metrics.buffer("tclog.group_commit_group_size")

    def enter(self) -> None:
        """A transaction has begun committing (before its record appends)."""
        with self._mutex:
            self._committers += 1

    def exit(self) -> None:
        with self._mutex:
            self._committers -= 1
            if self._waiting:
                # A departing committer can turn a parked waiter into the
                # leader (waiting >= committers now holds for it).
                self._cond.notify_all()

    def wait_stable(self, lsn: Lsn, force: Callable[[], Lsn]) -> None:
        """Block until ``lsn`` is on the stable log, forcing as leader when
        the election rule fires.  ``force`` is the owner's log-force hook
        (so fault injection at the force point still applies)."""
        if self.size <= 1:
            if self.log.needs_force(lsn):
                self._force_until(lsn, force)
            return
        if self._committers <= 1 and self._waiting == 0:
            # Lone committer: nobody to coalesce with and nobody parked to
            # notify, so lead immediately without the mutex (the election
            # rule would pick us on its first iteration anyway).  The
            # unlocked reads are GIL-atomic; a committer that enters
            # concurrently merely misses one sharing opportunity and elects
            # itself within the flush deadline — durability is
            # force-before-ack on both paths.
            if self.log.eosl < lsn:
                self._force_until(lsn, force)
                self._leads_slot.value += 1
                self._group_sizes.append(1)
            return
        deadline_s = self.deadline_ms / 1000.0
        start = time.monotonic()
        led = False
        with self._mutex:
            self._waiting += 1
            try:
                while self.log.eosl < lsn:
                    lead = (
                        self._waiting >= self.size
                        or self._waiting >= self._committers
                        or (time.monotonic() - start) >= deadline_s
                    )
                    if not lead:
                        self._cond.wait(timeout=deadline_s or None)
                        continue
                    led = True
                    group = self._waiting
                    self._mutex.release()
                    try:
                        self._force_until(lsn, force)
                    finally:
                        self._mutex.acquire()
                        if self._waiting > 1:
                            # Riders parked behind this force.
                            self._cond.notify_all()
                    self._leads_slot.value += 1
                    self._group_sizes.append(group)
            finally:
                self._waiting -= 1
        if not led:
            self.metrics.incr("tclog.group_commit_riders")

    def _force_until(self, lsn: Lsn, force: Callable[[], Lsn]) -> None:
        """Force until ``lsn`` is stable, waiting out owed records below it."""
        log = self.log
        while True:
            # Sampled before the force: records appended later sit above
            # ``lsn``, so what is not held back now never will be.
            held = log.owed_through(lsn)
            if force() >= lsn:
                return
            if not held:
                raise CrashedError(f"TC log (record {lsn} lost before it was stable)")
            log.await_fill(lsn)


#: What a task parked in :meth:`TcLog.await_fill` is blocked on.
_OWED_RESOURCE = "tclog:owed"


class TcLog:
    """Append-only logical log with a stable prefix and volatile tail."""

    def __init__(self, metrics: Optional[Metrics] = None) -> None:
        self.metrics = metrics or Metrics()
        #: Set by the owning TC; NULL_TRACER keeps standalone use silent.
        self.tracer = NULL_TRACER
        if type(self).force is TcLog.force:
            self.force = self._force  # rebound by use_tracer when tracing is on
        self._records: list[TcLogRecord] = []
        self._stable_count = 0
        #: Highest LSN physically dropped by checkpoint-driven truncation.
        #: EOSL falls back to it when truncation empties the stable
        #: prefix — those records *were* stable, so EOSL must not regress.
        self._truncated_upto: Lsn = NULL_LSN
        self._lsns = LsnGenerator()
        self._mutex = threading.Lock()
        #: Records whose before-image is still owed, by LSN (so in LSN
        #: order): always in the volatile tail, and the stable boundary
        #: never passes the first of them.
        self._owed: dict[Lsn, OpRecord] = {}
        #: Notified (same mutex) when an owed record is filled — only while
        #: ``_fill_waiters`` threads are parked in :meth:`await_fill`.
        self._filled = threading.Condition(self._mutex)
        self._fill_waiters = 0
        self.lwm_tracker = LwmTracker()
        # Hot-path counter slots (see Metrics.counter): append runs once
        # per logical operation and again per commit/end record, so the
        # two metrics-dict lock acquisitions per append are worth shaving.
        self._appends_slot = self.metrics.counter("tclog.appends")
        self._bytes_slot = self.metrics.counter("tclog.bytes")
        self._forces_slot = self.metrics.counter("tclog.forces")

    # -- appending -----------------------------------------------------------

    def append(
        self, build: Callable[[Lsn], TcLogRecord], track_for_lwm: bool = False
    ) -> TcLogRecord:
        """Assign the next LSN and append the built record atomically."""
        with self._mutex:
            lsn = self._lsns.next()
            record = build(lsn)
            self._records.append(record)
            if track_for_lwm:
                self.lwm_tracker.register(lsn)
            self._appends_slot.value += 1
            self._bytes_slot.value += record.encoded_size()
            return record

    def append_envelope(
        self, queued: list, build: Callable[[Lsn, object], OpRecord]
    ) -> list[OpRecord]:
        """Append the operations of one envelope, in order, under one
        mutex bracket: ``build(lsn, item)`` makes each queued item's
        record at the next LSN (so log order stays LSN order), and every
        record is tracked for the low-water mark."""
        size = 0
        with self._mutex:
            next_lsn = self._lsns.next
            records = [build(next_lsn(), item) for item in queued]
            self._records.extend(records)
            for record in records:
                self.lwm_tracker.register(record.lsn)
                if record.owed:
                    self._owed[record.lsn] = record
                size += record.encoded_size()
            self._appends_slot.value += len(records)
            self._bytes_slot.value += size
        return records

    def fill(self, images: Mapping[Lsn, Value]) -> None:
        """Complete owed records from the before-images their operations
        overwrote; ``None`` settles a record with no inverse (its operation
        was rejected).  Idempotent: a reply, a force prompt and a redo
        reply may each bring the same image."""
        with self._mutex:
            for lsn, prior in images.items():
                record = self._owed.pop(lsn, None)
                if record is None:
                    continue
                undo = None
                if prior is not None:
                    undo = inverse_of(record.op, OpResult.okay(prior=prior))
                    self._bytes_slot.value += undo.encoded_size()
                record._settle(undo)
            if self._fill_waiters:
                self._filled.notify_all()
        _sched.notify(_OWED_RESOURCE)

    def owed_through(self, lsn: Lsn) -> bool:
        """True while some record at or below ``lsn`` is owed."""
        if not self._owed:
            # The usual answer, without the mutex: a record at or below
            # ``lsn`` entered ``_owed`` under the mutex before ``lsn``
            # itself was assigned, so an empty table cannot be hiding one.
            return False
        with self._mutex:
            return self._owed_through_locked(lsn)

    def _owed_through_locked(self, lsn: Lsn) -> bool:
        return bool(self._owed) and next(iter(self._owed)) <= lsn

    def await_fill(self, lsn: Lsn, timeout: Optional[float] = None) -> bool:
        """Block until no record at or below ``lsn`` is owed; False when
        ``timeout`` seconds pass first."""
        if _sched.task_active():
            # Cooperative mode: park at the scheduler until a fill notifies.
            while self.owed_through(lsn):
                _sched.maybe_yield(
                    YieldPoint.TC_OWED_WAIT, "tc", resource=_OWED_RESOURCE
                )
            return True
        with self._mutex:
            self._fill_waiters += 1
            try:
                return self._filled.wait_for(
                    lambda: not self._owed_through_locked(lsn), timeout
                )
            finally:
                self._fill_waiters -= 1

    def issue_read_id(self) -> Lsn:
        """A request id for an unlogged operation (reads, probes)."""
        with self._mutex:
            op_id = self._lsns.next()
            self.lwm_tracker.register(op_id)
            return op_id

    def complete_op(self, op_id: Lsn) -> Lsn:
        """Mark an operation replied; returns the current low-water mark."""
        with self._mutex:
            self.lwm_tracker.complete(op_id)
            return self.lwm_tracker.lwm

    def complete_ops(self, op_ids: list[Lsn]) -> Lsn:
        """Mark several operations replied under one mutex bracket."""
        with self._mutex:
            complete = self.lwm_tracker.complete
            for op_id in op_ids:
                complete(op_id)
            return self.lwm_tracker.lwm

    @property
    def lwm(self) -> Lsn:
        return self.lwm_tracker.lwm

    # -- stability -------------------------------------------------------------

    def use_tracer(self, tracer: object) -> None:
        """Adopt the owning TC's tracer.

        When tracing is off, ``force`` is rebound straight to the untraced
        body so the group-commit hot path pays no wrapper dispatch at all.
        """
        self.tracer = tracer
        if type(self).force is not TcLog.force:
            return
        if tracer.enabled:
            self.__dict__.pop("force", None)
        else:
            self.force = self._force

    def force(self) -> Lsn:
        """Make every appended record stable, up to the first one whose
        before-image is owed; returns the new EOSL."""
        with self.tracer.span("tc.log_force", component="tc"):
            return self._force()

    def _force(self) -> Lsn:
        if _sched.ACTIVE is not None:
            _sched.maybe_yield(YieldPoint.TC_LOG_FORCE, "tc")
        with self._mutex:
            limit = len(self._records)
            if self._owed:
                # An owed record is never stable: stop before the first.
                first = next(iter(self._owed))
                limit = self._stable_count
                while self._records[limit].lsn < first:
                    limit += 1
            if self._stable_count < limit:
                self._harden(self._records[self._stable_count : limit])
                self._stable_count = limit
                self._forces_slot.value += 1
            return self._eosl_locked()

    def _harden(self, records: list[TcLogRecord]) -> None:
        """Write the newly stable suffix wherever stable means stable
        (a journal-backed log overrides this); called under the mutex."""

    def _eosl_locked(self) -> Lsn:
        if self._stable_count == 0:
            return self._truncated_upto
        return self._records[self._stable_count - 1].lsn

    @property
    def eosl(self) -> Lsn:
        """End of stable log: the largest LSN guaranteed to survive a crash."""
        with self._mutex:
            return self._eosl_locked()

    @property
    def last_lsn(self) -> Lsn:
        return self._lsns.last

    def needs_force(self, lsn: Lsn) -> bool:
        return lsn > self.eosl

    # -- crash semantics ----------------------------------------------------------

    def crash(self) -> int:
        """Truncate the volatile tail; returns how many records were lost."""
        with self._mutex:
            lost = len(self._records) - self._stable_count
            del self._records[self._stable_count :]
            self._owed.clear()
            if self._fill_waiters:
                self._filled.notify_all()
            self.lwm_tracker.reset()
            self.metrics.incr("tclog.crashes")
            self.metrics.incr("tclog.records_lost", lost)
        _sched.notify(_OWED_RESOURCE)
        return lost

    def recover_lsn_generator(self) -> None:
        """After a crash, continue LSNs above everything on the stable log."""
        with self._mutex:
            if self._records:
                self._lsns.advance_to(self._records[-1].lsn)
            elif self._truncated_upto != NULL_LSN:
                self._lsns.advance_to(self._truncated_upto)

    # -- checkpoint-driven truncation (Section 4.2 contract termination) -----

    def truncation_point(self, limit: Lsn) -> Lsn:
        """The largest LSN below which stable records may be dropped.

        ``limit`` is the redo scan start point (restart replays records at
        or above it), but redo safety alone is not enough: the LWM — and
        with it the RSSP — advances past completed *operations* of
        transactions that are still uncommitted, and restart's undo pass
        needs those operations' undo information.  So the point is capped
        at the oldest record of any transaction without a stable end
        record.  Only the stable prefix counts — a volatile end record is
        exactly what a crash erases.
        """
        with self._mutex:
            stable = self._records[: self._stable_count]
            ended = {
                record.txn_id
                for record in stable
                if isinstance(record, TxnEndRecord)
            }
            for record in stable:
                if record.lsn >= limit:
                    break
                if record.txn_id != 0 and record.txn_id not in ended:
                    return record.lsn
            return limit

    def truncate_below(self, point: Lsn) -> int:
        """Physically drop stable records with LSN below ``point``.

        The caller derives ``point`` from :meth:`truncation_point`; this
        method only enforces the mechanical invariants (never the volatile
        tail, never regress EOSL).  Returns how many records were dropped.
        """
        if point == NULL_LSN:
            return 0
        with self._mutex:
            drop = 0
            while drop < self._stable_count and self._records[drop].lsn < point:
                drop += 1
            if drop == 0:
                return 0
            self._truncated_upto = max(
                self._truncated_upto, self._records[drop - 1].lsn
            )
            del self._records[:drop]
            self._stable_count -= drop
            self.metrics.incr("tclog.truncations")
            self.metrics.incr("tclog.truncated_records", drop)
            return drop

    @property
    def truncated_upto(self) -> Lsn:
        with self._mutex:
            return self._truncated_upto

    # -- reading ----------------------------------------------------------------------

    def stable_records(self) -> list[TcLogRecord]:
        with self._mutex:
            return list(self._records[: self._stable_count])

    def all_records(self) -> list[TcLogRecord]:
        with self._mutex:
            return list(self._records)

    def stable_records_from(self, lsn: Lsn) -> Iterator[TcLogRecord]:
        for record in self.stable_records():
            if record.lsn >= lsn:
                yield record

    def record_count(self) -> int:
        with self._mutex:
            return len(self._records)

    def stable_count(self) -> int:
        with self._mutex:
            return self._stable_count
