"""Pluggable concurrency control (docs/architecture.md §19).

The TC's isolation machinery is factored behind one interface so the
engine (logging, recovery, resend, routing) is policy-agnostic — the
"Transparent Concurrency Control" decoupling applied to the unbundled
kernel.  Three policies ship, selected by :attr:`TcConfig.cc_policy`:

- ``"2pl"`` (:class:`TwoPhaseLockingCc`) — the paper's strict two-phase
  locking, delegating to the Section 3.1 range protocols unchanged.
- ``"occ"`` (:class:`repro.tc.cc_occ.OptimisticCc`) — lock-free reads
  with commit-time validation against concurrently settled writers.
- ``"mvcc"`` (:class:`repro.tc.cc_mvcc.MvccSnapshotCc`) — lock-free
  reads served from the committed before-image of any in-flight writer,
  with write locks and first-committer-wins read validation.

Every policy keeps **exclusive record locks on writes**.  That is not a
simplification but a structural obligation of unbundling: DC writes are
in-place and the TC logs *logical* undo learned under its own lock
(module docstring of ``transactional_component``), so two uncommitted
writers of one key would corrupt each other's undo information.  What
OCC/MVCC remove is every read-path lock — shared record locks, gap
locks, and the fetch-ahead probe round trips that feed them.

Correctness story shared by the two validating policies:

- **Version stamps.**  A per-key counter bumps whenever a write to the
  key *settles* — at commit validation, or when an abort's rollback has
  fully restored the before-image.  A per-table counter bumps on every
  settled write to the table (inserts/deletes and updates alike), which
  is what scan validation checks, closing phantom windows without gap
  locks.  Stamps are captured *before* the DC round trip that reads the
  value, so any settle racing the read is caught at validation.
- **Writer registry.**  Keys with an unsettled in-place write are
  registered until the writer's fate is settled — including through
  *zombie* rollbacks, whose locks are long released while the DC still
  holds uncommitted bytes.  OCC readers conflict-abort on registered
  keys; MVCC readers are served the registered before-image (captured
  with its stamp, so a reader of the old version validates against the
  old stamp and loses to a first committer).
- **Atomic validate-and-install.**  Read/scan-set checks and write-stamp
  bumps happen under one mutex with no yield inside; the explorer's
  ``cc.validate`` / ``cc.install`` yield points bracket the critical
  section so schedules interleave around (never inside) it.  After a
  successful validation the only failure left is a TC crash, which
  clears all volatile CC state with the lock table.

Undo-information hygiene: lock-free reads never touch ``txn.known`` or
the undo-info cache — both feed *undo logging* and must only ever hold
values learned under a covering lock.  Policy reads live in a separate
per-transaction read cache (:class:`CcTxnState`), which also provides
repeatable reads.

The schedule explorer sweeps all three policies against the
serializability oracle, and two negative controls
(``unsafe_skip_validation``, ``unsafe_mvcc_read_newest``) prove the
oracle catches a cheating validator — see ``tests/test_schedule_explorer``.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Optional

from repro.common.errors import TransactionAborted
from repro.common.records import Key
from repro.sim.faults import FaultPoint
from repro.sim.schedule import YieldPoint

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.tc.handle import Transaction
    from repro.tc.transactional_component import TransactionalComponent

#: (table, key) — the unit the stamp/registry machinery tracks.
Slot = tuple


class CcTxnState:
    """Per-transaction concurrency-control bookkeeping (validating
    policies only; 2PL transactions never allocate one)."""

    __slots__ = ("reads", "values", "scans", "writes")

    def __init__(self) -> None:
        #: First-read stamp per slot; commit validation re-checks these.
        self.reads: dict[Slot, int] = {}
        #: Read cache: slot -> value | ABSENT (repeatable lock-free reads).
        self.values: dict[Slot, object] = {}
        #: First-scan table stamp per table; guards scans against any
        #: settled write (phantoms included) between scan and commit.
        self.scans: dict[str, int] = {}
        #: Slots this transaction wrote (stamped at settle).
        self.writes: set[Slot] = set()


class ConcurrencyControl:
    """The policy interface the TC dispatches through.

    The TC owns transactions, logging, rollback and the DC protocol; a
    policy decides what reads return, which locks writes take, and
    whether a transaction may commit.
    """

    name = "cc"
    #: True when every write must learn its authoritative prior under the
    #: X lock, at write time, even on the composed fast path — where an
    #: insert otherwise guesses ABSENT and an update / delete lets its own
    #: reply bring the before-image back (MVCC serves the prior to
    #: concurrent readers from the moment the write is registered).
    needs_write_prior = False
    #: True when :meth:`validate` may veto a commit that wrote nothing.
    #: When False, a read-only transaction is decided once its last read
    #: is answered: its commit cannot fail and only releases what it
    #: holds, so a TC server lets it arrive one-way (architecture §16).
    #: A policy says False only if it knows; the default is the safe one.
    commit_validates = True

    def __init__(self, tc: "TransactionalComponent") -> None:
        self.tc = tc

    # -- read path ---------------------------------------------------------

    def read(self, txn: "Transaction", table: str, key: Key) -> object:
        """Return the transaction's view of ``(table, key)``: a value or
        the ``ABSENT`` sentinel.  May raise :class:`TransactionAborted`
        on a policy conflict (the TC then drives the rollback)."""
        raise NotImplementedError

    def scan(
        self,
        txn: "Transaction",
        table: str,
        low: Optional[Key],
        high: Optional[Key],
        limit: Optional[int],
    ) -> list[tuple[Key, object]]:
        raise NotImplementedError

    # -- write path --------------------------------------------------------

    def lock_for_insert(self, txn: "Transaction", table: str, key: Key) -> None:
        raise NotImplementedError

    def lock_for_update(self, txn: "Transaction", table: str, key: Key) -> None:
        raise NotImplementedError

    def lock_for_delete(self, txn: "Transaction", table: str, key: Key) -> None:
        raise NotImplementedError

    def note_write(
        self,
        txn: "Transaction",
        table: str,
        key: Key,
        prior: object,
        structural: bool,
    ) -> None:
        """Called with the write's before-image (learned under the X
        lock; the TC's ``OWED`` sentinel when the write's reply will
        bring it and :attr:`needs_write_prior` is off) before the
        mutation is queued, logged or shipped."""

    # -- commit / abort lifecycle -----------------------------------------

    def validate(self, txn: "Transaction") -> None:
        """Commit-time gate, after the pipeline is synced and before the
        commit record is appended.  Raises :class:`TransactionAborted`
        to veto the commit."""

    def on_committed(self, txn: "Transaction") -> None:
        """The commit decision is durable (stamps were installed at
        validation); release registry state before locks drop."""

    def on_abort_settled(self, txn: "Transaction") -> None:
        """Rollback fully applied at the DC — also reached late, from the
        zombie-rollback retry path, when a DC outage parked the abort."""

    def clear(self) -> None:
        """TC crash: all volatile policy state dies with the lock table."""


class TwoPhaseLockingCc(ConcurrencyControl):
    """Strict 2PL — the historical behavior, verbatim, behind the
    interface: shared read locks, gap-locked scans, no validation."""

    name = "2pl"
    commit_validates = False

    def read(self, txn: "Transaction", table: str, key: Key) -> object:
        tc = self.tc
        if not tc.config.unsafe_skip_read_locks:
            tc.protocol.lock_for_read(txn, table, key)
        return tc.undo_cache.value(txn, table, key)

    def scan(
        self,
        txn: "Transaction",
        table: str,
        low: Optional[Key],
        high: Optional[Key],
        limit: Optional[int],
    ) -> list[tuple[Key, object]]:
        tc = self.tc
        results = tc.protocol.locked_range_read(txn, table, low, high, limit)
        for key, value in results:
            # Scanned values were read under S locks: safe as undo info.
            txn.known[(table, key)] = value
        return results

    def lock_for_insert(self, txn: "Transaction", table: str, key: Key) -> None:
        self.tc.protocol.lock_for_insert(txn, table, key)

    def lock_for_update(self, txn: "Transaction", table: str, key: Key) -> None:
        self.tc.protocol.lock_for_update(txn, table, key)

    def lock_for_delete(self, txn: "Transaction", table: str, key: Key) -> None:
        self.tc.protocol.lock_for_delete(txn, table, key)


class ValidatingCc(ConcurrencyControl):
    """Shared machinery of the OCC and MVCC policies: version stamps,
    the unsettled-writer registry, before-image capture, and the atomic
    validate-and-install commit gate (module docstring)."""

    name = "validating"

    def __init__(self, tc: "TransactionalComponent") -> None:
        super().__init__(tc)
        self._mu = threading.Lock()
        #: Settled-write version stamp per slot.
        self._stamps: dict[Slot, int] = {}
        #: Settled-write stamp per table (any write; scans check this).
        self._table_stamps: dict[str, int] = {}
        #: Unsettled in-place writes: slot -> owning txn_id.
        self._writers: dict[Slot, int] = {}
        #: Before-image per registered slot: (value | ABSENT, stamp at
        #: capture).  The stamp travels with the value so a reader served
        #: the old version validates against the old stamp.
        self._before: dict[Slot, tuple[object, int]] = {}

    # -- per-transaction state --------------------------------------------

    @staticmethod
    def _state(txn: "Transaction") -> CcTxnState:
        state = txn.cc_state
        if state is None:
            state = txn.cc_state = CcTxnState()
        return state

    # -- write path --------------------------------------------------------

    def lock_for_insert(self, txn: "Transaction", table: str, key: Key) -> None:
        self.tc.protocol.lock_for_write(txn, table, key)

    lock_for_update = lock_for_insert
    lock_for_delete = lock_for_insert

    def note_write(
        self,
        txn: "Transaction",
        table: str,
        key: Key,
        prior: object,
        structural: bool,
    ) -> None:
        state = self._state(txn)
        slot = (table, key)
        with self._mu:
            owner = self._writers.get(slot)
            if owner is not None and owner != txn.txn_id:
                # The X lock was free, yet the key is registered: a zombie
                # rollback (DC outage) still owes the key its before-image.
                conflict = True
            else:
                conflict = False
                if owner is None:
                    self._writers[slot] = txn.txn_id
                    self._before[slot] = (prior, self._stamps.get(slot, 0))
                state.writes.add(slot)
        if conflict:
            self.tc.metrics.incr("tc.cc_write_conflicts")
            raise TransactionAborted(
                txn.txn_id, f"cc: unsettled writer holds {slot!r}"
            )

    # -- commit / abort lifecycle -----------------------------------------

    def validate(self, txn: "Transaction") -> None:
        tc = self.tc
        # A crash here loses the whole volatile validation state — read
        # sets, stamps, writer registry — mid-commit.
        tc.hook(FaultPoint.TC_CC_VALIDATE, YieldPoint.CC_VALIDATE, txn=txn.txn_id)
        state = txn.cc_state
        if state is None:
            return
        conflict: Optional[str] = None
        with self._mu:
            if not tc.config.unsafe_skip_validation:
                for slot, stamp in state.reads.items():
                    if self._stamps.get(slot, 0) != stamp:
                        conflict = f"read of {slot!r} is stale"
                        break
                if conflict is None:
                    for table, tstamp in state.scans.items():
                        if self._table_stamps.get(table, 0) != tstamp:
                            conflict = f"scan of {table!r} saw settled writes"
                            break
            if conflict is None:
                # Install: from here the commit decision is this policy's
                # — a later failure is a TC crash, which clears stamps and
                # registry wholesale.
                self._bump_locked(state.writes)
        if conflict is not None:
            tc.metrics.incr("tc.cc_validation_failures")
            raise TransactionAborted(txn.txn_id, f"cc validation failed: {conflict}")
        if state.writes:
            # Version stamps installed, commit record not yet durable: a
            # crash here must roll the transaction back on recovery even
            # though its writes already "won" validation.
            tc.hook(FaultPoint.TC_CC_INSTALL, YieldPoint.CC_INSTALL, txn=txn.txn_id)

    def _bump_locked(self, writes: set) -> None:
        """Settle ``writes``: bump their key and table stamps (caller
        holds the mutex)."""
        for slot in writes:
            self._stamps[slot] = self._stamps.get(slot, 0) + 1
        for table in {slot[0] for slot in writes}:
            self._table_stamps[table] = self._table_stamps.get(table, 0) + 1

    def on_committed(self, txn: "Transaction") -> None:
        state = txn.cc_state
        if state is None or not state.writes:
            return
        with self._mu:
            self._deregister_locked(txn.txn_id, state.writes)

    def on_abort_settled(self, txn: "Transaction") -> None:
        state = txn.cc_state
        if state is None or not state.writes:
            return
        with self._mu:
            # The rollback restored the before-images, which is a settled
            # write too: readers that fetched mid-flight values must fail
            # validation (their pre-fetch stamps are now stale).
            self._bump_locked(state.writes)
            self._deregister_locked(txn.txn_id, state.writes)

    def _deregister_locked(self, txn_id: int, writes: set) -> None:
        for slot in writes:
            if self._writers.get(slot) == txn_id:
                del self._writers[slot]
                self._before.pop(slot, None)

    def clear(self) -> None:
        with self._mu:
            self._stamps.clear()
            self._table_stamps.clear()
            self._writers.clear()
            self._before.clear()

    # -- shared read-path helpers -----------------------------------------

    @staticmethod
    def _in_range(key: Key, low: Optional[Key], high: Optional[Key]) -> bool:
        if low is not None and key < low:
            return False
        if high is not None and key > high:
            return False
        return True

    def _record_scan(
        self,
        state: CcTxnState,
        table: str,
        tstamp: int,
        results: list[tuple[Key, object]],
    ) -> None:
        """Track a scan: earliest table stamp wins (a later scan of the
        same table must still prove nothing settled since the first), and
        returned rows feed the repeatable-read cache."""
        state.scans.setdefault(table, tstamp)
        for key, value in results:
            state.values[(table, key)] = value


def make_policy(tc: "TransactionalComponent") -> ConcurrencyControl:
    """Instantiate the configured ``TcConfig.cc_policy`` for ``tc``."""
    policy = tc.config.cc_policy
    if policy == "2pl":
        return TwoPhaseLockingCc(tc)
    if policy == "occ":
        from repro.tc.cc_occ import OptimisticCc

        return OptimisticCc(tc)
    from repro.tc.cc_mvcc import MvccSnapshotCc

    return MvccSnapshotCc(tc)
