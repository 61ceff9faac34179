"""Transactional locking without page knowledge (Sections 3.1, 4.1.1).

The TC's lock manager isolates transactions (strict two-phase locking) and
— critically for unbundling — guarantees the DC never sees two conflicting
operations in flight at once: an operation is only sent while its lock is
held, and locks are held to transaction end.

Granularity hierarchy: table -> (optional range partition) -> record/gap.
Modes are the classic five (IS, IX, S, SIX, X).  Deadlocks are detected by
cycle search on the waits-for graph; the requester is the victim.

Resources are plain hashable tuples, e.g.::

    ("table", "users")            whole table (intention or full lock)
    ("part", "users", 3)          range partition 3 (range-lock protocol)
    ("rec", "users", key)         one record
    ("gap", "users", key)         the open interval below key (phantoms)
"""

from __future__ import annotations

import enum
import threading
from typing import Hashable, Optional

from repro.common.errors import DeadlockError, LockTimeoutError
from repro.obs.tracing import NULL_TRACER
from repro.sim import schedule as _sched
from repro.sim.metrics import Metrics
from repro.sim.schedule import YieldPoint

Resource = Hashable


class LockMode(enum.Enum):
    IS = "IS"
    IX = "IX"
    S = "S"
    SIX = "SIX"
    X = "X"

    # Identity hashing: the members are singletons, so the mode tables
    # below (and any dict keyed by a mode) hash in C instead of calling
    # ``Enum.__hash__`` — every lock request looks a pair up.
    __hash__ = object.__hash__


_ORDER = (LockMode.IS, LockMode.IX, LockMode.S, LockMode.SIX, LockMode.X)

_MATRIX = (
    # IS     IX     S      SIX    X
    (True, True, True, True, False),  # IS
    (True, True, False, False, False),  # IX
    (True, False, True, False, False),  # S
    (True, False, False, False, False),  # SIX
    (False, False, False, False, False),  # X
)

#: (held, requested) -> may the two be held by different transactions.
_COMPATIBLE: dict[tuple[LockMode, LockMode], bool] = {
    (held, requested): _MATRIX[row][col]
    for row, held in enumerate(_ORDER)
    for col, requested in enumerate(_ORDER)
}

#: Least upper bound used for in-place upgrades (held, requested) -> result.
_UPGRADE: dict[tuple[LockMode, LockMode], LockMode] = {
    (LockMode.IS, LockMode.IX): LockMode.IX,
    (LockMode.IS, LockMode.S): LockMode.S,
    (LockMode.IS, LockMode.SIX): LockMode.SIX,
    (LockMode.IS, LockMode.X): LockMode.X,
    (LockMode.IX, LockMode.S): LockMode.SIX,
    (LockMode.IX, LockMode.SIX): LockMode.SIX,
    (LockMode.IX, LockMode.X): LockMode.X,
    (LockMode.S, LockMode.IX): LockMode.SIX,
    (LockMode.S, LockMode.SIX): LockMode.SIX,
    (LockMode.S, LockMode.X): LockMode.X,
    (LockMode.SIX, LockMode.X): LockMode.X,
}



def _least_upper_bound(held: LockMode, requested: LockMode) -> LockMode:
    if held is requested:
        return held
    return _UPGRADE.get((held, requested), _UPGRADE.get((requested, held), LockMode.X))


#: Every (held, requested) pair answered once, at import: the combined
#: mode, and whether holding ``held`` already grants ``requested``.
_COMBINED: dict[tuple[LockMode, LockMode], LockMode] = {
    (held, requested): _least_upper_bound(held, requested)
    for held in _ORDER
    for requested in _ORDER
}
_COVERS: dict[tuple[LockMode, LockMode], bool] = {
    pair: combined is pair[0] for pair, combined in _COMBINED.items()
}


def combined_mode(held: LockMode, requested: LockMode) -> LockMode:
    return _COMBINED[held, requested]


def mode_covers(held: LockMode, requested: LockMode) -> bool:
    """Does holding ``held`` already grant ``requested``?"""
    return _COVERS[held, requested]


class _LockEntry:
    __slots__ = ("holders", "waiters")

    def __init__(self) -> None:
        self.holders: dict[int, LockMode] = {}
        #: FIFO queue of (txn_id, requested_mode); honored in order to avoid
        #: starvation of writers behind streams of readers.
        self.waiters: list[tuple[int, LockMode]] = []


class _Stripe:
    """One shard of the lock table: its own mutex, condition and dict.

    Grants and releases take only ``mutex``.  ``cv`` is built over that
    same mutex and is touched only when a thread parks: ``parked`` counts
    the threads inside ``cv.wait`` (changed under the mutex), and a
    release notifies only while it is nonzero.  A waiter counts itself
    before it waits and in the same mutex hold in which it found the lock
    not grantable, so a release either sees the count or ran before that
    re-check — no wakeup can be lost.
    """

    __slots__ = ("mutex", "cv", "parked", "table")

    def __init__(self) -> None:
        self.mutex = threading.Lock()
        self.cv = threading.Condition(self.mutex)
        self.parked = 0
        self.table: dict[Resource, _LockEntry] = {}


#: Stripes in the lock table's hash: concurrent committers touch
#: per-stripe mutexes instead of serializing on one global mutex.
LOCK_STRIPES = 16


class LockManager:
    """A classic lock table; one instance per TC.

    The table is hash-striped (:data:`LOCK_STRIPES`): each stripe has
    its own mutex and condition, so concurrent committers touching
    different resources stop serializing on a single lock-table mutex.  A
    grant/release touches exactly one stripe; the deadlock detector is the
    only multi-stripe path, and it takes every stripe mutex (in order,
    under a detector mutex, while the detecting waiter itself holds none)
    to read a globally consistent waits-for snapshot.  ``stripes=1``
    reproduces the old single-mutex behavior exactly.

    The uncontended path takes a stripe mutex and nothing else: no
    condition, no notify, no metrics lock (see :class:`_Stripe`).
    """

    def __init__(
        self,
        metrics: Optional[Metrics] = None,
        timeout: float = 1.0,
        tracer: Optional[object] = None,
        stripes: Optional[int] = None,
    ) -> None:
        self.metrics = metrics or Metrics()
        self.timeout = timeout
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if not self.tracer.enabled and type(self).acquire is LockManager.acquire:
            # No tracing: dispatch straight to the untraced body so the
            # lock hot path pays nothing for instrumentation.
            self.acquire = self._acquire
        if stripes is None:
            stripes = LOCK_STRIPES
        self._stripes = tuple(_Stripe() for _ in range(max(1, int(stripes))))
        self._stripe_count = len(self._stripes)
        #: Guards _held_by_txn and _waiting_on.  Lock order is always
        #: stripe -> admin (never admin -> stripe), and no thread holds
        #: two stripe mutexes except the detector, which owns them all.
        self._admin = threading.Lock()
        #: Serializes deadlock detectors so at most one thread ever tries
        #: to collect the full stripe set.
        self._detect = threading.Lock()
        self._held_by_txn: dict[int, set[Resource]] = {}
        #: txn -> resource it is currently waiting on (waits-for edges).
        self._waiting_on: dict[int, Resource] = {}
        # Hot-path counter slots, bound once (see Metrics.counter): the
        # uncontended grant/release path does no metrics dict work per op.
        self._reacquired_slot = self.metrics.counter("locks.reacquired")
        self._requests_slot = self.metrics.counter("locks.requests")
        self._granted_slot = self.metrics.counter("locks.granted")
        self._released_slot = self.metrics.counter("locks.released")

    def _stripe_of(self, resource: Resource) -> _Stripe:
        return self._stripes[hash(resource) % self._stripe_count]

    @property
    def stripe_count(self) -> int:
        return self._stripe_count

    def _note_held(self, txn_id: int, resource: Resource) -> None:
        with self._admin:
            held = self._held_by_txn.get(txn_id)
            if held is None:
                self._held_by_txn[txn_id] = {resource}
            else:
                held.add(resource)

    def _note_waiting(self, txn_id: int, resource: Resource) -> None:
        with self._admin:
            self._waiting_on[txn_id] = resource

    def _clear_waiting(self, txn_id: int) -> None:
        with self._admin:
            self._waiting_on.pop(txn_id, None)

    # -- acquisition -------------------------------------------------------------

    def acquire(
        self,
        txn_id: int,
        resource: Resource,
        mode: LockMode,
        timeout: Optional[float] = None,
    ) -> None:
        """Grant ``mode`` on ``resource`` to ``txn_id``, blocking as needed.

        Raises :class:`DeadlockError` (victim = requester) or
        :class:`LockTimeoutError`.  Re-acquiring a covered mode is free;
        upgrades wait for conflicting holders to drain.
        """
        with self.tracer.span(
            "tc.lock_wait", component="tc", resource=repr(resource), mode=mode.value
        ):
            return self._acquire(txn_id, resource, mode, timeout)

    def _acquire(
        self,
        txn_id: int,
        resource: Resource,
        mode: LockMode,
        timeout: Optional[float] = None,
    ) -> None:
        if _sched.ACTIVE is not None:
            _sched.maybe_yield(
                YieldPoint.LOCK_ACQUIRE,
                repr(resource),
                resource=repr(resource),
                mode=mode.value,
                txn=txn_id,
            )
        stripe = self._stripes[hash(resource) % self._stripe_count]
        # Covered re-acquire without the mutex: only the owning transaction
        # ever strengthens or releases its own hold, so a hold observed
        # here (GIL-atomic dict reads) is current for the caller — about
        # half of all acquires are table-intent re-acquires.
        probe = stripe.table.get(resource)
        if probe is not None:
            held = probe.holders.get(txn_id)
            if held is not None and _COVERS[held, mode]:
                self._reacquired_slot.value += 1
                return
        with stripe.mutex:
            entry = stripe.table.get(resource)
            if entry is None:
                # Uncontended fresh resource: grant without touching the
                # waiter queue (the overwhelmingly common case).
                entry = stripe.table[resource] = _LockEntry()
                entry.holders[txn_id] = mode
                self._requests_slot.value += 1
                self._granted_slot.value += 1
                self._note_held(txn_id, resource)
                return
            held = entry.holders.get(txn_id)
            if held is not None and _COVERS[held, mode]:
                self._reacquired_slot.value += 1
                return
            self._requests_slot.value += 1
            if not entry.waiters and self._grantable(entry, txn_id, mode):
                entry.holders[txn_id] = (
                    _COMBINED[held, mode] if held is not None else mode
                )
                self._granted_slot.value += 1
                self._note_held(txn_id, resource)
                return
            deadline = _sched.now() + (timeout if timeout is not None else self.timeout)
            entry.waiters.append((txn_id, mode))
            self._note_waiting(txn_id, resource)
        # Blocked.  The wait loop holds the stripe mutex only around the
        # grant re-check and the condition wait; deadlock detection runs
        # with *no* stripe mutex held (it collects them all itself).
        try:
            while True:
                cycle = self._find_cycle(txn_id)
                if cycle is not None:
                    self.metrics.incr("locks.deadlocks")
                    raise DeadlockError(txn_id, cycle)
                with stripe.mutex:
                    if self._grantable(entry, txn_id, mode):
                        current = entry.holders.get(txn_id)
                        entry.holders[txn_id] = (
                            _COMBINED[current, mode] if current is not None else mode
                        )
                        self._granted_slot.value += 1
                        self._note_held(txn_id, resource)
                        return
                    self.metrics.incr("locks.waits")
                    stripe.parked += 1
                    try:
                        name = repr(resource)
                        woken = _sched.wait(
                            stripe.cv, deadline, YieldPoint.LOCK_BLOCKED, name,
                            resource=name, mode=mode.value, txn=txn_id,
                        )  # fmt: skip
                    finally:
                        stripe.parked -= 1
                    if not woken:
                        self.metrics.incr("locks.timeouts")
                        raise LockTimeoutError(txn_id, resource)
        finally:
            self._clear_waiting(txn_id)
            with stripe.mutex:
                try:
                    entry.waiters.remove((txn_id, mode))
                except ValueError:
                    pass
                else:
                    if stripe.parked:
                        # A waiter queued behind this one may be grantable
                        # now that FIFO no longer holds it back.
                        stripe.cv.notify_all()

    def _grantable(self, entry: _LockEntry, txn_id: int, mode: LockMode) -> bool:
        for holder, held_mode in entry.holders.items():
            if holder == txn_id:
                continue
            if not _COMPATIBLE[(held_mode, mode)]:
                return False
        # FIFO fairness: do not jump over an earlier incompatible waiter
        # unless we already hold the resource (upgrades go first to avoid
        # trivial upgrade deadlocks).
        if txn_id not in entry.holders:
            for waiter_id, waiter_mode in entry.waiters:
                if waiter_id == txn_id:
                    break
                if not _COMPATIBLE[(waiter_mode, mode)]:
                    return False
        return True

    # -- deadlock detection ------------------------------------------------------------

    def _blockers_of(self, txn_id: int, waiting: dict[int, Resource]) -> set[int]:
        resource = waiting.get(txn_id)
        if resource is None:
            return set()
        entry = self._stripe_of(resource).table.get(resource)
        if entry is None:
            return set()
        wanted = next(
            (mode for waiter, mode in entry.waiters if waiter == txn_id), None
        )
        if wanted is None:
            return set()
        return {
            holder
            for holder, held_mode in entry.holders.items()
            if holder != txn_id and not _COMPATIBLE[(held_mode, wanted)]
        }

    def _find_cycle(self, start: int) -> Optional[tuple[int, ...]]:
        """DFS over waits-for edges; returns a cycle through ``start``.

        Runs under the detector mutex with *every* stripe mutex held (taken
        in index order to stay deadlock-free against grant/release paths),
        so the waits-for graph it walks is a globally consistent snapshot.
        The caller holds no stripe mutex while calling this.
        """
        with self._detect:
            for stripe in self._stripes:
                stripe.mutex.acquire()
            try:
                with self._admin:
                    waiting = dict(self._waiting_on)
                stack: list[tuple[int, list[int]]] = [(start, [start])]
                seen: set[int] = set()
                while stack:
                    node, path = stack.pop()
                    for blocker in self._blockers_of(node, waiting):
                        if blocker == start:
                            return tuple(path + [start])
                        if blocker not in seen:
                            seen.add(blocker)
                            stack.append((blocker, path + [blocker]))
                return None
            finally:
                for stripe in reversed(self._stripes):
                    stripe.mutex.release()

    # -- release -----------------------------------------------------------------------

    def release(self, txn_id: int, resource: Resource) -> None:
        stripe = self._stripe_of(resource)
        with stripe.mutex:
            entry = stripe.table.get(resource)
            if entry is None or txn_id not in entry.holders:
                return
            del entry.holders[txn_id]
            if not entry.holders and not entry.waiters:
                del stripe.table[resource]
            self._released_slot.value += 1
            if stripe.parked:
                stripe.cv.notify_all()
        with self._admin:
            held = self._held_by_txn.get(txn_id)
            if held is not None:
                held.discard(resource)
        if _sched.ACTIVE is not None:
            _sched.maybe_yield(
                YieldPoint.LOCK_RELEASE, repr(resource), resource=repr(resource),
                txn=txn_id,
            )

    def release_all(self, txn_id: int) -> int:
        """Drop every lock of the transaction (commit/abort/crash)."""
        with self._admin:
            resources = self._held_by_txn.pop(txn_id, None)
        if not resources:
            return 0
        stripes, count = self._stripes, self._stripe_count
        for resource in resources:
            stripe = stripes[hash(resource) % count]
            with stripe.mutex:
                entry = stripe.table.get(resource)
                if entry is not None:
                    entry.holders.pop(txn_id, None)
                    if not entry.holders and not entry.waiters:
                        del stripe.table[resource]
                if stripe.parked:
                    stripe.cv.notify_all()
        self._released_slot.value += len(resources)
        if _sched.ACTIVE is not None:
            _sched.maybe_yield(
                YieldPoint.LOCK_RELEASE, "*", txn=txn_id, count=len(resources)
            )
        return len(resources)

    def clear(self) -> None:
        """Volatile state is lost with the TC (crash injection)."""
        for stripe in self._stripes:
            with stripe.mutex:
                stripe.table.clear()
                if stripe.parked:
                    stripe.cv.notify_all()
        with self._admin:
            self._held_by_txn.clear()
            self._waiting_on.clear()

    # -- introspection ---------------------------------------------------------------------

    def holds(self, txn_id: int, resource: Resource, mode: LockMode) -> bool:
        stripe = self._stripe_of(resource)
        with stripe.mutex:
            entry = stripe.table.get(resource)
            if entry is None:
                return False
            held = entry.holders.get(txn_id)
            return held is not None and _COVERS[held, mode]

    def locks_held(self, txn_id: int) -> int:
        with self._admin:
            return len(self._held_by_txn.get(txn_id, ()))

    def total_locks(self) -> int:
        total = 0
        for stripe in self._stripes:
            with stripe.mutex:
                total += sum(len(entry.holders) for entry in stripe.table.values())
        return total
