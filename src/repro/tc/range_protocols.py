"""The paper's two answers to range locking without pages (Section 3.1).

In an integrated kernel, a range operation executes *inside* the page and
can key-range-lock exactly the keys it sees.  An unbundled TC must lock
*before* the DC request, i.e. before knowing which keys exist.  The paper
offers two protocols, both implemented here behind one interface:

**Fetch-ahead** — probe the DC speculatively for the next batch of keys,
lock them (records + the gaps below them, giving key-range phantom
protection), then issue the real read and re-validate; if the keys changed
meanwhile the request "becomes again a speculative request".  Fine-grained
concurrency, one extra probe round trip per batch, two locks per key.

**Range partition** — statically partition each table's key space and lock
whole partitions.  "This protocol avoids key range locking, and hence
gives up some concurrency.  However it should also reduce locking overhead
since fewer locks are needed."  A table with no configured boundaries
degenerates to a single partition — a table lock.

Experiment E-LOCK quantifies the trade-off.
"""

from __future__ import annotations

import bisect
from typing import TYPE_CHECKING, Optional

from repro.common.ops import ReadFlavor
from repro.common.records import Key
from repro.tc.lock_manager import LockMode, combined_mode, mode_covers

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.tc.handle import Transaction
    from repro.tc.transactional_component import TransactionalComponent


class _TableEnd:
    """Sentinel key: the gap above the largest existing key."""

    def __repr__(self) -> str:
        return "<TABLE_END>"


TABLE_END = _TableEnd()


class FetchAheadProtocol:
    """Probe-lock-read-validate, with next-key gap locks for phantoms."""

    name = "fetch_ahead"

    def __init__(self, tc: "TransactionalComponent") -> None:
        self._tc = tc
        self._gap_locks = tc.metrics.counter("tc.gap_locks")

    # -- point operations ----------------------------------------------------

    def _table_intent(self, txn: "Transaction", table: str, mode: LockMode) -> None:
        """Acquire a table-intent lock, memoized on the transaction: under
        strict 2PL the grant cannot be lost before transaction end, so a
        covered re-request skips the lock manager entirely."""
        held = txn.table_locks.get(table)
        if held is not None and mode_covers(held, mode):
            return
        self._tc.locks.acquire(txn.txn_id, ("table", table), mode)
        txn.table_locks[table] = mode if held is None else combined_mode(held, mode)

    def lock_for_read(self, txn: "Transaction", table: str, key: Key) -> None:
        self._table_intent(txn, table, LockMode.IS)
        self._tc.locks.acquire(txn.txn_id, ("rec", table, key), LockMode.S)

    def lock_for_update(self, txn: "Transaction", table: str, key: Key) -> None:
        self._table_intent(txn, table, LockMode.IX)
        self._tc.locks.acquire(txn.txn_id, ("rec", table, key), LockMode.X)

    def lock_for_insert(self, txn: "Transaction", table: str, key: Key) -> None:
        self.lock_for_update(txn, table, key)
        self._lock_gap_above(txn, table, key, LockMode.X)

    def lock_for_delete(self, txn: "Transaction", table: str, key: Key) -> None:
        self.lock_for_update(txn, table, key)
        # The deleted key's gap merges into its successor's gap.
        self._lock_gap_above(txn, table, key, LockMode.X)

    #: Bare write lock (table IX + record X, no gap probing): the
    #: optimistic/multiversion CC policies exclude phantoms by commit-time
    #: validation instead of gap locks, so every mutation kind takes only
    #: the point lock and the probe round trips vanish from the write path.
    lock_for_write = lock_for_update

    def _lock_gap_above(
        self, txn: "Transaction", table: str, key: Key, mode: LockMode
    ) -> None:
        tc = self._tc
        guard: object
        high = tc.undo_cache.table_high(table)
        if high is not None and key >= high:
            # The TC's high-water mark proves no key exists above ``key``
            # (docs/architecture.md §9.2; ``>=`` because the bound covers
            # the key being inserted itself): the gap is the open interval
            # below TABLE_END, named without the probe round trip.  This
            # is the common case for fresh-key (monotonic) inserts.
            guard = TABLE_END
        else:
            successors = tc.dispatch.probe_keys(table, after=key, count=1)
            guard = successors[0] if successors else TABLE_END
        tc.locks.acquire(txn.txn_id, ("gap", table, guard), mode)
        self._gap_locks.value += 1

    # -- range scans -------------------------------------------------------------

    def locked_range_read(
        self,
        txn: "Transaction",
        table: str,
        low: Optional[Key],
        high: Optional[Key],
        limit: Optional[int],
    ) -> list[tuple[Key, object]]:
        """The fetch-ahead loop: probe, lock, read, validate, repeat."""
        tc = self._tc
        self._table_intent(txn, table, LockMode.IS)
        batch_size = tc.config.fetch_ahead_batch
        results: list[tuple[Key, object]] = []
        cursor = low
        inclusive = True
        while True:
            probed = tc.dispatch.probe_keys(
                table, after=cursor, count=batch_size, until=high, inclusive=inclusive
            )
            if not probed:
                break
            for key in probed:
                tc.locks.acquire(txn.txn_id, ("rec", table, key), LockMode.S)
                tc.locks.acquire(txn.txn_id, ("gap", table, key), LockMode.S)
                self._gap_locks.value += 1
            # The authoritative read covers the whole gap since the cursor,
            # so a key inserted between probe and lock shows up and fails
            # validation (the read then "becomes again a speculative
            # request" — retry this batch, paper Section 3.1).
            views = tc.dispatch.read_range(
                table,
                cursor,
                probed[-1],
                None,
                ReadFlavor.OWN,
                low_exclusive=not inclusive and cursor is not None,
            )
            returned_keys = [view.key for view in views]
            if returned_keys != probed:
                tc.metrics.incr("tc.fetch_ahead_retries")
                continue
            results.extend(view.as_tuple() for view in views)
            if limit is not None and len(results) >= limit:
                return results[:limit]
            if len(probed) < batch_size:
                break
            cursor = probed[-1]
            inclusive = False
        # Guard the open interval above the scanned range so later inserts
        # into it conflict with this scan (serializability).
        if high is not None:
            successors = tc.dispatch.probe_keys(table, after=high, count=1)
            guard: object = successors[0] if successors else TABLE_END
        else:
            guard = TABLE_END
        tc.locks.acquire(txn.txn_id, ("gap", table, guard), LockMode.S)
        self._gap_locks.value += 1
        return results


class RangePartitionProtocol:
    """Static key-space partitions, locked wholesale (Section 3.1)."""

    name = "range_partition"

    def __init__(self, tc: "TransactionalComponent") -> None:
        self._tc = tc
        self._boundaries: dict[str, list[Key]] = {}

    def set_boundaries(self, table: str, boundaries: list[Key]) -> None:
        """Sorted interior boundaries; partition i covers
        [boundary[i-1], boundary[i])."""
        self._boundaries[table] = sorted(boundaries)

    def partition_of(self, table: str, key: Key) -> int:
        return bisect.bisect_right(self._boundaries.get(table, []), key)

    def _partition_count(self, table: str) -> int:
        return len(self._boundaries.get(table, [])) + 1

    # -- point operations -------------------------------------------------------

    def lock_for_read(self, txn: "Transaction", table: str, key: Key) -> None:
        tc = self._tc
        tc.locks.acquire(txn.txn_id, ("table", table), LockMode.IS)
        tc.locks.acquire(
            txn.txn_id, ("part", table, self.partition_of(table, key)), LockMode.IS
        )
        tc.locks.acquire(txn.txn_id, ("rec", table, key), LockMode.S)

    def lock_for_update(self, txn: "Transaction", table: str, key: Key) -> None:
        tc = self._tc
        tc.locks.acquire(txn.txn_id, ("table", table), LockMode.IX)
        tc.locks.acquire(
            txn.txn_id, ("part", table, self.partition_of(table, key)), LockMode.IX
        )
        tc.locks.acquire(txn.txn_id, ("rec", table, key), LockMode.X)

    # Inserts and deletes need no gap probing: the partition IX lock
    # conflicts with any scanner's partition S lock, so phantoms are
    # excluded wholesale (the concurrency the paper says this gives up).
    lock_for_insert = lock_for_update
    lock_for_delete = lock_for_update
    #: OCC/MVCC write path: same partition IX + record X (validation
    #: handles phantoms, so nothing coarser is needed).
    lock_for_write = lock_for_update

    # -- range scans -----------------------------------------------------------------

    def locked_range_read(
        self,
        txn: "Transaction",
        table: str,
        low: Optional[Key],
        high: Optional[Key],
        limit: Optional[int],
    ) -> list[tuple[Key, object]]:
        tc = self._tc
        tc.locks.acquire(txn.txn_id, ("table", table), LockMode.IS)
        first = 0 if low is None else self.partition_of(table, low)
        last = (
            self._partition_count(table) - 1
            if high is None
            else self.partition_of(table, high)
        )
        for partition in range(first, last + 1):
            tc.locks.acquire(txn.txn_id, ("part", table, partition), LockMode.S)
            tc.metrics.incr("tc.partition_locks")
        views = tc.dispatch.read_range(table, low, high, limit, ReadFlavor.OWN)
        return [view.as_tuple() for view in views]
