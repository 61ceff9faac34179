"""The undo-info cache and the insert bounds (docs/architecture.md §9.2).

A write's before-image is undo information, so the TC may only learn it
under its own lock.  This stage answers "what does ``(table, key)`` hold
now" from what the transaction already knows, then from committed values
earlier transactions of this TC learned under their locks, and reads
through to the DC only when the caller needs the value before sending.
It also keeps per-table upper bounds on every key, which let the gap-lock
protocol name the gap above a fresh key without a probe round trip.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Optional

from repro.common.records import Key
from repro.tc.handle import ABSENT

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.tc.handle import Transaction
    from repro.tc.transactional_component import TransactionalComponent


class UndoCache:
    """Committed values this TC learned, (table, key) -> value | ABSENT.

    Off at ``undo_cache_size=0``.  Sound because this TC is the sole
    writer of the keys it caches; every event that could falsify an entry
    (own write aborted or ambiguous, DC reset, TC crash) invalidates.
    """

    def __init__(self, tc: "TransactionalComponent") -> None:
        self._tc = tc
        self._size = tc.config.undo_cache_size
        self._undo_cache: Optional[OrderedDict] = OrderedDict() if self._size else None
        #: Per-table upper bound on every key currently in the table.
        #: ``_table_high`` is learned from authoritative empty probe results
        #: ("no key above X") and thereafter maintained under this TC's own
        #: inserts; ``_insert_high`` tracks the largest key this TC has
        #: *attempted* to insert, so an unsent batched insert can never slip
        #: above a bound learned from a concurrent probe.  Both are
        #: overestimates of the true maximum — always safe, since they are
        #: only used to prove "no successor exists" (key > bound).  Trusted
        #: only while this TC is the table's sole writer (no ownership
        #: guard).
        self._table_high: dict[str, Key] = {}
        self._insert_high: dict[str, Key] = {}
        metrics = tc.metrics
        self._hits = metrics.counter("tc.undo_cache_hits")
        self._misses = metrics.counter("tc.undo_cache_misses")
        self._reads = metrics.counter("tc.undo_info_reads")

    def entries(self) -> list[tuple[str, Key]]:
        """The cached slots, least recently used first (none when off)."""
        return list(self._undo_cache or ())

    # -- the one lookup ----------------------------------------------------------

    def value(
        self, txn: "Transaction", table: str, key: Key, unknown: object = None
    ) -> object:
        """What ``(table, key)`` holds, under a lock the caller holds: what
        the transaction knows, else a cache hit, else — ``unknown`` None —
        one DC read, remembered in both; otherwise ``unknown`` itself.

        ``unknown`` is the write path's guess when no read is wanted
        (``ABSENT`` for an insert, the ``OWED`` sentinel for a write whose
        reply brings its image); a miss is counted unless it is ``ABSENT``
        (an insert never had an image to miss)."""
        slot = (table, key)
        known = txn.known.get(slot)
        if known is not None:
            return known
        cache = self._undo_cache
        if cache is not None:
            hit = cache.get(slot)
            if hit is not None:
                try:
                    cache.move_to_end(slot)  # the youngest entry now
                except KeyError:
                    pass  # evicted by another thread's store since the get
                self._hits.value += 1
                txn.known[slot] = hit
                return hit
            if unknown is not ABSENT:
                self._misses.value += 1
        if unknown is not None:
            return unknown
        value = self._tc.dispatch.fetch(table, key, self._reads)
        txn.known[slot] = value
        self.store(table, key, value)
        return value

    def prior(
        self, txn: "Transaction", table: str, key: Key, unknown: object
    ) -> object:
        """The value a write is about to replace, as far as the TC knows —
        ``unknown`` (``ABSENT`` for an insert, ``OWED`` otherwise) when it
        does not.

        No read is spent on either thing a prior is for.  The existence
        check is the DC's own verdict when the envelope arrives — a per-op
        rejection surfaces as the same :class:`DuplicateKeyError` /
        :class:`NoSuchRecordError`, from the call itself on the default
        envelope of one.  The before-image an insert never needs (its
        inverse is a bare delete), an increment never needs (its inverse is
        the negated delta), and an update or delete gets from its own
        reply: the record is logged ``owed`` and the reply's ``prior``
        fills it.  Anything the TC actually knows (transaction- or
        cache-local) still answers first.

        A policy that serves readers from the before-image at write time
        (``ConcurrencyControl.needs_write_prior``) reads first — and so
        does any TC while a rollback is parked behind a DC outage: that
        transaction's locks are gone but its keys are not settled, and
        what kept a new writer of such a key from logging ahead of the
        parked compensation was always the read's own round trip (it
        fails while the DC is down and stalls until the heal's redo
        window has re-driven the rollback).
        """
        tc = self._tc
        if tc.cc.needs_write_prior or tc.rollback.parked:
            unknown = None
        return self.value(txn, table, key, unknown)

    def store(self, table: str, key: Key, value: object) -> None:
        """Remember a value this TC learned under a lock it held.

        Only keys this TC owns are cached (with an ownership guard
        installed, a foreign TC may mutate unowned keys behind our back).
        The stored entry becomes the youngest; past ``undo_cache_size``
        the least recently used one is evicted.
        """
        cache = self._undo_cache
        if cache is None:
            return
        guard = self._tc.ownership_guard
        if guard is not None and not guard(table, key):
            return
        slot = (table, key)
        cache.pop(slot, None)  # re-inserted at the young end
        cache[slot] = value
        if len(cache) > self._size:
            cache.popitem(last=False)

    def committed(self, txn: "Transaction") -> None:
        """Write-through at commit: everything the transaction knows under
        its locks is now the committed state (called before lock release)."""
        if self._undo_cache is None:
            return
        for (table, key), value in txn.known.items():
            self.store(table, key, value)

    # -- invalidation ------------------------------------------------------------

    def forget(self, slot: tuple[str, Key]) -> None:
        if self._undo_cache is not None:
            self._undo_cache.pop(slot, None)

    def forget_txn(self, txn: "Transaction") -> None:
        """Drop every key the transaction touched (abort/ambiguity paths)."""
        cache = self._undo_cache
        if cache is None:
            return
        for table_key in txn.known:
            cache.pop(table_key, None)
        for record in txn.op_records:
            op = record.op
            if op is not None:
                cache.pop((op.table, getattr(op, "key", None)), None)
        self._tc.metrics.incr("tc.undo_cache_invalidations")

    def forget_tables(self, tables: set[str]) -> None:
        """Drop every entry of ``tables`` (their DC reset or restarted: its
        cached state was lost and is being rebuilt by redo)."""
        cache = self._undo_cache
        if cache is None:
            return
        for table_key in [tk for tk in cache if tk[0] in tables]:
            del cache[table_key]
        for table in tables:
            # Redo rebuilds the same key set, so a retained bound would in
            # fact stay a valid overestimate — but the bound is volatile
            # hint state, so it is re-learned rather than reasoned about.
            self._table_high.pop(table, None)
        self._tc.metrics.incr("tc.undo_cache_invalidations")

    def clear(self) -> None:
        """TC crash: all of it is volatile, and the crash may have lost
        logged-but-unstable operations whose effects cached values reflect."""
        if self._undo_cache is not None:
            self._undo_cache.clear()
        self._table_high.clear()
        self._insert_high.clear()

    # -- insert bounds -----------------------------------------------------------

    def note_insert(self, table: str, key: Key) -> None:
        """Record an *attempted* insert before it is locked or queued, so a
        concurrent probe-learned bound can never undercut it (an attempt
        that later aborts only leaves the bound an overestimate)."""
        if self._tc.ownership_guard is not None:
            return
        high = self._insert_high.get(table)
        if high is None or key > high:
            self._insert_high[table] = key
            thigh = self._table_high.get(table)
            if thigh is not None and key > thigh:
                self._table_high[table] = key

    def table_high(self, table: str) -> Optional[Key]:
        """Upper bound on every key in ``table``, or None when unknown.

        Only available with the cache on and this TC as sole writer; the
        gap-lock protocol uses it to prove "no successor exists" for
        fresh-key inserts without a probe round trip.
        """
        if self._undo_cache is None or self._tc.ownership_guard is not None:
            return None
        return self._table_high.get(table)

    def learn_empty_above(self, table: str, after: Key) -> None:
        """The DC just attested that no key of ``table`` exists above
        ``after``.  The bound also covers our own batched-but-unsent
        inserts, which the DC cannot have seen yet."""
        if self._undo_cache is None or self._tc.ownership_guard is not None:
            return
        bound = after
        pending = self._insert_high.get(table)
        if pending is not None and pending > bound:
            bound = pending
        self._table_high[table] = bound
