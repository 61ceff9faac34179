"""MVCC snapshot reads (``TcConfig.cc_policy="mvcc"``).

Reads never lock *and never abort at read time*: a key with an
unsettled in-place write is served the writer's **committed
before-image** — the same before-value the TC already learns under the
writer's X lock for logical undo, re-used as a TC-side version store
(the in-process analogue of the versioned read-committed machinery of
Section 6.2/6.3).  Scans overlay the before-images onto the range read:
an uncommitted in-place delete reappears, an uncommitted insert
disappears, an uncommitted update reads back.

Writes keep exclusive record locks (undo-information discipline, see
``tc/cc.py``), so write-write conflicts serialize pessimistically;
"first committer wins" therefore manifests on the *read* side: every
read records the stamp of the version it observed — for a before-image,
the stamp captured when the image was taken — and commit-time validation
fails any transaction whose observed versions were superseded by a
writer that settled first.  That read validation is what lifts the
policy from snapshot isolation to full serializability (write skew
reads a version a first committer replaced, and is aborted); the
oracle sweeps it in multiversion (MVSG) mode, since before-image reads
legitimately complete *after* a concurrent writer's in-place write —
event order is not conflict order here.

``TcConfig.unsafe_mvcc_read_newest`` is the negative control: reads
bypass the before-image registry *and* read tracking, returning the
newest in-place bytes.  The explorer must catch the resulting dirty
reads and cycles within its schedule budget.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.common.ops import ReadFlavor
from repro.common.records import Key
from repro.tc.cc import ValidatingCc

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.tc.handle import Transaction


class MvccSnapshotCc(ValidatingCc):
    name = "mvcc"
    #: Writes must learn a real prior under the X lock: it is registered
    #: as the before-image and served to concurrent readers at once — an
    #: insert's optimistic ABSENT guess would be a phantom absence, and an
    #: image still on its way back with the write's reply is no image.
    needs_write_prior = True

    def read(self, txn: "Transaction", table: str, key: Key) -> object:
        tc = self.tc
        if tc.config.unsafe_mvcc_read_newest:
            # Negative control: newest in-place bytes, no version, no
            # tracking, no validation — dirty reads on purpose.
            return tc.dispatch.fetch(table, key)
        slot = (table, key)
        own = txn.known.get(slot)
        if own is not None:
            return own
        state = self._state(txn)
        cached = state.values.get(slot)
        if cached is not None:
            return cached
        with self._mu:
            owner = self._writers.get(slot)
            if owner is not None and owner != txn.txn_id:
                value, stamp = self._before[slot]
                state.reads.setdefault(slot, stamp)
                state.values[slot] = value
                tc.metrics.incr("tc.cc_before_image_reads")
                return value
            stamp = self._stamps.get(slot, 0)
        value = tc.dispatch.fetch(table, key)
        with self._mu:
            owner = self._writers.get(slot)
            if owner is not None and owner != txn.txn_id:
                # The fetch raced an in-place write; fall back to the
                # registered before-image (whose capture stamp replaces
                # the pre-fetch one — same version, same stamp).
                value, stamp = self._before[slot]
                self.tc.metrics.incr("tc.cc_before_image_reads")
        state.reads.setdefault(slot, stamp)
        state.values[slot] = value
        tc.metrics.incr("tc.cc_lockfree_reads")
        return value

    def scan(
        self,
        txn: "Transaction",
        table: str,
        low: Optional[Key],
        high: Optional[Key],
        limit: Optional[int],
    ) -> list[tuple[Key, object]]:
        tc = self.tc
        from repro.tc.handle import ABSENT

        if tc.config.unsafe_mvcc_read_newest:
            views = tc.dispatch.read_range(table, low, high, limit, ReadFlavor.OWN)
            return [view.as_tuple() for view in views]
        state = self._state(txn)
        with self._mu:
            tstamp = self._table_stamps.get(table, 0)
            overlay_keys = any(
                slot[0] == table
                and owner != txn.txn_id
                and self._in_range(slot[1], low, high)
                for slot, owner in self._writers.items()
            )
        # With an overlay pending, a limited fetch cannot know how many
        # rows survive the before-image substitution — fetch the range
        # and truncate after.
        fetch_limit = None if (limit is not None and overlay_keys) else limit
        views = tc.dispatch.read_range(table, low, high, fetch_limit, ReadFlavor.OWN)
        rows = {view.key: view.value for view in views}
        with self._mu:
            for slot, owner in self._writers.items():
                if slot[0] != table or owner == txn.txn_id:
                    continue
                if not self._in_range(slot[1], low, high):
                    continue
                value, _stamp = self._before[slot]
                if value is ABSENT:
                    rows.pop(slot[1], None)  # uncommitted insert: not yet
                else:
                    rows[slot[1]] = value  # uncommitted update/delete: old
        results = [(key, rows[key]) for key in sorted(rows)]
        if limit is not None:
            results = results[:limit]
        self._record_scan(state, table, tstamp, results)
        tc.metrics.incr("tc.cc_snapshot_scans")
        return results
