"""Optimistic concurrency control (``TcConfig.cc_policy="occ"``).

Reads take no locks and make no lock-manager calls at all: a point read
is one DC round trip bracketed by registry/stamp probes, a scan is the
range read alone.  Conflicts surface in two ways:

- **Read-time conflict abort** — a read (or scan) that would observe a
  key with an unsettled in-place write aborts immediately.  Waiting is
  pointless (the writer holds its X lock to transaction end) and
  returning the value would be a dirty read, so the paper-classic
  "abort and retry" is the whole policy.
- **Commit-time validation** — each read records the key's settled-write
  stamp *captured before the value was fetched*; each scan records its
  table's stamp the same way.  Validation re-checks them under the
  install mutex: any writer that settled in between (committed *or*
  rolled back) fails the reader.  Writers that validate successfully
  bump their write stamps in the same critical section, so validation
  order is the serialization order.

Serializability argument: the serialization point is validation.  A
committed reader's whole read set was still current when it validated
(any write that settled after the stamp capture fails it), writers
settle in validation order (stamps bump inside the critical section),
so every conflict edge points from earlier to later validation.  Note
that *event* order is not conflict order here: repeated reads are
re-served from the transaction-private workspace (classic OCC), so a
cached read can complete after a concurrent writer's in-place write
yet legitimately return the older value — the oracle therefore judges
occ in multiversion (MVSG) mode, like mvcc.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.common.errors import TransactionAborted
from repro.common.ops import ReadFlavor
from repro.common.records import Key
from repro.tc.cc import ValidatingCc

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.tc.handle import Transaction


class OptimisticCc(ValidatingCc):
    name = "occ"

    def _read_conflict(self, txn: "Transaction", what: object) -> None:
        self.tc.metrics.incr("tc.cc_read_conflicts")
        raise TransactionAborted(
            txn.txn_id, f"occ: read conflicts with unsettled writer of {what!r}"
        )

    def read(self, txn: "Transaction", table: str, key: Key) -> object:
        tc = self.tc
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
            stamp = self._stamps.get(slot, 0)
        if owner is not None and owner != txn.txn_id:
            self._read_conflict(txn, slot)
        value = tc.dispatch.fetch(table, key)
        # Re-probe after the round trip: a writer that registered while
        # the read was in flight may have put an uncommitted value in the
        # reply.  A writer that registered *and settled* in flight bumped
        # the stamp, which the pre-fetch capture turns into a
        # validation-time abort.
        with self._mu:
            owner = self._writers.get(slot)
        if owner is not None and owner != txn.txn_id:
            self._read_conflict(txn, slot)
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
        state = self._state(txn)
        with self._mu:
            tstamp = self._table_stamps.get(table, 0)
        views = tc.dispatch.read_range(table, low, high, limit, ReadFlavor.OWN)
        results = [view.as_tuple() for view in views]
        with self._mu:
            dirty = [
                slot
                for slot, owner in self._writers.items()
                if slot[0] == table
                and owner != txn.txn_id
                and self._in_range(slot[1], low, high)
            ]
        if dirty:
            # An unsettled in-place write (update, or an uncommitted
            # insert/delete the DC already applied) may be in the result.
            self._read_conflict(txn, dirty[0])
        self._record_scan(state, table, tstamp, results)
        return results
