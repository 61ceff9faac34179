"""Log sequence numbers and the abstract-LSN algebra of Section 5.1.2.

The TC labels every logical operation with a unique, monotonically
increasing LSN drawn from its log.  Because TC and DC are independently
multi-threaded (or separated by a reordering network), operations can reach
a page out of LSN order, which breaks the classical ``opLSN <= pageLSN``
idempotence test.  The paper's fix is the *abstract LSN*::

    abLSN = <LSNlw, {LSNin}>

where every operation with LSN <= LSNlw is known to be reflected in the
page, and {LSNin} enumerates the reflected operations above the low water.
The containment test then becomes::

    lsn <= abLSN  iff  lsn <= LSNlw  or  lsn in {LSNin}

:class:`AbstractLsn` implements that algebra, including the low-water
advancement driven by the TC's ``low_water_mark`` calls and the merge used
when two pages are consolidated (Section 5.2.2).
"""

from __future__ import annotations

import itertools
import threading
from typing import Iterable, Iterator

#: LSNs are plain integers; 0 is the null LSN ("before everything").
Lsn = int

NULL_LSN: Lsn = 0

#: Space model: bytes to encode a single LSN on a page (8-byte integer,
#: matching a conventional on-disk LSN).  Used by the page-sync and
#: record-level-LSN space experiments.
LSN_ENCODED_BYTES = 8


class LsnGenerator:
    """Thread-safe source of unique, monotonically increasing LSNs."""

    def __init__(self, start: Lsn = NULL_LSN) -> None:
        self._last = start
        self._lock = threading.Lock()

    def next(self) -> Lsn:
        """Return the next LSN (strictly greater than all previous)."""
        with self._lock:
            self._last += 1
            return self._last

    @property
    def last(self) -> Lsn:
        """The most recently issued LSN (NULL_LSN if none issued)."""
        return self._last

    def advance_to(self, lsn: Lsn) -> None:
        """Ensure future LSNs are greater than ``lsn`` (used at restart)."""
        with self._lock:
            if lsn > self._last:
                self._last = lsn


class AbstractLsn:
    """The paper's ``abLSN = <LSNlw, {LSNin}>`` with its generalized ``<=``.

    Instances are mutable (the DC updates the abLSN of a cached page on
    every applied operation) but expose :meth:`snapshot` for an immutable
    copy, used when an abLSN must be captured in a log record or written to
    a stable page image.
    """

    __slots__ = ("_low_water", "_included")

    def __init__(self, low_water: Lsn = NULL_LSN, included: Iterable[Lsn] = ()) -> None:
        self._low_water = low_water
        self._included = {lsn for lsn in included if lsn > low_water}

    # -- the generalized idempotence test -------------------------------

    def contains(self, lsn: Lsn) -> bool:
        """``lsn <= abLSN``: is the operation's effect already in the page?"""
        return lsn <= self._low_water or lsn in self._included

    # -- mutation during normal execution --------------------------------

    def include(self, lsn: Lsn) -> None:
        """Record that the operation with ``lsn`` has been applied."""
        if lsn > self._low_water:
            self._included.add(lsn)

    def advance_low_water(self, lwm: Lsn) -> bool:
        """Raise LSNlw to the TC-supplied low-water mark and prune {LSNin};
        True when it rose.

        The TC guarantees it has received replies for every operation with
        LSN <= ``lwm``, so there are no gaps below it: any such operation
        applicable to this page has been applied (Section 5.1.2,
        "Establishing LSNlw").  {LSNin} is pruned in place from a snapshot
        taken in one C call: the caller need not hold the page latch, and
        an LSN included meanwhile must not be lost.
        """
        if lwm <= self._low_water:
            return False
        self._low_water = lwm
        included = self._included
        if included:
            included.difference_update(filter(lwm.__ge__, tuple(included)))
        return True

    def merge(self, other: "AbstractLsn") -> "AbstractLsn":
        """Combine two abLSNs for a page consolidation (Section 5.2.2).

        The paper asks for "an abLSN ... that is the maximum of abLSNs of
        the two pages"; with the set representation that is the max low
        water plus the union of surviving included LSNs, which covers every
        operation covered by either input.

        CAVEAT: taking the *max* low water is only sound when both pages
        are at the same operation horizon (true in normal execution, where
        every cached page catches up to each LWM broadcast when it is next
        observed, so both inputs, read through ``Page.ablsns``, are at the
        latest mark).  Merging pages with
        *unequal* low waters — which happens exactly when redo is replaying
        onto asymmetric stable baselines — would let the higher low water
        falsely claim the other range's still-unreplayed operations.  The
        B-tree therefore refuses such merges
        (:meth:`repro.storage.btree.BTree._horizons_compatible`).
        """
        low = max(self._low_water, other._low_water)
        merged = AbstractLsn(low)
        merged._included = {
            lsn
            for lsn in itertools.chain(self._included, other._included)
            if lsn > low
        }
        return merged

    # -- inspection ------------------------------------------------------

    @property
    def low_water(self) -> Lsn:
        return self._low_water

    @property
    def included(self) -> frozenset[Lsn]:
        return frozenset(self._included)

    def max_lsn(self) -> Lsn:
        """Largest operation LSN covered by this abLSN.

        Governs causality: a page may be flushed only when its abLSN's
        ``max_lsn`` is at or below the TC's end of stable log.
        """
        return max(self._included, default=self._low_water)

    def lsns_above(self, bound: Lsn) -> frozenset[Lsn]:
        """Included LSNs strictly greater than ``bound``.

        Used at TC-crash time to find pages reflecting lost operations
        (Section 5.3.2): if the low water itself exceeds ``bound`` the page
        is unconditionally affected and this returns the low water too.
        """
        above = {lsn for lsn in self._included if lsn > bound}
        if self._low_water > bound:
            above.add(self._low_water)
        return frozenset(above)

    def pending_count(self) -> int:
        """Size of {LSNin}; the page-sync experiments track this."""
        return len(self._included)

    def encoded_size(self) -> int:
        """Bytes to store this abLSN on a page (space-model, Section 5.1.2)."""
        return LSN_ENCODED_BYTES * (1 + len(self._included))

    def snapshot(self) -> "AbstractLsn":
        """Immutable-by-convention copy for log records and page images."""
        return AbstractLsn(self._low_water, self._included)

    def is_null(self) -> bool:
        return self._low_water == NULL_LSN and not self._included

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AbstractLsn):
            return NotImplemented
        return (
            self._low_water == other._low_water and self._included == other._included
        )

    def __hash__(self) -> int:
        return hash((self._low_water, frozenset(self._included)))

    def __iter__(self) -> Iterator[Lsn]:
        """Iterate the explicitly tracked LSNs (not the implied prefix)."""
        return iter(sorted(self._included))

    def __repr__(self) -> str:
        inc = ",".join(map(str, sorted(self._included)))
        return f"abLSN<lw={self._low_water},{{{inc}}}>"

