"""A B+-tree access method maintained entirely inside the DC.

The TC addresses records by ``(table, key)``; how those records map onto
pages — this tree — is invisible above the DC boundary (Section 1.2).
Structure modifications (leaf/inner splits, leaf consolidations, root
growth/collapse) run as system transactions (Section 5.2.2):

- a *split* logs the new page physically (image + abLSN) and the pre-split
  page logically (split key only);
- a *consolidation* logs the merged page physically with the merged (max)
  abLSN of its two inputs, plus a logical page-free for the victim;
- parent/root updates are logged physically (inner pages carry no TC data,
  so their images need no causality gate).

Splits and consolidations ask the causality gate before they touch a page
(``SystemTransaction.gate``), so a refused gate leaves the tree as found.

The tree logs through :class:`SmoLog`, one object per modification.  The
DC passes its system transaction; the monolithic baseline passes a record
in its single physiological log, whose gate does nothing.

The tree is protected by a per-tree latch; page latches are still taken
around record-level work so latch acquisition counts stay comparable with
the monolithic baseline (DESIGN.md discusses this coarsening).
"""

from __future__ import annotations

import bisect
import threading
from typing import Callable, Iterator, Optional, Protocol

from repro.common.config import DcConfig
from repro.common.errors import PageOverflowError, ReproError, WriteAheadViolation
from repro.common.lsn import AbstractLsn
from repro.common.records import Key, VersionedRecord
from repro.sim.metrics import Metrics
from repro.storage.buffer import BufferPool
from repro.storage.disk import StableStorage
from repro.storage.page import InnerPage, LeafPage, Page, PageImage, PageKind


class SmoLog(Protocol):
    """How one structure modification is logged and made atomic: what
    :meth:`BTree._split_leaf` and :meth:`BTree._merge_leaves` call."""

    def gate(self, *sources: Page) -> None: ...
    def log_page_image(self, page: Page) -> object: ...
    def log_keys_removed(self, page: Page, split_key: Key) -> object: ...
    def log_page_free(self, page_id: int) -> object: ...
    def log_root_changed(self, table: str, new_root: int) -> object: ...
    def commit(self) -> None: ...


class BTree:
    """One table's B+-tree.  All entry points assume the tree latch is free
    and acquire it themselves; the DC may also hold it across a whole
    logical operation via :attr:`latch`."""

    def __init__(
        self,
        name: str,
        storage: StableStorage,
        buffer: BufferPool,
        begin_smo: Callable[[str], SmoLog],
        config: Optional[DcConfig] = None,
        metrics: Optional[Metrics] = None,
        root_id: Optional[int] = None,
    ) -> None:
        self.name = name
        self._storage = storage
        self._buffer = buffer
        #: ``begin_smo(kind)`` opens the log of one structure modification.
        self._begin_smo = begin_smo
        self.config = config or DcConfig()
        self.metrics = metrics or Metrics()
        self.latch = threading.RLock()
        self._inner_visits = self.metrics.counter("btree.inner_visits")
        self._latches = self.metrics.counter("btree.latches")
        if root_id is None:
            root_id = self._create_empty()
        self.root_id = root_id

    # -- construction -------------------------------------------------------

    def _create_empty(self) -> int:
        """Create the empty root leaf as a system transaction."""
        root = LeafPage(self._storage.allocate_page_id())
        txn = self._begin_smo("create")
        txn.log_page_image(root)
        txn.log_root_changed(self.name, root.page_id)
        txn.commit()
        self._buffer.register(root)
        return root.page_id

    # -- descent --------------------------------------------------------------

    def _fetch(self, page_id: int) -> Page:
        page = self._buffer.fetch(page_id)
        if page is None:
            raise ReproError(
                f"btree {self.name!r}: page {page_id} missing from cache and disk"
            )
        return page

    def _descend(self, key: Key) -> tuple[LeafPage, list[InnerPage], Optional[Key]]:
        """Walk from the root to the leaf covering ``key``.

        Returns the leaf, the inner-page path (root first), and the upper
        bound of the leaf's key range (None when rightmost) — the bound is
        what lets range scans continue into the next leaf without sibling
        pointers.
        """
        path: list[InnerPage] = []
        upper: Optional[Key] = None
        fetch = self._buffer.fetch  # _fetch inlined: one call less per level
        page_id = self.root_id
        page = fetch(page_id)
        while isinstance(page, InnerPage):
            path.append(page)
            self._inner_visits.value += 1
            separators = page.separators
            index = bisect.bisect_right(separators, key)
            if index < len(separators):
                upper = separators[index]
            page_id = page.children[index]
            page = fetch(page_id)
        if page is None:
            raise ReproError(
                f"btree {self.name!r}: page {page_id} missing from cache and disk"
            )
        assert isinstance(page, LeafPage)
        return page, path, upper

    def find_leaf(self, key: Key) -> LeafPage:
        with self.latch:
            leaf, _path, _upper = self._descend(key)
            return leaf

    # -- reads -------------------------------------------------------------------

    def get_record(self, key: Key) -> Optional[VersionedRecord]:
        with self.latch:
            leaf, _path, _upper = self._descend(key)
            with leaf.latch:
                self._latches.value += 1
                return leaf.get(key)

    def _descend_leftmost(self) -> tuple[LeafPage, list[InnerPage], Optional[Key]]:
        """Walk to the leftmost leaf without needing a comparable key."""
        path: list[InnerPage] = []
        upper: Optional[Key] = None
        page = self._fetch(self.root_id)
        while isinstance(page, InnerPage):
            path.append(page)
            self._inner_visits.value += 1
            if page.separators:
                upper = page.separators[0]
            page = self._fetch(page.children[0])
        assert isinstance(page, LeafPage)
        return page, path, upper

    def iter_range(
        self, low: Optional[Key], high: Optional[Key], limit: Optional[int] = None
    ) -> Iterator[VersionedRecord]:
        """Yield records with low <= key <= high across leaf boundaries."""
        with self.latch:
            produced = 0
            if low is None:
                leaf, _path, upper = self._descend_leftmost()
            else:
                leaf, _path, upper = self._descend(low)
            cursor = low
            while True:
                with leaf.latch:
                    self._latches.value += 1
                    for record in leaf.range(cursor, high):
                        yield record
                        produced += 1
                        if limit is not None and produced >= limit:
                            return
                if upper is None:
                    return
                if high is not None and upper > high:
                    return
                cursor = upper
                leaf, _path, upper = self._descend(cursor)

    def next_keys(
        self,
        after: Optional[Key],
        count: int,
        until: Optional[Key] = None,
        inclusive: bool = False,
    ) -> list[Key]:
        """Up to ``count`` *visible* keys above ``after`` (strictly, unless
        ``inclusive``), at most ``until``.

        This is the DC half of the fetch-ahead protocol (Section 3.1).
        Visibility matters: a slot whose versions are all dead (e.g. a
        promoted delete retaining snapshot history) is structurally present
        but must not be probed, or the protocol's probe/read validation
        would never converge.
        """
        with self.latch:
            found: list[Key] = []
            if after is None:
                leaf, _path, upper = self._descend_leftmost()
                keys: Iterator[Key] = iter(leaf.keys())
            else:
                leaf, _path, upper = self._descend(after)
                keys = leaf.keys_from(after) if inclusive else leaf.keys_after(after)
            while True:
                with leaf.latch:
                    self._latches.value += 1
                    for key in keys:
                        if until is not None and key > until:
                            return found
                        record = leaf.get(key)
                        if record is None or not record.exists_for(
                            read_committed=False
                        ):
                            continue  # invisible slot: not a probe anchor
                        found.append(key)
                        if len(found) >= count:
                            return found
                if upper is None:
                    return found
                cursor = upper
                leaf, _path, upper = self._descend(cursor)
                keys = leaf.keys_from(cursor)

    # -- structure modifications ---------------------------------------------------

    def ensure_room(self, key: Key, extra_bytes: int) -> LeafPage:
        """Return the leaf for ``key`` with at least ``extra_bytes`` free,
        splitting as many times as necessary."""
        with self.latch:
            while True:
                leaf, path, _upper = self._descend(key)
                if leaf.fits(extra_bytes, self.config.page_size):
                    return leaf
                if leaf.record_count() < 2:
                    raise PageOverflowError(
                        f"record of {extra_bytes} bytes cannot fit on an empty "
                        f"page of {self.config.page_size} bytes"
                    )
                self._split_leaf(leaf, path)

    def _split_leaf(self, leaf: LeafPage, path: list[InnerPage]) -> None:
        """Split ``leaf``; one system transaction (Section 5.2.2, Page Splits)."""
        txn = self._begin_smo("split")
        txn.gate(leaf)  # before any page changes: a refusal splits nothing
        split_key = leaf.choose_split_key()
        new_leaf = LeafPage(self._storage.allocate_page_id())
        new_leaf.absorb(leaf.extract_from(split_key))
        # The new page inherits the abLSNs: every operation covered by the
        # old page's abLSN and addressed to a moved key is reflected in the
        # moved records (inherited coverage of keys that *stayed* is
        # harmless over-approximation — redo routes those keys to the old
        # page and never consults this abLSN for them).
        new_leaf.ablsns = {tc: ab.snapshot() for tc, ab in leaf.ablsns.items()}
        txn.log_page_image(new_leaf)  # physical: actual contents + abLSN
        txn.log_keys_removed(leaf, split_key)  # logical: split key only
        self._insert_separator(txn, path, leaf.page_id, split_key, new_leaf.page_id)
        txn.commit()
        self._buffer.register(new_leaf)
        self.metrics.incr("btree.leaf_splits")

    def _insert_separator(
        self,
        txn: SmoLog,
        path: list[InnerPage],
        left_id: int,
        separator: Key,
        right_id: int,
    ) -> None:
        """Post the split ``(separator, right_id)`` into the parent chain."""
        if not path:
            self._grow_root(txn, left_id, separator, right_id)
            return
        parent = path[-1]
        parent.insert_child(separator, right_id)
        if parent.fits(0, self.config.page_size):
            txn.log_page_image(parent)
            return
        # Inner split: promote the middle separator to the grandparent.
        mid = len(parent.separators) // 2
        promoted = parent.separators[mid]
        right_inner = InnerPage(self._storage.allocate_page_id())
        right_inner.separators = parent.separators[mid + 1 :]
        right_inner.children = parent.children[mid + 1 :]
        parent.separators = parent.separators[:mid]  # a new list: sized anew
        del parent.children[mid + 1 :]
        parent.dirty = True
        txn.log_page_image(right_inner)
        txn.log_page_image(parent)
        self._buffer.register(right_inner)
        self.metrics.incr("btree.inner_splits")
        self._insert_separator(
            txn, path[:-1], parent.page_id, promoted, right_inner.page_id
        )

    def _grow_root(
        self, txn: SmoLog, left_id: int, separator: Key, right_id: int
    ) -> None:
        new_root = InnerPage(self._storage.allocate_page_id())
        new_root.separators = [separator]
        new_root.children = [left_id, right_id]
        txn.log_page_image(new_root)
        txn.log_root_changed(self.name, new_root.page_id)
        self._buffer.register(new_root)
        self.root_id = new_root.page_id
        self.metrics.incr("btree.root_grows")

    def maybe_consolidate(self, key_hint: Key) -> bool:
        """Merge the leaf covering ``key_hint`` with a sibling if underfull.

        One system transaction (Section 5.2.2, Page Deletes/Consolidates):
        physical image of the surviving page with the *merged* abLSN,
        logical free of the victim.  Returns True when a merge happened.
        """
        with self.latch:
            leaf, path, _upper = self._descend(key_hint)
            if not path:  # root leaf never consolidates
                return False
            if leaf.fill_fraction(self.config.page_size) >= self.config.min_fill:
                return False
            parent = path[-1]
            index = parent.child_index(leaf.page_id)
            # Always merge a right page (victim) into its left sibling
            # (target) so the removed child is never the leftmost one.
            if index > 0:
                target_page: Page = self._fetch(parent.children[index - 1])
                victim_page: Page = leaf
            elif index + 1 < len(parent.children):
                target_page = leaf
                victim_page = self._fetch(parent.children[index + 1])
            else:
                return False  # only child: nothing to merge with
            if not isinstance(target_page, LeafPage) or not isinstance(
                victim_page, LeafPage
            ):
                return False
            target, victim = target_page, victim_page
            victim_payload = sum(r.encoded_size() for r in victim.records_in_order())
            if not target.fits(victim_payload, self.config.page_size):
                self.metrics.incr("btree.consolidation_skipped_nofit")
                return False
            if not self._horizons_compatible(target, victim):
                # The two pages sit at different low-water horizons — they
                # can only differ like this while redo is replaying onto
                # asymmetric stable baselines.  Merging then would let the
                # higher low-water falsely claim coverage of the other
                # range's still-unreplayed operations (a lost-update bug
                # this guard was added for).  Defer; the next LWM broadcast
                # re-equalizes horizons and merges resume.
                self.metrics.incr("btree.consolidation_skipped_horizon")
                return False
            try:
                self._merge_leaves(target, victim, path)
            except WriteAheadViolation:
                # The causality gate refused before anything changed.  A
                # merge is housekeeping the delete that prompted it does
                # not depend on: leave the leaves apart for a later one.
                self.metrics.incr("btree.consolidation_skipped_unstable")
                return False
            return True

    @staticmethod
    def _horizons_compatible(target: LeafPage, victim: LeafPage) -> bool:
        """True when every TC's low water agrees on both pages.

        In normal execution ``low_water_mark`` broadcasts keep all cached
        pages at one horizon per TC, so this is almost always true; during
        redo, historical baselines disagree and the merge must wait.
        Explicitly *included* LSNs are never a problem — each one is
        genuinely reflected in its page's records, so their union is
        genuinely reflected in the merged records.
        """
        for tc_id in set(target.ablsns) | set(victim.ablsns):
            a = target.ablsns.get(tc_id)
            b = victim.ablsns.get(tc_id)
            low_a = a.low_water if a is not None else None
            low_b = b.low_water if b is not None else None
            if low_a != low_b:
                return False
        return True

    def _merge_leaves(
        self, target: LeafPage, victim: LeafPage, path: list[InnerPage]
    ) -> None:
        txn = self._begin_smo("consolidate")
        txn.gate(target, victim)  # before any page changes
        target.absorb(victim.records_in_order())
        merged: dict[int, AbstractLsn] = dict(target.ablsns)
        for tc_id, ablsn in victim.ablsns.items():
            existing = merged.get(tc_id)
            merged[tc_id] = ablsn.snapshot() if existing is None else existing.merge(ablsn)
        target.ablsns = merged
        txn.log_page_image(target)  # physical, with the merged (max) abLSN
        txn.log_page_free(victim.page_id)
        parent = path[-1]
        parent.remove_child(victim.page_id)
        txn.log_page_image(parent)
        self._maybe_collapse_root(txn, path)
        txn.commit()
        self._buffer.discard(victim.page_id)
        self._storage.free_page(victim.page_id)
        self.metrics.incr("btree.consolidations")

    def _maybe_collapse_root(
        self, txn: SmoLog, path: list[InnerPage]
    ) -> None:
        root = path[0]
        if root.page_id != self.root_id or len(root.children) > 1:
            return
        only_child = root.children[0]
        txn.log_root_changed(self.name, only_child)
        txn.log_page_free(root.page_id)
        self._buffer.discard(root.page_id)
        self._storage.free_page(root.page_id)
        self.root_id = only_child
        self.metrics.incr("btree.root_collapses")

    # -- introspection (tests / experiments) ------------------------------------------

    # These three answer by *peeking* (live page if cached, else the stable
    # image, never admitted): a stats request on a table larger than the
    # pool must not evict the working set to count it.

    def _peek(self, page_id: int) -> Page | PageImage:
        page = self._buffer.peek(page_id)
        if page is None:
            raise ReproError(
                f"btree {self.name!r}: page {page_id} missing from cache and disk"
            )
        return page

    def leaf_ids(self) -> list[int]:
        """Leaves left to right.  Every leaf of a B+-tree sits at the same
        depth, so only inner pages are looked at."""
        with self.latch:
            level = [self.root_id]
            for _ in range(self.depth() - 1):
                level = [
                    child
                    for page_id in level
                    for child in self._peek(page_id).children
                ]
            return level

    def depth(self) -> int:
        with self.latch:
            depth = 1
            page = self._peek(self.root_id)
            while page.kind is PageKind.INNER:
                depth += 1
                page = self._peek(page.children[0])
            return depth

    def record_count(self) -> int:
        with self.latch:
            return sum(
                self._peek(leaf_id).record_count() for leaf_id in self.leaf_ids()
            )

    def validate(self) -> None:
        """Assert structural well-formedness; raises ReproError on damage.

        Used by tests and by DC recovery to assert the Section 4.2 recovery
        contract: "The DC index structures must be well-formed for redo
        recovery to succeed."
        """
        with self.latch:
            self._validate_node(self.root_id, None, None)

    def _validate_node(
        self, page_id: int, low: Optional[Key], high: Optional[Key]
    ) -> None:
        page = self._fetch(page_id)
        if isinstance(page, LeafPage):
            keys = page.keys()
            if keys != sorted(keys):
                raise ReproError(f"leaf {page_id} keys out of order")
            for key in keys:
                if low is not None and key < low:
                    raise ReproError(f"leaf {page_id}: key {key!r} below bound {low!r}")
                if high is not None and key >= high:
                    raise ReproError(
                        f"leaf {page_id}: key {key!r} at/above bound {high!r}"
                    )
            return
        assert isinstance(page, InnerPage)
        if len(page.children) != len(page.separators) + 1:
            raise ReproError(f"inner {page_id}: children/separator mismatch")
        if page.separators != sorted(page.separators):
            raise ReproError(f"inner {page_id}: separators out of order")
        bounds = [low, *page.separators, high]
        for index, child in enumerate(page.children):
            self._validate_node(child, bounds[index], bounds[index + 1])
