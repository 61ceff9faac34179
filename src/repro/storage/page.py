"""Pages: the physical unit the DC manages and the TC never sees.

Leaf pages hold :class:`~repro.common.records.VersionedRecord` slots in key
order.  Inner pages hold separator keys routing to child pages.  Every page
carries:

- ``dlsn`` — the DC-log LSN of the last structure modification reflected in
  the page (Section 5.2.2), making system-transaction redo idempotent;
- one :class:`~repro.common.lsn.AbstractLsn` *per TC* with data on the page
  (Section 6.1.1), making TC logical redo idempotent under out-of-order
  execution;
- a record→TC association (``VersionedRecord.owner_tc``, the paper's
  two-byte chain offsets) enabling *record-level reset* after a TC crash
  (Section 6.1.2) so co-resident TCs keep their cached work.

The byte-budget space model (``used_bytes`` vs the configured page size)
is what triggers splits and consolidations in the B-tree.
"""

from __future__ import annotations

import bisect
import enum
import threading
from typing import Callable, Iterable, Iterator, Optional

from repro.common.lsn import AbstractLsn, Lsn, NULL_LSN
from repro.common.records import Key, VersionedRecord, sizeof_key

#: Fixed header bytes per page in the space model.
PAGE_HEADER_BYTES = 64

#: Bytes per child entry on an inner page (separator handled separately).
INNER_ENTRY_BYTES = 8


class PageKind(enum.Enum):
    LEAF = "leaf"
    INNER = "inner"


class Page:
    """State common to leaf and inner pages."""

    kind: PageKind

    def __init__(self, page_id: int) -> None:
        self.page_id = page_id
        #: DC-log LSN of the last SMO applied to this page.
        self.dlsn: Lsn = NULL_LSN
        #: Per-TC abstract LSNs (Section 6.1.1).
        self.ablsns: dict[int, AbstractLsn] = {}
        #: Classic single page LSN — used only by the monolithic baseline
        #: engine (the unbundled DC never stores one; that is the point).
        self.page_lsn: Lsn = NULL_LSN
        #: Short-duration physical latch (Section 4.1.2 item 1).
        self.latch = threading.RLock()
        self.dirty = False

    # -- abLSN management -------------------------------------------------

    def ablsn_for(self, tc_id: int) -> AbstractLsn:
        """The abLSN tracking this TC's operations, created on demand."""
        ablsn = self.ablsns.get(tc_id)
        if ablsn is None:
            ablsn = AbstractLsn()
            self.ablsns[tc_id] = ablsn
        return ablsn

    def max_lsn(self, tc_id: int) -> Lsn:
        ablsn = self.ablsns.get(tc_id)
        return ablsn.max_lsn() if ablsn is not None else NULL_LSN

    def reflects_loss(self, tc_id: int, stable_lsn: Lsn) -> bool:
        """Does this page include effects of the TC's *lost* operations?

        After a TC crash, operations with LSN > ``stable_lsn`` are gone
        forever; a cached page reflecting any of them must be reset
        (Section 5.3.2).
        """
        ablsn = self.ablsns.get(tc_id)
        if ablsn is None:
            return False
        return bool(ablsn.lsns_above(stable_lsn))

    def ablsn_overhead_bytes(self) -> int:
        """Space the abLSNs would occupy if written with the page."""
        return sum(ablsn.encoded_size() for ablsn in self.ablsns.values())

    def pending_lsn_count(self) -> int:
        return sum(ablsn.pending_count() for ablsn in self.ablsns.values())

    # -- space model (subclasses refine) ----------------------------------

    def used_bytes(self) -> int:
        raise NotImplementedError

    def snapshot(self) -> "PageImage":
        raise NotImplementedError


class LeafPage(Page):
    """A slotted leaf page holding records in key order.  The slot table
    is the page's own; the records are immutable values it may share with
    images and sibling pages, so a change is a :meth:`put` of a new
    record, never a write to the old one."""

    kind = PageKind.LEAF

    def __init__(self, page_id: int) -> None:
        super().__init__(page_id)
        self._keys: list[Key] = []
        self._records: dict[Key, VersionedRecord] = {}
        self._used = PAGE_HEADER_BYTES

    # -- record access -----------------------------------------------------

    def get(self, key: Key) -> Optional[VersionedRecord]:
        return self._records.get(key)

    def record_count(self) -> int:
        return len(self._keys)

    def keys(self) -> list[Key]:
        return list(self._keys)

    def records_in_order(self) -> Iterator[VersionedRecord]:
        for key in self._keys:
            yield self._records[key]

    def range(self, low: Optional[Key], high: Optional[Key]) -> Iterator[VersionedRecord]:
        """Records with low <= key <= high, in key order (open bounds=None)."""
        start = 0 if low is None else bisect.bisect_left(self._keys, low)
        for key in self._keys[start:]:
            if high is not None and key > high:
                break
            yield self._records[key]

    def keys_after(self, after: Optional[Key]) -> Iterator[Key]:
        """Keys strictly greater than ``after`` (all keys when None)."""
        start = 0 if after is None else bisect.bisect_right(self._keys, after)
        yield from self._keys[start:]

    def keys_from(self, low: Optional[Key]) -> Iterator[Key]:
        """Keys at or above ``low`` (all keys when None)."""
        start = 0 if low is None else bisect.bisect_left(self._keys, low)
        yield from self._keys[start:]

    def min_key(self) -> Optional[Key]:
        return self._keys[0] if self._keys else None

    def max_key(self) -> Optional[Key]:
        return self._keys[-1] if self._keys else None

    # -- record mutation ---------------------------------------------------

    def put(
        self,
        record: VersionedRecord,
        delta: Optional[int] = None,
        page_size: Optional[int] = None,
    ) -> bool:
        """Insert or replace the record slot.

        ``delta`` lets a caller that already sized the change avoid
        re-walking both records; it must equal the size difference between
        ``record`` and the current slot.  Given a ``page_size``, a put the
        page has no room for is refused: False, and nothing changes."""
        old = self._records.get(record.key)
        if delta is None:
            delta = record.encoded_size() - (old.encoded_size() if old else 0)
        if page_size is not None and self._used + delta > page_size:
            return False
        if old is None:
            bisect.insort(self._keys, record.key)
        self._records[record.key] = record
        self._used += delta
        self.dirty = True
        return True

    def remove(self, key: Key) -> Optional[VersionedRecord]:
        """Remove the slot entirely (physical removal); returns it."""
        record = self._records.pop(key, None)
        if record is None:
            return None
        index = bisect.bisect_left(self._keys, key)
        del self._keys[index]
        self._used -= record.encoded_size()
        self.dirty = True
        return record

    # -- space model ---------------------------------------------------------

    def used_bytes(self) -> int:
        return self._used

    def fits(self, extra_bytes: int, page_size: int) -> bool:
        return self._used + extra_bytes <= page_size

    def fill_fraction(self, page_size: int) -> float:
        payload = self._used - PAGE_HEADER_BYTES
        return payload / max(page_size - PAGE_HEADER_BYTES, 1)

    # -- structure modification helpers ------------------------------------

    def choose_split_key(self) -> Key:
        """Key at which to split: first key of the upper half by bytes."""
        if len(self._keys) < 2:
            raise ValueError("cannot split a page with fewer than 2 records")
        target = (self._used - PAGE_HEADER_BYTES) / 2
        acc = 0
        for index, key in enumerate(self._keys):
            acc += self._records[key].encoded_size()
            if acc >= target and index + 1 < len(self._keys):
                return self._keys[index + 1]
        return self._keys[-1]

    def extract_from(self, split_key: Key) -> list[VersionedRecord]:
        """Remove and return all records with key >= split_key."""
        index = bisect.bisect_left(self._keys, split_key)
        moving_keys = self._keys[index:]
        moved = []
        for key in moving_keys:
            record = self._records.pop(key)
            self._used -= record.encoded_size()
            moved.append(record)
        del self._keys[index:]
        self.dirty = True
        return moved

    def absorb(self, records: Iterable[VersionedRecord]) -> None:
        for record in records:
            self.put(record)

    # -- record-level reset (Section 6.1.2) ---------------------------------

    def reset_tc_records(self, tc_id: int, disk_image: Optional["PageImage"]) -> int:
        """Replace this TC's records with the stable (disk) versions.

        Records owned by other TCs are untouched, so their TCs neither lose
        cached work nor replay logs.  Returns the number of slots changed.
        ``disk_image`` is ``None`` when the page has never been flushed —
        then the TC's records simply disappear (they were born after the
        last flush and are covered by the failed TC's redo).
        """
        changed = 0
        for key in [k for k in self._keys if self._records[k].owner_tc == tc_id]:
            self.remove(key)
            changed += 1
        if disk_image is not None:
            for record in disk_image.records:
                if record.owner_tc == tc_id:
                    self.put(record)
                    changed += 1
            disk_ablsn = disk_image.ablsns.get(tc_id)
            self.ablsns[tc_id] = (
                disk_ablsn.snapshot() if disk_ablsn is not None else AbstractLsn()
            )
        else:
            self.ablsns[tc_id] = AbstractLsn()
        self.dirty = True
        return changed

    # -- snapshot ------------------------------------------------------------

    def snapshot(self) -> "PageImage":
        return PageImage(
            page_id=self.page_id,
            kind=self.kind,
            dlsn=self.dlsn,
            ablsns={tc: ab.snapshot() for tc, ab in self.ablsns.items()},
            records=tuple(map(self._records.__getitem__, self._keys)),
            page_lsn=self.page_lsn,
            records_bytes=self._used - PAGE_HEADER_BYTES,
        )

    def __repr__(self) -> str:
        return f"LeafPage(id={self.page_id}, n={len(self._keys)}, dlsn={self.dlsn})"


class InnerPage(Page):
    """An index page: separators s1..sn route keys among children c0..cn.

    Child ``c_i`` covers keys ``s_i <= key < s_{i+1}`` (with open ends).
    """

    kind = PageKind.INNER

    def __init__(self, page_id: int) -> None:
        super().__init__(page_id)
        self.separators: list[Key] = []
        self.children: list[int] = []
        #: The separators' byte total, kept by insert / remove_child; a list
        #: put in place whole is sized afresh.  Nothing else edits it in place.
        self._sized: Optional[list[Key]] = None
        self._separator_bytes = 0

    def child_for(self, key: Key) -> int:
        index = bisect.bisect_right(self.separators, key)
        return self.children[index]

    def child_index(self, child_id: int) -> int:
        return self.children.index(child_id)

    def insert_child(self, separator: Key, child_id: int) -> None:
        """Register a new right-sibling created by a split."""
        index = bisect.bisect_left(self.separators, separator)
        self.separators.insert(index, separator)
        self.children.insert(index + 1, child_id)
        self._separator_bytes += sizeof_key(separator)
        self.dirty = True

    def remove_child(self, child_id: int) -> None:
        """Drop a consolidated-away child and its separator."""
        index = self.children.index(child_id)
        if index == 0:
            raise ValueError("cannot remove the leftmost child")
        del self.children[index]
        self._separator_bytes -= sizeof_key(self.separators.pop(index - 1))
        self.dirty = True

    def used_bytes(self) -> int:
        if self._sized is not self.separators:
            self._sized = self.separators
            self._separator_bytes = sum(map(sizeof_key, self.separators))
        return (
            PAGE_HEADER_BYTES
            + self._separator_bytes
            + INNER_ENTRY_BYTES * len(self.children)
        )

    def fits(self, extra_bytes: int, page_size: int) -> bool:
        return self.used_bytes() + extra_bytes <= page_size

    def snapshot(self) -> "PageImage":
        return PageImage(
            page_id=self.page_id,
            kind=self.kind,
            dlsn=self.dlsn,
            ablsns={tc: ab.snapshot() for tc, ab in self.ablsns.items()},
            separators=tuple(self.separators),
            children=tuple(self.children),
            page_lsn=self.page_lsn,
            records_bytes=self.used_bytes() - PAGE_HEADER_BYTES,
        )

    def __repr__(self) -> str:
        return (
            f"InnerPage(id={self.page_id}, children={len(self.children)}, "
            f"dlsn={self.dlsn})"
        )


class PageImage:
    """An immutable point-in-time image of a page.

    This is what stable storage holds, what physical DC-log records carry
    (Section 5.2.2: the new page of a split, the consolidated page of a
    delete), and what record-level reset reads back.

    :meth:`materialize` relies on two invariants, both established by the
    one producer of leaf images, :meth:`LeafPage.snapshot`:

    - ``records`` are in strictly ascending key order, so the live page's
      key list is built from the tuple as it stands, with no sort;
    - ``records_bytes`` is the page's payload in the space model — the sum
      of a leaf's records' ``encoded_size()`` (``LeafPage._used`` less the
      header at snapshot time), the separators and child entries of an
      inner page; computed here when a caller builds an image by hand —
      so neither the rebuilt page's ``used_bytes()`` nor
      :meth:`encoded_size` re-walks them.

    An image and a live page *share* record objects: ``snapshot()`` and
    ``materialize()`` copy the slot table, never a slot.  That is safe
    because a record reachable from a page or an image is never written
    again (``VersionedRecord`` refuses) — a change puts a new record in
    the live page's slot — and it makes an unchanged slot the same object
    in both images (:meth:`delta_from`).  abLSNs *are* mutated in place
    and stay copied.
    """

    __slots__ = (
        "page_id",
        "kind",
        "dlsn",
        "ablsns",
        "records",
        "separators",
        "children",
        "page_lsn",
        "records_bytes",
    )

    def __init__(
        self,
        page_id: int,
        kind: PageKind,
        dlsn: Lsn,
        ablsns: dict[int, AbstractLsn],
        records: tuple[VersionedRecord, ...] = (),
        separators: tuple[Key, ...] = (),
        children: tuple[int, ...] = (),
        page_lsn: Lsn = NULL_LSN,
        records_bytes: Optional[int] = None,
    ) -> None:
        self.page_id = page_id
        self.kind = kind
        self.dlsn = dlsn
        self.ablsns = ablsns
        self.records = records
        self.separators = separators
        self.children = children
        self.page_lsn = page_lsn
        if records_bytes is None:
            records_bytes = (
                sum(record.encoded_size() for record in records)
                + sum(sizeof_key(s) for s in separators)
                + INNER_ENTRY_BYTES * len(children)
            )
        self.records_bytes = records_bytes

    def materialize(self) -> Page:
        """Rebuild a live page object from this image."""
        page: Page
        if self.kind is PageKind.LEAF:
            leaf = LeafPage(self.page_id)
            keys = [record.key for record in self.records]
            leaf._keys = keys
            leaf._records = dict(zip(keys, self.records))
            leaf._used = PAGE_HEADER_BYTES + self.records_bytes
            page = leaf
        else:
            inner = InnerPage(self.page_id)
            inner.separators = inner._sized = list(self.separators)
            inner.children = list(self.children)
            inner._separator_bytes = self.records_bytes - INNER_ENTRY_BYTES * len(
                self.children
            )
            page = inner
        page.dlsn = self.dlsn
        page.ablsns = {tc: ab.snapshot() for tc, ab in self.ablsns.items()}
        page.page_lsn = self.page_lsn
        return page

    def record_count(self) -> int:
        return len(self.records)

    def encoded_size(self) -> int:
        return (
            PAGE_HEADER_BYTES
            + self.records_bytes
            + sum(ab.encoded_size() for ab in self.ablsns.values())
        )

    def _ablsn_fields(self) -> list:
        return [(tc, ab.low_water, tuple(ab)) for tc, ab in self.ablsns.items()]

    def delta_from(self, base: Optional["PageImage"]) -> Optional[tuple]:
        """This leaf image as a change to ``base`` (the journal's delta
        frame; :func:`image_from_delta` undoes it), or ``None`` when a
        whole image should be written: no base, an inner page, or half the
        leaf or more differs — the saving is then under 2x, and a whole
        image ends the chain replay has to follow.

        A slot differs when it is not the *same object* as the base's,
        exact for every slot the page did not touch.  Not ``==``: that
        calls ``1``, ``1.0`` and ``True`` the same, and replay must return
        what was written.
        """
        if base is None or not (self.kind is base.kind is PageKind.LEAF):
            return None
        gone = {record.key: record for record in base.records}
        changed = [tuple(r) for r in self.records if gone.pop(r.key, None) is not r]
        if 2 * (len(changed) + len(gone)) >= len(self.records):
            return None
        return (
            self.page_id,
            self.dlsn,
            self._ablsn_fields(),
            self.page_lsn,
            self.records_bytes,
            changed,
            list(gone),
        )

    def __reduce__(self) -> tuple:
        """Pickle as plain field tuples (the journal's page frame).

        One tuple per record (in ``VersionedRecord`` field order) and per
        abLSN instead of each object's class reference and attribute-name
        dictionary: about a fifth fewer bytes and less than half the time
        for a full leaf.
        """
        return (
            _image_from_fields,
            (
                self.page_id,
                self.kind is PageKind.LEAF,
                self.dlsn,
                self._ablsn_fields(),
                list(map(tuple, self.records)),
                self.separators,
                self.children,
                self.page_lsn,
                self.records_bytes,
            ),
        )

    def __repr__(self) -> str:
        return f"PageImage(id={self.page_id}, kind={self.kind.value}, dlsn={self.dlsn})"


def _image_from_fields(
    page_id: int,
    is_leaf: bool,
    dlsn: Lsn,
    ablsns: list,
    records: list,
    separators: tuple,
    children: tuple,
    page_lsn: Lsn,
    records_bytes: int,
) -> PageImage:
    """Inverse of :meth:`PageImage.__reduce__`."""
    return PageImage(
        page_id,
        PageKind.LEAF if is_leaf else PageKind.INNER,
        dlsn,
        {tc: AbstractLsn(low, included) for tc, low, included in ablsns},
        tuple(map(VersionedRecord._make, records)),
        separators,
        children,
        page_lsn,
        records_bytes,
    )


def image_from_delta(base: PageImage, delta: tuple) -> PageImage:
    """Inverse of :meth:`PageImage.delta_from`: ``base`` with the removed
    keys dropped and the changed slots replaced; untouched slots stay the
    base's own objects."""
    page_id, dlsn, ablsns, page_lsn, records_bytes, changed, removed = delta
    slots = {record.key: record for record in base.records}
    for key in removed:
        del slots[key]
    for fields in changed:
        slots[fields[0]] = VersionedRecord._make(fields)
    return PageImage(
        page_id,
        PageKind.LEAF,
        dlsn,
        {tc: AbstractLsn(low, included) for tc, low, included in ablsns},
        tuple(map(slots.__getitem__, sorted(slots))),
        page_lsn=page_lsn,
        records_bytes=records_bytes,
    )
