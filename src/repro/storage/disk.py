"""Stable storage with faithful crash semantics.

The paper's substrate is a disk; we substitute an in-memory store with the
two properties recovery actually depends on:

- **Atomic page writes** — a flush installs a complete
  :class:`~repro.storage.page.PageImage` or nothing.
- **Crash separation** — stable contents survive any component crash, while
  everything else (buffer pool, live pages, volatile log tails) is lost.

The store also keeps a small *stable metadata* area (table catalog, free
list, allocation high-water) written atomically by DC checkpoints, plus the
stable portion of the DC log.  Keeping them on one object models a single
disk volume owned by one DC.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Optional

from repro.common.lsn import Lsn, NULL_LSN
from repro.obs.tracing import NULL_TRACER
from repro.sim.metrics import Metrics
from repro.storage.page import PageImage

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.faults import FaultInjector


class StableStorage:
    """One DC's durable volume: pages + metadata + stable DC-log."""

    def __init__(self, metrics: Optional[Metrics] = None) -> None:
        self._pages: dict[int, PageImage] = {}
        self._metadata: dict[str, object] = {}
        self._dc_log: list[object] = []
        #: page id -> the stable DC-log records naming it, in log order.
        #: Kept by the only two code paths that change the log
        #: (:meth:`_extend_dc_log`, :meth:`_truncate_dc_log`), so the page
        #: loader never scans, or copies, the log to learn that a page is
        #: not in it.
        self._dc_log_by_page: dict[int, list[object]] = {}
        self._next_page_id = 1
        self._lock = threading.Lock()
        self.metrics = metrics or Metrics()
        self.faults: Optional["FaultInjector"] = None
        #: Set by the owning DC; NULL_TRACER keeps standalone use silent.
        self.tracer = NULL_TRACER
        self.owner = ""

    def bind_faults(self, faults: Optional["FaultInjector"], owner: str) -> None:
        """Install the owning DC's fault injector (called by the DC)."""
        self.faults = faults
        self.owner = owner

    # -- page allocation ----------------------------------------------------

    def allocate_page_id(self) -> int:
        """Durable, monotonically increasing page-id allocation.

        Real systems recover the allocation high-water from the structure
        or an allocation map; persisting the counter directly preserves the
        only property recovery needs (no id reuse across a crash).
        """
        with self._lock:
            page_id = self._next_page_id
            self._next_page_id += 1
            return page_id

    def note_allocated(self, page_id: int) -> None:
        """Advance the allocator past ids seen in replayed log records."""
        with self._lock:
            if page_id >= self._next_page_id:
                self._next_page_id = page_id + 1

    # -- pages ---------------------------------------------------------------

    def write_page(self, image: PageImage) -> None:
        if not self.tracer.enabled:
            return self._write_page(image)
        with self.tracer.span(
            "disk.page_write", component=self.owner or "disk", page_id=image.page_id
        ):
            return self._write_page(image)

    def _write_page(self, image: PageImage) -> None:
        # A crash fault here models a torn/partial write: atomic page
        # semantics make torn = nothing, and the volume's DC fail-stops
        # (the raise aborts the call before anything is installed).
        if self.faults is not None:
            from repro.sim.faults import FaultPoint

            self.faults.hit(FaultPoint.DISK_PAGE_WRITE, self.owner)
        with self._lock:
            self._pages[image.page_id] = image
            self.metrics.incr("disk.page_writes")
            self.metrics.observe("disk.page_bytes", image.encoded_size())

    def read_page(self, page_id: int) -> Optional[PageImage]:
        with self._lock:
            self.metrics.incr("disk.page_reads")
            return self._pages.get(page_id)

    def free_page(self, page_id: int) -> None:
        with self._lock:
            self._pages.pop(page_id, None)
            self.metrics.incr("disk.page_frees")

    def page_ids(self) -> list[int]:
        with self._lock:
            return list(self._pages)

    def has_page(self, page_id: int) -> bool:
        with self._lock:
            return page_id in self._pages

    # -- stable metadata (DC checkpoint area) ---------------------------------

    def write_metadata(self, key: str, value: object) -> None:
        with self._lock:
            self._metadata[key] = value

    def read_metadata(self, key: str, default: object = None) -> object:
        with self._lock:
            return self._metadata.get(key, default)

    # -- stable DC log ---------------------------------------------------------

    def append_dc_log(self, entries: list[object]) -> None:
        """Force a batch of DC-log records (a system-transaction commit)."""
        if not self.tracer.enabled:
            return self._append_dc_log(entries)
        with self.tracer.span(
            "disk.log_force", component=self.owner or "disk", records=len(entries)
        ):
            return self._append_dc_log(entries)

    def _append_dc_log(self, entries: list[object]) -> None:
        # A crash fault here is the "failed fsync": the batch never reaches
        # the stable log, so the system transaction simply never happened.
        if self.faults is not None:
            from repro.sim.faults import FaultPoint

            self.faults.hit(FaultPoint.DISK_LOG_FORCE, self.owner)
        with self._lock:
            self._extend_dc_log(entries)
            self.metrics.incr("disk.dclog_forces")

    def _extend_dc_log(self, entries: list[object]) -> None:
        # Caller holds self._lock (or is replaying before the volume opens).
        self._dc_log.extend(entries)
        by_page = self._dc_log_by_page
        for entry in entries:
            page_id = getattr(entry, "page_id", None)
            if page_id is not None:
                by_page.setdefault(page_id, []).append(entry)

    def _truncate_dc_log(self, keep_from_dlsn: Lsn) -> None:
        # Caller holds self._lock (or is replaying before the volume opens).
        kept = [
            entry
            for entry in self._dc_log
            if getattr(entry, "dlsn", NULL_LSN) >= keep_from_dlsn
        ]
        self._dc_log = []
        self._dc_log_by_page = {}
        self._extend_dc_log(kept)

    def dc_log_entries(self) -> list[object]:
        with self._lock:
            return list(self._dc_log)

    def dc_log_for_page(self, page_id: int) -> tuple[object, ...]:
        """The stable DC-log records naming ``page_id``, in log order —
        empty for a page whose stable state is its disk image alone."""
        with self._lock:
            return tuple(self._dc_log_by_page.get(page_id, ()))

    def pages_behind_dc_log(self) -> list[int]:
        """Pages whose stable state still *depends* on the DC log: named by
        a record newer than their disk image (or with no disk image).

        Truncating the log under such a page loses it — a split's new page
        that a restart rebuilt from its log image and evicted clean, a
        pre-split disk image that would get its moved keys back — so the
        DC flushes these before it truncates.  Freed pages are listed too
        (their last record is the free); the loader answers ``None``.
        """
        with self._lock:
            behind = []
            for page_id, records in self._dc_log_by_page.items():
                disk = self._pages.get(page_id)
                if disk is None or disk.dlsn < getattr(records[-1], "dlsn", NULL_LSN):
                    behind.append(page_id)
            return behind

    def truncate_dc_log(self, keep_from_dlsn: Lsn) -> None:
        """Discard DC-log records below a checkpointed dLSN."""
        with self._lock:
            self._truncate_dc_log(keep_from_dlsn)

    def dc_log_length(self) -> int:
        with self._lock:
            return len(self._dc_log)

    # -- sizing ------------------------------------------------------------------

    def total_bytes(self) -> int:
        with self._lock:
            return sum(image.encoded_size() for image in self._pages.values())

    def page_count(self) -> int:
        with self._lock:
            return len(self._pages)
