"""The DC's cache manager, with causality-gated flushing (Sections 4.2, 5.1, 5.3).

Partial failures make the cache manager the interesting piece of an
unbundled kernel:

- **Causality / generalized WAL**: a page may be made stable only when
  every operation it reflects is on the *TC's* stable log — i.e. for every
  TC with an abLSN on the page, ``abLSN.max_lsn() <= EOSL(tc)``.  The TC
  communicates EOSL via ``end_of_stable_log``.  Classic WAL is the same
  rule for a page's single ``page_lsn`` against the end of stable log
  noted under :data:`PAGE_LSN_LOG` (the monolithic baseline's one log).
- **Page sync** (Section 5.1.2): the abLSN must reach stable storage
  atomically with the page.  The three strategies — delay until the
  low-water covers everything, write the full abLSN, or prune first —
  are selectable per :class:`~repro.common.config.PageSyncStrategy`.
- **TC-crash reset** (Sections 5.3.2, 6.1.2): when a TC loses its log tail,
  the cache must shed exactly the state reflecting lost operations, in one
  of three modes of increasing surgical precision.
"""

from __future__ import annotations

import enum
import threading
from collections import OrderedDict
from typing import Callable, Optional

from repro.common.config import DcConfig, PageSyncStrategy
from repro.common.errors import WriteAheadViolation
from repro.common.lsn import Lsn, NULL_LSN
from repro.obs.tracing import NULL_TRACER
from repro.sim import schedule as _sched
from repro.sim.metrics import Metrics
from repro.storage.disk import StableStorage
from repro.storage.page import LeafPage, LowWaterMarks, Page, PageImage, PageKind


#: The :meth:`BufferPool.note_eosl` slot of the log a page's ``page_lsn``
#: names.  TC ids start at 1, and DC pages keep ``page_lsn`` at NULL_LSN,
#: so the clause never holds a DC page back.
PAGE_LSN_LOG = 0


class ResetMode(enum.Enum):
    """How the DC resets cached state after a TC crash (Section 5.3.2).

    - ``FULL_DROP`` — "turn a partial failure into a complete failure":
      drop every cached page.  Draconian but trivially correct.
    - ``DROP_AFFECTED`` — drop only pages whose abLSNs include lost
      operations (LSN > LSNst).
    - ``RECORD_RESET`` — on multi-TC pages, replace only the failed TC's
      records from the disk version (Section 6.1.2); drop single-TC
      affected pages.
    """

    FULL_DROP = "full_drop"
    DROP_AFFECTED = "drop_affected"
    RECORD_RESET = "record_reset"


class _OperationBracket:
    """What :meth:`BufferPool.operation` returns: enter and exit take the
    pool's plain mutex, and wait on its condition only while an eviction
    runs."""

    __slots__ = ("_pool",)

    def __init__(self, pool: "BufferPool") -> None:
        self._pool = pool

    def __enter__(self) -> None:
        pool = self._pool
        with pool._op_mutex:
            while pool._evicting:
                pool._op_cv.wait()
            pool._active_ops += 1
        # Under the schedule explorer the bracket is a critical section:
        # parking a task here while it participates in the reader/eviction
        # protocol would wedge the cooperative run token.
        _sched.enter_critical()

    def __exit__(self, *exc_info: object) -> None:
        _sched.exit_critical()
        pool = self._pool
        with pool._op_mutex:
            pool._active_ops -= 1
            if pool._active_ops or len(pool._pages) <= pool.config.buffer_capacity:
                return
            pool._evicting = True
        try:
            pool._maybe_evict()
        finally:
            with pool._op_mutex:
                pool._evicting = False
                pool._op_cv.notify_all()


class BufferPool:
    """LRU page cache for one DC.

    All calls happen under the owning structure's latch (the DC coarsens
    physical latching per tree; see DESIGN.md), so the pool itself does not
    lock.  Crash semantics: :meth:`crash` throws away everything volatile.
    """

    def __init__(
        self,
        storage: StableStorage,
        config: Optional[DcConfig] = None,
        metrics: Optional[Metrics] = None,
        loader: Optional[Callable[[int], Optional["PageImage"]]] = None,
        tracer: Optional[object] = None,
    ) -> None:
        self._storage = storage
        self.config = config or DcConfig()
        self.metrics = metrics or Metrics()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: How misses are satisfied.  The DC installs the stable-page-state
        #: reconstructor (disk + DC-log replay) so pages living only as
        #: DC-log images are still fetchable; plain disk reads otherwise.
        self._loader = loader or storage.read_page
        self._pages: OrderedDict[int, Page] = OrderedDict()
        #: Eviction runs only when no operation is in flight, so page
        #: references held by an executing operation can never be evicted
        #: out from under it (the unbundled analogue of page pinning).
        #: The active count and the eviction flag change under the plain
        #: mutex; the condition over it is used only around an eviction.
        self._op_mutex = threading.Lock()
        self._op_cv = threading.Condition(self._op_mutex)
        self._active_ops = 0
        self._evicting = False
        self._bracket = _OperationBracket(self)
        self._hits = self.metrics.counter("buffer.hits")
        self._misses = self.metrics.counter("buffer.misses")
        #: End of stable TC log, per TC (causality bound for flushes).
        self._eosl: dict[int, Lsn] = {}
        #: Last gap-free LSN, per TC (prunes {LSNin} sets as pages catch up).
        self.marks = LowWaterMarks(self.metrics.counter("buffer.lwm_catchups"))

    # -- contract state from the TC -------------------------------------------

    def note_eosl(self, tc_id: int, eosl: Lsn) -> None:
        if eosl > self._eosl.get(tc_id, NULL_LSN):
            self._eosl[tc_id] = eosl

    def note_lwm(self, tc_id: int, lwm: Lsn) -> None:
        """Record the TC's low-water mark.  No cached page is touched: each
        catches up to it when next observed (``Page.ablsns``), so a mark
        costs the same however many pages are cached."""
        self.marks.note(tc_id, lwm)

    def eosl_for(self, tc_id: int) -> Lsn:
        return self._eosl.get(tc_id, NULL_LSN)

    def lwm_for(self, tc_id: int) -> Lsn:
        return self.marks.lwm_for(tc_id)

    # -- cache access ------------------------------------------------------------

    def fetch(self, page_id: int) -> Optional[Page]:
        """Return the live page, reading it from stable storage on a miss."""
        page = self._pages.get(page_id)
        if page is not None:
            self._pages.move_to_end(page_id)
            self._hits.value += 1
            return page
        image = self._loader(page_id)
        if image is None:
            return None
        self._misses.value += 1
        page = image.materialize()
        self._admit(page)
        return page

    def peek(self, page_id: int) -> Optional[Page | PageImage]:
        """The live page when cached, else the stable image — admitting
        nothing, evicting nothing and leaving the LRU order alone.

        For introspection that must not disturb the working set
        (``stats()``).  Both answers carry ``kind``, ``children`` and
        ``record_count()``; the image is immutable and must stay so.
        """
        page = self._pages.get(page_id)
        return page if page is not None else self._loader(page_id)

    def register(self, page: Page) -> None:
        """Admit a newly created page (from a split or a fresh table)."""
        page.dirty = True
        self._admit(page)

    def discard(self, page_id: int) -> None:
        """Remove a page from the cache without flushing (reset/free)."""
        page = self._pages.pop(page_id, None)
        if page is not None:
            page.uncache()

    def cached_ids(self) -> list[int]:
        return list(self._pages)

    def cached_page(self, page_id: int) -> Optional[Page]:
        return self._pages.get(page_id)

    def operation(self) -> "_OperationBracket":
        """Bracket a DC operation (``with pool.operation():``); evictions
        are deferred to idle moments.

        Operations are "readers", eviction is the exclusive "writer": a new
        operation waits out an in-progress eviction, and eviction starts
        only when the last active operation finishes.  The bracket is one
        reusable object per pool (its state lives in the pool).
        """
        return self._bracket

    def _admit(self, page: Page) -> None:
        page.marks = marks = self.marks
        page.marks_seen = marks.seq  # it takes no mark that came before
        self._pages[page.page_id] = page
        self._pages.move_to_end(page.page_id)
        if self._active_ops == 0:
            self._maybe_evict()

    def _maybe_evict(self) -> None:
        while len(self._pages) > self.config.buffer_capacity:
            victim_id = self._pick_victim()
            if victim_id is None:
                self.metrics.incr("buffer.over_capacity")
                return
            victim = self._pages[victim_id]
            if victim.dirty and not self.try_flush(victim):
                self.metrics.incr("buffer.eviction_blocked")
                return
            del self._pages[victim_id]
            victim.uncache()
            self.metrics.incr("buffer.evictions")

    def _pick_victim(self) -> Optional[int]:
        """Oldest page that is clean or currently flushable."""
        for page_id, page in self._pages.items():
            if not page.dirty or self._flush_permitted(page):
                return page_id
        return None

    # -- flushing (causality + page sync) ----------------------------------------

    def _wal_satisfied(self, page: Page) -> bool:
        return page.page_lsn <= self._eosl.get(PAGE_LSN_LOG, NULL_LSN) and all(
            ablsn.max_lsn() <= self._eosl.get(tc_id, NULL_LSN)
            for tc_id, ablsn in page.ablsns.items()
        )

    def _sync_ready(self, page: Page) -> bool:
        strategy = self.config.sync_strategy
        if strategy is PageSyncStrategy.FULL_ABLSN:
            return True
        pending = page.pending_lsn_count()
        if strategy is PageSyncStrategy.DELAY:
            return pending == 0
        return pending <= self.config.prune_threshold

    def _flush_permitted(self, page: Page) -> bool:
        return self._wal_satisfied(page) and self._sync_ready(page)

    def try_flush(self, page: Page) -> bool:
        """Flush if causality and the sync strategy allow; report success."""
        if not page.dirty:
            return True
        if not self._wal_satisfied(page):
            self.metrics.incr("buffer.flush_blocked_wal")
            return False
        if not self._sync_ready(page):
            self.metrics.incr("buffer.flush_delayed_sync")
            return False
        if not self.tracer.enabled:
            self._flush(page)
            return True
        with self.tracer.span("buffer.flush", component="dc", page_id=page.page_id):
            self._flush(page)
        return True

    def _flush(self, page: Page) -> None:
        if self._storage.faults is not None:
            from repro.sim.faults import FaultPoint

            self._storage.faults.hit(FaultPoint.BUFFER_FLUSH, self._storage.owner)
        image = page.snapshot()
        self.metrics.observe(
            "buffer.flushed_ablsn_bytes", page.ablsn_overhead_bytes()
        )
        self.metrics.observe("buffer.flushed_pending_lsns", page.pending_lsn_count())
        self._storage.write_page(image)
        page.dirty = False
        self.metrics.incr("buffer.flushes")

    def flush_page_strict(self, page: Page) -> None:
        """Flush or raise — used by tests asserting the WAL invariant."""
        if not self._wal_satisfied(page):
            raise WriteAheadViolation(
                f"page {page.page_id} reflects operations beyond the stable TC log"
            )
        if not self.try_flush(page):
            raise WriteAheadViolation(
                f"page {page.page_id} not flushable under "
                f"{self.config.sync_strategy.value}"
            )

    def flush_for_checkpoint(self, new_rssp: Lsn) -> bool:
        """Make stable every page containing operations below ``new_rssp``.

        Returns True when every such page was flushed (so the TC may
        advance its redo scan start point), False when some page is still
        blocked by causality or the sync strategy.
        """
        all_flushed = True
        for page in list(self._pages.values()):
            if not page.dirty:
                continue
            # A dirty page might only contain operations at/above newRSSP,
            # but flushing it anyway is always safe and keeps the check
            # simple; only failures on pages with older operations matter.
            if self.try_flush(page):
                continue
            has_older_op = any(
                ablsn.low_water > NULL_LSN
                or any(lsn < new_rssp for lsn in ablsn)
                for ablsn in page.ablsns.values()
            )
            if has_older_op:
                all_flushed = False
        return all_flushed

    def flush_all(self) -> int:
        """Best-effort flush of every dirty page; returns pages flushed."""
        flushed = 0
        for page in list(self._pages.values()):
            if page.dirty and self.try_flush(page):
                flushed += 1
        return flushed

    def dirty_count(self) -> int:
        return sum(1 for page in self._pages.values() if page.dirty)

    # -- crash handling -------------------------------------------------------------

    def crash(self) -> None:
        """Lose all volatile state (the DC failed)."""
        self._drop_all()
        self._eosl.clear()
        self.marks.clear()

    def _drop_all(self) -> None:
        for page in self._pages.values():
            page.uncache()
        self._pages.clear()

    def reset_after_tc_crash(
        self, tc_id: int, stable_lsn: Lsn, mode: ResetMode = ResetMode.RECORD_RESET
    ) -> dict[str, int]:
        """Shed cached state reflecting the failed TC's lost operations.

        ``stable_lsn`` is LSNst, the largest LSN on the failed TC's stable
        log; anything above it is lost forever.  Causality guarantees no
        such state is on disk, so fixing the cache suffices.  Returns
        counts for the experiments: pages examined / dropped / record-reset
        and records replaced.
        """
        stats = {"examined": 0, "dropped": 0, "record_reset": 0, "records": 0}
        if mode is ResetMode.FULL_DROP:
            stats["examined"] = len(self._pages)
            stats["dropped"] = len(self._pages)
            self._drop_all()
            self.metrics.incr("buffer.reset_pages_dropped", stats["dropped"])
            return stats
        for page_id in list(self._pages):
            page = self._pages[page_id]
            stats["examined"] += 1
            if not page.reflects_loss(tc_id, stable_lsn):
                continue
            other_tcs = [tc for tc in page.ablsns if tc != tc_id]
            use_record_reset = (
                mode is ResetMode.RECORD_RESET
                and other_tcs
                and isinstance(page, LeafPage)
            )
            if use_record_reset:
                baseline = self._loader(page_id)
                replaced = page.reset_tc_records(tc_id, baseline)
                stats["record_reset"] += 1
                stats["records"] += replaced
                self.metrics.incr("buffer.reset_pages_record_level")
            else:
                del self._pages[page_id]
                page.uncache()
                stats["dropped"] += 1
                self.metrics.incr("buffer.reset_pages_dropped")
        return stats
