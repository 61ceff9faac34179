"""System transactions: atomic, recoverable structure modifications.

A system transaction (Section 5.2) is a DC-internal atomic action — a page
split, a page delete/consolidate, a root change — completely unrelated to
any user transaction.  It runs under latches, stages DC-log records, and
commits by forcing them to the stable DC log as one batch.

**Causality gate.**  A physically-logged page image carries record state
produced by TC operations.  If such an image reached the *stable* DC log
while some of those operations were still only on the TC's *volatile* log,
a later TC crash would leave stable DC state reflecting operations that are
lost forever — violating the causality contract of Section 4.2.  We
therefore gate every staged page image: before commit, the system
transaction demands that each involved TC's end-of-stable-log (EOSL) cover
the image's abLSN.  The DC satisfies the demand through a *log-force
prompt* to the TC (the paper explicitly allows the DC to "spontaneously
convey information to TC", Section 4.2.1).  The number of forced syncs is a
measured cost of unbundling (experiment E-SMO).

A structure modification asks the gate *before* it changes any page
(:meth:`SystemTransaction.gate`, from the source pages' abLSNs — exactly the
operations its staged images will embed): a refusal then leaves the
structure as found and fails only the operation that needed the change.
The check at commit stays as the backstop for whatever was staged.

The gate only applies to images of pages carrying TC data; the pre-split
page is logged *logically* (split key only) precisely so its possibly
TC-unstable content never enters the DC log — the paper's design choice,
which the gate shows to be load-bearing.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.common.errors import WriteAheadViolation
from repro.common.lsn import Lsn, NULL_LSN
from repro.dc.dclog import (
    CatalogRecord,
    DcLog,
    DcLogRecord,
    KeysRemovedRecord,
    PageFreeRecord,
    PageImageRecord,
    RootChangedRecord,
)
from repro.obs.tracing import NULL_TRACER
from repro.sim import schedule as _sched
from repro.sim.metrics import Metrics
from repro.sim.schedule import YieldPoint
from repro.storage.page import Page, PageImage, PageKind

#: Callback the DC installs so a system transaction can demand log forcing:
#: ``ensure_stable({tc_id: lsn, ...})`` returns True once every TC's EOSL
#: covers the given LSN (typically by prompting the TC to force its log).
StabilityProvider = Callable[[dict[int, Lsn]], bool]


class SystemTransaction:
    """Stages DC-log records for one SMO and commits them atomically."""

    def __init__(
        self,
        kind: str,
        dclog: DcLog,
        metrics: Metrics,
        ensure_stable: Optional[StabilityProvider] = None,
    ) -> None:
        self.kind = kind
        self._dclog = dclog
        self._metrics = metrics
        # Picked up from the owning DC's log so call sites (btree, heap,
        # catalog) need no signature change.
        self._tracer = getattr(dclog, "tracer", NULL_TRACER)
        self._ensure_stable = ensure_stable
        self._records: list[DcLogRecord] = []
        #: What the gate has already granted, per TC: asked once, not
        #: again at commit.
        self._granted: dict[int, Lsn] = {}
        self._committed = False

    # -- staging -----------------------------------------------------------

    def log_page_image(self, page: Page) -> Lsn:
        """Stage a physical page-image record; returns its dLSN.

        The image is captured *now* (under the caller's latches) and the
        page's own dLSN is advanced so the record is idempotent at replay.
        Leaf images are causality-gated at commit.
        """
        dlsn = self._dclog.next_dlsn()
        page.dlsn = dlsn
        image = page.snapshot()
        self._records.append(
            PageImageRecord(dlsn=dlsn, page_id=page.page_id, image=image)
        )
        return dlsn

    def log_keys_removed(self, page: Page, split_key: object) -> Lsn:
        """Stage the logical pre-split record: only the split key."""
        dlsn = self._dclog.next_dlsn()
        page.dlsn = dlsn
        self._records.append(
            KeysRemovedRecord(dlsn=dlsn, page_id=page.page_id, split_key=split_key)
        )
        return dlsn

    def log_page_free(self, page_id: int) -> Lsn:
        dlsn = self._dclog.next_dlsn()
        self._records.append(PageFreeRecord(dlsn=dlsn, page_id=page_id))
        return dlsn

    def log_root_changed(self, table: str, new_root: int) -> Lsn:
        dlsn = self._dclog.next_dlsn()
        self._records.append(
            RootChangedRecord(dlsn=dlsn, table=table, new_root=new_root)
        )
        return dlsn

    def log_catalog(self, descriptor_meta: dict) -> Lsn:
        dlsn = self._dclog.next_dlsn()
        self._records.append(CatalogRecord(dlsn=dlsn, descriptor=descriptor_meta))
        return dlsn

    # -- the causality gate --------------------------------------------------

    def gate(self, *sources: Page) -> None:
        """Demand stability for the operations ``sources`` reflect — the
        leaves whose records the staged images are about to embed — before
        the caller changes any of them.  Raises
        :class:`WriteAheadViolation` on refusal."""
        needed: dict[int, Lsn] = {}
        for page in sources:
            self._note_requirements(needed, page.ablsns)
        self._demand(needed)

    @staticmethod
    def _note_requirements(needed: dict[int, Lsn], ablsns: dict) -> None:
        for tc_id, ablsn in ablsns.items():
            top = ablsn.max_lsn()
            if top > needed.get(tc_id, NULL_LSN):
                needed[tc_id] = top

    def _stability_requirements(self) -> dict[int, Lsn]:
        """Per-TC max operation LSN embedded in staged leaf images."""
        needed: dict[int, Lsn] = {}
        for record in self._records:
            if not isinstance(record, PageImageRecord):
                continue
            image = record.image
            if image is None or image.kind is not PageKind.LEAF:
                continue
            self._note_requirements(needed, image.ablsns)
        return needed

    def _demand(self, needed: dict[int, Lsn]) -> None:
        needed = {
            tc_id: lsn
            for tc_id, lsn in needed.items()
            if lsn > self._granted.get(tc_id, NULL_LSN)
        }
        if not needed:
            return
        if self._ensure_stable is None:
            raise WriteAheadViolation(
                f"system transaction {self.kind!r} embeds TC operations "
                f"{needed} but no stability provider is installed"
            )
        self._metrics.incr("systxn.stability_checks")
        if not self._ensure_stable(needed):
            raise WriteAheadViolation(
                f"system transaction {self.kind!r} could not make TC "
                f"operations stable: {needed}",
                needed,
            )
        self._granted.update(needed)

    # -- commit -------------------------------------------------------------

    def commit(self) -> None:
        """Gate on causality, then force the batch to the stable DC log."""
        if not self._tracer.enabled:
            return self._commit()
        with self._tracer.span(
            "dc.systxn", component="dc", kind=self.kind, records=len(self._records)
        ):
            return self._commit()

    def _commit(self) -> None:
        if self._committed:
            raise RuntimeError("system transaction already committed")
        if _sched.ACTIVE is not None:
            # Usually reached under a structure latch, where the critical-
            # section depth makes this record-only; it parks only for
            # latch-free commits (e.g. table creation).
            _sched.maybe_yield(
                YieldPoint.DC_SYSTXN, self.kind, records=len(self._records)
            )
        self._demand(self._stability_requirements())
        self._dclog.commit(self.kind, self._records)
        self._metrics.incr(f"systxn.{self.kind}")
        self._committed = True

    @property
    def committed(self) -> bool:
        return self._committed
