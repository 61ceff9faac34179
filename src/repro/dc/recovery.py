"""DC restart: well-formed structures *before* TC redo (Section 5.2).

The recovery contract (Section 4.2) requires the DC to restore its search
structures to well-formed-ness before the TC replays any logical operation,
which moves system-transaction redo *ahead of* all TC-level recovery — out
of the original execution order.  The page-level idempotence that makes
this safe comes from dLSNs (for SMO effects) and abLSNs carried inside
physically-logged page images (for TC-operation effects).

The central primitive is :func:`stable_page_state`: the page image that
replaying the stable DC log over the stable (disk) version produces.  It is
used three ways:

1. as the buffer pool's loader, so a cache miss transparently reconstructs
   pages that exist only as DC-log images (e.g. the new page of a split
   that was never flushed);
2. as the baseline for record-level reset after a TC crash (Section 6.1.2);
3. while :func:`recover` rebuilds and validates every table at DC restart.

:func:`crash` and :func:`recover` are the DC's own failure and restart;
:func:`prompt_redo` is the out-of-band prompt that starts each TC's redo.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.common.lsn import NULL_LSN
from repro.dc.dclog import (
    CatalogRecord,
    KeysRemovedRecord,
    PageFreeRecord,
    PageImageRecord,
    RootChangedRecord,
)
from repro.sim import schedule as _sched
from repro.sim.faults import FaultPoint
from repro.sim.metrics import Metrics
from repro.storage.disk import StableStorage
from repro.storage.page import LeafPage, PageImage

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dc.data_component import DataComponent, Structure


def stable_page_state(storage: StableStorage, page_id: int) -> Optional[PageImage]:
    """The page as the stable state (disk + stable DC log) defines it.

    A page the stable DC log does not name *is* its disk image, and that
    stored (immutable) image is returned as it stands — the common case,
    and the whole cost of a buffer miss.  Otherwise replay starts from the
    disk image (if any) and applies every stable DC-log record for this
    page with a higher dLSN, in log order: a split's never-flushed new
    page, a pre-split page with keys removed, a consolidated page, a freed
    page.  Which records name the page is answered by the index the
    storage keeps beside the log (:meth:`StableStorage.dc_log_for_page`).
    Returns ``None`` when the page does not exist in stable state (never
    created, or freed).
    """
    disk = storage.read_page(page_id)
    records = storage.dc_log_for_page(page_id)
    if not records:
        return disk
    live = disk.materialize() if disk is not None else None
    for record in records:
        if isinstance(record, PageImageRecord):
            if live is None or live.dlsn < record.dlsn:
                assert record.image is not None
                live = record.image.materialize()
        elif isinstance(record, KeysRemovedRecord):
            if live is not None and live.dlsn < record.dlsn:
                assert isinstance(live, LeafPage)
                live.extract_from(record.split_key)
                live.dlsn = record.dlsn
        elif isinstance(record, PageFreeRecord):
            live = None
    return live.snapshot() if live is not None else None


@dataclass
class TableDescriptor:
    """Catalog entry: everything needed to rebuild a table object.

    ``extra`` carries opaque metadata for plug-in access methods
    (Section 1.1's extensibility: custom structures registered with
    :meth:`~repro.dc.data_component.DataComponent.register_structure_kind`
    persist whatever they need to rebuild themselves here).
    """

    name: str
    kind: str  # "btree" | "heap" | a registered custom kind
    versioned: bool = False
    root_id: int = 0
    bucket_ids: list[int] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def to_metadata(self) -> dict[str, object]:
        return asdict(self)

    @staticmethod
    def from_metadata(raw: dict[str, object]) -> "TableDescriptor":
        return TableDescriptor(
            name=str(raw["name"]),
            kind=str(raw["kind"]),
            versioned=bool(raw["versioned"]),
            root_id=int(raw["root_id"]),  # type: ignore[arg-type]
            bucket_ids=list(raw["bucket_ids"]),  # type: ignore[arg-type]
            extra=dict(raw.get("extra", {})),  # type: ignore[arg-type]
        )


@dataclass
class TableHandle:
    descriptor: TableDescriptor
    structure: "Structure"


# -- the catalog ----------------------------------------------------------------------


def save_catalog(storage: StableStorage, descriptors: dict[str, TableDescriptor]) -> None:
    storage.write_metadata(
        "catalog", {name: d.to_metadata() for name, d in descriptors.items()}
    )


def recover_catalog(storage: StableStorage, metrics: Metrics) -> dict[str, TableDescriptor]:
    """Stable catalog metadata + RootChanged replay = current catalog."""
    raw = storage.read_metadata("catalog", {})
    catalog = {
        name: TableDescriptor.from_metadata(entry)  # type: ignore[arg-type]
        for name, entry in raw.items()  # type: ignore[union-attr]
    }
    for record in storage.dc_log_entries():
        if isinstance(record, CatalogRecord) and record.descriptor is not None:
            descriptor = TableDescriptor.from_metadata(record.descriptor)
            catalog[descriptor.name] = descriptor
        elif isinstance(record, RootChangedRecord) and record.table in catalog:
            catalog[record.table].root_id = record.new_root
    metrics.incr("dc.catalog_recoveries")
    return catalog


# -- failure and restart -------------------------------------------------------------


def crash(dc: "DataComponent") -> None:
    """Lose all volatile state; stable storage survives."""
    if _sched.ACTIVE is not None:
        _sched.note_event("dc.crash", dc.name)
    dc._crashed = True
    # A request dispatched against one incarnation must not complete
    # against the next: in a real process the crash kills its thread.
    dc._incarnation += 1
    dc.buffer.crash()
    dc._tables.clear()
    dc.writes.forget()
    dc.metrics.incr("dc.crashes")
    for listener in list(dc.on_crash):
        listener(dc.name, "dc")


def recover(dc: "DataComponent", notify_tcs: bool = True) -> dict[str, object]:
    """Rebuild the catalog and well-formed structures (Section 5.2.2).

    System-transaction effects replay (via the stable-page loader)
    *before* any TC redo is accepted; each table is validated to assert
    the well-formedness contract.  Optionally prompts registered TCs to
    begin their redo ("an out-of-band prompt is passed to TC").
    """
    if dc.faults is not None:
        dc.faults.hit(FaultPoint.DC_RESTART, dc.name)
    if _sched.ACTIVE is not None:
        _sched.note_event("dc.recover.begin", dc.name)
    with dc.catalog_lock:
        dc.buffer.crash()
        catalog = recover_catalog(dc.storage, dc.metrics)
        stable = dc.dclog.stable_records()
        dc.dclog.advance_past(max((r.dlsn for r in stable), default=NULL_LSN))
        dc._tables = {}
        for name, descriptor in catalog.items():
            structure = dc._build_structure(descriptor, fresh=False)
            structure.validate()
            dc._tables[name] = TableHandle(descriptor, structure)
        dc.versions.recover(dc._tables.values())
        dc.contract.open_redo_window(notify_tcs)
        dc._crashed = False
        dc.metrics.incr("dc.recoveries")
    if _sched.ACTIVE is not None:
        # Structures are rebuilt and validated: redo may now apply.
        _sched.note_event("dc.recover.ready", dc.name)
    if notify_tcs:
        prompt_redo(dc)
    return {"tables": len(dc._tables)}


def prompt_redo(dc: "DataComponent") -> None:
    """Out-of-band prompt to every registered TC: this DC restarted and
    lost its cache, begin redo from the redo scan start point.  Safe to
    repeat — a duplicate prompt's redo stream is absorbed by abLSNs — so a
    supervisor can retry it until it completes."""
    for prompt in list(dc.contract.restart_prompts.values()):
        prompt(dc)
