"""DC structure recovery: well-formed indexes *before* TC redo (Section 5.2).

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
3. by :class:`DcRecoveryManager.recover_catalog` at DC restart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.common.lsn import Lsn, NULL_LSN
from repro.dc.dclog import (
    CatalogRecord,
    DcLogRecord,
    KeysRemovedRecord,
    PageFreeRecord,
    PageImageRecord,
    RootChangedRecord,
)
from repro.sim.metrics import Metrics
from repro.storage.disk import StableStorage
from repro.storage.page import LeafPage, PageImage


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
        return {
            "name": self.name,
            "kind": self.kind,
            "versioned": self.versioned,
            "root_id": self.root_id,
            "bucket_ids": list(self.bucket_ids),
            "extra": dict(self.extra),
        }

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


class DcRecoveryManager:
    """Recovers DC metadata and tracks the highest stable dLSN."""

    def __init__(self, storage: StableStorage, metrics: Optional[Metrics] = None) -> None:
        self._storage = storage
        self.metrics = metrics or Metrics()

    # -- loader for the buffer pool ------------------------------------------

    def load_page(self, page_id: int) -> Optional[PageImage]:
        return stable_page_state(self._storage, page_id)

    # -- catalog -----------------------------------------------------------------

    def save_catalog(self, descriptors: dict[str, TableDescriptor]) -> None:
        self._storage.write_metadata(
            "catalog", {name: d.to_metadata() for name, d in descriptors.items()}
        )

    def recover_catalog(self) -> dict[str, TableDescriptor]:
        """Stable catalog metadata + RootChanged replay = current catalog."""
        raw = self._storage.read_metadata("catalog", {})
        catalog = {
            name: TableDescriptor.from_metadata(entry)  # type: ignore[arg-type]
            for name, entry in raw.items()  # type: ignore[union-attr]
        }
        for record in self._storage.dc_log_entries():
            if isinstance(record, CatalogRecord) and record.descriptor is not None:
                descriptor = TableDescriptor.from_metadata(record.descriptor)
                catalog[descriptor.name] = descriptor
            elif isinstance(record, RootChangedRecord) and record.table in catalog:
                catalog[record.table].root_id = record.new_root
        self.metrics.incr("dc.catalog_recoveries")
        return catalog

    # -- log bookkeeping -------------------------------------------------------------

    def highest_stable_dlsn(self) -> Lsn:
        top = NULL_LSN
        for record in self._storage.dc_log_entries():
            if isinstance(record, DcLogRecord) and record.dlsn > top:
                top = record.dlsn
        return top

    def log_record_count(self) -> int:
        return self._storage.dc_log_length()
