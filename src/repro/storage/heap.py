"""A fixed-page hashed heap: the paper's "simple storage structure".

Section 4.1.2: "For simple storage structures, each record lies on a fixed
page, and DC can maintain the indices easily."  Records hash to one of a
fixed set of pages, so no structure modifications (and hence no system
transactions) ever occur after creation — a useful contrast to the B-tree
for the E-SMO experiment, and a demonstration that heterogeneous access
methods coexist behind the same DC interface.

Range scans are supported but cost a full sweep (hashing destroys order);
applications that need ordered access use the B-tree.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterator, Optional

from repro.common.config import DcConfig
from repro.common.errors import PageOverflowError
from repro.common.records import Key, VersionedRecord
from repro.sim.metrics import Metrics
from repro.storage.btree import SmoLog
from repro.storage.buffer import BufferPool
from repro.storage.disk import StableStorage
from repro.storage.page import LeafPage


class HashedHeap:
    """A table stored on ``bucket_count`` fixed pages, addressed by hash."""

    def __init__(
        self,
        name: str,
        storage: StableStorage,
        buffer: BufferPool,
        begin_smo: Callable[[str], SmoLog],
        config: Optional[DcConfig] = None,
        metrics: Optional[Metrics] = None,
        bucket_count: int = 16,
        bucket_ids: Optional[list[int]] = None,
    ) -> None:
        self.name = name
        self._storage = storage
        self._buffer = buffer
        self._begin_smo = begin_smo
        self.config = config or DcConfig()
        self.metrics = metrics or Metrics()
        self.latch = threading.RLock()
        if bucket_ids is None:
            bucket_ids = self._create_buckets(bucket_count)
        self.bucket_ids = bucket_ids

    def _create_buckets(self, bucket_count: int) -> list[int]:
        """Allocate and durably log the fixed bucket pages (one sys txn)."""
        txn = self._begin_smo("heap_create")
        ids: list[int] = []
        for _ in range(bucket_count):
            page = LeafPage(self._storage.allocate_page_id())
            txn.log_page_image(page)
            self._buffer.register(page)
            ids.append(page.page_id)
        txn.commit()
        return ids

    # -- routing --------------------------------------------------------------

    def _bucket_for(self, key: Key) -> int:
        return self.bucket_ids[hash(key) % len(self.bucket_ids)]

    def find_leaf(self, key: Key) -> LeafPage:
        with self.latch:
            page = self._buffer.fetch(self._bucket_for(key))
            assert isinstance(page, LeafPage)
            return page

    def ensure_room(self, key: Key, extra_bytes: int) -> LeafPage:
        """Fixed pages cannot split; overflow is a hard error by design."""
        with self.latch:
            leaf = self.find_leaf(key)
            if not leaf.fits(extra_bytes, self.config.page_size):
                raise PageOverflowError(
                    f"heap {self.name!r}: bucket page {leaf.page_id} is full "
                    f"(fixed-page structures do not split)"
                )
            return leaf

    def maybe_consolidate(self, key_hint: Key) -> bool:
        return False  # fixed pages never merge

    # -- reads ------------------------------------------------------------------

    def get_record(self, key: Key) -> Optional[VersionedRecord]:
        with self.latch:
            leaf = self.find_leaf(key)
            with leaf.latch:
                self.metrics.incr("heap.latches")
                return leaf.get(key)

    def iter_range(
        self, low: Optional[Key], high: Optional[Key], limit: Optional[int] = None
    ) -> Iterator[VersionedRecord]:
        """Full sweep, merged into key order (hashing is unordered)."""
        with self.latch:
            matches: list[VersionedRecord] = []
            for bucket_id in self.bucket_ids:
                page = self._buffer.fetch(bucket_id)
                assert isinstance(page, LeafPage)
                matches.extend(page.range(low, high))
            matches.sort(key=lambda record: record.key)
            if limit is not None:
                matches = matches[:limit]
            yield from matches

    def next_keys(
        self,
        after: Optional[Key],
        count: int,
        until: Optional[Key] = None,
        inclusive: bool = False,
    ) -> list[Key]:
        keys: list[Key] = []
        for record in self.iter_range(None, until):
            if after is not None:
                if inclusive and record.key < after:
                    continue
                if not inclusive and record.key <= after:
                    continue
            if not record.exists_for(read_committed=False):
                continue  # invisible slot: not a probe anchor
            keys.append(record.key)
            if len(keys) >= count:
                break
        return keys

    # -- introspection -------------------------------------------------------------

    def leaf_ids(self) -> list[int]:
        return list(self.bucket_ids)

    def record_count(self) -> int:
        # Peeked, not fetched: counting must not evict the working set.
        with self.latch:
            return sum(
                self._buffer.peek(bucket_id).record_count()
                for bucket_id in self.bucket_ids
            )

    def validate(self) -> None:
        with self.latch:
            for bucket_id in self.bucket_ids:
                page = self._buffer.fetch(bucket_id)
                assert isinstance(page, LeafPage)
