"""The fixed-page hashed heap: the paper's "simple storage structure"."""

from __future__ import annotations

import pytest

from repro.common.config import DcConfig
from repro.common.errors import PageOverflowError
from repro.common.records import VersionedRecord
from repro.dc.dclog import DcLog
from repro.dc.system_txn import SystemTransaction
from repro.sim.metrics import Metrics
from repro.storage.buffer import BufferPool
from repro.storage.disk import StableStorage
from repro.storage.heap import HashedHeap


def make_heap(bucket_count=8, page_size=4096):
    metrics = Metrics()
    storage = StableStorage(metrics)
    config = DcConfig(page_size=page_size)
    dclog = DcLog(storage, metrics)
    buffer = BufferPool(storage, config, metrics)
    heap = HashedHeap(
        "h", storage, buffer, lambda kind: SystemTransaction(kind, dclog, metrics),
        config, metrics, bucket_count=bucket_count,
    )
    return heap, storage, metrics


def put(heap, key, value="v"):
    record = VersionedRecord(key=key, committed=value)
    leaf = heap.ensure_room(key, record.encoded_size())
    leaf.put(record)
    return leaf


class TestHeapBasics:
    def test_creation_logs_buckets_durably(self):
        heap, storage, _m = make_heap(bucket_count=4)
        assert len(heap.bucket_ids) == 4
        assert storage.dc_log_length() >= 5  # 4 images + commit

    def test_put_get(self):
        heap, *_ = make_heap()
        put(heap, "a", 1)
        assert heap.get_record("a").committed == 1
        assert heap.get_record("b") is None

    def test_stable_routing(self):
        heap, *_ = make_heap()
        assert heap.find_leaf("x").page_id == heap.find_leaf("x").page_id

    def test_never_splits(self):
        heap, *_ = make_heap()
        assert heap.maybe_consolidate("x") is False

    def test_overflow_is_hard_error(self):
        heap, *_ = make_heap(bucket_count=1, page_size=256)
        with pytest.raises(PageOverflowError):
            for index in range(100):
                put(heap, index, "x" * 20)

    def test_range_is_sorted_despite_hashing(self):
        heap, *_ = make_heap()
        for key in (9, 1, 5, 3, 7):
            put(heap, key)
        assert [r.key for r in heap.iter_range(None, None)] == [1, 3, 5, 7, 9]
        assert [r.key for r in heap.iter_range(3, 7)] == [3, 5, 7]
        assert len(list(heap.iter_range(None, None, limit=2))) == 2

    def test_next_keys(self):
        heap, *_ = make_heap()
        for key in (2, 4, 6):
            put(heap, key)
        assert heap.next_keys(2, 5) == [4, 6]
        assert heap.next_keys(2, 5, inclusive=True) == [2, 4, 6]
        assert heap.next_keys(None, 2) == [2, 4]
        assert heap.next_keys(2, 5, until=4) == [4]

    def test_record_count(self):
        heap, *_ = make_heap()
        for key in range(20):
            put(heap, key)
        assert heap.record_count() == 20
