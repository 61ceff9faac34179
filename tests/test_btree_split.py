"""Where a full leaf splits (PAPER.md §5.2.2, Page Splits).

A key above every key on its leaf is an append: the leaf keeps all but its
last record, which starts the new page, and the new key joins it there.
Any other insert splits the leaf in the middle by bytes.  An ascending
load therefore leaves full leaves behind it, where a middle split left
every one of them half full for good.
"""

from __future__ import annotations

import random

from repro import KernelConfig, UnbundledKernel
from repro.common.config import DcConfig
from repro.common.records import VersionedRecord
from repro.dc.dclog import DcLog, KeysRemovedRecord, PageImageRecord
from repro.dc.system_txn import SystemTransaction
from repro.sim.metrics import Metrics
from repro.storage.btree import BTree
from repro.storage.buffer import BufferPool
from repro.storage.disk import StableStorage
from repro.storage.page import PAGE_HEADER_BYTES

KEYS = 5_000
VALUE = "v" * 100

#: Leaves a shuffled load of ``KEYS`` keys (``random.Random(1)``) ended
#: with when every split cut the leaf in the middle by bytes.
MIDDLE_SPLIT_SHUFFLED_LEAVES = 200


def load(keys):
    """A ``DcConfig()`` tree after inserting ``keys`` in order."""
    config = DcConfig()
    metrics = Metrics()
    storage = StableStorage(metrics)
    dclog = DcLog(storage, metrics)
    tree = BTree(
        "t",
        storage,
        BufferPool(storage, config, metrics),
        lambda kind: SystemTransaction(kind, dclog, metrics, lambda needed: True),
        config,
        metrics,
    )
    for key in keys:
        put(tree, key)
    tree.validate()
    return tree, storage, metrics


def put(tree: BTree, key: int) -> None:
    record = VersionedRecord(key=key, committed=VALUE)
    tree.ensure_room(key, record.encoded_size()).put(record)


def fewest_leaves(tree: BTree) -> int:
    """Leaves the tree's records need when every leaf is full."""
    payload = sum(record.encoded_size() for record in tree.iter_range(None, None))
    return -(-payload // (tree.config.page_size - PAGE_HEADER_BYTES))


class TestAppendSplit:
    def test_ascending_load_fills_its_leaves(self):
        tree, _storage, _metrics = load(range(KEYS))
        assert tree.record_count() == KEYS
        assert len(tree.leaf_ids()) <= 1.1 * fewest_leaves(tree)

    def test_append_split_moves_exactly_one_record(self):
        tree, storage, metrics = load([])
        key = 0
        while metrics.get("btree.leaf_splits") == 0:
            leaf = tree.find_leaf(key)
            before = leaf.keys()
            put(tree, key)
            key += 1
        assert leaf.keys() == before[:-1]  # the page as it was, minus its last
        new_leaf = tree.find_leaf(key - 1)
        assert new_leaf is not leaf
        assert new_leaf.keys() == [before[-1], key - 1]
        entries = storage.dc_log_entries()
        (image,) = [
            r for r in entries
            if isinstance(r, PageImageRecord) and r.page_id == new_leaf.page_id
        ]
        assert [r.key for r in image.image.records] == [before[-1]]
        (removal,) = [r for r in entries if isinstance(r, KeysRemovedRecord)]
        assert removal.page_id == leaf.page_id and removal.split_key == before[-1]

    def test_an_insert_below_the_last_key_splits_in_the_middle(self):
        tree, _storage, metrics = load(range(0, 400, 2))
        splits = metrics.get("btree.leaf_splits")
        key = 1
        while True:
            leaf = tree.find_leaf(key)
            record = VersionedRecord(key=key, committed=VALUE)
            if not leaf.fits(record.encoded_size(), tree.config.page_size):
                break
            put(tree, key)
            key += 2
        middle = leaf.choose_split_key()
        assert middle != leaf.max_key()
        put(tree, key)
        assert metrics.get("btree.leaf_splits") == splits + 1
        assert tree.find_leaf(middle) is not leaf
        assert leaf.max_key() < middle
        tree.validate()

    def test_shuffled_load_reads_every_key_at_the_middle_splits_leaf_count(self):
        keys = list(range(KEYS))
        random.Random(1).shuffle(keys)
        tree, _storage, _metrics = load(keys)
        for key in range(KEYS):
            record = tree.get_record(key)
            assert record is not None and record.committed == VALUE, key
        leaves = len(tree.leaf_ids())
        assert abs(leaves - MIDDLE_SPLIT_SHUFFLED_LEAVES) <= 0.03 * MIDDLE_SPLIT_SHUFFLED_LEAVES

    def test_dc_restart_after_an_ascending_load_reads_every_key(self):
        """Restart rebuilds the tree from the append splits in the DC log,
        then the TC's redo refills it: the same full leaves, every key back."""
        config = DcConfig(page_size=512, buffer_capacity=8)
        kernel = UnbundledKernel(KernelConfig(dc=config))
        kernel.create_table("t")
        count = 600
        for start in range(0, count, 20):
            with kernel.begin() as txn:
                for key in range(start, start + 20):
                    txn.insert("t", key, f"value-{key:05d}")
        tree = kernel.dc.table("t").structure
        leaves = len(tree.leaf_ids())
        # A 512-byte leaf holds about 17 of these records and keeps 16.
        assert leaves <= 1.2 * fewest_leaves(tree)
        assert kernel.dc.metrics.get("btree.leaf_splits") > 0
        kernel.crash_dc()
        kernel.recover_dc()
        tree = kernel.dc.table("t").structure
        tree.validate()
        assert len(tree.leaf_ids()) == leaves
        with kernel.begin() as txn:
            for key in range(count):
                assert txn.read("t", key) == f"value-{key:05d}", key
        kernel.close()
