"""The DC's B+-tree: structure modifications as system transactions."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import DcConfig
from repro.common.errors import PageOverflowError, WriteAheadViolation
from repro.common.records import VersionedRecord
from repro.dc.dclog import (
    DcLog,
    KeysRemovedRecord,
    PageFreeRecord,
    PageImageRecord,
    RootChangedRecord,
)
from repro.dc.system_txn import SystemTransaction
from repro.sim.metrics import Metrics
from repro.storage.btree import BTree
from repro.storage.buffer import BufferPool
from repro.storage.disk import StableStorage
from repro.storage.page import LeafPage


def make_tree(page_size=512, buffer_capacity=1000, ensure_stable=None):
    metrics = Metrics()
    storage = StableStorage(metrics)
    config = DcConfig(page_size=page_size, buffer_capacity=buffer_capacity)
    dclog = DcLog(storage, metrics)
    buffer = BufferPool(storage, config, metrics)
    # Tests that stamp abLSNs by hand act as an always-stable TC.
    tree = BTree(
        "t", storage, buffer, systxns(dclog, metrics, ensure_stable or (lambda needed: True)),
        config, metrics,
    )
    return tree, storage, buffer, dclog, metrics


def systxns(dclog, metrics, ensure_stable):
    """Structure modifications as DC system transactions behind
    ``ensure_stable``, as the DC logs them."""
    return lambda kind: SystemTransaction(kind, dclog, metrics, ensure_stable)


def put(tree, key, value="v"):
    record = VersionedRecord(key=key, committed=value)
    leaf = tree.ensure_room(key, record.encoded_size())
    leaf.put(record)
    return leaf


def remove(tree, key):
    leaf = tree.find_leaf(key)
    removed = leaf.remove(key)
    tree.maybe_consolidate(key)
    return removed


class TestBasicOps:
    def test_empty_tree(self):
        tree, *_ = make_tree()
        assert tree.get_record(1) is None
        assert tree.record_count() == 0
        assert tree.depth() == 1
        tree.validate()

    def test_put_and_get(self):
        tree, *_ = make_tree()
        put(tree, 5, "five")
        record = tree.get_record(5)
        assert record is not None and record.committed == "five"

    def test_many_inserts_split_and_stay_correct(self):
        tree, *_ = make_tree(page_size=512)
        for key in range(300):
            put(tree, key, f"value-{key:04d}")
        assert tree.record_count() == 300
        assert tree.depth() >= 2
        tree.validate()
        for key in (0, 150, 299):
            assert tree.get_record(key).committed == f"value-{key:04d}"

    def test_reverse_and_shuffled_insert_orders(self):
        for order in (range(99, -1, -1), [7, 3, 91, 45, 12, 88, 0, 99, 50]):
            tree, *_ = make_tree(page_size=512)
            for key in order:
                put(tree, key)
            tree.validate()
            assert tree.record_count() == len(list(order))

    def test_record_too_big_raises(self):
        tree, *_ = make_tree(page_size=256)
        with pytest.raises(PageOverflowError):
            put(tree, 1, "x" * 1000)


class TestRangeAndProbes:
    def _loaded(self):
        tree, *rest = make_tree(page_size=512)
        for key in range(0, 100, 2):  # evens only
            put(tree, key)
        return tree

    def test_iter_range_crosses_leaves(self):
        tree = self._loaded()
        keys = [r.key for r in tree.iter_range(10, 50)]
        assert keys == list(range(10, 51, 2))

    def test_iter_range_open_bounds(self):
        tree = self._loaded()
        assert len(list(tree.iter_range(None, None))) == 50
        assert [r.key for r in tree.iter_range(None, 6)] == [0, 2, 4, 6]
        assert [r.key for r in tree.iter_range(94, None)] == [94, 96, 98]

    def test_iter_range_limit(self):
        tree = self._loaded()
        assert len(list(tree.iter_range(None, None, limit=7))) == 7

    def test_next_keys_exclusive(self):
        tree = self._loaded()
        assert tree.next_keys(10, 3) == [12, 14, 16]
        assert tree.next_keys(11, 2) == [12, 14]

    def test_next_keys_inclusive(self):
        tree = self._loaded()
        assert tree.next_keys(10, 3, inclusive=True) == [10, 12, 14]

    def test_next_keys_until(self):
        tree = self._loaded()
        assert tree.next_keys(90, 100, until=96) == [92, 94, 96]

    def test_next_keys_from_start_and_past_end(self):
        tree = self._loaded()
        assert tree.next_keys(None, 2) == [0, 2]
        assert tree.next_keys(98, 5) == []

    def test_next_keys_crosses_leaves(self):
        tree = self._loaded()
        assert tree.next_keys(None, 50) == list(range(0, 100, 2))


class TestSplitLogging:
    def test_split_logs_new_page_physically_and_old_logically(self):
        """Section 5.2.2: new page image + split key only for the old."""
        tree, storage, _buffer, _dclog, metrics = make_tree(page_size=512)
        for key in range(60):
            put(tree, key)
        assert metrics.get("btree.leaf_splits") >= 1
        records = storage.dc_log_entries()
        images = [r for r in records if isinstance(r, PageImageRecord)]
        removals = [r for r in records if isinstance(r, KeysRemovedRecord)]
        assert images and removals
        # The new page image carries records; the pre-split record is tiny.
        assert any(r.image is not None and r.image.records for r in images)
        assert all(r.encoded_size() < 100 for r in removals)

    def test_split_preserves_ablsn_coverage(self):
        """Every operation the pre-split page reflected stays claimed by
        the page now holding the key."""
        tree, *_ = make_tree(page_size=512)
        lsn = 0
        applied: dict[int, int] = {}
        for key in range(80):
            lsn += 1
            leaf = put(tree, key)
            leaf.ablsn_for(1).include(lsn)
            applied[key] = lsn
        tree.validate()
        for key, op_lsn in applied.items():
            leaf = tree.find_leaf(key)
            assert leaf.ablsn_for(1).contains(op_lsn), key

    def test_root_grows_and_root_change_logged(self):
        tree, storage, *_ = make_tree(page_size=512)
        initial_root = tree.root_id
        for key in range(60):
            put(tree, key)
        assert tree.root_id != initial_root
        changes = [
            r for r in storage.dc_log_entries() if isinstance(r, RootChangedRecord)
        ]
        assert changes[-1].new_root == tree.root_id

    def test_deep_tree_inner_splits(self):
        tree, _s, _b, _d, metrics = make_tree(page_size=384)
        for key in range(1200):
            put(tree, key)
        assert tree.depth() >= 3
        assert metrics.get("btree.inner_splits") >= 1
        tree.validate()
        assert tree.record_count() == 1200


class _RefuseOnce:
    """A stability provider that refuses its first demand, then grants."""

    def __init__(self) -> None:
        self.demands: list[dict] = []

    def __call__(self, needed) -> bool:
        self.demands.append(dict(needed))
        return len(self.demands) > 1


def _tree_shape(tree, buffer) -> dict:
    """Every cached page's keys (leaves) or routing (inner pages)."""
    shape = {}
    for page_id in buffer.cached_ids():
        page = buffer.cached_page(page_id)
        if isinstance(page, LeafPage):
            shape[page_id] = ("leaf", page.keys(), dict(page.ablsns))
        else:
            shape[page_id] = ("inner", list(page.separators), list(page.children))
    return shape


class TestGateBeforeMutation:
    """A refused causality gate leaves the tree exactly as found: the
    stability demand is computed from the source pages' abLSNs and made
    before any page changes, so the refusal fails one operation, not the
    structure (a refusal no longer implies a dead TC whose restart would
    reset the half-built pages away)."""

    def test_refused_split_changes_nothing(self):
        gate = _RefuseOnce()
        tree, storage, buffer, _dclog, metrics = make_tree(ensure_stable=gate)
        key = 0
        while metrics.get("btree.leaf_splits") == 0:
            leaf = tree.find_leaf(key)
            leaf.ablsn_for(1).include(key + 1)  # TC operations to be stable
            if not leaf.fits(VersionedRecord(key=key, committed="v").encoded_size(), 512):
                break
            put(tree, key)
            key += 1
        before = _tree_shape(tree, buffer)
        log_before = len(storage.dc_log_entries())
        pages_before = storage.page_count()
        with pytest.raises(WriteAheadViolation) as refused:
            put(tree, key)
        assert refused.value.needed == {1: key + 1} == gate.demands[0]
        assert _tree_shape(tree, buffer) == before
        assert len(storage.dc_log_entries()) == log_before
        assert storage.page_count() == pages_before
        tree.validate()
        for present in range(key):
            assert tree.get_record(present).committed == "v"
        put(tree, key)  # granted this time: asked once, not again at commit
        assert len(gate.demands) == 2
        assert metrics.get("btree.leaf_splits") == 1
        tree.validate()
        assert tree.record_count() == key + 1

    def test_refused_merge_is_skipped_and_the_delete_stands(self):
        tree, storage, buffer, _dclog, metrics = make_tree()
        for key in range(100):
            put(tree, key).ablsn_for(1).include(key + 1)
        gate = _RefuseOnce()
        tree._begin_smo = systxns(_dclog, metrics, gate)
        removed = []
        for key in range(100):  # empty the leaves out from the left
            remove(tree, key)
            removed.append(key)
            if gate.demands:
                break
        assert gate.demands, "no leaf ever fell below min_fill"
        assert metrics.get("btree.consolidation_skipped_unstable") == 1
        assert metrics.get("btree.consolidations") == 0
        tree.validate()
        assert tree.record_count() == 100 - len(removed)
        for key in range(len(removed), 100):
            assert tree.get_record(key) is not None
        remove(tree, len(removed))  # asked again, granted: now it merges
        assert metrics.get("btree.consolidations") == 1
        tree.validate()
        assert tree.record_count() == 99 - len(removed)


class TestConsolidation:
    def test_deletes_trigger_merge_with_merged_ablsn(self):
        tree, storage, _b, _d, metrics = make_tree(page_size=512)
        lsn = 0
        for key in range(100):
            lsn += 1
            leaf = put(tree, key)
            leaf.ablsn_for(1).include(lsn)
        survivors = {}
        for key in range(100):
            if key % 4 != 0:
                remove(tree, key)
            else:
                survivors[key] = True
        tree.validate()
        assert metrics.get("btree.consolidations") >= 1
        assert tree.record_count() == len(survivors)
        # merged page images in the DC log are physical
        frees = [r for r in storage.dc_log_entries() if isinstance(r, PageFreeRecord)]
        assert frees

    def test_merge_skipped_when_no_fit(self):
        tree, *_ , metrics = make_tree(page_size=512)
        for key in range(40):
            put(tree, key, "x" * 40)
        # deleting one record leaves pages too full to merge
        remove(tree, 0)
        tree.validate()

    def test_root_collapse(self):
        tree, _s, _b, _d, metrics = make_tree(page_size=512)
        for key in range(60):
            put(tree, key)
        assert tree.depth() == 2
        for key in range(60):
            remove(tree, key)
        tree.validate()
        assert tree.record_count() == 0
        assert metrics.get("btree.root_collapses") >= 1
        assert tree.depth() == 1

    def test_merge_refused_across_low_water_horizons(self):
        """Regression: pages at unequal low-water horizons (the mid-redo
        situation) must not merge — the max-low-water rule would claim the
        lower side's unreplayed operations (a real lost-update bug found by
        the churn soak test)."""
        tree, _storage, buffer, _dclog, metrics = make_tree(page_size=512)
        for key in range(60):
            put(tree, key)
        leaf_ids = tree.leaf_ids()
        assert len(leaf_ids) >= 2
        left = tree._fetch(leaf_ids[0])
        right = tree._fetch(leaf_ids[1])
        left.ablsn_for(1).advance_low_water(700)
        right.ablsn_for(1).advance_low_water(118)  # asymmetric horizons
        # drain the right leaf to force a merge attempt
        for key in list(right.keys())[:-1]:
            remove(tree, key)
        assert metrics.get("btree.consolidation_skipped_horizon") >= 1
        tree.validate()
        # equalize horizons with an LWM broadcast: merging resumes
        buffer.note_lwm(1, 700)
        remaining = tree._fetch(tree.leaf_ids()[1])
        if remaining.record_count() > 0:
            remove(tree, remaining.min_key())
        tree.validate()

    def test_horizons_compatible_rules(self):
        from repro.storage.page import LeafPage

        a, b = LeafPage(1), LeafPage(2)
        assert BTree._horizons_compatible(a, b)  # no abLSNs at all
        a.ablsn_for(1).advance_low_water(10)
        assert not BTree._horizons_compatible(a, b)  # present vs missing
        b.ablsn_for(1).advance_low_water(10)
        assert BTree._horizons_compatible(a, b)  # equal
        a.ablsn_for(1).include(15)  # included sets may differ freely
        assert BTree._horizons_compatible(a, b)
        b.ablsn_for(2).advance_low_water(5)  # second TC only on one page
        assert not BTree._horizons_compatible(a, b)

    def test_delete_everything_then_reinsert(self):
        tree, *_ = make_tree(page_size=512)
        for key in range(80):
            put(tree, key)
        for key in range(80):
            remove(tree, key)
        for key in range(80):
            put(tree, key, "again")
        tree.validate()
        assert tree.get_record(40).committed == "again"


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=60)),
        min_size=1,
        max_size=150,
    )
)
def test_btree_matches_dict_model(steps):
    """Property: random insert/delete sequences behave like a dict."""
    tree, *_ = make_tree(page_size=384)
    model: dict[int, str] = {}
    for is_insert, key in steps:
        if is_insert:
            value = f"v{key}"
            put(tree, key, value)
            model[key] = value
        else:
            remove(tree, key)
            model.pop(key, None)
    tree.validate()
    assert tree.record_count() == len(model)
    got = {r.key: r.committed for r in tree.iter_range(None, None)}
    assert got == model
