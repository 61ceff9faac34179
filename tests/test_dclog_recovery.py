"""DC log, system transactions, the causality gate, stable-page replay."""

from __future__ import annotations

import pytest

from repro.common.config import DcConfig
from repro.common.errors import WriteAheadViolation
from repro.common.records import VersionedRecord
from repro.dc.dclog import (
    DcLog,
    KeysRemovedRecord,
    PageFreeRecord,
    PageImageRecord,
    SysTxnCommitRecord,
)
from repro.dc.recovery import (
    TableDescriptor,
    recover_catalog,
    save_catalog,
    stable_page_state,
)
from repro.dc.system_txn import SystemTransaction
from repro.sim.metrics import Metrics
from repro.storage.disk import StableStorage
from repro.storage.page import LeafPage


def make_env():
    metrics = Metrics()
    storage = StableStorage(metrics)
    dclog = DcLog(storage, metrics)
    return storage, dclog, metrics


def leaf_with(page_id, keys, tc_lsns=()):
    leaf = LeafPage(page_id)
    for key in keys:
        leaf.put(VersionedRecord(key=key, committed=f"v{key}", owner_tc=1))
    for lsn in tc_lsns:
        leaf.ablsn_for(1).include(lsn)
    return leaf


class TestSystemTransactionCommit:
    def test_commit_forces_batch_with_commit_record(self):
        storage, dclog, metrics = make_env()
        txn = SystemTransaction("split", dclog, metrics, lambda needed: True)
        leaf = leaf_with(1, [1, 2])
        txn.log_page_image(leaf)
        txn.log_keys_removed(leaf, split_key=2)
        txn.commit()
        records = storage.dc_log_entries()
        assert isinstance(records[-1], SysTxnCommitRecord)
        assert any(isinstance(r, PageImageRecord) for r in records)
        assert any(isinstance(r, KeysRemovedRecord) for r in records)

    def test_dlsns_assigned_in_order_and_stamped_on_pages(self):
        storage, dclog, metrics = make_env()
        txn = SystemTransaction("split", dclog, metrics, lambda needed: True)
        leaf = leaf_with(1, [1])
        d1 = txn.log_page_image(leaf)
        d2 = txn.log_keys_removed(leaf, split_key=1)
        assert d2 > d1
        assert leaf.dlsn == d2

    def test_abandoned_txn_leaves_no_stable_trace(self):
        storage, dclog, metrics = make_env()
        txn = SystemTransaction("split", dclog, metrics, lambda needed: True)
        txn.log_page_image(leaf_with(1, [1]))
        # never committed
        assert storage.dc_log_length() == 0

    def test_double_commit_rejected(self):
        _s, dclog, metrics = make_env()
        txn = SystemTransaction("x", dclog, metrics, None)
        txn.commit()
        with pytest.raises(RuntimeError):
            txn.commit()


class TestCausalityGate:
    """Leaf images embedding TC operations must be TC-stable before the
    DC log forces them (see dc/system_txn.py docstring)."""

    def test_gate_prompts_for_embedded_tc_ops(self):
        _s, dclog, metrics = make_env()
        prompts: list[dict] = []

        def provider(needed):
            prompts.append(dict(needed))
            return True

        txn = SystemTransaction("split", dclog, metrics, provider)
        txn.log_page_image(leaf_with(1, [1], tc_lsns=[7, 9]))
        txn.commit()
        assert prompts == [{1: 9}]  # the max embedded LSN per TC

    def test_gate_failure_blocks_commit(self):
        _s, dclog, metrics = make_env()
        txn = SystemTransaction("split", dclog, metrics, lambda needed: False)
        txn.log_page_image(leaf_with(1, [1], tc_lsns=[7]))
        with pytest.raises(WriteAheadViolation):
            txn.commit()

    def test_no_provider_with_tc_ops_blocks(self):
        _s, dclog, metrics = make_env()
        txn = SystemTransaction("split", dclog, metrics, None)
        txn.log_page_image(leaf_with(1, [1], tc_lsns=[7]))
        with pytest.raises(WriteAheadViolation):
            txn.commit()

    def test_clean_images_need_no_gate(self):
        _s, dclog, metrics = make_env()
        txn = SystemTransaction("create", dclog, metrics, None)
        txn.log_page_image(leaf_with(1, []))  # no TC ops embedded
        txn.commit()

    def test_logical_records_bypass_gate(self):
        """The pre-split page is logged by split key only — its possibly
        TC-unstable contents never reach the stable DC log, which is why
        the paper's logical choice is load-bearing."""
        _s, dclog, metrics = make_env()
        txn = SystemTransaction("split", dclog, metrics, None)
        dirty_leaf = leaf_with(1, [1, 2], tc_lsns=[99])  # unstable op
        txn.log_keys_removed(dirty_leaf, split_key=2)
        txn.commit()  # no gate needed


class TestStablePageState:
    def test_missing_page_is_none(self):
        storage, _d, _m = make_env()
        assert stable_page_state(storage, 42) is None

    def test_disk_only(self):
        storage, _d, _m = make_env()
        storage.write_page(leaf_with(1, [1, 2]).snapshot())
        state = stable_page_state(storage, 1)
        assert state is not None and len(state.records) == 2

    def test_log_image_overrides_older_disk(self):
        storage, dclog, metrics = make_env()
        old = leaf_with(1, [1])
        storage.write_page(old.snapshot())
        txn = SystemTransaction("split", dclog, metrics, lambda n: True)
        newer = leaf_with(1, [1, 2, 3])
        txn.log_page_image(newer)
        txn.commit()
        state = stable_page_state(storage, 1)
        assert len(state.records) == 3

    def test_newer_disk_wins_over_older_log_image(self):
        storage, dclog, metrics = make_env()
        txn = SystemTransaction("split", dclog, metrics, lambda n: True)
        image_page = leaf_with(1, [1])
        txn.log_page_image(image_page)
        txn.commit()
        newer = leaf_with(1, [1, 2])
        newer.dlsn = dclog.last_dlsn + 5
        storage.write_page(newer.snapshot())
        state = stable_page_state(storage, 1)
        assert len(state.records) == 2

    def test_keys_removed_applied_to_older_state(self):
        storage, dclog, metrics = make_env()
        storage.write_page(leaf_with(1, [1, 2, 3, 4]).snapshot())
        txn = SystemTransaction("split", dclog, metrics, None)
        live = leaf_with(1, [1, 2, 3, 4])
        txn.log_keys_removed(live, split_key=3)
        txn.commit()
        state = stable_page_state(storage, 1)
        assert [r.key for r in state.records] == [1, 2]

    def test_keys_removed_skipped_on_newer_state(self):
        storage, dclog, metrics = make_env()
        txn = SystemTransaction("split", dclog, metrics, None)
        live = leaf_with(1, [1, 2, 3, 4])
        txn.log_keys_removed(live, split_key=3)
        txn.commit()
        # disk version written after the split already lacks those keys
        post = leaf_with(1, [1, 2])
        post.dlsn = live.dlsn
        storage.write_page(post.snapshot())
        state = stable_page_state(storage, 1)
        assert [r.key for r in state.records] == [1, 2]

    def test_page_free_erases(self):
        storage, dclog, metrics = make_env()
        storage.write_page(leaf_with(1, [1]).snapshot())
        txn = SystemTransaction("merge", dclog, metrics, None)
        txn.log_page_free(1)
        txn.commit()
        assert stable_page_state(storage, 1) is None

    def test_ablsns_survive_replay(self):
        """Physical images carry abLSNs so TC idempotence stays exact
        after SMO replay (Section 5.2.2)."""
        storage, dclog, metrics = make_env()
        txn = SystemTransaction("split", dclog, metrics, lambda n: True)
        page = leaf_with(1, [1], tc_lsns=[5, 9])
        txn.log_page_image(page)
        txn.commit()
        state = stable_page_state(storage, 1)
        assert state.ablsns[1].contains(9)
        assert not state.ablsns[1].contains(6)


class TestCatalogRecovery:
    def test_catalog_record_replayed(self):
        storage, dclog, metrics = make_env()
        txn = SystemTransaction("catalog", dclog, metrics, None)
        descriptor = TableDescriptor(name="t", kind="btree", root_id=7)
        txn.log_catalog(descriptor.to_metadata())
        txn.commit()
        catalog = recover_catalog(storage, metrics)
        assert catalog["t"].root_id == 7 and catalog["t"].kind == "btree"

    def test_root_changes_update_catalog(self):
        storage, dclog, metrics = make_env()
        txn = SystemTransaction("catalog", dclog, metrics, None)
        txn.log_catalog(TableDescriptor(name="t", kind="btree", root_id=7).to_metadata())
        txn.log_root_changed("t", 9)
        txn.commit()
        txn2 = SystemTransaction("grow", dclog, metrics, None)
        txn2.log_root_changed("t", 12)
        txn2.commit()
        catalog = recover_catalog(storage, metrics)
        assert catalog["t"].root_id == 12

    def test_saved_catalog_plus_log(self):
        storage, dclog, metrics = make_env()
        save_catalog(storage, {"t": TableDescriptor(name="t", kind="btree", root_id=3)})
        txn = SystemTransaction("grow", dclog, metrics, None)
        txn.log_root_changed("t", 4)
        txn.commit()
        catalog = recover_catalog(storage, metrics)
        assert catalog["t"].root_id == 4

    def test_descriptor_roundtrip(self):
        descriptor = TableDescriptor(
            name="h", kind="heap", versioned=True, bucket_ids=[1, 2, 3]
        )
        clone = TableDescriptor.from_metadata(descriptor.to_metadata())
        assert clone == descriptor

    def test_truncation_respects_dlsn(self):
        storage, dclog, metrics = make_env()
        txn = SystemTransaction("a", dclog, metrics, None)
        txn.log_page_free(1)
        txn.commit()
        keep_from = dclog.last_dlsn + 1
        txn2 = SystemTransaction("b", dclog, metrics, None)
        txn2.log_page_free(2)
        txn2.commit()
        dclog.truncate_before(keep_from)
        remaining = dclog.stable_records()
        assert all(r.dlsn >= keep_from for r in remaining)
        assert any(isinstance(r, PageFreeRecord) and r.page_id == 2 for r in remaining)
