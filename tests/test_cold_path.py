"""The DC's cold path: miss -> build -> evict -> flush (ISSUE 17).

Four things are pinned here:

- the stable-page loader answers exactly as the full-log replay it
  replaced (kept below as the reference), for every kind of page the DC
  log can name and for pages it does not name;
- a miss on an unnamed page builds the page once and reads no DC-log
  record — the mechanism, not just the answer;
- a stored image and a live page never share a record object;
- the byte totals pages and images now carry instead of re-walking their
  records never drift from a full re-walk, so ``disk.page_bytes`` and every
  split decision stay what they were.
"""

from __future__ import annotations

from typing import Optional

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.config import DcConfig
from repro.common.ops import (
    DeleteOp,
    DiscardVersionsOp,
    InsertOp,
    PromoteVersionsOp,
    UpdateOp,
)
from repro.common.records import TOMBSTONE, VersionedRecord, sizeof_key
from repro.dc.data_component import DataComponent
from repro.dc.dclog import (
    DcLog,
    DcLogRecord,
    KeysRemovedRecord,
    PageFreeRecord,
    PageImageRecord,
)
from repro.dc.recovery import stable_page_state
from repro.dc.system_txn import SystemTransaction
from repro.sim.metrics import Metrics
from repro.storage.buffer import BufferPool
from repro.storage.disk import StableStorage
from repro.storage.page import (
    INNER_ENTRY_BYTES,
    PAGE_HEADER_BYTES,
    InnerPage,
    LeafPage,
    PageImage,
)
from tests.conftest import image_fields


# -- the loader this PR replaced, kept as the reference ------------------------


def reference_stable_page_state(
    storage: StableStorage, page_id: int
) -> Optional[PageImage]:
    """``dc/recovery.py::stable_page_state`` as of the parent commit:
    rebuild the disk image, walk the *whole* stable DC log, snapshot."""
    disk = storage.read_page(page_id)
    live = disk.materialize() if disk is not None else None
    for record in storage.dc_log_entries():
        if not isinstance(record, DcLogRecord):
            continue
        if isinstance(record, PageImageRecord) and record.page_id == page_id:
            if live is None or live.dlsn < record.dlsn:
                assert record.image is not None
                live = record.image.materialize()
        elif isinstance(record, KeysRemovedRecord) and record.page_id == page_id:
            if live is not None and live.dlsn < record.dlsn:
                assert isinstance(live, LeafPage)
                live.extract_from(record.split_key)
                live.dlsn = record.dlsn
        elif isinstance(record, PageFreeRecord) and record.page_id == page_id:
            live = None
    return live.snapshot() if live is not None else None


def rewalked_size(image: PageImage) -> int:
    """``PageImage.encoded_size`` as the parent computed it."""
    size = PAGE_HEADER_BYTES
    size += sum(ab.encoded_size() for ab in image.ablsns.values())
    size += sum(record.encoded_size() for record in image.records)
    size += sum(sizeof_key(s) for s in image.separators)
    size += INNER_ENTRY_BYTES * len(image.children)
    return size


def rich_leaf(page_id: int, keys, dlsn: int = 0) -> LeafPage:
    """A leaf exercising every record field and two TCs' abLSNs."""
    leaf = LeafPage(page_id)
    for key in keys:
        record = VersionedRecord(
            key=key, committed=f"v{key}", owner_tc=1 + key % 2, commit_seq=key
        )
        if key % 3 == 0:
            record = record.set_pending(TOMBSTONE if key % 2 else f"p{key}")
        if key % 4 == 0:
            record = record._replace(history=((1, "older"), (2, TOMBSTONE)))
        leaf.put(record)
    leaf.ablsn_for(1).advance_low_water(10)
    leaf.ablsn_for(1).include(14)
    leaf.ablsn_for(1).include(12)
    leaf.ablsn_for(2).include(7)
    leaf.dlsn = dlsn
    leaf.page_lsn = 3
    return leaf


# Page ids of the differential scenario, by what the stable state holds.
NEVER_FLUSHED_SPLIT = 1  # only a PageImageRecord
PRE_SPLIT = 2  # older disk image + KeysRemoved
CONSOLIDATED = 3  # older disk image + newer PageImageRecord
FREED = 4  # disk image + PageFree
UNNAMED = 5  # disk image, no log record
MISSING = 6  # nothing
INNER_NAMED = 7  # inner page living only in the log
FLUSHED_AFTER_SPLIT = 8  # KeysRemoved older than the disk image
ALL_PAGES = range(1, 9)


def differential_scenario():
    metrics = Metrics()
    storage = StableStorage(metrics)
    dclog = DcLog(storage, metrics)
    gate = lambda needed: True  # noqa: E731 - every TC log is stable here

    storage.write_page(rich_leaf(PRE_SPLIT, range(20, 30)).snapshot())
    storage.write_page(rich_leaf(CONSOLIDATED, range(40, 44)).snapshot())
    storage.write_page(rich_leaf(FREED, range(60, 63)).snapshot())
    storage.write_page(rich_leaf(UNNAMED, range(80, 92)).snapshot())

    split = SystemTransaction("split", dclog, metrics, gate)
    split.log_page_image(rich_leaf(NEVER_FLUSHED_SPLIT, range(25, 30)))
    split.log_keys_removed(rich_leaf(PRE_SPLIT, range(20, 30)), split_key=25)
    inner = InnerPage(INNER_NAMED)
    inner.separators = [25]
    inner.children = [PRE_SPLIT, NEVER_FLUSHED_SPLIT]
    split.log_page_image(inner)
    split.commit()

    merge = SystemTransaction("consolidate", dclog, metrics, gate)
    merge.log_page_image(rich_leaf(CONSOLIDATED, range(40, 48)))
    merge.log_page_free(FREED)
    merge.commit()

    later = SystemTransaction("split", dclog, metrics, gate)
    pre = rich_leaf(FLUSHED_AFTER_SPLIT, range(100, 110))
    later.log_keys_removed(pre, split_key=105)
    later.commit()
    post = rich_leaf(FLUSHED_AFTER_SPLIT, range(100, 105), dlsn=pre.dlsn)
    storage.write_page(post.snapshot())
    return storage, dclog


class TestLoaderMatchesFullReplay:
    def assert_same_everywhere(self, storage):
        for page_id in ALL_PAGES:
            expected = image_fields(reference_stable_page_state(storage, page_id))
            actual = image_fields(stable_page_state(storage, page_id))
            assert actual == expected, f"page {page_id}"

    def test_every_kind_of_page(self):
        storage, _dclog = differential_scenario()
        self.assert_same_everywhere(storage)
        # The scenario is what it claims to be.
        state = {pid: stable_page_state(storage, pid) for pid in ALL_PAGES}
        assert [r.key for r in state[NEVER_FLUSHED_SPLIT].records] == list(range(25, 30))
        assert [r.key for r in state[PRE_SPLIT].records] == list(range(20, 25))
        assert len(state[CONSOLIDATED].records) == 8
        assert state[FREED] is None and storage.has_page(FREED)
        assert state[UNNAMED] is storage.read_page(UNNAMED)
        assert state[MISSING] is None
        assert state[INNER_NAMED].children == (PRE_SPLIT, NEVER_FLUSHED_SPLIT)
        assert len(state[FLUSHED_AFTER_SPLIT].records) == 5

    def test_after_partial_and_full_truncation(self):
        storage, dclog = differential_scenario()
        dlsns = sorted(r.dlsn for r in storage.dc_log_entries())
        # Cut in the middle of the log, then below its end, then past it:
        # the index must follow the log through each.
        for keep_from in (dlsns[len(dlsns) // 2], dlsns[-1], dclog.last_dlsn + 1):
            storage.truncate_dc_log(keep_from)
            self.assert_same_everywhere(storage)
        assert storage.dc_log_length() == 0
        for page_id in (PRE_SPLIT, CONSOLIDATED, FREED, UNNAMED):
            assert stable_page_state(storage, page_id) is storage.read_page(page_id)

    def test_records_appended_after_truncation_are_indexed(self):
        storage, dclog = differential_scenario()
        storage.truncate_dc_log(dclog.last_dlsn + 1)
        txn = SystemTransaction("split", dclog, Metrics(), lambda needed: True)
        txn.log_page_image(rich_leaf(MISSING, range(5)))
        txn.commit()
        self.assert_same_everywhere(storage)
        assert len(stable_page_state(storage, MISSING).records) == 5

    def test_a_real_tree_page_by_page(self):
        """Splits, consolidations and partial flushes as the DC makes them."""
        dc = DataComponent(
            "dc", config=DcConfig(page_size=512, buffer_capacity=6, min_fill=0.4)
        )
        dc.create_table("t")
        dc.register_tc(1, force_log=lambda lsn, images: lsn)
        lsn = 0
        for key in range(160):
            lsn += 1
            dc.end_of_stable_log(1, lsn)
            assert dc.perform_operation(1, lsn, InsertOp("t", key, f"value-{key:04d}")).ok
        for key in range(40, 120):
            lsn += 1
            dc.end_of_stable_log(1, lsn)
            assert dc.perform_operation(1, lsn, DeleteOp("t", key)).ok
        assert dc.metrics.get("btree.leaf_splits") > 0
        assert dc.metrics.get("btree.consolidations") > 0
        assert dc.metrics.get("buffer.evictions") > 0
        named = set(dc.storage._dc_log_by_page)
        candidates = named | set(dc.storage.page_ids()) | {10_000}
        assert named and candidates - named
        for page_id in sorted(candidates):
            expected = image_fields(reference_stable_page_state(dc.storage, page_id))
            assert image_fields(stable_page_state(dc.storage, page_id)) == expected


# -- the mechanism -------------------------------------------------------------


class CountingLog(list):
    """A stable DC log that counts every walk or copy of itself."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


class TestOneBuildPerMiss:
    def test_unnamed_miss_builds_once_and_reads_no_log_record(self, monkeypatch):
        storage, _dclog = differential_scenario()
        storage._dc_log = CountingLog(storage._dc_log)
        assert storage.dc_log_length() > 0
        calls = {"materialize": 0, "snapshot": 0}
        real_materialize = PageImage.materialize
        real_snapshot = LeafPage.snapshot

        def counting_materialize(self):
            calls["materialize"] += 1
            return real_materialize(self)

        def counting_snapshot(self):
            calls["snapshot"] += 1
            return real_snapshot(self)

        monkeypatch.setattr(PageImage, "materialize", counting_materialize)
        monkeypatch.setattr(LeafPage, "snapshot", counting_snapshot)
        metrics = Metrics()
        pool = BufferPool(
            storage,
            DcConfig(),
            metrics,
            loader=lambda page_id: stable_page_state(storage, page_id),
        )
        reads_before = storage.metrics.get("disk.page_reads")

        page = pool.fetch(UNNAMED)

        assert isinstance(page, LeafPage) and page.record_count() == 12
        assert metrics.get("buffer.misses") == 1
        assert storage.metrics.get("disk.page_reads") == reads_before + 1
        assert calls == {"materialize": 1, "snapshot": 0}
        assert storage._dc_log.walks == 0

    def test_named_page_still_replays(self):
        storage, _dclog = differential_scenario()
        pool = BufferPool(
            storage, loader=lambda page_id: stable_page_state(storage, page_id)
        )
        page = pool.fetch(NEVER_FLUSHED_SPLIT)
        assert isinstance(page, LeafPage)
        assert page.keys() == list(range(25, 30))


# -- image and live page share records nobody can write -------------------------


class TestImagesStayImmutable:
    """A record reachable from a page or an image is never written again:
    the stored image stays what was stored because the type refuses the
    write, not because anything was copied."""

    def pool(self):
        storage, _dclog = differential_scenario()
        return storage, BufferPool(
            storage, loader=lambda page_id: stable_page_state(storage, page_id)
        )

    def test_mutate_discard_refetch_reads_stored_values(self):
        storage, pool = self.pool()
        stored = image_fields(storage.read_page(UNNAMED))
        page = pool.fetch(UNNAMED)
        for record in list(page.records_in_order()):
            page.put(
                record.set_committed("scribbled")
                .set_pending("scribbled")
                ._replace(history=((99, "scribbled"),))
            )
        page.remove(80)
        page.reset_tc_records(1, None)
        page.ablsn_for(1).include(999)
        pool.discard(UNNAMED)

        again = pool.fetch(UNNAMED)

        assert again is not page
        assert image_fields(storage.read_page(UNNAMED)) == stored
        assert image_fields(again.snapshot()) == stored

    def test_shared_records_refuse_writes(self):
        storage, pool = self.pool()
        image = storage.read_page(UNNAMED)
        page = pool.fetch(UNNAMED)
        # Zero copies: the live page, the stored image and a fresh snapshot
        # all hold the same record objects ...
        assert all(a is b for a, b in zip(page.records_in_order(), image.records))
        assert all(a is b for a, b in zip(page.snapshot().records, image.records))
        # ... which is safe only because nobody can write one.
        record = next(r for r in page.records_in_order() if r.history)
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, "scribbled")
        with pytest.raises(AttributeError):
            record.history.append((99, "scribbled"))
        assert record.set_pending("x") is not record
        assert record.committed != "scribbled" and not record.has_pending
        # abLSNs are written in place, so they are still copied.
        assert page.ablsns[1] is not image.ablsns[1]

    def test_record_reset_copies_out_of_the_stored_image(self):
        storage, pool = self.pool()
        image = storage.read_page(UNNAMED)
        stored = image_fields(image)
        page = pool.fetch(UNNAMED)
        for record in list(page.records_in_order()):
            if record.owner_tc == 1:
                page.put(record.set_committed("a lost operation's value"))
        page.ablsn_for(1).include(500)

        stats = pool.reset_after_tc_crash(1, stable_lsn=100)

        assert stats["record_reset"] == 1
        assert image_fields(storage.read_page(UNNAMED)) == stored
        assert image_fields(page.snapshot())["records"] == stored["records"]
        assert page.used_bytes() == PAGE_HEADER_BYTES + sum(
            r.encoded_size() for r in page.records_in_order()
        )
        assert page.ablsns[1] == image.ablsns[1]
        assert page.ablsns[1] is not image.ablsns[1]


# -- stats() must not evict the working set ------------------------------------


class TestStatsPeeks:
    @pytest.mark.parametrize("kind, keys", [("btree", 1000), ("heap", 400)])
    def test_stats_on_a_table_larger_than_the_pool(self, kind, keys):
        capacity = 6
        dc = DataComponent(
            "dc", config=DcConfig(page_size=512, buffer_capacity=capacity)
        )
        dc.create_table("t", kind=kind, bucket_count=48)
        dc.register_tc(1, force_log=lambda lsn, images: lsn)
        for key in range(keys):
            dc.end_of_stable_log(1, key + 1)
            assert dc.perform_operation(1, key + 1, InsertOp("t", key, f"v{key:05d}")).ok
        structure = dc.table("t").structure
        assert dc.storage.page_count() >= 5 * capacity
        assert dc.buffer.dirty_count() > 0

        watched = (
            "buffer.misses",
            "buffer.evictions",
            "buffer.hits",
            "disk.page_writes",
            "journal.frames",
        )
        before = {name: dc.metrics.get(name) for name in watched}
        cached_before = dc.buffer.cached_ids()
        dirty_before = dc.buffer.dirty_count()

        entry = dc.stats()["tables"]["t"]

        assert {name: dc.metrics.get(name) for name in watched} == before
        assert dc.buffer.cached_ids() == cached_before
        assert dc.buffer.dirty_count() == dirty_before
        # ... and the numbers are those of a scan through the pool.
        assert entry["records"] == keys
        assert entry["records"] == sum(1 for _ in structure.iter_range(None, None))
        leaves = structure.leaf_ids()
        assert entry["leaves"] == len(leaves)
        fetched = [dc.buffer.fetch(page_id) for page_id in leaves]
        assert all(isinstance(page, LeafPage) for page in fetched)
        assert sum(page.record_count() for page in fetched) == keys
        if kind == "btree":
            depth, page = 1, structure._fetch(structure.root_id)
            while isinstance(page, InnerPage):
                depth, page = depth + 1, structure._fetch(page.children[0])
            assert entry["depth"] == depth >= 3


# -- truncating the DC log under pages that still depend on it -----------------


class TestTruncationKeepsLogDefinedPages:
    """Found by this PR's SIGKILL test once ``stats()`` stopped cycling the
    whole table through the pool: a page the loader rebuilds from DC-log
    records is admitted clean, so ``checkpoint_dc_log`` used to truncate
    the only stable copy of a never-flushed split page, and to hand a
    pre-split page its moved keys back."""

    def test_restart_then_checkpoint_then_eviction_loses_nothing(self):
        dc = DataComponent("dc", config=DcConfig(page_size=512, buffer_capacity=6))
        dc.create_table("t")
        dc.register_tc(1, force_log=lambda lsn, images: lsn)
        for key in range(300):
            dc.end_of_stable_log(1, key + 1)
            assert dc.perform_operation(1, key + 1, InsertOp("t", key, f"value-{key:04d}")).ok
        assert dc.metrics.get("btree.leaf_splits") > 10
        assert dc.metrics.get("buffer.evictions") > 10  # most pages flushed...
        assert dc.storage.pages_behind_dc_log()  # ...the newest splits not
        stable_keys = {
            record.key
            for page_id in dc.storage.page_ids()
            for record in dc.storage.read_page(page_id).records
        }
        dc.crash()
        dc.recover(notify_tcs=False)
        dc.end_of_stable_log(1, 300)

        assert dc.checkpoint_dc_log()
        assert dc.storage.dc_log_length() == 0
        dc.buffer.crash()  # every page now comes from its disk image alone

        structure = dc.table("t").structure
        structure.validate()
        scanned = [record.key for record in structure.iter_range(None, None)]
        assert scanned == sorted(set(scanned))  # no moved key came back
        # What had reached a flushed page is still there; the rest is the
        # TC's to redo, not the DC's to keep.
        assert stable_keys <= set(scanned)


# -- the byte totals never drift -----------------------------------------------

KEYS = st.integers(min_value=0, max_value=59)
VALUES = st.text(alphabet="abcxyz", min_size=0, max_size=40)
STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), KEYS, VALUES),
        st.tuples(st.just("update"), KEYS, VALUES),
        st.tuples(st.just("delete"), KEYS, st.just("")),
        st.tuples(st.just("promote"), KEYS, st.just("")),
        st.tuples(st.just("discard"), KEYS, st.just("")),
        st.tuples(st.just("flush"), KEYS, st.just("")),
        st.tuples(st.just("drop"), KEYS, st.just("")),
        st.tuples(st.just("checkpoint"), KEYS, st.just("")),
    ),
    min_size=1,
    max_size=80,
)


def assert_byte_totals(dc: DataComponent) -> None:
    for page_id in dc.buffer.cached_ids():
        page = dc.buffer.cached_page(page_id)
        if isinstance(page, LeafPage):
            assert page.used_bytes() == PAGE_HEADER_BYTES + sum(
                r.encoded_size() for r in page.records_in_order()
            ), f"live page {page_id}"
            assert page.keys() == sorted(page.keys())
    for page_id in dc.storage.page_ids():
        image = dc.storage.read_page(page_id)
        assert image.encoded_size() == rewalked_size(image), f"image {page_id}"
    for record in dc.storage.dc_log_entries():
        if isinstance(record, PageImageRecord):
            assert record.image.encoded_size() == rewalked_size(record.image)


class TestByteTotalsNeverDrift:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(steps=STEPS, versioned=st.booleans())
    def test_used_bytes_is_the_sum_of_the_slots(self, steps, versioned):
        """On top of a preloaded tree, insert / update / delete / promote /
        discard drive splits and consolidations on 256-byte pages; a 3-page
        pool evicts and re-fetches constantly; 'drop' discards a clean page
        so the next touch rebuilds it from its image."""
        dc = DataComponent(
            "dc",
            config=DcConfig(
                page_size=256,
                buffer_capacity=3,
                min_fill=0.45,
                snapshot_retention=4 if versioned else 0,
            ),
        )
        dc.create_table("t", versioned=versioned)
        dc.register_tc(1, force_log=lambda lsn, images: lsn)
        lsn = 0
        for key in range(0, 60, 2):
            lsn += 1
            dc.end_of_stable_log(1, lsn)
            assert dc.perform_operation(1, lsn, InsertOp("t", key, "preloaded-value")).ok
        if versioned:
            lsn += 1
            dc.perform_operation(1, lsn, PromoteVersionsOp("t", keys=tuple(range(0, 60, 2))))
        assert_byte_totals(dc)
        for action, key, value in steps:
            lsn += 1
            dc.end_of_stable_log(1, lsn)
            if action == "insert":
                dc.perform_operation(1, lsn, InsertOp("t", key, value))
            elif action == "update":
                dc.perform_operation(1, lsn, UpdateOp("t", key, value))
            elif action == "delete":
                # a short run, so leaves actually empty out and merge
                for victim in range(key, min(key + 4, 60)):
                    lsn += 1
                    dc.end_of_stable_log(1, lsn)
                    dc.perform_operation(1, lsn, DeleteOp("t", victim))
            elif action == "promote":
                dc.perform_operation(
                    1, lsn, PromoteVersionsOp("t", keys=(key, (key + 1) % 60))
                )
            elif action == "discard":
                dc.perform_operation(1, lsn, DiscardVersionsOp("t", keys=(key,)))
            elif action == "flush":
                with dc.buffer.operation():
                    dc.buffer.flush_all()
            elif action == "drop":
                cached = dc.buffer.cached_ids()
                victim = cached and dc.buffer.cached_page(cached[key % len(cached)])
                if victim and not victim.dirty:
                    dc.buffer.discard(victim.page_id)
            else:
                dc.checkpoint_dc_log()
            assert_byte_totals(dc)
        dc.table("t").structure.validate()
        assert_byte_totals(dc)

    def test_hand_built_image_sizes_itself(self):
        records = tuple(rich_leaf(1, range(9)).records_in_order())
        image = PageImage(1, LeafPage.kind, 0, {}, records=records)
        assert image.records_bytes == sum(r.encoded_size() for r in records)
        assert image.encoded_size() == rewalked_size(image)
        assert image.materialize().used_bytes() == PAGE_HEADER_BYTES + image.records_bytes
