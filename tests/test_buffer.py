"""Buffer pool: causality-gated flushing, page-sync strategies, resets."""

from __future__ import annotations

import threading
import time

import pytest

from repro.common.config import DcConfig, PageSyncStrategy
from repro.common.errors import WriteAheadViolation
from repro.common.lsn import NULL_LSN
from repro.common.records import VersionedRecord
from repro.sim.metrics import Metrics
from repro.storage.buffer import BufferPool, ResetMode
from repro.storage.disk import StableStorage
from repro.storage.page import LeafPage


def make_pool(**config_kwargs):
    metrics = Metrics()
    storage = StableStorage(metrics)
    pool = BufferPool(storage, DcConfig(**config_kwargs), metrics)
    return pool, storage, metrics


def dirty_leaf(page_id, tc_id=1, lsns=()):
    leaf = LeafPage(page_id)
    leaf.put(VersionedRecord(key=page_id, committed="v", owner_tc=tc_id))
    for lsn in lsns:
        leaf.ablsn_for(tc_id).include(lsn)
    leaf.dirty = True
    return leaf


class TestFetchAndRegister:
    def test_fetch_miss_loads_from_disk(self):
        pool, storage, metrics = make_pool()
        leaf = dirty_leaf(1)
        storage.write_page(leaf.snapshot())
        fetched = pool.fetch(1)
        assert fetched is not None and fetched.get(1) is not None
        assert metrics.get("buffer.misses") == 1
        assert pool.fetch(1) is fetched
        assert metrics.get("buffer.hits") == 1

    def test_fetch_unknown_page(self):
        pool, *_ = make_pool()
        assert pool.fetch(99) is None

    def test_register_makes_dirty(self):
        pool, *_ = make_pool()
        leaf = LeafPage(1)
        pool.register(leaf)
        assert leaf.dirty
        assert pool.cached_page(1) is leaf

    def test_custom_loader_used_on_miss(self):
        """The DC wires stable_page_state here so DC-log-only pages load."""
        metrics = Metrics()
        storage = StableStorage(metrics)
        target = dirty_leaf(5)
        pool = BufferPool(
            storage,
            DcConfig(),
            metrics,
            loader=lambda pid: target.snapshot() if pid == 5 else None,
        )
        fetched = pool.fetch(5)
        assert fetched is not None and fetched.get(5) is not None


class TestCausalityWal:
    def test_flush_blocked_until_eosl_covers_page(self):
        """Causality: no page stable while its operations could be lost."""
        pool, storage, metrics = make_pool()
        leaf = dirty_leaf(1, tc_id=1, lsns=[10])
        pool.register(leaf)
        assert not pool.try_flush(leaf)
        assert metrics.get("buffer.flush_blocked_wal") == 1
        assert not storage.has_page(1)
        pool.note_eosl(1, 9)
        assert not pool.try_flush(leaf)
        pool.note_eosl(1, 10)
        assert pool.try_flush(leaf)
        assert storage.has_page(1)
        assert not leaf.dirty

    def test_flush_checks_every_tc_on_the_page(self):
        pool, storage, _m = make_pool()
        leaf = dirty_leaf(1, tc_id=1, lsns=[5])
        leaf.ablsn_for(2).include(8)
        pool.register(leaf)
        pool.note_eosl(1, 10)
        assert not pool.try_flush(leaf)  # TC2's op not stable yet
        pool.note_eosl(2, 8)
        assert pool.try_flush(leaf)

    def test_strict_flush_raises(self):
        pool, _s, _m = make_pool()
        leaf = dirty_leaf(1, lsns=[10])
        pool.register(leaf)
        with pytest.raises(WriteAheadViolation):
            pool.flush_page_strict(leaf)

    def test_eosl_never_regresses(self):
        pool, *_ = make_pool()
        pool.note_eosl(1, 10)
        pool.note_eosl(1, 5)
        assert pool.eosl_for(1) == 10


class TestPageSyncStrategies:
    """The three alternatives of Section 5.1.2."""

    def test_full_ablsn_flushes_immediately(self):
        pool, storage, metrics = make_pool(
            sync_strategy=PageSyncStrategy.FULL_ABLSN
        )
        leaf = dirty_leaf(1, lsns=[3, 5, 7])
        pool.register(leaf)
        pool.note_eosl(1, 7)
        assert pool.try_flush(leaf)
        # the full abLSN was written with the page: space model visible
        assert metrics.dist("buffer.flushed_ablsn_bytes").maximum >= 4 * 8

    def test_delay_waits_for_low_water(self):
        pool, storage, metrics = make_pool(sync_strategy=PageSyncStrategy.DELAY)
        leaf = dirty_leaf(1, lsns=[3, 5])
        pool.register(leaf)
        pool.note_eosl(1, 5)
        assert not pool.try_flush(leaf)  # {LSNin} not empty yet
        assert metrics.get("buffer.flush_delayed_sync") == 1
        pool.note_lwm(1, 5)  # prunes the set
        assert leaf.pending_lsn_count() == 0
        assert pool.try_flush(leaf)
        # the flushed image carries a single plain LSN's worth of abLSN
        assert metrics.dist("buffer.flushed_ablsn_bytes").maximum == 8

    def test_prune_then_write_threshold(self):
        pool, _s, _m = make_pool(
            sync_strategy=PageSyncStrategy.PRUNE_THEN_WRITE, prune_threshold=2
        )
        leaf = dirty_leaf(1, lsns=[3, 5, 7])
        pool.register(leaf)
        pool.note_eosl(1, 7)
        assert not pool.try_flush(leaf)
        pool.note_lwm(1, 3)  # two pending remain
        assert pool.try_flush(leaf)

    def test_lwm_prunes_all_cached_pages(self):
        pool, *_ = make_pool()
        a, b = dirty_leaf(1, lsns=[4]), dirty_leaf(2, lsns=[5])
        pool.register(a)
        pool.register(b)
        pool.note_lwm(1, 5)
        assert a.pending_lsn_count() == 0 and b.pending_lsn_count() == 0
        assert a.ablsn_for(1).low_water == 5

    def test_note_lwm_only_named_tc(self):
        pool, *_ = make_pool()
        leaf = dirty_leaf(1, lsns=[5])
        leaf.ablsn_for(2).include(5)
        bare = dirty_leaf(2, lsns=[])  # no abLSN for TC 1: none is made
        pool.register(leaf)
        pool.register(bare)
        pool.note_lwm(1, 10)
        assert leaf.ablsn_for(1).low_water == 10
        assert leaf.ablsn_for(2).low_water == NULL_LSN
        assert leaf.ablsn_for(2).contains(5)
        assert 1 not in bare.ablsns


class TestEviction:
    def test_lru_eviction_of_clean_pages(self):
        pool, storage, metrics = make_pool(buffer_capacity=3)
        for page_id in range(1, 6):
            leaf = dirty_leaf(page_id)
            leaf.dirty = False
            pool.register(leaf)
            leaf.dirty = False
        # register marks dirty; force-clean then trigger eviction via fetch
        for page in [pool.cached_page(i) for i in pool.cached_ids()]:
            page.dirty = False
        pool._maybe_evict()
        assert len(pool.cached_ids()) <= 3

    def test_dirty_unflushable_pages_survive_eviction(self):
        pool, _s, metrics = make_pool(buffer_capacity=2)
        for page_id in (1, 2, 3, 4):
            pool.register(dirty_leaf(page_id, lsns=[page_id * 10]))
        pool._maybe_evict()
        # nothing flushable (no EOSL) => nothing evicted, counted instead
        assert len(pool.cached_ids()) == 4
        assert metrics.get("buffer.over_capacity") >= 1

    def test_eviction_flushes_dirty_flushable_pages(self):
        pool, storage, _m = make_pool(buffer_capacity=1)
        pool.note_eosl(1, 100)
        pool.register(dirty_leaf(1, lsns=[1]))
        pool.register(dirty_leaf(2, lsns=[2]))
        pool._maybe_evict()
        assert len(pool.cached_ids()) == 1
        assert storage.has_page(1)

    def test_operation_guard_defers_eviction(self):
        pool, *_ = make_pool(buffer_capacity=1)
        pool.note_eosl(1, 100)
        with pool.operation():
            pool.register(dirty_leaf(1, lsns=[1]))
            pool.register(dirty_leaf(2, lsns=[2]))
            assert len(pool.cached_ids()) == 2  # deferred while active
        assert len(pool.cached_ids()) == 1  # ran at quiesce

    def test_operation_arriving_during_an_eviction_waits_for_its_end(self):
        """The bracket waits on its condition only around an eviction: an
        operation that arrives mid-eviction parks, and the eviction's end
        must wake it (ten seconds allowed, under one taken)."""
        pool, storage, _m = make_pool(buffer_capacity=1)
        pool.note_eosl(1, 100)
        flushing = threading.Event()
        unblock = threading.Event()
        write_page = storage.write_page

        def slow_write(image):
            flushing.set()
            assert unblock.wait(timeout=10.0)
            write_page(image)

        storage.write_page = slow_write

        def evicting_operation():
            with pool.operation():
                pool.register(dirty_leaf(1, lsns=[1]))
                pool.register(dirty_leaf(2, lsns=[2]))

        entered = threading.Event()

        def late_operation():
            with pool.operation():
                entered.set()

        evictor = threading.Thread(target=evicting_operation, daemon=True)
        evictor.start()
        assert flushing.wait(timeout=10.0)  # the eviction is mid-flush
        late = threading.Thread(target=late_operation, daemon=True)
        late.start()
        time.sleep(0.05)
        assert not entered.is_set()  # parked behind the eviction
        start = time.monotonic()
        unblock.set()
        late.join(timeout=10.0)
        evictor.join(timeout=10.0)
        assert entered.is_set()
        assert time.monotonic() - start < 1.0
        assert len(pool.cached_ids()) == 1


class TestCheckpointFlush:
    def test_flush_for_checkpoint_all_clear(self):
        pool, storage, _m = make_pool()
        pool.note_eosl(1, 100)
        pool.register(dirty_leaf(1, lsns=[5]))
        pool.register(dirty_leaf(2, lsns=[6]))
        assert pool.flush_for_checkpoint(new_rssp=10)
        assert storage.page_count() == 2
        assert pool.dirty_count() == 0

    def test_flush_for_checkpoint_reports_blocked_old_ops(self):
        pool, *_ = make_pool()
        pool.register(dirty_leaf(1, lsns=[5]))  # EOSL never sent
        assert not pool.flush_for_checkpoint(new_rssp=10)

    def test_blocked_page_with_only_new_ops_does_not_fail_checkpoint(self):
        pool, *_ = make_pool()
        pool.register(dirty_leaf(1, lsns=[50]))  # above new_rssp
        assert pool.flush_for_checkpoint(new_rssp=10)


class TestCrashAndReset:
    def test_crash_clears_everything_volatile(self):
        pool, storage, _m = make_pool()
        pool.note_eosl(1, 10)
        pool.register(dirty_leaf(1, lsns=[5]))
        pool.try_flush(pool.cached_page(1))
        pool.crash()
        assert pool.cached_ids() == []
        assert pool.eosl_for(1) == 0
        assert storage.has_page(1)  # stable state survives

    def _pool_with_lost_state(self):
        """Page 1: only stable ops.  Page 2: a lost op (LSN 20 > LSNst 10).
        Page 3: multi-TC with TC1's lost op and TC2's data."""
        pool, storage, metrics = make_pool()
        pool.note_eosl(1, 10)
        p1 = dirty_leaf(1, tc_id=1, lsns=[5])
        pool.register(p1)
        pool.try_flush(p1)
        p2 = dirty_leaf(2, tc_id=1, lsns=[7])
        pool.register(p2)
        pool.try_flush(p2)
        p2.ablsn_for(1).include(20)
        p2.dirty = True
        p3 = dirty_leaf(3, tc_id=1, lsns=[6])
        p3.put(VersionedRecord(key=333, committed="tc2", owner_tc=2))
        p3.ablsn_for(2).include(8)
        pool.note_eosl(2, 8)
        pool.register(p3)
        pool.try_flush(p3)
        p3.ablsn_for(1).include(21)
        p3.put(p3.get(3).set_committed("lost-update"))
        p3.dirty = True
        return pool, storage, metrics

    def test_full_drop(self):
        pool, *_ = self._pool_with_lost_state()
        stats = pool.reset_after_tc_crash(1, stable_lsn=10, mode=ResetMode.FULL_DROP)
        assert stats["dropped"] == 3
        assert pool.cached_ids() == []

    def test_drop_affected_only(self):
        pool, *_ = self._pool_with_lost_state()
        stats = pool.reset_after_tc_crash(
            1, stable_lsn=10, mode=ResetMode.DROP_AFFECTED
        )
        assert stats["dropped"] == 2  # pages 2 and 3
        assert pool.cached_ids() == [1]

    def test_record_reset_preserves_other_tc(self):
        """Section 6.1.2: only the failed TC's records are reset on shared
        pages; the co-resident TC keeps its cached work."""
        pool, _s, _m = self._pool_with_lost_state()
        stats = pool.reset_after_tc_crash(
            1, stable_lsn=10, mode=ResetMode.RECORD_RESET
        )
        assert stats["record_reset"] == 1  # page 3 (multi-TC)
        assert stats["dropped"] == 1  # page 2 (single-TC)
        page3 = pool.cached_page(3)
        assert page3 is not None
        assert page3.get(3).committed == "v"  # rolled back to disk state
        assert page3.get(333).committed == "tc2"  # other TC untouched
        assert not page3.ablsn_for(1).contains(21)
        assert page3.ablsn_for(2).contains(8)

    def test_unaffected_pages_untouched(self):
        pool, *_ = self._pool_with_lost_state()
        pool.reset_after_tc_crash(1, stable_lsn=10, mode=ResetMode.DROP_AFFECTED)
        assert pool.cached_page(1) is not None
