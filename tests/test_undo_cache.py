"""The TC-side undo-info cache (docs/architecture.md §9.2).

A write whose before-image the TC does not know logs it *owed* and has
the write's reply fill it; the cache answers for keys this TC already
learned under a lock it held, so the write's undo is complete when it is
logged.  Soundness rests on the TC being the sole writer of its keys —
and on invalidating at every event that could falsify an entry: own write
aborted or ambiguous, DC reset, TC crash.  ``tc.undo_cache_misses``
counts the writes that had to owe their image.
"""

from __future__ import annotations

import pytest

from repro import KernelConfig, UnbundledKernel
from repro.common.config import TcConfig
from repro.common.errors import ConfigError, TransactionAborted


def cached_kernel(**tc_kwargs):
    kernel = UnbundledKernel(KernelConfig(tc=TcConfig(**tc_kwargs)))
    kernel.create_table("t")
    return kernel


def undo_reads(kernel):
    return kernel.metrics.get("tc.undo_info_reads")


def misses(kernel):
    return kernel.metrics.get("tc.undo_cache_misses")


class TestCacheHits:
    def test_cache_is_off_at_size_zero(self):
        kernel = cached_kernel(undo_cache_size=0)
        for _ in range(2):
            with kernel.begin() as txn:
                txn.insert("t", 1, "x") if txn.read("t", 1) is None else txn.update(
                    "t", 1, "x"
                )
        assert kernel.tc.undo_cache.entries() == []
        assert kernel.metrics.get("tc.undo_cache_hits") == 0
        assert undo_reads(kernel) > 0  # every read reaches the DC
        assert TcConfig().undo_cache_size == 4096  # on by default

    def test_repeat_writer_skips_read_before_write(self):
        kernel = cached_kernel()
        with kernel.begin() as txn:
            txn.insert("t", 1, "v1")  # the commit caches the value
        before = misses(kernel)
        with kernel.begin() as txn:
            txn.update("t", 1, "v2")  # committed value is cached
        assert misses(kernel) == before
        assert undo_reads(kernel) == 0
        assert kernel.metrics.get("tc.undo_cache_hits") == 1

    def test_cached_undo_info_rolls_back_correctly(self):
        """The abort restores the *cached* prior value — proving the cache
        fed the undo information, and fed it right."""
        kernel = cached_kernel()
        with kernel.begin() as txn:
            txn.insert("t", 1, "v1")
        with kernel.begin() as txn:
            txn.update("t", 1, "v2")
        before = misses(kernel)
        txn = kernel.begin()
        txn.update("t", 1, "v3")
        txn.abort()
        assert misses(kernel) == before  # undo info came from the cache
        with kernel.begin() as check:
            assert check.read("t", 1) == "v2"

    def test_absence_is_cached_too(self):
        kernel = cached_kernel()
        with kernel.begin() as txn:
            txn.insert("t", 1, "v1")
        with kernel.begin() as txn:
            txn.delete("t", 1)  # commits knowledge that key 1 is absent
        hits = kernel.metrics.get("tc.undo_cache_hits")
        with kernel.begin() as txn:
            txn.insert("t", 1, "v2")  # duplicate-check served by the cache
        assert kernel.metrics.get("tc.undo_cache_hits") == hits + 1
        with kernel.begin() as check:
            assert check.read("t", 1) == "v2"

    def test_eviction_bounds_the_cache(self):
        kernel = cached_kernel(undo_cache_size=4)
        for key in range(10):
            with kernel.begin() as txn:
                txn.insert("t", key, key)
        assert len(kernel.tc.undo_cache.entries()) <= 4

    def test_ownership_guard_gates_caching(self):
        """With an ownership guard installed (multi-TC sharing, Section 6)
        a foreign TC may mutate unowned keys behind our back — they must
        never enter the cache."""
        kernel = cached_kernel()
        with kernel.begin() as txn:
            txn.insert("t", 1, "mine")
            txn.insert("t", 7, "theirs")
        kernel.tc.ownership_guard = lambda table, key: key != 7
        kernel.tc.undo_cache.clear()
        with kernel.begin() as txn:
            assert txn.read("t", 1) == "mine"
            assert txn.read("t", 7) == "theirs"
        assert ("t", 1) in kernel.tc.undo_cache.entries()
        assert ("t", 7) not in kernel.tc.undo_cache.entries()

    def test_rejects_invalid_cache_size(self):
        with pytest.raises(ConfigError) as err:
            TcConfig(undo_cache_size=-1)
        assert err.value.field == "TcConfig.undo_cache_size"


class TestRecency:
    """Eviction is least-recently-used: a hit or a store makes the entry
    the youngest, so the keys a workload keeps coming back to outlive any
    stream of keys it touches once."""

    @staticmethod
    def _order(kernel) -> list:
        return [key for _table, key in kernel.tc.undo_cache.entries()]

    def test_hot_key_survives_twice_the_cache_in_fresh_inserts(self):
        size = 8
        kernel = cached_kernel(undo_cache_size=size)
        with kernel.begin() as txn:
            txn.insert("t", -1, 0)
        reads_for_hot = 0
        for fresh in range(2 * size):
            with kernel.begin() as txn:
                txn.insert("t", fresh, fresh)
            before = undo_reads(kernel)
            with kernel.begin() as txn:
                assert txn.read("t", -1) == 0  # a hit: no message, and young again
            reads_for_hot += undo_reads(kernel) - before
        assert reads_for_hot == 0
        assert len(kernel.tc.undo_cache.entries()) == size
        before = undo_reads(kernel)
        with kernel.begin() as txn:
            txn.update("t", -1, 1)  # undo info still served by the cache
        assert undo_reads(kernel) == before
        assert kernel.metrics.get("tc.undo_cache_hits") == 2 * size + 1

    def test_eviction_takes_the_least_recently_used(self):
        kernel = cached_kernel(undo_cache_size=3)
        for key in (1, 2, 3):
            with kernel.begin() as txn:
                txn.insert("t", key, "v")
        assert self._order(kernel) == [1, 2, 3]
        with kernel.begin() as txn:
            assert txn.read("t", 1) == "v"  # hit
        assert self._order(kernel) == [2, 3, 1]
        with kernel.begin() as txn:
            txn.update("t", 2, "w")  # hit, then the commit's store
        assert self._order(kernel) == [3, 1, 2]
        with kernel.begin() as txn:
            txn.insert("t", 4, "v")  # evicts 3, the oldest — not 1, the first in
        assert self._order(kernel) == [1, 2, 4]

    def test_insert_fast_path_hit_counts_as_use(self):
        kernel = UnbundledKernel(
            KernelConfig(tc=TcConfig.optimized(undo_cache_size=3))
        )
        kernel.create_table("t")
        for key in (1, 2, 3):
            with kernel.begin() as txn:
                txn.insert("t", key, "v")
        from repro.common.errors import DuplicateKeyError

        txn = kernel.begin()
        with pytest.raises(DuplicateKeyError):
            txn.insert("t", 1, "again")  # answered by the cache, synchronously
        assert self._order(kernel) == [2, 3, 1]
        txn.abort()

    def test_invalidation_is_not_softened_by_recency(self):
        """The youngest entry is dropped like any other when its writer
        aborts or its DC resets; a key the ownership guard refuses neither
        enters the cache nor pushes anything out of it."""
        kernel = cached_kernel(undo_cache_size=2)
        for key in (1, 2):
            with kernel.begin() as txn:
                txn.insert("t", key, "v")
        txn = kernel.begin()
        txn.update("t", 2, "w")  # 2 is the youngest entry
        txn.abort()
        assert self._order(kernel) == [1]
        kernel.tc.ownership_guard = lambda table, key: key != 7
        with kernel.begin() as txn:
            assert txn.read("t", 7) is None
            assert txn.read("t", 2) == "v"
        assert self._order(kernel) == [1, 2]
        kernel.crash_dc()
        kernel.recover_dc()
        assert self._order(kernel) == []


class TestInvalidation:
    def test_abort_invalidates_touched_keys(self):
        kernel = cached_kernel()
        with kernel.begin() as txn:
            txn.insert("t", 1, "v1")
        txn = kernel.begin()
        txn.update("t", 1, "v2")
        txn.abort()
        assert ("t", 1) not in kernel.tc.undo_cache.entries()
        before = misses(kernel)
        with kernel.begin() as txn:
            txn.update("t", 1, "v3")  # owes its image again
        assert misses(kernel) == before + 1
        assert kernel.metrics.get("tc.undo_cache_invalidations") >= 1
        with kernel.begin() as check:
            assert check.read("t", 1) == "v3"

    def test_tc_crash_clears_the_cache(self):
        kernel = cached_kernel()
        with kernel.begin() as txn:
            txn.insert("t", 1, "v1")
        kernel.crash_tc()
        assert kernel.tc.undo_cache.entries() == []
        kernel.recover_tc()
        before = misses(kernel)
        with kernel.begin() as txn:
            txn.update("t", 1, "v2")
        assert misses(kernel) == before + 1

    def test_dc_restart_invalidates_its_tables(self):
        kernel = cached_kernel()
        with kernel.begin() as txn:
            txn.insert("t", 1, "v1")
        assert ("t", 1) in kernel.tc.undo_cache.entries()
        kernel.crash_dc()
        kernel.recover_dc()
        assert ("t", 1) not in kernel.tc.undo_cache.entries()
        before = misses(kernel)
        with kernel.begin() as txn:
            txn.update("t", 1, "v2")
        assert misses(kernel) == before + 1
        with kernel.begin() as check:
            assert check.read("t", 1) == "v2"

    def test_zombie_rollback_invalidates_on_completion(self):
        """A rollback interrupted by a DC outage finishes later — and only
        then may the inverses have changed DC state, so the invalidation
        must cover the eventual completion, not just the abort."""
        kernel = cached_kernel()
        with kernel.begin() as txn:
            txn.insert("t", 1, "v1")
        txn = kernel.begin()
        txn.update("t", 1, "v2")  # delivered synchronously
        kernel.crash_dc()
        txn.abort()  # inverse undeliverable: parked as a zombie
        assert kernel.tc.pending_zombies() == 1
        kernel.recover_dc()
        kernel.tc.retry_pending()
        assert kernel.tc.pending_zombies() == 0
        assert ("t", 1) not in kernel.tc.undo_cache.entries()
        with kernel.begin() as check:
            assert check.read("t", 1) == "v1"


class TestCacheWithBatching:
    def test_fast_paths_compose_to_few_messages(self):
        """The FIG1 headline: with batching + undo cache, a 4-op update
        transaction costs at most 3 messages (one envelope, plus slack for
        a piggybacked LWM broadcast) and zero undo-info reads."""
        kernel = UnbundledKernel(KernelConfig(tc=TcConfig.optimized()))
        kernel.create_table("t")
        with kernel.begin() as txn:
            for key in range(4):
                txn.insert("t", key, "seed")
        before_reads = undo_reads(kernel)
        before_msgs = kernel.metrics.get("channel.requests")
        with kernel.begin() as txn:
            for key in range(4):
                txn.update("t", key, "updated")
        assert undo_reads(kernel) == before_reads
        assert kernel.metrics.get("channel.requests") - before_msgs <= 3
        assert kernel.metrics.get("tc.undo_cache_hits") >= 4
        with kernel.begin() as check:
            assert check.scan("t") == [(key, "updated") for key in range(4)]

    def test_batch_rejection_drops_cached_key(self):
        """A semantic rejection inside an envelope leaves that key's DC
        state authoritative — the cache entry is dropped with it."""
        from repro.common.ops import OpResult, OpStatus, UpdateOp

        kernel = UnbundledKernel(KernelConfig(tc=TcConfig.optimized()))
        kernel.create_table("t")
        with kernel.begin() as txn:
            txn.insert("t", 1, "v1")
        real = kernel.dc._execute

        def rejecting(handle, sub):
            if isinstance(sub.op, UpdateOp) and sub.op.key == 1:
                return OpResult(status=OpStatus.ERROR, message="injected")
            return real(handle, sub)

        kernel.dc._execute = rejecting
        txn = kernel.begin()
        txn.update("t", 1, "v2")
        with pytest.raises(TransactionAborted):
            txn.commit()
        kernel.dc._execute = real
        assert ("t", 1) not in kernel.tc.undo_cache.entries()
        with kernel.begin() as check:
            assert check.read("t", 1) == "v1"
