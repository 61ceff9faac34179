"""Cross-module integration and stress: the kernel under hostile settings."""

from __future__ import annotations

import threading

import pytest

from repro import KernelConfig, UnbundledKernel
from repro.common.config import DcConfig, TcConfig
from repro.common.errors import ConfigError
from repro.common.records import KEY_MAX, KEY_MIN
from repro.tc import log as tc_log
from tests.conftest import lossy, populate


class TestEvictionPressure:
    def _tiny_buffer_kernel(self):
        config = KernelConfig(dc=DcConfig(page_size=512, buffer_capacity=6))
        kernel = UnbundledKernel(config)
        kernel.create_table("t")
        return kernel

    def test_workload_survives_constant_eviction(self):
        kernel = self._tiny_buffer_kernel()
        populate(kernel, 200)
        assert kernel.metrics.get("buffer.evictions") > 0
        with kernel.begin() as txn:
            assert len(txn.scan("t")) == 200
        kernel.dc.table("t").structure.validate()

    def test_eviction_plus_dc_crash(self):
        kernel = self._tiny_buffer_kernel()
        populate(kernel, 150)
        kernel.crash_dc()
        kernel.recover_dc()
        with kernel.begin() as txn:
            assert len(txn.scan("t")) == 150

    def test_eviction_plus_tc_crash(self):
        kernel = self._tiny_buffer_kernel()
        populate(kernel, 150)
        loser = kernel.begin()
        loser.update("t", 10, "dirty")
        kernel.crash_tc()
        kernel.recover_tc()
        with kernel.begin() as txn:
            assert txn.read("t", 10) == "value-00010"
            assert len(txn.scan("t")) == 150

    def test_evicted_split_pages_reload_through_dc_log(self):
        """A split's new page may never be flushed; after eviction it must
        reload through the stable-state loader (disk + DC log)."""
        kernel = self._tiny_buffer_kernel()
        populate(kernel, 100)
        # force everything out of cache
        kernel.tc.durability.broadcast_eosl()
        for page_id in list(kernel.dc.buffer.cached_ids()):
            page = kernel.dc.buffer.cached_page(page_id)
            if page is not None and page.dirty:
                kernel.dc.buffer.try_flush(page)
            kernel.dc.buffer.discard(page_id)
        with kernel.begin() as txn:
            assert len(txn.scan("t")) == 100


class TestGroupCommitDurability:
    """Force-before-ack at *every* batch size (the regression ordered by
    the FIG1 fast-path work): group commit coalesces who forces, never
    whether stability precedes the acknowledgement."""

    @pytest.mark.parametrize("group_size", [1, 2, 8, 100])
    def test_acknowledged_commit_is_stable_at_every_batch_size(self, group_size):
        config = KernelConfig(tc=TcConfig(group_commit_size=group_size))
        kernel = UnbundledKernel(config)
        kernel.create_table("t")
        with kernel.begin() as txn:
            txn.insert("t", 1, "durable")
        # commit returned => its record is on the stable log
        assert kernel.tc.log.stable_count() > 0
        kernel.crash_tc()
        kernel.recover_tc()
        with kernel.begin() as txn:
            assert txn.read("t", 1) == "durable"

    @pytest.mark.parametrize("group_size", [1, 3, 100])
    def test_every_acknowledged_commit_survives_a_crash(self, group_size):
        config = KernelConfig(tc=TcConfig(group_commit_size=group_size))
        kernel = UnbundledKernel(config)
        kernel.create_table("t")
        for key in range(3):
            with kernel.begin() as txn:
                txn.insert("t", key, "v")
        kernel.crash_tc()
        kernel.recover_tc()
        with kernel.begin() as txn:
            assert len(txn.scan("t")) == 3

    def test_rejects_invalid_group_commit_size(self):
        with pytest.raises(ConfigError):
            TcConfig(group_commit_size=0)

    def test_concurrent_committers_share_forces(self, monkeypatch):
        """Parked committers ride a leader's force: one force per wave of
        committers, yet every commit durable.

        The overlap is arranged through the coalescer itself, not the
        GIL: no committer of a wave proceeds past ``enter()`` until all
        have entered, so the election rule (``waiting >= size``) can only
        fire for the last one to park — the other three ride."""
        threads, rounds = 4, 8
        # The deadline is the one timing-dependent election rule; put it
        # out of reach so only the counting rules fire.
        monkeypatch.setattr(tc_log, "GROUP_COMMIT_DEADLINE_MS", 60_000.0)
        config = KernelConfig(tc=TcConfig(group_commit_size=threads))
        kernel = UnbundledKernel(config)
        kernel.create_table("t")
        # Pre-populate so workers update disjoint keys: updates take only
        # record locks (concurrent tail inserts would serialize on the
        # TABLE_END gap lock and defeat the point of the test).
        for worker_id in range(threads):
            for round_no in range(rounds):
                with kernel.begin() as txn:
                    txn.insert("t", worker_id * 100 + round_no, "seed")
        seed_commits = kernel.metrics.get("tc.commits")
        seed_forces = kernel.metrics.get("tclog.forces")
        coalescer = kernel.tc._group_commit
        all_entered = threading.Barrier(threads)
        real_enter = coalescer.enter

        def enter_together():
            real_enter()
            all_entered.wait(timeout=30)

        coalescer.enter = enter_together  # instance attribute shadows the method
        errors = []

        def worker(worker_id):
            try:
                for round_no in range(rounds):
                    with kernel.begin() as txn:
                        txn.update("t", worker_id * 100 + round_no, "v")
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        workers = [
            threading.Thread(target=worker, args=(n,)) for n in range(threads)
        ]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert not errors
        assert kernel.metrics.get("tc.commits") - seed_commits == threads * rounds
        assert kernel.metrics.get("tclog.forces") - seed_forces == rounds
        assert kernel.metrics.get("tclog.group_commit_riders") == (threads - 1) * rounds
        kernel.crash_tc()
        kernel.recover_tc()
        with kernel.begin() as txn:
            assert len(txn.scan("t")) == threads * rounds


class TestHostileChannel:
    def test_loss_duplication_and_reordering_together(self):
        config = KernelConfig(dc=DcConfig(page_size=512))
        kernel = UnbundledKernel(config, faults=lossy(99, loss=0.2, duplicate=0.2))
        kernel.create_table("t")
        for key in range(80):
            with kernel.begin() as txn:
                txn.insert("t", key, key * 3)
        with kernel.begin() as txn:
            rows = txn.scan("t")
        assert rows == [(key, key * 3) for key in range(80)]

    def test_hostile_channel_plus_crashes(self):
        config = KernelConfig(dc=DcConfig(page_size=512))
        kernel = UnbundledKernel(config, faults=lossy(4, loss=0.15, duplicate=0.1))
        kernel.create_table("t")
        populate(kernel, 60)
        kernel.crash_dc()
        kernel.recover_dc()
        loser = kernel.begin()
        loser.update("t", 5, "dirty")
        kernel.crash_tc()
        kernel.recover_tc()
        with kernel.begin() as txn:
            assert txn.read("t", 5) == "value-00005"
            assert len(txn.scan("t")) == 60


class TestConcurrentKernelUse:
    def test_threads_on_disjoint_tables(self):
        kernel = UnbundledKernel(KernelConfig(dc=DcConfig(page_size=1024)))
        for index in range(4):
            kernel.create_table(f"t{index}")
        errors: list[Exception] = []

        def worker(index: int):
            try:
                for op in range(60):
                    with kernel.begin() as txn:
                        txn.insert(f"t{index}", op, f"w{index}-{op}")
                with kernel.begin() as txn:
                    assert len(txn.scan(f"t{index}")) == 60
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors

    def test_threads_on_one_table_disjoint_ranges(self):
        kernel = UnbundledKernel(
            KernelConfig(
                dc=DcConfig(page_size=1024), tc=TcConfig(lock_timeout=5.0)
            )
        )
        kernel.create_table("t")
        errors: list[Exception] = []

        def worker(index: int):
            base = index * 1000
            try:
                for op in range(50):
                    with kernel.begin() as txn:
                        txn.insert("t", base + op, "v")
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        with kernel.begin() as txn:
            assert len(txn.scan("t")) == 200
        kernel.dc.table("t").structure.validate()


class TestExoticKeysAndValues:
    def test_string_keys(self, kernel):
        words = ["zebra", "apple", "mango", "kiwi", "fig"]
        with kernel.begin() as txn:
            for word in words:
                txn.insert("t", word, word.upper())
        with kernel.begin() as txn:
            rows = txn.scan("t")
        assert [key for key, _v in rows] == sorted(words)

    def test_composite_tuple_keys_with_bounds(self, kernel):
        with kernel.begin() as txn:
            for group in ("a", "b"):
                for member in range(3):
                    txn.insert("t", (group, member), f"{group}{member}")
        with kernel.begin() as txn:
            rows = txn.scan("t", ("a", KEY_MIN), ("a", KEY_MAX))
        assert [key for key, _v in rows] == [("a", 0), ("a", 1), ("a", 2)]

    def test_large_values_force_splits(self):
        kernel = UnbundledKernel(KernelConfig(dc=DcConfig(page_size=2048)))
        kernel.create_table("t")
        blob = "B" * 500
        with kernel.begin() as txn:
            for key in range(20):
                txn.insert("t", key, blob + str(key))
        assert kernel.metrics.get("btree.leaf_splits") > 0
        kernel.crash_all()
        kernel.recover_all()
        with kernel.begin() as txn:
            assert txn.read("t", 13) == blob + "13"

    def test_value_growth_forces_relocation(self):
        kernel = UnbundledKernel(KernelConfig(dc=DcConfig(page_size=512)))
        kernel.create_table("t")
        with kernel.begin() as txn:
            for key in range(8):
                txn.insert("t", key, "small")
        with kernel.begin() as txn:
            txn.update("t", 3, "L" * 300)  # no longer fits in place
        with kernel.begin() as txn:
            assert txn.read("t", 3) == "L" * 300
            assert len(txn.scan("t")) == 8
        kernel.dc.table("t").structure.validate()


class TestHeapTableIntegration:
    def test_heap_through_full_kernel_with_crashes(self):
        kernel = UnbundledKernel()
        kernel.dc.create_table("h", kind="heap", bucket_count=8)
        kernel.tc.refresh_routes(kernel.dc)
        for key in range(40):
            with kernel.begin() as txn:
                txn.insert("h", key, key)
        kernel.crash_dc()
        kernel.recover_dc()
        with kernel.begin() as txn:
            assert len(txn.scan("h")) == 40
        loser = kernel.begin()
        loser.update("h", 1, "dirty")
        kernel.crash_tc()
        kernel.recover_tc()
        with kernel.begin() as txn:
            assert txn.read("h", 1) == 1


class TestDcLogTruncationAcrossCrashes:
    def test_truncated_dc_log_then_dc_crash(self):
        kernel = UnbundledKernel(KernelConfig(dc=DcConfig(page_size=512)))
        kernel.create_table("t")
        populate(kernel, 80)
        kernel.tc.checkpoint()
        assert kernel.dc.checkpoint_dc_log()
        assert kernel.dc.storage.dc_log_length() == 0
        kernel.crash_dc()
        kernel.recover_dc()
        with kernel.begin() as txn:
            assert len(txn.scan("t")) == 80
        kernel.dc.table("t").structure.validate()

    def test_work_after_truncation_recovers(self):
        kernel = UnbundledKernel(KernelConfig(dc=DcConfig(page_size=512)))
        kernel.create_table("t")
        populate(kernel, 60)
        kernel.tc.checkpoint()
        assert kernel.dc.checkpoint_dc_log()
        for key in range(60, 120):
            with kernel.begin() as txn:
                txn.insert("t", key, f"value-{key:05d}")
        kernel.crash_all()
        kernel.recover_all()
        with kernel.begin() as txn:
            assert len(txn.scan("t")) == 120
