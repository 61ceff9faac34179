"""Introspection (stats) and simulation determinism."""

from __future__ import annotations

import pytest

from repro import KernelConfig, UnbundledKernel
from repro.common.config import DcConfig
from tests.conftest import lossy, populate


class TestStats:
    def test_dc_stats_shape(self, populated_kernel):
        stats = populated_kernel.dc.stats()
        assert stats["tables"]["t"]["records"] == 120
        assert stats["tables"]["t"]["kind"] == "btree"
        assert stats["tables"]["t"]["depth"] >= 2
        assert stats["tables"]["t"]["leaves"] >= 2
        assert stats["cached_pages"] > 0
        assert stats["dclog_records"] > 0

    def test_tc_stats_shape(self, populated_kernel):
        stats = populated_kernel.tc.stats()
        assert stats["log_records"] > 120
        assert stats["stable_records"] <= stats["log_records"]
        assert stats["eosl"] > 0
        assert stats["lwm"] > 0
        assert stats["dcs_attached"] == 1
        assert stats["active_transactions"] == 0
        assert stats["locks_held"] == 0

    def test_stats_track_activity(self, kernel):
        txn = kernel.begin()
        txn.insert("t", 1, "v")
        mid = kernel.tc.stats()
        assert mid["active_transactions"] == 1
        assert mid["locks_held"] > 0
        txn.commit()
        after = kernel.tc.stats()
        assert after["active_transactions"] == 0
        assert after["locks_held"] == 0

    def test_heap_stats(self):
        kernel = UnbundledKernel()
        kernel.dc.create_table("h", kind="heap", bucket_count=8)
        stats = kernel.dc.stats()
        assert stats["tables"]["h"]["kind"] == "heap"
        assert stats["tables"]["h"]["leaves"] == 8

    def test_stats_after_crash_recovery(self, populated_kernel):
        populated_kernel.crash_all()
        populated_kernel.recover_all()
        stats = populated_kernel.dc.stats()
        assert stats["tables"]["t"]["records"] == 120


class TestDeterminism:
    def _run(self, seed):
        config = KernelConfig(dc=DcConfig(page_size=512))
        kernel = UnbundledKernel(config, faults=lossy(seed, loss=0.2, duplicate=0.1))
        kernel.create_table("t")
        populate(kernel, 40)
        with kernel.begin() as txn:
            rows = tuple(txn.scan("t"))
        counters = kernel.metrics.counters()
        return rows, counters

    def test_same_seed_same_everything(self):
        """The simulation is fully deterministic: identical seeds produce
        identical final state AND identical mechanism counters (resends,
        duplicates, flushes...)."""
        rows_a, counters_a = self._run(seed=77)
        rows_b, counters_b = self._run(seed=77)
        assert rows_a == rows_b
        assert counters_a == counters_b

    def test_different_seed_same_state_different_path(self):
        rows_a, counters_a = self._run(seed=1)
        rows_b, counters_b = self._run(seed=2)
        assert rows_a == rows_b  # correctness is seed-independent
        assert counters_a != counters_b  # the path taken is not
