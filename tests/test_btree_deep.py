"""Deep structural B-tree scenarios: churn waves, page-size extremes."""

from __future__ import annotations

import random

import pytest

from repro import KernelConfig, UnbundledKernel
from repro.common.config import DcConfig
from repro.common.records import sizeof_key
from repro.storage.page import INNER_ENTRY_BYTES, PAGE_HEADER_BYTES, InnerPage


def kernel_with_page_size(page_size):
    kernel = UnbundledKernel(KernelConfig(dc=DcConfig(page_size=page_size)))
    kernel.create_table("t")
    return kernel


class TestPageSizeExtremes:
    @pytest.mark.parametrize("page_size", [256, 512, 2048, 16384])
    def test_load_and_verify_across_page_sizes(self, page_size):
        kernel = kernel_with_page_size(page_size)
        with kernel.begin() as txn:
            for key in range(300):
                txn.insert("t", key, f"v{key:04d}")
        structure = kernel.dc.table("t").structure
        structure.validate()
        assert structure.record_count() == 300
        with kernel.begin() as txn:
            assert len(txn.scan("t", 100, 199)) == 100

    def test_tiny_pages_build_deep_trees(self):
        kernel = kernel_with_page_size(256)
        with kernel.begin() as txn:
            for key in range(400):
                txn.insert("t", key, "x")
        structure = kernel.dc.table("t").structure
        assert structure.depth() >= 3
        structure.validate()
        kernel.crash_all()
        kernel.recover_all()
        kernel.dc.table("t").structure.validate()
        with kernel.begin() as txn:
            assert len(txn.scan("t")) == 400

    def test_inner_pages_keep_their_byte_totals(self):
        """Inner splits, merges and a restart: every inner page's
        ``used_bytes()`` still equals its separators and children sized
        afresh (the page keeps the separators' total as it goes)."""
        kernel = kernel_with_page_size(256)
        keys = [f"key-{n * 7919 % 1000:03d}" + "x" * (n % 5) for n in range(400)]
        with kernel.begin() as txn:
            for key in keys:
                txn.insert("t", key, "v")

        def check():
            dc = kernel.dc
            inner_pages = [
                page
                for page in map(dc.buffer.cached_page, dc.buffer.cached_ids())
                if isinstance(page, InnerPage)
            ]
            assert inner_pages
            for page in inner_pages:
                assert page.used_bytes() == PAGE_HEADER_BYTES + sum(
                    map(sizeof_key, page.separators)
                ) + INNER_ENTRY_BYTES * len(page.children)

        assert kernel.dc.metrics.get("btree.inner_splits") > 0
        check()
        with kernel.begin() as txn:
            for key in keys[::2]:
                txn.delete("t", key)
        assert kernel.dc.metrics.get("btree.consolidations") > 0
        check()
        kernel.crash_all()
        kernel.recover_all()
        with kernel.begin() as txn:
            for key in keys[1::4]:
                txn.delete("t", key)
        check()
        kernel.dc.table("t").structure.validate()


class TestChurnWaves:
    def test_alternating_load_and_drain_waves(self):
        """Grow to N, drain to N/10, regrow — splits and merges interleave
        and every wave must leave a valid tree matching a model."""
        kernel = kernel_with_page_size(512)
        rng = random.Random(11)
        model: dict[int, str] = {}
        for wave in range(4):
            # grow
            for _ in range(120):
                key = rng.randrange(500)
                if key not in model:
                    with kernel.begin() as txn:
                        txn.insert("t", key, f"w{wave}.{key}")
                    model[key] = f"w{wave}.{key}"
            # drain
            victims = rng.sample(sorted(model), k=int(len(model) * 0.8))
            for key in victims:
                with kernel.begin() as txn:
                    txn.delete("t", key)
                del model[key]
            structure = kernel.dc.table("t").structure
            structure.validate()
            with kernel.begin() as txn:
                assert dict(txn.scan("t")) == model
        assert kernel.metrics.get("btree.leaf_splits") > 0
        assert kernel.metrics.get("btree.consolidations") > 0

    def test_churn_with_crashes_between_waves(self):
        kernel = kernel_with_page_size(512)
        rng = random.Random(13)
        model: dict[int, int] = {}
        for wave in range(3):
            for _ in range(100):
                key = rng.randrange(300)
                with kernel.begin() as txn:
                    if key in model:
                        txn.delete("t", key)
                        del model[key]
                    else:
                        txn.insert("t", key, wave)
                        model[key] = wave
            if wave % 2 == 0:
                kernel.crash_dc()
                kernel.recover_dc()
            else:
                kernel.crash_tc()
                kernel.recover_tc()
            with kernel.begin() as txn:
                assert dict(txn.scan("t")) == model
            kernel.dc.table("t").structure.validate()


class TestKeyShapes:
    def test_long_string_keys(self):
        kernel = kernel_with_page_size(2048)
        prefixes = ["alpha", "bravo", "charlie", "delta"]
        with kernel.begin() as txn:
            for prefix in prefixes:
                for index in range(30):
                    txn.insert("t", f"{prefix}/{index:04d}", index)
        with kernel.begin() as txn:
            bravo = txn.scan("t", "bravo/", "bravo/￿")
        assert len(bravo) == 30
        kernel.dc.table("t").structure.validate()

    def test_deeply_nested_tuple_keys(self):
        kernel = kernel_with_page_size(2048)
        with kernel.begin() as txn:
            for a in range(3):
                for b in range(3):
                    for c in range(3):
                        txn.insert("t", (a, (b, c)), a * 100 + b * 10 + c)
        with kernel.begin() as txn:
            rows = txn.scan("t")
        assert len(rows) == 27
        assert [key for key, _v in rows] == sorted(key for key, _v in rows)

    def test_negative_and_zero_numeric_keys(self):
        kernel = kernel_with_page_size(512)
        keys = [-50, -1, 0, 1, 50, -25, 25]
        with kernel.begin() as txn:
            for key in keys:
                txn.insert("t", key, key)
        with kernel.begin() as txn:
            scanned = [key for key, _v in txn.scan("t")]
        assert scanned == sorted(keys)
        with kernel.begin() as txn:
            assert [k for k, _v in txn.scan("t", -30, 10)] == [-25, -1, 0, 1]
