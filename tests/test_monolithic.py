"""The integrated baseline engine: same semantics, classic machinery."""

from __future__ import annotations

import pytest

from repro.common.config import DcConfig, TcConfig
from repro.common.errors import (
    DuplicateKeyError,
    NoSuchRecordError,
    TransactionAborted,
)
from repro.kernel.monolithic import MonolithicEngine, MonoTxnState
from repro.workloads.generator import OltpMix, WorkloadRunner
from repro.workloads.ycsb import PRESETS, YcsbConfig, YcsbWorkload
from tests.conftest import run_in_threads


@pytest.fixture
def engine():
    engine = MonolithicEngine(DcConfig(page_size=512))
    engine.create_table("t")
    return engine


def populate(engine, count):
    for key in range(count):
        with engine.begin() as txn:
            txn.insert("t", key, f"value-{key:05d}")


class TestBasics:
    def test_insert_read_update_delete(self, engine):
        with engine.begin() as txn:
            txn.insert("t", 1, "a")
            assert txn.read("t", 1) == "a"
            txn.update("t", 1, "b")
            txn.delete("t", 1)
            assert txn.read("t", 1) is None

    def test_duplicate_and_missing_errors(self, engine):
        with engine.begin() as txn:
            txn.insert("t", 1, "a")
        txn = engine.begin()
        with pytest.raises(DuplicateKeyError):
            txn.insert("t", 1, "b")
        with pytest.raises(NoSuchRecordError):
            txn.update("t", 99, "x")
        txn.abort()

    def test_scan_with_bounds(self, engine):
        populate(engine, 50)
        with engine.begin() as txn:
            rows = txn.scan("t", 10, 20)
            assert [key for key, _v in rows] == list(range(10, 21))
            assert len(txn.scan("t", limit=5)) == 5

    def test_splits_under_load(self, engine):
        populate(engine, 300)
        assert engine.metrics.get("mono.splits") > 0
        assert engine.record_count("t") == 300

    def test_abort_rolls_back(self, engine):
        populate(engine, 10)
        txn = engine.begin()
        txn.update("t", 1, "dirty")
        txn.insert("t", 99, "dirty")
        txn.delete("t", 2)
        txn.abort()
        with engine.begin() as check:
            assert check.read("t", 1) == "value-00001"
            assert check.read("t", 99) is None
            assert check.read("t", 2) == "value-00002"

    def test_finished_txn_unusable(self, engine):
        txn = engine.begin()
        txn.commit()
        with pytest.raises(TransactionAborted):
            txn.read("t", 1)
        assert txn.state is MonoTxnState.COMMITTED


class TestLocking:
    def test_write_conflict_times_out(self):
        engine = MonolithicEngine(
            DcConfig(page_size=512), TcConfig(lock_timeout=0.05)
        )
        engine.create_table("t")
        with engine.begin() as setup:
            setup.insert("t", 1, "v")
        holder = engine.begin()
        holder.update("t", 1, "held")
        other = engine.begin()
        with pytest.raises(Exception):
            other.update("t", 1, "blocked")
        holder.commit()

    def test_scan_gap_locks_block_phantom(self):
        engine = MonolithicEngine(
            DcConfig(page_size=512), TcConfig(lock_timeout=0.05)
        )
        engine.create_table("t")
        for key in range(0, 20, 2):
            with engine.begin() as txn:
                txn.insert("t", key, "v")
        scanner = engine.begin()
        scanner.scan("t", 4, 12)
        blocked = engine.begin()
        with pytest.raises(Exception):
            blocked.insert("t", 7, "phantom")
        scanner.commit()

    def test_no_messages_no_probes(self, engine):
        """The integrated advantage: zero network activity."""
        populate(engine, 50)
        with engine.begin() as txn:
            txn.scan("t")
        assert engine.metrics.get("channel.requests") == 0
        assert engine.metrics.get("tc.probes") == 0


class TestRecovery:
    def test_crash_loses_tail_and_cache_together(self, engine):
        populate(engine, 50)
        lost = engine.crash()
        stats = engine.recover()
        assert engine.record_count("t") == 50

    def test_page_lsn_test_skips_stable_work(self, engine):
        populate(engine, 50)
        engine.checkpoint()  # flushes all pages
        engine.crash()
        stats = engine.recover()
        assert stats["redo"] <= 2
        assert engine.metrics.get("mono.redo_skipped") >= 0

    def test_loser_rolled_back_at_restart(self, engine):
        populate(engine, 20)
        loser = engine.begin()
        loser.update("t", 3, "dirty")
        loser.insert("t", 99, "dirty")
        engine.force_log()
        engine.crash()
        stats = engine.recover()
        assert stats["undo"] == 2
        with engine.begin() as check:
            assert check.read("t", 3) == "value-00003"
            assert check.read("t", 99) is None

    def test_splits_redone_in_original_order(self, engine):
        """Section 5.2.1: integrated SMOs replay exactly where they were."""
        populate(engine, 200)
        engine.crash()
        engine.recover()
        assert engine.record_count("t") == 200
        with engine.begin() as check:
            assert check.read("t", 150) == "value-00150"

    def test_merges_survive_recovery(self, engine):
        populate(engine, 100)
        for key in range(100):
            if key % 4 != 0:  # delete 75% so leaves fall below min fill
                with engine.begin() as txn:
                    txn.delete("t", key)
        assert engine.metrics.get("mono.merges") > 0
        engine.crash()
        engine.recover()
        assert engine.record_count("t") == 25

    def test_merge_of_a_loser_survives_the_crash(self):
        """A merge frees its victim page on stable storage at once, so the
        record that moved the victim's keys is forced first: a crash that
        loses the deleting transaction's log tail loses no committed key."""
        engine = MonolithicEngine(DcConfig(page_size=128))
        engine.create_table("t")
        for key in range(0, 26, 2):
            with engine.begin() as txn:
                txn.insert("t", key, f"v{key}")
        engine.checkpoint()
        loser = engine.begin()
        for key in (8, 10, 12):
            loser.delete("t", key)
        assert engine.metrics.get("mono.merges") > 0
        loser.abort()
        engine.crash()
        engine.recover()
        engine.tree("t").validate()
        with engine.begin() as check:
            assert check.scan("t") == [(key, f"v{key}") for key in range(0, 26, 2)]

    def test_repeated_crashes(self, engine):
        populate(engine, 30)
        for _ in range(3):
            engine.crash()
            engine.recover()
        assert engine.record_count("t") == 30

    def test_checkpoint_restart_work_scales_down(self, engine):
        populate(engine, 100)
        engine.crash()
        no_ckpt = engine.recover()["redo"]
        engine.checkpoint()
        populate_extra = engine.begin()
        populate_extra.insert("t", 500, "x")
        populate_extra.commit()
        engine.crash()
        with_ckpt = engine.recover()["redo"]
        assert with_ckpt < no_ckpt / 10


class TestParityWithUnbundled:
    """Both engines run identical logical workloads to identical states —
    the FIG1 benchmark depends on this equivalence."""

    def test_same_final_state(self):
        from repro import KernelConfig, UnbundledKernel
        from repro.common.config import DcConfig as Dc

        mono = MonolithicEngine(DcConfig(page_size=512))
        mono.create_table("t")
        unbundled = UnbundledKernel(KernelConfig(dc=Dc(page_size=512)))
        unbundled.create_table("t")
        script = [
            ("insert", key, f"v{key}") for key in range(40)
        ] + [("update", 5, "u5"), ("delete", 7, None), ("insert", 100, "tail")]
        for engine in (mono, unbundled):
            for action, key, value in script:
                with engine.begin() as txn:
                    getattr(txn, action)(*(a for a in ("t", key, value) if a is not None))
        with mono.begin() as txn_m, unbundled.begin() as txn_u:
            assert txn_m.scan("t") == txn_u.scan("t")


def load_keys(engine, count: int) -> None:
    payload = "x" * 24
    for key in range(count):
        with engine.begin() as txn:
            txn.insert("t", key, f"{payload}{key:06d}")


class TestBaselineSeries:
    """The monolithic baseline under each workload the unbundled kernel is
    compared on, run once and unmeasured, so a change to the shared B-tree
    or buffer pool that breaks the baseline engine fails here."""

    @pytest.mark.parametrize("records", [100, 400])
    def test_fail_together_recovery(self, records):
        engine = MonolithicEngine(DcConfig(page_size=512))
        engine.create_table("t")
        load_keys(engine, records)
        engine.crash()
        engine.recover()
        assert engine.record_count("t") == records

    def test_threads_insert_into_disjoint_regions(self):
        threads, inserts = 4, 80
        engine = MonolithicEngine(DcConfig(page_size=2048), TcConfig(lock_timeout=30.0))
        engine.create_table("t")
        with engine.begin() as txn:  # each region's upper fence
            for thread_id in range(threads + 1):
                txn.insert("t", thread_id * 10_000 + 9_999, "fence")

        def worker(thread_id: int) -> None:
            for op in range(inserts):
                with engine.begin() as txn:
                    txn.insert("t", thread_id * 10_000 + op, "v")

        run_in_threads(worker, threads)
        assert engine.record_count("t") == threads * inserts + threads + 1

    def test_fig1_oltp_mix_and_point_reads(self):
        engine = MonolithicEngine(DcConfig(page_size=2048))
        engine.create_table("t")
        load_keys(engine, 300)
        mix = OltpMix(updates=0.4, inserts=0.1, ops_per_txn=4)
        WorkloadRunner(engine.begin, "t", keyspace=300, mix=mix, seed=7).run(150)
        with engine.begin() as txn:
            for key in range(0, 300, 3):
                assert txn.read("t", key) is not None

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_ycsb_preset(self, preset):
        engine = MonolithicEngine(DcConfig(page_size=1024))
        engine.create_table("usertable")
        workload = YcsbWorkload(
            engine.begin, config=YcsbConfig(preset=preset, keyspace=300, seed=7)
        )
        workload.load()
        workload.run(200)
