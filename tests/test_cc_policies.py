"""Conformance suite for the pluggable concurrency-control policies.

Every policy behind ``TcConfig.cc_policy`` — strict 2PL, OCC and MVCC
snapshot reads — must pass the *same* transactional contract: committed
work is durably visible, aborted work leaves no trace, write-write
conflicts resolve (by blocking or aborting, never by corruption), and a
committed transaction never observes a phantom.  Where the policies
legitimately differ (does a read block? does the conflict surface at
the operation or at commit?) the expectations are spelled out per
policy, so the matrix documents the contract instead of averaging over
it.

The schedule explorer (tests/test_schedule_explorer.py) proves the
policies serializable across thousands of interleavings; this file
pins the human-sized semantics a policy switch must preserve.
"""

from __future__ import annotations

import random
import time

import pytest

from repro import (
    KernelConfig,
    TransactionAborted,
    UnbundledKernel,
)
from repro.common.config import CC_POLICIES, ConfigError, DcConfig, TcConfig
from repro.common.errors import ReproError
from repro.workloads.generator import zipf_keys
from tests.conftest import run_in_threads


def make_kernel(policy, optimized=False, **overrides):
    if optimized:
        tc = TcConfig.optimized(cc_policy=policy, **overrides)
    else:
        tc = TcConfig(cc_policy=policy, **overrides)
    kernel = UnbundledKernel(KernelConfig(tc=tc))
    kernel.create_table("t")
    return kernel


@pytest.fixture(params=CC_POLICIES)
def policy(request):
    return request.param


@pytest.fixture
def cc_kernel(policy):
    kernel = make_kernel(policy)
    yield kernel
    kernel.close()


def seed_rows(kernel, keys=(1, 2, 3)):
    with kernel.begin() as txn:
        for key in keys:
            txn.insert("t", key, f"seed.{key}")


class TestConformance:
    def test_policy_reaches_the_tc(self, cc_kernel, policy):
        assert cc_kernel.tc.stats()["cc_policy"] == policy

    def test_four_op_transaction_commits(self, cc_kernel):
        seed_rows(cc_kernel)
        with cc_kernel.begin() as txn:
            txn.insert("t", 10, "new")
            txn.update("t", 1, "updated")
            txn.delete("t", 2)
            assert txn.read("t", 3) == "seed.3"
        with cc_kernel.begin() as check:
            assert check.read("t", 10) == "new"
            assert check.read("t", 1) == "updated"
            assert check.read("t", 2) is None
            assert check.read("t", 3) == "seed.3"

    def test_four_op_transaction_aborts_without_trace(self, cc_kernel):
        seed_rows(cc_kernel)
        txn = cc_kernel.begin()
        txn.insert("t", 10, "new")
        txn.update("t", 1, "updated")
        txn.delete("t", 2)
        assert txn.read("t", 3) == "seed.3"
        txn.abort()
        with cc_kernel.begin() as check:
            assert check.read("t", 10) is None
            assert check.read("t", 1) == "seed.1"
            assert check.read("t", 2) == "seed.2"
            assert [k for k, _ in check.scan("t")] == [1, 2, 3]

    def test_write_write_conflict_resolves(self, policy):
        """Writers keep exclusive record locks under every policy (the
        undo-information discipline), so the second writer either waits
        it out or aborts — and succeeds once the first settles."""
        kernel = make_kernel(policy, lock_timeout=0.05)
        try:
            seed_rows(kernel)
            first = kernel.begin()
            first.update("t", 1, "first")
            second = kernel.begin()
            with pytest.raises((TransactionAborted, ReproError)):
                second.update("t", 1, "second")
            first.commit()
            with kernel.begin() as retry:
                retry.update("t", 1, "second-retry")
            with kernel.begin() as check:
                assert check.read("t", 1) == "second-retry"
        finally:
            kernel.close()

    def test_read_under_active_writer(self, policy):
        """The policy matrix for a read-only transaction hitting a key
        with an uncommitted in-place write:

        - 2pl: the read *blocks* on the writer's X lock (times out here);
        - occ: the read conflict-aborts immediately — never blocks;
        - mvcc: the read returns the committed before-image — never
          blocks, never aborts.
        """
        timeout = 0.1 if policy == "2pl" else 5.0
        kernel = make_kernel(policy, lock_timeout=timeout)
        try:
            seed_rows(kernel)
            writer = kernel.begin()
            writer.update("t", 1, "uncommitted")
            reader = kernel.begin()
            start = time.monotonic()
            if policy == "2pl":
                with pytest.raises((TransactionAborted, ReproError)):
                    reader.read("t", 1)
            elif policy == "occ":
                with pytest.raises(TransactionAborted):
                    reader.read("t", 1)
            else:
                assert reader.read("t", 1) == "seed.1"
                reader.commit()  # before the writer: validation passes
            elapsed = time.monotonic() - start
            if policy != "2pl":
                # Far below lock_timeout: the read never touched a lock.
                assert elapsed < 2.0
            writer.commit()
        finally:
            kernel.close()

    def test_phantom_window_scan_then_insert(self, policy):
        """A committed scan admits no phantom under any policy, but the
        mechanism differs: 2pl gap locks *block* the insert; occ/mvcc
        let the insert commit and fail the scanner's table-stamp
        validation instead."""
        kernel = make_kernel(policy, lock_timeout=0.05)
        try:
            seed_rows(kernel, keys=(2, 4, 6))
            scanner = kernel.begin()
            assert [k for k, _ in scanner.scan("t", 2, 6)] == [2, 4, 6]
            inserter = kernel.begin()
            if policy == "2pl":
                with pytest.raises((TransactionAborted, ReproError)):
                    inserter.insert("t", 5, "phantom")
                scanner.commit()
            else:
                inserter.insert("t", 5, "phantom")
                inserter.commit()
                with pytest.raises(TransactionAborted):
                    scanner.commit()
        finally:
            kernel.close()

    def test_policy_composes_with_optimized_config(self, policy):
        """cc_policy x TcConfig.optimized(): batching, undo cache and
        group commit underneath any policy."""
        kernel = make_kernel(policy, optimized=True)
        try:
            seed_rows(kernel)
            with kernel.begin() as txn:
                txn.insert("t", 20, "a")
                txn.update("t", 1, "opt")
                assert txn.read("t", 20) == "a"
            doomed = kernel.begin()
            doomed.update("t", 2, "doomed")
            doomed.abort()
            with kernel.begin() as check:
                assert check.read("t", 20) == "a"
                assert check.read("t", 1) == "opt"
                assert check.read("t", 2) == "seed.2"
        finally:
            kernel.close()

    def test_read_only_transaction_commits_clean(self, cc_kernel):
        seed_rows(cc_kernel)
        with cc_kernel.begin() as txn:
            assert txn.read("t", 1) == "seed.1"
            assert txn.read("t", 1) == "seed.1"  # repeatable
            assert len(txn.scan("t")) == 3


class TestPolicySpecificSemantics:
    def test_occ_stale_read_fails_validation(self):
        kernel = make_kernel("occ")
        try:
            seed_rows(kernel)
            reader = kernel.begin()
            assert reader.read("t", 1) == "seed.1"
            with kernel.begin() as writer:
                writer.update("t", 1, "newer")
            with pytest.raises(TransactionAborted, match="validation"):
                reader.commit()
            assert kernel.metrics.get("tc.cc_validation_failures") >= 1
        finally:
            kernel.close()

    def test_occ_reads_take_no_locks(self):
        kernel = make_kernel("occ")
        try:
            seed_rows(kernel)
            with kernel.begin() as reader:
                reader.read("t", 1)
                assert kernel.metrics.get("tc.cc_lockfree_reads") >= 1
        finally:
            kernel.close()

    def test_mvcc_overlay_scan_hides_uncommitted_structural_ops(self):
        """An uncommitted insert is invisible and an uncommitted delete
        still visible to a concurrent snapshot scan."""
        kernel = make_kernel("mvcc")
        try:
            seed_rows(kernel, keys=(1, 2, 3))
            writer = kernel.begin()
            writer.insert("t", 4, "uncommitted-insert")
            writer.delete("t", 2)
            scanner = kernel.begin()
            assert [k for k, _ in scanner.scan("t")] == [1, 2, 3]
            assert dict(scanner.scan("t"))[2] == "seed.2"
            writer.commit()
            with kernel.begin() as after:
                assert [k for k, _ in after.scan("t")] == [1, 3, 4]
        finally:
            kernel.close()

    def test_mvcc_first_committer_wins(self):
        kernel = make_kernel("mvcc")
        try:
            seed_rows(kernel)
            reader = kernel.begin()
            assert reader.read("t", 1) == "seed.1"
            with kernel.begin() as first:
                first.update("t", 1, "first-committer")
            with pytest.raises(TransactionAborted, match="validation"):
                reader.commit()
        finally:
            kernel.close()

    def test_mvcc_before_image_read_metric(self):
        kernel = make_kernel("mvcc")
        try:
            seed_rows(kernel)
            writer = kernel.begin()
            writer.update("t", 1, "uncommitted")
            with_reader = kernel.begin()
            assert with_reader.read("t", 1) == "seed.1"
            assert kernel.metrics.get("tc.cc_before_image_reads") >= 1
            with_reader.commit()
            writer.commit()
        finally:
            kernel.close()


class TestConfigVocabulary:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError):
            TcConfig(cc_policy="serial-dreams")

    def test_policies_enumerated(self):
        assert CC_POLICIES == ("2pl", "occ", "mvcc")


class TestContendedReadHeavySkew:
    """Four threads of 8-read transactions over a Zipf-skewed keyspace,
    YCSB-B (40 % of transactions also update one hot key) and YCSB-C
    (reads only): every transaction commits under every policy, retried
    until it does, and OCC serves its reads without the lock manager."""

    THREADS, TXNS, READS, KEYSPACE, SEED = 4, 50, 8, 200, 7

    def drive(self, policy: str, update_prob: float) -> dict:
        kernel = UnbundledKernel(
            KernelConfig(
                dc=DcConfig(page_size=1024),
                tc=TcConfig(cc_policy=policy, lock_timeout=30.0),
            )
        )
        kernel.create_table("usertable")
        try:
            with kernel.begin() as txn:
                for key in range(self.KEYSPACE):
                    txn.insert("usertable", key, key * 10)
            committed = [0] * self.THREADS

            def worker(worker_id: int) -> None:
                per_txn = self.READS + 1
                keys = zipf_keys(
                    self.TXNS * per_txn, self.KEYSPACE, seed=self.SEED + worker_id
                )
                rng = random.Random(self.SEED * 100 + worker_id)
                for start in range(0, len(keys), per_txn):
                    batch = keys[start : start + per_txn]
                    while True:  # retry the transaction until it commits
                        txn = kernel.begin()
                        try:
                            for key in batch[: self.READS]:
                                txn.read("usertable", key)
                            if rng.random() < update_prob:
                                txn.update(
                                    "usertable", batch[-1], rng.randrange(10**6)
                                )
                            txn.commit()
                            committed[worker_id] += 1
                            break
                        except (TransactionAborted, ReproError):
                            try:
                                txn.abort()
                            except ReproError:
                                pass

            run_in_threads(worker, self.THREADS)
            return {
                "commits": sum(committed),
                "lockfree_reads": kernel.metrics.get("tc.cc_lockfree_reads"),
            }
        finally:
            kernel.close()

    @pytest.mark.parametrize("preset, update_prob", [("B", 0.4), ("C", 0.0)])
    def test_every_policy_commits_every_txn(self, preset, update_prob):
        rows = {policy: self.drive(policy, update_prob) for policy in CC_POLICIES}
        for row in rows.values():
            assert row["commits"] == self.THREADS * self.TXNS
        assert rows["occ"]["lockfree_reads"] > 0
