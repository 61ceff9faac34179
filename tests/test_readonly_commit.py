"""A transaction pays only for what it logged (docs/architecture.md §3).

The TC owns logging and log forcing, so it may skip both for a
transaction that appended nothing to its log: a read-only commit or
abort writes no commit / abort / end record, stays out of the
group-commit coalescer and forces nothing — in the TC server, no journal
write.  What decides is ``Transaction.logged``, not an empty undo chain:
a write the DC rejected left the chain but stayed in the log.  Commit-time
validation, lock release and the counters are untouched.
"""

from __future__ import annotations

import pytest

from repro import KernelConfig, UnbundledKernel
from repro.cloud.router import TcServiceDeployment
from repro.common.config import CC_POLICIES, TcConfig
from repro.common.errors import ReproError, TransactionAborted
from repro.common.ops import OpResult, OpStatus, UpdateOp
from repro.sim.supervisor import Supervisor
from repro.tc.log import AbortRecord, CommitRecord, CompensationRecord, TxnEndRecord
from tests.test_tc_service import kill_tc

BURST = 25


def kernel_for(cc_policy: str, **tc_kwargs) -> UnbundledKernel:
    kernel = UnbundledKernel(
        KernelConfig(tc=TcConfig.optimized(cc_policy=cc_policy, **tc_kwargs))
    )
    kernel.create_table("t")
    with kernel.begin() as txn:
        for key in range(4):
            txn.insert("t", key, f"v{key}")
    return kernel


def service_for(cc_policy: str) -> TcServiceDeployment:
    """One TC server over one DC server; the caller creates table ``t``."""
    return TcServiceDeployment(
        tc_count=1,
        dc_count=1,
        partitions=4,
        tc_config=TcConfig.optimized(cc_policy=cc_policy),
    )


def log_footprint(kernel: UnbundledKernel) -> tuple:
    log = kernel.tc.log
    return (
        log.record_count(),
        log.stable_count(),
        log.eosl,
        kernel.metrics.get("tclog.forces"),
        kernel.metrics.get("tclog.bytes"),
    )


def read_only_burst(begin) -> None:
    """BURST committed and BURST aborted transactions that only read:
    point reads of present and absent keys, and a scan."""
    for round_no in range(BURST):
        for finish in ("commit", "abort"):
            txn = begin()
            assert txn.read("t", round_no % 4) == f"v{round_no % 4}"
            assert txn.read("t", 1000 + round_no) is None
            assert len(txn.scan("t", 0, 3)) == 4
            getattr(txn, finish)()


@pytest.mark.parametrize("cc_policy", CC_POLICIES)
class TestNothingLoggedNothingForced:
    def test_in_process(self, cc_policy):
        kernel = kernel_for(cc_policy)
        before = log_footprint(kernel)
        commits = kernel.metrics.get("tc.commits")
        aborts = kernel.metrics.get("tc.aborts")
        read_only_burst(kernel.begin)
        assert log_footprint(kernel) == before
        # Still transactions in every other respect.
        assert kernel.metrics.get("tc.commits") - commits == BURST
        assert kernel.metrics.get("tc.aborts") - aborts == BURST
        assert kernel.tc.active_count() == 0
        assert kernel.tc.locks.total_locks() == 0

    def test_empty_transaction(self, cc_policy):
        kernel = kernel_for(cc_policy)
        before = log_footprint(kernel)
        kernel.begin().commit()
        kernel.begin().abort()
        assert log_footprint(kernel) == before

    def test_a_write_still_commits_through_the_log(self, cc_policy):
        kernel = kernel_for(cc_policy)
        records, _stable, eosl, forces, _bytes = log_footprint(kernel)
        with kernel.begin() as txn:
            assert txn.read("t", 1) == "v1"
            txn.update("t", 1, "w1")
        tail = kernel.tc.log.all_records()[records:]
        assert [type(record) for record in tail][-2:] == [CommitRecord, TxnEndRecord]
        assert kernel.metrics.get("tclog.forces") == forces + 1
        assert kernel.tc.log.eosl > eosl

    @pytest.mark.process
    def test_through_the_tc_server(self, cc_policy):
        """The same, where the force is a real journal write."""

        def footprint(tc) -> tuple:
            stats = tc.stats()
            counters = stats["counters"]
            return (
                stats["log_records"],
                stats["stable_records"],
                stats["eosl"],
                stats["journal_bytes"],
                counters.get("tclog.forces", 0),
                counters.get("tclog.journal_forces", 0),
            )

        with service_for(cc_policy) as dep:
            dep.create_table("t")
            tc = dep.tcs["tc1"]
            with tc.begin() as txn:
                for key in range(4):
                    txn.insert("t", key, f"v{key}")
            before = footprint(tc)
            assert before[3] > 0 and before[5] > 0  # the write was journaled
            commits = tc.stats()["counters"]["tc.commits"]
            read_only_burst(tc.begin)
            assert footprint(tc) == before
            stats = tc.stats()
            assert stats["counters"]["tc.commits"] - commits == BURST
            assert stats["open_transactions"] == 0
            assert stats["active_transactions"] == 0


@pytest.mark.parametrize("cc_policy", CC_POLICIES)
@pytest.mark.parametrize("finish", ["commit", "abort"])
def test_rejected_only_write_takes_the_logged_path(cc_policy, finish):
    """The TC validated the update and logged it; the DC refused it.  The
    record left the undo chain behind a cancel marker, but the log holds
    records under this id — so the outcome must be logged (and a commit
    forced), or restart would see an unfinished transaction."""
    kernel = kernel_for(cc_policy, batch_max_ops=1)
    real = kernel.dc._execute

    def rejecting(handle, sub):
        if isinstance(sub.op, UpdateOp):
            return OpResult(status=OpStatus.ERROR, message="injected")
        return real(handle, sub)

    kernel.dc._execute = rejecting
    records = kernel.tc.log.record_count()
    forces = kernel.metrics.get("tclog.forces")
    txn = kernel.begin()
    with pytest.raises(ReproError):
        txn.update("t", 1, "never")
    kernel.dc._execute = real
    assert txn.op_records == [] and txn.logged
    assert kernel.metrics.get("tc.canceled_ops") == 1
    getattr(txn, finish)()
    tail = kernel.tc.log.all_records()[records:]
    outcome = CommitRecord if finish == "commit" else AbortRecord
    assert [type(record) for record in tail[1:]] == [
        CompensationRecord, outcome, TxnEndRecord,
    ]  # fmt: skip
    assert {record.txn_id for record in tail} == {txn.txn_id}
    if finish == "commit":
        assert kernel.metrics.get("tclog.forces") == forces + 1
        assert kernel.tc.log.eosl >= tail[2].lsn
    kernel.tc.force_log()
    kernel.crash_tc()
    stats = kernel.recover_tc()
    assert stats["losers"] == 0 and stats["undo_ops"] == 0
    with kernel.begin() as check:
        assert check.read("t", 1) == "v1"


@pytest.mark.parametrize("cc_policy", ["occ", "mvcc"])
def test_stale_read_only_transaction_still_fails_validation(cc_policy):
    """Skipping the log is not skipping the commit-time gate: a reader
    whose read set a writer settled under it aborts at commit, exactly
    as before, and leaves nothing in the log doing so."""
    kernel = kernel_for(cc_policy)
    reader = kernel.begin()
    assert reader.read("t", 2) == "v2"
    with kernel.begin() as writer:
        writer.update("t", 2, "newer")
    before = log_footprint(kernel)
    failures = kernel.metrics.get("tc.cc_validation_failures")
    aborts = kernel.metrics.get("tc.aborts")
    with pytest.raises(TransactionAborted):
        reader.commit()
    assert kernel.metrics.get("tc.cc_validation_failures") == failures + 1
    assert kernel.metrics.get("tc.aborts") == aborts + 1
    assert log_footprint(kernel) == before
    assert kernel.tc.active_count() == 0


@pytest.mark.parametrize("cc_policy", CC_POLICIES)
class TestRestartAfterReadOnlyBurst:
    def test_in_process(self, cc_policy):
        kernel = kernel_for(cc_policy)
        with kernel.begin() as txn:
            txn.insert("t", 9, "kept")
        kernel.tc.force_log()  # the writer's end record, too
        read_only_burst(kernel.begin)
        open_reader = kernel.begin()  # still open at the crash
        assert open_reader.read("t", 9) == "kept"
        assert kernel.crash_tc() == 0  # no volatile tail: nothing was appended
        stats = kernel.recover_tc()
        assert stats["losers"] == 0 and stats["undo_ops"] == 0
        with kernel.begin() as check:
            assert check.read("t", 9) == "kept"
            assert len(check.scan("t")) == 5
        with kernel.begin() as txn:
            txn.update("t", 9, "after")
        with kernel.begin() as check:
            assert check.read("t", 9) == "after"

    @pytest.mark.process
    def test_tc_server_killed(self, cc_policy):
        with service_for(cc_policy) as dep:
            dep.create_table("t")
            tc = dep.tcs["tc1"]
            with tc.begin() as txn:
                for key in range(4):
                    txn.insert("t", key, f"v{key}")
            with tc.begin() as txn:
                txn.insert("t", 9, "kept")
            read_only_burst(tc.begin)
            supervisor = Supervisor()
            supervisor.watch_deployment(dep)
            kill_tc(tc)
            supervisor.heal()
            assert tc.last_recovered
            stats = tc.stats()
            assert stats["counters"]["tc.restarts"] == 1
            assert stats["counters"].get("tc.undo_ops", 0) == 0  # no loser
            assert stats["active_transactions"] == 0
            assert stats["pending_zombies"] == 0
            with tc.begin() as check:
                assert check.read("t", 9) == "kept"
                assert len(check.scan("t")) == 5
