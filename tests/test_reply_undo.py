"""The write's reply is its undo read (docs/architecture.md §9.2).

On the composed fast path an update / delete whose before-image the TC
does not know is not preceded by a read: its log record is appended with
the image *owed*, the operation asks the DC for it (``want_prior``), and
the reply fills the record in.  The invariants under test:

1. an owed record is never stable — EOSL, the journal, the piggybacked
   value never reach it, and a TC crash loses it from log and DC together;
2. a record is owed only while its envelope is on the wire (records are
   appended when the envelope is flushed, not when the operation is called);
3. a commit is acknowledged only once stable, so a committer behind
   another session's owed record waits for that fill;
4. the DC keeps each image until the TC's low-water mark passes it, so a
   resend answered by the idempotence test still carries it;
5. a log-force prompt raised mid-envelope brings the images along;
6. an OK reply without the image is a fail-stop, never an undo of ``None``.

Every write below misses the undo cache (``undo_cache_size=1`` and keys
chosen off the one cached slot), so every write takes the new path.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import pytest

from repro import KernelConfig, UnbundledKernel
from repro.common.config import CC_POLICIES, ChannelConfig, DcConfig, TcConfig
from repro.common.errors import (
    ComponentUnavailableError,
    CrashedError,
    NoSuchRecordError,
    ReproError,
    ResendExhaustedError,
    TransactionAborted,
    UndoImageLostError,
)
from repro.common.ops import DeleteOp, InsertOp, OpResult, UpdateOp
from repro.dc.data_component import DataComponent
from repro.sim.faults import FaultAction, FaultInjector, FaultPoint, FaultRule
from repro.sim.supervisor import Supervisor
from repro.tc.log import CommitRecord, CompensationRecord, OpRecord, TcLog

KEYS = 8
#: Where the numeric records live (keys of one table must compare).
NUM = 1000
BACKENDS = ("inproc", pytest.param("process", marks=pytest.mark.process))


def build(backend="inproc", faults=None, dc=None, **tc):
    """A kernel on the composed fast path whose undo cache holds one
    entry, with keys 0..KEYS-1 committed as ``v<key>`` (and ``10 * key``
    under ``NUM + key``) and the cache pointing at none of them."""
    tc.setdefault("undo_cache_size", 1)
    channel = ChannelConfig(
        transport="process" if backend == "process" else "inproc",
        request_timeout_s=15.0,
    )
    kernel = UnbundledKernel(
        KernelConfig(tc=TcConfig.optimized(**tc), dc=dc or DcConfig(), channel=channel),
        faults=faults,
    )
    try:
        kernel.create_table("t")
        with kernel.begin() as txn:
            for key in range(KEYS):
                txn.insert("t", key, f"v{key}")
                txn.insert("t", NUM + key, 10 * key)
        with kernel.begin() as txn:
            txn.insert("t", 9000, "the one cache slot")
    except BaseException:
        kernel.close()
        raise
    return kernel


def undo_reads(kernel) -> int:
    return kernel.metrics.get("tc.undo_info_reads")


def committed(kernel, key):
    with kernel.begin() as txn:
        return txn.read("t", key)


def owed_records(kernel) -> list[OpRecord]:
    return [
        record
        for record in kernel.tc.log.all_records()
        if isinstance(record, OpRecord) and record.owed
    ]


def write_three(txn) -> None:
    txn.update("t", 1, "w1")
    txn.delete("t", 2)
    txn.increment("t", NUM + 3, 5)


# -- the path itself ----------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
class TestNoReadBeforeWrite:
    def test_abort_restores_what_the_reply_brought(self, backend):
        with build(backend) as kernel:
            before = undo_reads(kernel)
            txn = kernel.begin()
            write_three(txn)
            txn.sync()
            assert undo_reads(kernel) == before  # nothing was read first
            assert not owed_records(kernel)  # the reply filled them in
            assert txn.read("t", NUM + 3) == 35  # ... and told the increment's sum
            txn.abort()
            assert committed(kernel, 1) == "v1"
            assert committed(kernel, 2) == "v2"
            assert committed(kernel, NUM + 3) == 30

    def test_commit_then_tc_crash_and_restart(self, backend):
        with build(backend) as kernel:
            before = undo_reads(kernel)
            with kernel.begin() as txn:
                write_three(txn)
            assert undo_reads(kernel) == before
            loser = kernel.begin()
            loser.update("t", 4, "lost")
            loser.delete("t", 5)
            loser.sync()
            kernel.tc.force_log()  # the loser's filled records are stable
            kernel.crash_tc()
            stats = kernel.recover_tc()
            assert stats["losers"] == 1 and stats["undo_ops"] == 2
            assert committed(kernel, 1) == "w1"
            assert committed(kernel, 2) is None
            assert committed(kernel, NUM + 3) == 35
            assert committed(kernel, 4) == "v4"  # undone from the logged image
            assert committed(kernel, 5) == "v5"

    def test_logged_at_flush_not_at_call(self, backend):
        with build(backend) as kernel:
            log = kernel.tc.log
            records = log.record_count()
            txn = kernel.begin()
            write_three(txn)
            assert log.record_count() == records  # queued: not in the log
            assert len(txn.in_flight) == 3 and not txn.logged
            txn.abort()  # ... so the abort has nothing to say either
            assert log.record_count() == records
            assert not txn.in_flight
            assert committed(kernel, 1) == "v1"

    def test_the_image_is_logged_either_way(self, backend):
        """Same log bytes as a write whose image the cache already knew."""
        sizes = []
        for overrides in ({}, {"undo_cache_size": 4096}):
            with build(backend, **overrides) as kernel:
                before = kernel.metrics.get("tclog.bytes")
                with kernel.begin() as txn:
                    write_three(txn)
                sizes.append(kernel.metrics.get("tclog.bytes") - before)
        assert sizes[0] == sizes[1]

    def test_a_split_behind_an_owed_update_is_prompted_and_answered(self, backend):
        """The envelope's own inserts split the leaf one of them landed
        on, behind an update whose image is owed: the prompt names an LSN
        past the owed record, brings the image, and is answered."""
        with build(backend, dc=DcConfig(page_size=512), batch_max_ops=64) as kernel:
            stats = lambda: (  # noqa: E731
                kernel.dc.stats()["counters"] if backend == "process"
                else kernel.metrics.counters()
            )
            prompts = stats().get("dc.log_force_prompts", 0)
            before = undo_reads(kernel)
            txn = kernel.begin()
            txn.update("t", 1, "w1")  # owed, first in the envelope
            for key in range(100, 140):
                txn.insert("t", key, "x" * 40)
            started = time.monotonic()
            txn.commit()
            assert time.monotonic() - started < 5.0  # no lock-timeout stall
            assert undo_reads(kernel) == before
            assert stats().get("dc.log_force_prompts", 0) > prompts
            assert kernel.tc.log.eosl >= kernel.tc.log.all_records()[-2].lsn
            txn = kernel.begin()
            assert len(txn.scan("t", 100, 139)) == 40
            txn.update("t", 1, "w2")
            txn.abort()
            assert committed(kernel, 1) == "w1"


@pytest.mark.parametrize("backend", BACKENDS)
class TestRejectionSurfacesAtFlush:
    def test_update_of_a_missing_key(self, backend):
        with build(backend) as kernel:
            canceled = kernel.metrics.get("tc.canceled_ops")
            txn = kernel.begin()
            txn.update("t", 0, "w0")
            txn.update("t", 999, "nobody")  # no error yet: nothing was read
            with pytest.raises(NoSuchRecordError):
                txn.sync()
            assert kernel.metrics.get("tc.canceled_ops") == canceled + 1
            markers = [
                record
                for record in kernel.tc.log.all_records()
                if isinstance(record, CompensationRecord) and record.canceled
            ]
            assert len(markers) == 1
            assert ("t", 999) not in txn.known
            assert ("t", 999) not in kernel.tc.undo_cache.entries()
            assert not owed_records(kernel) and not txn.in_flight
            assert [r.op.key for r in txn.op_records] == [0]  # its sibling ran
            txn.abort()
            assert committed(kernel, 0) == "v0"
            assert committed(kernel, 999) is None
            with kernel.begin() as txn:
                txn.insert("t", 999, "now it exists")
            assert committed(kernel, 999) == "now it exists"

    def test_delete_and_increment(self, backend):
        with build(backend) as kernel:
            txn = kernel.begin()
            txn.delete("t", 999)
            with pytest.raises(TransactionAborted, match="no record"):
                txn.commit()
            txn = kernel.begin()
            txn.increment("t", 1, 1)  # "v1" is not a number
            with pytest.raises(ReproError, match="not numeric"):
                txn.sync()
            txn.abort()
            assert committed(kernel, 1) == "v1"

    def test_what_the_tc_knows_still_answers_at_once(self, backend):
        with build(backend) as kernel:
            txn = kernel.begin()
            assert txn.read("t", 999) is None
            with pytest.raises(NoSuchRecordError):
                txn.update("t", 999, "x")  # known absent: synchronous
            txn.abort()


@pytest.mark.parametrize("cc_policy", CC_POLICIES)
def test_only_a_policy_that_serves_the_image_reads_for_it(cc_policy):
    with build(cc_policy=cc_policy) as kernel:
        assert kernel.tc.cc.needs_write_prior == (cc_policy == "mvcc")
        before = undo_reads(kernel)
        with kernel.begin() as txn:
            write_three(txn)
        txn = kernel.begin()
        txn.update("t", 4, "w4")
        txn.abort()
        assert undo_reads(kernel) - before == (4 if cc_policy == "mvcc" else 0)
        assert committed(kernel, 1) == "w1" and committed(kernel, 4) == "v4"


# -- invariant 1: never stable -----------------------------------------------


def _record(lsn, item) -> OpRecord:
    op, undo, owed = item
    return OpRecord(lsn, 7, op, undo, "dc", owed)


class TestOwedRecordsAreNeverStable:
    def test_the_log_stops_before_the_first_owed_record(self):
        log = TcLog()
        known = (UpdateOp("t", 1, "b"), UpdateOp("t", 1, "a"), False)
        owed = (UpdateOp("t", 2, "b"), None, True)
        first, second, third = log.append_envelope([known, owed, known], _record)
        commit = log.append(lambda lsn: CommitRecord(lsn=lsn, txn_id=7))
        assert log.force() == first.lsn == log.eosl
        assert log.stable_records() == [first]
        assert log.owed_through(commit.lsn) and not log.owed_through(first.lsn)
        assert not log.await_fill(commit.lsn, timeout=0.05)
        log.fill({second.lsn: "a"})
        assert second.undo == UpdateOp("t", 2, "a") and not second.owed
        log.fill({second.lsn: "something else"})  # idempotent: first image wins
        assert second.undo == UpdateOp("t", 2, "a")
        assert log.await_fill(commit.lsn, timeout=0.05)
        assert log.force() == commit.lsn
        assert first.lsn < second.lsn < third.lsn < commit.lsn

    def test_fill_accounts_the_image_bytes(self):
        log = TcLog()
        (record,) = log.append_envelope([(DeleteOp("t", 2), None, True)], _record)
        before = log.metrics.get("tclog.bytes")
        log.fill({record.lsn: "x" * 100})
        assert record.undo == InsertOp("t", 2, "x" * 100)
        assert log.metrics.get("tclog.bytes") - before == record.undo.encoded_size()

    def test_tc_crash_with_owed_records_in_the_tail(self):
        """The replies never arrive; the records stay owed, the force
        leaves them volatile, the crash takes them, and the DC's copy of
        their effects goes with the reset."""
        faults = FaultInjector()
        with build(faults=faults, op_timeout_budget_ms=20.0) as kernel:
            eosl = kernel.tc.force_log()
            txn = kernel.begin()
            txn.update("t", 1, "lost")
            txn.delete("t", 2)
            faults.load_schedule(
                [FaultRule(FaultPoint.CHANNEL_RECV, FaultAction.DROP, count=10**6)]
            )
            with pytest.raises(ResendExhaustedError):
                txn.sync()
            owed = owed_records(kernel)
            assert [type(r.op) for r in owed] == [UpdateOp, DeleteOp]
            assert kernel.dc.table("t").structure.get_record(1).committed == "lost"
            assert kernel.tc.force_log() == eosl  # held back
            assert all(r.lsn > kernel.tc.log.eosl for r in owed)
            kernel.crash_tc()
            faults.load_schedule([])
            kernel.recover_tc()
            stable = kernel.tc.log.stable_records()
            assert not any(isinstance(r, OpRecord) and r.owed for r in stable)
            assert not {r.lsn for r in owed} & {r.lsn for r in stable}
            assert kernel.dc.writes._priors.get(kernel.tc.tc_id) is None
            assert committed(kernel, 1) == "v1" and committed(kernel, 2) == "v2"

    @pytest.mark.process
    def test_the_journal_never_holds_one(self, tmp_path):
        """Through the TC server: kill -9 it with an owed record in its
        tail (its DC stopped mid-envelope); the respawn's journal replay
        finds nothing of it and the DC nothing of its effect."""
        from repro.cloud.router import TcServiceDeployment
        from tests.test_tc_service import kill_tc

        with TcServiceDeployment(
            tc_count=1,
            dc_count=1,
            partitions=1,
            tc_config=TcConfig.optimized(undo_cache_size=1),
        ) as dep:
            dep.create_table("t")
            tc, dc = dep.tcs["tc1"], dep.dcs["dc1"]
            with dep.router.begin(1) as txn:
                for key in range(4):
                    txn.insert("t", key, f"v{key}")
            stable = tc.stats()["stable_records"]
            os.kill(dc.pid, signal.SIGSTOP)  # the envelope goes out, no reply
            try:
                txn = dep.router.begin(1)
                txn.update("t", 1, "lost")
                waiter = threading.Thread(target=lambda: _swallow(txn.commit))
                waiter.start()
                time.sleep(0.5)  # logged, owed, on the wire; commit behind it
                kill_tc(tc)
            finally:
                os.kill(dc.pid, signal.SIGCONT)
            waiter.join(20.0)
            assert not waiter.is_alive()
            supervisor = Supervisor(None)
            supervisor.watch_deployment(dep)
            supervisor.heal()
            # The respawn replayed its journal and redid exactly the four
            # inserts: the update never reached it.
            restarted = tc.stats()
            assert restarted["stable_records"] >= stable
            assert restarted["counters"]["tc.redo_ops"] == 4
            assert restarted["counters"].get("tc.undo_ops", 0) == 0
            with dep.router.begin(1) as txn:
                assert txn.read("t", 1) == "v1"


def _swallow(fn) -> None:
    try:
        fn()
    except ReproError:
        pass


# -- invariant 4: exactly-once keeps the image ---------------------------------


class TestExactlyOnceKeepsTheImage:
    def test_a_lost_first_reply_does_not_lose_the_image(self):
        faults = FaultInjector()
        with build(faults=faults) as kernel:
            duplicates = kernel.metrics.get("dc.duplicate_ops")
            before = undo_reads(kernel)
            txn = kernel.begin()
            txn.update("t", 1, "w1")
            txn.delete("t", 2)
            faults.load_schedule([FaultRule(FaultPoint.CHANNEL_RECV, FaultAction.DROP)])
            txn.sync()
            assert kernel.metrics.get("tc.resends") >= 1
            assert kernel.metrics.get("dc.duplicate_ops") == duplicates + 2
            assert undo_reads(kernel) == before and not owed_records(kernel)
            txn.abort()
            assert committed(kernel, 1) == "v1" and committed(kernel, 2) == "v2"

    def test_the_dc_keeps_it_until_the_lwm_passes(self):
        dc = DataComponent("dc")
        dc.create_table("t")
        dc.register_tc(1, force_log=lambda lsn, images: lsn)
        dc.perform_operation(1, 1, InsertOp("t", 1, "old"))
        first = dc.perform_operation(1, 2, UpdateOp("t", 1, "new"), want_prior=True)
        again = dc.perform_operation(
            1, 2, UpdateOp("t", 1, "new"), resend=True, want_prior=True
        )
        assert first.prior == again.prior == "old"
        assert dc.metrics.get("dc.duplicate_ops") == 1
        unasked = dc.perform_operation(1, 2, UpdateOp("t", 1, "new"), resend=True)
        assert unasked == OpResult.okay()
        dc.low_water_mark(1, 1)
        assert dc.writes._priors[1] == {2: "old"}
        dc.low_water_mark(1, 2)
        assert dc.writes._priors[1] == {}
        dc.perform_operation(1, 3, DeleteOp("t", 1), want_prior=True)
        dc.begin_restart(1, stable_lsn=2)
        assert 1 not in dc.writes._priors

    def test_an_ok_without_the_image_is_a_fail_stop(self):
        """Never guess: the TC crashes itself, typed; restart loses the
        owed record and resets its effect out of the DC."""
        with build() as kernel:
            real = kernel.dc._execute

            def forgetful(handle, sub):
                result = real(handle, sub)
                return OpResult.okay() if result.prior is not None else result

            kernel.dc._execute = forgetful
            txn = kernel.begin()
            txn.update("t", 1, "no image")
            with pytest.raises(UndoImageLostError) as caught:
                txn.sync()
            assert isinstance(caught.value, CrashedError) and kernel.tc.crashed
            del kernel.dc._execute
            kernel.recover_tc()
            assert committed(kernel, 1) == "v1"


# -- the DC dies with the envelope in flight ------------------------------------


class TestDcKilledMidEnvelope:
    @pytest.mark.parametrize("point", [FaultPoint.CHANNEL_SEND, FaultPoint.CHANNEL_RECV])
    @pytest.mark.parametrize("finish", ["commit", "abort"])
    def test_healed_in_process(self, point, finish):
        """Crash before the envelope executes (send) or after, before its
        reply (recv).  Either way the records are logged and owed; the
        heal's redo re-executes them, asks again, and fills."""
        faults = FaultInjector()
        with build(faults=faults) as kernel:
            supervisor = Supervisor(faults)
            supervisor.watch_kernel(kernel)
            bystander = kernel.begin()
            bystander.insert("t", 500, "behind the owed records")
            txn = kernel.begin()
            write_three(txn)
            faults.load_schedule([FaultRule(point, FaultAction.CRASH, target="dc")])
            with pytest.raises(ComponentUnavailableError):
                txn.sync()
            assert len(owed_records(kernel)) == 2 and len(txn.in_flight) == 3
            supervisor.heal()
            assert not owed_records(kernel)  # redo asked again and filled
            getattr(txn, finish)()
            bystander.commit()
            done = finish == "commit"
            assert committed(kernel, 1) == ("w1" if done else "v1")
            assert committed(kernel, 2) == (None if done else "v2")
            assert committed(kernel, NUM + 3) == (35 if done else 30)  # exactly once
            assert committed(kernel, 500) == "behind the owed records"
            assert kernel.tc.pending_zombies() == 0

    def test_commit_into_the_dead_dc_parks_and_the_heal_finishes_it(self):
        faults = FaultInjector()
        with build(faults=faults) as kernel:
            supervisor = Supervisor(faults)
            supervisor.watch_kernel(kernel)
            txn = kernel.begin()
            write_three(txn)
            faults.load_schedule(
                [FaultRule(FaultPoint.CHANNEL_RECV, FaultAction.CRASH, target="dc")]
            )
            with pytest.raises(TransactionAborted):
                txn.commit()  # abandoned: rolled back as a zombie
            assert kernel.tc.pending_zombies() == 1
            supervisor.heal()
            assert kernel.tc.pending_zombies() == 0 and not owed_records(kernel)
            assert committed(kernel, 1) == "v1"
            assert committed(kernel, 2) == "v2"
            assert committed(kernel, NUM + 3) == 30

    @pytest.mark.process
    @pytest.mark.parametrize("finish", ["commit", "abort"])
    def test_healed_across_a_real_kill(self, finish):
        from tests.test_process_backend import kill_dc

        with build("process") as kernel:
            txn = kernel.begin()
            txn.update("t", 4, "w4")
            txn.sync()  # executed, filled, not committed
            write_three(txn)
            kill_dc(kernel.dc)
            records = kernel.tc.log.record_count()
            with pytest.raises(ComponentUnavailableError):
                txn.sync()
            # Known to be down before the envelope went out: nothing was
            # logged for it, so nothing is owed while the DC is away.
            assert kernel.tc.log.record_count() == records
            assert len(txn.in_flight) == 3 and not owed_records(kernel)
            supervisor = Supervisor(None)
            supervisor.watch_kernel(kernel)
            supervisor.heal()
            getattr(txn, finish)()
            assert not owed_records(kernel)
            done = finish == "commit"
            assert committed(kernel, 4) == ("w4" if done else "v4")
            assert committed(kernel, 1) == ("w1" if done else "v1")
            assert committed(kernel, 2) == (None if done else "v2")
            assert committed(kernel, NUM + 3) == (35 if done else 30)


# -- invariant 3: acknowledged means stable --------------------------------------


@pytest.mark.parametrize("group_commit_size", [1, 8])
def test_a_commit_behind_an_owed_record_waits_for_its_fill(group_commit_size):
    with build(group_commit_size=group_commit_size) as kernel:
        log = kernel.tc.log
        channel = kernel.tc.channels()["dc"]
        on_the_wire, release = threading.Event(), threading.Event()
        deliver = channel.request
        a_thread: list = []

        def held(message):
            if threading.current_thread() in a_thread:
                on_the_wire.set()
                assert release.wait(10.0)
            return deliver(message)

        channel.request = held
        outcome: dict = {}

        def session_a():
            a_thread.append(threading.current_thread())
            with kernel.begin() as txn:
                txn.update("t", 1, "a1")  # owed while its envelope is held

        def session_b():
            with kernel.begin() as txn:
                txn.insert("t", 600, "b")  # needs no image: not owed itself
                outcome["txn_id"] = txn.txn_id
            outcome["eosl_at_return"] = log.eosl

        a = threading.Thread(target=session_a)
        a.start()
        assert on_the_wire.wait(10.0)
        (owed,) = owed_records(kernel)
        b = threading.Thread(target=session_b)
        b.start()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            commits = [
                r for r in log.all_records()
                if isinstance(r, CommitRecord) and r.txn_id == outcome.get("txn_id")
            ]
            if commits:
                break
            time.sleep(0.01)
        (b_commit,) = commits
        time.sleep(0.2)
        assert b.is_alive()  # appended behind A's record, not acknowledged
        assert owed.lsn < b_commit.lsn and log.eosl < owed.lsn
        release.set()
        a.join(10.0)
        b.join(10.0)
        assert not a.is_alive() and not b.is_alive()
        assert outcome["eosl_at_return"] >= b_commit.lsn
        assert committed(kernel, 1) == "a1" and committed(kernel, 600) == "b"


def test_a_split_that_meets_another_sessions_owed_record_is_retried():
    """Invariant 5, the case the prompt cannot fill: B's owed record is in
    the log but its envelope has not executed, and A's split needs the
    log stable past it.  The prompt answers at once, the DC refuses the
    split before touching a page, and A waits *outside* the DC — where B
    can make progress — then resends and succeeds."""
    with build(dc=DcConfig(page_size=512), batch_max_ops=64) as kernel:
        channel = kernel.tc.channels()["dc"]
        on_the_wire, release = threading.Event(), threading.Event()
        deliver = channel.request
        b_thread: list = []

        def held(message):
            if threading.current_thread() in b_thread:
                on_the_wire.set()
                assert release.wait(10.0)
            return deliver(message)

        channel.request = held

        def session_b():
            b_thread.append(threading.current_thread())
            with kernel.begin() as txn:
                txn.update("t", 1, "b1")

        b = threading.Thread(target=session_b)
        b.start()
        assert on_the_wire.wait(10.0)
        (owed,) = owed_records(kernel)
        threading.Timer(0.3, release.set).start()
        started = time.monotonic()
        with kernel.begin() as txn:
            for key in range(100, 140):
                txn.insert("t", key, "x" * 40)
        elapsed = time.monotonic() - started
        b.join(10.0)
        assert not b.is_alive()
        assert kernel.metrics.get("tc.unstable_retries") >= 1
        assert 0.2 < elapsed < 5.0  # waited for B's fill, not a timeout
        assert not owed_records(kernel) and owed.undo == UpdateOp("t", 1, "v1")
        kernel.dc.table("t").structure.validate()
        with kernel.begin() as txn:
            assert len(txn.scan("t", 100, 139)) == 40
            assert txn.read("t", 1) == "b1"


def test_many_sessions_miss_the_cache_together():
    """More threads than cores, short switch interval: every acknowledged
    increment is there exactly once and nothing stays owed."""
    import sys

    rounds, workers = 30, 6
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with build(lock_timeout=20.0) as kernel:
            errors: list = []

            def session(index: int) -> None:
                try:
                    for round_no in range(rounds):
                        with kernel.begin() as txn:
                            txn.increment("t", NUM + index, 1)
                            txn.update("t", index, f"r{round_no}")
                            txn.insert("t", 10_000 + 100 * index + round_no, "x" * 30)
                except BaseException as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)

            threads = [threading.Thread(target=session, args=(i,)) for i in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
            assert not any(thread.is_alive() for thread in threads)
            assert not errors
            assert not owed_records(kernel)
            for index in range(workers):
                assert committed(kernel, NUM + index) == 10 * index + rounds
                assert committed(kernel, index) == f"r{rounds - 1}"
    finally:
        sys.setswitchinterval(interval)
