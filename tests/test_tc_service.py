"""The TC service tier end to end (docs/architecture.md §16).

The final unbundling step: the TC itself becomes an OS process.  These
tests drive router → TC server process → DC server processes with *zero*
in-process TC/DC objects on the client side, then make failure real —
``kill -9`` a TC server mid-commit and check the §5.3.2 journal-replay +
record-reset + redo/undo protocol converges, with the supervisor's
standard heal policy doing the driving.

Increments stay the canary: a non-idempotent operation applied twice (a
journal replay not absorbed by abLSNs) or zero times (an acknowledged
commit lost by the durable log) shows up as a wrong sum.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time

import pytest

pytestmark = pytest.mark.process

from repro.cloud.partitioning import stable_key_hash
from repro.cloud.router import TcServiceDeployment, TcServiceRouter
from repro.common.config import ChannelConfig, KernelConfig, TcConfig
from repro.common.errors import (
    CrashedError,
    ReproError,
    TcRedirect,
    TransactionAborted,
)
from repro.kernel.unbundled import UnbundledKernel
from repro.net import rpc
from repro.net.rpc import RemoteError, Shutdown
from repro.net.tcclient import RemoteTc
from repro.net.tcrpc import TxnAbort, TxnAck, TxnCommit, TxnWrite
from repro.sim.supervisor import Supervisor
from repro.tc.transactional_component import TransactionState


def kill_tc(tc: RemoteTc) -> None:
    """A real ``kill -9`` on the TC server, then wait for the proxy."""
    os.kill(tc.pid, signal.SIGKILL)
    deadline = time.monotonic() + 10.0
    while not tc.crashed and time.monotonic() < deadline:
        time.sleep(0.01)
    assert tc.crashed


@pytest.fixture
def deployment():
    with TcServiceDeployment(tc_count=2, dc_count=2, partitions=8) as dep:
        dep.create_table("t")
        yield dep


class TestEndToEnd:
    def test_four_op_txn_spans_three_process_tiers(self, deployment):
        """Router → TC process → DC processes, all distinct from us."""
        router = deployment.router
        me = os.getpid()
        tc_pids = {tc.pid for tc in deployment.tcs.values()}
        dc_pids = {dc.pid for dc in deployment.dcs.values()}
        assert me not in tc_pids and me not in dc_pids
        assert not (tc_pids & dc_pids) and len(tc_pids) == 2 and len(dc_pids) == 2

        def txn_fn(tc):
            with tc.begin() as txn:
                txn.insert("t", "acct", 0)
                txn.increment("t", "acct", 7)
                txn.increment("t", "acct", 5)
                assert txn.read("t", "acct") == 12
            return tc.name

        served_by = router.execute("acct", txn_fn)
        assert served_by == router.owner_of("acct").name
        assert router.read_other("t", "acct") == 12
        # No in-process TC/DC objects anywhere on the client side: the
        # deployment's components are all proxies over pipes/sockets.
        from repro.dc.data_component import DataComponent
        from repro.tc.transactional_component import TransactionalComponent

        for component in (*deployment.tcs.values(), *deployment.dcs.values()):
            assert not isinstance(
                component, (DataComponent, TransactionalComponent)
            )

    def test_abort_on_error_context_manager(self, deployment):
        owner = deployment.router.owner_of("k")
        with owner.begin() as txn:
            txn.insert("t", "k", 1)
        with pytest.raises(RuntimeError):
            with owner.begin() as txn:
                txn.update("t", "k", 2)
                raise RuntimeError("boom")
        assert owner.read_other("t", "k") == 1  # the update rolled back

    def test_cross_tc_read_committed_sharing(self, deployment):
        """The non-owning TC reads the owner's committed writes, not its
        in-flight ones (Section 6.3 over real process boundaries)."""
        router = deployment.router
        owner = router.owner_of("shared")
        other = next(
            tc for tc in deployment.tcs.values() if tc.name != owner.name
        )
        with owner.begin() as txn:
            txn.insert("t", "shared", 10)
        assert other.read_other("t", "shared") == 10
        txn = owner.begin()
        txn.update("t", "shared", 99)
        # uncommitted: the other TC still sees the committed version
        assert other.read_other("t", "shared") == 10
        txn.commit()
        assert other.read_other("t", "shared") == 99


class TestRouting:
    def test_exclusive_key_range_ownership(self, deployment):
        """Every partition has exactly one owner, and the guards agree
        with the router's stable hash for every probed key."""
        router = deployment.router
        tc_names = sorted(deployment.tcs)
        seen_owners = set()
        for key in range(64):
            partition = router.partition_of(key)
            owner = router.owner_of(key)
            assert owner.name == tc_names[partition % len(tc_names)]
            seen_owners.add(owner.name)
            # the owner accepts the write; every other TC bounces it
            with owner.begin() as txn:
                txn.insert("t", key, key)
            for tc in deployment.tcs.values():
                if tc.name == owner.name:
                    continue
                with pytest.raises(TcRedirect):
                    with tc.begin() as txn:
                        txn.update("t", key, -1)
        assert seen_owners == set(tc_names)  # both TCs own something

    def test_misrouted_request_bounces_with_retryable_redirect(
        self, deployment
    ):
        router = deployment.router
        owner = router.owner_of("hot")
        wrong = next(
            tc for tc in deployment.tcs.values() if tc.name != owner.name
        )
        with pytest.raises(TcRedirect) as err:
            with wrong.begin() as txn:
                txn.insert("t", "hot", 1)
        assert err.value.owner == owner.name  # the bounce names the owner
        # router.execute follows the redirect and lands the write
        followed_before = router.redirects_followed

        def write_via(tc):
            with tc.begin() as txn:
                txn.insert("t", "hot", 42)
            return tc.name

        # Force a misroute by always starting on the wrong TC.
        try:
            served_by = write_via(wrong)
        except TcRedirect as redirect:
            served_by = write_via(router.by_name[redirect.owner])
        assert served_by == owner.name
        assert router.read_other("t", "hot") == 42
        assert router.redirects_followed == followed_before  # manual retry

    def test_redirect_carries_stable_partition(self, deployment):
        """The guard and the router use the same process-independent
        hash, so the redirect's owner is exactly the router's owner."""
        router = deployment.router
        for key in ("a", "b", (1, "x"), 17, b"bytes"):
            partition = stable_key_hash(key) % deployment.partitions
            assert router.partition_of(key) == partition


class TestCrashHealing:
    def test_killed_tc_ranges_reserved_after_heal(self, deployment):
        """kill -9 the owner mid-batch; after the supervisor heals, the
        same TC serves the same ranges and the increment canary is exact."""
        router = deployment.router
        supervisor = Supervisor()
        supervisor.watch_deployment(deployment)
        owner = router.owner_of("counter")
        with owner.begin() as txn:
            txn.insert("t", "counter", 0)
        for _ in range(12):
            with owner.begin() as txn:
                txn.increment("t", "counter", 1)
        # an uncommitted increment is in flight when the SIGKILL lands
        txn = owner.begin()
        txn.increment("t", "counter", 100)
        kill_tc(owner)
        report = supervisor.heal()
        assert report.tc_restarts == 1
        # committed survives, uncommitted vanished (§5.3.2 undo)
        assert owner.read_other("t", "counter") == 12
        # the healed TC serves its old ranges again
        assert router.owner_of("counter").name == owner.name
        with owner.begin() as txn:
            txn.increment("t", "counter", 1)
        assert router.read_other("t", "counter") == 13
        # and still bounces keys it does not own
        foreign = next(
            key
            for key in range(100)
            if router.owner_of(key).name != owner.name
        )
        with pytest.raises(TcRedirect):
            with owner.begin() as txn:
                txn.insert("t", foreign, 1)

    def test_kill_mid_commit_converges(self, deployment):
        """SIGKILL racing the commit: the outcome must be all-or-nothing,
        decided by whether the commit record reached the durable journal."""
        router = deployment.router
        supervisor = Supervisor()
        supervisor.watch_deployment(deployment)
        owner = router.owner_of("mid")
        with owner.begin() as txn:
            txn.insert("t", "mid", 0)
        committed = 0
        for round_no in range(6):
            txn = owner.begin()
            txn.increment("t", "mid", 1)
            if round_no == 3:
                os.kill(owner.pid, signal.SIGKILL)
                try:
                    txn.commit()
                    committed += 1  # ack raced the kill and won — it counts
                except (CrashedError, ReproError):
                    pass  # indeterminate; resolved by reading back below
                kill_tc(owner)
                supervisor.heal()
                actual = owner.read_other("t", "mid")
                assert actual in (committed, committed + 1)
                committed = actual  # classify the indeterminate outcome
            else:
                txn.commit()
                committed += 1
        assert owner.read_other("t", "mid") == committed

    def test_tc_and_dc_killed_together(self, deployment):
        router = deployment.router
        supervisor = Supervisor()
        supervisor.watch_deployment(deployment)
        owner = router.owner_of("both")
        with owner.begin() as txn:
            txn.insert("t", "both", 0)
        for _ in range(5):
            with owner.begin() as txn:
                txn.increment("t", "both", 1)
        dc = next(
            d for d in deployment.dcs.values() if "t" in d.table_names()
        )
        dc.crash()
        kill_tc(owner)
        supervisor.heal()
        assert owner.read_other("t", "both") == 5
        with owner.begin() as txn:
            txn.increment("t", "both", 1)
        assert owner.read_other("t", "both") == 6


class TestKernelTcProcessMode:
    def test_kernel_end_to_end_and_recovery(self):
        config = KernelConfig(
            tc=TcConfig.optimized(),
            channel=ChannelConfig(transport="process", request_timeout_s=15.0),
            tc_processes=1,
        )
        with UnbundledKernel(config, dc_count=2) as kernel:
            kernel.create_table("t", dc_name="dc1")
            assert kernel.tc_pid not in (None, os.getpid())
            with kernel.begin() as txn:
                txn.insert("t", "k", 0)
                txn.increment("t", "k", 3)
            kernel.crash_tc()
            result = kernel.recover_tc()
            assert result["recovered"] is True
            assert kernel.tc.read_other("t", "k") == 3
            kernel.crash_dc("dc1")
            kernel.recover_dc("dc1")
            with kernel.begin() as txn:
                txn.increment("t", "k", 1)
            assert kernel.tc.read_other("t", "k") == 4

    def test_multi_tc_kernel_refused(self):
        config = KernelConfig(
            channel=ChannelConfig(transport="process"), tc_processes=2
        )
        with pytest.raises(ReproError, match="TcServiceDeployment"):
            UnbundledKernel(config)


class TestDownstreamDcFailure:
    def test_txn_hitting_dead_dc_stays_abortable(self):
        """A dead *DC* mid-transaction must not strand the TC-side txn.

        The op into the dead DC fails with a typed error (not reply
        silence): the transaction is still open server-side, so the
        client's abort must travel and undo the writes that *did* apply
        on the live DC.  Regression for the chaos-found bug where the
        lost-reply path marked the handle ABORTED and dropped the abort,
        leaving the open transaction's update visible to scans forever.
        """
        from repro.common.ops import ReadFlavor

        with TcServiceDeployment(tc_count=1, dc_count=2, partitions=4) as dep:
            dep.create_table("live", dc_name="dc1")
            dep.create_table("doomed", dc_name="dc2")
            tc = dep.tcs["tc1"]
            with tc.begin() as txn:
                txn.insert("live", 1, "base")
            dep.dcs["dc2"].crash()  # real kill -9
            txn = tc.begin()
            txn.update("live", 1, "pending")  # applies on the live DC
            with pytest.raises(ReproError) as err:
                txn.insert("doomed", 1, "x")
            assert "dc2" in str(err.value)
            # not silence: the handle knows the txn is still open
            txn.abort()
            # the applied update was undone — even a dirty read agrees
            assert tc.read_other("live", 1, flavor=ReadFlavor.DIRTY) == "base"

    def test_write_into_a_just_killed_dc_is_unavailable_not_exhausted(
        self, tmp_path, monkeypatch
    ):
        """The TC server writes to a DC killed a moment ago, before its
        DC connection has read the EOF (the server runs on a thread here so
        the idle watch can be parked): the failed write marks the client
        down, so the transaction's error is the typed "DC unavailable"
        the supervisor heals — not a resend budget burnt in milliseconds."""
        import multiprocessing as mp

        from repro.common.config import DcConfig
        from repro.net import transport
        from repro.net.process import RemoteDc, wait_hello
        from repro.net.tcrpc import TcHello
        from repro.net.tcserver import _TcServer

        dc = RemoteDc(
            "dc1", config=DcConfig(), journal_path=str(tmp_path / "dc1.journal"),
            listen_path=str(tmp_path / "dc1.sock"), request_timeout_s=10.0,
        )  # fmt: skip
        dc.create_table("t")
        monkeypatch.setattr(transport, "_IDLE_WATCH_S", 30.0)
        parent, child = mp.Pipe()
        server = _TcServer(
            child, "tcx", 1, None, str(tmp_path / "tcx.journal"),
            {"dc1": dc.listen_path}, listen_path=str(tmp_path / "tcx.sock"),
        )  # fmt: skip
        thread = threading.Thread(target=server.run, daemon=True)
        thread.start()
        wait_hello(parent, TcHello, "tcx", timeout=10.0)
        tc = RemoteTc("tcx", tc_id=1, socket_path=server.listen_addr)
        try:
            with tc.begin() as txn:
                txn.insert("t", 1, "before")
            dc.crash()
            txn = tc.begin()
            with pytest.raises(ReproError) as err:
                txn.insert("t", 2, "into the dead DC")
                txn.sync()
            assert "ComponentUnavailableError: DC dc1" in str(err.value)
            client = server._clients["dc1"]
            assert client.crashed
            assert client.metrics.counters()["remote_dc.process_deaths"] == 1
            txn.abort()
            dc.recover()
            tc.notify_dc_restart("dc1")
            assert not client.crashed
            with tc.begin() as txn:
                assert txn.read("t", 1) == "before"
                assert txn.read("t", 2) is None
        finally:
            tc.shutdown()
            parent.send_bytes(rpc.pack_frame(rpc.REQUEST, 1, Shutdown(tc_id=0)))
            thread.join(timeout=10)
            dc.shutdown()
        assert not thread.is_alive()

    def test_abort_is_idempotent_after_loss(self):
        """Presumed abort: re-delivering an abort for a transaction the
        server no longer knows is acknowledged, not an error."""
        with TcServiceDeployment(tc_count=1, dc_count=1, partitions=2) as dep:
            dep.create_table("t")
            tc = dep.tcs["tc1"]
            txn = tc.begin()
            txn.insert("t", 1, "v")
            txn.abort()
            reply = tc.call(
                TxnAbort(tc_id=tc.tc_id, txn_id=txn.txn_id)
            )
            assert isinstance(reply, TxnAck)


class TestOpenedByFirstRequest:
    """``begin()`` is local; the transaction's first request opens it
    server-side under a handle the client chose (architecture §16)."""

    @staticmethod
    def _count_calls(tc: RemoteTc) -> list:
        sent: list = []
        real = tc.call

        def counting(message, *args, **kwargs):
            sent.append(type(message).__name__)
            return real(message, *args, **kwargs)

        tc.call = counting  # instance attribute shadows the method
        return sent

    def test_request_counts(self, deployment):
        owner = deployment.router.owner_of("k")
        sent = self._count_calls(owner)
        with owner.begin() as txn:
            txn.insert("t", "k", 1)
        assert sent == ["TxnWrite", "TxnCommit"]  # a 1-op txn: 2 requests
        del sent[:]
        txn = owner.begin()
        assert txn.txn_id == 0
        txn.abort()
        assert sent == []  # nothing was opened: nothing to abort
        txn = owner.begin()
        txn.commit()  # nothing was opened: nothing to commit, either
        assert sent == [] and txn.txn_id == 0
        assert txn.state is TransactionState.COMMITTED
        with pytest.raises(TransactionAborted):
            txn.read("t", "k")  # a finished handle stays finished
        assert sent == []
        assert owner.stats()["open_transactions"] == 0

    def test_first_reply_teaches_the_server_id(self, deployment):
        owner = deployment.router.owner_of("k")
        txn = owner.begin()
        txn.insert("t", "k", 1, deferred=True)
        handle = txn.txn_id
        assert handle < 0  # sent (buffered) under the client's handle
        txn.update("t", "k", 2, deferred=True)  # pipelined behind it, same name
        assert txn.read("t", "k") == 2
        assert txn.txn_id > 0
        txn.commit()
        assert owner.read_other("t", "k") == 2

    def test_first_request_into_dead_dc_stays_abortable(self):
        from repro.common.ops import ReadFlavor

        with TcServiceDeployment(tc_count=1, dc_count=2, partitions=4) as dep:
            dep.create_table("live", dc_name="dc1")
            dep.create_table("doomed", dc_name="dc2")
            tc = dep.tcs["tc1"]
            dep.dcs["dc2"].crash()
            txn = tc.begin()
            with pytest.raises(ReproError) as err:
                txn.insert("doomed", 1, "x")  # opens the txn, then fails
            assert "dc2" in str(err.value)
            assert txn.txn_id < 0  # no reply taught the id; the handle names it
            assert tc.stats()["open_transactions"] == 1
            txn.abort()
            assert tc.stats()["open_transactions"] == 0
            # and a second transaction is not behind anything it left
            with tc.begin() as txn:
                txn.insert("live", 1, "base")
            assert tc.read_other("live", 1, flavor=ReadFlavor.DIRTY) == "base"

    def test_misrouted_first_write_leaves_nothing_open(self, deployment):
        owner = deployment.router.owner_of("hot")
        wrong = next(tc for tc in deployment.tcs.values() if tc is not owner)
        with pytest.raises(TcRedirect):
            with wrong.begin() as txn:
                txn.insert("t", "hot", 1)
        assert wrong.stats()["open_transactions"] == 0
        assert owner.read_other("t", "hot") is None

    def test_failed_pipelined_write_abandons_the_commit(self, deployment):
        """A deferred write's failure surfaces in ``commit()``'s drain,
        before any commit is sent: the handle rolls the server's
        transaction back and reports a plain abort, not a half-applied
        transaction a caller would have to take for an indeterminate
        commit (``chaos --process --tc-process --seed 5 --kill-every 15``
        found one partially visible after the heal)."""
        owner = deployment.router.owner_of("k")
        here, missing = [
            k for k in range(200) if deployment.router.owner_of(k) is owner
        ][:2]
        txn = owner.begin()
        txn.insert("t", here, "half", deferred=True)
        txn.update("t", missing, "never", deferred=True)
        with pytest.raises(TransactionAborted, match="commit abandoned"):
            txn.commit()
        assert txn.state is TransactionState.ABORTED
        assert owner.stats()["open_transactions"] == 0
        assert owner.read_other("t", here) is None
        # a misrouted one still bounces as routing information
        foreign = next(
            k for k in range(200) if deployment.router.owner_of(k) is not owner
        )
        with pytest.raises(TcRedirect):
            with owner.begin() as txn:
                txn.insert("t", foreign, 1, deferred=True)
        assert owner.stats()["open_transactions"] == 0

    def test_ended_transaction_is_never_reopened(self, deployment):
        owner = deployment.router.owner_of("k")
        handle = -next(owner._handles)
        commit = TxnCommit(tc_id=owner.tc_id, txn_id=handle)
        first = owner.call(commit)
        assert isinstance(first, TxnAck) and first.txn_id > 0
        for stale in (commit, TxnCommit(tc_id=owner.tc_id, txn_id=first.txn_id)):
            again = owner.call(stale)
            assert isinstance(again, RemoteError)
            assert "unknown transaction" in again.text
        late_write = owner.call(
            TxnWrite(tc_id=owner.tc_id, txn_id=handle, verb="insert", table="t",
                     key="k", value=1)
        )
        assert isinstance(late_write, RemoteError)
        assert owner.stats()["open_transactions"] == 0
        assert owner.read_other("t", "k") is None
        # an abort of it is still the presumed-abort acknowledgement
        assert isinstance(owner.call(TxnAbort(tc_id=owner.tc_id, txn_id=handle)), TxnAck)

    def test_first_requests_out_of_handle_order(self, deployment):
        """Two threads choose handles 1 and 2; thread 2's first request
        reaches the server first.  Each binds to its own transaction."""
        owner = deployment.router.owner_of("k")
        one, two = -next(owner._handles), -next(owner._handles)
        keys = [k for k in range(200) if deployment.router.owner_of(k) is owner][:2]
        with owner.begin() as txn:
            for key in keys:
                txn.insert("t", key, 0)

        def write(handle, key):
            return owner.call(
                TxnWrite(tc_id=owner.tc_id, txn_id=handle, verb="update",
                         table="t", key=key, value=handle)
            )

        ack_two, ack_one = write(two, keys[1]), write(one, keys[0])
        assert isinstance(ack_one, TxnAck) and isinstance(ack_two, TxnAck)
        assert ack_one.txn_id != ack_two.txn_id
        assert owner.stats()["open_transactions"] == 2
        assert isinstance(owner.call(TxnAbort(tc_id=owner.tc_id, txn_id=one)), TxnAck)
        assert isinstance(owner.call(TxnCommit(tc_id=owner.tc_id, txn_id=two)), TxnAck)
        assert owner.read_other("t", keys[0]) == 0
        assert owner.read_other("t", keys[1]) == two

    def test_two_threads_share_one_connection(self, deployment):
        owner = deployment.router.owner_of("k")
        mine = [k for k in range(2000) if deployment.router.owner_of(k) is owner]
        with owner.begin() as txn:
            for key in mine[:80]:
                txn.insert("t", key, -1)
        barrier = threading.Barrier(2)
        failures: list = []

        def worker(index: int) -> None:
            barrier.wait(timeout=10)
            try:
                # Record locks on disjoint keys only: the server runs one
                # request at a time, so a lock wait could never be released.
                for key in mine[index:80:2]:
                    with owner.begin() as txn:
                        txn.update("t", key, index)
                        assert txn.read("t", key) == index
            except BaseException as exc:  # reported below, on the main thread
                failures.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert failures == []
        assert owner.stats()["open_transactions"] == 0
        for index in range(2):
            for key in mine[index:80:2]:
                assert owner.read_other("t", key) == index

    def test_handle_dies_with_its_connection(self, deployment):
        """A handle chosen on one connection names nothing on the next:
        after the TC is killed and healed, the old handle neither opens
        a transaction on the new server nor needs an abort delivered."""
        owner = deployment.router.owner_of("k")
        supervisor = Supervisor()
        supervisor.watch_deployment(deployment)
        txn = owner.begin()
        txn.insert("t", "k", 1, deferred=True)  # named, never acknowledged
        kill_tc(owner)
        supervisor.heal()
        with pytest.raises(ReproError):
            txn.update("t", "k", 2)
        txn.abort()
        assert owner.stats()["open_transactions"] == 0
        assert owner.read_other("t", "k") is None

    def test_stale_id_cannot_name_the_next_incarnations_transaction(self, deployment):
        """A read-only transaction leaves no id in the TC log for restart
        to bump past, so the respawned server hands the same id out
        again; the old handle must not reach the new transaction."""
        owner = deployment.router.owner_of("k")
        supervisor = Supervisor()
        supervisor.watch_deployment(deployment)
        stale = owner.begin()
        assert stale.read("t", "k") is None
        old_id = stale.txn_id
        assert old_id > 0
        kill_tc(owner)
        supervisor.heal()
        fresh = owner.begin()
        fresh.insert("t", "k", 1)
        assert fresh.txn_id == old_id  # reused: the case under test
        with pytest.raises(TransactionAborted):
            stale.commit()
        stale.abort()  # local: nothing of it exists on this connection
        assert owner.stats()["open_transactions"] == 1
        fresh.commit()
        assert owner.read_other("t", "k") == 1


class TestChaosGauntlet:
    def test_tc_and_dc_sigkill_schedule_zero_violations(self):
        from repro.sim.chaos import ChaosRunner

        runner = ChaosRunner(
            seed=11,
            txns=80,
            dc_count=2,
            tc_config=TcConfig.optimized(),
            channel_config=ChannelConfig(
                transport="process", request_timeout_s=15.0
            ),
            kill_every=19,
            tc_processes=1,
            kill_tc_every=29,
        )
        try:
            report = runner.run()
        finally:
            runner.kernel.close()
        assert report["tc_kills"] >= 2
        assert report["faults_fired"] >= report["tc_kills"]
        assert report["committed"] + report["resolved_committed"] > 0


class TestServeTcCli:
    def test_standalone_server_over_socket(self, tmp_path):
        """``python -m repro serve-tc`` against a socket-listening DC."""
        from repro.net.process import RemoteDc

        dc = RemoteDc(
            "dc1",
            journal_path=str(tmp_path / "dc1.journal"),
            listen_path=str(tmp_path / "dc1.sock"),
        )
        proc = None
        try:
            dc.create_table("t", versioned=True)
            sock = str(tmp_path / "tc1.sock")
            proc = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro",
                    "serve-tc",
                    "--listen",
                    sock,
                    "--journal",
                    str(tmp_path / "tc1.journal"),
                    "--dc",
                    f"dc1={tmp_path / 'dc1.sock'}",
                    "--max-sessions",
                    "2",
                ],
                env={**os.environ, "PYTHONPATH": "src"},
            )
            gone = RemoteTc("tc1", tc_id=1, socket_path=sock)
            tc = RemoteTc("tc1", tc_id=1, socket_path=sock)
            try:
                # A connection that goes away mid-transaction: the server
                # aborts what it opened (by handle or not) and frees its locks.
                abandoned = gone.begin()
                abandoned.insert("t", "cli", -1)
                gone.shutdown()
                with tc.begin() as txn:
                    txn.insert("t", "cli", 5)
                assert tc.read_other("t", "cli") == 5
                stats = tc.stats()
                assert stats["counters"]["tcserver.disconnect_aborts"] == 1
                assert stats["open_transactions"] == 0
                # lifecycle is refused on an externally managed server
                with pytest.raises(ReproError):
                    tc.crash()
            finally:
                tc.shutdown()
            assert proc.wait(timeout=15) == 0
        finally:
            if proc is not None and proc.poll() is None:
                proc.kill()
                proc.wait()
            dc.shutdown()
