"""The process deployment mode end to end (docs/architecture.md §10).

Each DC is a real OS process behind a ``multiprocessing`` pipe; these
tests drive the full stack — wire codec, framed transport, journal-backed
storage, pipelined channel — through the same TC code paths the in-process
mode uses, then make failure *real*: ``SIGKILL`` the server mid-stream and
check the §4.2.1 resend/idempotence contracts converge across an actual
process death and journal replay.

Increments are the canary throughout: a non-idempotent operation applied
twice (a resend not absorbed by its abLSN) or zero times (a lost redo)
shows up as a wrong sum, not a silently plausible value.
"""

from __future__ import annotations

import gc
import multiprocessing as mp
import os
import signal
import struct
import sys
import threading
import time

import pytest

pytestmark = pytest.mark.process

from repro.cloud.deployment import CloudDeployment
from repro.common.config import ChannelConfig, DcConfig, KernelConfig, TcConfig
from repro.common.errors import CrashedError, ReproError
from repro.kernel.unbundled import UnbundledKernel
from repro.net import server
from repro.net.server import bind_unix_listener
from repro.net.process import ProcessChannel, RemoteDc, ServerProcess
from repro.net.tcclient import RemoteTc
from repro.sim.faults import FaultInjector
from repro.sim.supervisor import Supervisor
from tests.conftest import lossy, run_in_threads


def process_config(**tc_overrides) -> KernelConfig:
    return KernelConfig(
        tc=TcConfig.optimized(**tc_overrides),
        channel=ChannelConfig(transport="process", request_timeout_s=15.0),
    )


def kill_dc(dc: RemoteDc) -> None:
    """A real ``kill -9``, then wait for the proxy to notice the death."""
    os.kill(dc.pid, signal.SIGKILL)
    deadline = time.monotonic() + 10.0
    while not dc.crashed and time.monotonic() < deadline:
        time.sleep(0.01)
    assert dc.crashed


class TestProcessKernel:
    def test_commit_and_read_across_two_dc_processes(self):
        with UnbundledKernel(config=process_config(), dc_count=2) as kernel:
            kernel.create_table("t", dc_name="dc1")
            kernel.create_table("u", dc_name="dc2")
            txn = kernel.begin()
            txn.insert("t", 1, {"v": 10})
            txn.insert("u", 2, {"v": 20})
            txn.commit()
            txn = kernel.begin()
            assert txn.read("t", 1) == {"v": 10}
            assert txn.read("u", 2) == {"v": 20}
            txn.commit()
            # The DCs really are separate processes (and not this one).
            pids = {dc.pid for dc in kernel.dcs.values()}
            assert len(pids) == 2 and os.getpid() not in pids

    def test_abort_undoes_across_the_wire(self):
        with UnbundledKernel(config=process_config(), dc_count=1) as kernel:
            kernel.create_table("t")
            txn = kernel.begin()
            txn.insert("t", 1, "committed")
            txn.commit()
            txn = kernel.begin()
            txn.update("t", 1, "doomed")
            txn.insert("t", 2, "also doomed")
            txn.abort()
            txn = kernel.begin()
            assert txn.read("t", 1) == "committed"
            assert txn.read("t", 2) is None
            txn.commit()

    def test_pipelined_flush_presends_to_every_dc(self):
        with UnbundledKernel(config=process_config(), dc_count=2) as kernel:
            kernel.create_table("t", dc_name="dc1")
            kernel.create_table("u", dc_name="dc2")
            txn = kernel.begin()
            for key in range(4):
                txn.insert("t", key, key)
                txn.insert("u", key, key)
            txn.commit()
            counters = kernel.metrics.counters()
            # Both DC envelopes went out as batches over the async path.
            assert counters.get("channel.batches", 0) >= 2
            txn = kernel.begin()
            assert [txn.read("t", k) for k in range(4)] == list(range(4))
            assert [txn.read("u", k) for k in range(4)] == list(range(4))
            txn.commit()

    def test_deployment_mode_knobs_are_validated(self, tmp_path):
        """Fault injection is local-only: a process kernel, a
        ``ProcessChannel`` and a deployment's remote DC each refuse an
        injector, a lossy one included."""
        with pytest.raises(ReproError):
            UnbundledKernel(
                config=process_config(), dc_count=1, faults=FaultInjector()
            )
        with pytest.raises(ReproError):
            UnbundledKernel(config=process_config(), dc_count=1, faults=lossy(loss=0.5))
        deployment = CloudDeployment(faults=lossy(loss=0.5))
        with pytest.raises(ReproError):
            deployment.add_remote_dc("dcr", journal_path=str(tmp_path / "dcr.journal"))
        assert deployment.dcs == {}

    def test_close_terminates_server_processes(self):
        kernel = UnbundledKernel(config=process_config(), dc_count=1)
        kernel.create_table("t")
        pid = kernel.dc.pid
        kernel.close()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        else:
            pytest.fail(f"DC server {pid} still alive after close()")


    @pytest.mark.parametrize("dc_count", [1, 2, 4])
    def test_threads_over_dc_processes_commit_everything(self, dc_count):
        """Four driver threads of 40 eight-insert transactions over 1, 2
        and 4 DC processes, one table per DC: every transaction commits."""
        threads, txns = 4, 40
        config = KernelConfig(
            dc=DcConfig(page_size=2048),
            tc=TcConfig.optimized(lock_timeout=30.0),
            channel=ChannelConfig(transport="process", request_timeout_s=30.0),
        )
        with UnbundledKernel(config, dc_count=dc_count) as kernel:
            for index in range(dc_count):
                table = f"t{index}"
                dc_name = f"dc{index + 1}" if dc_count > 1 else None
                kernel.create_table(table, dc_name=dc_name)
                with kernel.begin() as txn:  # each region's upper fence
                    for thread_id in range(threads + 1):
                        txn.insert(table, thread_id * 10_000 + 9_999, "fence")

            def worker(thread_id: int) -> None:
                table = f"t{thread_id % dc_count}"
                for txn_index in range(txns):
                    start = thread_id * 10_000 + txn_index * 8
                    with kernel.begin() as txn:
                        for key in range(start, start + 8):
                            txn.insert(table, key, "x" * 64)

            run_in_threads(worker, threads)
            assert kernel.metrics.get("tc.commits") >= threads * txns


class TestKillAndRecover:
    def test_journal_survives_sigkill(self, tmp_path):
        config = process_config()
        config.data_dir = str(tmp_path)
        with UnbundledKernel(config=config, dc_count=1) as kernel:
            kernel.create_table("t")
            txn = kernel.begin()
            for key in range(16):
                txn.insert("t", key, {"v": key})
            txn.commit()
            kill_dc(kernel.dc)
            info = kernel.dc.recover(notify_tcs=True)
            assert info["restarted"] and kernel.dc.restarts == 1
            txn = kernel.begin()
            assert [txn.read("t", k)["v"] for k in range(16)] == list(range(16))
            txn.commit()

    def test_kill_mid_transaction_under_optimized_config_converges(self):
        """The ISSUE acceptance scenario: kill -9 mid-transaction under
        ``TcConfig.optimized()``; resend + abLSN idempotence converge."""
        with UnbundledKernel(config=process_config(), dc_count=1) as kernel:
            kernel.create_table("t")
            txn = kernel.begin()
            txn.insert("t", "counter", 0)
            txn.commit()
            supervisor = Supervisor(metrics=kernel.metrics)
            supervisor.watch_kernel(kernel)
            txn = kernel.begin()
            # batch_max_ops=8: the first increments flush to the DC before
            # the kill, the rest after the heal — the commit-time resends
            # must not double-apply the already-performed prefix.
            for _ in range(12):
                txn.increment("t", "counter", 1)
            kill_dc(kernel.dc)
            report = supervisor.heal()
            assert report.dc_restarts == 1
            txn.commit()
            txn = kernel.begin()
            assert txn.read("t", "counter") == 12
            txn.commit()
            assert kernel.dc.restarts == 1

    def test_repeated_kills_keep_converging(self):
        with UnbundledKernel(config=process_config(), dc_count=1) as kernel:
            kernel.create_table("t")
            txn = kernel.begin()
            txn.insert("t", "counter", 0)
            txn.commit()
            supervisor = Supervisor(metrics=kernel.metrics)
            supervisor.watch_kernel(kernel)
            for round_number in range(3):
                txn = kernel.begin()
                for _ in range(10):
                    txn.increment("t", "counter", 1)
                kill_dc(kernel.dc)
                supervisor.heal()
                txn.commit()
            txn = kernel.begin()
            assert txn.read("t", "counter") == 30
            txn.commit()
            assert kernel.dc.restarts == 3

    def test_data_dir_persists_across_kernels(self, tmp_path):
        config = process_config()
        config.data_dir = str(tmp_path)
        with UnbundledKernel(config=config, dc_count=1) as kernel:
            kernel.create_table("t")
            txn = kernel.begin()
            txn.insert("t", 1, "durable")
            txn.commit()
            # A graceful handoff needs a checkpoint: without it the
            # committed state lives partly in the (old) TC's redo stream,
            # which a *new* TC does not have.  SIGKILL recovery is covered
            # above precisely because there the same TC resends its redo.
            # The TC checkpoint broadcasts LWM/EOSL (unblocking page
            # flushes), then the DC flushes everything and truncates.
            assert kernel.checkpoint()
            assert kernel.dc.checkpoint_dc_log()
        # A brand-new kernel on the same volume: the journal replays, the
        # catalog primes from the server's hello, reads see the commit.
        with UnbundledKernel(config=config, dc_count=1) as kernel:
            assert "t" in kernel.dc.table_names()
            kernel.tc.refresh_routes(kernel.dc)
            txn = kernel.begin()
            assert txn.read("t", 1) == "durable"
            txn.commit()


    def test_sigkill_on_a_table_larger_than_the_pool_loses_no_commit(self):
        """Every page but a handful lives only as a journal page frame or
        a DC-log image when the kill lands; restart rebuilds each from its
        frame (and the split pages never flushed from the log's page-id
        index), before and after a compaction rewrote all of them.  An
        ascending load leaves full leaves: its 750 keys fill about 45 pages
        against the pool's 6."""
        span = 1_500
        config = process_config()
        config.dc = DcConfig(page_size=512, buffer_capacity=6)
        with UnbundledKernel(config=config, dc_count=1) as kernel:
            kernel.create_table("t")
            supervisor = Supervisor(metrics=kernel.metrics)
            supervisor.watch_kernel(kernel)
            committed: dict[int, str] = {}

            def run(keys, value):
                for start in range(0, len(keys), 20):
                    txn = kernel.begin()
                    for key in keys[start : start + 20]:
                        if key in committed:
                            txn.update("t", key, value(key))
                        else:
                            txn.insert("t", key, value(key))
                    txn.commit()
                    committed.update(
                        (key, value(key)) for key in keys[start : start + 20]
                    )

            def read_back():
                for start in range(0, span, 100):
                    txn = kernel.begin()
                    for key in range(start, start + 100):
                        assert txn.read("t", key) == committed.get(key), key
                    txn.commit()

            run(list(range(0, span, 2)), lambda key: f"first-{key:05d}")
            counters = kernel.dc.stats()["counters"]
            assert counters["buffer.evictions"] > 0
            assert counters["btree.leaf_splits"] > 0
            assert kernel.dc.stats()["dc"]["stable_pages"] >= 5 * 6
            kill_dc(kernel.dc)
            assert supervisor.heal().dc_restarts == 1
            read_back()

            run(list(range(0, span, 3)), lambda key: f"second-{key:05d}")
            assert kernel.checkpoint()
            assert kernel.dc.checkpoint_dc_log()  # compacts: every page re-framed
            run(list(range(1, span, 7)), lambda key: f"third-{key:05d}")
            kill_dc(kernel.dc)
            assert supervisor.heal().dc_restarts == 1
            read_back()
            assert kernel.dc.stats()["dc"]["tables"]["t"]["records"] == len(committed)


def _leftovers() -> tuple:
    """(live child processes, threads, open fds) of this test process."""
    return (
        set(mp.active_children()),
        threading.active_count(),
        len(os.listdir("/proc/self/fd")),
    )


def _assert_nothing_left_since(before: tuple) -> None:
    children, threads, fds = _leftovers()
    assert children <= before[0]
    assert threads <= before[1]
    assert fds <= before[2]


def _stall_before_hello() -> None:
    """A server core that takes longer to build than the stack deadline,
    then ends its child without a hello."""
    time.sleep(1.5)
    sys.exit(0)


class TestStartupFailures:
    """A server that never produces a well-formed hello is a ``ReproError``
    (never a bare ``EOFError``) and leaves no process, thread or fd behind."""

    def test_dc_child_dying_before_hello_is_a_repro_error(self, tmp_path):
        gc.collect()  # earlier tests' garbage must not close fds mid-test
        before = _leftovers()
        with pytest.raises(ReproError):
            RemoteDc("dc1", journal_path=str(tmp_path / "missing" / "x.journal"))
        _assert_nothing_left_since(before)

    def test_tc_child_dying_before_hello_is_a_crashed_error(self, tmp_path):
        """``CrashedError`` is what the supervisor's heal-retry keys on
        when a TC dies inside its §5.3.2 restart."""
        gc.collect()
        before = _leftovers()
        with pytest.raises(CrashedError):
            RemoteTc(
                "tc1", tc_id=1, journal_path=str(tmp_path / "missing" / "x.journal")
            )
        _assert_nothing_left_since(before)

    def test_kernel_failing_part_way_closes_what_it_spawned(self, tmp_path):
        """The first DC is up when the second DC's child dies on an
        unopenable journal; in TC-process mode both DCs are up when the
        TC child dies on one."""
        gc.collect()
        before = _leftovers()
        (tmp_path / "dc2.journal").mkdir()  # open() will fail in the child
        second_dc_less = KernelConfig(
            channel=ChannelConfig(transport="process"), data_dir=str(tmp_path)
        )
        with pytest.raises(ReproError):
            UnbundledKernel(config=second_dc_less, dc_count=2)
        (tmp_path / "dc2.journal").rmdir()
        (tmp_path / "tc1.journal").mkdir()  # open() will fail in the child
        tc_less = KernelConfig(
            channel=ChannelConfig(transport="process"),
            tc_processes=1,
            data_dir=str(tmp_path),
        )
        with pytest.raises(CrashedError):
            UnbundledKernel(config=tc_less, dc_count=2)
        gc.collect()
        _assert_nothing_left_since(before)

    def test_a_child_late_with_its_hello_dumps_its_stack(self, capfd, monkeypatch):
        """Past ``HELLO_STACK_S`` without a hello, a server child writes
        every thread's stack to stderr — naming the frame it is stuck in
        — and carries on; what ``wait_hello`` makes of it is unchanged."""
        monkeypatch.setattr(server, "HELLO_STACK_S", 0.2)
        child = ServerProcess(_stall_before_hello, (), "repro-stall")
        try:
            child.join(10.0)
            assert child.process.exitcode == 0  # dumped, not killed
        finally:
            child.kill()
            child.conn.close()
        assert "_stall_before_hello" in capfd.readouterr().err

    def test_a_child_that_said_hello_dumps_nothing(self, tmp_path, capfd, monkeypatch):
        monkeypatch.setattr(server, "HELLO_STACK_S", 0.3)
        dc = RemoteDc("dcq", journal_path=str(tmp_path / "dcq.journal"))
        try:
            time.sleep(0.8)  # well past the deadline
            assert dc.stats()["pid"] == dc.pid  # still serving
        finally:
            dc.shutdown()
        assert "most recent call first" not in capfd.readouterr().err

    @pytest.mark.parametrize(
        "connect",
        [
            lambda path: RemoteDc("dcg", socket_path=path, request_timeout_s=5.0),
            lambda path: RemoteTc(
                "tcg", tc_id=1, socket_path=path, request_timeout_s=5.0
            ),
        ],
        ids=["DcClient", "RemoteTc"],  # DcClient: a RemoteDc in connect mode
    )
    def test_garbage_first_frame_closes_the_client_fd(self, tmp_path, connect):
        path = str(tmp_path / "garbage.sock")
        listener = bind_unix_listener(path)
        saw_eof = threading.Event()

        def serve_garbage() -> None:
            peer, _addr = listener.accept()
            with peer:
                junk = b"\xff not a frame"
                peer.sendall(struct.pack("!i", len(junk)) + junk)
                peer.settimeout(5.0)
                if peer.recv(1) == b"":
                    saw_eof.set()  # the client closed its end

        server = threading.Thread(target=serve_garbage, daemon=True)
        server.start()
        try:
            with pytest.raises(ReproError):
                connect(path)
            assert saw_eof.wait(5.0)
        finally:
            server.join(timeout=5.0)
            listener.close()
        assert not server.is_alive()


class TestChannelAndDeployment:
    def test_process_channel_rejects_simulated_misbehavior(self, tmp_path):
        dc = RemoteDc("dcx", journal_path=str(tmp_path / "dcx.journal"))
        try:
            with pytest.raises(ReproError):
                ProcessChannel(dc, faults=lossy(loss=0.1))
            with pytest.raises(ReproError):
                ProcessChannel(dc, faults=lossy(duplicate=0.1))
            with pytest.raises(ReproError):
                ProcessChannel(dc, faults=FaultInjector())
        finally:
            dc.shutdown()

    def test_mixed_deployment_local_and_remote_dcs(self, tmp_path):
        deployment = CloudDeployment()
        deployment.add_dc("local-dc")
        deployment.add_remote_dc(
            "remote-dc", journal_path=str(tmp_path / "remote.journal")
        )
        deployment.add_tc("tc")
        deployment.create_table("near", dc="local-dc")
        deployment.create_table("far", dc="remote-dc")
        deployment.grant("tc", "near", lambda key: True)
        deployment.grant("tc", "far", lambda key: True)
        with deployment.build():
            tc = deployment.tc("tc")
            channels = tc.channels()
            assert not isinstance(channels["local-dc"], ProcessChannel)
            assert isinstance(channels["remote-dc"], ProcessChannel)
            txn = tc.begin()
            txn.insert("near", 1, "a")
            txn.insert("far", 1, "b")
            txn.commit()
            txn = tc.begin()
            assert txn.read("near", 1) == "a"
            assert txn.read("far", 1) == "b"
            txn.commit()

    def test_concurrent_committers_one_dc_process(self):
        """Thread safety of the shared transport under concurrent load."""
        with UnbundledKernel(config=process_config(), dc_count=1) as kernel:
            kernel.create_table("t")
            txn = kernel.begin()
            for worker in range(4):
                txn.insert("t", f"w{worker}", 0)
            txn.commit()
            errors: list[BaseException] = []

            def run(worker: int) -> None:
                try:
                    for _ in range(10):
                        txn = kernel.begin()
                        txn.increment("t", f"w{worker}", 1)
                        txn.commit()
                except BaseException as exc:  # pragma: no cover - diagnostics
                    errors.append(exc)

            threads = [
                threading.Thread(target=run, args=(worker,)) for worker in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            txn = kernel.begin()
            assert [txn.read("t", f"w{w}") for w in range(4)] == [10] * 4
            txn.commit()
