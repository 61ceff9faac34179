"""The client end of a process-mode connection (docs/architecture.md §10).

``net/process.py::_Transport`` has no receiver thread: whoever waits for
a reply reads the connection, and one background thread per connection
serves what the *server* initiates and watches an idle fd.  These tests
pin the contracts that design must keep, from the outside: replies reach
the caller that asked, wire order is submission order, a force-log
request is served whether or not anybody is calling, timeouts and EOF
resolve every slot, and a connection costs one thread and leaves nothing
behind.
"""

from __future__ import annotations

import gc
import os
import signal
import sys
import threading
import time
from queue import Queue

import pytest

pytestmark = pytest.mark.process

from repro.cloud.router import TcServiceDeployment
from repro.common.api import ControlAck
from repro.common.config import ChannelConfig, DcConfig, KernelConfig, TcConfig
from repro.kernel.unbundled import UnbundledKernel
from repro.common.errors import ComponentUnavailableError
from repro.dc.data_component import DataComponent
from repro.net import process, rpc
from repro.net.process import DcClient, RemoteDc
from repro.net.rpc import (
    ForceLogReply,
    ForceLogRequest,
    Hello,
    Shutdown,
    StatsReply,
    StatsRequest,
    TableList,
)
from repro.net.server import bind_unix_listener
from repro.net.tcclient import RemoteTc
from repro.net.tcrpc import TcHello
from repro.tc.transactional_component import TransactionalComponent
from tests.test_process_backend import _assert_nothing_left_since, _leftovers


@pytest.fixture
def dc(tmp_path):
    server = RemoteDc(
        "dc1",
        config=DcConfig(page_size=512),
        journal_path=str(tmp_path / "dc1.journal"),
        listen_path=str(tmp_path / "dc1.sock"),
        request_timeout_s=10.0,
    )
    yield server
    server.shutdown()


def _attached_tc(tc_id: int, dc: RemoteDc, clients: list) -> TransactionalComponent:
    """An in-process TC on its own socket connection to ``dc`` — what a
    TC server process is, minus the process."""
    client = DcClient(dc.name, dc.listen_path, request_timeout_s=10.0)
    clients.append(client)
    tc = TransactionalComponent(tc_id=tc_id, config=TcConfig.optimized())
    tc.attach_dc(client, ChannelConfig(transport="process", request_timeout_s=10.0))
    return tc


class TestServerInitiatedTraffic:
    def test_force_on_an_idle_connection_is_served(self, dc):
        """Connection B's insert splits a page that embeds TC A's
        unforced operations, so the DC sends ``ForceLogRequest`` down
        A's connection — on which nobody is calling.  A's background
        thread serves it and B's request completes promptly."""
        dc.create_table("t")
        clients: list = []
        try:
            tc_a = _attached_tc(1, dc, clients)
            tc_b = _attached_tc(2, dc, clients)
            forced_on: list = []
            force_a = tc_a._force_through

            def recording_force(lsn, images):
                forced_on.append(threading.current_thread())
                return force_a(lsn, images)

            clients[0]._registrations[1]["force_log"] = recording_force
            open_txn = tc_a.begin()
            for key in range(0, 40, 2):
                open_txn.insert("t", key, "a" * 40)
            open_txn.sync()  # applied at the DC; A's log is not forced
            time.sleep(0.3)  # A falls idle: only its watcher is on the fd
            started = time.monotonic()
            with tc_b.begin() as txn:
                for key in range(1, 40, 2):
                    txn.insert("t", key, "b" * 40)
            elapsed = time.monotonic() - started
            assert forced_on, "the split never needed TC A's log"
            assert all(t is not threading.main_thread() for t in forced_on)
            assert elapsed < 5.0  # request_timeout_s is 10
            assert dc.stats()["counters"]["dc.log_force_prompts"] >= 1
            open_txn.commit()
            with tc_b.begin() as txn:
                assert len(txn.scan("t")) == 40
        finally:
            for client in clients:
                client.close()

    def test_force_while_the_tc_server_thread_is_the_reader(self):
        """The PR 9 regression, one tier up: with ``TcConfig.optimized()``
        and small pages a DC dispatch blocks in ``pump_until`` for the
        TC's force reply while the TC server's only thread is itself
        reading that DC connection for its operation's reply."""
        config = KernelConfig(
            tc=TcConfig.optimized(),
            dc=DcConfig(page_size=512),
            channel=ChannelConfig(transport="process", request_timeout_s=15.0),
            tc_processes=1,
        )
        with UnbundledKernel(config, dc_count=1) as kernel:
            kernel.create_table("t")
            for base in range(0, 200, 20):
                with kernel.begin() as txn:
                    for key in range(base, base + 20):
                        txn.insert("t", key, "v" * 40)
            assert kernel.dc.stats()["counters"]["dc.log_force_prompts"] >= 1
            with kernel.begin() as txn:
                assert len(txn.scan("t")) == 200
            assert kernel.metrics.counters().get("remote_tc.request_timeouts", 0) == 0


class TestSharedConnection:
    def test_threads_get_their_own_replies(self, dc):
        """Four threads, one connection, every request in flight before
        any is collected: each reply echoes its own request's tag."""
        per_thread = 25
        barrier = threading.Barrier(4)
        wrong: list = []

        def worker(index: int) -> None:
            tags = [index * 1000 + n for n in range(1, per_thread + 1)]
            slots = [dc.submit(TableList(tc_id=tag)) for tag in tags]
            barrier.wait(timeout=10)
            for tag, slot in zip(tags, slots):
                reply = dc.collect(slot)
                if reply is None or reply.tc_id != tag:
                    wrong.append((tag, reply))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(1, 5)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert wrong == []

    def test_parked_followers_are_always_woken(self, dc, monkeypatch):
        """More callers than cores on one connection, switching threads as
        often as the interpreter allows: whoever reads must wake every
        follower whose reply it delivers (or who should take over the fd),
        although it notifies only while someone is parked.  With the idle
        watch parked, nothing else would read for them, so a lost wake-up
        stalls a caller for its whole timeout: the run takes ~1 s, a
        stall 30 s."""
        monkeypatch.setattr(process, "_IDLE_WATCH_S", 30.0)
        time.sleep(0.1)  # the watcher's current 50 ms wait runs out
        wrong: list = []

        def worker(index: int) -> None:
            for n in range(1, 61):
                tag = index * 1000 + n
                if n % 3:
                    reply = dc.call(TableList(tc_id=tag), timeout=30.0)
                else:
                    reply = dc.collect(dc.submit(TableList(tc_id=tag)), timeout=30.0)
                if reply is None or reply.tc_id != tag:
                    wrong.append((tag, reply))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        started = time.monotonic()
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(1, 9)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert time.monotonic() - started < 20.0
        assert wrong == []
        assert dc.metrics.counters().get("remote_dc.request_timeouts", 0) == 0

    def test_deferred_burst_collected_in_reverse(self, dc):
        slots = [dc.submit(StatsRequest(tc_id=n), defer=True) for n in range(1, 9)]
        assert not any(slot.done() for slot in slots)
        dc.flush()
        replies = [dc.collect(slot) for slot in reversed(slots)]
        assert [reply.tc_id for reply in replies] == list(range(8, 0, -1))
        assert all(slot.done() for slot in slots)

    def test_wire_order_is_submission_order(self, tmp_path):
        """Deferred frames are never overtaken by a later direct send."""
        server = _ScriptedServer(tmp_path, Hello(tc_id=0, dc_name="dcs"))
        client = DcClient("dcs", server.path, request_timeout_s=5.0)
        try:
            first = client.submit(StatsRequest(tc_id=1), defer=True)
            second = client.submit(StatsRequest(tc_id=2), defer=True)
            assert client.call(StatsRequest(tc_id=3)).tc_id == 3
            assert client.collect(first).tc_id == 1
            assert client.collect(second).tc_id == 2
            assert [m.tc_id for m in server.requests] == [1, 2, 3]
        finally:
            client.close()
            server.stop()


class _ScriptedServer:
    """A server end that speaks the frame protocol from a thread, so a
    test decides when (and whether) each reply is sent, and what the
    server asks of the client (:meth:`prompt`)."""

    def __init__(self, tmp_path, hello) -> None:
        self.path = str(tmp_path / "scripted.sock")
        self._listener = bind_unix_listener(self.path)
        self._hello = hello
        self.requests: list = []
        #: Set by the test to let the held (first) reply go.
        self.release = threading.Event()
        self.hold_first = False
        self._conn = None
        self._connected = threading.Event()
        self._client_replies: Queue = Queue()
        self._send_lock = threading.Lock()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def prompt(self, message, seq: int = 1):
        """Send ``message`` as a server request; the client's reply."""
        assert self._connected.wait(10)
        with self._send_lock:
            self._conn.send_bytes(rpc.pack_frame(rpc.SERVER_REQUEST, seq, message))
        got, reply = self._client_replies.get(timeout=10)
        assert got == seq
        return reply

    def _serve(self) -> None:
        from multiprocessing.connection import Connection

        sock, _addr = self._listener.accept()
        conn = self._conn = Connection(sock.detach())
        self._connected.set()
        try:
            conn.send_bytes(rpc.pack_frame(rpc.PUSH, 0, self._hello))
            held = None
            while True:
                kind, seq, message = rpc.unpack_frame(conn.recv_bytes())
                if kind == rpc.CLIENT_REPLY:
                    self._client_replies.put((seq, message))
                    continue
                assert kind == rpc.REQUEST
                if isinstance(message, Shutdown):
                    conn.send_bytes(
                        rpc.pack_frame(rpc.REPLY, seq, ControlAck(tc_id=0))
                    )
                    return
                self.requests.append(message)
                reply = rpc.pack_frame(
                    rpc.REPLY, seq, StatsReply(tc_id=message.tc_id)
                )
                if self.hold_first and held is None:
                    held = reply
                    # The late reply, then straight on to the next request.
                    self.release.wait(10)
                with self._send_lock:
                    conn.send_bytes(reply)
        except (EOFError, OSError):
            pass
        finally:
            conn.close()

    def stop(self) -> None:
        self._thread.join(timeout=10)
        assert not self._thread.is_alive()
        self._listener.close()


class TestUnearnedForcePrompts:
    """ROADMAP 1(c): a DC's force prompt is only as good as what it names.
    The prompts arrive as a DC server sends them (``SERVER_REQUEST`` to
    the client end of a connection) and reach the TC's force hook."""

    def test_nothing_filled_or_forced(self, tmp_path):
        tc = TransactionalComponent(config=TcConfig())
        local = DataComponent("dc1")
        local.create_table("t")
        tc.attach_dc(local)
        server = _ScriptedServer(tmp_path, Hello(tc_id=0, dc_name="dcs"))
        client = DcClient("dcs", server.path, request_timeout_s=5.0)
        try:
            tc.attach_dc(client, ChannelConfig(transport="process"))
            with tc.begin() as txn:
                txn.insert("t", 0, "stable")
            open_txn = tc.begin()
            open_txn.insert("t", 1, "volatile")  # logged, not forced
            log = tc.log

            def state():
                records = log.all_records()
                return (
                    log.eosl,
                    log.stable_count(),
                    [(r.lsn, getattr(r, "undo", None)) for r in records],
                    dict(log._owed),
                )

            before = state()
            assert log.last_lsn > log.eosl  # there is a tail to harden
            prompts = [
                # An LSN far above any this TC issued.
                ForceLogRequest(tc_id=tc.tc_id, lsn=log.last_lsn + 10**6),
                # Images for op ids it never sent (above and below any).
                ForceLogRequest(
                    tc_id=tc.tc_id,
                    lsn=log.eosl,
                    images={log.last_lsn + 7: "forged", -3: "forged", 0: "forged"},
                ),
            ]
            for seq, prompt in enumerate(prompts, start=1):
                reply = server.prompt(prompt, seq)
                assert isinstance(reply, ForceLogReply)
                assert reply.eosl == before[0] == log.eosl
                assert state() == before
            assert tc.active_count() == 1  # the prompts opened nothing
            with tc.begin() as other:  # another session still commits
                other.update("t", 0, "other")
            open_txn.commit()
            assert tc.active_count() == 0
            with tc.begin() as check:
                assert check.scan("t") == [(0, "other"), (1, "volatile")]
        finally:
            client.close()
            server.stop()


class TestTimeouts:
    @pytest.mark.parametrize(
        "connect, hello, counter",
        [
            (
                lambda path: DcClient("dcs", path, request_timeout_s=5.0),
                Hello(tc_id=0, dc_name="dcs"),
                "remote_dc.request_timeouts",
            ),
            (
                lambda path: RemoteTc(
                    "tcs", tc_id=1, socket_path=path, request_timeout_s=5.0
                ),
                TcHello(tc_id=1, tc_name="tcs"),
                "remote_tc.request_timeouts",
            ),
        ],
        ids=["DcClient", "RemoteTc"],
    )
    def test_timeout_returns_none_and_drops_the_late_reply(
        self, tmp_path, connect, hello, counter
    ):
        server = _ScriptedServer(tmp_path, hello)
        server.hold_first = True
        client = connect(server.path)
        try:
            assert client.call(StatsRequest(tc_id=1), timeout=0.2) is None
            assert client.metrics.counters()[counter] == 1
            server.release.set()
            # The stale reply for request 1 arrives first and is dropped;
            # this call gets its own.
            reply = client.call(StatsRequest(tc_id=2), timeout=5.0)
            assert reply is not None and reply.tc_id == 2
            assert client.metrics.counters()[counter] == 1
        finally:
            client.shutdown()
            server.stop()


class TestServerDeath:
    def test_idle_kill_fires_on_crash_without_a_call(self, dc):
        crashed = threading.Event()
        fired: list = []
        dc.on_crash.append(lambda name, kind: (fired.append(name), crashed.set()))
        time.sleep(0.2)  # nobody calls: only the idle watcher can notice
        os.kill(dc.pid, signal.SIGKILL)
        assert crashed.wait(1.0)
        time.sleep(0.2)
        assert fired == ["dc1"]  # once
        assert dc.call(StatsRequest(tc_id=0), timeout=1.0) is None

    def test_idle_tc_kill_fires_on_crash_without_a_call(self):
        with TcServiceDeployment(tc_count=1, dc_count=1, partitions=2) as dep:
            tc = dep.tcs["tc1"]
            crashed = threading.Event()
            tc.on_crash.append(lambda name, kind: crashed.set())
            time.sleep(0.2)
            os.kill(tc.pid, signal.SIGKILL)
            assert crashed.wait(1.0)

    def test_outstanding_slots_resolve_to_none_at_eof(self, dc):
        crashes: list = []
        dc.on_crash.append(lambda name, kind: crashes.append(name))
        os.kill(dc.pid, signal.SIGSTOP)  # requests queue up unanswered
        slots = [dc.submit(StatsRequest(tc_id=n)) for n in range(1, 6)]
        assert not any(slot.done() for slot in slots)
        os.kill(dc.pid, signal.SIGKILL)
        assert [dc.collect(slot, timeout=5.0) for slot in slots] == [None] * 5
        assert crashes == ["dc1"]
        assert dc.metrics.counters().get("remote_dc.request_timeouts", 0) == 0


    def test_failed_write_takes_the_connection_down(self, dc, monkeypatch):
        """EPIPE to a just-killed server, before any read has seen the EOF
        (the idle watch is parked for the whole test, so only the write
        can notice): down at once and once, the TC above fails fast with
        :class:`ComponentUnavailableError` instead of burning its resend
        budget into :class:`ResendExhaustedError`, and a heal reconnects."""
        monkeypatch.setattr(process, "_IDLE_WATCH_S", 30.0)
        dc.create_table("t")
        clients: list = []
        try:
            tc = _attached_tc(1, dc, clients)
            (client,) = clients
            fired: list = []
            client.on_crash.append(lambda name, kind: fired.append(name))
            with tc.begin() as txn:
                txn.insert("t", 1, "before")
            dc.crash()  # SIGKILL, reaped: the server's end is closed

            slot = client.submit(StatsRequest(tc_id=1))

            assert slot.done() and client.collect(slot) is None
            assert client.crashed
            assert fired == ["dc1"]
            assert client.metrics.counters()["remote_dc.process_deaths"] == 1
            txn = tc.begin()
            with pytest.raises(ComponentUnavailableError):
                txn.insert("t", 2, "into the dead DC")
                txn.sync()  # the queued write goes out (and nowhere)
            assert fired == ["dc1"]  # still once
            dc.recover()
            client.recover()
            assert not client.crashed
            txn.abort()
            with tc.begin() as txn:
                assert txn.read("t", 1) == "before"
                assert txn.read("t", 2) is None
        finally:
            for client in clients:
                client.close()


class TestFootprint:
    def test_one_thread_per_connection_and_nothing_left(self, tmp_path):
        gc.collect()
        before = _leftovers()
        threads = threading.active_count()
        dc = RemoteDc(
            "dc1",
            journal_path=str(tmp_path / "dc1.journal"),
            listen_path=str(tmp_path / "dc1.sock"),
        )
        assert threading.active_count() == threads + 1
        client = DcClient("dc1", dc.listen_path)
        assert threading.active_count() == threads + 2
        tc = RemoteTc(
            "tc1",
            tc_id=1,
            journal_path=str(tmp_path / "tc1.journal"),
            dcs={"dc1": dc.listen_path},
        )
        assert threading.active_count() == threads + 3
        dc.create_table("t", versioned=True)
        tc.refresh_routes("dc1")
        with tc.begin() as txn:
            txn.insert("t", 1, "v")
        assert threading.active_count() == threads + 3
        tc.shutdown()
        client.close()
        dc.shutdown()
        del txn, tc, client, dc  # a Process object keeps its sentinel fds
        gc.collect()
        _assert_nothing_left_since(before)

    @pytest.mark.parametrize("which", ["DcClient", "RemoteTc-spawn", "RemoteTc-connect"])
    def test_fd_is_closed_once_after_the_thread_has_left(self, dc, tmp_path, which):
        """Closing the fd under the connection's own thread frees the fd
        number for the next connection, whose frames an idle watcher
        still parked in ``poll()`` would steal: every close path closes
        it in one place, after that thread is gone and nobody reads."""
        server = None
        if which == "DcClient":
            proxy = DcClient("dc1", dc.listen_path)
        elif which == "RemoteTc-spawn":
            proxy = RemoteTc("tc1", tc_id=1, journal_path=str(tmp_path / "tc1.journal"))
        else:
            server = _ScriptedServer(tmp_path, TcHello(tc_id=1, tc_name="tcs"))
            proxy = RemoteTc("tcs", tc_id=1, socket_path=server.path)
        transport = proxy._transport
        conn = transport._conn
        real_close = conn.close
        seen: list = []

        def recording_close():
            seen.append((transport._thread.is_alive(), transport._reading))
            real_close()

        conn.close = recording_close
        time.sleep(0.2)  # the idle watcher is parked on the fd
        try:
            proxy.close()
        finally:
            if server is not None:
                server.stop()
        assert seen == [(False, False)]

    def test_close_does_not_wait_out_a_tick(self, dc):
        """Closing wakes the background thread; it is not waited out."""
        clients = [DcClient("dc1", dc.listen_path) for _ in range(10)]
        time.sleep(0.2)  # every watcher parked on its idle fd
        started = time.monotonic()
        for client in clients:
            client.close()
        assert time.monotonic() - started < 0.25  # ten ticks would be 0.5 s
