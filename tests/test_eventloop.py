"""Event-loop DC/TC servers (docs/architecture.md §18).

The tentpole claim is O(1) server threads in the number of client
connections: a server's request loop is one ``poll``-driven thread,
and every connection is a ``Peer`` — fd, reassembly buffer, out-buffer —
not a thread.  The loop is tested bare (framing, backpressure accounting,
malformed-frame rejection, mid-frame disconnect) and through the real
servers: a DC server and a standalone TC server each hold their reported
thread count flat while the client count grows, serve interleaved
sessions concurrently, and keep every §4.2.1 answer exact throughout.
"""

from __future__ import annotations

import os
import signal
import socket
import struct
import subprocess
import sys
import threading
import time

import pytest

pytestmark = pytest.mark.process

from repro.net import rpc
from repro.net.eventloop import EventLoop
from repro.net.process import RemoteDc, wait_hello
from repro.net.rpc import Hello, StatsReply, StatsRequest
from repro.net.server import connect_any
from repro.net.tcclient import RemoteTc
from repro.net.tcrpc import TcHello
from repro.sim.metrics import Metrics

_LEN = struct.Struct("!i")


def _frame(payload: bytes) -> bytes:
    return _LEN.pack(len(payload)) + payload


class _LoopHarness:
    """An EventLoop on a thread plus one adopted socketpair end."""

    def __init__(self):
        self.metrics = Metrics()
        self.loop = EventLoop(self.metrics)
        self.frames: list[bytes] = []
        self.closed = threading.Event()
        self.server_sock, self.client = socket.socketpair()
        self.peer = self.loop.adopt(
            self.server_sock,
            lambda peer, data: self.frames.append(bytes(data)),
            lambda peer: self.closed.set(),
        )
        self.thread = threading.Thread(target=self.loop.run, daemon=True)
        self.thread.start()

    def wait(self, predicate, timeout=5.0):
        deadline = time.monotonic() + timeout
        while not predicate() and time.monotonic() < deadline:
            time.sleep(0.005)
        assert predicate()

    def shutdown(self):
        self.loop.stop()
        self.thread.join(timeout=5)
        self.loop.close()
        self.client.close()


class TestEventLoopBare:
    def test_reassembles_split_and_coalesced_frames(self):
        h = _LoopHarness()
        try:
            # Two frames in one write, then one frame dribbled bytewise.
            h.client.sendall(_frame(b"alpha") + _frame(b"beta"))
            for byte in _frame(b"gamma"):
                h.client.sendall(bytes([byte]))
                time.sleep(0.001)
            h.wait(lambda: len(h.frames) == 3)
            assert h.frames == [b"alpha", b"beta", b"gamma"]
        finally:
            h.shutdown()

    def test_slow_reader_defers_frames_not_threads(self):
        """A reader that stops draining gets its frames parked in the
        peer's out-buffer (``frames_deferred`` counts them); no writer
        thread is spawned and the loop keeps serving."""
        h = _LoopHarness()
        try:
            blob = b"z" * (1 << 18)
            before = threading.active_count()
            for _ in range(64):
                h.loop.call_soon(lambda: h.peer.send_frame(blob))
            deferred = h.metrics.counter("eventloop.frames_deferred")
            h.wait(lambda: deferred.value > 0)
            assert threading.active_count() == before
            assert h.peer.pending_out > 0
            # Draining the socket lets the loop flush everything out.
            received = 0
            h.client.settimeout(5)
            while received < 64 * (len(blob) + 4):
                received += len(h.client.recv(1 << 20))
            h.wait(lambda: h.peer.pending_out == 0)
        finally:
            h.shutdown()

    def test_mid_frame_disconnect_closes_cleanly(self):
        h = _LoopHarness()
        try:
            h.client.sendall(_frame(b"whole"))
            h.client.sendall(_LEN.pack(500) + b"only-half")  # then die
            h.client.close()
            h.wait(h.closed.is_set)
            assert h.frames == [b"whole"]  # the partial frame never fired
            assert h.metrics.counters()["eventloop.connections_open"] == 0
        finally:
            h.shutdown()

    def test_malformed_length_drops_connection(self):
        h = _LoopHarness()
        try:
            h.client.sendall(_LEN.pack(-5) + b"junk")
            h.wait(h.closed.is_set)
            assert h.metrics.counters()["eventloop.protocol_errors"] == 1
            with pytest.raises(BrokenPipeError):
                h.peer.send_frame(b"too late")
        finally:
            h.shutdown()


# -- real servers: flat thread count ------------------------------------------


def _reply_after_unknown_kind(address: str, hello_type: type) -> tuple:
    """A raw client: take the hello, send a frame of a kind no server
    knows, then a real request; return the frame that comes back."""
    conn = connect_any(address)
    try:
        wait_hello(conn, hello_type, address, timeout=10.0)
        conn.send_bytes(rpc.pack_frame(99, 0, None))
        conn.send_bytes(rpc.pack_frame(rpc.REQUEST, 7, StatsRequest(tc_id=1)))
        assert conn.poll(10.0)
        return rpc.unpack_frame(conn.recv_bytes())
    finally:
        conn.close()


class TestDcServerScaling:
    def test_thread_count_flat_across_clients(self, tmp_path):
        dc = RemoteDc(
            "dcx",
            journal_path=str(tmp_path / "dcx.journal"),
            listen_path=str(tmp_path / "dcx.sock"),
        )
        clients = []
        try:
            dc.create_table("t")
            first = RemoteDc("dcx", socket_path=dc.listen_path)
            clients.append(first)
            baseline = first.stats()["threads"]
            for _ in range(8):
                clients.append(RemoteDc("dcx", socket_path=dc.listen_path))
            stats = clients[-1].stats()
            assert stats["connections"] >= 9
            # The tentpole: nine connections, same server thread count.
            assert stats["threads"] == baseline
        finally:
            for client in clients:
                client.close()
            dc.shutdown()

    def test_unknown_frame_kind_is_ignored(self, tmp_path):
        dc = RemoteDc(
            "dcu",
            journal_path=str(tmp_path / "dcu.journal"),
            listen_path=str(tmp_path / "dcu.sock"),
        )
        try:
            kind, seq, reply = _reply_after_unknown_kind(dc.listen_path, Hello)
            assert (kind, seq) == (rpc.REPLY, 7)
            assert isinstance(reply, StatsReply)
            assert dc.stats()["counters"].get("dcserver.bad_frames", 0) == 0
        finally:
            dc.shutdown()

    def test_interleaved_clients_stay_correct(self, tmp_path):
        """Round-robin requests across many live connections through the
        single loop; every answer stays exact."""
        dc = RemoteDc(
            "dcy",
            journal_path=str(tmp_path / "dcy.journal"),
            listen_path=str(tmp_path / "dcy.sock"),
        )
        clients = []
        try:
            dc.create_table("t")
            clients = [
                RemoteDc("dcy", socket_path=dc.listen_path) for _ in range(5)
            ]
            for round_no in range(6):
                for idx, client in enumerate(clients):
                    assert "t" in client.stats()["dc"]["tables"]
        finally:
            for client in clients:
                client.close()
            dc.shutdown()


class TestTcServerScaling:
    def _spawn(self, tmp_path, dc, max_sessions):
        sock = str(tmp_path / "tc1.sock")
        argv = [
            sys.executable, "-m", "repro", "serve-tc",
            "--listen", sock,
            "--journal", str(tmp_path / "tc1.journal"),
            "--max-sessions", str(max_sessions),
        ]
        if dc is not None:
            argv += ["--dc", f"{dc.name}={dc.listen_path}"]
        proc = subprocess.Popen(
            argv, env={**os.environ, "PYTHONPATH": "src"}
        )
        deadline = time.monotonic() + 15
        while not os.path.exists(sock) and time.monotonic() < deadline:
            time.sleep(0.02)
        return proc, sock

    def test_thread_count_flat_across_sessions(self, tmp_path):
        proc, sock = self._spawn(tmp_path, None, max_sessions=7)
        clients = []
        try:
            first = RemoteTc("tc1", tc_id=1, socket_path=sock)
            clients.append(first)
            baseline = first.stats()["threads"]
            for _ in range(6):
                clients.append(RemoteTc("tc1", tc_id=1, socket_path=sock))
            stats = clients[-1].stats()
            assert stats["connections"] == 7
            assert stats["threads"] == baseline  # O(1) in sessions
        finally:
            for client in clients:
                client.shutdown()
            assert proc.wait(timeout=15) == 0

    def test_unknown_frame_kind_is_ignored(self, tmp_path):
        proc, sock = self._spawn(tmp_path, None, max_sessions=1)
        try:
            kind, seq, reply = _reply_after_unknown_kind(sock, TcHello)
            assert (kind, seq) == (rpc.REPLY, 7)
            assert isinstance(reply, StatsReply)
        finally:
            assert proc.wait(timeout=15) == 0

    def test_concurrent_sessions_share_one_live_tc(self, tmp_path):
        """Two clients, one event loop, one journal: writes interleave
        through concurrent sessions and both observe each other's commits
        (the pre-§18 server accepted sessions strictly serially)."""
        dc = RemoteDc(
            "dc1",
            journal_path=str(tmp_path / "dc1.journal"),
            listen_path=str(tmp_path / "dc1.sock"),
        )
        proc = None
        try:
            dc.create_table("t", versioned=True)
            proc, sock = self._spawn(tmp_path, dc, max_sessions=2)
            one = RemoteTc("tc1", tc_id=1, socket_path=sock)
            two = RemoteTc("tc1", tc_id=1, socket_path=sock)
            try:
                with one.begin() as txn:
                    txn.insert("t", "from-one", 1)
                with two.begin() as txn:
                    txn.insert("t", "from-two", 2)
                assert one.read_other("t", "from-two") == 2
                assert two.read_other("t", "from-one") == 1
            finally:
                one.shutdown()
                two.shutdown()
            assert proc.wait(timeout=15) == 0
            proc = None
        finally:
            if proc is not None and proc.poll() is None:
                proc.kill()
                proc.wait()
            dc.shutdown()
