"""A read-only commit the TC has already decided leaves one-way
(docs/architecture.md §16).

Under strict 2PL a transaction that wrote nothing is decided once its
last read is answered: its commit logs nothing, forces nothing and
cannot fail.  The TC server says so in its hello, and the client then
sends that ``TxnCommit`` as a ``PUSH`` frame nothing answers.  These
tests hold the client to its side of the bargain: no reply is awaited,
the locks are gone before the connection's next request is served, a
commit that *can* fail (OCC, MVCC, any transaction that wrote) still
asks, and a push into a dead server is the outcome presumed abort
already gives.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import pytest

pytestmark = pytest.mark.process

import repro.net.transport
from repro.cloud.router import TcServiceDeployment
from repro.common.config import TcConfig
from repro.common.errors import CrashedError, ReproError, TransactionAborted
from repro.net import wire
from repro.net.tcclient import RemoteTc
from repro.net.tcrpc import TcHello
from repro.net.server import serve
from repro.net.tcserver import _TcServer
from repro.sim.supervisor import Supervisor
from repro.tc.transactional_component import TransactionState


def _service(cc: str = "2pl") -> TcServiceDeployment:
    dep = TcServiceDeployment(
        tc_count=1, dc_count=1, tc_config=TcConfig.optimized(cc_policy=cc)
    )
    dep.create_table("t")
    return dep


def _watch(tc: RemoteTc) -> dict:
    """Record what the handle sends: requests awaited (``call``) and
    one-way frames (``push``), by message type."""
    sent: dict = {"call": [], "push": []}
    call, push = tc.call, tc._transport.push

    def calling(message, *args, **kwargs):
        sent["call"].append(type(message).__name__)
        return call(message, *args, **kwargs)

    def pushing(message):
        sent["push"].append(type(message).__name__)
        return push(message)

    tc.call = calling  # instance attributes shadow the methods
    tc._transport.push = pushing
    return sent


def _counters(tc: RemoteTc) -> dict:
    return tc.stats()["counters"]


class TestDecidedUnder2pl:
    def test_commit_awaits_no_reply_and_is_served_in_order(self):
        with _service() as dep:
            tc = dep.tcs["tc1"]
            assert tc.read_only_commit_decided
            with tc.begin() as txn:
                txn.insert("t", "k", 1)
            before = _counters(tc)
            sent = _watch(tc)
            reader = tc.begin()
            assert reader.read("t", "k") == 1
            reader.commit()
            assert reader.state is TransactionState.COMMITTED
            assert sent == {"call": ["TxnRead"], "push": ["TxnCommit"]}
            # The next request on the connection is served after the push.
            after = _counters(tc)
            assert after["tc.commits"] == before["tc.commits"] + 1
            assert after["tcserver.oneway_commits"] == 1
            assert after.get("tcserver.oneway_failures", 0) == 0
            assert tc.stats()["open_transactions"] == 0

    def test_update_after_the_push_takes_the_x_lock_without_waiting(self):
        with _service() as dep:
            tc = dep.tcs["tc1"]
            with tc.begin() as txn:
                txn.insert("t", "k", 1)
            waits = _counters(tc).get("locks.waits", 0)
            with tc.begin() as reader:
                assert reader.read("t", "k") == 1  # S lock, released one-way
            started = time.monotonic()
            with tc.begin() as writer:
                writer.update("t", "k", 2)
            assert time.monotonic() - started < 1.0
            assert _counters(tc).get("locks.waits", 0) == waits
            assert tc.read_other("t", "k") == 2

    def test_a_transaction_that_wrote_still_asks(self):
        with _service() as dep:
            tc = dep.tcs["tc1"]
            sent = _watch(tc)
            txn = tc.begin()
            txn.insert("t", "k", 1, deferred=True)
            assert txn.read("t", "k") == 1
            txn.commit()
            assert sent == {"call": ["TxnRead", "TxnCommit"], "push": []}
            assert tc.read_other("t", "k") == 1

    def test_a_handle_without_the_server_id_still_asks(self):
        """Only a reply teaches the server's id, and only an id the
        server gave out is committed one-way: a read that failed left
        the transaction open under the client's handle."""
        with _service() as dep:
            tc = dep.tcs["tc1"]
            sent = _watch(tc)
            txn = tc.begin()
            with pytest.raises(ReproError, match="no DC hosts table"):
                txn.read("missing", "k")
            assert txn.txn_id < 0 and txn.state is TransactionState.ACTIVE
            txn.commit()
            assert sent == {"call": ["TxnRead", "TxnCommit"], "push": []}
            assert tc.stats()["open_transactions"] == 0


class TestNotDecided:
    @staticmethod
    def _stale_read_commit_raises(tc: RemoteTc) -> bool:
        """A reader whose key another transaction rewrites and commits
        before the reader commits: True when ``commit()`` says aborted."""
        with tc.begin() as txn:
            txn.insert("t", "k", 1)
        reader = tc.begin()
        assert reader.read("t", "k") == 1
        with tc.begin() as writer:  # OCC / MVCC reads hold no lock
            writer.update("t", "k", 2)
        try:
            reader.commit()
        except TransactionAborted:
            return True
        return False

    @pytest.mark.parametrize("cc", ["occ", "mvcc"])
    def test_a_stale_read_still_aborts_the_commit(self, cc):
        with _service(cc) as dep:
            tc = dep.tcs["tc1"]
            assert not tc.read_only_commit_decided
            sent = _watch(tc)
            assert self._stale_read_commit_raises(tc)
            assert sent["push"] == [] and sent["call"].count("TxnCommit") == 3
            assert tc.stats()["open_transactions"] == 0

    @pytest.mark.parametrize("cc", ["occ", "mvcc"])
    def test_the_check_above_fails_with_the_flag_forced_on(self, cc):
        """The control: a client that pushes anyway is told nothing, so
        the validation failure never reaches it.  (The server refuses
        the frame and drops the connection, which aborts the reader;
        here that connection is the spawning parent's pipe, so the
        server stops.)"""
        with _service(cc) as dep:
            tc = dep.tcs["tc1"]
            tc.read_only_commit_decided = True
            assert not self._stale_read_commit_raises(tc)


class TestOlderServer:
    def test_a_hello_without_the_field_keeps_the_round_trip(
        self, tmp_path, monkeypatch
    ):
        """A server on a thread of this process encodes its hello with
        the field left out — the layout of a server built before it —
        and the client that reads it keeps asking for its commits."""
        wire.registered_types()  # bootstrap before re-shaping one layout
        old = tuple(
            name for name in wire._FIELDS[TcHello] if name != "read_only_commit_decided"
        )
        head = bytearray([wire._T_OBJ]) + wire._enc_str("TcHello")
        wire._put_uvarint(head, len(old))
        monkeypatch.setitem(wire._FIELDS, TcHello, old)
        monkeypatch.setitem(wire._OBJ_HEAD, TcHello, bytes(head))
        monkeypatch.setitem(
            wire._FIELD_HEAD, TcHello, tuple(wire._enc_str(name) for name in old)
        )
        hello = TcHello(tc_id=1, read_only_commit_decided=True)
        assert b"read_only_commit_decided" not in wire.encode(hello)
        assert not wire.decode(wire.encode(hello)).read_only_commit_decided

        listen = str(tmp_path / "tc.sock")
        server = _TcServer(
            "tcx", 1, None, str(tmp_path / "tc.journal"), {}, max_sessions=1
        )
        thread = threading.Thread(
            target=serve, args=(server, None, listen), daemon=True
        )
        thread.start()
        tc = RemoteTc("tcx", 1, socket_path=listen)
        try:
            assert server._decided and not tc.read_only_commit_decided
            sent = _watch(tc)
            txn = tc.begin()
            txn.sync()  # opens it; the reply teaches the server's id
            txn.commit()
            assert sent == {"call": ["TxnSync", "TxnCommit"], "push": []}
            assert _counters(tc)["tc.commits"] == 1
        finally:
            tc.close()
            thread.join(timeout=10)
        assert not thread.is_alive()


class TestPushIntoADeadServer:
    def test_commit_returns_and_the_next_call_sees_the_crash(self, monkeypatch):
        # Keep the idle watcher away from the fd, or it reads the EOF
        # first and the push never meets the dead peer.
        monkeypatch.setattr(repro.net.transport, "_IDLE_WATCH_S", 30.0)
        with _service() as dep:
            tc = dep.tcs["tc1"]
            with tc.begin() as txn:
                txn.insert("t", "k", 1)
            reader = tc.begin()
            assert reader.read("t", "k") == 1
            process = tc._process
            os.kill(process.pid, signal.SIGKILL)
            process.join(10.0)
            assert not process.alive
            reader.commit()  # presumed abort: the same outcome
            assert reader.state is TransactionState.COMMITTED
            with pytest.raises(CrashedError):
                tc.begin().read("t", "k")
            assert tc.crashed
            supervisor = Supervisor()
            supervisor.watch_deployment(dep)
            supervisor.heal()
            assert not tc.crashed
            assert tc.stats()["open_transactions"] == 0
            with tc.begin() as txn:
                assert txn.read("t", "k") == 1
