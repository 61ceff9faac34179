"""The server core with no fd (docs/architecture.md §18).

:class:`repro.net.server.Server` is split where I/O begins: frame bytes
go in through ``on_frame``, frames come out through each connection's
``send_frame``, and the core reaches its driver through four calls only
(``close_peer``, ``pump_until``, ``stop``, ``peer_count``).  So both real
cores — :class:`_DcServer` and :class:`_TcServer` — are driven here over
fake connections and a fake driver: no socket, no pipe, no thread.  The
same promises over real fds are ``tests/test_server_contract.py``'s.
"""

from __future__ import annotations

import pytest

from repro.common.api import OperationReply, PerformOperation
from repro.common.config import DcConfig
from repro.common.errors import ReproError
from repro.common.ops import InsertOp
from repro.dc.data_component import DataComponent
from repro.net import rpc
from repro.net.dcserver import _DcServer
from repro.net.rpc import (
    CreateTable,
    ForceLogReply,
    ForceLogRequest,
    Hello,
    RegisterTc,
    StatsReply,
    StatsRequest,
    TableList,
)
from repro.net.tcrpc import TcHello, TxnAck, TxnCommit, TxnRead, TxnReadReply, TxnSync
from repro.net.tcserver import _TcServer


class FakePeer:
    """A connection as the core sees it: ``send_frame`` and ``closed``."""

    def __init__(self) -> None:
        self.closed = False
        #: Every frame sent, decoded: ``(kind, seq, message)``.
        self.sent: list[tuple] = []

    def send_frame(self, data: bytes) -> None:
        if self.closed:
            raise BrokenPipeError("closed")
        self.sent.append(rpc.unpack_frame(data))


class FakeDriver:
    """The four calls a core makes of its driver, over fake peers.

    ``during_pump`` holds steps a pump runs, one at a time, until its
    predicate holds: what would arrive on the wire while a handler waits.
    """

    def __init__(self, core) -> None:
        self.core = core
        core.driver = self
        self.peers: list[FakePeer] = []
        self.stopped = False
        self.pumps = 0
        self.during_pump: list = []

    def connect(self, parent: bool = False) -> FakePeer:
        peer = FakePeer()
        self.peers.append(peer)
        self.core.connect(peer, parent)
        return peer

    def feed(self, peer: FakePeer, kind: int, seq: int, message) -> None:
        self.core.on_frame(peer, rpc.pack_frame(kind, seq, message))

    def ask(self, peer: FakePeer, seq: int, message):
        """Feed one request; its reply (the last frame ``peer`` got)."""
        self.feed(peer, rpc.REQUEST, seq, message)
        kind, got_seq, reply = peer.sent[-1]
        assert (kind, got_seq) == (rpc.REPLY, seq)
        return reply

    # -- what the core calls --------------------------------------------------

    def close_peer(self, peer: FakePeer) -> None:
        if not peer.closed:
            peer.closed = True
            self.peers.remove(peer)
            self.core.on_close(peer)

    def pump_until(self, predicate, timeout_s=None) -> bool:
        self.pumps += 1
        while not predicate() and self.during_pump:
            self.during_pump.pop(0)()
        return predicate()

    def stop(self) -> None:
        self.stopped = True

    def peer_count(self) -> int:
        return len(self.peers)


@pytest.fixture
def dc_core(tmp_path):
    core = _DcServer("dcx", DcConfig(page_size=512), str(tmp_path / "dcx.journal"))
    yield core
    core.close()


@pytest.fixture
def tc_core(tmp_path):
    """A TC core over an in-process DC holding table ``t``."""
    core = _TcServer("tcx", 1, None, str(tmp_path / "tcx.journal"), {})
    dc = DataComponent("dc1")
    dc.create_table("t")
    core._tc.attach_dc(dc)
    yield core
    core.close()


@pytest.fixture(params=["dcserver", "tcserver"])
def core(request):
    name = "dc_core" if request.param == "dcserver" else "tc_core"
    return request.getfixturevalue(name)


def _bad_frames(core) -> int:
    return core._metrics.counters().get(f"{core.role}.bad_frames", 0)


class TestConnections:
    def test_hello_on_connect(self, core):
        driver = FakeDriver(core)
        peer = driver.connect()
        ((kind, seq, hello),) = peer.sent
        assert (kind, seq) == (rpc.PUSH, 0)
        assert type(hello) is (Hello if core.role == "dcserver" else TcHello)

    def test_stats_request_through_a_fake_connection(self, core):
        driver = FakeDriver(core)
        peer, _other = driver.connect(), driver.connect()
        reply = driver.ask(peer, 7, StatsRequest(tc_id=3))
        assert isinstance(reply, StatsReply) and reply.tc_id == 3
        assert reply.payload["connections"] == 2
        assert "counters" in reply.payload and "pid" in reply.payload

    def test_each_reply_carries_its_request_seq(self, core):
        driver = FakeDriver(core)
        peer = driver.connect()
        for seq in (9, 2, 5):
            driver.feed(peer, rpc.REQUEST, seq, StatsRequest(tc_id=seq))
        replies = peer.sent[1:]
        assert [(kind, seq) for kind, seq, _ in replies] == [
            (rpc.REPLY, 9), (rpc.REPLY, 2), (rpc.REPLY, 5),
        ]  # fmt: skip
        assert [reply.tc_id for *_, reply in replies] == [9, 2, 5]

    def test_garbage_drops_only_its_own_connection(self, core):
        driver = FakeDriver(core)
        bad, good = driver.connect(), driver.connect()
        core.on_frame(bad, b"\x00 not a frame")
        assert bad.closed and not good.closed
        assert _bad_frames(core) == 1
        assert driver.ask(good, 1, StatsRequest(tc_id=0)).payload["connections"] == 1
        assert not driver.stopped

    def test_a_refused_one_way_frame_drops_only_its_connection(self, core):
        """``StatsRequest`` is one-way on neither server."""
        driver = FakeDriver(core)
        bad, good = driver.connect(), driver.connect()
        driver.feed(bad, rpc.PUSH, 0, StatsRequest(tc_id=0))
        assert bad.closed and len(bad.sent) == 1  # the hello, no reply
        assert not good.closed and _bad_frames(core) == 1
        assert isinstance(driver.ask(good, 1, StatsRequest(tc_id=0)), StatsReply)

    def test_parent_eof_stops_the_server_a_client_eof_does_not(self, core):
        driver = FakeDriver(core)
        parent, client = driver.connect(parent=True), driver.connect()
        driver.close_peer(client)
        assert not driver.stopped
        driver.close_peer(parent)
        assert driver.stopped

    def test_shutdown_from_the_parent_stops_from_a_client_closes(self, core):
        driver = FakeDriver(core)
        parent, client = driver.connect(parent=True), driver.connect()
        driver.ask(client, 1, rpc.Shutdown(tc_id=0))
        assert client.closed and not driver.stopped
        driver.ask(parent, 2, rpc.Shutdown(tc_id=0))
        assert driver.stopped and not parent.closed  # the driver closes it


class TestArrivalOrder:
    def test_requests_fed_during_a_pump_are_served_after_it_in_order(self, core):
        """A handler that pumps the driver (as the DC's force bridge
        does) sees the requests that arrive meanwhile only in the
        backlog; they are served once it returns, in arrival order."""
        driver = FakeDriver(core)
        first, second = driver.connect(), driver.connect()
        served: list = []
        stats = core._handlers[StatsRequest]

        def pumping(peer, message):
            assert driver.pump_until(lambda: len(core._backlog) == 3)
            assert served == []  # nothing ran inside this dispatch
            served.append(message.tc_id)
            return stats(peer, message)

        def recording(peer, message):
            served.append(message.tc_id)
            return stats(peer, message)

        core._handlers[TableList] = pumping
        core._handlers[StatsRequest] = recording
        driver.during_pump = [
            lambda: driver.feed(second, rpc.REQUEST, 2, StatsRequest(tc_id=2)),
            lambda: driver.feed(first, rpc.REQUEST, 3, StatsRequest(tc_id=3)),
            lambda: driver.feed(second, rpc.REQUEST, 4, StatsRequest(tc_id=4)),
        ]
        driver.feed(first, rpc.REQUEST, 1, TableList(tc_id=1))
        assert served == [1, 2, 3, 4] and not core._backlog
        assert [seq for _k, seq, _m in first.sent[1:]] == [1, 3]
        assert [seq for _k, seq, _m in second.sent[1:]] == [2, 4]


class TestForceBridge:
    def test_the_force_goes_out_and_the_reply_fed_in_the_pump_completes_it(
        self, dc_core
    ):
        """Inserts of TC 1's unforced operations split a page; the split
        needs TC 1's log forced, so the core sends ``ForceLogRequest`` on
        the connection that registered TC 1 and pumps until the
        ``CLIENT_REPLY`` fed during the pump arrives."""
        driver = FakeDriver(dc_core)
        tc = driver.connect()
        driver.ask(tc, 1, RegisterTc(tc_id=1))
        driver.ask(tc, 2, CreateTable(tc_id=1, name="t"))

        def answer_the_force() -> None:
            kind, seq, request = tc.sent[-1]
            assert kind == rpc.SERVER_REQUEST and isinstance(request, ForceLogRequest)
            reply = ForceLogReply(tc_id=1, eosl=request.lsn)
            driver.feed(tc, rpc.CLIENT_REPLY, seq, reply)

        lsn = 0
        while not driver.pumps:
            lsn += 1
            driver.during_pump = [answer_the_force]
            insert = PerformOperation(
                tc_id=1, op_id=lsn, op=InsertOp(table="t", key=lsn, value="v" * 40)
            )
            reply = driver.ask(tc, 100 + lsn, insert)
            assert isinstance(reply, OperationReply) and reply.result.ok, lsn
            assert lsn < 200, "no split ever needed the TC's log"
        assert driver.pumps == 1 and driver.during_pump == []
        forces = [m for k, _s, m in tc.sent if k == rpc.SERVER_REQUEST]
        assert len(forces) == 1 and forces[0].tc_id == 1
        assert dc_core._metrics.get("dc.log_force_prompts") == 1

    def test_a_bridge_whose_connection_is_gone_fails_the_split_not_the_server(
        self, dc_core
    ):
        """The registering connection closes during the pump: the bridge
        raises ``CrashedError``, so the operation that split is answered
        with silence (a lost reply the TC resends) and nothing else ends."""
        driver = FakeDriver(dc_core)
        tc, other = driver.connect(), driver.connect()
        driver.ask(tc, 1, RegisterTc(tc_id=1))
        driver.ask(other, 1, CreateTable(tc_id=1, name="t"))
        lsn = 0
        while not driver.pumps:
            lsn += 1
            driver.during_pump = [lambda: driver.close_peer(tc)]
            insert = PerformOperation(
                tc_id=1, op_id=lsn, op=InsertOp(table="t", key=lsn, value="v" * 40)
            )
            driver.feed(other, rpc.REQUEST, lsn, insert)
            assert lsn < 200, "no split ever needed the TC's log"
        assert tc.closed and not other.closed and not driver.stopped
        kind, seq, reply = other.sent[-1]
        assert (kind, seq, reply) == (rpc.REPLY, lsn, None)
        assert isinstance(driver.ask(other, 999, StatsRequest(tc_id=0)), StatsReply)


class TestTcSessions:
    def test_a_disconnect_aborts_the_open_transactions(self, tc_core):
        driver = FakeDriver(tc_core)
        client, watcher = driver.connect(), driver.connect()
        read = driver.ask(client, 1, TxnRead(tc_id=1, txn_id=-1, table="t", key="k"))
        assert isinstance(read, TxnReadReply) and not read.found
        assert tc_core._tc.locks.locks_held(read.txn_id) >= 1
        driver.close_peer(client)
        assert tc_core._metrics.get("tcserver.disconnect_aborts") == 1
        assert tc_core._tc.locks.locks_held(read.txn_id) == 0
        stats = driver.ask(watcher, 1, StatsRequest(tc_id=0)).payload
        assert stats["open_transactions"] == 0 and not driver.stopped

    def test_a_one_way_commit_that_fails_is_counted_and_aborted(
        self, tc_core, monkeypatch
    ):
        """Nobody waits for a one-way commit, so one that raises ends its
        transaction here: counted, aborted, locks released, and the
        connection stays open."""
        driver = FakeDriver(tc_core)
        client = driver.connect()
        read = driver.ask(client, 1, TxnRead(tc_id=1, txn_id=-1, table="t", key="k"))
        txn = tc_core._txns[read.txn_id]
        assert tc_core._tc.locks.locks_held(txn.txn_id) >= 1

        def veto(txn):
            raise ReproError("validation refused")

        monkeypatch.setattr(tc_core._tc.cc, "validate", veto)
        driver.feed(client, rpc.PUSH, 0, TxnCommit(tc_id=1, txn_id=-1))
        assert len(client.sent) == 2  # hello and the read's reply: no answer
        assert tc_core._metrics.get("tcserver.oneway_failures") == 1
        assert tc_core._metrics.get("tcserver.oneway_commits") == 0
        assert txn.state.name == "ABORTED"
        assert tc_core._tc.locks.locks_held(txn.txn_id) == 0
        assert not client.closed and _bad_frames(tc_core) == 0
        ack = driver.ask(client, 2, TxnSync(tc_id=1, txn_id=-2))
        assert isinstance(ack, TxnAck)
        stats = driver.ask(client, 3, StatsRequest(tc_id=0)).payload
        assert stats["open_transactions"] == 1


def test_the_cores_hold_no_fd_machinery():
    """The split's promise, checked on the source: no ``select`` in the
    modules that define the cores, and no core class builds a loop or
    binds a listener (that is :func:`repro.net.server.serve`'s job)."""
    import inspect

    from repro.net import dcserver, server, tcserver

    for module in (server, dcserver, tcserver):
        assert "import select" not in inspect.getsource(module), module
    for cls in (server.Server, _DcServer, _TcServer):
        source = inspect.getsource(cls)
        assert "EventLoop(" not in source and "bind_listener" not in source, cls
