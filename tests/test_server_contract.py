"""What both servers promise a connection (docs/architecture.md §18).

The DC server and the TC server are one :class:`repro.net.server.Server`
loop under two handler tables, so every promise here is checked against
*both*, through raw connections that speak the frame protocol by hand:
a bad frame costs its sender's connection and nobody else's, the codec
upgrades per connection, ``Shutdown`` means "goodbye" from a socket and
"stop" from the parent pipe, requests are answered in arrival order even
when they land inside a dispatch, every request class has exactly one
handler, and exceptions map to replies the way the clients rely on.

The servers run on threads of the test process (they are built exactly
as :func:`dcserver.serve` / :func:`tcserver.serve` build them), so a
test can read counters and plant a handler without another protocol.
"""

from __future__ import annotations

import dataclasses
import multiprocessing as mp
import os
import threading
import time
import zlib

import pytest

pytestmark = pytest.mark.process

import repro.common.api as api
from repro.common.api import (
    ControlAck,
    EndOfStableLog,
    Message,
    OperationReply,
    PerformOperation,
)
from repro.common.errors import (
    ComponentUnavailableError,
    CrashedError,
    LockTimeoutError,
    ReproError,
)
from repro.common.ops import (
    IncrementOp,
    InsertOp,
    PromoteVersionsOp,
    RangeReadOp,
    ReadOp,
)
from repro.net import rpc, tcrpc, wire
from repro.net.dcserver import _DcServer
from repro.net.process import RemoteDc, wait_hello
from repro.net.rpc import (
    CreateTable,
    NegotiateCodec,
    RegisterTc,
    RemoteError,
    Shutdown,
    StatsReply,
    StatsRequest,
    TableList,
)
from repro.net.server import connect_any
from repro.net.tcserver import _TcServer
from tests.test_wire_fastpath import crc_framed

#: Server → client: everything else in the two vocabularies is a request
#: some client sends.
_NOT_REQUESTS = {
    rpc.Hello, rpc.ForceLogRequest, rpc.ForceLogReply, rpc.RsspHint,
    rpc.RemoteError, rpc.TableListReply, rpc.StatsReply,
    rpc.CheckpointDcLogReply,
    tcrpc.TcHello, tcrpc.TxnAck,
    tcrpc.TxnReadReply, tcrpc.TxnScanReply, tcrpc.Redirect,
    tcrpc.TcCheckpointReply,
}  # fmt: skip


def _messages_of(module) -> set:
    return {
        cls
        for cls in vars(module).values()
        if isinstance(cls, type)
        and issubclass(cls, Message)
        and cls.__module__ == module.__name__
    }


class _Running:
    """One real server on a thread: parent pipe plus a Unix listener."""

    def __init__(self, role: str, tmp_path, dcs: dict | None = None) -> None:
        self.role = role
        self.parent, child = mp.Pipe()
        listen = str(tmp_path / f"{role}.sock")
        if role == "dcserver":
            self.server = _DcServer(
                child, "dcx", None, str(tmp_path / "dcx.journal"), listen
            )
            self.hello_type = rpc.Hello
        else:
            self.server = _TcServer(
                child, "tcx", 1, None, str(tmp_path / "tcx.journal"), dcs or {},
                listen_path=listen,
            )  # fmt: skip
            self.hello_type = tcrpc.TcHello
        self.address = self.server.listen_addr
        self.thread = threading.Thread(target=self.server.run, daemon=True)
        self._connections: list = []

    def start(self) -> "_Running":
        self.thread.start()
        wait_hello(self.parent, self.hello_type, self.role, timeout=10.0)
        return self

    def connect(self):
        conn = connect_any(self.address)
        wait_hello(conn, self.hello_type, self.address, timeout=10.0)
        self._connections.append(conn)
        return conn

    def counter(self, name: str) -> int:
        return self.server._metrics.counters().get(name, 0)

    def stop(self) -> None:
        if self.thread.is_alive():
            self.parent.send_bytes(rpc.pack_frame(rpc.REQUEST, 1, Shutdown(tc_id=0)))
            self.thread.join(timeout=10)
        assert not self.thread.is_alive()
        for conn in self._connections:
            conn.close()


@pytest.fixture(params=["dcserver", "tcserver"])
def built(request, tmp_path):
    """A server that is built but not yet running (handlers may still be
    planted); ``start()`` it."""
    running = _Running(request.param, tmp_path)
    yield running
    if running.thread.ident is None:  # never started
        running.start()
    running.stop()


@pytest.fixture
def running(built):
    return built.start()


def _ask(conn, seq: int, message: Message, fast: dict | None = None) -> None:
    conn.send_bytes(rpc.pack_frame(rpc.REQUEST, seq, message, fast))


def _answer(conn) -> tuple:
    """``(first byte, kind, seq, payload)`` of the next frame."""
    assert conn.poll(10.0)
    data = conn.recv_bytes()
    return (data[0], *rpc.unpack_frame(data))


def _gone(conn) -> bool:
    """True once the server has closed ``conn``."""
    if not conn.poll(10.0):
        return False
    try:
        conn.recv_bytes()
    except (EOFError, OSError):
        return True
    return False


class TestBadFrames:
    def test_garbage_frame_drops_only_its_connection(self, running):
        bad, good = running.connect(), running.connect()
        bad.send_bytes(b"\x7fthis is not a frame")
        assert _gone(bad)
        assert running.counter(f"{running.role}.bad_frames") == 1
        _ask(good, 5, StatsRequest(tc_id=3))
        _first, kind, seq, reply = _answer(good)
        assert (kind, seq) == (rpc.REPLY, 5)
        assert isinstance(reply, StatsReply) and reply.tc_id == 3
        # The dropped connection is no longer counted; the parent pipe is.
        assert reply.payload["connections"] == 2

    def test_oversized_length_prefix_drops_only_its_connection(self, running):
        bad, good = running.connect(), running.connect()
        # A length no frame may have: rejected before any payload is read.
        os.write(bad.fileno(), b"\x7f\xff\xff\xff" + b"x" * 16)
        assert _gone(bad)
        assert running.counter("eventloop.protocol_errors") == 1
        _ask(good, 6, StatsRequest(tc_id=0))
        assert isinstance(_answer(good)[3], StatsReply)

    def test_truncated_fast_frame_is_a_bad_frame(self, running):
        bad, good = running.connect(), running.connect()
        fast = wire.negotiate(wire.fast_vocabulary())
        whole = rpc.pack_frame(rpc.REQUEST, 1, StatsRequest(tc_id=0), fast)
        bad.send_bytes(whole[:-2])  # CRC no longer matches
        assert _gone(bad)
        assert running.counter(f"{running.role}.bad_frames") == 1
        _ask(good, 7, StatsRequest(tc_id=0))
        assert isinstance(_answer(good)[3], StatsReply)


class TestFastFormFuzz:
    """CRC-valid fast frames whose payload is still wrong: the CRC cannot
    catch them, the positional decoder must."""

    @pytest.mark.parametrize(
        "shape", ["count_above_fields", "count_below_required", "unknown_id"]
    )
    def test_drops_only_its_connection(self, running, shape):
        fid = {name: fid for fid, name, _sig in wire.fast_vocabulary()}["LowWaterMark"]
        obj, num = wire._T_FOBJ, wire._T_INT
        payload = {
            # LowWaterMark has two fields (tc_id, lwm): three is one too many,
            # and tc_id has no default, so none is too few.
            "count_above_fields": (obj, fid, 3, num, 2, num, 4, num, 6),
            "count_below_required": (obj, fid, 0),
            "unknown_id": (obj, 0x7E, 1, num, 2),
        }[shape]
        bad, good = running.connect(), running.connect()
        bad.send_bytes(crc_framed(bytes((rpc.REQUEST, 1, *payload))))
        assert _gone(bad)
        assert running.counter(f"{running.role}.bad_frames") == 1
        _ask(good, 7, StatsRequest(tc_id=0))
        assert isinstance(_answer(good)[3], StatsReply)


class TestStalledReader:
    def test_a_peer_that_stops_reading_stalls_no_one(self, running):
        """One connection keeps asking and never reads, until the server
        has had to park replies for it (the write-through send's
        remainder branch); another connection is still answered at
        once, and the first, once it reads, gets every reply in order."""
        stalled, other = running.connect(), running.connect()
        sent = 0
        while running.counter("eventloop.frames_deferred") == 0:
            assert sent < 20_000, "the server never had to park a reply"
            sent += 1
            _ask(stalled, sent, StatsRequest(tc_id=sent))
        started = time.monotonic()
        _ask(other, 1, StatsRequest(tc_id=0))
        assert isinstance(_answer(other)[3], StatsReply)
        assert time.monotonic() - started < 1.0
        assert [_answer(stalled)[2] for _ in range(sent)] == list(range(1, sent + 1))


def _previous_vocabulary() -> tuple:
    """What a peer built before the count byte meant "fields that follow"
    advertises: the same ids and names, signatures over the bare field
    layout with no fast-form version folded in."""
    vocab = []
    for fid, name, _sig in wire.fast_vocabulary():
        cls = wire._FAST_BY_ID[fid]
        if dataclasses.is_dataclass(cls):
            layout = ",".join(field.name for field in dataclasses.fields(cls))
        else:
            layout = ",".join(f"{m.name}={m.value!r}" for m in cls)
        vocab.append((fid, name, zlib.crc32(layout.encode("utf-8"))))
    return tuple(vocab)


def _tagged_reply(conn, seq: int, message: Message):
    _ask(conn, seq, message)
    first, kind, got, reply = _answer(conn)
    assert first != wire.FAST_MAGIC and (kind, got) == (rpc.REPLY, seq)
    return reply


class TestVersionSkew:
    """A peer of the previous fast form negotiates nothing, so neither side
    ever sends it a frame it would misread: it degrades to tagged and
    keeps its connection."""

    def test_previous_form_negotiates_an_empty_map(self):
        assert wire.negotiate(_previous_vocabulary()) == {}

    def test_dc_server_answers_it_tagged(self, tmp_path):
        running = _Running("dcserver", tmp_path).start()
        try:
            conn = running.connect()
            upgrade = NegotiateCodec(tc_id=0, vocab=_previous_vocabulary())
            assert isinstance(_tagged_reply(conn, 1, upgrade), ControlAck)
            assert isinstance(_tagged_reply(conn, 2, RegisterTc(tc_id=5)), ControlAck)
            catalog = _tagged_reply(conn, 3, TableList(tc_id=5))
            assert isinstance(catalog, rpc.TableListReply)
        finally:
            running.stop()

    def test_tc_server_answers_it_tagged(self, tmp_path):
        dc = RemoteDc(
            "dc1",
            journal_path=str(tmp_path / "dc1.journal"),
            listen_path=str(tmp_path / "dc1.sock"),
        )
        try:
            dc.create_table("t")
            running = _Running("tcserver", tmp_path, {"dc1": dc.listen_path}).start()
            try:
                conn = running.connect()
                upgrade = NegotiateCodec(tc_id=1, vocab=_previous_vocabulary())
                assert isinstance(_tagged_reply(conn, 1, upgrade), ControlAck)
                write = tcrpc.TxnWrite(
                    tc_id=1, txn_id=-1, verb="insert", table="t", key=1, value="v"
                )
                opened = _tagged_reply(conn, 2, write)
                assert isinstance(opened, tcrpc.TxnAck) and opened.txn_id > 0
                txn_id = opened.txn_id
                read = tcrpc.TxnRead(tc_id=1, txn_id=txn_id, table="t", key=1)
                found = _tagged_reply(conn, 3, read)
                assert isinstance(found, tcrpc.TxnReadReply)
                assert (found.found, found.value) == (True, "v")
                commit = tcrpc.TxnCommit(tc_id=1, txn_id=txn_id)
                assert isinstance(_tagged_reply(conn, 4, commit), tcrpc.TxnAck)
            finally:
                running.stop()
        finally:
            dc.shutdown()


class TestCodecPerConnection:
    def test_tagged_until_negotiated(self, running):
        """Replaces the ``fast_codec=False`` knob: a peer that never
        negotiates *is* the tagged-only peer, and it interoperates with
        a server that is speaking fast frames to somebody else."""
        tagged, upgraded = running.connect(), running.connect()
        vocab = wire.fast_vocabulary()
        fast = wire.negotiate(vocab)
        _ask(upgraded, 1, NegotiateCodec(tc_id=0, vocab=vocab))
        first, _kind, seq, reply = _answer(upgraded)
        assert seq == 1 and isinstance(reply, ControlAck)
        assert first == wire.FAST_MAGIC  # on from the acknowledgement on
        for conn, magic in ((tagged, False), (upgraded, True), (tagged, False)):
            # Requests may come in either form whatever was negotiated.
            _ask(conn, 9, StatsRequest(tc_id=4), fast if magic else None)
            first, kind, seq, reply = _answer(conn)
            assert (kind, seq) == (rpc.REPLY, 9)
            assert isinstance(reply, StatsReply) and reply.tc_id == 4
            assert (first == wire.FAST_MAGIC) is magic

    def test_empty_vocabulary_negotiates_nothing(self, running):
        conn = running.connect()
        _ask(conn, 1, NegotiateCodec(tc_id=0, vocab=()))
        assert _answer(conn)[0] != wire.FAST_MAGIC
        _ask(conn, 2, StatsRequest(tc_id=0))
        assert _answer(conn)[0] != wire.FAST_MAGIC


class TestShutdown:
    def test_from_a_socket_client_closes_that_connection_only(self, running):
        leaving, staying = running.connect(), running.connect()
        _ask(leaving, 1, Shutdown(tc_id=0))
        _first, kind, seq, reply = _answer(leaving)
        assert (kind, seq) == (rpc.REPLY, 1) and isinstance(reply, ControlAck)
        assert _gone(leaving)
        assert running.thread.is_alive()
        _ask(staying, 2, StatsRequest(tc_id=0))
        assert _answer(staying)[3].payload["connections"] == 2

    def test_from_the_parent_pipe_stops_the_server(self, running):
        client = running.connect()
        _ask(running.parent, 1, Shutdown(tc_id=0))
        _first, kind, seq, reply = _answer(running.parent)
        assert (kind, seq) == (rpc.REPLY, 1) and isinstance(reply, ControlAck)
        running.thread.join(timeout=10)
        assert not running.thread.is_alive()
        assert _gone(client)

    def test_parent_eof_stops_the_server(self, running):
        running.parent.close()
        running.thread.join(timeout=10)
        assert not running.thread.is_alive()


class TestArrivalOrder:
    def test_frames_landing_inside_a_dispatch_are_served_in_order(self, built):
        """The first request's handler pumps the loop (as the DC's force
        bridge does) until the other connection's two requests have
        arrived behind it; its own connection's next request arrives
        too, in the backlog or still in the reassembly buffer."""
        server = built.server
        arrived: list = []
        served: list = []
        stats = server._handlers[StatsRequest]

        def pumping(peer, message):
            assert server._loop.pump_until(
                lambda: {m.tc_id for *_, m in server._backlog} >= {2, 4},
                timeout_s=10.0,
            )
            arrived.extend(m.tc_id for *_, m in server._backlog)
            served.append(message.tc_id)
            return ControlAck(tc_id=message.tc_id)

        def recording(peer, message):
            served.append(message.tc_id)
            return stats(peer, message)

        server._handlers[TableList] = pumping
        server._handlers[StatsRequest] = recording
        running = built.start()
        first, second = running.connect(), running.connect()
        _ask(first, 1, TableList(tc_id=1))
        _ask(first, 3, StatsRequest(tc_id=3))
        _ask(second, 2, StatsRequest(tc_id=2))
        _ask(second, 4, StatsRequest(tc_id=4))
        replies = [_answer(first), _answer(first), _answer(second), _answer(second)]
        assert [(seq, reply.tc_id) for _f, _k, seq, reply in replies] == [
            (1, 1), (3, 3), (2, 2), (4, 4),
        ]  # fmt: skip
        # Nothing was served inside the dispatch it arrived under; then
        # the backlog was served exactly as it had filled, each
        # connection's frames in their own order.
        assert arrived.index(2) < arrived.index(4)
        assert served[0] == 1 and served[1 : 1 + len(arrived)] == arrived
        assert sorted(served) == [1, 2, 3, 4]

    def test_a_burst_in_one_write_is_answered_in_order(self, running):
        conn = running.connect()
        burst = b"".join(
            len(frame).to_bytes(4, "big") + frame
            for frame in (
                rpc.pack_frame(rpc.REQUEST, seq, StatsRequest(tc_id=seq))
                for seq in range(1, 9)
            )
        )
        os.write(conn.fileno(), burst)
        assert [_answer(conn)[2] for _ in range(8)] == list(range(1, 9))


class TestHandlerTables:
    def test_every_request_class_has_exactly_one_handler(self, built):
        handlers = built.server._handlers
        base = {NegotiateCodec, StatsRequest, Shutdown}
        if built.role == "dcserver":
            expected = _messages_of(rpc) - _NOT_REQUESTS
        else:
            expected = (_messages_of(tcrpc) - _NOT_REQUESTS) | base
        assert set(handlers) == expected
        assert base <= set(handlers)
        assert all(callable(handler) for handler in handlers.values())

    def test_exact_type_lookup_equals_isinstance(self, built):
        """No handler key has a registered subclass, so ``type(m)`` finds
        what an ``isinstance`` walk would."""
        wire.registered_types()  # every Message subclass is imported
        for cls in built.server._handlers:
            assert cls.__subclasses__() == [], cls

    def test_everything_else_goes_to_the_default(self, built):
        server = built.server
        contract = _messages_of(api) - {Message}
        assert contract and not contract & set(server._handlers)
        if built.role == "dcserver":
            assert server._default == server._dc.handle
            running = built.start()
            conn = running.connect()
            _ask(conn, 1, EndOfStableLog(tc_id=7, eosl=0))
            reply = _answer(conn)[3]
            assert isinstance(reply, ControlAck) and reply.tc_id == 7
        else:
            running = built.start()
            conn = running.connect()
            _ask(conn, 1, EndOfStableLog(tc_id=7, eosl=0))
            reply = _answer(conn)[3]
            assert isinstance(reply, RemoteError) and reply.tc_id == 7
            assert reply.kind == "ReproError"
            assert "EndOfStableLog" in reply.text

    def test_retired_txn_begin_is_a_bad_frame(self, tmp_path):
        """``TxnBegin`` left the vocabulary: a peer still sending it, in
        the tagged form that names it, loses its connection like any
        other undecodable frame, and another session is still answered."""
        running = _Running("tcserver", tmp_path).start()
        try:
            bad, good = running.connect(), running.connect()
            # No class is named TxnBegin any more, so build its frame from
            # a message of the same shape (the base fields only).
            frame = rpc.pack_frame(rpc.REQUEST, 1, tcrpc.TcRetryPending(tc_id=7))
            bad.send_bytes(
                frame.replace(
                    wire._enc_str("TcRetryPending"), wire._enc_str("TxnBegin")
                )
            )
            assert _gone(bad)
            assert running.counter("tcserver.bad_frames") == 1
            _ask(good, 2, StatsRequest(tc_id=3))
            assert isinstance(_answer(good)[3], StatsReply)
        finally:
            running.stop()


class TestErrorsBecomeReplies:
    @staticmethod
    def _plant(server, exc: Exception) -> None:
        def raising(peer, message):
            raise exc

        server._handlers[TableList] = raising

    @pytest.mark.parametrize(
        "exc, silent_on",
        [
            (CrashedError("x"), {"dcserver", "tcserver"}),
            (ComponentUnavailableError("dc1"), {"dcserver"}),
            (LockTimeoutError(4, "k"), set()),
            (ReproError("boom"), set()),
        ],
        ids=lambda value: type(value).__name__ if isinstance(value, Exception) else "",
    )
    def test_mapping(self, built, exc, silent_on):
        self._plant(built.server, exc)
        running = built.start()
        conn = running.connect()
        _ask(conn, 3, TableList(tc_id=9))
        _first, kind, seq, reply = _answer(conn)
        assert (kind, seq) == (rpc.REPLY, 3)
        if built.role in silent_on:
            assert reply is None  # silence: the caller's resend policy decides
        else:
            assert isinstance(reply, RemoteError) and reply.tc_id == 9
            assert reply.kind == type(exc).__name__
            assert reply.text == str(exc)
        # Either way the connection and the server carry on.
        _ask(conn, 4, StatsRequest(tc_id=0))
        assert isinstance(_answer(conn)[3], StatsReply)

    def test_a_bug_in_a_handler_is_not_swallowed(self, built):
        """Only the library's own errors are reflected; anything else
        ends the server loudly rather than answering wrongly."""
        self._plant(built.server, KeyError("bug"))
        caught: list = []
        hook = threading.excepthook
        threading.excepthook = lambda args: caught.append(args.exc_type)
        try:
            running = built.start()
            conn = running.connect()
            _ask(conn, 1, TableList(tc_id=0))
            running.thread.join(timeout=10)
        finally:
            threading.excepthook = hook
        assert not running.thread.is_alive() and caught == [KeyError]
        assert _gone(conn)


class TestTransactionNamesAreConnectionLocal:
    """TC server only: the server's transaction id, like the client's
    handle, names a transaction on the connection that opened it and on
    no other."""

    def test_foreign_id_is_an_unknown_transaction(self, tmp_path):
        running = _Running("tcserver", tmp_path).start()
        try:
            mine, theirs = running.connect(), running.connect()
            _ask(mine, 1, tcrpc.TxnSync(tc_id=1, txn_id=-1))  # opens it
            opened = _answer(mine)[3]
            assert isinstance(opened, tcrpc.TxnAck) and opened.txn_id > 0
            for seq, request in enumerate((tcrpc.TxnCommit, tcrpc.TxnSync), 1):
                _ask(theirs, seq, request(tc_id=1, txn_id=opened.txn_id))
                refused = _answer(theirs)[3]
                assert isinstance(refused, RemoteError)
                assert "unknown transaction" in refused.text
            # An abort of a name that means nothing here is the usual
            # presumed-abort acknowledgement — and aborts nothing.
            _ask(theirs, 3, tcrpc.TxnAbort(tc_id=1, txn_id=opened.txn_id))
            assert isinstance(_answer(theirs)[3], tcrpc.TxnAck)
            _ask(theirs, 4, StatsRequest(tc_id=1))
            assert _answer(theirs)[3].payload["open_transactions"] == 1
            # The owner's transaction is untouched: its own id still works.
            _ask(mine, 2, tcrpc.TxnCommit(tc_id=1, txn_id=opened.txn_id))
            done = _answer(mine)[3]
            assert isinstance(done, tcrpc.TxnAck) and done.txn_id == opened.txn_id
            assert running.counter("tc.commits") == 1
            assert running.counter("tc.aborts") == 0
        finally:
            running.stop()


class TestWantPriorOnOperationsThatOweNothing:
    """DC server only: ``want_prior`` asks a write for the value it
    overwrote.  An insert, an increment, a read, a scan and a version
    cleanup overwrite none, so each — and its resend — gets the plain
    reply with ``prior`` None, the DC keeps nothing for the TC's low-water
    mark to prune, and the server goes on answering another session."""

    def test_plain_replies_and_nothing_kept(self, tmp_path):
        running = _Running("dcserver", tmp_path).start()
        try:
            conn, other = running.connect(), running.connect()
            seqs = iter(range(1, 100))

            def ask(message):
                seq = next(seqs)
                _ask(conn, seq, message)
                _first, kind, answered, reply = _answer(conn)
                assert (kind, answered) == (rpc.REPLY, seq)
                return reply

            assert isinstance(ask(RegisterTc(tc_id=1)), ControlAck)
            create = CreateTable(tc_id=1, name="v", versioned=True)
            assert isinstance(ask(create), ControlAck)
            owe_nothing = (
                InsertOp(table="v", key=1, value=5, versioned=True),
                IncrementOp(table="v", key=1, delta=2, versioned=True),
                ReadOp(table="v", key=1),
                RangeReadOp(table="v"),
                PromoteVersionsOp(table="v", keys=(1,)),
            )
            priors = running.server._dc.writes._priors
            for lsn, op in enumerate(owe_nothing, start=1):
                for resend in (False, True):
                    reply = ask(
                        PerformOperation(
                            tc_id=1,
                            op_id=lsn,
                            op=op,
                            resend=resend,
                            eosl=10**9,
                            want_prior=True,
                        )
                    )
                    assert isinstance(reply, OperationReply), reply
                    assert reply.result.ok, reply.result
                    assert reply.result.prior is None
                assert not priors.get(1)
            assert ask(PerformOperation(1, 9, ReadOp("v", 1))).result.value == 7
            _ask(other, 1, StatsRequest(tc_id=0))
            assert isinstance(_answer(other)[3], StatsReply)
        finally:
            running.stop()


def _push(conn, message: Message) -> None:
    conn.send_bytes(rpc.pack_frame(rpc.PUSH, 0, message))


def _open_txn(conn, seq: int, handle: int = -1) -> int:
    """Open a transaction with an empty ``TxnSync``; its server id."""
    _ask(conn, seq, tcrpc.TxnSync(tc_id=1, txn_id=handle))
    opened = _answer(conn)[3]
    assert isinstance(opened, tcrpc.TxnAck) and opened.txn_id > 0
    return opened.txn_id


def _stats(conn, seq: int) -> dict:
    _ask(conn, seq, StatsRequest(tc_id=0))
    first, kind, got, reply = _answer(conn)
    assert (kind, got) == (rpc.REPLY, seq) and isinstance(reply, StatsReply)
    return reply.payload


class TestOneWayFrames:
    """A client ``PUSH`` is served in arrival order and never answered —
    for the types its server lists as one-way, and only those: anything
    else costs the sender its connection (and so its open transactions)
    and nobody else anything."""

    def test_an_unlisted_type_drops_only_its_connection(self, running):
        bad, good = running.connect(), running.connect()
        _push(bad, StatsRequest(tc_id=0))  # one-way on neither server
        assert _gone(bad)
        assert running.counter(f"{running.role}.bad_frames") == 1
        assert _stats(good, 1)["connections"] == 2

    def test_a_decided_commit_is_served_and_not_answered(self, tmp_path):
        running = _Running("tcserver", tmp_path).start()
        try:
            conn = running.connect()
            _push(conn, tcrpc.TxnCommit(tc_id=1, txn_id=_open_txn(conn, 1)))
            # The next frame back answers the next request: the push got none.
            stats = _stats(conn, 2)
            assert stats["open_transactions"] == 0
            assert stats["counters"]["tcserver.oneway_commits"] == 1
            assert stats["counters"]["tc.commits"] == 1
            assert running.counter("tcserver.bad_frames") == 0
        finally:
            running.stop()

    def _refused(self, running, conn, other, message) -> None:
        before = _stats(other, 90)["counters"].get("tcserver.disconnect_aborts", 0)
        _push(conn, message)
        assert _gone(conn)
        assert running.counter("tcserver.bad_frames") == 1
        stats = _stats(other, 91)
        assert stats["open_transactions"] == 0
        assert stats["counters"]["tcserver.disconnect_aborts"] == before + 1
        assert stats["counters"].get("tcserver.oneway_commits", 0) == 0

    def test_a_one_way_read_is_refused(self, tmp_path):
        running = _Running("tcserver", tmp_path).start()
        try:
            conn, other = running.connect(), running.connect()
            txn_id = _open_txn(conn, 1)
            read = tcrpc.TxnRead(tc_id=1, txn_id=txn_id, table="t", key=1)
            self._refused(running, conn, other, read)
        finally:
            running.stop()

    def test_a_one_way_commit_of_an_unknown_handle_is_refused(self, tmp_path):
        running = _Running("tcserver", tmp_path).start()
        try:
            conn, other = running.connect(), running.connect()
            _open_txn(conn, 1)
            self._refused(running, conn, other, tcrpc.TxnCommit(tc_id=1, txn_id=-7))
        finally:
            running.stop()

    def test_a_one_way_commit_of_a_writer_is_refused(self, tmp_path):
        dc = RemoteDc(
            "dc1",
            journal_path=str(tmp_path / "dc1.journal"),
            listen_path=str(tmp_path / "dc1.sock"),
        )
        try:
            dc.create_table("t")
            running = _Running("tcserver", tmp_path, {"dc1": dc.listen_path}).start()
            try:
                conn, other = running.connect(), running.connect()
                write = tcrpc.TxnWrite(
                    tc_id=1, txn_id=-1, verb="insert", table="t", key=1, value="v"
                )
                _ask(conn, 1, write)
                opened = _answer(conn)[3]
                assert isinstance(opened, tcrpc.TxnAck) and opened.txn_id > 0
                commit = tcrpc.TxnCommit(tc_id=1, txn_id=opened.txn_id)
                self._refused(running, conn, other, commit)
                _ask(other, 92, tcrpc.TxnRead(tc_id=1, txn_id=-1, table="t", key=1))
                assert _answer(other)[3].found is False  # rolled back
            finally:
                running.stop()
        finally:
            dc.shutdown()


class TestAbandonedHandshake:
    """Hello read, half a frame sent, then silence: the server waits for
    the rest without holding anyone else up, and when the peer goes the
    transaction it had opened goes with it."""

    def test_half_a_frame_then_silence_stalls_no_one(self, running):
        abandoned, other = running.connect(), running.connect()
        tc = running.role == "tcserver"
        if tc:
            _open_txn(abandoned, 1)
        upgrade = rpc.pack_frame(
            rpc.REQUEST, 2, NegotiateCodec(tc_id=0, vocab=wire.fast_vocabulary())
        )
        whole = len(upgrade).to_bytes(4, "big") + upgrade
        os.write(abandoned.fileno(), whole[: len(whole) // 2])
        started = time.monotonic()
        stats = _stats(other, 1)
        assert time.monotonic() - started < 1.0
        assert stats["connections"] == 3  # the parent pipe and both peers
        if tc:
            assert stats["open_transactions"] == 1
        abandoned.close()
        deadline = time.monotonic() + 10.0
        while _stats(other, 2)["connections"] != 2:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        if tc:
            assert _stats(other, 3)["open_transactions"] == 0
        assert running.counter(f"{running.role}.bad_frames") == 0


class TestStaleHandles:
    """Handles below the ``_Session`` floor and in its straggler set have
    been used: naming one again reaches nothing and opens nothing, and a
    one-way commit of one costs its sender the connection."""

    def test_used_handles_name_nothing(self, tmp_path):
        running = _Running("tcserver", tmp_path).start()
        try:
            conn, other = running.connect(), running.connect()
            seqs = iter(range(1, 100))
            ids = {}
            for handle in (1, 2, 5):
                ids[handle] = _open_txn(conn, next(seqs), -handle)
                _ask(conn, next(seqs), tcrpc.TxnCommit(tc_id=1, txn_id=-handle))
                assert isinstance(_answer(conn)[3], tcrpc.TxnAck)
            (session,) = running.server._sessions.values()
            assert (session.floor, session.above) == (2, {5})
            stale = (-1, -2, -5, 0, ids[1], ids[5])
            for name in stale:
                for request in (tcrpc.TxnSync, tcrpc.TxnCommit):
                    _ask(conn, next(seqs), request(tc_id=1, txn_id=name))
                    refused = _answer(conn)[3]
                    assert isinstance(refused, RemoteError), (name, refused)
                    assert "unknown transaction" in refused.text
                _ask(conn, next(seqs), tcrpc.TxnAbort(tc_id=1, txn_id=name))
                assert isinstance(_answer(conn)[3], tcrpc.TxnAck)  # presumed abort
            assert _stats(conn, next(seqs))["open_transactions"] == 0
            # The gap below the straggler was never used: it still opens.
            _open_txn(conn, next(seqs), -3)
            assert (session.floor, session.above) == (3, {5})
            _push(conn, tcrpc.TxnCommit(tc_id=1, txn_id=-5))
            assert _gone(conn)
            assert running.counter("tcserver.bad_frames") == 1
            stats = _stats(other, 1)
            assert stats["open_transactions"] == 0
            assert stats["counters"]["tcserver.disconnect_aborts"] == 1
            assert stats["counters"]["tc.commits"] == 3
        finally:
            running.stop()
