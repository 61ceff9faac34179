"""The DC server: one data component living in its own OS process.

:func:`serve` is the child-process entry point.  It opens (and replays)
the DC's journal volume, builds an ordinary
:class:`~repro.dc.data_component.DataComponent` on top, announces itself
with a :class:`~repro.net.rpc.Hello` push, then serves every connection
through one :class:`~repro.net.eventloop.EventLoop`:

- §4.2.1 data/control messages (``PerformOperation``, ``BatchedPerform``,
  EOSL/LWM/checkpoint/restart traffic) dispatch to ``dc.handle`` exactly
  as the in-process transport would;
- the small control plane of :mod:`repro.net.rpc` (register, catalog,
  stats, shutdown) is served here;
- the **causality gate** is bridged: when a DC system transaction needs
  the TC log forced (Section 4.2.2), the server sends a
  ``SERVER_REQUEST`` ``ForceLogRequest`` on the connection that
  registered that TC and *pumps the event loop* until the matching
  ``CLIENT_REPLY`` arrives — request frames that land meanwhile (on any
  connection) backlog in arrival order, while reads, writes and accepts
  on every other connection keep flowing.

**Connections.**  The parent pipe is always served.  With ``listen_path``
set, the server additionally binds a Unix-domain or TCP listener and
serves every accepted connection through the same loop — this is how TC
*server* processes (docs/architecture.md §16) share one DC process as a
pool.  One DC, many TCs, one event loop — Section 6's multi-TC sharing
made out-of-process, with the server's thread count O(1) in the number
of clients.

Single-threadedness is deliberate: one DC process is one core's worth of
DC work (the scale-out unit is the *process*), and it keeps the server's
view of request order identical to arrival order.  Parallelism comes from
running many DC processes, which is the point of the deployment mode.

If the parent dies (EOF on the pipe), the server exits; EOF on an
accepted connection just drops that client (a kill -9'd TC must not take
the shared DC down with it).  A malformed frame likewise drops only the
connection that sent it.  If the parent SIGKILLs the server, the
journal's flushed frames survive in the OS page cache and the next
:func:`serve` on the same path replays them — the real-death analogue of
the in-memory store's crash separation.
"""

from __future__ import annotations

import itertools
import os
import socket
import threading
from collections import deque
from multiprocessing.connection import Connection
from typing import Optional

from repro.common.api import ControlAck, Message
from repro.common.config import DcConfig
from repro.common.errors import CrashedError, ReproError
from repro.dc.data_component import DataComponent
from repro.net import rpc, wire
from repro.net.eventloop import EventLoop, Peer
from repro.net.journal import JournalStorage
from repro.net.rpc import (
    CheckpointDcLog,
    CheckpointDcLogReply,
    CreateTable,
    ForceLogReply,
    ForceLogRequest,
    Hello,
    NegotiateCodec,
    RegisterTc,
    RemoteError,
    RsspHint,
    Shutdown,
    StatsReply,
    StatsRequest,
    TableList,
    TableListReply,
)


def bind_unix_listener(path: str) -> socket.socket:
    """Bind a Unix-domain listener, replacing any stale socket file.

    A kill -9'd server leaves its socket path behind; the respawned server
    must be able to re-bind the same address so clients reconnect without
    renegotiating paths.
    """
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    listener.bind(path)
    listener.listen(16)
    return listener


def bind_listener(address: str) -> tuple[socket.socket, str]:
    """Bind a listener for ``tcp://host:port`` or a Unix socket path.

    Returns ``(listener, resolved_address)``: a TCP bind on port 0 picks
    an ephemeral port, and the resolved address (quoted back to clients
    in the Hello) carries the concrete one.  ``SO_REUSEADDR`` lets a
    respawned server re-bind the same port after a kill -9, the same
    contract :func:`bind_unix_listener` gives via unlink-and-rebind.
    """
    if address.startswith("tcp://"):
        host, _, port = address[len("tcp://"):].rpartition(":")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host or "127.0.0.1", int(port)))
        listener.listen(16)
        bound_host, bound_port = listener.getsockname()[:2]
        return listener, f"tcp://{bound_host}:{bound_port}"
    return bind_unix_listener(address), address


def connect_unix(path: str) -> Connection:
    """Connect to a server socket, framed like a ``multiprocessing`` pipe."""
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        sock.connect(path)
    except OSError:
        sock.close()  # callers retry; do not leave the fd to the collector
        raise
    return Connection(sock.detach())


def connect_any(address: str) -> Connection:
    """Connect to ``tcp://host:port`` or a Unix socket path.

    TCP connections set ``TCP_NODELAY``: the transport already coalesces
    frames application-side, so Nagle buying latency for nothing is the
    wrong trade on this data plane.
    """
    if address.startswith("tcp://"):
        host, _, port = address[len("tcp://"):].rpartition(":")
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.connect((host or "127.0.0.1", int(port)))
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            sock.close()
            raise
        return Connection(sock.detach())
    return connect_unix(address)


class _DcServer:
    def __init__(
        self,
        conn,
        name: str,
        config: Optional[DcConfig],
        journal_path: str,
        listen_path: str = "",
        fast_codec: bool = True,
    ):
        self._parent_conn = conn
        #: Advertise (and accept) the fast-path codec.  Off simulates a
        #: tagged-only peer: the server then encodes tagged and never
        #: enables fast replies, but still *decodes* fast frames — the
        #: decoder is version-bound, not knob-bound.
        self._fast_ok = fast_codec
        #: Per-connection negotiated encode maps (empty until that client
        #: sends NegotiateCodec); replies to a tagged-only client stay
        #: tagged forever.
        self._fast: dict[Peer, dict] = {}
        self._scratch = bytearray()
        self._storage = JournalStorage(journal_path)
        self._dc = DataComponent(
            name, config=config, metrics=self._storage.metrics, storage=self._storage
        )
        self._recovered = False
        if self._storage.replayed:
            # A previous incarnation wrote this volume: rebuild structures
            # from the stable catalog before accepting any traffic.  The
            # TC-side redo prompt is driven by the client after reconnect.
            self._dc.recover(notify_tcs=False)
            self._recovered = True
        self._loop = EventLoop(self._dc.metrics)
        #: Which peer registered each TC (the force-log bridge target).
        self._tc_peers: dict[int, Peer] = {}
        #: seq -> reply box for force bridges pumping inside the loop.
        self._force_boxes: dict[int, list] = {}
        #: Frames decoded but not yet dispatched: everything delivered
        #: while a dispatch (or a force bridge pumping inside one) is on
        #: the stack lands here and is served strictly in arrival order.
        self._backlog: deque = deque()
        self._dispatching = False
        self._listener: Optional[socket.socket] = None
        self.listen_addr = ""
        if listen_path:
            self._listener, self.listen_addr = bind_listener(listen_path)
        self._sreq_seq = itertools.count(1)
        self._parent_peer = self._loop.adopt(
            conn, self._on_frame, self._on_parent_close
        )
        if self._listener is not None:
            self._loop.add_listener(self._listener, self._on_accept)

    # -- framing ------------------------------------------------------------

    def _send(self, peer: Peer, kind: int, seq: int, payload: object) -> None:
        peer.send_frame(
            rpc.pack_frame(kind, seq, payload, self._fast.get(peer), self._scratch)
        )

    # -- the causality-gate bridge -----------------------------------------

    def _force_bridge(self, tc_id: int):
        def force(lsn):
            # Looked up at call time: a re-registered TC (respawned
            # process, new connection) re-aims the bridge automatically.
            peer = self._tc_peers.get(tc_id)
            if peer is None or peer.closed:
                raise CrashedError(f"TC {tc_id} force-log channel")
            seq = next(self._sreq_seq)
            box: list = []
            self._force_boxes[seq] = box
            try:
                try:
                    self._send(
                        peer,
                        rpc.SERVER_REQUEST,
                        seq,
                        ForceLogRequest(tc_id=tc_id, lsn=lsn),
                    )
                except (BrokenPipeError, OSError):
                    raise CrashedError(f"TC {tc_id} force-log channel")
                # The event-loop-scheduled wait: every other connection
                # keeps being served (their requests backlog in arrival
                # order); a dead TC surfaces as EOF -> peer.closed.
                self._loop.pump_until(lambda: bool(box) or peer.closed)
                if not box:
                    raise CrashedError(f"TC {tc_id} force-log channel")
                payload = box[0]
                if isinstance(payload, ForceLogReply):
                    return payload.eosl
                return lsn
            finally:
                self._force_boxes.pop(seq, None)

        return force

    def _push_hint(self, dc_name: str, lsn: int) -> None:
        # Spontaneous-stability hints go to every connection that holds a
        # registration (the parent, if none do) — each client fans the
        # hint out to its own registrations.
        targets = set(self._tc_peers.values()) or {self._parent_peer}
        for peer in targets:
            if peer.closed:
                continue
            try:
                self._send(
                    peer, rpc.PUSH, 0, RsspHint(tc_id=0, dc_name=dc_name, lsn=lsn)
                )
            except (BrokenPipeError, OSError):
                self._loop.close_peer(peer)

    # -- connection lifecycle ----------------------------------------------

    def _on_accept(self, sock: socket.socket) -> None:
        peer = self._loop.adopt(sock, self._on_frame, self._on_peer_close)
        try:
            self._send(peer, rpc.PUSH, 0, self._hello())
        except (BrokenPipeError, OSError):
            self._loop.close_peer(peer)

    def _on_peer_close(self, peer: Peer) -> None:
        self._fast.pop(peer, None)
        for tc_id, owner in list(self._tc_peers.items()):
            if owner is peer:
                del self._tc_peers[tc_id]

    def _on_parent_close(self, peer: Peer) -> None:
        self._on_peer_close(peer)
        self._loop.stop()  # parent is gone; nothing to serve

    # -- dispatch -----------------------------------------------------------

    def _catalog(self) -> tuple:
        tables = []
        for name in self._dc.table_names():
            handle = self._dc.table(name)
            tables.append(
                (name, handle.descriptor.kind, handle.descriptor.versioned)
            )
        return tuple(tables)

    def _hello(self) -> Hello:
        return Hello(
            tc_id=0,
            dc_name=self._dc.name,
            pid=os.getpid(),
            recovered=self._recovered,
            tables=self._catalog(),
            fast_codec=wire.fast_vocabulary() if self._fast_ok else (),
            listen_addr=self.listen_addr,
        )

    def _dispatch(self, peer: Peer, message: Message) -> Optional[Message]:
        if isinstance(message, NegotiateCodec):
            if self._fast_ok:
                self._fast[peer] = wire.negotiate(message.vocab)
            return ControlAck(tc_id=message.tc_id)
        if isinstance(message, RegisterTc):
            self._tc_peers[message.tc_id] = peer
            self._dc.register_tc(
                message.tc_id,
                force_log=self._force_bridge(message.tc_id),
                on_rssp_hint=self._push_hint,
            )
            return ControlAck(tc_id=message.tc_id)
        if isinstance(message, CreateTable):
            self._dc.create_table(
                message.name,
                kind=message.kind,
                versioned=message.versioned,
                bucket_count=message.bucket_count,
            )
            return ControlAck(tc_id=message.tc_id)
        if isinstance(message, TableList):
            return TableListReply(tc_id=message.tc_id, tables=self._catalog())
        if isinstance(message, StatsRequest):
            return StatsReply(
                tc_id=message.tc_id,
                payload={
                    "dc": self._dc.stats(),
                    "counters": self._dc.metrics.counters(),
                    "pid": os.getpid(),
                    "recovered": self._recovered,
                    "journal_bytes": self._storage.journal_bytes(),
                    "connections": len(self._loop._peers),
                    # The many-clients scaling claim, measurable from the
                    # outside: the loop serves every client, so this stays
                    # flat as connections grow.
                    "threads": threading.active_count(),
                },
            )
        if isinstance(message, CheckpointDcLog):
            advanced = self._dc.checkpoint_dc_log()
            if advanced:
                # Everything below the new truncation point is reflected
                # in flushed pages, so the journal's history frames are
                # dead weight: rewrite it as live state.  A kill -9'd DC
                # now replays only the live tail, not its whole past.
                self._storage.compact()
            return CheckpointDcLogReply(tc_id=message.tc_id, advanced=advanced)
        if isinstance(message, Shutdown):
            return ControlAck(tc_id=message.tc_id)
        return self._dc.handle(message)

    # -- frame plumbing ------------------------------------------------------

    def _on_frame(self, peer: Peer, data: bytes) -> None:
        try:
            kind, seq, message = rpc.unpack_frame(data)
        except wire.WireError:
            # One client speaking garbage must not take the server (or
            # anyone else's connection) down with it.
            self._dc.metrics.incr("dcserver.bad_frames")
            self._loop.close_peer(peer)
            return
        if kind == rpc.CLIENT_REPLY:
            box = self._force_boxes.get(seq)
            if box is not None:
                box.append(message)
            return  # unmatched = stale reply from a dropped bridge
        self._backlog.append((peer, kind, seq, message))
        self._drain_backlog()

    def _drain_backlog(self) -> None:
        if self._dispatching:
            return  # the frame arrived inside a dispatch; served after it
        self._dispatching = True
        try:
            while self._backlog:
                peer, kind, seq, message = self._backlog.popleft()
                if peer.closed:
                    continue
                if not self._serve_frame(peer, kind, seq, message):
                    self._loop.stop()
                    return
        finally:
            self._dispatching = False

    def _serve_frame(self, peer: Peer, kind: int, seq: int, message) -> bool:
        """Serve one frame; returns False when the server should exit."""
        if kind != rpc.REQUEST:
            return True  # stray frame (e.g. a stale SERVER_REQUEST echo)
        try:
            reply = self._dispatch(peer, message)
        except CrashedError:
            # The in-process transport maps a crashed component to a lost
            # message; mirror that so the client's resend policy engages.
            reply = None
        except ReproError as exc:
            reply = RemoteError(
                tc_id=getattr(message, "tc_id", 0),
                kind=type(exc).__name__,
                text=str(exc),
            )
        try:
            self._send(peer, rpc.REPLY, seq, reply)
        except (BrokenPipeError, OSError):
            self._loop.close_peer(peer)
            return peer is not self._parent_peer
        if isinstance(message, Shutdown):
            if peer is self._parent_peer:
                return False
            self._loop.close_peer(peer)  # a client said goodbye; keep serving
        return True

    # -- main loop ----------------------------------------------------------

    def run(self) -> None:
        try:
            self._send(self._parent_peer, rpc.PUSH, 0, self._hello())
            self._loop.run()
        finally:
            self._storage.close()
            self._loop.close()


def serve(
    conn,
    name: str,
    config: Optional[DcConfig],
    journal_path: str,
    listen_path: str = "",
    fast_codec: bool = True,
) -> None:
    """Child-process entry point (target of ``multiprocessing.Process``)."""
    _DcServer(conn, name, config, journal_path, listen_path, fast_codec).run()
