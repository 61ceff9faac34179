"""The one request server under the DC and the TC server processes.

TC and DC meet only through the §4.2.1 message contract, so the code
that *carries* those messages is written once, in two halves split where
I/O begins:

- :class:`Server`, the **core**, holds no fd, no ``select`` and no
  thread.  A connection's frame bytes go in (:meth:`Server.on_frame`);
  replies, pushes and server requests go out through that connection's
  ``send_frame``.  It owns the hello, frame decode, the
  arrival-order backlog, request → reply with the error-to-reply
  mapping, per-connection codec negotiation, ``Shutdown`` and the
  ``StatsRequest`` envelope.  It reaches its driver through four calls
  only: ``close_peer``, ``pump_until``, ``stop`` and ``peer_count``.
- :func:`serve`, the **driver**, is the one entry point of both server
  processes: it puts a core on an
  :class:`~repro.net.eventloop.EventLoop` (which provides those four
  calls), adopts the spawning parent's pipe, binds the listener, runs
  the loop and closes everything.

:mod:`repro.net.dcserver` and :mod:`repro.net.tcserver` build their
component, hand over a ``{message type: handler}`` table plus a default
for every other message, and fill in the hooks at the bottom.

**Connections.**  EOF on the parent pipe stops the server (nothing is
left to serve); EOF on an accepted connection just drops that client — a
kill -9'd TC must not take a shared DC down with it.  A malformed frame
likewise drops only the connection that sent it.

**Order.**  Dispatch is single-threaded and strictly in arrival order:
a request that finds nothing ahead of it is served on the spot; one that
lands while a dispatch is on the stack (a handler may pump the driver —
the DC's §4.2.2 force bridge does) waits in the backlog and is served
after it.  One server process is one core's worth of work; the
scale-out unit is the *process*.

**One-way frames.**  A client may send a ``PUSH`` frame instead of a
request for the message types its server lists as one-way (the TC
server: a read-only ``TxnCommit`` under 2PL; the DC server: none).  It
takes the request's place in the arrival order on its connection and is
never answered.  Any other one-way frame, or one its handler refuses,
is a bad frame: that connection is dropped, nobody else's.
"""

from __future__ import annotations

import faulthandler
import os
import signal
import socket
import sys
import threading
from collections import deque
from multiprocessing.connection import Connection
from typing import Callable, Optional

from repro.common.api import ControlAck, Message
from repro.common.errors import CrashedError, ReproError
from repro.net import rpc, wire
from repro.net.eventloop import EventLoop, Peer
from repro.net.rpc import (
    NegotiateCodec,
    RemoteError,
    Shutdown,
    StatsReply,
    StatsRequest,
)
from repro.sim.metrics import Metrics


#: Seconds a spawned server child may spend before its hello; past that
#: it dumps every thread's stack to stderr and carries on.  Below
#: ``wait_hello``'s 30 s spawn timeout, so a hello that never comes
#: leaves a stack behind.
HELLO_STACK_S = 20.0

#: This process is a server child whose stack dump is still armed.
_hello_stack_armed = False


def serve_child(
    make_core: Callable, stack_after_s: float, conn, listen_path: str, *args
) -> None:
    """A spawned server child's entry point: arm the stack dump, build
    ``make_core(*args)`` and :func:`serve` it on the parent pipe ``conn``
    (and ``listen_path``, if set); :func:`serve` disarms the dump once
    the hellos are out.  A signal timer rather than
    ``faulthandler.dump_traceback_later``: a forked child inherits its
    forker's armed watchdog without the watchdog's thread, and arming
    another one then waits on that thread forever."""
    global _hello_stack_armed
    try:
        faulthandler.register(signal.SIGALRM, file=sys.__stderr__, chain=False)
        signal.setitimer(signal.ITIMER_REAL, stack_after_s)
        _hello_stack_armed = True
    except (RuntimeError, ValueError, OSError):
        pass  # no usable stderr: serve undiagnosed
    serve(make_core(*args), conn, listen_path)


def _disarm_hello_stack() -> None:
    global _hello_stack_armed
    if _hello_stack_armed:
        _hello_stack_armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        faulthandler.unregister(signal.SIGALRM)


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


def connect_any(address: str) -> Connection:
    """Connect to ``tcp://host:port`` or a Unix socket path; the result
    is framed like a ``multiprocessing`` pipe.

    TCP connections set ``TCP_NODELAY``: the transport already coalesces
    frames application-side, so Nagle buying latency for nothing is the
    wrong trade on this data plane.
    """
    tcp = address.startswith("tcp://")
    sock = socket.socket(socket.AF_INET if tcp else socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        if tcp:
            host, _, port = address[len("tcp://"):].rpartition(":")
            sock.connect((host or "127.0.0.1", int(port)))
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        else:
            sock.connect(address)
    except OSError:
        sock.close()  # callers retry; do not leave the fd to the collector
        raise
    return Connection(sock.detach())


class Server:
    """The fd-free request-server core; see the module docstring."""

    #: Counter family of the server's own counters (``<role>.bad_frames``).
    role = ""
    #: :class:`CrashedError` kinds that are still *reported*: any other
    #: crashed component answers with silence, as the in-process
    #: transport maps it to a lost message (the caller's resend policy
    #: then engages).
    reported_crashes: tuple = ()

    def __init__(
        self,
        metrics: Metrics,
        recovered: bool,
        handlers: dict[type, Callable[[Peer, Message], Optional[Message]]],
        default: Callable[[Message], Optional[Message]],
        oneway: Optional[dict[type, Callable[[Peer, Message], bool]]] = None,
    ) -> None:
        self._metrics = metrics
        #: True when the component replayed a journal (and recovered)
        #: before this server accepted any traffic.
        self._recovered = recovered
        #: ``handler(peer, message) -> reply``, found by exact type: no
        #: message class has a subclass, so one dict probe equals an
        #: ``isinstance`` walk.
        self._handlers = {
            NegotiateCodec: self._negotiate,
            StatsRequest: self._stats_request,
            Shutdown: self._ack,
            **handlers,
        }
        self._default = default
        #: ``handler(peer, message) -> accepted`` for the types a client
        #: may send one-way; False (refused) drops the connection.
        self._oneway = oneway or {}
        #: Per-connection negotiated encode maps (absent until that
        #: client sends NegotiateCodec); replies to a client that never
        #: does stay tagged forever.  The decoder is version-bound, not
        #: negotiation-bound: fast frames are always accepted.
        self._fast: dict[Peer, dict] = {}
        self._scratch = bytearray()
        #: Requests decoded but not yet dispatched: everything delivered
        #: while a dispatch (or a driver pump inside one) is on the stack
        #: lands here and is served strictly in arrival order.
        self._backlog: deque = deque()
        self._dispatching = False
        #: ``close_peer(peer)``, ``pump_until(predicate, timeout_s)``,
        #: ``stop()`` and ``peer_count()``: an :class:`EventLoop` under
        #: :func:`serve`, a fake in a test.  Set before any connection.
        self.driver = None
        #: The listener address the hello quotes (set by the driver).
        self.listen_addr = ""
        self._parent_peer: Optional[Peer] = None

    # -- connection lifecycle -------------------------------------------------

    def _send(self, peer: Peer, kind: int, seq: int, payload: object) -> None:
        peer.send_frame(
            rpc.pack_frame(kind, seq, payload, self._fast.get(peer), self._scratch)
        )

    def connect(self, peer: Peer, parent: bool = False) -> None:
        """A new connection: send it the hello.  The ``parent`` is the
        spawning process, whose EOF or ``Shutdown`` stops the server."""
        if parent:
            self._parent_peer = peer
        try:
            self._send(peer, rpc.PUSH, 0, self._hello())
        except (BrokenPipeError, OSError):
            self.driver.close_peer(peer)

    def on_close(self, peer: Peer) -> None:
        """The driver dropped ``peer`` (EOF, error or a close asked here)."""
        self._fast.pop(peer, None)
        self._peer_gone(peer)
        if peer is self._parent_peer:
            self.driver.stop()  # the spawning parent is gone; nothing to serve

    # -- frame plumbing --------------------------------------------------------

    def _bad_frame(self, peer: Peer) -> None:
        # One client speaking garbage must not take the server (or
        # anyone else's connection) down with it.
        self._metrics.incr(f"{self.role}.bad_frames")
        self.driver.close_peer(peer)

    def on_frame(self, peer: Peer, data: bytes) -> None:
        """One whole frame from ``peer``."""
        try:
            kind, seq, message = rpc.unpack_frame(data)
        except wire.WireError:
            self._bad_frame(peer)
            return
        if kind == rpc.REQUEST or kind == rpc.PUSH:
            if self._dispatching or self._backlog:
                # Arrived inside a dispatch: served after it, in order.
                self._backlog.append((peer, kind, seq, message))
                return
            # Nothing ahead of it: served directly, then whatever landed
            # in the backlog meanwhile.
            self._dispatching = True
            try:
                serving = self._serve_frame(peer, kind, seq, message)
                while serving and self._backlog:
                    peer, kind, seq, message = self._backlog.popleft()
                    if not peer.closed:
                        serving = self._serve_frame(peer, kind, seq, message)
                if not serving:
                    self.driver.stop()
            finally:
                self._dispatching = False
        elif kind == rpc.CLIENT_REPLY:
            # Never backlogged: the dispatch that asked is on the stack,
            # pumping the driver for exactly this frame.
            self._on_client_reply(seq, message)
        # Any other kind is a stray frame (e.g. an echo) and is ignored.

    def _serve_frame(
        self, peer: Peer, kind: int, seq: int, message: Message
    ) -> bool:
        """Serve one request or one-way frame; returns False when the
        server should exit."""
        if kind == rpc.PUSH:
            oneway = self._oneway.get(type(message))
            if oneway is None or not oneway(peer, message):
                self._bad_frame(peer)
            return True
        handler = self._handlers.get(type(message))
        try:
            if handler is not None:
                reply = handler(peer, message)
            else:
                reply = self._default(message)
        except ReproError as exc:
            if isinstance(exc, CrashedError) and not isinstance(
                exc, self.reported_crashes
            ):
                reply = None
            else:
                reply = RemoteError(
                    tc_id=getattr(message, "tc_id", 0),
                    kind=type(exc).__name__,
                    text=str(exc),
                )
        try:
            self._send(peer, rpc.REPLY, seq, reply)
        except (BrokenPipeError, OSError):
            self.driver.close_peer(peer)
            return peer is not self._parent_peer
        if type(message) is Shutdown:
            if peer is self._parent_peer:
                return False
            self.driver.close_peer(peer)  # a client said goodbye; keep serving
        return True

    # -- the messages every server answers ------------------------------------

    def _ack(self, peer: Peer, message: Message) -> ControlAck:
        return ControlAck(tc_id=message.tc_id)

    def _negotiate(self, peer: Peer, message: NegotiateCodec) -> ControlAck:
        self._fast[peer] = wire.negotiate(message.vocab)
        return ControlAck(tc_id=message.tc_id)

    def _stats_request(self, peer: Peer, message: StatsRequest) -> StatsReply:
        return StatsReply(
            tc_id=message.tc_id,
            payload={
                **self._stats(),
                "pid": os.getpid(),
                "recovered": self._recovered,
                "counters": self._metrics.counters(),
                "connections": self.driver.peer_count(),
                # The many-clients scaling claim, measurable from the
                # outside: the loop serves every client, so this stays
                # flat as connections grow.
                "threads": threading.active_count(),
            },
        )

    # -- what a subclass fills in -------------------------------------------------

    def _hello(self) -> Message:
        """The first frame every connection gets."""
        raise NotImplementedError

    def _stats(self) -> dict:
        """The component's share of the ``StatsReply`` payload."""
        raise NotImplementedError

    def _peer_gone(self, peer: Peer) -> None:
        """Forget whatever was kept for a connection that just closed."""

    def _on_client_reply(self, seq: int, message: object) -> None:
        """A reply to a ``SERVER_REQUEST`` this server sent (dropped:
        the base sends none)."""

    def close(self) -> None:
        """Release the component's volumes and connections at exit."""


def serve(core: Server, conn=None, listen_path: str = "") -> None:
    """Drive ``core`` on one :class:`EventLoop` until it stops: adopt the
    parent pipe ``conn``, bind ``listen_path`` (a Unix socket path or
    ``tcp://host:port``), hello each connection, run, then close the
    core and every fd.  A Unix listener's path is unlinked on the way
    out."""
    loop = core.driver = EventLoop(core._metrics)
    listener = None

    def adopt(fileobj, parent: bool = False) -> None:
        core.connect(loop.adopt(fileobj, core.on_frame, core.on_close), parent)

    try:
        if listen_path:
            listener, core.listen_addr = bind_listener(listen_path)
            loop.add_listener(listener, adopt)
        if conn is not None:
            adopt(conn, parent=True)
        _disarm_hello_stack()
        loop.run()
    finally:
        core.close()
        loop.close()
        if listener is not None and listener.family == socket.AF_UNIX:
            try:
                os.unlink(listen_path)
            except OSError:
                pass
