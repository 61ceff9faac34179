"""A single-threaded ``poll`` event loop for the DC/TC servers.

One loop owns every connection a server process serves: the parent pipe
and accepted listener sockets, each an fd in one ``select.poll`` object
and a ``{fd: peer}`` dict.  Reads are non-blocking and drain whole
bursts into each peer's :class:`~repro.net.rpc.FrameReader` (the
reassembly the client transport runs too, so its coalesced blobs parse
unchanged).  A send writes through to the fd when nothing is parked
ahead of it; only the part the fd would not take goes to the peer's
out-buffer, and only then is write interest switched on — so a slow
reader defers frames instead of blocking the server, and the loop never
busy-spins on a clogged socket.

Server thread count is thereby O(1) in the number of clients — the loop
*is* the server.  The §4.2.2 force-log bridge, which previously parked
the whole server on one connection's ``recv_bytes``, becomes
:meth:`EventLoop.pump_until`: a nested pump of the same poll object that
keeps every other connection reading, writing and accepting while one
dispatch awaits its ``CLIENT_REPLY``.

Observability (the ``eventloop.*`` counter family, surfaced in
``StatsRequest`` payloads and the repro-bench/v2 snapshots —
:data:`repro.sim.metrics.EVENTLOOP_COUNTERS`):

- ``eventloop.connections_open`` — currently adopted connections;
- ``eventloop.frames_deferred`` — sends that could not fully drain and
  parked bytes in an out-buffer (write interest engaged);
- ``eventloop.wakeups`` — poll returns.
"""

from __future__ import annotations

import os
import select
import socket
from collections import deque
from typing import Callable, Optional

from repro.net import wire
from repro.net.rpc import FRAME_LEN, FrameReader
from repro.sim import schedule as _sched
from repro.sim.metrics import Metrics

#: Bytes asked of one ``os.read``, all allocated before the read: below
#: glibc's 128 KiB mmap threshold no read pays an mmap/munmap pair (at
#: 256 KiB some heap histories did, doubling the CPU of a round trip).
_READ_CHUNK = 1 << 16
#: Seconds :meth:`EventLoop.close` waits, in all, for clients to take
#: the bytes still parked for them.
_CLOSE_DRAIN_S = 1.0
_READABLE = select.POLLIN | select.POLLHUP | select.POLLERR | select.POLLNVAL


class Peer(FrameReader):
    """One adopted connection: fd, reassembly (the inherited
    :class:`~repro.net.rpc.FrameReader`), out-buffer."""

    __slots__ = (
        "loop",
        "fd",
        "owner",
        "on_frame",
        "on_close",
        "closed",
        "_out",
        "_out_off",
        "_mask",
    )

    def __init__(self, loop: "EventLoop", fd: int, owner, on_frame, on_close) -> None:
        super().__init__()
        self.loop = loop
        self.fd = fd
        self.owner = owner  # the closeable (Connection or socket)
        self.on_frame = on_frame
        self.on_close = on_close
        self.closed = False
        self._out = bytearray()
        self._out_off = 0
        self._mask = select.POLLIN

    def deliver(self, frame: bytes) -> None:
        self.on_frame(self, frame)  # may pump the loop and re-enter feed

    def send_frame(self, data: bytes) -> None:
        """Send one frame toward this peer; never blocks.

        With nothing parked the frame is written straight to the fd, and
        only what the fd does not take is parked (write interest goes on
        then, and off once :meth:`flush` has drained it); behind parked
        bytes the frame is parked whole, keeping wire order.  On a closed
        peer this raises ``BrokenPipeError`` so callers hit the same drop
        path a blocking send gave them.
        """
        if self.closed:
            raise BrokenPipeError(f"peer fd {self.fd} is closed")
        frame = FRAME_LEN.pack(len(data)) + data
        if not self._out:
            try:
                sent = os.write(self.fd, frame)
            except BlockingIOError:
                sent = 0
            except OSError:
                self.loop.close_peer(self)
                return
            if sent == len(frame):
                return
            frame = frame[sent:]
        self._out += frame
        self.loop._frames_deferred.incr()
        self.loop._update_interest(self)

    def flush(self) -> None:
        """Drain the out-buffer as far as the fd allows; toggle write
        interest to match what is left."""
        out = self._out
        while self._out_off < len(out):
            try:
                sent = os.write(self.fd, memoryview(out)[self._out_off :])
            except BlockingIOError:
                break
            except (BrokenPipeError, OSError):
                self.loop.close_peer(self)
                return
            self._out_off += sent
        if self._out_off >= len(out):
            out.clear()
            self._out_off = 0
        elif self._out_off > (1 << 16):
            del out[: self._out_off]
            self._out_off = 0
        self.loop._update_interest(self)

    @property
    def pending_out(self) -> int:
        return len(self._out) - self._out_off


class EventLoop:
    """The poll loop; see the module docstring."""

    def __init__(self, metrics: Optional[Metrics] = None) -> None:
        self.metrics = metrics or Metrics()
        self._poll = select.poll()
        self._peers: dict[int, Peer] = {}
        self._listeners: dict[int, tuple] = {}  # fd -> (socket, on_accept)
        self._callbacks: deque = deque()
        self._stopped = False
        self._wakeups = self.metrics.counter("eventloop.wakeups")
        self._frames_deferred = self.metrics.counter("eventloop.frames_deferred")
        # Self-pipe: lets call_soon wake a blocked poll from any thread.
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_r, False)
        os.set_blocking(self._wake_w, False)
        self._poll.register(self._wake_r, select.POLLIN)

    # -- registration --------------------------------------------------------

    def adopt(
        self,
        fileobj,
        on_frame: Callable[[Peer, bytes], None],
        on_close: Optional[Callable[[Peer], None]] = None,
    ) -> Peer:
        """Serve a connection (a ``multiprocessing.connection.Connection``
        or a connected socket) through the loop."""
        fd = fileobj.fileno()
        os.set_blocking(fd, False)
        peer = Peer(self, fd, fileobj, on_frame, on_close)
        self._peers[fd] = peer
        self._poll.register(fd, select.POLLIN)
        self.metrics.incr("eventloop.connections_open")
        self.metrics.incr("eventloop.connections_total")
        return peer

    def add_listener(
        self, listener: socket.socket, on_accept: Callable[[socket.socket], None]
    ) -> None:
        listener.setblocking(False)
        fd = listener.fileno()
        self._listeners[fd] = (listener, on_accept)
        self._poll.register(fd, select.POLLIN)

    def peer_count(self) -> int:
        """Connections currently adopted (what ``StatsReply`` reports)."""
        return len(self._peers)

    def call_soon(self, fn: Callable[[], None]) -> None:
        """Schedule ``fn`` on the loop (thread-safe; wakes a blocked poll)."""
        self._callbacks.append(fn)
        self._wake()

    def _wake(self) -> None:
        try:
            os.write(self._wake_w, b"\0")
        except (BlockingIOError, OSError):
            pass  # pipe full = a wakeup is already pending; closed = no loop

    # -- teardown ------------------------------------------------------------

    def close_peer(self, peer: Peer) -> None:
        """Drop one connection (idempotent; every close path funnels here
        so loop-managed fds are never double-closed)."""
        if peer.closed:
            return
        peer.closed = True
        peer.clear()  # frames it sent after this are never served
        self._peers.pop(peer.fd, None)
        try:
            self._poll.unregister(peer.fd)
        except KeyError:
            pass
        try:
            peer.owner.close()
        except OSError:
            pass
        self.metrics.incr("eventloop.connections_open", -1)
        if peer.on_close is not None:
            peer.on_close(peer)

    def stop(self) -> None:
        """End :meth:`run` (thread-safe; wakes a blocked poll)."""
        self._stopped = True
        self._wake()

    def close(self) -> None:
        """Final teardown: drain pending replies (a Shutdown ack must reach
        the client) for at most :data:`_CLOSE_DRAIN_S` in all — a client
        that does not read cannot hold it — then close everything."""
        for peer in self._peers.values():
            peer.on_close = None  # teardown, not a drop: no callbacks
        deadline = _sched.now() + _CLOSE_DRAIN_S
        while True:
            pending = [peer for peer in self._peers.values() if peer.pending_out]
            left = deadline - _sched.now()
            if not pending or left <= 0:
                break
            writable = select.poll()
            for peer in pending:
                writable.register(peer.fd, select.POLLOUT)
            for fd, _mask in writable.poll(left * 1000.0):
                peer = self._peers.get(fd)
                if peer is not None:
                    peer.flush()  # an error closes it
        for peer in list(self._peers.values()):
            self.close_peer(peer)
        for listener, _on_accept in self._listeners.values():
            try:
                listener.close()
            except OSError:
                pass
        self._listeners.clear()
        os.close(self._wake_r)
        os.close(self._wake_w)
        self._wake_r = self._wake_w = -1  # a late stop() writes nowhere

    # -- running -------------------------------------------------------------

    def run(self) -> None:
        while not self._stopped:
            self._run_once(None)

    def pump_until(
        self, predicate: Callable[[], bool], timeout_s: Optional[float] = None
    ) -> bool:
        """Nested pump: keep the whole loop serviced until ``predicate``
        holds (True) or the timeout/stop wins (False).  This is what the
        §4.2.2 force-log bridge parks on — dispatch of *new* requests is
        the caller's concern (they backlog), but reads, writes and
        accepts on every other connection keep flowing.
        """
        deadline = _sched.now() + timeout_s if timeout_s is not None else None
        while not self._stopped:
            if predicate():
                return True
            remaining: Optional[float] = 0.05
            if deadline is not None:
                remaining = deadline - _sched.now()
                if remaining <= 0:
                    return False
                remaining = min(remaining, 0.05)
            self._run_once(remaining)
        return predicate()

    def _run_once(self, timeout: Optional[float]) -> None:
        while self._callbacks:
            self._callbacks.popleft()()
        if self._stopped:
            return
        events = self._poll.poll(None if timeout is None else timeout * 1000.0)
        self._wakeups.incr()
        peers = self._peers
        for fd, mask in events:
            # A peer closed by an earlier event (or a nested pump) is gone
            # from the dict; its fd number may already name a new peer,
            # which then just finds nothing to read yet.
            peer = peers.get(fd)
            if peer is not None:
                if mask & select.POLLOUT:
                    peer.flush()
                if mask & _READABLE and not peer.closed:
                    self._read(peer)
            elif fd == self._wake_r:
                try:
                    while os.read(self._wake_r, 4096):
                        pass
                except (BlockingIOError, OSError):
                    pass
            elif fd in self._listeners:
                self._accept(*self._listeners[fd])

    def _accept(self, listener: socket.socket, on_accept) -> None:
        while True:
            try:
                client, _addr = listener.accept()
            except (BlockingIOError, OSError):
                return
            if client.family == socket.AF_INET:
                client.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            on_accept(client)

    # -- fd plumbing ---------------------------------------------------------

    def _update_interest(self, peer: Peer) -> None:
        if peer.closed:
            return
        mask = select.POLLIN | select.POLLOUT if peer._out else select.POLLIN
        if mask != peer._mask:
            peer._mask = mask
            self._poll.modify(peer.fd, mask)

    def _read(self, peer: Peer) -> None:
        # Read the whole burst first: a handler that drops this peer frees
        # its fd number, and a later read could take another peer's bytes.
        data = b""
        eof = False
        try:
            while True:
                chunk = os.read(peer.fd, _READ_CHUNK)
                if not chunk:
                    eof = True
                    break
                data = data + chunk if data else chunk
                if len(chunk) < _READ_CHUNK:
                    break
        except BlockingIOError:
            pass
        except OSError:
            eof = True
        try:
            # Fed even when empty: a nested read (see FrameReader) may
            # find frames an outer one has not delivered yet.
            peer.feed(data)
        except wire.WireDecodeError:
            self.metrics.incr("eventloop.protocol_errors")
            self.close_peer(peer)
            return
        if eof and not peer.closed:
            self.close_peer(peer)
