"""A single-threaded ``selectors`` event loop for the DC/TC servers.

One loop owns every connection a server process serves: the parent pipe
and accepted listener sockets.  Reads are non-blocking and drain whole
bursts into per-connection reassembly buffers (frames are the same
4-byte network-order length prefix ``multiprocessing.connection``
writes, so coalesced blobs from the client transport parse unchanged);
writes go through per-connection out-buffers with write-interest
toggling, so a slow reader defers frames instead of blocking the server
and the loop never busy-spins on a clogged socket.

Server thread count is thereby O(1) in the number of clients — the loop
*is* the server.  The §4.2.2 force-log bridge, which previously parked
the whole server on one connection's ``recv_bytes``, becomes
:meth:`EventLoop.pump_until`: a nested pump of the same selector that
keeps every other connection reading, writing and accepting while one
dispatch awaits its ``CLIENT_REPLY``.

Observability (the ``eventloop.*`` counter family, surfaced in
``StatsRequest`` payloads and the repro-bench/v2 snapshots —
:data:`repro.sim.metrics.EVENTLOOP_COUNTERS`):

- ``eventloop.connections_open`` — currently adopted connections;
- ``eventloop.frames_deferred`` — sends that could not fully drain and
  parked bytes in an out-buffer (write interest engaged);
- ``eventloop.wakeups`` — selector returns.
"""

from __future__ import annotations

import os
import selectors
import socket
import struct
import time
from collections import deque
from typing import Callable, Optional

from repro.sim.metrics import Metrics

_FRAME_LEN = struct.Struct("!i")
_READ_CHUNK = 1 << 18
#: Reassembly sanity bound; anything bigger is a corrupt length prefix.
_MAX_FRAME = 1 << 28


class Peer:
    """One adopted connection: fd, reassembly buffer, out-buffer."""

    __slots__ = (
        "loop",
        "fd",
        "owner",
        "on_frame",
        "on_close",
        "closed",
        "_in",
        "_out",
        "_out_off",
        "_mask",
        "_pos",
    )

    def __init__(self, loop: "EventLoop", fd: int, owner, on_frame, on_close) -> None:
        self.loop = loop
        self.fd = fd
        self.owner = owner  # the closeable (Connection or socket)
        self.on_frame = on_frame
        self.on_close = on_close
        self.closed = False
        self._in = bytearray()
        self._out = bytearray()
        self._out_off = 0
        self._mask = selectors.EVENT_READ
        self._pos = 0  # shared scan cursor into _in (see _deliver)

    def send_frame(self, data: bytes) -> None:
        """Queue one frame toward this peer; never blocks.

        On a closed peer this raises ``BrokenPipeError`` so callers hit
        the same drop path a blocking send gave them.
        """
        if self.closed:
            raise BrokenPipeError(f"peer fd {self.fd} is closed")
        self._out += _FRAME_LEN.pack(len(data))
        self._out += data
        self.flush()
        if not self.closed and self._out_off < len(self._out):
            self.loop._frames_deferred.incr()

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
    """The selector loop; see the module docstring."""

    def __init__(self, metrics: Optional[Metrics] = None) -> None:
        self.metrics = metrics or Metrics()
        self._sel = selectors.DefaultSelector()
        self._peers: dict[int, Peer] = {}
        self._listeners: dict[int, socket.socket] = {}
        self._callbacks: deque = deque()
        self._stopped = False
        self._wakeups = self.metrics.counter("eventloop.wakeups")
        self._frames_deferred = self.metrics.counter("eventloop.frames_deferred")
        # Self-pipe: lets call_soon wake a blocked select from any thread.
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_r, False)
        os.set_blocking(self._wake_w, False)
        self._sel.register(self._wake_r, selectors.EVENT_READ, ("wake", None))

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
        self._sel.register(fd, selectors.EVENT_READ, ("peer", peer))
        self.metrics.incr("eventloop.connections_open")
        self.metrics.incr("eventloop.connections_total")
        return peer

    def add_listener(
        self, listener: socket.socket, on_accept: Callable[[socket.socket], None]
    ) -> None:
        listener.setblocking(False)
        fd = listener.fileno()
        self._listeners[fd] = listener
        self._sel.register(fd, selectors.EVENT_READ, ("listener", on_accept))

    def peer_count(self) -> int:
        """Connections currently adopted (what ``StatsReply`` reports)."""
        return len(self._peers)

    def call_soon(self, fn: Callable[[], None]) -> None:
        """Schedule ``fn`` on the loop (thread-safe; wakes a blocked select)."""
        self._callbacks.append(fn)
        try:
            os.write(self._wake_w, b"\0")
        except (BlockingIOError, OSError):
            pass  # pipe full = a wakeup is already pending

    # -- teardown ------------------------------------------------------------

    def close_peer(self, peer: Peer) -> None:
        """Drop one connection (idempotent; every close path funnels here
        so loop-managed fds are never double-closed)."""
        if peer.closed:
            return
        peer.closed = True
        self._peers.pop(peer.fd, None)
        try:
            self._sel.unregister(peer.fd)
        except (KeyError, ValueError):
            pass
        try:
            peer.owner.close()
        except OSError:
            pass
        self.metrics.incr("eventloop.connections_open", -1)
        if peer.on_close is not None:
            peer.on_close(peer)

    def stop(self) -> None:
        self._stopped = True

    def close(self) -> None:
        """Final teardown: best-effort drain of pending replies (a
        Shutdown ack must reach the client), then close everything."""
        for peer in list(self._peers.values()):
            if peer.pending_out:
                try:
                    os.set_blocking(peer.fd, True)
                    peer.flush()
                except OSError:
                    pass
        for peer in list(self._peers.values()):
            peer.on_close = None  # teardown, not a drop: no callbacks
            self.close_peer(peer)
        for listener in self._listeners.values():
            try:
                self._sel.unregister(listener.fileno())
            except (KeyError, ValueError):
                pass
            try:
                listener.close()
            except OSError:
                pass
        self._listeners.clear()
        try:
            self._sel.unregister(self._wake_r)
        except (KeyError, ValueError):
            pass
        os.close(self._wake_r)
        os.close(self._wake_w)
        self._sel.close()

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
        deadline = time.monotonic() + timeout_s if timeout_s is not None else None
        while not self._stopped:
            if predicate():
                return True
            remaining: Optional[float] = 0.05
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                remaining = min(remaining, 0.05)
            self._run_once(remaining)
        return predicate()

    def _run_once(self, timeout: Optional[float]) -> None:
        while self._callbacks:
            self._callbacks.popleft()()
        events = self._sel.select(timeout)
        self._wakeups.incr()
        for key, mask in events:
            tag, payload = key.data
            if tag == "wake":
                try:
                    while os.read(self._wake_r, 4096):
                        pass
                except (BlockingIOError, OSError):
                    pass
                continue
            if tag == "listener":
                self._accept(key.fd, payload)
                continue
            peer = payload
            if peer.closed:
                continue  # closed by an earlier event or a nested pump
            if mask & selectors.EVENT_WRITE:
                peer.flush()
            if peer.closed or not mask & selectors.EVENT_READ:
                continue
            self._read(peer)

    def _accept(self, fd: int, on_accept) -> None:
        listener = self._listeners.get(fd)
        if listener is None:
            return
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
        mask = selectors.EVENT_READ
        if peer.pending_out:
            mask |= selectors.EVENT_WRITE
        if mask != peer._mask:
            peer._mask = mask
            try:
                self._sel.modify(peer.fd, mask, ("peer", peer))
            except (KeyError, ValueError):
                pass

    def _read(self, peer: Peer) -> None:
        eof = False
        try:
            while True:
                chunk = os.read(peer.fd, _READ_CHUNK)
                if not chunk:
                    eof = True
                    break
                peer._in += chunk
                if len(chunk) < _READ_CHUNK:
                    break
        except BlockingIOError:
            pass
        except OSError:
            eof = True
        self._deliver(peer)
        if eof and not peer.closed:
            self.close_peer(peer)

    def _deliver(self, peer: Peer) -> None:
        """Reassemble and deliver complete frames.

        Re-entrant by design: the scan cursor lives on the peer
        (``peer._pos``), not in a local.  A handler may block in
        :meth:`pump_until` (the §4.2.2 force bridge), whose nested
        ``_read`` on this *same* peer re-enters here — and must deliver,
        because the frame the outer handler is pumping for (a force's
        CLIENT_REPLY) may be in this very buffer.  The cursor advances
        past a frame *before* its ``on_frame`` runs, so no frame is ever
        delivered twice; when the nested call returns, the outer loop
        re-reads the cursor and simply continues after the consumed
        frames.  Compaction resets the cursor, which is equally safe at
        any depth for the same reason: nobody holds a stale position
        across an ``on_frame`` call.
        """
        try:
            while not peer.closed:
                buf = peer._in
                pos = peer._pos
                if pos + 4 > len(buf):
                    break
                (length,) = _FRAME_LEN.unpack_from(buf, pos)
                if length < 0 or length > _MAX_FRAME:
                    self.metrics.incr("eventloop.protocol_errors")
                    self.close_peer(peer)
                    return
                if pos + 4 + length > len(buf):
                    break
                frame = bytes(buf[pos + 4 : pos + 4 + length])
                peer._pos = pos + 4 + length
                peer.on_frame(peer, frame)  # may re-enter on this peer
        finally:
            if peer._pos and not peer.closed:
                del peer._in[: peer._pos]
                peer._pos = 0
