"""The client end of one framed connection, split where I/O begins
(docs/architecture.md §10):

- :class:`ClientCore` — the sequence counter, the reply :class:`_Slot`
  table, the deferred-frame buffer and the frame reassembly.  Messages
  and received bytes go in; slot fills, server-initiated ``(kind, seq,
  payload)`` frames and bytes to write come out.  No fd, lock or thread.
- :class:`Transport` — drives one core over a real fd: ``select.poll``,
  the reader lock and condition, the one background thread, the close
  ordering.  It calls the core's slot side (``open``, ``forget``,
  ``strand``, ``feed``) under its lock and its write side (``frame``,
  ``take``) under its write lock.
"""

from __future__ import annotations

import itertools
import os
import select
import threading
from queue import Empty, SimpleQueue
from typing import Callable, Optional

from repro.common.api import Message
from repro.common.errors import ReproError
from repro.net import rpc, wire
from repro.net.eventloop import _READ_CHUNK
from repro.net.rpc import FRAME_LEN, FrameReader, RemoteError
from repro.sim import schedule as _sched

#: Deferred bytes auto-flush threshold; keeps a pathological pipeline from
#: buffering unboundedly while still batching every realistic burst.
_COALESCE_BYTES = 64 * 1024

#: How long a connection must see neither a caller nor a server-initiated
#: frame before its background thread starts watching the fd itself, and
#: the longest that thread stays parked on the fd once a caller wants it.
_IDLE_WATCH_S = 0.05


class ReplyTimeout(Exception):
    """No reply within the caller's timeout; the proxies' ``collect``
    makes it the ``None`` (lost reply) their resend contracts absorb."""


def _time_left(deadline: Optional[float]) -> Optional[float]:
    """Seconds until ``deadline`` (``None`` = unbounded);
    :class:`ReplyTimeout` once it has passed."""
    if deadline is None:
        return None
    left = deadline - _sched.now()
    if left <= 0:
        raise ReplyTimeout()
    return left


class _Slot:
    """Where one request's reply lands (``None`` if the connection died
    first).  Only :meth:`ClientCore.open` makes one, setting its fields:
    no ``__init__``, so a request pays for no extra call."""

    __slots__ = ("_transport", "seq", "_filled", "_reply")

    def done(self) -> bool:
        return self._filled

    def result(self, timeout: Optional[float] = None) -> object:
        """The reply (``None`` = connection died); reads the connection
        on this thread if nobody else is.  Raises :class:`ReplyTimeout`."""
        if self._filled:
            return self._reply
        return self._transport._await(self, timeout)


class ClientCore(FrameReader):
    """The fd-free half of a client connection.  ``waiter`` (the driver)
    is what :meth:`_Slot.result` asks for a reply; ``fast`` is the
    negotiated fast-codec encode map (empty = tagged)."""

    __slots__ = (
        "waiter", "fast", "slots", "down", "inbox", "pending", "_pending_bytes",
        "_seq", "_scratch",
    )  # fmt: skip

    def __init__(self, waiter: object = None, fast: Optional[dict] = None) -> None:
        super().__init__()
        self.waiter = waiter
        self.fast: dict = fast or {}
        #: seq -> the slot its reply fills.
        self.slots: dict[int, _Slot] = {}
        #: The connection is gone: every slot resolves to ``None``.
        self.down = False
        #: Server-initiated ``(kind, seq, payload)`` frames, in arrival
        #: order, for the owner to take.
        self.inbox: list = []
        #: Deferred frames, not yet handed out to be written.
        self.pending: list[bytes] = []
        self._pending_bytes = 0
        self._seq = itertools.count(1)
        self._scratch = bytearray()

    # -- the slot side ------------------------------------------------------

    def open(self) -> _Slot:
        """A new request's slot: registered for its reply, or already
        resolved to ``None`` when the connection is down."""
        slot = _Slot()
        slot._transport = self.waiter
        slot.seq = next(self._seq)
        slot._reply = None
        slot._filled = self.down
        if not self.down:
            self.slots[slot.seq] = slot
        return slot

    def forget(self, seq: int) -> None:
        """Its caller gave up: a reply arriving later is dropped."""
        self.slots.pop(seq, None)

    def strand(self) -> bool:
        """The connection is gone: every open slot resolves to ``None``.
        False if that had already happened."""
        if self.down:
            return False
        self.down = True
        for slot in self.slots.values():
            slot._filled = True
        self.slots.clear()
        return True

    def deliver(self, frame: bytes) -> None:
        """A reply fills its slot; a server request or push goes to
        :attr:`inbox`.  Garbage raises :class:`~repro.net.wire.WireError`."""
        kind, seq, payload = rpc.unpack_frame(frame)
        if kind == rpc.REPLY:
            slot = self.slots.pop(seq, None)
            if slot is not None:  # None: its caller timed out and left
                slot._reply = payload
                slot._filled = True
        elif kind == rpc.SERVER_REQUEST or kind == rpc.PUSH:
            self.inbox.append((kind, seq, payload))

    # -- the write side -----------------------------------------------------

    def frame(self, kind: int, seq: int, payload: object, defer: bool = False) -> bytes:
        """The bytes to write now: the frame alone, or the whole deferred
        run it ends (it never overtakes one); ``b""`` while a deferred
        frame waits for :meth:`take` or for ``_COALESCE_BYTES``."""
        data = rpc.pack_frame(kind, seq, payload, self.fast, self._scratch)
        if not defer and not self.pending:
            return FRAME_LEN.pack(len(data)) + data
        self.pending.append(data)
        self._pending_bytes += len(data)
        if not defer or self._pending_bytes >= _COALESCE_BYTES:
            return self.take()
        return b""

    def take(self) -> bytes:
        """Every deferred frame as one run of bytes (``b""`` if none)."""
        frames, self.pending = self.pending, []
        self._pending_bytes = 0
        return b"".join(FRAME_LEN.pack(len(frame)) + frame for frame in frames)


def _write_all(fd: int, data: bytes) -> None:
    # Blocking fds can still write partially (sockets, large runs); a
    # failure part-way is the connection's death, as every caller treats it.
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view) :]


class Transport:
    """Drives a :class:`ClientCore` over one connection's fd.

    **Caller-driven receive.**  There is no receiver thread: the thread
    that waits for a reply reads the fd and feeds the core, one reader at
    a time (``_reading``).  A caller that finds the fd taken *parks* on a
    condition over the one lock and is woken when its slot fills or the
    reader leaves — only then is anyone notified, so a lone caller never
    pays for a wake-up.  On EOF every outstanding slot resolves to
    ``None`` (the "lost reply" the resend contracts absorb) and
    ``on_down`` fires once, with no transport lock held.

    **One background thread** serves server-initiated traffic
    (force-log requests, RSSP-hint pushes) that a reader hands it — the
    §4.2.2 force bridge never runs on, or waits behind, a caller — and
    watches the fd while no caller has come for ``_IDLE_WATCH_S``, so a
    ``ForceLogRequest`` or an EOF on an idle connection is still noticed.
    A caller that arrives meanwhile gets its reply handed over, and the
    thread stands back until the connection idles again.

    **Coalescing** (docs/architecture.md §17): ``submit(..., defer=True)``
    only buffers the frame; :meth:`flush`, the next non-deferred send or
    a wait on a slot writes the whole run as one write.
    """

    def __init__(
        self,
        conn,
        *,
        on_server_request: Callable[[Message], Message],
        on_push: Callable[[Message], None],
        on_down: Callable[[], None],
        fast: Optional[dict] = None,
    ) -> None:
        self._conn = conn
        self._fd = conn.fileno()
        self._core = ClientCore(self, fast)
        self._on_server_request = on_server_request
        self._on_push = on_push
        self._on_down = on_down
        #: Guards the core's slot side and ``_reading``/``_parked``.
        self._lock = threading.Lock()
        #: Parked followers (and :meth:`close`) wait here; ``_parked``
        #: counts them, and nobody notifies while it is 0.
        self._cond = threading.Condition(self._lock)
        self._parked = 0
        self._reading = False
        #: Bumped by every waiting caller; the idle watch compares it.
        self._activity = 0
        self._poll = select.poll()
        self._poll.register(self._fd, select.POLLIN)
        #: Guards the core's write side (and the fd's write end).
        self._wlock = threading.Lock()
        self._closed = False
        #: Server-initiated frames for the background thread; ``None``
        #: (from :meth:`_fail` or :meth:`close`) tells it to exit.
        self._ctrl: SimpleQueue = SimpleQueue()
        self._thread = threading.Thread(
            target=self._background, name="dc-transport", daemon=True
        )
        self._thread.start()

    @property
    def fast(self) -> dict:
        """The negotiated fast-codec encode map (empty = tagged)."""
        return self._core.fast

    # -- sending --------------------------------------------------------------

    def submit(self, message: Message, defer: bool = False) -> _Slot:
        """Send one request (``defer=True``: only buffer it); the slot
        resolves to the reply, or ``None`` if the connection died first."""
        with self._lock:
            slot = self._core.open()
        if not slot._filled:
            self._send(rpc.REQUEST, slot.seq, message, defer)
        return slot

    def push(self, message: Message) -> None:
        """Send one frame that no reply answers (``PUSH``), written now
        behind anything buffered.  Nothing is returned: a dead or dying
        connection is the owner's ``on_down``, as for a request."""
        if not self._core.down:
            self._send(rpc.PUSH, 0, message)

    def _send(self, kind: int, seq: int, payload: object, defer: bool = False) -> None:
        try:
            with self._wlock:
                _write_all(self._fd, self._core.frame(kind, seq, payload, defer))
        except (OSError, ValueError):
            # EPIPE to a just-killed server: the write saw the death before
            # any read saw the EOF, and nobody is reading.  Down is down —
            # or the owner keeps resending into a connection it thinks is up.
            self._fail()

    def flush(self) -> None:
        """Write out deferred frames now; a failed write is the connection's
        death (the stranded-slot path covers the loss), never an error."""
        try:
            with self._wlock:
                if self._core.pending:
                    _write_all(self._fd, self._core.take())
        except (OSError, ValueError):
            self._fail()

    # -- receiving ------------------------------------------------------------

    def _await(self, slot: _Slot, timeout: Optional[float]) -> object:
        """``slot``'s reply, once it is there: read the fd if nobody else
        is, else park behind the thread that does.  :class:`ReplyTimeout`
        forgets the slot, so its late reply is dropped on arrival."""
        if self._core.pending:
            self.flush()
        deadline = None if timeout is None else _sched.now() + timeout
        try:
            with self._lock:
                self._activity += 1
                while self._reading and not slot._filled:
                    self._parked += 1
                    try:
                        self._cond.wait(_time_left(deadline))
                    finally:
                        self._parked -= 1
                if slot._filled:
                    return slot._reply
                self._reading = True
            try:
                while not slot._filled:
                    self._read_burst(_time_left(deadline))
            finally:
                with self._lock:
                    self._reading = False
                    if self._parked:
                        self._cond.notify_all()  # a follower takes over the fd
        except ReplyTimeout:
            with self._lock:
                self._core.forget(slot.seq)
            raise
        return slot._reply

    def _read_burst(self, timeout: Optional[float]) -> bool:
        """As the reader: wait up to ``timeout`` for bytes and feed the
        core what one ``read`` returns.  False when the wait timed out;
        EOF and garbage take the connection down (and count as progress,
        so callers re-check their slot)."""
        if not self._poll.poll(None if timeout is None else timeout * 1000.0):
            return False
        try:
            chunk = os.read(self._fd, _READ_CHUNK)
        except OSError:
            chunk = b""
        if not chunk:
            self._fail()
            return True
        core = self._core
        with self._lock:
            waiting = len(core.slots)
            try:
                core.feed(chunk)
                garbage = False
            except wire.WireError:
                garbage = True
            if self._parked and len(core.slots) != waiting:
                self._cond.notify_all()  # someone's slot filled
            inbox = core.inbox
            if inbox:
                core.inbox = []
        for item in inbox:
            self._ctrl.put(item)
        if garbage:
            self._fail()
        return True

    def _fail(self) -> None:
        """The connection is gone: strand every outstanding slot with
        ``None``, stop the background thread, tell the owner — once."""
        with self._lock:
            if not self._core.strand():
                return
            if self._parked:
                self._cond.notify_all()
        self._ctrl.put(None)
        self._on_down()

    # -- the background thread -------------------------------------------------

    def _background(self) -> None:
        seen = -1
        while True:
            try:
                item = self._ctrl.get(timeout=_IDLE_WATCH_S)
            except Empty:
                if seen == self._activity:
                    self._watch_idle()
                seen = self._activity
                continue
            if item is None:
                return
            self._serve(*item)

    def _watch_idle(self) -> None:
        """Nobody has called for a whole interval: read the fd here, so
        server-initiated frames and EOF are seen on an idle connection.
        Leaves as soon as something arrived or a caller showed up."""
        with self._lock:
            if self._reading or self._core.down or self._closed:
                return
            self._reading = True
            seen = self._activity
        try:
            while (
                not self._read_burst(_IDLE_WATCH_S)
                and seen == self._activity
                and not self._closed
            ):
                pass
        finally:
            with self._lock:
                self._reading = False
                if self._parked:
                    self._cond.notify_all()

    def _serve(self, kind: int, seq: int, payload: object) -> None:
        if kind == rpc.SERVER_REQUEST:
            try:
                reply = self._on_server_request(payload)
            except ReproError as exc:
                reply = RemoteError(tc_id=0, kind=type(exc).__name__, text=str(exc))
            self._send(rpc.CLIENT_REPLY, seq, reply)
        else:
            self._on_push(payload)

    def close(self) -> None:
        """Stop the background thread, then close the fd (idempotent).

        The fd is closed only once no thread can be parked on it: closing
        it under a reader frees the fd number for reuse by the next
        connection, whose frames the stale reader would then steal.  The
        background thread is woken by a sentinel, not waited out; a caller
        still reading (every close path first kills the server or says
        goodbye, so EOF is coming) is waited for like a follower.
        """
        if self._closed:
            return
        self._closed = True
        self._ctrl.put(None)
        if threading.current_thread() is not self._thread:
            self._thread.join(timeout=10.0)
            with self._lock:
                self._parked += 1
                try:
                    self._cond.wait_for(lambda: not self._reading, timeout=10.0)
                finally:
                    self._parked -= 1
        self._fail()  # no EOF seen (server still up): strand what is left
        try:
            self._conn.close()
        except OSError:
            pass
