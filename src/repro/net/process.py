"""Client side of the process deployment mode: proxy, transport, channel.

Bottom up:

- :class:`ServerProcess` — the OS-process lifecycle: spawn a server
  child over a ``multiprocessing`` pipe, ``SIGKILL`` it, join it.  The
  journal path outlives the process, which is what makes
  kill-and-restart a *recovery* event rather than data loss.
- :class:`ServerProxy` — the client end of one server connection over a
  :class:`_Transport`, shared by every proxy (the TC tier's
  :class:`~repro.net.tcclient.RemoteTc` included).
- :class:`RemoteDc` — a proxy implementing the surface the TC, kernel and
  supervisor already use on an in-process ``DataComponent`` (``handle``,
  ``register_tc``, catalog lookups, ``crashed`` /
  ``crash()`` / ``recover()`` / ``prompt_redo()``), so the rest of the
  system is oblivious to where the DC lives.  One proxy multiplexes any
  number of TCs over a single connection.
- :class:`ProcessChannel` — the :class:`~repro.net.channel.MessageChannel`
  request surface over that proxy, plus the **pipelined async**
  path (:meth:`request_async` / :meth:`finish_async`): requests carry
  transport sequence numbers and replies fill their slots as whichever
  caller is waiting reads them — out of order is fine, because §4.2.1's
  unique request ids and DC-side idempotence were designed for exactly
  that delivery model.

The simulated-misbehavior knobs (loss/duplication, fault
injection) are **local-only**: this transport is a real pipe that
delivers reliably and in order, and the §4.2.1 resend machinery instead
gets exercised by killing the *process* (see docs/architecture.md §10).
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import os
import select
import threading
import time
from queue import Empty, SimpleQueue
from typing import Callable, Optional

from repro.common.api import Message
from repro.common.config import ChannelConfig, DcConfig
from repro.common.errors import ReproError
from repro.dc.recovery import TableDescriptor
from repro.net import dcserver, rpc, wire
from repro.net.channel import MessageChannel
from repro.net.eventloop import _FRAME_LEN, _MAX_FRAME, _READ_CHUNK
from repro.net.rpc import (
    CheckpointDcLog,
    CreateTable,
    ForceLogReply,
    ForceLogRequest,
    Hello,
    NegotiateCodec,
    RegisterTc,
    RemoteError,
    RsspHint,
    Shutdown,
    StatsRequest,
    TableList,
)
from repro.net.server import connect_any
from repro.sim.metrics import Metrics


def wait_hello(
    conn, hello_type: type, who: str, timeout: float = 30.0, process=None
) -> Message:
    """Read a server's first frame, which must be its ``hello_type`` push.

    The one wait-for-hello of the process transport: a spawned child's
    pipe (``process`` = its :class:`ServerProcess`) and a
    freshly connected listener socket go through the same four steps.
    Anything but a well-formed hello — timeout, EOF (``poll`` reports a
    dead child as *readable*), a socket error, an undecodable or
    wrong-typed frame — closes ``conn``, kills the child if there is
    one, and raises :class:`ReproError`.  Closing here is safe because no
    transport reads ``conn`` yet.
    """
    try:
        if not conn.poll(timeout):
            problem = "no hello in time"
        else:
            kind, _seq, payload = rpc.unpack_frame(conn.recv_bytes())
            if kind == rpc.PUSH and isinstance(payload, hello_type):
                return payload
            problem = f"unexpected first frame: {payload!r}"
    except (EOFError, OSError, wire.WireError) as exc:
        problem = f"no hello ({type(exc).__name__}: {exc})"
    if process is not None:
        process.kill()
    try:
        conn.close()
    except OSError:
        pass
    raise ReproError(f"{who}: {problem}")


def connect_with_retry(address: str, who: str, timeout: float):
    """Connect to a server's listener, retrying while it is still coming
    up (a freshly spawned or just-healed server binds a moment after its
    process exists); :class:`ReproError` once ``timeout`` has passed."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            return connect_any(address)
        except OSError:
            if time.monotonic() >= deadline:
                raise ReproError(f"{who}: cannot connect to {address}")
            time.sleep(0.05)


def default_start_method() -> str:
    """``fork`` where the platform offers it (fast, no re-import); else
    ``spawn``.  Overridable via ``ChannelConfig.process_start_method``."""
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


class ServerProcess:
    """One spawned server process (``target(child_conn, *args)``) and the
    parent's end of its pipe."""

    def __init__(
        self, target: Callable, args: tuple, name: str, start_method: str = ""
    ) -> None:
        ctx = mp.get_context(start_method or default_start_method())
        self.conn, child_conn = ctx.Pipe()
        self.process = ctx.Process(
            target=target, args=(child_conn, *args), name=name, daemon=True
        )
        self.process.start()
        # The parent must drop its copy of the child end, or a dead child
        # would never read as EOF.
        child_conn.close()

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid

    def kill(self) -> None:
        """SIGKILL — the real process death the chaos tests rely on.

        Deliberately does *not* close ``self.conn``: closing the fd under
        a thread that is reading it frees the fd number for immediate
        reuse by the *next* kernel's pipe, and the stale reader then
        steals frames from that connection (lost replies, corrupted
        framing).  The process death delivers EOF to whoever reads; the
        transport closes the fd only once nobody does
        (:meth:`_Transport.close`)."""
        if self.process.is_alive():
            self.process.kill()
        self.process.join()

    def join(self, timeout: Optional[float] = None) -> None:
        self.process.join(timeout)


#: Framing is the event loop's (``_FRAME_LEN``: the network-order 4-byte
#: length prefix ``multiprocessing.Connection`` also writes) in both
#: directions — a run of header+payload blocks is one write, and one read
#: may return any number of whole or partial frames.

#: Deferred bytes auto-flush threshold; keeps a pathological pipeline from
#: buffering unboundedly while still batching every realistic burst.
_COALESCE_BYTES = 64 * 1024

#: How long a connection must see neither a caller nor a server-initiated
#: frame before its background thread starts watching the fd itself, and
#: the longest that thread stays parked on the fd once a caller wants it.
_IDLE_WATCH_S = 0.05


class ReplyTimeout(Exception):
    """No reply within the caller's timeout (the only thing a
    :class:`_Slot` raises; the proxies' ``collect`` turns it into the
    ``None`` = lost reply their callers' resend contracts absorb)."""


def _time_left(deadline: Optional[float]) -> Optional[float]:
    """Seconds until ``deadline`` (``None`` = unbounded);
    :class:`ReplyTimeout` once it has passed."""
    if deadline is None:
        return None
    left = deadline - time.monotonic()
    if left <= 0:
        raise ReplyTimeout()
    return left


class _Slot:
    """Where one request's reply lands; filled by whichever thread is
    reading the connection, ``None`` if the connection died first."""

    __slots__ = ("_transport", "seq", "_filled", "_reply")

    def __init__(self, transport: "_Transport", seq: int) -> None:
        self._transport = transport
        self.seq = seq
        self._filled = False
        self._reply: object = None

    def done(self) -> bool:
        return self._filled

    def result(self, timeout: Optional[float] = None) -> object:
        """The reply (``None`` = connection died); reads the connection
        on this thread if nobody else is.  Raises :class:`ReplyTimeout`."""
        if self._filled:
            return self._reply
        return self._transport._await(self, timeout)


def _write_all(fd: int, data: bytes) -> None:
    # Blocking fds can still write partially (sockets, large runs); a
    # failure part-way means the connection died — every caller takes it
    # down, stranding the affected slots like any lost reply.
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view) :]


class _Transport:
    """Framed, multiplexed, bidirectional traffic over one connection.

    **Caller-driven receive.**  There is no receiver thread: the thread
    that waits for a reply reads the fd and decodes frames itself.  One
    thread reads at a time (``_reading``).  Slot and reader state sit
    under one plain lock; a caller that finds the fd taken *parks* on a
    condition over that lock and is woken when its slot fills or the
    reader leaves — and only then is anyone notified, so a lone caller
    never pays for a wake-up.  Replies land in :class:`_Slot`s by
    sequence number, so out-of-order completion and any number of
    requests in flight work as before; on EOF every outstanding slot
    resolves to ``None`` (the "lost reply" the resend contracts absorb)
    and ``on_down`` fires once, with no transport lock held.

    **One background thread** serves server-initiated traffic
    (force-log requests, RSSP-hint pushes) that a reader hands it — the
    §4.2.2 force bridge never runs on, or waits behind, a caller — and
    watches the fd while the connection is *idle* (no caller for
    ``_IDLE_WATCH_S``), so a ``ForceLogRequest`` or an EOF on a
    connection nobody is calling on is still noticed.  A caller that
    arrives while it watches gets that one reply handed over, after
    which the thread stands back until the connection idles again.

    **Coalescing** (docs/architecture.md §17): a ``submit(..., defer=True)``
    only buffers the frame; :meth:`flush` (or the next non-deferred send,
    which must not overtake buffered frames) writes the whole run as one
    write — one syscall for a pipelined burst instead of one per frame.
    A lone non-deferred frame with nothing buffered is written as it is.
    Latency-sensitive ops never park: every synchronous send flushes
    first, and waiting on a slot flushes whatever is still buffered.
    ``fast`` is the negotiated fast-codec encode map (empty = tagged);
    ``_scratch`` is the per-connection reusable encode buffer.
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
        self._on_server_request = on_server_request
        self._on_push = on_push
        self._on_down = on_down
        self.fast: dict = fast or {}
        self._slots: dict[int, _Slot] = {}
        #: Guards ``_slots``/``_down``/``_reading``/``_parked``.
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
        self._in = bytearray()
        self._wlock = threading.Lock()
        self._scratch = bytearray()
        self._pending: list[bytes] = []
        self._pending_bytes = 0
        self._seq = itertools.count(1)
        self._down = False
        self._closed = False
        #: Server-initiated frames for the background thread; ``None``
        #: (from :meth:`_fail` or :meth:`close`) tells it to exit.
        self._ctrl: SimpleQueue = SimpleQueue()
        self._thread = threading.Thread(
            target=self._background, name="dc-transport", daemon=True
        )
        self._thread.start()

    # -- sending --------------------------------------------------------------

    def submit(self, message: Message, defer: bool = False) -> _Slot:
        """Send one request; the returned slot resolves to the reply
        message, or ``None`` if the connection died first.

        With ``defer=True`` the frame is only buffered; it reaches the
        wire at the next :meth:`flush`, non-deferred send, or wait on a
        slot.  The slot still resolves normally once the reply is read.
        """
        slot = _Slot(self, next(self._seq))
        with self._lock:
            if self._down:
                slot._filled = True
                return slot
            self._slots[slot.seq] = slot
        try:
            self._send(rpc.REQUEST, slot.seq, message, defer=defer)
        except (OSError, ValueError):
            # EPIPE to a just-killed server: the write saw the death before
            # any read saw the EOF, and nobody is reading.  Down is down —
            # or the owner keeps resending into a connection it thinks is up.
            self._fail()
        return slot

    def push(self, message: Message) -> None:
        """Send one frame that no reply answers (``PUSH``), written now
        behind anything buffered.  Nothing is returned: a dead or dying
        connection is the owner's ``on_down``, as for a request."""
        if self._down:
            return
        try:
            self._send(rpc.PUSH, 0, message)
        except (OSError, ValueError):
            self._fail()

    def _send(
        self, kind: int, seq: int, payload: object, defer: bool = False
    ) -> None:
        with self._wlock:
            data = rpc.pack_frame(kind, seq, payload, self.fast, self._scratch)
            if not defer and not self._pending:
                _write_all(self._fd, _FRAME_LEN.pack(len(data)) + data)
                return
            # A non-deferred frame must not overtake buffered ones: it
            # joins the run and the whole run is written in order.
            self._pending.append(data)
            self._pending_bytes += len(data)
            if not defer or self._pending_bytes >= _COALESCE_BYTES:
                self._flush_locked()

    def _flush_locked(self) -> None:
        frames, self._pending = self._pending, []
        self._pending_bytes = 0
        if frames:
            _write_all(
                self._fd,
                b"".join(_FRAME_LEN.pack(len(frame)) + frame for frame in frames),
            )

    def flush(self) -> None:
        """Write out deferred frames now; a failed write is the connection's
        death (the stranded-slot path covers the loss), never an error."""
        try:
            with self._wlock:
                self._flush_locked()
        except (OSError, ValueError):
            self._fail()

    # -- receiving ------------------------------------------------------------

    def _await(self, slot: _Slot, timeout: Optional[float]) -> object:
        """``slot``'s reply, once it is there: read the fd if nobody else
        is, else park behind the thread that does.  :class:`ReplyTimeout`
        forgets the slot, so its late reply is dropped on arrival."""
        if self._pending:
            self.flush()
        deadline = None if timeout is None else time.monotonic() + timeout
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
                self._stop_reading()
        except ReplyTimeout:
            with self._lock:
                self._slots.pop(slot.seq, None)
            raise
        return slot._reply

    def _stop_reading(self) -> None:
        with self._lock:
            self._reading = False
            if self._parked:
                self._cond.notify_all()  # a follower takes over the fd

    def _read_burst(self, timeout: Optional[float]) -> bool:
        """As the reader: wait up to ``timeout`` for bytes, take what one
        ``read`` returns and deliver every complete frame in it.  False
        when the wait timed out; EOF and garbage take the connection down
        (and count as progress, so callers re-check their slot)."""
        if not self._poll.poll(None if timeout is None else timeout * 1000.0):
            return False
        try:
            chunk = os.read(self._fd, _READ_CHUNK)
        except OSError:
            chunk = b""
        if not chunk:
            self._fail()
            return True
        held = self._in
        if held:
            held += chunk
            data = held
        else:
            data = chunk  # the common case: whole frames, nothing held over
        pos, end = 0, len(data)
        try:
            while end - pos >= 4:
                (length,) = _FRAME_LEN.unpack_from(data, pos)
                if not 0 <= length <= _MAX_FRAME:
                    raise wire.WireDecodeError(f"frame length {length}")
                if pos + 4 + length > end:
                    break
                self._deliver(bytes(data[pos + 4 : pos + 4 + length]))
                pos += 4 + length
        except wire.WireError:
            self._fail()
            return True
        if data is held:
            del held[:pos]
        elif pos < end:
            held += chunk[pos:]
        return True

    def _deliver(self, data: bytes) -> None:
        kind, seq, payload = rpc.unpack_frame(data)
        if kind == rpc.REPLY:
            with self._lock:
                slot = self._slots.pop(seq, None)
                if slot is not None:  # None: its caller timed out and left
                    slot._reply = payload
                    slot._filled = True
                    if self._parked:
                        self._cond.notify_all()
        elif kind in (rpc.SERVER_REQUEST, rpc.PUSH):
            self._ctrl.put((kind, seq, payload))

    def _fail(self) -> None:
        """The connection is gone: strand every outstanding slot with
        ``None``, stop the background thread, tell the owner — once."""
        with self._lock:
            if self._down:
                return
            self._down = True
            for slot in self._slots.values():
                slot._filled = True
            self._slots.clear()
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
            if self._reading or self._down or self._closed:
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
            self._stop_reading()

    def _serve(self, kind: int, seq: int, payload: object) -> None:
        if kind == rpc.SERVER_REQUEST:
            try:
                reply = self._on_server_request(payload)
            except ReproError as exc:
                reply = RemoteError(tc_id=0, kind=type(exc).__name__, text=str(exc))
            try:
                self._send(rpc.CLIENT_REPLY, seq, reply)
            except (OSError, ValueError):
                self._fail()
        else:
            self._on_push(payload)

    def close(self) -> None:
        """Stop the background thread, then close the fd (idempotent —
        proxy close paths and the down path may both land here).

        The fd is closed only once no thread can be parked on it:
        closing it under a reader would free the fd number for immediate
        reuse by the next kernel's pipe, and the stale reader would then
        steal frames (e.g. a ``RegisterTc`` reply) from that connection.
        The background thread is woken by a sentinel, not waited out; a
        caller still reading (every close path kills or says goodbye to
        the server first, so it is about to see EOF) is given that chance
        — ``close`` parks like a follower until the reader leaves.
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


class ServerProxy:
    """Client end of one server connection: what :class:`RemoteDc`,
    :class:`DcClient` and :class:`~repro.net.tcclient.RemoteTc` share.

    Opening is one sequence whoever the server is — spawn a child or
    connect to ``socket_path``, read the hello, negotiate the codec from
    it, start the :class:`_Transport`, enable the server→client fast leg
    — and runs from scratch on every restart or reconnect, so a respawned
    server of another version degrades the wire instead of breaking it.
    Down-detection (EOF seen by the transport, or the ``crashed`` poll
    finding a dead child) fires ``on_crash`` once per incarnation.

    A subclass sets its own attributes *before* calling this
    ``__init__``, which opens the first connection.
    """

    #: ``"dc"`` / ``"tc"``: the ``on_crash`` listener kind, the counter
    #: family (``remote_<kind>.*``) and the prefix of error texts.
    kind = ""
    hello_type: type = Message
    #: The counter that follows ``restarts``.
    reopen_counter = ""
    #: Stamped on the proxy's own control messages.
    tc_id = 0
    #: Listener to connect to; "" = spawn (and own) the server process.
    socket_path = ""
    #: How long connecting keeps retrying while the listener comes up.
    connect_retry_s = 10.0

    def __init__(
        self, name: str, metrics: Optional[Metrics], request_timeout_s: float
    ) -> None:
        self.name = name
        self.metrics = metrics or Metrics()
        self.request_timeout_s = request_timeout_s
        #: Crash listeners ``fn(name, kind)`` — the supervisor subscribes.
        self.on_crash: list[Callable[[str, str], None]] = []
        self._lock = threading.Lock()
        self._crashed = False
        self._down_handled = False
        self._closing = False
        self.restarts = 0
        self.last_pid: Optional[int] = None
        self._process: Optional[ServerProcess] = None
        self._open()

    # -- lifecycle ----------------------------------------------------------

    def _who(self) -> str:
        return f"{self.kind.upper()} {self.name}"

    def _open(self) -> None:
        who = self._who()
        if self.socket_path:
            who += f" on {self.socket_path}"
            conn = connect_with_retry(self.socket_path, who, self.connect_retry_s)
            hello_timeout = self.request_timeout_s
        else:
            self._process = self._spawn()
            conn = self._process.conn
            hello_timeout = 30.0
        try:
            hello = wait_hello(
                conn, self.hello_type, who, hello_timeout, self._process
            )
        except ReproError as exc:
            raise self._no_hello(exc)
        self.last_pid = hello.pid
        self._adopt_hello(hello)
        self._down_handled = False
        fast = wire.negotiate(hello.fast_codec)
        self._transport = _Transport(
            conn,
            on_server_request=self._serve_request,
            on_push=self._serve_push,
            on_down=self._note_down,
            fast=fast,
        )
        if fast:
            # Enable the server->client leg too.
            self.control(NegotiateCodec(tc_id=self.tc_id, vocab=wire.fast_vocabulary()))

    def _owned(self, verb: str) -> ServerProcess:
        if self._process is None:
            raise ReproError(f"{self._who()} is externally managed; cannot {verb} it")
        return self._process

    def _reopen(self) -> None:
        """Connect to a new server incarnation (spawned here, or healed
        by whoever owns the server)."""
        if self._process is not None:
            self._process.kill()
        self._transport.close()
        self._open()
        self._crashed = False
        self.restarts += 1
        self.metrics.incr(self.reopen_counter)

    def _note_down(self) -> None:
        fire = False
        with self._lock:
            if not self._down_handled:
                self._down_handled = True
                if not self._closing:
                    self._crashed = True
                    fire = True
        if fire:
            self.metrics.incr(f"remote_{self.kind}.process_deaths")
            for listener in list(self.on_crash):
                listener(self.name, self.kind)

    @property
    def crashed(self) -> bool:
        if (
            not self._crashed
            and not self._closing
            and self._process is not None
            and not self._process.alive
        ):
            # Poll fallback: nobody may have read the EOF yet.
            self._note_down()
        return self._crashed

    @property
    def pid(self) -> Optional[int]:
        return self._process.pid if self._process is not None else self.last_pid

    def crash(self) -> None:
        """SIGKILL the server process — a *real* fail-stop, not a flag."""
        self._owned("crash").kill()
        self._note_down()

    def shutdown(self) -> None:
        """Graceful stop.  A server that is only connected to closes the
        connection on ``Shutdown`` (its end-of-session bookkeeping runs
        now, and whoever reads our end sees a real EOF); one this proxy
        owns is made sure to have exited.  The fd is closed by the
        transport alone, after its thread has left."""
        self._closing = True
        self.call(Shutdown(tc_id=self.tc_id), timeout=5.0)
        if self._process is not None:
            self._process.join(5.0)
            self._process.kill()
        self._transport.close()

    def close(self) -> None:
        self.shutdown()

    # -- messaging ----------------------------------------------------------

    def submit(self, message: Message, defer: bool = False) -> _Slot:
        """Pipelined send; ``defer=True`` coalesces (see ``_Transport``)."""
        return self._transport.submit(message, defer=defer)

    def flush(self) -> None:
        """Push any coalesced (deferred) frames onto the wire now."""
        self._transport.flush()

    def collect(self, slot: _Slot, timeout: Optional[float] = None) -> object:
        """Await one submitted request; ``None`` on timeout or a dead
        connection (the caller's resend machinery takes over, as for any
        lost reply)."""
        if slot._filled:
            return slot._reply
        try:
            return slot._transport._await(
                slot, timeout if timeout is not None else self.request_timeout_s
            )
        except ReplyTimeout:
            self.metrics.incr(f"remote_{self.kind}.request_timeouts")
            return None

    def call(self, message: Message, timeout: Optional[float] = None) -> object:
        """Send and wait (:meth:`submit` + :meth:`collect`).  ``submit`` is
        looked up on the transport at every call, so a wrapper installed
        there sees each send."""
        return self.collect(self._transport.submit(message), timeout)

    def control(self, message: Message, timeout: Optional[float] = None) -> Message:
        """A call that must succeed: raises on loss, death or RemoteError."""
        reply = self.call(message, timeout)
        if reply is None:
            raise self._lost(message)
        if isinstance(reply, RemoteError):
            raise self._remote_error(reply)
        return reply

    def stats(self) -> dict[str, object]:
        return self.control(StatsRequest(tc_id=self.tc_id)).payload

    # -- what a subclass fills in ----------------------------------------------

    def _spawn(self) -> ServerProcess:
        """Start the server child (spawn mode only)."""
        raise NotImplementedError

    def _adopt_hello(self, hello: Message) -> None:
        """Keep what this kind of proxy takes from a connection's hello."""

    def _no_hello(self, exc: ReproError) -> ReproError:
        """What a server that never said hello raises."""
        return exc

    def _lost(self, message: Message) -> ReproError:
        """What :meth:`control` raises when no reply came."""
        raise NotImplementedError

    def _remote_error(self, reply: RemoteError) -> ReproError:
        """What a server-side exception becomes on this side."""
        return ReproError(f"{self._who()}: {reply.kind}: {reply.text}")

    def _serve_request(self, message: Message) -> Message:
        """Answer a ``SERVER_REQUEST`` (on the transport's own thread)."""
        raise ReproError(f"unexpected server request: {message!r}")

    def _serve_push(self, message: Message) -> None:
        """Take a one-way push that arrives after the hello."""


class _RemoteTableHandle:
    """Catalog-only stand-in for ``TableHandle`` (no structure object —
    record access goes through messages, as §4.2.1 intends)."""

    __slots__ = ("descriptor",)

    def __init__(self, descriptor: TableDescriptor) -> None:
        self.descriptor = descriptor


class RemoteDc(ServerProxy):
    """Proxy for a DC server process; drop-in for the TC/kernel surface."""

    kind = "dc"
    hello_type = Hello
    reopen_counter = "remote_dc.restarts"

    def __init__(
        self,
        name: str,
        config: Optional[DcConfig] = None,
        metrics: Optional[Metrics] = None,
        journal_path: str = "",
        start_method: str = "",
        request_timeout_s: float = 30.0,
        listen_path: str = "",
    ) -> None:
        self.config = config
        self.journal_path = journal_path
        self.start_method = start_method
        #: Listener address the server additionally binds ("" = parent
        #: pipe only): a Unix socket path, or ``tcp://host:port`` for the
        #: TCP data plane (port 0 = ephemeral; the resolved address is
        #: pinned back here from the Hello).  TC server processes connect
        #: here via :class:`DcClient` — the TC service tier (§16) shares
        #: one DC process among many TC processes this way.
        self.listen_path = listen_path
        #: Restart listeners ``fn(dc)``, fired by :meth:`prompt_redo` after
        #: the per-registration prompts.  The TC service deployment hooks
        #: these to forward the §5.2.1 redo prompt to its TC *processes*
        #: (which hold their own connections to the restarted server).
        self.restart_listeners: list[Callable[["RemoteDc"], None]] = []
        #: tc_id -> callbacks, kept client-side and re-installed (via
        #: :class:`RegisterTc`) on every restart of the server process.
        self._registrations: dict[int, dict] = {}
        self._tables: dict[str, _RemoteTableHandle] = {}
        super().__init__(name, metrics, request_timeout_s)

    # -- lifecycle ----------------------------------------------------------

    def _spawn(self) -> ServerProcess:
        if not self.journal_path:
            raise ReproError("RemoteDc needs a journal_path (the DC's volume)")
        return ServerProcess(
            dcserver.serve,
            (self.name, self.config, self.journal_path, self.listen_path),
            f"repro-dc-{self.name}",
            self.start_method,
        )

    def _adopt_hello(self, hello: Hello) -> None:
        if hello.listen_addr:
            # Pin the resolved listener address: a tcp://host:0 request
            # binds an ephemeral port, and respawns after a crash must
            # rebind the *same* concrete port or DC-pool clients could
            # never reconnect across a heal.
            self.listen_path = hello.listen_addr
        self._prime_tables(hello.tables)

    def _prime_tables(self, tables: tuple) -> None:
        with self._lock:
            for name, kind, versioned in tables:
                self._tables[name] = _RemoteTableHandle(
                    TableDescriptor(name=name, kind=kind, versioned=versioned)
                )

    def recover(self, notify_tcs: bool = True) -> dict[str, object]:
        """Restart the server on the same journal (a :class:`DcClient`:
        reconnect to the server its owner healed); re-register every TC.

        The new process replays the journal and runs DC-local recovery
        before saying hello; with ``notify_tcs`` the §5.2.1 redo prompt
        then runs client-side so the TC resends its redo stream over the
        new connection.
        """
        self._reopen()
        with self._lock:
            tc_ids = list(self._registrations)
        for tc_id in tc_ids:
            self.control(RegisterTc(tc_id=tc_id))
        if notify_tcs:
            self.prompt_redo()
        return {"restarted": True, "pid": self.last_pid, "restarts": self.restarts}

    def prompt_redo(self) -> None:
        """Re-drive the out-of-band restart prompt (idempotent)."""
        with self._lock:
            prompts = [
                reg["on_dc_restart"]
                for reg in self._registrations.values()
                if reg.get("on_dc_restart") is not None
            ]
        for prompt in prompts:
            prompt(self)
        for listener in list(self.restart_listeners):
            listener(self)

    # -- messaging ----------------------------------------------------------

    def _lost(self, message: Message) -> ReproError:
        return ReproError(
            f"DC {self.name}: no reply to {type(message).__name__}"
            + (" (process down)" if self.crashed else "")
        )

    def handle(self, message: Message) -> Optional[Message]:
        """In-process-compatible synchronous dispatch (used by tests and
        the base channel); the TC's hot path goes through ProcessChannel."""
        reply = self.call(message)
        if isinstance(reply, RemoteError):
            raise self._remote_error(reply)
        return reply

    # -- the server-initiated legs ------------------------------------------

    def _serve_request(self, message: Message) -> Message:
        if not isinstance(message, ForceLogRequest):
            return super()._serve_request(message)
        with self._lock:
            registration = self._registrations.get(message.tc_id)
        force = registration.get("force_log") if registration else None
        eosl = (
            force(message.lsn, message.images) if force is not None else message.lsn
        )
        return ForceLogReply(tc_id=message.tc_id, eosl=eosl)

    def _serve_push(self, message: Message) -> None:
        if isinstance(message, RsspHint):
            with self._lock:
                hints = [
                    reg["on_rssp_hint"]
                    for reg in self._registrations.values()
                    if reg.get("on_rssp_hint") is not None
                ]
            for hint in hints:
                hint(message.dc_name or self.name, message.lsn)

    # -- the DataComponent surface ------------------------------------------

    def register_tc(
        self,
        tc_id: int,
        force_log=None,
        on_dc_restart=None,
        on_rssp_hint=None,
    ) -> None:
        with self._lock:
            self._registrations[tc_id] = {
                "force_log": force_log,
                "on_dc_restart": on_dc_restart,
                "on_rssp_hint": on_rssp_hint,
            }
        self.control(RegisterTc(tc_id=tc_id))

    def create_table(
        self,
        name: str,
        kind: str = "btree",
        versioned: bool = False,
        bucket_count: int = 16,
    ) -> None:
        self.control(
            CreateTable(
                tc_id=0,
                name=name,
                kind=kind,
                versioned=versioned,
                bucket_count=bucket_count,
            )
        )
        self._prime_tables(((name, kind, versioned),))

    def table_names(self) -> list[str]:
        with self._lock:
            return list(self._tables)

    def table(self, name: str) -> _RemoteTableHandle:
        with self._lock:
            handle = self._tables.get(name)
        if handle is None:
            self.refresh_catalog()
            with self._lock:
                handle = self._tables.get(name)
        if handle is None:
            raise ReproError(f"DC {self.name}: no table {name!r}")
        return handle

    def refresh_catalog(self) -> None:
        reply = self.control(TableList(tc_id=0))
        self._prime_tables(reply.tables)

    def checkpoint_dc_log(self) -> bool:
        reply = self.control(CheckpointDcLog(tc_id=0))
        return reply.advanced


class DcClient(RemoteDc):
    """A socket-connected proxy to an *already running* DC server.

    Same wire protocol, same proxy surface as :class:`RemoteDc`, but no
    process lifecycle: the server was spawned by someone else (the TC
    service deployment) and exposed a listener (``RemoteDc
    listen_path``).  TC server processes use this to share one DC process
    as a pool — each TC process holds its own connection and registers
    its own tc_id, and the DC's force-log bridge aims at whichever
    connection registered that TC.

    ``crash()`` is refused (a client must not kill a shared server);
    ``recover()`` reconnects over the (re-bound) socket after the *owner*
    healed the process, then re-registers and optionally re-drives the
    redo prompt — which is how a TC server rejoins a kill -9'd DC.
    ``close()`` drops the connection; the server keeps serving others.
    """

    reopen_counter = "dc_client.reconnects"

    def __init__(
        self,
        name: str,
        socket_path: str,
        config: Optional[DcConfig] = None,
        metrics: Optional[Metrics] = None,
        request_timeout_s: float = 30.0,
        connect_retry_s: float = 10.0,
    ) -> None:
        self.socket_path = socket_path
        self.connect_retry_s = connect_retry_s
        super().__init__(
            name, config=config, metrics=metrics, request_timeout_s=request_timeout_s
        )


class ProcessChannel(MessageChannel):
    """The MessageChannel surface over a :class:`RemoteDc`.

    ``request`` is synchronous (send, await the reply).
    :meth:`request_async`/:meth:`finish_async` really pipeline here: many
    requests in flight at once, reply slots filled out of order by
    whichever caller is reading the connection.  The §4.2.1 contracts make
    that safe — every request carries its unique id, replies correlate by
    id, and resends are absorbed by DC-side idempotence.
    """

    def __init__(
        self,
        dc: RemoteDc,
        config: Optional[ChannelConfig] = None,
        metrics=None,
        name: str = "",
        faults=None,
        tracer=None,
    ) -> None:
        config = config or ChannelConfig()
        if config.loss_rate or config.duplicate_rate or faults is not None:
            raise ReproError(
                "simulated misbehavior and fault injection are local-only; "
                "the process transport delivers reliably — kill the DC "
                "process instead (docs/architecture.md §10)"
            )
        super().__init__(dc, config, metrics, name=name, tracer=tracer)
        self._timeout_s = config.request_timeout_s

    # -- synchronous --------------------------------------------------------

    def _request(self, message: Message) -> Optional[Message]:
        self._note_request(message)
        self._charge_latency()
        reply = self.dc.call(message, self._timeout_s)
        return self._accept(reply)

    def _accept(self, reply: object) -> Optional[Message]:
        if reply is None:
            return None
        if isinstance(reply, RemoteError):
            raise self.dc._remote_error(reply)
        self._charge_latency()
        return reply

    # -- pipelined ----------------------------------------------------------

    def request_async(self, message: Message, defer: bool = False) -> _Slot:
        """Send now, return the reply slot (filled out of order).

        ``defer=True`` coalesces: the frame is buffered transport-side and
        written (with the rest of the run, as one vectored write) at the
        next :meth:`flush` / non-deferred send — never silently dropped,
        because :meth:`finish_async` flushes first."""
        self._note_request(message)
        self._charge_latency()
        return self.dc.submit(message, defer=defer)

    def finish_async(self, slot: _Slot) -> Optional[Message]:
        """Await one pipelined reply; ``None`` = lost (resend applies)."""
        self.dc.flush()
        return self._accept(self.dc.collect(slot, self._timeout_s))

    def flush(self) -> None:
        """Push deferred frames to the wire without awaiting replies."""
        self.dc.flush()
