"""Client side of the process deployment mode (docs/architecture.md §10).

Bottom up: :class:`ServerProcess` spawns, kills (``SIGKILL``) and joins a
server child over a ``multiprocessing`` pipe (its journal outlives it,
which makes kill-and-restart a *recovery* event, not data loss);
:class:`ServerProxy` is the client end of one server connection over a
:class:`~repro.net.transport.Transport`, shared with the TC tier's
:class:`~repro.net.tcclient.RemoteTc`; :class:`RemoteDc` is the surface
the TC, kernel and supervisor use on an in-process ``DataComponent``,
any number of TCs multiplexed over one connection; and
:class:`ProcessChannel` is the :class:`~repro.net.channel.MessageChannel`
over it, whose pipelined requests complete out of order — safe, since
§4.2.1's unique request ids and DC-side idempotence assume exactly that.

The simulated-misbehavior knobs (loss, duplication, fault injection) are
local-only: a real pipe delivers reliably and in order, and the §4.2.1
resend machinery is exercised by killing the *process* instead.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
import time
from typing import Callable, Optional

from repro.common.api import Message
from repro.common.config import ChannelConfig, DcConfig
from repro.common.errors import ReproError
from repro.dc.recovery import TableDescriptor, TableHandle
from repro.net import dcserver, rpc, server, wire
from repro.net.channel import MessageChannel
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
from repro.net.transport import ReplyTimeout, Transport, _Slot
from repro.sim.metrics import Metrics


def wait_hello(
    conn, hello_type: type, who: str, timeout: float = 30.0, process=None
) -> Message:
    """Read a server's first frame, which must be its ``hello_type`` push
    — a spawned child's pipe (``process`` = its :class:`ServerProcess`)
    and a freshly connected socket alike.  Anything else (timeout, EOF, a
    socket error, a bad or wrong-typed frame) closes ``conn`` — safe, as
    no transport reads it yet — kills the child if any, and raises
    :class:`ReproError`.
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
    """Connect to a server's listener, retrying while a just-spawned or
    healed server binds; :class:`ReproError` once ``timeout`` has passed."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            return server.connect_any(address)
        except OSError:
            if time.monotonic() >= deadline:
                raise ReproError(f"{who}: cannot connect to {address}")
            time.sleep(0.05)


def default_start_method() -> str:
    """``fork`` where the platform offers it (fast, no re-import); else
    ``spawn`` — the one place the start method is chosen."""
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


class ServerProcess:
    """One spawned server process — the core ``make_core(*args)``, served
    on its parent pipe (and ``listen_path``, if set) — and the parent's
    end of that pipe."""

    def __init__(
        self, make_core: Callable, args: tuple, name: str, listen_path: str = ""
    ) -> None:
        ctx = mp.get_context(default_start_method())
        self.conn, child_conn = ctx.Pipe()
        self.process = ctx.Process(
            target=server.serve_child, name=name, daemon=True,
            args=(make_core, server.HELLO_STACK_S, child_conn, listen_path, *args),
        )  # fmt: skip
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
        ``self.conn`` stays open: the death delivers EOF to whoever reads
        it, and only the transport closes it, once nobody does
        (:meth:`Transport.close <repro.net.transport.Transport.close>`)."""
        if self.process.is_alive():
            self.process.kill()
        self.process.join()

    def join(self, timeout: Optional[float] = None) -> None:
        self.process.join(timeout)


class ServerProxy:
    """Client end of one server connection: what :class:`RemoteDc` and
    :class:`~repro.net.tcclient.RemoteTc` share, in either of two modes.

    - **spawn mode** (default): the proxy owns its server process —
      ``crash()`` SIGKILLs it, reopening respawns it on the same journal.
    - **connect mode** (``socket_path`` set): attach to a server somebody
      else runs; ``crash()`` is refused, reopening reconnects once the
      owner healed it, and closing drops only this connection.

    Opening is one sequence either way — spawn or connect, read the
    hello, negotiate the codec from it, start the
    :class:`~repro.net.transport.Transport`, enable the server→client fast
    leg — run from scratch on every reopen, so a respawned server of
    another version degrades the wire instead of breaking it.
    Down-detection (EOF seen by the transport, or the ``crashed`` poll
    finding a dead child) fires ``on_crash`` once per incarnation.  A
    subclass sets its own attributes *before* this ``__init__``, which
    opens the first connection.
    """

    #: ``"dc"`` / ``"tc"``: the ``on_crash`` listener kind, the counter
    #: family (``remote_<kind>.*``) and the prefix of error texts.
    kind = ""
    hello_type: type = Message
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
        #: Respawns and reconnects alike (``remote_<kind>.restarts``).
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
        self._transport = Transport(
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
        self.metrics.incr(f"remote_{self.kind}.restarts")

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
        """Pipelined send; ``defer=True`` coalesces (see ``Transport``)."""
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


class RemoteDc(ServerProxy):
    """Proxy for a DC server; drop-in for the TC/kernel surface.  It
    spawns the server on ``journal_path``, or connects (``socket_path``)
    to one spawned with a ``listen_path`` — the TC service tier's TC
    processes share its DCs so, each connection registering its own tc_id.
    """

    kind = "dc"
    hello_type = Hello

    def __init__(
        self,
        name: str,
        config: Optional[DcConfig] = None,
        metrics: Optional[Metrics] = None,
        journal_path: str = "",
        request_timeout_s: float = 30.0,
        listen_path: str = "",
        socket_path: str = "",
    ) -> None:
        self.config = config
        self.journal_path = journal_path
        self.socket_path = socket_path
        #: Listener address the server additionally binds ("" = parent
        #: pipe only): a Unix socket path, or ``tcp://host:port`` for the
        #: TCP data plane (port 0 = ephemeral; the resolved address is
        #: pinned back here from the Hello).  TC server processes connect
        #: here in connect mode — the TC service tier (§16) shares one DC
        #: process among many TC processes this way.
        self.listen_path = listen_path
        #: Restart listeners ``fn(dc)``, fired by :meth:`prompt_redo` after
        #: the per-registration prompts.  The TC service deployment hooks
        #: these to forward the §5.2.1 redo prompt to its TC *processes*
        #: (which hold their own connections to the restarted server).
        self.restart_listeners: list[Callable[["RemoteDc"], None]] = []
        #: tc_id -> callbacks, kept client-side and re-installed (via
        #: :class:`RegisterTc`) on every restart of the server process.
        self._registrations: dict[int, dict] = {}
        #: Catalog only: no structure, as records are reached by messages.
        self._tables: dict[str, TableHandle] = {}
        super().__init__(name, metrics, request_timeout_s)

    # -- lifecycle ----------------------------------------------------------

    def _spawn(self) -> ServerProcess:
        if not self.journal_path:
            raise ReproError("RemoteDc needs a journal_path (the DC's volume)")
        return ServerProcess(
            dcserver._DcServer,
            (self.name, self.config, self.journal_path),
            f"repro-dc-{self.name}",
            self.listen_path,
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
                self._tables[name] = TableHandle(
                    TableDescriptor(name=name, kind=kind, versioned=versioned), None
                )

    def recover(self, notify_tcs: bool = True) -> dict[str, object]:
        """Restart the server on the same journal (connect mode:
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

    def table(self, name: str) -> TableHandle:
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
