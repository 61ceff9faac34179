"""Client side of the TC service tier: proxy, transaction handle, process.

The mirror image of :mod:`repro.net.process`, one layer up the stack:

- :class:`TcProcess` — the OS-process lifecycle for a
  :func:`repro.net.tcserver.serve` child.  The TC's *log journal* path
  outlives the process, which is what turns ``kill -9`` into a §5.3.2
  recovery event instead of lost commits.
- :class:`RemoteTc` — a proxy exposing the application-facing surface of
  :class:`~repro.tc.transactional_component.TransactionalComponent`
  (``begin`` / ``read_other`` / ``scan_other`` / ``checkpoint`` /
  ``stats`` / ``crash`` / ``restart`` / ``pending_zombies`` /
  ``retry_pending``) so workloads, the kernel and the supervisor run
  unchanged against a TC that lives in another process.
- :class:`RemoteTransaction` — the :class:`~repro.tc.
  transactional_component.Transaction` surface (insert/update/delete/
  increment/read/scan/sync/commit/abort, abort-on-error context manager)
  over :class:`~repro.net.tcrpc` messages.

Failure mapping follows the conventions the rest of the repo already
uses: a lost reply (server SIGKILLed mid-request) surfaces as
:class:`~repro.common.errors.CrashedError` — for a commit that is the
honest *indeterminate* outcome the chaos harness classifies; a
server-side :class:`~repro.common.errors.TransactionAborted` or deadlock
comes back as a typed ``RemoteError`` and is re-raised as
``TransactionAborted`` here; a Section 6 misroute comes back as a
:class:`~repro.net.tcrpc.Redirect` payload and is raised as
:class:`~repro.common.errors.TcRedirect` naming the owning TC — the
router's retry contract.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import threading
from typing import Callable, Optional

from repro.common.api import Message
from repro.common.config import TcConfig
from repro.common.errors import (
    CrashedError,
    ReproError,
    TcRedirect,
    TransactionAborted,
)
from repro.common.ops import ReadFlavor
from repro.net import tcserver, wire
from repro.net.process import (
    ReplyTimeout,
    _Slot,
    _Transport,
    connect_with_retry,
    default_start_method,
    wait_hello,
)
from repro.net.rpc import (
    NegotiateCodec,
    RemoteError,
    Shutdown,
    StatsRequest,
)
from repro.net.tcrpc import (
    DcRestarted,
    GrantOwnership,
    ReadOther,
    Redirect,
    RefreshRoutes,
    ScanOther,
    SharingMode,
    TcCheckpoint,
    TcHello,
    TcRetryPending,
    TxnAbort,
    TxnCommit,
    TxnRead,
    TxnScan,
    TxnSync,
    TxnWrite,
)
from repro.sim.metrics import Metrics
from repro.tc.transactional_component import TransactionState


class TcProcess:
    """One spawned TC server process and its pipe."""

    def __init__(
        self,
        name: str,
        tc_id: int,
        tc_config: Optional[TcConfig],
        journal_path: str,
        dc_socks: dict[str, str],
        grants: Optional[list] = None,
        sharing_mode: str = "",
        start_method: str = "",
        request_timeout_s: float = 30.0,
        fast_codec: bool = True,
    ) -> None:
        method = start_method or default_start_method()
        ctx = mp.get_context(method)
        self.conn, child_conn = ctx.Pipe()
        self.process = ctx.Process(
            target=tcserver.serve,
            args=(
                child_conn,
                name,
                tc_id,
                tc_config,
                journal_path,
                dict(dc_socks),
                list(grants or []),
                sharing_mode,
                request_timeout_s,
                fast_codec,
            ),
            name=f"repro-tc-{name}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid

    def kill(self) -> None:
        """SIGKILL; the fd stays open until the transport closes it
        (same fd-reuse hazard as :class:`~repro.net.process.
        DcProcess.kill`)."""
        if self.process.is_alive():
            self.process.kill()
        self.process.join()

    def join(self, timeout: Optional[float] = None) -> None:
        self.process.join(timeout)


class RemoteTransaction:
    """Client handle for one transaction living in a TC server process.

    Mirrors :class:`~repro.tc.transactional_component.Transaction`:
    the same method surface, the same terminal-state discipline, the same
    abort-on-error context manager — workloads cannot tell them apart.

    **Opening costs no round trip** (docs/architecture.md §16): the
    server opens the transaction when its first request arrives.  That
    request — and any pipelined behind it — names the transaction by a
    handle this client chose (a negative number, local to the
    connection); the first reply carries the server's id and
    :attr:`txn_id` switches to it.  Whatever happens to that first
    request (typed error, redirect, lost reply), :meth:`abort` can still
    name the transaction.
    """

    #: Deferred-write acks in flight before a forced drain — bounds both
    #: client memory and the size of one coalesced burst.
    _MAX_PENDING = 64

    def __init__(self, tc: "RemoteTc") -> None:
        self._tc = tc
        #: 0 = nothing sent yet; negative = the client-chosen handle;
        #: positive = the server's transaction id.
        self.txn_id = 0
        #: The connection the handle was chosen on.  Handles mean nothing
        #: on any other: the server incarnation that held the
        #: transaction is gone, and its restart undid it.
        self._link: Optional[_Transport] = None
        self.state = TransactionState.ACTIVE
        #: A non-commit reply was lost: the server-side transaction may
        #: still be open (locks held, writes applied), so the abort must
        #: still be delivered even though this handle is done.
        self._reply_lost = False
        #: Reply slots of pipelined (deferred) writes: sent coalesced,
        #: drained before any dependent operation so errors (aborts,
        #: redirects) surface no later than the §4.2.1 contracts allow.
        self._pending: list = []

    # -- plumbing -----------------------------------------------------------

    def _orphaned(self) -> bool:
        return self.txn_id < 0 and self._link is not self._tc._transport

    def _check_active(self) -> None:
        """Refuse a finished handle; before the first request, choose
        the handle that names the transaction until the server's id is
        known."""
        if self._orphaned():
            self.state = TransactionState.ABORTED
        if self.state is not TransactionState.ACTIVE:
            raise TransactionAborted(self.txn_id, f"transaction is {self.state.value}")
        if self.txn_id == 0:
            self._link = self._tc._transport
            self.txn_id = -next(self._tc._handles)

    def _call(self, message: Message, commit_stage: bool = False) -> Message:
        return self._accept(self._tc.call(message), commit_stage)

    def _accept(self, reply: object, commit_stage: bool = False) -> Message:
        if reply is None:
            # Lost reply: the server died (or timed out) with the request
            # possibly applied.  For commit that is the indeterminate
            # outcome §4.2 allows; either way this handle is unusable.
            if not commit_stage:
                self.state = TransactionState.ABORTED
                self._reply_lost = True
            raise CrashedError(f"TC {self._tc.name}")
        if isinstance(reply, Redirect):
            raise TcRedirect(reply.table, reply.key, reply.owner)
        if isinstance(reply, RemoteError):
            if reply.kind in ("TransactionAborted", "DeadlockError", "LockTimeoutError"):
                self.state = TransactionState.ABORTED
                raise TransactionAborted(self.txn_id, reply.text)
            raise ReproError(f"TC {self._tc.name}: {reply.kind}: {reply.text}")
        if self.txn_id < 0 and reply.txn_id > 0:
            self.txn_id = reply.txn_id  # the first reply: the server's id
        return reply

    def _drain(self, lenient: bool = False) -> None:
        """Flush the coalesced writes and collect every pipelined ack.

        Runs before any read/scan/sync/commit (and any non-deferred
        write), so a deferred write's failure — server-side abort,
        Section 6 redirect, lost reply — surfaces at the first point
        whose outcome could depend on it.  ``lenient`` (abort path)
        only reaps the slots: the abort itself is the answer.
        """
        if not self._pending:
            return
        slots, self._pending = self._pending, []
        self._tc.flush()
        failure: Optional[BaseException] = None
        for slot in slots:
            reply = self._tc.collect(slot)
            if lenient or failure is not None:
                continue  # keep reaping so no slot is left un-awaited
            try:
                self._accept(reply)
            except ReproError as exc:
                failure = exc
        if failure is not None:
            raise failure

    def _write(
        self,
        verb: str,
        table: str,
        key: object,
        value: object = None,
        delta: object = 0,
        deferred: bool = False,
    ) -> None:
        self._check_active()
        if not deferred:
            self._drain()
        message = TxnWrite(
            tc_id=self._tc.tc_id,
            txn_id=self.txn_id,
            verb=verb,
            table=table,
            key=key,
            value=value,
            delta=delta,
            deferred=deferred,
        )
        if deferred:
            # Client-side pipelining: buffer the frame (coalesced into one
            # write with its neighbors) and keep going; the ack is
            # collected at the next drain point.  The server applies
            # its own deferred/batched path to the op, so both hops of
            # the §4.2.1 round trip shrink.
            self._pending.append(self._tc.submit(message, defer=True))
            if len(self._pending) >= self._MAX_PENDING:
                self._drain()
            return
        self._call(message)

    # -- operations ---------------------------------------------------------

    def insert(self, table: str, key, value, deferred: bool = False) -> None:
        self._write("insert", table, key, value=value, deferred=deferred)

    def update(self, table: str, key, value, deferred: bool = False) -> None:
        self._write("update", table, key, value=value, deferred=deferred)

    def delete(self, table: str, key, deferred: bool = False) -> None:
        self._write("delete", table, key, deferred=deferred)

    def increment(self, table: str, key, delta, deferred: bool = False) -> None:
        self._write("increment", table, key, delta=delta, deferred=deferred)

    def read(self, table: str, key):
        self._check_active()
        self._drain()
        reply = self._call(
            TxnRead(tc_id=self._tc.tc_id, txn_id=self.txn_id, table=table, key=key)
        )
        return reply.value if reply.found else None

    def scan(self, table: str, low=None, high=None, limit: Optional[int] = None):
        self._check_active()
        self._drain()
        reply = self._call(
            TxnScan(
                tc_id=self._tc.tc_id,
                txn_id=self.txn_id,
                table=table,
                low=low,
                high=high,
                limit=limit or 0,
            )
        )
        return [tuple(row) for row in reply.rows]

    def sync(self) -> None:
        self._check_active()
        self._drain()
        self._call(TxnSync(tc_id=self._tc.tc_id, txn_id=self.txn_id))

    def commit(self) -> None:
        self._check_active()
        self._drain()
        self._call(
            TxnCommit(tc_id=self._tc.tc_id, txn_id=self.txn_id), commit_stage=True
        )
        self.state = TransactionState.COMMITTED

    def abort(self) -> None:
        if self.state is not TransactionState.ACTIVE and not self._reply_lost:
            return
        self._reply_lost = False
        if self.txn_id == 0 or self._orphaned():
            # Nothing was sent, or the server that held it is gone (its
            # restart undid the transaction): nothing to deliver.
            self.state = TransactionState.ABORTED
            return
        # Pipelined writes no longer matter individually — the abort is
        # the answer — but their slots must still be reaped (and the
        # coalescing buffer flushed so the server sees the ops this abort
        # is about to undo in order before the TxnAbort itself).
        try:
            self._drain(lenient=True)
        except ReproError:
            pass
        # After a lost reply the server's transaction may still be open;
        # the server treats an abort of an unknown transaction as already
        # aborted (presumed abort), so delivering it is always safe.
        self._call(TxnAbort(tc_id=self._tc.tc_id, txn_id=self.txn_id))
        self.state = TransactionState.ABORTED

    # -- context manager: abort-on-error safety net --------------------------

    def __enter__(self) -> "RemoteTransaction":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        if self.state is TransactionState.ACTIVE:
            if exc_type is None:
                self.commit()
            else:
                try:
                    self.abort()
                except ReproError:
                    pass  # the original exception matters more
        elif self._reply_lost:
            try:
                self.abort()
            except ReproError:
                pass


class RemoteTc:
    """Proxy for a TC server process; drop-in for the TC's app surface.

    Two modes:

    - **spawn mode** (default): this proxy owns the child process —
      ``crash()`` SIGKILLs it and ``restart()`` respawns it on the same
      journal with the current DC map and ownership grants, running the
      §5.3.2 record/page-reset protocol server-side before hello.
    - **connect mode** (``socket_path`` set): attach to an externally
      managed ``python -m repro serve-tc`` server; lifecycle calls are
      refused, everything else is identical.
    """

    def __init__(
        self,
        name: str,
        tc_id: int,
        journal_path: str = "",
        dcs: Optional[dict[str, str]] = None,
        config: Optional[TcConfig] = None,
        metrics: Optional[Metrics] = None,
        grants: Optional[list] = None,
        sharing_mode: str = "",
        start_method: str = "",
        request_timeout_s: float = 30.0,
        socket_path: str = "",
        fast_codec: bool = True,
    ) -> None:
        self.name = name
        self.tc_id = tc_id
        #: Negotiate the fast-path codec with the server (False simulates
        #: a tagged-only client; the wire stays interoperable either way).
        self.fast_codec = fast_codec
        self.journal_path = journal_path
        self.dcs = dict(dcs or {})
        self.config = config
        self.metrics = metrics or Metrics()
        #: Ownership grants, kept client-side so a respawn re-installs the
        #: exact partition map the router is still using.
        self.grants: list = list(grants or [])
        self.sharing_mode = sharing_mode
        self.start_method = start_method
        self.request_timeout_s = request_timeout_s
        self.socket_path = socket_path
        #: Crash listeners ``fn(name, kind)`` — the supervisor subscribes.
        self.on_crash: list[Callable[[str, str], None]] = []
        self._lock = threading.Lock()
        self._crashed = False
        self._down_handled = False
        self._closing = False
        self.restarts = 0
        self.last_pid: Optional[int] = None
        self.last_recovered = False
        self._process: Optional[TcProcess] = None
        self._start()

    # -- lifecycle ----------------------------------------------------------

    def _start(self) -> None:
        if self.socket_path:
            self._connect()
            return
        if not self.journal_path:
            raise ReproError("RemoteTc needs a journal_path (the TC's log volume)")
        self._process = TcProcess(
            self.name,
            self.tc_id,
            self.config,
            self.journal_path,
            self.dcs,
            self.grants,
            self.sharing_mode,
            self.start_method,
            self.request_timeout_s,
            self.fast_codec,
        )
        try:
            hello = wait_hello(
                self._process.conn, TcHello, f"TC {self.name}", process=self._process
            )
        except ReproError:
            # The child either never came up or died inside §5.3.2 restart
            # (e.g. a DC it must redo against is also down).  Mark crashed
            # so the supervisor's heal loop retries after the DCs heal.
            self._mark_crashed_for_failed_start()
            raise CrashedError(f"TC {self.name} (restart failed)")
        self._adopt_hello(hello, self._process.conn)

    def _connect(self) -> None:
        conn = connect_with_retry(
            self.socket_path, f"TC {self.name}", self.request_timeout_s
        )
        hello = wait_hello(
            conn,
            TcHello,
            f"TC {self.name} on {self.socket_path}",
            self.request_timeout_s,
        )
        self._adopt_hello(hello, conn)

    def _adopt_hello(self, hello: TcHello, conn) -> None:
        self.last_pid = hello.pid
        self.last_recovered = hello.recovered
        self._conn = conn
        self._down_handled = False
        fast = wire.negotiate(hello.fast_codec) if self.fast_codec else {}
        #: Transaction handles are local to one connection (and so to
        #: one server incarnation): a new connection counts from 1 again.
        self._handles = itertools.count(1)
        self._transport = _Transport(
            conn,
            on_server_request=self._reject_server_request,
            on_push=lambda _message: None,
            on_down=self._note_down,
            fast=fast,
        )
        if fast:
            # Enable the server->client leg; re-negotiated from scratch
            # after every restart/reconnect, so a respawned tagged-only
            # server (version skew) degrades the wire instead of breaking.
            self.control(NegotiateCodec(tc_id=self.tc_id, vocab=wire.fast_vocabulary()))

    def _reject_server_request(self, message: Message) -> Message:
        raise ReproError(f"unexpected server request from TC: {message!r}")

    def _mark_crashed_for_failed_start(self) -> None:
        with self._lock:
            already = self._crashed
            self._crashed = True
            self._down_handled = True
        if not already:
            self.metrics.incr("remote_tc.failed_restarts")

    def _note_down(self) -> None:
        fire = False
        with self._lock:
            if not self._down_handled:
                self._down_handled = True
                if not self._closing:
                    self._crashed = True
                    fire = True
        if fire:
            self.metrics.incr("remote_tc.process_deaths")
            for listener in list(self.on_crash):
                listener(self.name, "tc")

    @property
    def crashed(self) -> bool:
        if (
            not self._crashed
            and not self._closing
            and self._process is not None
            and not self._process.alive
        ):
            self._note_down()
        return self._crashed

    @property
    def pid(self) -> Optional[int]:
        return self._process.pid if self._process is not None else self.last_pid

    def crash(self) -> int:
        """SIGKILL the server process — a real fail-stop.

        Returns 0 for surface parity with ``TransactionalComponent.crash``
        (the in-memory tail-loss count); here nothing acknowledged is ever
        lost — that is the :class:`~repro.net.tcserver.DurableTcLog`
        contract — and the unacknowledged tail has no client-side count.
        """
        if self._process is None:
            raise ReproError(f"TC {self.name} is externally managed; cannot crash it")
        self._process.kill()
        self._note_down()
        return 0

    def restart(self, reset_mode: object = None) -> dict[str, object]:
        """Respawn on the same journal; §5.3.2 runs server-side pre-hello.

        ``reset_mode`` exists for surface parity with the in-process TC's
        ``restart(reset_mode)``; the server always record-resets (the
        tier's DCs are shared, so page-granularity reset is never safe).
        """
        if self._process is None:
            raise ReproError(f"TC {self.name} is externally managed; cannot restart it")
        if self._process.alive:
            self._process.kill()
        self._transport.close()
        self._start()
        self._crashed = False
        self.restarts += 1
        self.metrics.incr("remote_tc.restarts")
        return {
            "restarted": True,
            "pid": self.last_pid,
            "recovered": self.last_recovered,
            "restarts": self.restarts,
        }

    def shutdown(self) -> None:
        self._closing = True
        try:
            self.call(Shutdown(tc_id=self.tc_id), timeout=5.0)
        except ReproError:
            pass
        if self._process is not None:
            self._process.join(5.0)
            self._process.kill()
            self._transport.close()
        else:
            try:
                self._conn.close()
            except OSError:
                pass
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
        """Await one submitted request; ``None`` = lost (timeout or a
        dead connection)."""
        try:
            return slot.result(
                timeout if timeout is not None else self.request_timeout_s
            )
        except ReplyTimeout:
            self.metrics.incr("remote_tc.request_timeouts")
            return None

    def call(self, message: Message, timeout: Optional[float] = None) -> object:
        return self.collect(self._transport.submit(message), timeout)

    def control(self, message: Message, timeout: Optional[float] = None) -> Message:
        reply = self.call(message, timeout)
        if reply is None:
            raise CrashedError(f"TC {self.name}")
        if isinstance(reply, RemoteError):
            if reply.kind in ("CrashedError", "ComponentUnavailableError"):
                raise CrashedError(f"TC {self.name}: {reply.text}")
            raise ReproError(f"TC {self.name}: {reply.kind}: {reply.text}")
        return reply

    # -- the TransactionalComponent app surface ------------------------------

    def begin(self) -> RemoteTransaction:
        """A transaction handle; nothing is sent — the server opens the
        transaction when its first request arrives."""
        return RemoteTransaction(self)

    def read_other(self, table: str, key, flavor=ReadFlavor.READ_COMMITTED):
        reply = self.control(
            ReadOther(tc_id=self.tc_id, table=table, key=key, flavor=flavor)
        )
        return reply.value if reply.found else None

    def scan_other(
        self,
        table: str,
        low=None,
        high=None,
        limit: Optional[int] = None,
        flavor=ReadFlavor.READ_COMMITTED,
    ):
        reply = self.control(
            ScanOther(
                tc_id=self.tc_id,
                table=table,
                low=low,
                high=high,
                limit=limit or 0,
                flavor=flavor,
            )
        )
        return [tuple(row) for row in reply.rows]

    def checkpoint(self) -> bool:
        return self.control(TcCheckpoint(tc_id=self.tc_id)).advanced

    def stats(self) -> dict[str, object]:
        return self.control(StatsRequest(tc_id=self.tc_id)).payload

    def pending_zombies(self) -> int:
        """Supervisor surface; 0 while the process is down (nothing can be
        retried until :meth:`restart` anyway)."""
        if self.crashed:
            return 0
        reply = self.call(StatsRequest(tc_id=self.tc_id))
        if reply is None or isinstance(reply, RemoteError):
            return 0
        return int(reply.payload.get("pending_zombies", 0))

    def retry_pending(self) -> None:
        self.control(TcRetryPending(tc_id=self.tc_id))

    # -- deployment control plane --------------------------------------------

    def notify_dc_restart(self, dc_name: str) -> None:
        """Forward a DC heal to the server so it reconnects and re-drives
        the §5.2.1 redo prompt over its own socket.  Raises
        :class:`CrashedError` when this TC is itself down — the supervisor
        keeps the prompt queued and retries after healing the TC."""
        self.control(DcRestarted(tc_id=self.tc_id, dc_name=dc_name))

    def refresh_routes(self, dc) -> None:
        dc_name = dc if isinstance(dc, str) else dc.name
        self.control(RefreshRoutes(tc_id=self.tc_id, dc_name=dc_name))

    def grant(
        self, table: str, modulus: int, residues: tuple, owners: tuple
    ) -> None:
        """Install (and remember) a Section 6 ownership grant."""
        grant = (table, int(modulus), tuple(residues), tuple(owners))
        with self._lock:
            self.grants = [g for g in self.grants if g[0] != table] + [grant]
        self.control(GrantOwnership(
            tc_id=self.tc_id,
            table=table,
            modulus=int(modulus),
            residues=tuple(residues),
            owners=tuple(owners),
        ))

    def set_sharing_mode(self, mode: str) -> None:
        self.sharing_mode = mode
        self.control(SharingMode(tc_id=self.tc_id, mode=mode))
