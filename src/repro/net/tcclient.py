"""Client side of the TC service tier: proxy and transaction handle.

One layer up the stack from :mod:`repro.net.process`, whose
:class:`~repro.net.process.ServerProxy` carries the connection (spawn or
connect, hello, codec negotiation, down-detection, messaging, close):

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
from typing import Optional

from repro.common.api import Message
from repro.common.config import TcConfig
from repro.common.errors import (
    CrashedError,
    ReproError,
    TcRedirect,
    TransactionAborted,
)
from repro.common.ops import ReadFlavor
from repro.net import tcserver
from repro.net.process import ServerProcess, ServerProxy
from repro.net.rpc import RemoteError, StatsRequest
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
from repro.net.transport import Transport
from repro.sim.metrics import Metrics
from repro.tc.transactional_component import TransactionState


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

    **A decided commit costs no round trip either.**  When the server's
    hello said its concurrency control cannot veto a read-only commit
    (2PL), a transaction that sent no write commits with a one-way
    ``TxnCommit`` (:meth:`commit`).
    """

    #: Deferred-write acks in flight before a forced drain — bounds both
    #: client memory and the size of one coalesced burst.
    _MAX_PENDING = 64

    def __init__(self, tc: "RemoteTc") -> None:
        self._tc = tc
        #: 0 = nothing sent yet; negative = the client-chosen handle;
        #: positive = the server's transaction id.
        self.txn_id = 0
        #: The connection the handle was chosen on.  Neither the handle
        #: nor the server's id means anything on any other: the server
        #: incarnation that held the transaction is gone, its restart
        #: undid it, and the next incarnation may hand the same id out.
        self._link: Optional[Transport] = None
        self.state = TransactionState.ACTIVE
        #: A non-commit reply was lost: the server-side transaction may
        #: still be open (locks held, writes applied), so the abort must
        #: still be delivered even though this handle is done.
        self._reply_lost = False
        #: Reply slots of pipelined (deferred) writes: sent coalesced,
        #: drained before any dependent operation so errors (aborts,
        #: redirects) surface no later than the §4.2.1 contracts allow.
        self._pending: list = []
        #: A write (deferred or not) was sent: the commit must be asked.
        self._wrote = False

    # -- plumbing -----------------------------------------------------------

    def _orphaned(self) -> bool:
        return self.txn_id != 0 and self._link is not self._tc._transport

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
        self._wrote = True
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
        )
        if deferred:
            # Client-side pipelining: buffer the frame (coalesced into one
            # write with its neighbors) and keep going; the ack is
            # collected at the next drain point.  The server queues the op
            # in its envelope like any other write.
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
        if self.txn_id == 0 and self.state is TransactionState.ACTIVE:
            # Nothing was sent: there is no server transaction to commit.
            self.state = TransactionState.COMMITTED
            return
        self._check_active()
        if self.txn_id > 0 and not self._wrote and self._tc.read_only_commit_decided:
            # Decided already: the commit cannot fail and only releases
            # read locks, so nothing waits for it.  The server serves it
            # before this connection's next request.  A failed write takes
            # the connection down as usual, and for a transaction that
            # wrote nothing, presumed abort is the same outcome.
            self._link.push(TxnCommit(tc_id=self._tc.tc_id, txn_id=self.txn_id))
            self.state = TransactionState.COMMITTED
            return
        try:
            self._drain()
        except (TransactionAborted, CrashedError):
            raise  # the server already ended it / died holding it
        except ReproError as exc:
            # A pipelined write failed and no commit was sent, so the
            # outcome is determinate: roll back what the server still
            # holds open (as the TC's own ``commit`` does when its sync
            # fails) rather than leave the caller a half-applied
            # transaction it cannot tell from an indeterminate commit.
            try:
                self.abort()
            except ReproError:
                pass  # the server's disconnect / restart path owns it now
            if isinstance(exc, TcRedirect):
                raise  # routing information: the caller retries elsewhere
            raise TransactionAborted(
                self.txn_id, f"commit abandoned: {exc}"
            ) from exc
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


class RemoteTc(ServerProxy):
    """Proxy for a TC server process; drop-in for the TC's app surface.

    In spawn mode ``restart()`` respawns the server on the same journal
    with the current DC map and ownership grants, and the server runs the
    §5.3.2 record/page-reset protocol before its hello: the TC's *log
    journal* outlives the process, which turns ``kill -9`` into a
    recovery event instead of lost commits.  Connect mode attaches to a
    ``python -m repro serve-tc`` server and refuses lifecycle calls.
    """

    kind = "tc"
    hello_type = TcHello

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
        request_timeout_s: float = 30.0,
        socket_path: str = "",
    ) -> None:
        self.tc_id = tc_id
        self.journal_path = journal_path
        self.dcs = dict(dcs or {})
        self.config = config
        #: Ownership grants, kept client-side so a respawn re-installs the
        #: exact partition map the router is still using.
        self.grants: list = list(grants or [])
        self.sharing_mode = sharing_mode
        self.socket_path = socket_path
        self.connect_retry_s = request_timeout_s
        self.last_recovered = False
        super().__init__(name, metrics, request_timeout_s)

    # -- lifecycle ----------------------------------------------------------

    def _spawn(self) -> ServerProcess:
        if not self.journal_path:
            raise ReproError("RemoteTc needs a journal_path (the TC's log volume)")
        return ServerProcess(
            tcserver.serve,
            (
                self.name,
                self.tc_id,
                self.config,
                self.journal_path,
                dict(self.dcs),
                list(self.grants),
                self.sharing_mode,
                self.request_timeout_s,
            ),
            f"repro-tc-{self.name}",
        )

    def _no_hello(self, exc: ReproError) -> ReproError:
        if self._process is None:
            return exc
        # The child either never came up or died inside §5.3.2 restart
        # (e.g. a DC it must redo against is also down).  Mark crashed
        # so the supervisor's heal loop retries after the DCs heal.
        with self._lock:
            already = self._crashed
            self._crashed = True
            self._down_handled = True
        if not already:
            self.metrics.incr("remote_tc.failed_restarts")
        return CrashedError(f"TC {self.name} (restart failed)")

    def _adopt_hello(self, hello: TcHello) -> None:
        self.last_recovered = hello.recovered
        self.read_only_commit_decided = hello.read_only_commit_decided
        #: Transaction handles are local to one connection (and so to
        #: one server incarnation): a new connection counts from 1 again.
        self._handles = itertools.count(1)

    def crash(self) -> int:
        """SIGKILL the server process — a real fail-stop.

        Returns 0 for surface parity with ``TransactionalComponent.crash``
        (the in-memory tail-loss count); here nothing acknowledged is ever
        lost — that is the :class:`~repro.net.tcserver.DurableTcLog`
        contract — and the unacknowledged tail has no client-side count.
        """
        super().crash()
        return 0

    def restart(self, reset_mode: object = None) -> dict[str, object]:
        """Respawn on the same journal; §5.3.2 runs server-side pre-hello.

        ``reset_mode`` exists for surface parity with the in-process TC's
        ``restart(reset_mode)``; the server always record-resets (the
        tier's DCs are shared, so page-granularity reset is never safe).
        """
        self._owned("restart")
        self._reopen()
        return {
            "restarted": True,
            "pid": self.last_pid,
            "recovered": self.last_recovered,
            "restarts": self.restarts,
        }

    # -- messaging ----------------------------------------------------------

    def _lost(self, message: Message) -> ReproError:
        return CrashedError(f"TC {self.name}")

    def _remote_error(self, reply: RemoteError) -> ReproError:
        if reply.kind in ("CrashedError", "ComponentUnavailableError"):
            return CrashedError(f"TC {self.name}: {reply.text}")
        return super()._remote_error(reply)

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
