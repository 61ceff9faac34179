"""The TC server: one transactional component living in its own OS process.

This is the paper's unbundling completed end-to-end (docs/architecture.md
§16): DCs became processes in the process deployment mode; here the TC —
the last component still living in the client's address space — becomes
one too.  :class:`_TcServer` is its server core;
:func:`~repro.net.server.serve` runs it behind
:class:`~repro.net.tcclient.RemoteTc` (on the parent pipe) and behind
the standalone ``python -m repro serve-tc`` CLI (on a listener).

The server builds an ordinary
:class:`~repro.tc.transactional_component.TransactionalComponent` whose
log is a :class:`DurableTcLog` — the same logical TcLog, but every force
persists the newly-stable suffix to a CRC'd journal *before* the stable
boundary advances.  That ordering is the whole §5.3.2 story for a TC
process: EOSL is what commit acknowledgement waits on (group-commit
riders poll it), so nothing is ever acknowledged that a ``kill -9`` could
lose.  A respawned server replays the journal, then runs the TC restart
protocol (record reset at LSNst, redo of the stable stream, undo of
losers) against its DCs *before* saying hello — mid-commit kills converge
via journal replay + per-op abLSN idempotence, exactly like the
in-process crash/restart path.

The server talks to its DC pool through connect-mode
:class:`~repro.net.process.RemoteDc` proxies over the DCs' sockets —
real processes on both sides of every §4.2.1 interaction, with the
force-log causality gate bridged per connection by the DC server.

Ownership (Section 6) arrives as stable-hash partition grants: the TC
owns key ``k`` of a granted table iff ``stable_key_hash(k) % modulus`` is
one of its residues.  A write for a partition it does not own is bounced
with a :class:`~repro.net.tcrpc.Redirect` naming the owner — the router's
retryable misroute contract — before the mutation path is ever entered.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.common.api import ControlAck, Message
from repro.common.config import ChannelConfig, TcConfig
from repro.common.errors import ComponentUnavailableError, ReproError
from repro.common.lsn import Lsn, NULL_LSN
from repro.common.ops import ReadFlavor
from repro.cloud.partitioning import stable_key_hash
from repro.net import wire
from repro.net.eventloop import Peer
from repro.net.journal import JournalFile, frame_bytes, read_frames
from repro.net.process import RemoteDc
from repro.net.server import Server
from repro.net.tcrpc import (
    AttachDc,
    DcRestarted,
    GrantOwnership,
    ReadOther,
    Redirect,
    RefreshRoutes,
    ScanOther,
    SharingMode,
    TcCheckpoint,
    TcCheckpointReply,
    TcHello,
    TcRetryPending,
    TxnAbort,
    TxnAck,
    TxnCommit,
    TxnRead,
    TxnReadReply,
    TxnScan,
    TxnScanReply,
    TxnSync,
    TxnWrite,
)
from repro.sim.metrics import Metrics
from repro.tc.log import TcLog, TcLogRecord
from repro.tc.transactional_component import (
    TransactionalComponent,
    TransactionState,
)


class _RecordJournal(JournalFile):
    """Append-only CRC'd frame journal for TC log records.

    Same frames, reader, file and durability contract as the DC's
    :class:`~repro.net.journal.JournalStorage`: write + flush per frame
    (the OS page cache survives a child SIGKILL; only whole-machine
    failure is out of scope), CRC per frame, a torn tail discarded on
    replay — the paper's torn-write-is-no-write assumption — and damage
    with a whole frame after it a :class:`JournalCorruptError` that leaves
    the file alone (the server dies before its hello).  Frames are
    ``("records", [...])`` batches (one per log force) and
    ``("meta", truncated_upto)`` markers; checkpoint-driven truncation
    swaps in a file of live state (:meth:`JournalFile.swap`).
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.truncated_upto: Lsn = NULL_LSN
        self.records: list[TcLogRecord] = []
        self._replay()
        self.replayed = bool(self.records) or self.truncated_upto != NULL_LSN
        super().__init__(path)

    def _replay(self) -> None:
        for tag, payload in read_frames(self.path):
            if tag == "meta":
                self.truncated_upto = payload
            elif tag == "records":
                self.records.extend(payload)

    def append_records(self, records: list[TcLogRecord]) -> None:
        self.append(frame_bytes("records", list(records)))

    def rewrite(self, truncated_upto: Lsn, records: list[TcLogRecord]) -> None:
        """Replace history with live state; raises ``OSError`` with the old
        journal still taking appends."""
        frames = [frame_bytes("meta", truncated_upto)]
        if records:
            frames.append(frame_bytes("records", list(records)))
        self.swap(frames)


class DurableTcLog(TcLog):
    """A TcLog whose stable prefix really is stable.

    The in-memory TcLog *models* stability with a counter; here the
    boundary only advances after the newly-stable suffix is journaled.
    Both happen under the log mutex, so a group-commit rider polling
    ``eosl`` can never observe a commit record as stable before its frame
    is on the journal — acknowledge-after-force survives ``kill -9``
    between any two instructions.  How far a force reaches is the base
    class's decision (never past a record whose before-image is still
    owed); this class only supplies the journal write (:meth:`_harden`).

    Checkpoint truncation (:meth:`truncate_below`) rewrites the journal as
    live state and persists ``truncated_upto`` in a meta frame.  That meta
    frame is load-bearing: replaying an empty record list *without* it
    would make restart send ``RestartBegin(stable_lsn=0)`` and record-level
    reset would erase checkpointed DC state that is in fact durable.  A
    rewrite that fails is counted (``tclog.rewrite_failures``) and
    otherwise ignored: the old journal keeps every record the new one
    would hold, so a restart merely replays more of them.
    """

    def __init__(self, journal: _RecordJournal, metrics: Optional[Metrics] = None):
        super().__init__(metrics)
        self._journal = journal
        self.replayed = journal.replayed
        if journal.replayed:
            self._records = list(journal.records)
            self._stable_count = len(self._records)
            self._truncated_upto = journal.truncated_upto
            self.recover_lsn_generator()

    def _harden(self, records: list) -> None:
        self._journal.append_records(records)
        self.metrics.incr("tclog.journal_forces")

    def truncate_below(self, point: Lsn) -> int:
        dropped = super().truncate_below(point)
        if dropped:
            with self._mutex:
                try:
                    self._journal.rewrite(
                        self._truncated_upto, self._records[: self._stable_count]
                    )
                except OSError:
                    self.metrics.incr("tclog.rewrite_failures")
        return dropped


def _logical(table: str) -> str:
    return table.split("@", 1)[0]


class _Session:
    """One client connection's transaction handles (see :class:`_TcServer`)."""

    __slots__ = ("floor", "above", "open")

    def __init__(self) -> None:
        #: Every handle number up to here has been used ...
        self.floor = 0
        #: ... and so have these beyond it: two threads of one client may
        #: send their first requests out of handle order.
        self.above: set[int] = set()
        #: handle -> txn_id, while that transaction is open.
        self.open: dict[int, int] = {}

    def claim(self, number: int) -> bool:
        """Mark handle ``number`` used; False if it already was."""
        if number <= self.floor or number in self.above:
            return False
        self.above.add(number)
        while self.floor + 1 in self.above:
            self.floor += 1
            self.above.discard(self.floor)
        return True


class _TcServer(Server):
    """The TC's server core (framing, ordering and shutdown are
    :class:`~repro.net.server.Server`'s; connections are the driver's).

    The TC tier scales clients without growing threads: server thread
    count stays O(#DCs) — each DC connection keeps one background
    thread, so a DC's force-log request is served while a dispatch is
    running; replies from the DCs are read by the dispatching thread
    itself.

    **Who opens a transaction.**  There is no begin request: a client
    names a new transaction by a negative ``txn_id`` of its own choosing
    (a *handle*, local to its connection, counting 1, 2, 3, … downwards),
    and the first ``TxnWrite``/``TxnRead``/``TxnScan``/``TxnSync``/
    ``TxnCommit`` carrying a handle this connection has not used opens
    it.  Every reply carries the server's id; the handle keeps naming the
    transaction (for requests pipelined behind the first, and for the
    abort after a first request that failed or whose reply was lost)
    until it ends.  A handle is used once (:class:`_Session` remembers):
    naming an ended one is an unknown transaction, never a new one.  The
    server's id, too, names the transaction only on the connection that
    opened it; from any other it is an unknown transaction.

    Each client owns the transactions it opens; a client that disconnects
    mid-transaction gets its ACTIVE transactions aborted (presumed abort —
    the same outcome its crash would force at restart, taken eagerly so
    its locks don't outlive it).

    **One-way commits.**  Under 2PL a transaction that wrote nothing is
    decided once its last read is answered, so the hello says so and the
    client sends its ``TxnCommit`` as a ``PUSH`` frame: served in arrival
    order, answered by nothing (:meth:`_txn_commit_oneway`).
    """

    role = "tcserver"
    #: A *downstream* DC is dead, not this TC: the client's transaction
    #: is still open and abortable here, so the failure must travel as
    #: an error, never as silence — a lost-reply ABORTED client handle
    #: would strand the open transaction (and its applied writes) forever.
    reported_crashes = (ComponentUnavailableError,)

    def __init__(
        self,
        name: str,
        tc_id: int,
        tc_config: Optional[TcConfig],
        journal_path: str,
        dc_socks: dict[str, str],
        grants: Optional[list] = None,
        sharing_mode: str = "",
        request_timeout_s: float = 30.0,
        max_sessions: int = 0,
    ) -> None:
        self._name = name
        metrics = Metrics()
        self._journal = _RecordJournal(journal_path)
        log = DurableTcLog(self._journal, metrics)
        config = tc_config or TcConfig.optimized()
        self._tc = TransactionalComponent(
            tc_id=tc_id, config=config, metrics=metrics, log=log
        )
        self._channel_config = ChannelConfig(
            transport="process", request_timeout_s=request_timeout_s
        )
        self._clients: dict[str, RemoteDc] = {}
        for dc_name, socket_path in dict(dc_socks or {}).items():
            self._attach(dc_name, socket_path)
        #: logical table -> (modulus, residues, owners) — Section 6 grants.
        self._ownership: dict[str, tuple[int, frozenset, tuple]] = {}
        for grant in grants or []:
            self._install_grant(*grant)
        self._set_sharing_mode(sharing_mode or config.sharing_mode)
        self._txns: dict[int, object] = {}
        if log.replayed:
            # §5.3.2 TC failure, against a real journal: mark the TC
            # crashed (the log tail is already exactly the stable prefix)
            # and run restart — record reset at LSNst, redo of the stable
            # stream, undo of loser transactions — before the hello, so a
            # client never sees a half-recovered server.
            self._tc.crash()
            self._tc.restart()
        #: Client connection -> its handles (abort-on-disconnect walks
        #: the open ones).
        self._sessions: dict[Peer, _Session] = {}
        #: txn_id -> (connection, handle) that opened it, to drop the
        #: handle when the transaction ends.
        self._txn_origin: dict[int, tuple[Peer, int]] = {}
        #: Stop once this many socket sessions have ended (0 = never).
        self._max_sessions = max_sessions
        self._sessions_ended = 0
        #: Under a policy whose commit cannot veto a read-only
        #: transaction, its commit may arrive one-way (hello flag).
        self._decided = not self._tc.cc.commit_validates
        super().__init__(
            metrics,
            recovered=log.replayed,
            handlers={
                TxnWrite: self._txn_write,
                TxnRead: self._txn_read,
                TxnScan: self._txn_scan,
                TxnSync: self._txn_sync,
                TxnCommit: self._txn_commit,
                TxnAbort: self._txn_abort,
                ReadOther: self._read_other,
                ScanOther: self._scan_other,
                TcCheckpoint: self._checkpoint,
                DcRestarted: self._dc_restarted,
                RefreshRoutes: self._refresh_routes,
                AttachDc: self._attach_dc,
                GrantOwnership: self._grant_ownership,
                SharingMode: self._sharing_mode,
                TcRetryPending: self._retry_pending,
            },
            default=self._unhandled,
            oneway={TxnCommit: self._txn_commit_oneway} if self._decided else {},
        )
        # A TC that fail-stops at run time (``UndoImageLostError``) takes
        # its server with it: the journal is its stable log, and whoever
        # respawns the process gets the §5.3.2 restart above.
        self._tc.on_crash.append(lambda _name, _kind: self.driver.stop())

    # -- wiring -------------------------------------------------------------

    def _attach(self, dc_name: str, socket_path: str) -> None:
        client = RemoteDc(
            dc_name,
            socket_path=socket_path,
            metrics=self._tc.metrics,
            request_timeout_s=self._channel_config.request_timeout_s,
        )
        self._clients[dc_name] = client
        self._tc.attach_dc(client, self._channel_config)

    def _client(self, dc_name: str) -> RemoteDc:
        client = self._clients.get(dc_name)
        if client is None:
            raise ReproError(f"TC {self._name}: unknown DC {dc_name!r}")
        return client

    def _install_grant(
        self, table: str, modulus: int, residues: tuple, owners: tuple
    ) -> None:
        self._ownership[table] = (max(int(modulus), 1), frozenset(residues), tuple(owners))
        self._tc.ownership_guard = self._guard

    def _set_sharing_mode(self, mode: str) -> None:
        self._default_flavor = (
            ReadFlavor.DIRTY if mode == "dirty" else ReadFlavor.READ_COMMITTED
        )

    def _guard(self, table: str, key: object) -> bool:
        rule = self._ownership.get(_logical(table))
        if rule is None:
            return False
        modulus, residues, _owners = rule
        return stable_key_hash(key) % modulus in residues

    def _misroute_owner(self, table: str, key: object) -> Optional[str]:
        """The owning TC's name, when this server does *not* own the key."""
        if not self._ownership:
            return None
        rule = self._ownership.get(_logical(table))
        if rule is None:
            return None
        modulus, residues, owners = rule
        partition = stable_key_hash(key) % modulus
        if partition in residues:
            return None
        return owners[partition] if partition < len(owners) else ""

    # -- sessions -------------------------------------------------------------

    def _txn(self, peer: Peer, named: int):
        """The transaction a request names, opening it if ``named`` is a
        handle this connection has not used before."""
        txn_id = named
        if named < 0:
            session = self._sessions.get(peer)
            if session is None:
                session = self._sessions[peer] = _Session()
            txn_id = session.open.get(named, 0)
            if not txn_id and session.claim(-named):
                txn = self._tc.begin()
                txn_id = session.open[named] = txn.txn_id
                self._txns[txn_id] = txn
                self._txn_origin[txn_id] = (peer, named)
        txn = self._opened_by(peer, txn_id)
        if txn is None:
            raise ReproError(f"TC {self._name}: unknown transaction {named}")
        return txn

    def _opened_by(self, peer: Peer, txn_id: int):
        """The open transaction ``txn_id``, if ``peer`` opened it.  The
        server's id names a transaction on that connection only: ids
        restart low in a new incarnation (a read-only transaction leaves
        none in the log to bump past), so a stale or foreign id may well
        be somebody else's."""
        txn = self._txns.get(txn_id)
        if txn is not None and self._txn_origin[txn_id][0] is peer:
            return txn
        return None

    def _reap(self, txn) -> None:
        if txn.state is TransactionState.ACTIVE:
            return
        if self._txns.pop(txn.txn_id, None) is not None:
            peer, handle = self._txn_origin.pop(txn.txn_id)
            del self._sessions[peer].open[handle]

    def _peer_gone(self, peer: Peer) -> None:
        """Presumed abort for a disconnected client's open transactions;
        a socket session that ends counts against ``max_sessions``."""
        session = self._sessions.pop(peer, None)
        for txn_id in session.open.values() if session else ():
            del self._txn_origin[txn_id]
            txn = self._txns.pop(txn_id)
            if txn.state is TransactionState.ACTIVE:
                try:
                    txn.abort()
                except ReproError:
                    pass  # restart/zombie machinery owns what abort cannot
                self._metrics.incr("tcserver.disconnect_aborts")
        if peer is not self._parent_peer:
            self._sessions_ended += 1
            if self._max_sessions and self._sessions_ended >= self._max_sessions:
                self.driver.stop()

    # -- transactions ---------------------------------------------------------

    def _txn_write(self, peer: Peer, message: TxnWrite) -> Message:
        txn = self._txn(peer, message.txn_id)
        owner = self._misroute_owner(message.table, message.key)
        if owner is not None:
            # Bounced before the mutation path.  A transaction this
            # write opened stays open (and empty) until the client's
            # abort, as when opening was a request of its own.
            self._metrics.incr("tcserver.redirects")
            return Redirect(
                tc_id=message.tc_id,
                table=message.table,
                key=message.key,
                owner=owner,
            )
        verb = message.verb
        if verb in ("insert", "update"):
            operand = (message.value,)
        elif verb == "increment":
            operand = (message.delta,)
        elif verb == "delete":
            operand = ()
        else:
            raise ReproError(f"unknown write verb {verb!r}")
        try:
            # The verb is the Transaction method's name.
            getattr(txn, verb)(message.table, message.key, *operand)
        finally:
            self._reap(txn)
        return TxnAck(tc_id=message.tc_id, txn_id=txn.txn_id)

    def _txn_read(self, peer: Peer, message: TxnRead) -> TxnReadReply:
        txn = self._txn(peer, message.txn_id)
        try:
            value = txn.read(message.table, message.key)
        finally:
            self._reap(txn)
        return TxnReadReply(
            tc_id=message.tc_id,
            txn_id=txn.txn_id,
            found=value is not None,
            value=value,
        )

    def _txn_scan(self, peer: Peer, message: TxnScan) -> TxnScanReply:
        txn = self._txn(peer, message.txn_id)
        try:
            rows = txn.scan(
                message.table, message.low, message.high, message.limit or None
            )
        finally:
            self._reap(txn)
        return TxnScanReply(
            tc_id=message.tc_id,
            txn_id=txn.txn_id,
            rows=tuple(tuple(row) for row in rows),
        )

    def _txn_sync(self, peer: Peer, message: TxnSync) -> TxnAck:
        txn = self._txn(peer, message.txn_id)
        try:
            txn.sync()
        finally:
            self._reap(txn)
        return TxnAck(tc_id=message.tc_id, txn_id=txn.txn_id)

    def _txn_commit(self, peer: Peer, message: TxnCommit) -> TxnAck:
        txn = self._txn(peer, message.txn_id)
        try:
            txn.commit()
        finally:
            self._reap(txn)
        return TxnAck(tc_id=message.tc_id, txn_id=txn.txn_id)

    def _txn_commit_oneway(self, peer: Peer, message: TxnCommit) -> bool:
        """A read-only commit nobody waits for.  False (the connection
        is dropped as a bad frame) when it names no transaction this
        connection has open, or one that logged or queued a write: the
        client promised neither."""
        txn = self._open_named(peer, message.txn_id)
        if txn is None or txn.logged or txn.in_flight:
            return False
        try:
            txn.commit()
            self._metrics.incr("tcserver.oneway_commits")
        except ReproError:
            # Nobody is waiting to hear it: end the transaction here so
            # nothing stays open, and count what the client cannot see.
            self._metrics.incr("tcserver.oneway_failures")
            if txn.state is TransactionState.ACTIVE:
                try:
                    txn.abort()
                except ReproError:
                    pass  # restart/zombie machinery owns what abort cannot
        finally:
            self._reap(txn)
        return True

    def _open_named(self, peer: Peer, named: int):
        """The transaction ``named`` (handle or server id) if this
        connection has it open; never opens one."""
        if named < 0 and peer in self._sessions:
            named = self._sessions[peer].open.get(named, 0)
        return self._opened_by(peer, named)

    def _txn_abort(self, peer: Peer, message: TxnAbort) -> TxnAck:
        # Presumed abort: a retried abort after a lost reply (or a
        # server restart that already undid the loser) finds no
        # transaction — that *is* the aborted outcome, acknowledge it.
        # An abort never opens: a handle names only what is open.
        txn = self._open_named(peer, message.txn_id)
        if txn is not None:
            try:
                txn.abort()
            finally:
                self._reap(txn)
        return TxnAck(tc_id=message.tc_id, txn_id=message.txn_id)

    # -- cross-TC sharing (Section 6.2) ------------------------------------------

    def _flavor(self, flavor: object) -> ReadFlavor:
        return flavor if isinstance(flavor, ReadFlavor) else self._default_flavor

    def _read_other(self, peer: Peer, message: ReadOther) -> TxnReadReply:
        value = self._tc.read_other(
            message.table, message.key, self._flavor(message.flavor)
        )
        return TxnReadReply(tc_id=message.tc_id, found=value is not None, value=value)

    def _scan_other(self, peer: Peer, message: ScanOther) -> TxnScanReply:
        rows = self._tc.scan_other(
            message.table,
            message.low,
            message.high,
            message.limit or None,
            self._flavor(message.flavor),
        )
        return TxnScanReply(
            tc_id=message.tc_id, rows=tuple(tuple(row) for row in rows)
        )

    # -- maintenance and the deployment control plane -------------------------------

    def _checkpoint(self, peer: Peer, message: TcCheckpoint) -> TcCheckpointReply:
        advanced = self._tc.checkpoint()
        return TcCheckpointReply(
            tc_id=message.tc_id, advanced=advanced, rssp=self._tc.stats()["rssp"]
        )

    def _dc_restarted(self, peer: Peer, message: DcRestarted) -> ControlAck:
        # Reconnect over the (re-bound) socket, re-register, then let
        # prompt_redo drive tc._on_dc_restart: force + EOSL, redo
        # stream resend, RedoComplete, zombie retries — §5.2.1 across
        # two real process boundaries.  A redo the DC already saw is
        # absorbed by abLSN idempotence.
        self._client(message.dc_name).recover(notify_tcs=True)
        return ControlAck(tc_id=message.tc_id)

    def _refresh_routes(self, peer: Peer, message: RefreshRoutes) -> ControlAck:
        client = self._client(message.dc_name)
        client.refresh_catalog()
        self._tc.refresh_routes(client)
        return ControlAck(tc_id=message.tc_id)

    def _attach_dc(self, peer: Peer, message: AttachDc) -> ControlAck:
        if message.dc_name not in self._clients:
            self._attach(message.dc_name, message.socket_path)
        return ControlAck(tc_id=message.tc_id)

    def _grant_ownership(self, peer: Peer, message: GrantOwnership) -> ControlAck:
        self._install_grant(
            message.table, message.modulus, message.residues, message.owners
        )
        return ControlAck(tc_id=message.tc_id)

    def _sharing_mode(self, peer: Peer, message: SharingMode) -> ControlAck:
        self._set_sharing_mode(message.mode)
        return ControlAck(tc_id=message.tc_id)

    def _retry_pending(self, peer: Peer, message: TcRetryPending) -> ControlAck:
        self._tc.retry_pending()
        return ControlAck(tc_id=message.tc_id)

    def _unhandled(self, message: Message) -> None:
        raise ReproError(f"TC {self._name}: unhandled message {type(message).__name__}")

    # -- what the server core asks of the TC ----------------------------------------

    def _hello(self) -> TcHello:
        return TcHello(
            tc_id=self._tc.tc_id,
            tc_name=self._name,
            pid=os.getpid(),
            recovered=self._recovered,
            replayed_records=len(self._journal.records),
            fast_codec=wire.fast_vocabulary(),
            read_only_commit_decided=self._decided,
        )

    def _stats(self) -> dict:
        # "threads" in the envelope is O(#DCs), not O(#clients): the loop
        # serves every client; only the DC legs own threads.
        return {
            **self._tc.stats(),
            "name": self._name,
            "pending_zombies": self._tc.pending_zombies(),
            "open_transactions": len(self._txns),
            "journal_bytes": self._journal.size(),
        }

    def close(self) -> None:
        for client in self._clients.values():
            client.close()
        self._journal.close()
