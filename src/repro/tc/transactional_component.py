"""The Transactional Component (Section 4.1.1).

The TC is the client of one or more DCs.  It provides:

1. **Transactional locking** with no page knowledge — record, gap and
   range-partition locks via the Section 3.1 protocols — and thereby the
   obligation that *no two conflicting operations are ever in flight at a
   DC simultaneously* (operations are only sent while their lock is held,
   strict 2PL holds locks to transaction end, and rollback/cleanup
   operations are sent before locks are released).
2. **Transaction atomicity**: commit after all forward operations, or
   rollback by inverse operations in reverse chronological order.
3. **Logical undo/redo logging** in OPSR order (LSN assignment and log
   append are atomic), with undo information complete before a record can
   become *stable*.  The TC learns prior values *under its own locks* —
   the unbundled substitute for learning them inside the page.  What it
   does not already know the write's own reply brings back: every
   mutation leaves in a ``BatchedPerform`` envelope, logged as it is
   sent, and a record whose image is *owed* is held back from the stable
   log until the reply fills it in (docs/architecture.md §9).  Only a
   policy that serves the image to readers at write time (MVCC), or a TC
   with a rollback parked behind a DC outage, reads before writing.
4. **Log forcing** for durability, EOSL/LWM propagation for the causality
   and low-water contracts, resend with unique request ids for
   exactly-once execution, checkpointing, and restart.

A single TC spanning several DCs commits with *one* log force and no
two-phase commit: the TC log is the only commit point (Section 6.2.2 notes
the same for versioned cross-TC sharing).
"""

from __future__ import annotations

import enum
import itertools
import threading
import time
from collections import OrderedDict
from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Mapping, Optional

from repro.common.api import (
    BatchedPerform,
    BatchedReply,
    CheckpointReply,
    CheckpointRequest,
    EndOfStableLog,
    LowWaterMark,
    OperationReply,
    PerformOperation,
    RedoComplete,
)
from repro.common.config import ChannelConfig, RangeLockProtocol, TcConfig
from repro.common.errors import (
    ComponentUnavailableError,
    CrashedError,
    DuplicateKeyError,
    LockTimeoutError,
    NoSuchRecordError,
    ReproError,
    ResendExhaustedError,
    TransactionAborted,
    UndoImageLostError,
)
from repro.common.lsn import Lsn, NULL_LSN
from repro.common.ops import (
    DeleteOp,
    DiscardVersionsOp,
    IncrementOp,
    InsertOp,
    LogicalOperation,
    OpResult,
    OpStatus,
    ProbeNextKeysOp,
    PromoteVersionsOp,
    RangeReadOp,
    ReadFlavor,
    ReadOp,
    UpdateOp,
)
from repro.common.records import Key, RecordView, Value
from repro.dc.data_component import DataComponent
from repro.net.channel import MessageChannel
from repro.obs.tracing import NULL_SPAN, NULL_TRACER
from repro.sim import schedule as _sched
from repro.sim.metrics import Metrics
from repro.sim.schedule import YieldPoint
from repro.storage.buffer import ResetMode
from repro.tc.lock_manager import LockManager
from repro.tc.log import (
    AbortRecord,
    CheckpointRecord,
    CommitRecord,
    CompensationRecord,
    GroupCommitCoalescer,
    OpRecord,
    TcLog,
    TxnEndRecord,
)
from repro.tc.range_protocols import FetchAheadProtocol, RangePartitionProtocol

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.sim.faults import FaultInjector


class _Absent:
    """Cached knowledge that a key does not exist (under our lock)."""

    def __repr__(self) -> str:
        return "<ABSENT>"


ABSENT = _Absent()


class _Owed:
    """A write's before-image the TC does not know: the write's own reply
    brings it back (``PerformOperation.want_prior``)."""

    def __repr__(self) -> str:
        return "<OWED>"


OWED = _Owed()


class QueuedOp:
    """A mutation of a batching transaction's pending envelope: validated
    and locked, neither logged nor sent.  It becomes an :class:`OpRecord`
    (and gets its LSN) when the envelope is flushed."""

    __slots__ = ("dc_name", "op", "undo", "owed")
    lsn = NULL_LSN

    def __init__(
        self,
        dc_name: str,
        op: LogicalOperation,
        undo: Optional[LogicalOperation],
        owed: bool,
    ) -> None:
        self.dc_name = dc_name
        self.op = op
        self.undo = undo
        self.owed = owed


class TransactionState(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class Transaction:
    """A handle for one user transaction; all work delegates to the TC."""

    def __init__(self, tc: "TransactionalComponent", txn_id: int) -> None:
        self._tc = tc
        self.txn_id = txn_id
        self.state = TransactionState.ACTIVE
        self._started = time.perf_counter()
        #: Root span of this transaction's trace (NULL_SPAN when tracing is
        #: off).  Every user call re-activates it, so lock waits, channel
        #: sends and DC execution all land in one tree.
        if tc.tracer.enabled:
            self.span = tc.tracer.start_trace(
                "txn", component=tc.name, txn_id=txn_id
            )
        else:
            self.span = NULL_SPAN
        #: Forward op records, in LSN order (the undo chain).
        self.op_records: list[OpRecord] = []
        #: True once the TC log holds a record under this id; commit and
        #: abort of a transaction that logged nothing append and force
        #: nothing.  Not ``bool(op_records)``: a rejected operation leaves
        #: the undo chain but its record and cancel marker stay logged.
        #: Set where a transaction's first record is appended
        #: (``_log_envelope``) — cancel markers, compensation and
        #: version-cleanup records only ever follow an ``OpRecord`` of the
        #: same id.
        self.logged = False
        #: Values known under our locks: (table, key) -> value | ABSENT.
        self.known: dict[tuple[str, Key], object] = {}
        #: Table-intent lock memo, table -> granted mode.  Strict 2PL never
        #: releases a lock mid-transaction, so once a table-intent mode is
        #: granted, a covered re-request needs no lock-manager call at all.
        self.table_locks: dict[str, object] = {}
        #: Keys touched in versioned tables, per table (cleanup targets).
        self.versioned_keys: dict[str, set[Key]] = {}
        #: The pending envelopes: mutations not yet acknowledged, (table,
        #: key) -> a :class:`QueuedOp` until its envelope is flushed, then
        #: the logged :class:`OpRecord` awaiting its reply.  A record left
        #: here by a failed send may or may not have executed; rollback
        #: resends it with its LSN (repeating history) before inverting.
        self.in_flight: dict[tuple[str, Key], OpRecord | QueuedOp] = {}
        #: Rollback progress, set once an abort starts (see
        #: ``TransactionalComponent.rollback_operations``): the records
        #: whose inverses are not yet stably applied, newest first.  A
        #: retry after a DC outage resumes exactly here.
        self.undo_pending: Optional[list] = None
        #: Concurrency-control bookkeeping (tc/cc.py): read/scan sets and
        #: write slots of the validating policies.  None under 2PL.
        self.cc_state = None

    # -- operations ---------------------------------------------------------

    def insert(self, table: str, key: Key, value: Value) -> None:
        """Insert.  Like every write it joins the transaction's envelope
        for its DC, which leaves at ``TcConfig.batch_max_ops`` operations
        (at once, by default), at :meth:`sync`, a scan, a dependent read
        or commit/abort."""
        tracer = self._tc.tracer
        if not tracer.enabled:
            return self._tc.do_insert(self, table, key, value)
        try:
            with tracer.activate(self.span), tracer.span(
                "tc.insert", component=self._tc.name, table=table
            ):
                self._tc.do_insert(self, table, key, value)
        finally:
            self._close_span_if_done()

    def update(self, table: str, key: Key, value: Value) -> None:
        tracer = self._tc.tracer
        if not tracer.enabled:
            return self._tc.do_update(self, table, key, value)
        try:
            with tracer.activate(self.span), tracer.span(
                "tc.update", component=self._tc.name, table=table
            ):
                self._tc.do_update(self, table, key, value)
        finally:
            self._close_span_if_done()

    def delete(self, table: str, key: Key) -> None:
        tracer = self._tc.tracer
        if not tracer.enabled:
            return self._tc.do_delete(self, table, key)
        try:
            with tracer.activate(self.span), tracer.span(
                "tc.delete", component=self._tc.name, table=table
            ):
                self._tc.do_delete(self, table, key)
        finally:
            self._close_span_if_done()

    def increment(self, table: str, key: Key, delta: float) -> None:
        """Add ``delta`` to a numeric record (logical undo: the negated
        delta — no prior value enters the log)."""
        tracer = self._tc.tracer
        if not tracer.enabled:
            return self._tc.do_increment(self, table, key, delta)
        try:
            with tracer.activate(self.span), tracer.span(
                "tc.increment", component=self._tc.name, table=table
            ):
                self._tc.do_increment(self, table, key, delta)
        finally:
            self._close_span_if_done()

    def sync(self) -> None:
        """Flush the pending envelopes and collect their replies."""
        tracer = self._tc.tracer
        if not tracer.enabled:
            return self._tc.sync_pipeline(self)
        try:
            with tracer.activate(self.span), tracer.span(
                "tc.sync", component=self._tc.name
            ):
                self._tc.sync_pipeline(self)
        finally:
            self._close_span_if_done()

    def read(self, table: str, key: Key) -> Optional[Value]:
        tracer = self._tc.tracer
        if not tracer.enabled:
            return self._tc.do_read(self, table, key)
        try:
            with tracer.activate(self.span), tracer.span(
                "tc.read", component=self._tc.name, table=table
            ):
                return self._tc.do_read(self, table, key)
        finally:
            self._close_span_if_done()

    def scan(
        self,
        table: str,
        low: Optional[Key] = None,
        high: Optional[Key] = None,
        limit: Optional[int] = None,
    ) -> list[tuple[Key, Value]]:
        tracer = self._tc.tracer
        if not tracer.enabled:
            return self._tc.do_scan(self, table, low, high, limit)
        try:
            with tracer.activate(self.span), tracer.span(
                "tc.scan", component=self._tc.name, table=table
            ):
                return self._tc.do_scan(self, table, low, high, limit)
        finally:
            self._close_span_if_done()

    def commit(self) -> None:
        tracer = self._tc.tracer
        if not tracer.enabled:
            try:
                self._tc.commit(self)
            finally:
                self._observe_commit_latency()
            return
        try:
            with tracer.activate(self.span), tracer.span(
                "tc.commit", component=self._tc.name
            ):
                self._tc.commit(self)
        finally:
            self._observe_commit_latency()
            self._close_span_if_done()

    def _observe_commit_latency(self) -> None:
        if self.state is TransactionState.COMMITTED:
            self._tc._commit_latency.append(
                (time.perf_counter() - self._started) * 1000.0
            )

    def abort(self) -> None:
        tracer = self._tc.tracer
        if not tracer.enabled:
            return self._tc.abort(self)
        try:
            with tracer.activate(self.span), tracer.span(
                "tc.abort", component=self._tc.name
            ):
                self._tc.abort(self)
        finally:
            self._close_span_if_done()

    def _close_span_if_done(self) -> None:
        """Finish the root span once the transaction reaches a terminal
        state (idempotent; forced aborts inside an operation land here)."""
        if self.state is not TransactionState.ACTIVE:
            self.span.finish(outcome=self.state.value)

    # -- context manager: abort-on-error safety net ------------------------------

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        if self.state is TransactionState.ACTIVE:
            if exc_type is None:
                self.commit()
            else:
                self.abort()

    def _check_active(self) -> None:
        if self.state is not TransactionState.ACTIVE:
            raise TransactionAborted(self.txn_id, f"transaction is {self.state.value}")


class SnapshotReader:
    """Lock-free reads as of a fixed per-DC watermark (Section 6.3).

    Obtained from :meth:`TransactionalComponent.begin_snapshot`; usable for
    as long as the DCs' retention horizons cover the watermark, after which
    reads raise :class:`~repro.common.errors.SnapshotTooOldError`.
    """

    def __init__(self, tc: "TransactionalComponent", watermarks: dict[str, int]) -> None:
        self._tc = tc
        self.watermarks = watermarks

    def _as_of(self, table: str) -> int:
        route = self._tc._route(table)
        watermark = self.watermarks.get(route.dc_name)
        if watermark is None:
            # Degraded snapshot: this DC was down at begin_snapshot time.
            from repro.common.errors import ComponentUnavailableError

            raise ComponentUnavailableError(f"DC {route.dc_name}")
        return watermark

    def read(self, table: str, key: Key) -> Optional[Value]:
        return self._tc.read_snapshot(table, key, self._as_of(table))

    def scan(
        self,
        table: str,
        low: Optional[Key] = None,
        high: Optional[Key] = None,
        limit: Optional[int] = None,
    ) -> list[tuple[Key, Value]]:
        return self._tc.scan_snapshot(table, self._as_of(table), low, high, limit)


class _TableRoute:
    __slots__ = ("dc_name", "versioned")

    def __init__(self, dc_name: str, versioned: bool) -> None:
        self.dc_name = dc_name
        self.versioned = versioned


class TransactionalComponent:
    """One TC instance; may serve many concurrent transactions and DCs."""

    _ids = itertools.count(1)

    def __init__(
        self,
        tc_id: Optional[int] = None,
        config: Optional[TcConfig] = None,
        metrics: Optional[Metrics] = None,
        faults: Optional["FaultInjector"] = None,
        tracer: Optional[object] = None,
        log: Optional[TcLog] = None,
    ) -> None:
        self.tc_id = tc_id if tc_id is not None else next(self._ids)
        self.config = config or TcConfig()
        self.metrics = metrics or Metrics()
        self.name = f"tc{self.tc_id}"
        self.faults = faults
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Commit latencies land in a lock-free buffer; ``metrics`` folds
        #: them into the ``tc.commit_latency_ms`` distribution lazily.
        self._commit_latency = self.metrics.buffer("tc.commit_latency_ms")
        if faults is not None:
            faults.register_component(self.name, "tc", self.crash)
        #: Crash listeners ``(name, kind)`` — the supervisor subscribes.
        self.on_crash: list[Callable[[str, str], None]] = []
        #: Injectable so a durable subclass (the TC service tier's
        #: journal-backed log) can be bound before the group-commit
        #: coalescer below captures the reference.
        self.log = log if log is not None else TcLog(self.metrics)
        self.log.use_tracer(self.tracer)
        self.locks = LockManager(
            self.metrics,
            self.config.deadlock_detection,
            self.config.lock_timeout,
            tracer=self.tracer,
            stripes=self.config.lock_stripes,
        )
        if self.config.range_protocol is RangeLockProtocol.FETCH_AHEAD:
            self.protocol = FetchAheadProtocol(self)
        else:
            self.protocol = RangePartitionProtocol(self)
        # Pluggable concurrency control (docs/architecture.md §19): every
        # read/scan/write-lock decision and the commit-time validation
        # gate dispatch through this policy.  Imported lazily — tc/cc.py
        # references this module's sentinels at import time.
        from repro.tc.cc import make_policy

        self.cc = make_policy(self)
        self._channels: dict[str, MessageChannel] = {}
        self._dcs: dict[str, DataComponent] = {}
        self._routes: dict[str, _TableRoute] = {}
        self._txn_ids = itertools.count(1)
        self._active: dict[int, Transaction] = {}
        self._admin = threading.RLock()
        #: DCs whose redo stream this TC is currently resending, mapped to
        #: the thread running the resend.  Ordinary dispatch stalls on
        #: these (see :meth:`_await_redo_quiesce`); the redo thread itself
        #: passes through.
        self._dc_redo: dict[str, int] = {}
        self._redo_cv = threading.Condition()
        self._rssp: Lsn = NULL_LSN
        #: Per-DC spontaneous stability hints (Section 4.2.1).
        self._rssp_hints: dict[str, Lsn] = {}
        #: Aborted transactions whose compensation a DC outage interrupted.
        self._zombie_rollbacks: list[Transaction] = []
        #: Committed transactions whose post-commit version cleanup a DC
        #: outage interrupted (the commit itself is durable and acked).
        self._zombie_completions: list[Transaction] = []
        self._completions_since_lwm = 0
        self._crashed = False
        self.reset_mode = ResetMode.RECORD_RESET
        #: Group commit (docs/architecture.md §9.3): committing transactions
        #: share log forces, but a commit is acknowledged only once its
        #: record is stable — validates group_commit_size here, too.
        self._group_commit = GroupCommitCoalescer(
            self.log,
            self.config.group_commit_size,
            self.config.group_commit_deadline_ms,
            self.metrics,
        )
        #: Undo-info cache (docs/architecture.md §9.2): committed values
        #: this TC has learned, (table, key) -> value | ABSENT.  None at
        #: ``undo_cache_size=0``.  Sound because this TC is the sole writer
        #: of the keys it caches; every event that could falsify an entry
        #: (own write aborted/ambiguous, DC reset, TC crash) invalidates.
        self._undo_cache: Optional[OrderedDict] = (
            OrderedDict() if self.config.undo_cache_size else None
        )
        #: Insert fast path (docs/architecture.md §9.2): per-table upper
        #: bound on every key currently in the table.  ``_table_high`` is
        #: learned from authoritative empty probe results ("no key above
        #: X") and thereafter maintained under this TC's own inserts;
        #: ``_insert_high`` tracks the largest key this TC has *attempted*
        #: to insert, so an unsent batched insert can never slip above a
        #: bound learned from a concurrent probe.  Both are overestimates
        #: of the true maximum — always safe, since they are only used to
        #: prove "no successor exists" (key > bound).  Trusted only while
        #: this TC is the table's sole writer (``ownership_guard is None``).
        self._table_high: dict[str, Key] = {}
        self._insert_high: dict[str, Key] = {}
        #: RetryPolicy is stateless, so the batch path reuses one instance
        #: instead of rebuilding it per envelope.
        self._retry_policy = self.config.retry_policy()
        # Hot-path counter slots, bound once (see Metrics.counter).
        self._undo_reads_slot = self.metrics.counter("tc.undo_info_reads")
        self._cache_hits_slot = self.metrics.counter("tc.undo_cache_hits")
        self._cache_misses_slot = self.metrics.counter("tc.undo_cache_misses")
        self._mutations_slot = self.metrics.counter("tc.mutations")
        self._begins_slot = self.metrics.counter("tc.begins")
        self._commits_slot = self.metrics.counter("tc.commits")
        self._syncs_slot = self.metrics.counter("tc.pipeline_syncs")
        #: Optional hook enforcing Section 6's disjoint update rights when
        #: several TCs share a DC: ``guard(table, key) -> bool``.  Installed
        #: by the cloud deployment layer; None means "owns everything".
        self.ownership_guard = None

    # -- wiring ------------------------------------------------------------------

    def attach_dc(
        self, dc: DataComponent, channel_config: Optional[ChannelConfig] = None
    ) -> MessageChannel:
        """Connect to a DC; installs the causality/restart hooks and learns
        the DC's table routes.

        The channel implementation follows the endpoint: an in-process DC
        gets the simulated :class:`MessageChannel`, an out-of-process
        :class:`~repro.net.process.RemoteDc` gets a pipelining
        :class:`~repro.net.process.ProcessChannel` over its pipe."""
        from repro.net.channel import build_channel

        channel = build_channel(
            dc, channel_config, self.metrics, faults=self.faults, tracer=self.tracer
        )
        with self._admin:
            self._channels[dc.name] = channel
            self._dcs[dc.name] = dc
        dc.register_tc(
            self.tc_id,
            force_log=self._force_through,
            on_dc_restart=self._on_dc_restart,
            on_rssp_hint=self._on_rssp_hint,
        )
        self.refresh_routes(dc)
        return channel

    def refresh_routes(self, dc: DataComponent) -> None:
        """(Re)learn which tables the DC hosts (after create_table calls)."""
        with self._admin:
            for name in dc.table_names():
                handle = dc.table(name)
                self._routes[name] = _TableRoute(
                    dc.name, handle.descriptor.versioned
                )

    def _route(self, table: str) -> _TableRoute:
        route = self._routes.get(table)
        if route is None:
            raise ReproError(f"TC {self.tc_id}: no DC hosts table {table!r}")
        return route

    def _check_up(self) -> None:
        if self._crashed:
            raise CrashedError(f"TC {self.tc_id}")

    def bump_txn_ids_past(self, txn_id: int) -> None:
        """Advance the txn-id allocator past ``txn_id``.

        Restart calls this with the largest txn id in the stable log: a
        fresh TC incarnation (the crashed process was respawned, so the
        in-memory counter reset) would otherwise hand out ids that
        already appear in the log, and the next restart's analysis —
        which groups records by txn id — would merge two unrelated
        transactions into one.
        """
        floor = txn_id - self.tc_id * 1_000_000
        if floor > 0:
            self._txn_ids = itertools.count(floor + 1)

    # -- transaction lifecycle -----------------------------------------------------

    def begin(self) -> Transaction:
        self._check_up()
        txn = Transaction(self, self.tc_id * 1_000_000 + next(self._txn_ids))
        with self._admin:
            self._active[txn.txn_id] = txn
        self._begins_slot.value += 1
        return txn

    def commit(self, txn: Transaction) -> None:
        """Commit: force the log through the commit record, then run
        version cleanup, then release locks (strict through cleanup).

        Durability is force-before-ack at every ``group_commit_size``:
        this method returns only once the commit record is on the stable
        log.  With ``group_commit_size > 1`` concurrently-committing
        transactions share the force (see
        :class:`~repro.tc.log.GroupCommitCoalescer`).

        A transaction that wrote nothing (nothing logged, nothing queued:
        it only read) has nothing to make durable and nothing restart could
        redo or undo, so it is validated and settled without a commit or
        end record, without entering the coalescer and without a force.
        Everything it read was already stable: a writer's locks and CC
        registry entries are released only after its own commit force.

        If a DC outage interrupts the *post-commit* cleanup, the commit
        decision stands: the commit record is forced, locks are released
        and the commit is acknowledged, while the cleanup is parked as a
        zombie completion for the supervisor to re-drive after the heal.
        """
        if self._crashed:
            self._check_up()
        if txn.state is not TransactionState.ACTIVE:
            txn._check_active()
        if not txn.logged and not txn.in_flight:
            self._validate_or_abort(txn)
            self._settle_commit(txn)
            return
        self._group_commit.enter()
        try:
            self._commit_logged(txn)
        finally:
            self._group_commit.exit()

    def _validate_or_abort(self, txn: Transaction) -> None:
        try:
            self.sync_pipeline(txn)
            # Commit-time CC gate (OCC/MVCC read validation; a no-op for
            # 2PL).  Runs after the pipeline is synced — every in-place
            # write applied — and before the commit record exists, so a
            # veto is an ordinary abort.
            self.cc.validate(txn)
        except ReproError as exc:
            # No commit record exists yet, so the outcome is determinate:
            # roll back (outage-tolerantly) and report a plain abort rather
            # than leaving the caller to guess.
            if self._crashed:
                txn.state = TransactionState.ABORTED  # crash cleared the rest
            else:
                self.abort(txn)
            raise TransactionAborted(
                txn.txn_id, f"commit abandoned: {exc}"
            ) from exc

    def _commit_logged(self, txn: Transaction) -> None:
        self._validate_or_abort(txn)
        record = self.log.append(
            lambda lsn: CommitRecord(lsn=lsn, txn_id=txn.txn_id)
        )
        self._group_commit.wait_stable(record.lsn, self.force_log)
        # Post-commit version cleanup: logged after the commit record so a
        # crash-time loser is never seen with promoted versions.
        try:
            if txn.versioned_keys:
                for table, keys in sorted(txn.versioned_keys.items()):
                    self._send_version_cleanup(txn.txn_id, table, keys, promote=True)
        except (CrashedError, ResendExhaustedError):
            self.force_log()
            # The commit decision stands; only the version cleanup parks.
            self._settle_commit(txn, parked=True)
            self.metrics.incr("tc.zombie_completions")
            return
        self.log.append(lambda lsn: TxnEndRecord(lsn=lsn, txn_id=txn.txn_id))
        self._settle_commit(txn)

    def _settle_commit(self, txn: Transaction, parked: bool = False) -> None:
        """The commit decision is made (and, if anything was logged,
        durable): publish what the transaction learned, settle CC
        registry state with the locks, retire the handle."""
        self._cache_committed(txn)
        self.cc.on_committed(txn)
        self.locks.release_all(txn.txn_id)
        txn.state = TransactionState.COMMITTED
        with self._admin:
            self._active.pop(txn.txn_id, None)
            if parked:
                self._zombie_completions.append(txn)
        self._commits_slot.value += 1

    def abort(self, txn: Transaction) -> None:
        """Roll back: inverse operations in reverse chronological order.

        Tolerates a DC outage at any point: unacknowledged envelope
        operations and un-applied inverses stay recorded on the
        transaction, locks are released so the rest of the system makes
        progress, and the rollback resumes (from the exact compensation
        record where it stopped) when the DC heals.
        """
        self._check_up()
        if txn.state is not TransactionState.ACTIVE:
            return
        # Undo-cache invalidation first (still under the txn's locks, and
        # before any rollback step can fail): everything this transaction
        # observed or wrote may be about to change under compensation — or
        # already be ambiguous at the DC.
        self._uncache_txn(txn)
        # Operations still queued never reached the log or a DC: forget them.
        txn.in_flight = {slot: r for slot, r in txn.in_flight.items() if r.lsn}
        if txn.logged:
            self.log.append(lambda lsn: AbortRecord(lsn=lsn, txn_id=txn.txn_id))
            try:
                self._drive_rollback(txn)
            except (CrashedError, ResendExhaustedError):
                # Zombie: the DC still holds uncommitted bytes for this
                # txn's keys, so its CC registry entries must OUTLIVE the
                # lock release — readers keep conflicting/seeing
                # before-images until _retry_zombie_rollbacks settles the
                # keys.
                with self._admin:
                    self._active.pop(txn.txn_id, None)
                    self._zombie_rollbacks.append(txn)  # before the locks go
                self.locks.release_all(txn.txn_id)
                txn.state = TransactionState.ABORTED
                self.metrics.incr("tc.zombie_rollbacks")
                self.metrics.incr("tc.aborts")
                return
            self.log.append(lambda lsn: TxnEndRecord(lsn=lsn, txn_id=txn.txn_id))
        # else: nothing is logged under this id, so there is nothing to
        # roll back and nothing a restart could mistake for a loser.
        self.cc.on_abort_settled(txn)
        self.locks.release_all(txn.txn_id)
        txn.state = TransactionState.ABORTED
        with self._admin:
            self._active.pop(txn.txn_id, None)
        self.metrics.incr("tc.aborts")

    def _drive_rollback(self, txn: Transaction) -> None:
        """Repeat history, then apply (remaining) inverses.

        A logged operation still in flight may or may not have executed,
        yet restart redo would execute it (it is in the log): it is resent
        with its LSN first, so the inverse below is always valid."""
        while txn.in_flight:
            try:
                self.sync_pipeline(txn)
            except (CrashedError, ResendExhaustedError):
                raise
            except ReproError:
                # An op was semantically rejected: it never executed and
                # sync already pruned it from the undo chain behind a cancel
                # marker (and from the envelopes: what another DC's envelope
                # still holds goes out on the next turn).  The marker is
                # forced at once: a parked rollback runs after its locks
                # went, so a replay of the record into a changed state
                # could succeed.
                self.force_log()
        if txn.undo_pending is None:
            txn.undo_pending = [
                record for record in reversed(txn.op_records) if record.undo is not None
            ]
        self.rollback_operations(txn.txn_id, txn.undo_pending, txn.versioned_keys)

    def rollback_operations(
        self,
        txn_id: int,
        to_undo: list,
        versioned_keys: dict[str, set[Key]],
    ) -> None:
        """Shared by runtime abort and restart undo.  ``to_undo`` holds the
        forward records whose inverses must still be applied, newest first;
        each inverse is logged as a compensation record whose ``undo_next``
        makes rollback restartable.

        The list is consumed in place: an entry is removed only once its
        inverse is acknowledged, and a logged-but-unacknowledged
        compensation record replaces its forward record at the head.  A
        retry after a DC outage therefore resends the *same* CLR (same
        LSN), so the DC's idempotence test absorbs it — never a second
        inverse for one operation.
        """
        while to_undo:
            head = to_undo[0]
            if isinstance(head, CompensationRecord):
                clr = head
                resend = True
            else:
                undo_next = to_undo[1].lsn if len(to_undo) > 1 else NULL_LSN
                assert head.undo is not None
                clr = self.log.append(
                    lambda lsn, r=head, nxt=undo_next: CompensationRecord(
                        lsn=lsn, txn_id=txn_id, op=r.undo, undo_next=nxt, dc_name=r.dc_name
                    ),
                    track_for_lwm=True,
                )
                to_undo[0] = clr
                resend = False
            result = self._perform(clr.dc_name, clr.op, clr.lsn, resend=resend)  # type: ignore[arg-type]
            self._expect_ok(result, clr.op)  # type: ignore[arg-type]
            self._complete_op(clr.lsn)
            to_undo.pop(0)
            self.metrics.incr("tc.undo_ops")
        for table, keys in sorted(versioned_keys.items()):
            self._send_version_cleanup(txn_id, table, keys, promote=False)

    def _cancel_record(self, txn_id: int, record: OpRecord) -> None:
        """Log a cancel marker: ``record``'s operation was definitively
        rejected by its DC.  It never executed, holds no undo obligation,
        and restart redo must skip it (see :class:`CompensationRecord`)."""
        self.log.append(
            lambda lsn: CompensationRecord(
                lsn=lsn,
                txn_id=txn_id,
                op=None,
                dc_name=record.dc_name,
                canceled=record.lsn,
            )
        )
        self.metrics.incr("tc.canceled_ops")

    def _send_version_cleanup(
        self, txn_id: int, table: str, keys: set[Key], promote: bool
    ) -> None:
        route = self._route(table)
        op: LogicalOperation
        if promote:
            op = PromoteVersionsOp(table=table, keys=tuple(sorted(keys)))
        else:
            op = DiscardVersionsOp(table=table, keys=tuple(sorted(keys)))
        record = self.log.append(
            lambda lsn: OpRecord(
                lsn=lsn, txn_id=txn_id, op=op, undo=None, dc_name=route.dc_name
            ),
            track_for_lwm=True,
        )
        result = self._perform(route.dc_name, op, record.lsn)
        self._expect_ok(result, op)
        self._complete_op(record.lsn)
        self.metrics.incr("tc.version_cleanups")

    # -- operations ------------------------------------------------------------------------

    def do_insert(self, txn: Transaction, table: str, key: Key, value: Value) -> None:
        if self._crashed:
            self._check_up()
        if txn.state is not TransactionState.ACTIVE:
            txn._check_active()
        route = self._route(table)
        self._check_ownership(table, key)
        self._sync_if_conflicting(txn, table, key)
        if self.ownership_guard is None:
            # Record the *attempted* insert before locking/queueing it so a
            # concurrent probe-learned bound can never undercut this key
            # (an attempt that later aborts only leaves the bound an
            # overestimate, which stays safe).
            high = self._insert_high.get(table)
            if high is None or key > high:
                self._insert_high[table] = key
                thigh = self._table_high.get(table)
                if thigh is not None and key > thigh:
                    self._table_high[table] = key
        try:
            self.cc.lock_for_insert(txn, table, key)
        except (TransactionAborted, LockTimeoutError):
            self._force_abort(txn)
            raise
        if self._write_prior(txn, table, key, unknown=ABSENT) is not ABSENT:
            raise DuplicateKeyError(table, key)
        try:
            self.cc.note_write(txn, table, key, ABSENT, structural=True)
        except TransactionAborted:
            self._force_abort(txn)
            raise
        op = InsertOp(table=table, key=key, value=value, versioned=route.versioned)
        undo = None if route.versioned else DeleteOp(table=table, key=key)
        self._run_mutation(txn, route, op, undo)
        txn.known[(table, key)] = value
        if route.versioned:
            txn.versioned_keys.setdefault(table, set()).add(key)

    def do_update(self, txn: Transaction, table: str, key: Key, value: Value) -> None:
        if self._crashed:
            self._check_up()
        if txn.state is not TransactionState.ACTIVE:
            txn._check_active()
        route = self._route(table)
        self._check_ownership(table, key)
        self._sync_if_conflicting(txn, table, key)
        try:
            self.cc.lock_for_update(txn, table, key)
        except (TransactionAborted, LockTimeoutError):
            self._force_abort(txn)
            raise
        prior = self._write_prior(txn, table, key, unknown=OWED)
        if prior is ABSENT:
            raise NoSuchRecordError(table, key)
        try:
            self.cc.note_write(txn, table, key, prior, structural=False)
        except TransactionAborted:
            self._force_abort(txn)
            raise
        op = UpdateOp(table=table, key=key, value=value, versioned=route.versioned)
        owed = prior is OWED and not route.versioned
        undo = (
            None
            if route.versioned or owed
            else UpdateOp(table=table, key=key, value=prior)
        )
        self._run_mutation(txn, route, op, undo, owed=owed)
        txn.known[(table, key)] = value
        if route.versioned:
            txn.versioned_keys.setdefault(table, set()).add(key)

    def do_delete(self, txn: Transaction, table: str, key: Key) -> None:
        if self._crashed:
            self._check_up()
        if txn.state is not TransactionState.ACTIVE:
            txn._check_active()
        route = self._route(table)
        self._check_ownership(table, key)
        self._sync_if_conflicting(txn, table, key)
        try:
            self.cc.lock_for_delete(txn, table, key)
        except (TransactionAborted, LockTimeoutError):
            self._force_abort(txn)
            raise
        prior = self._write_prior(txn, table, key, unknown=OWED)
        if prior is ABSENT:
            raise NoSuchRecordError(table, key)
        try:
            self.cc.note_write(txn, table, key, prior, structural=True)
        except TransactionAborted:
            self._force_abort(txn)
            raise
        op = DeleteOp(table=table, key=key, versioned=route.versioned)
        owed = prior is OWED and not route.versioned
        undo = (
            None
            if route.versioned or owed
            else InsertOp(table=table, key=key, value=prior)
        )
        self._run_mutation(txn, route, op, undo, owed=owed)
        txn.known[(table, key)] = ABSENT
        if route.versioned:
            txn.versioned_keys.setdefault(table, set()).add(key)

    def do_increment(self, txn: Transaction, table: str, key: Key, delta: float) -> None:
        if self._crashed:
            self._check_up()
        if txn.state is not TransactionState.ACTIVE:
            txn._check_active()
        route = self._route(table)
        self._check_ownership(table, key)
        self._sync_if_conflicting(txn, table, key)
        try:
            self.cc.lock_for_update(txn, table, key)
        except (TransactionAborted, LockTimeoutError):
            self._force_abort(txn)
            raise
        prior = self._write_prior(txn, table, key, unknown=OWED)
        if prior is ABSENT:
            raise NoSuchRecordError(table, key)
        if prior is not OWED and (
            not isinstance(prior, (int, float)) or isinstance(prior, bool)
        ):
            raise ReproError(f"record {key!r} of {table!r} is not numeric")
        try:
            self.cc.note_write(txn, table, key, prior, structural=False)
        except TransactionAborted:
            self._force_abort(txn)
            raise
        op = IncrementOp(
            table=table, key=key, delta=delta, versioned=route.versioned
        )
        # Pure logical undo: no before-image, just the inverse delta — so
        # an unknown prior owes the log nothing; the reply's ``value``
        # tells the transaction what the record now holds.
        undo = None if route.versioned else IncrementOp(
            table=table, key=key, delta=-delta
        )
        self._run_mutation(txn, route, op, undo)
        if prior is not OWED:
            txn.known[(table, key)] = prior + delta
        if route.versioned:
            txn.versioned_keys.setdefault(table, set()).add(key)

    def do_read(self, txn: Transaction, table: str, key: Key) -> Optional[Value]:
        if self._crashed:
            self._check_up()
        if txn.state is not TransactionState.ACTIVE:
            txn._check_active()
        if (table, key) not in txn.known and (table, key) in txn.in_flight:
            # Our own queued increment of a value we never saw: only its
            # reply knows what the record holds now.
            self.sync_pipeline(txn)
        try:
            value = self.cc.read(txn, table, key)
        except (TransactionAborted, LockTimeoutError):
            self._force_abort(txn)
            raise
        return None if value is ABSENT else value

    def do_scan(
        self,
        txn: Transaction,
        table: str,
        low: Optional[Key],
        high: Optional[Key],
        limit: Optional[int],
    ) -> list[tuple[Key, Value]]:
        if self._crashed:
            self._check_up()
        if txn.state is not TransactionState.ACTIVE:
            txn._check_active()
        if txn.in_flight:
            # A scan reads through the DC; accumulated (unsent) writes of
            # this very transaction must be visible to it — flush first.
            self.sync_pipeline(txn)
        try:
            results = self.cc.scan(txn, table, low, high, limit)
        except (TransactionAborted, LockTimeoutError):
            self._force_abort(txn)
            raise
        self.metrics.incr("tc.scans")
        return results

    def read_other(
        self, table: str, key: Key, flavor: ReadFlavor = ReadFlavor.READ_COMMITTED
    ) -> Optional[Value]:
        """Cross-TC read (Section 6.2): read-committed via versions, or
        dirty.  No locks, never blocks, usable outside any transaction.

        READ_COMMITTED is only meaningful on *versioned* tables (the DC
        keeps a before-version there); on a non-versioned table it
        degrades to dirty-read semantics, exactly as Section 6.2.1 says
        plain shared access provides.
        """
        self._check_up()
        if flavor is ReadFlavor.OWN:
            raise ReproError("read_other is for READ_COMMITTED or DIRTY flavors")
        route = self._route(table)
        op = ReadOp(table=table, key=key, flavor=flavor)
        op_id = self.log.issue_read_id()
        result = self._perform(route.dc_name, op, op_id)
        self._complete_op(op_id)
        if result.status is OpStatus.NOT_FOUND:
            return None
        self._expect_ok(result, op)
        return result.value

    def scan_other(
        self,
        table: str,
        low: Optional[Key] = None,
        high: Optional[Key] = None,
        limit: Optional[int] = None,
        flavor: ReadFlavor = ReadFlavor.READ_COMMITTED,
    ) -> list[tuple[Key, Value]]:
        """Cross-TC range read; never blocks, sees committed (or dirty) data."""
        self._check_up()
        views = self.read_range_raw(table, low, high, limit, flavor)
        return [view.as_tuple() for view in views]

    # -- snapshot reads (Section 6.3 extension) ----------------------------------------------

    def begin_snapshot(self, allow_degraded: bool = False) -> "SnapshotReader":
        """Capture a per-DC commit-sequence watermark and return a reader.

        Snapshot reads never block and never lock; each DC's reads are
        transaction-consistent as of its watermark.  Watermarks of
        different DCs are captured independently — a cross-DC snapshot is
        per-DC consistent, not globally consistent (the extension stops
        where the paper's "we also see potential" stops).

        With ``allow_degraded=True`` an unreachable DC is simply left out
        of the snapshot: reads of healthy DCs proceed, reads routed to the
        missing DC raise :class:`ComponentUnavailableError`.  Otherwise an
        unreachable DC fails the whole call within the retry budget.
        """
        self._check_up()
        from repro.common.api import WatermarkReply, WatermarkRequest

        policy = self.config.retry_policy()
        watermarks: dict[str, int] = {}
        for name, channel in self._channels.items():
            reply = None
            attempts = 0
            waited_ms = 0.0
            down = channel.dc.crashed or (
                channel.faults is not None and channel.faults.partitioned(name)
            )
            while reply is None and not down and not policy.exhausted(attempts, waited_ms):
                reply = channel.request(WatermarkRequest(tc_id=self.tc_id))
                attempts += 1
                if reply is None:
                    down = channel.dc.crashed
                    backoff = policy.backoff_ms(attempts)
                    waited_ms += backoff
                    channel.sim_time_ms += backoff
            if isinstance(reply, WatermarkReply):
                watermarks[name] = reply.watermark
                continue
            if allow_degraded:
                self.metrics.incr("tc.degraded_snapshots")
                continue
            if down:
                raise ComponentUnavailableError(f"DC {name}", attempts, waited_ms)
            raise ResendExhaustedError(f"watermark:{name}", name, attempts, waited_ms)
        self.metrics.incr("tc.snapshots")
        return SnapshotReader(self, watermarks)

    def read_snapshot(self, table: str, key: Key, as_of: int) -> Optional[Value]:
        route = self._route(table)
        op = ReadOp(table=table, key=key, flavor=ReadFlavor.SNAPSHOT, as_of=as_of)
        op_id = self.log.issue_read_id()
        result = self._perform(route.dc_name, op, op_id)
        self._complete_op(op_id)
        if result.status is OpStatus.NOT_FOUND:
            return None
        self._raise_if_snapshot_too_old(result, as_of)
        self._expect_ok(result, op)
        return result.value

    def scan_snapshot(
        self,
        table: str,
        as_of: int,
        low: Optional[Key] = None,
        high: Optional[Key] = None,
        limit: Optional[int] = None,
    ) -> list[tuple[Key, Value]]:
        route = self._route(table)
        op = RangeReadOp(
            table=table,
            low=low,
            high=high,
            limit=limit,
            flavor=ReadFlavor.SNAPSHOT,
            as_of=as_of,
        )
        op_id = self.log.issue_read_id()
        result = self._perform(route.dc_name, op, op_id)
        self._complete_op(op_id)
        self._raise_if_snapshot_too_old(result, as_of)
        self._expect_ok(result, op)
        return [view.as_tuple() for view in result.records]

    @staticmethod
    def _raise_if_snapshot_too_old(result: OpResult, as_of: int) -> None:
        if result.status is OpStatus.ERROR and "retention" in result.message:
            from repro.common.errors import SnapshotTooOldError

            try:
                floor = int(result.message.rsplit(" ", 1)[-1])
            except ValueError:
                floor = -1
            raise SnapshotTooOldError(as_of, floor)

    # -- helpers shared with the protocols ---------------------------------------------------

    def table_high(self, table: str) -> Optional[Key]:
        """Upper bound on every key in ``table``, or None when unknown.

        Only available with the undo cache on and this TC as sole writer;
        the gap-lock protocol uses it to prove "no successor exists" for
        fresh-key inserts without a probe round trip.
        """
        if self._undo_cache is None or self.ownership_guard is not None:
            return None
        return self._table_high.get(table)

    def probe_keys(
        self,
        table: str,
        after: Optional[Key],
        count: int,
        until: Optional[Key] = None,
        inclusive: bool = False,
    ) -> list[Key]:
        """Speculative fetch-ahead probe (unlocked, unlogged)."""
        route = self._route(table)
        op = ProbeNextKeysOp(
            table=table, after=after, count=count, until=until, inclusive=inclusive
        )
        op_id = self.log.issue_read_id()
        result = self._perform(route.dc_name, op, op_id)
        self._complete_op(op_id)
        self._expect_ok(result, op)
        self.metrics.incr("tc.probes")
        keys = list(result.keys)
        if (
            not keys
            and until is None
            and after is not None
            and self._undo_cache is not None
            and self.ownership_guard is None
        ):
            # Authoritative emptiness: the DC just attested that no key
            # exists above ``after``.  Raise the bound to cover our own
            # batched-but-unsent inserts (``_insert_high``), which the DC
            # cannot have seen yet.
            bound = after
            pending = self._insert_high.get(table)
            if pending is not None and pending > bound:
                bound = pending
            self._table_high[table] = bound
        return keys

    def read_range_raw(
        self,
        table: str,
        low: Optional[Key],
        high: Optional[Key],
        limit: Optional[int],
        flavor: ReadFlavor,
        low_exclusive: bool = False,
    ) -> tuple[RecordView, ...]:
        route = self._route(table)
        op = RangeReadOp(
            table=table,
            low=low,
            high=high,
            limit=limit,
            flavor=flavor,
            low_exclusive=low_exclusive,
        )
        op_id = self.log.issue_read_id()
        result = self._perform(route.dc_name, op, op_id)
        self._complete_op(op_id)
        self._expect_ok(result, op)
        return result.records

    def _check_ownership(self, table: str, key: Key) -> None:
        """Section 6: a TC may only update keys in its own partition —
        that disjointness is what lets multiple TCs share a DC without the
        DC ever seeing conflicting concurrent operations."""
        if self.ownership_guard is not None and not self.ownership_guard(table, key):
            from repro.common.errors import OwnershipError

            raise OwnershipError(
                f"TC {self.tc_id} does not own key {key!r} of table {table!r}"
            )

    def _write_prior(
        self, txn: Transaction, table: str, key: Key, unknown: object
    ) -> object:
        """The value a write is about to replace, as far as the TC knows —
        ``unknown`` (``ABSENT`` for an insert, ``OWED`` otherwise) when it
        does not.

        No read is spent on either thing a prior is for.  The existence
        check is the DC's own verdict when the envelope arrives — a per-op
        rejection surfaces as the same :class:`DuplicateKeyError` /
        :class:`NoSuchRecordError`, from the call itself on the default
        envelope of one.  The before-image an insert never needs (its
        inverse is a bare delete), an increment never needs (its inverse is
        the negated delta), and an update or delete gets from its own
        reply: the record is logged ``owed`` and the reply's ``prior``
        fills it.  Anything the TC actually knows (transaction- or
        cache-local) still answers first.

        A policy that serves readers from the before-image at write time
        (``ConcurrencyControl.needs_write_prior``) reads first — and so
        does any TC while a rollback is parked behind a DC outage: that
        transaction's locks are gone but its keys are not settled, and
        what kept a new writer of such a key from logging ahead of the
        parked compensation was always the read's own round trip (it
        fails while the DC is down and stalls until the heal's redo
        window has re-driven the rollback).
        """
        if self.cc.needs_write_prior or self._zombie_rollbacks:
            return self._known_value(txn, table, key)
        known = txn.known.get((table, key))
        if known is not None:
            return known
        if self._undo_cache is not None:
            hit = self._cache_lookup((table, key))
            if hit is not None:
                txn.known[(table, key)] = hit
                return hit
            if unknown is OWED:
                # A miss the cache could have saved an owed image on (an
                # insert's guess never had an image to miss).
                self._cache_misses_slot.value += 1
        return unknown

    def _known_value(self, txn: Transaction, table: str, key: Key) -> object:
        """Value under our lock, reading through to the DC once if unknown.

        The 2PL read path, and a write whose prior must be known before it
        is sent (:meth:`_write_prior`).  Values this TC learned in earlier
        transactions are served from the undo-info cache instead — the
        caller already holds the covering lock, and this TC is the sole
        writer of its keys, so a cached committed value is current.
        """
        cached = txn.known.get((table, key))
        if cached is not None:
            return cached
        if self._undo_cache is not None:
            hit = self._cache_lookup((table, key))
            if hit is not None:
                txn.known[(table, key)] = hit
                return hit
            self._cache_misses_slot.value += 1
        route = self._route(table)
        op = ReadOp(table=table, key=key, flavor=ReadFlavor.OWN)
        op_id = self.log.issue_read_id()
        result = self._perform(route.dc_name, op, op_id)
        self._complete_op(op_id)
        self._undo_reads_slot.value += 1
        if result.status is OpStatus.NOT_FOUND:
            txn.known[(table, key)] = ABSENT
            self._cache_store(table, key, ABSENT)
            return ABSENT
        self._expect_ok(result, op)
        txn.known[(table, key)] = result.value
        self._cache_store(table, key, result.value)
        return result.value

    def _cc_fetch(self, table: str, key: Key) -> object:
        """Lock-free policy read: one DC round trip, value or ``ABSENT``.

        Deliberately bypasses ``txn.known`` and the undo-info cache —
        both feed undo logging and may only hold values learned under a
        covering lock; a lock-free read caching there would let an abort
        "restore" a value that was never the committed state.
        """
        route = self._route(table)
        op = ReadOp(table=table, key=key, flavor=ReadFlavor.OWN)
        op_id = self.log.issue_read_id()
        result = self._perform(route.dc_name, op, op_id)
        self._complete_op(op_id)
        if result.status is OpStatus.NOT_FOUND:
            return ABSENT
        self._expect_ok(result, op)
        return result.value

    # -- the undo-info cache (docs/architecture.md §9.2) -------------------------------------

    def _cache_lookup(self, slot: tuple[str, Key]) -> object:
        """Probe the undo-info cache (caller checked it is on); a hit
        becomes the youngest entry.  None on a miss."""
        cache = self._undo_cache
        hit = cache.get(slot)
        if hit is not None:
            try:
                cache.move_to_end(slot)
            except KeyError:
                pass  # evicted by another thread's store since the get
            self._cache_hits_slot.value += 1
        return hit

    def _cache_store(self, table: str, key: Key, value: object) -> None:
        """Remember a value this TC learned under a lock it held.

        Only keys this TC owns are cached (with an ownership guard
        installed, a foreign TC may mutate unowned keys behind our back).
        The stored entry becomes the youngest; past ``undo_cache_size``
        the least recently used one is evicted.
        """
        cache = self._undo_cache
        if cache is None:
            return
        if self.ownership_guard is not None and not self.ownership_guard(table, key):
            return
        slot = (table, key)
        cache.pop(slot, None)  # re-inserted at the young end
        cache[slot] = value
        if len(cache) > self.config.undo_cache_size:
            cache.popitem(last=False)

    def _cache_committed(self, txn: Transaction) -> None:
        """Write-through at commit: everything the transaction knows under
        its locks is now the committed state (called before lock release)."""
        if self._undo_cache is None:
            return
        for (table, key), value in txn.known.items():
            self._cache_store(table, key, value)

    def _uncache_txn(self, txn: Transaction) -> None:
        """Drop every key the transaction touched (abort/ambiguity paths)."""
        cache = self._undo_cache
        if cache is None:
            return
        for table_key in txn.known:
            cache.pop(table_key, None)
        for record in txn.op_records:
            op = record.op
            if op is not None:
                cache.pop((op.table, getattr(op, "key", None)), None)
        self.metrics.incr("tc.undo_cache_invalidations")

    def _uncache_dc(self, dc_name: str) -> None:
        """Drop every entry routed to ``dc_name`` (DC reset/restart: its
        cached state was lost and is being rebuilt by redo)."""
        cache = self._undo_cache
        if cache is None:
            return
        tables = {
            table for table, route in self._routes.items() if route.dc_name == dc_name
        }
        for table_key in [tk for tk in cache if tk[0] in tables]:
            del cache[table_key]
        for table in tables:
            # Redo rebuilds the same key set, so a retained bound would in
            # fact stay a valid overestimate — but the bound is volatile
            # hint state, so it is re-learned rather than reasoned about.
            self._table_high.pop(table, None)
        self.metrics.incr("tc.undo_cache_invalidations")

    def _run_mutation(
        self,
        txn: Transaction,
        route: _TableRoute,
        op: LogicalOperation,
        undo: Optional[LogicalOperation],
        owed: bool = False,
    ) -> None:
        """Queue a validated, locked mutation in the transaction's envelope
        for its DC.  Nothing is in the log or on the wire yet: the envelope
        is logged and sent when it reaches ``batch_max_ops`` (at once, by
        default) or at the next flush point (commit, a conflicting
        operation, a scan, :meth:`Transaction.sync`).  OPSR holds although
        the record is appended later: the lock was taken now."""
        txn.in_flight[(op.table, getattr(op, "key", None))] = QueuedOp(  # type: ignore[index]
            route.dc_name, op, undo, owed
        )
        self._mutations_slot.value += 1
        if len(txn.in_flight) >= self.config.batch_max_ops:
            self.sync_pipeline(txn)

    def _sync_if_conflicting(self, txn: Transaction, table: str, key: Key) -> None:
        """Never let two operations on one key be in flight together —
        the TC's core obligation (Section 1.2) extends to its own
        envelopes."""
        if (table, key) in txn.in_flight:
            self.sync_pipeline(txn)

    def sync_pipeline(self, txn: Transaction) -> None:
        """Flush the pending operations as one :class:`BatchedPerform`
        envelope per DC and take in the replies."""
        if not txn.in_flight:
            return
        groups: dict[str, list] = {}
        for slot, record in txn.in_flight.items():
            groups.setdefault(record.dc_name, []).append(slot)
        # Pipelined flush (process transport): pre-send every DC's
        # first-attempt envelope before collecting any reply, so N DC
        # processes execute concurrently while this one TC thread waits.
        # Out-of-order completion is §4.2.1-safe: per-op ids correlate
        # replies, resends are absorbed by idempotence.  A presend whose
        # reply is never collected (an earlier group failed) is
        # indistinguishable from a lost reply — the records stay in flight
        # and a later sync resends the same LSNs.
        presends: dict[str, object] = {}
        if len(groups) > 1:
            for dc_name, slots in groups.items():
                channel = self._channels[dc_name]
                if not channel.supports_async or channel.dc.crashed:
                    continue
                presends[dc_name] = channel.request_async(
                    self._batch_envelope(self._log_envelope(txn, slots), resend=False)
                )
        for dc_name, slots in groups.items():
            self._send_batch(txn, dc_name, slots, presend=presends.pop(dc_name, None))
        self._syncs_slot.value += 1

    def _guard_abort(self, txn: Transaction, fn, *args: object) -> None:
        """Run a locking step; on deadlock or lock timeout, roll back —
        a transaction must never survive holding a partial lock set."""
        try:
            fn(*args)
        except (TransactionAborted, LockTimeoutError):
            self._force_abort(txn)
            raise

    def _force_abort(self, txn: Transaction) -> None:
        if txn.state is not TransactionState.ACTIVE:
            return
        try:
            self.abort(txn)
        except ReproError:
            # Rollback could not complete (typically: the DC is down, so
            # inverse operations cannot be delivered).  Release the locks
            # so the system makes progress, but remember the transaction —
            # its compensation is retried when the DC comes back (and a TC
            # restart would roll it back as an ordinary loser anyway).
            with self._admin:
                self._zombie_rollbacks.append(txn)  # before the locks go
            self.locks.release_all(txn.txn_id)
            txn.state = TransactionState.ABORTED
            self.metrics.incr("tc.zombie_rollbacks")

    def _retry_zombie_rollbacks(self) -> None:
        """Finish rollbacks that were interrupted by a DC outage."""
        with self._admin:
            zombies, self._zombie_rollbacks = self._zombie_rollbacks, []
        for txn in zombies:
            try:
                self._drive_rollback(txn)
                # The inverses just changed DC state for keys whose locks
                # were released long ago — drop anything cached for them
                # (a concurrent reader may have re-cached since the abort).
                self._uncache_txn(txn)
                # Settled at last: bump the keys' stamps (any lock-free
                # read of the mid-rollback bytes must fail validation) and
                # free the writer registry for new writers.
                self.cc.on_abort_settled(txn)
                self.log.append(
                    lambda lsn, t=txn.txn_id: TxnEndRecord(lsn=lsn, txn_id=t)
                )
                self.metrics.incr("tc.zombie_rollbacks_completed")
            except ReproError:
                with self._admin:
                    self._zombie_rollbacks.append(txn)  # still unreachable

    def _retry_zombie_completions(self) -> None:
        """Finish post-commit version cleanup interrupted by a DC outage."""
        with self._admin:
            zombies, self._zombie_completions = self._zombie_completions, []
        for txn in zombies:
            try:
                for table, keys in sorted(txn.versioned_keys.items()):
                    self._send_version_cleanup(txn.txn_id, table, keys, promote=True)
                self.log.append(
                    lambda lsn, t=txn.txn_id: TxnEndRecord(lsn=lsn, txn_id=t)
                )
                self.metrics.incr("tc.zombie_completions_finished")
            except ReproError:
                with self._admin:
                    self._zombie_completions.append(txn)  # still unreachable

    def retry_pending(self) -> None:
        """Re-drive interrupted rollbacks/cleanups (the supervisor's heal
        hook; also runs automatically on DC restart prompts)."""
        self._check_up()
        self._retry_zombie_rollbacks()
        self._retry_zombie_completions()

    def pending_zombies(self) -> int:
        with self._admin:
            return len(self._zombie_rollbacks) + len(self._zombie_completions)

    @staticmethod
    def _expect_ok(result: OpResult, op: LogicalOperation) -> None:
        if not result.ok:
            raise TransactionalComponent._rejection(result, op)

    @staticmethod
    def _rejection(result: OpResult, op: LogicalOperation) -> ReproError:
        """The typed error for a DC's verdict other than OK."""
        if result.status is OpStatus.DUPLICATE:
            return DuplicateKeyError(op.table, getattr(op, "key", None))
        if result.status is OpStatus.NOT_FOUND:
            return NoSuchRecordError(op.table, getattr(op, "key", None))
        return ReproError(f"operation failed: {result.message} ({op!r})")

    # -- messaging ---------------------------------------------------------------------------------

    def _await_redo_quiesce(self, dc_name: str) -> None:
        """Stall ordinary dispatch to a DC whose redo stream is replaying.

        After a DC restart, its record state is rebuilt by this TC's redo
        resend (:meth:`_on_dc_restart`).  An operation slipping in
        mid-rebuild would observe committed records as absent — and a
        read-before-write would capture that absence as undo information,
        so a later abort's repeat-history undo would erase committed data.
        The thread running the redo itself passes through (redo resends,
        zombie rollbacks and completions all use :meth:`_perform`).
        """
        if not self._dc_redo:
            return
        me = threading.get_ident()
        if _sched.task_active():
            # Cooperative mode: park at the scheduler (marked blocked on
            # the redo window) instead of a real condition wait; the redo
            # thread notifies when the window closes.
            while True:
                with self._redo_cv:
                    if self._dc_redo.get(dc_name) in (None, me):
                        return
                _sched.maybe_yield(
                    YieldPoint.DC_REDO_WAIT, dc_name, resource=f"redo:{dc_name}"
                )
            return
        with self._redo_cv:
            while self._dc_redo.get(dc_name) not in (None, me):
                self._redo_cv.wait(timeout=1.0)

    def _perform(
        self,
        dc_name: str,
        op: LogicalOperation,
        op_id: Lsn,
        resend: bool = False,
        redo: bool = False,
        want_prior: bool = False,
    ) -> OpResult:
        """Send with resend-until-acknowledged (exactly-once end to end).

        Resends follow the TC's :class:`~repro.common.config.RetryPolicy`:
        exponential backoff charged to simulated channel time (never
        slept), bounded by both an attempt count and a per-operation
        timeout budget.  A DC known to be down — crashed, or behind an
        unhealed partition — fails fast with
        :class:`ComponentUnavailableError` instead of burning the budget;
        an exhausted budget raises :class:`ResendExhaustedError` so the
        caller (or supervisor) can tell "slow" from "gone".
        """
        self._await_redo_quiesce(dc_name)
        channel = self._channels[dc_name]
        policy = self.config.retry_policy()
        attempts = 0
        waited_ms = 0.0
        if self.tracer.enabled:
            # The op id *is* the trace context: DC-side spans started later
            # (e.g. redo after a crash) can recover this request's trace.
            self.tracer.bind_request(op_id)
        while not policy.exhausted(attempts, waited_ms):
            self._require_reachable(channel, dc_name, attempts, waited_ms)
            message = PerformOperation(
                tc_id=self.tc_id,
                op_id=op_id,
                op=op,
                resend=resend or attempts > 0,
                eosl=self.log.eosl,
                redo=redo,
                want_prior=want_prior,
            )
            reply = channel.request(message)
            attempts += 1
            if reply is None:
                if channel.dc.crashed:
                    raise ComponentUnavailableError(f"DC {dc_name}", attempts, waited_ms)
                backoff = policy.backoff_ms(attempts)
                waited_ms += backoff
                channel.sim_time_ms += backoff
                self.metrics.incr("tc.resends")
                continue
            assert isinstance(reply, OperationReply)
            assert reply.result is not None
            if reply.result.status is OpStatus.UNSTABLE:
                self._await_stability(reply.result)
                waited_ms += policy.backoff_ms(attempts)
                continue
            return reply.result
        raise ResendExhaustedError(op_id, dc_name, attempts, waited_ms)

    def _await_stability(self, refusal: OpResult) -> None:
        """A DC's causality gate refused an operation (nothing executed):
        the log-force prompt met a record, at or below the LSN the gate
        needs, whose before-image another session's envelope still owes.
        The prompt does not wait for it — that envelope may be queued
        behind the very operation that prompted — so the wait happens
        here, with the DC's latches released: until the fill (or the lock
        timeout), then the caller resends under its retry budget.
        """
        self.metrics.incr("tc.unstable_retries")
        self.log.await_fill(refusal.value, self.config.lock_timeout)

    def _log_envelope(self, txn: Transaction, slots: list) -> list[OpRecord]:
        """The records of one DC's pending envelope, in order — appending
        the ones still queued to the log now, as the envelope goes out.

        Logging at flush, not at call, is what bounds how long a record
        can be *owed*: one DC round trip, however long the client thinks
        between operations.  (A resend after a transport failure finds its
        records logged already and keeps their LSNs.)
        """
        in_flight = txn.in_flight
        records = [in_flight[slot] for slot in slots]
        queued = [item for item in records if not item.lsn]
        if queued:
            txn_id = txn.txn_id
            logged = self.log.append_envelope(
                queued,
                lambda lsn, q: OpRecord(lsn, txn_id, q.op, q.undo, q.dc_name, q.owed),
            )
            fresh = iter(logged)
            records = [item if item.lsn else next(fresh) for item in records]
            in_flight.update(zip(slots, records))
            txn.op_records.extend(logged)
            txn.logged = True
        return records

    def _batch_envelope(
        self, records: list[OpRecord], resend: bool
    ) -> BatchedPerform:
        return BatchedPerform(
            tc_id=self.tc_id,
            ops=tuple(
                PerformOperation(
                    tc_id=self.tc_id,
                    op_id=record.lsn,
                    op=record.op,
                    resend=resend,
                    want_prior=record.owed,
                )
                for record in records
            ),
            eosl=self.log.eosl,
        )

    def _send_batch(
        self,
        txn: Transaction,
        dc_name: str,
        slots: list,
        presend: Optional[object] = None,
    ) -> None:
        """Log and ship one DC's pending operations in a single envelope.

        Retries resend the *whole remaining* envelope with the same per-op
        LSNs (``resend=True``), which the DC's per-op abLSN idempotence
        test absorbs — the single-message contract, minus round trips.
        A semantic rejection of one operation is handled per-op: the
        record leaves the undo chain, a cancel marker tells restart redo
        to skip it, and (once the whole reply is taken in) the first such
        failure surfaces.  An owed record is
        completed from its reply's ``prior`` before it is marked replied,
        so the low-water mark never passes a record still owed.

        Operations leave ``txn.in_flight`` as their replies are taken in;
        a transport failure leaves them there, logged, so a later sync
        (rollback repeats history) resends the same LSNs.

        ``presend`` is an already-dispatched first attempt (a pipelined
        reply slot from :meth:`sync_pipeline`'s concurrent flush); the
        first loop iteration awaits it instead of sending again.
        """
        channel = self._channels[dc_name]
        policy = self._retry_policy
        attempts = 0
        waited_ms = 0.0
        # Logged only once the DC is known reachable: an envelope for a DC
        # that is down stays queued, and an abort simply forgets it.
        self._require_reachable(channel, dc_name, attempts, waited_ms)
        records = self._log_envelope(txn, slots)
        pending = {record.lsn: (slot, record) for slot, record in zip(slots, records)}
        with self.tracer.span(
            "tc.batch_flush", component=self.name, dc=dc_name, ops=len(records)
        ):
            while pending:
                if attempts:
                    if policy.exhausted(attempts, waited_ms):
                        raise ResendExhaustedError(
                            min(pending), dc_name, attempts, waited_ms
                        )
                    self._require_reachable(channel, dc_name, attempts, waited_ms)
                if presend is not None:
                    reply = channel.finish_async(presend)
                    presend = None
                else:
                    reply = channel.request(
                        self._batch_envelope(
                            [record for _slot, record in pending.values()],
                            attempts > 0,
                        )
                    )
                attempts += 1
                if reply is None:
                    if channel.dc.crashed:
                        raise ComponentUnavailableError(
                            f"DC {dc_name}", attempts, waited_ms
                        )
                    backoff = policy.backoff_ms(attempts)
                    waited_ms += backoff
                    channel.sim_time_ms += backoff
                    self.metrics.incr("tc.resends")
                    continue
                assert isinstance(reply, BatchedReply)
                refusal = self._take_in(txn, pending, reply)
                if refusal is not None:
                    self._await_stability(refusal)
                    waited_ms += policy.backoff_ms(attempts)

    def _require_reachable(
        self, channel: MessageChannel, dc_name: str, attempts: int, waited_ms: float
    ) -> None:
        """Checked before every send attempt: the TC itself may have been
        crashed mid-operation (e.g. by a fault during a DC-prompted log
        force), and a DC crash can open a redo window while an operation
        is mid-retry — its resend must not land on the rebuilt DC before
        redo replays what came before it."""
        self._check_up()
        self._await_redo_quiesce(dc_name)
        if channel.dc.crashed or (
            channel.faults is not None and channel.faults.partitioned(dc_name)
        ):
            raise ComponentUnavailableError(f"DC {dc_name}", attempts, waited_ms)

    def _take_in(
        self, txn: Transaction, pending: dict, reply: BatchedReply
    ) -> Optional[OpResult]:
        """Settle every operation ``reply`` answers: before-images into
        their owed records, rejections cancelled, all of them marked
        replied under one log-mutex bracket; then raise the first
        rejection, if any.  An operation the causality gate refused stays
        pending; the verdict naming the highest LSN is returned."""
        images: dict[Lsn, Value] = {}
        completed: list[Lsn] = []
        rejection: Optional[ReproError] = None
        refusal: Optional[OpResult] = None
        for sub in reply.replies:
            if sub.result is not None and sub.result.status is OpStatus.UNSTABLE:
                if sub.op_id in pending and (
                    refusal is None or sub.result.value > refusal.value
                ):
                    refusal = sub.result
                continue
            slot, record = pending.pop(sub.op_id, (None, None))
            if record is None:
                continue  # a duplicated reply; already confirmed
            completed.append(record.lsn)
            txn.in_flight.pop(slot, None)
            result, op = sub.result, record.op
            assert result is not None and op is not None
            if result.ok:
                if record.owed:
                    if result.prior is None:
                        # Never guess an undo image: fail-stop.  The owed
                        # record was never stable, so restart loses it from
                        # the log and resets it out of the DC.
                        self.crash()
                        raise UndoImageLostError(f"TC {self.tc_id}", record.lsn)
                    images[record.lsn] = result.prior
                if type(op) is IncrementOp:
                    txn.known[slot] = result.value
                continue
            # The op never executed: drop it from the undo chain, tell
            # restart redo to skip it, forget what the transaction and
            # the cache believed about the key.
            if record.owed:
                images[record.lsn] = None
            if record in txn.op_records:
                txn.op_records.remove(record)
            self._cancel_record(txn.txn_id, record)
            txn.known.pop(slot, None)
            if self._undo_cache is not None:
                self._undo_cache.pop(slot, None)
            if rejection is None:
                rejection = self._rejection(result, op)
        if images:
            self.log.fill(images)
        if completed:
            self._complete_ops(completed)
        if rejection is not None:
            raise rejection
        return refusal

    def _request_acked(self, dc_name: str, message) -> object:
        """Deliver a control message reliably: resend until a reply arrives.

        Contract-state control messages (``RestartBegin``,
        ``EndOfStableLog`` at restart) must not be silently lost on a lossy
        channel — the DC acks them and this helper retries under the same
        policy envelope as :meth:`_perform`.  The messages themselves are
        idempotent, so a reply lost after delivery just costs a resend.
        """
        channel = self._channels[dc_name]
        policy = self.config.retry_policy()
        attempts = 0
        waited_ms = 0.0
        while not policy.exhausted(attempts, waited_ms):
            if channel.dc.crashed or (
                channel.faults is not None and channel.faults.partitioned(dc_name)
            ):
                raise ComponentUnavailableError(f"DC {dc_name}", attempts, waited_ms)
            reply = channel.request(message)
            attempts += 1
            if reply is not None:
                return reply
            if channel.dc.crashed:
                raise ComponentUnavailableError(f"DC {dc_name}", attempts, waited_ms)
            backoff = policy.backoff_ms(attempts)
            waited_ms += backoff
            channel.sim_time_ms += backoff
            self.metrics.incr("tc.resends")
        raise ResendExhaustedError(0, dc_name, attempts, waited_ms)

    def _complete_op(self, op_id: Lsn) -> None:
        if self.tracer.enabled:
            self.tracer.release_request(op_id)
        lwm = self.log.complete_op(op_id)
        self._completions_since_lwm += 1
        if self._completions_since_lwm >= self.config.lwm_interval:
            self._completions_since_lwm = 0
            self.broadcast_lwm(lwm)

    def _complete_ops(self, op_ids: list[Lsn]) -> None:
        """Batch form of :meth:`_complete_op`: one tracker bracket for a
        whole reply envelope."""
        if self.tracer.enabled:
            for op_id in op_ids:
                self.tracer.release_request(op_id)
        lwm = self.log.complete_ops(op_ids)
        self._completions_since_lwm += len(op_ids)
        if self._completions_since_lwm >= self.config.lwm_interval:
            self._completions_since_lwm = 0
            self.broadcast_lwm(lwm)

    def broadcast_lwm(self, lwm: Optional[Lsn] = None) -> None:
        """Ship the low-water mark to every DC (Section 5.1.2)."""
        lwm = lwm if lwm is not None else self.log.lwm
        if lwm <= NULL_LSN:
            return
        redo_bypass = threading.get_ident()
        for dc_name, channel in self._channels.items():
            if self._dc_redo.get(dc_name, redo_bypass) != redo_bypass:
                # The LWM says "replies received", but the replies came
                # from the pre-crash incarnation: advancing a freshly
                # rebuilt page's abLSN low water past still-unreplayed
                # operations would make redo dedupe them and lose their
                # effects.  Skip the DC until its redo window closes (the
                # redo thread itself broadcasts when it is done).
                self.metrics.incr("tc.lwm_held_for_redo")
                continue
            channel.request(LowWaterMark(tc_id=self.tc_id, lwm=lwm))
        self.metrics.incr("tc.lwm_broadcasts")

    def force_log(self) -> Lsn:
        """Force the log; the new EOSL piggybacks on subsequent operations
        (checkpoint and restart still push it explicitly)."""
        if self.faults is not None:
            from repro.sim.faults import FaultPoint

            # A crash here loses the volatile log tail — the classic
            # "commit record never reached the disk" failure.
            self.faults.hit(FaultPoint.TC_LOG_FORCE, self.name)
        return self.log.force()

    def broadcast_eosl(self) -> Lsn:
        """Explicitly push the current EOSL to every DC (causality, WAL)."""
        eosl = self.log.eosl
        for channel in self._channels.values():
            channel.request(EndOfStableLog(tc_id=self.tc_id, eosl=eosl))
        return eosl

    def _force_through(self, lsn: Lsn, images: Mapping[Lsn, Value]) -> Lsn:
        """DC-prompted log force (the system-transaction causality gate).

        The prompt is raised while an envelope executes, so a record at or
        below ``lsn`` may still owe its before-image — and the reply that
        would bring it is stuck behind the prompt.  ``images`` are the
        ones the DC holds for this TC up to ``lsn``: everything this
        thread's own envelope has executed so far (envelope order is LSN
        order), and whatever other sessions' envelopes have executed
        there — so the usual case fills, forces and answers ``>= lsn``.
        What is left is a record owed by an envelope that has not executed
        yet.  That one is never waited for here: it may be queued behind
        the operation that prompted.  The answer is the EOSL there is, the
        DC refuses the structure change without touching a page, and the
        sender of the refused operation waits outside the DC
        (:meth:`_await_stability`).
        """
        if images:
            self.log.fill(images)
        if not self.log.needs_force(lsn):
            return self.log.eosl
        self.metrics.incr("tc.prompted_forces")
        return self.force_log()

    # -- checkpointing (contract termination, Section 4.2) --------------------------------------------

    def checkpoint(self) -> bool:
        """Advance the redo scan start point; False when a DC is blocked."""
        self._check_up()
        if self.faults is not None:
            from repro.sim.faults import FaultPoint

            self.faults.hit(FaultPoint.TC_CHECKPOINT, self.name)
        if _sched.task_active():
            # Fixed target (like TC_LOG_FORCE): the TC's allocated name
            # varies across kernels, and event streams must be a pure
            # function of the seed.
            _sched.maybe_yield(YieldPoint.TC_CHECKPOINT, "tc")
        self.force_log()
        self.broadcast_eosl()
        self.broadcast_lwm()
        candidate = self.log.lwm + 1
        if candidate <= self._rssp:
            self._truncate_log()
            return True
        for name, channel in self._channels.items():
            reply = channel.request(
                CheckpointRequest(tc_id=self.tc_id, new_rssp=candidate)
            )
            if not isinstance(reply, CheckpointReply) or reply.granted_rssp < candidate:
                self.metrics.incr("tc.checkpoint_blocked")
                return False
        self._rssp = candidate
        self.log.append(
            lambda lsn: CheckpointRecord(lsn=lsn, txn_id=0, rssp=candidate)
        )
        self.force_log()
        self.metrics.incr("tc.checkpoints")
        self._truncate_log()
        return True

    def _truncate_log(self) -> int:
        """Reclaim stable log space below the checkpoint (contract
        termination's whole point): replay cost — and with it restart
        time — stays proportional to the live tail, not history.

        Crash-safe at any point: truncation only ever drops records redo
        and undo provably no longer need (:meth:`TcLog.truncation_point`),
        so a crash before, during or after it merely replays more or
        fewer records.
        """
        if not self.config.truncate_log or self._rssp <= NULL_LSN:
            return 0
        if self.faults is not None:
            from repro.sim.faults import FaultPoint

            # A crash here models dying between the checkpoint record
            # force and the space reclaim — the log keeps its prefix and
            # restart simply replays from the (already stable) RSSP.
            self.faults.hit(FaultPoint.TC_TRUNCATE, self.name)
        if _sched.task_active():
            _sched.maybe_yield(YieldPoint.TC_TRUNCATE, "tc")
        point = self.log.truncation_point(self._rssp)
        dropped = self.log.truncate_below(point)
        if dropped:
            self.metrics.incr("tc.log_truncations")
        return dropped

    def _on_rssp_hint(self, dc_name: str, lsn: Lsn) -> None:
        """Spontaneous contract termination (Section 4.2.1): a DC reports
        that everything below ``lsn`` is stable there.  The redo scan start
        point may advance once *every* attached DC has hinted at least that
        far (the RSSP is a global minimum)."""
        with self._admin:
            self._rssp_hints[dc_name] = max(self._rssp_hints.get(dc_name, 0), lsn)
            if len(self._rssp_hints) < len(self._channels):
                return
            candidate = min(self._rssp_hints.values())
            if candidate <= self._rssp:
                return
            self._rssp = candidate
            self.metrics.incr("tc.rssp_hint_advances")
        self.log.append(
            lambda l: CheckpointRecord(lsn=l, txn_id=0, rssp=candidate)
        )
        self.force_log()
        self._truncate_log()

    @property
    def rssp(self) -> Lsn:
        return self._rssp

    # -- failure handling --------------------------------------------------------------------------------

    def crash(self) -> int:
        """Lose all volatile state: log tail, lock table, live transactions.

        Returns the number of log records lost (they are gone forever; the
        DC-reset protocol of Section 5.3.2 must erase their effects)."""
        self._crashed = True
        lost = self.log.crash()
        self.locks.clear()
        # CC stamps / writer registry / before-images are volatile exactly
        # like the lock table; restart re-learns everything it needs.
        self.cc.clear()
        with self._admin:
            self._active.clear()
            self._zombie_rollbacks.clear()
            self._zombie_completions.clear()
        if self._undo_cache is not None:
            # Volatile, and the crash may have lost logged-but-unstable
            # operations whose effects the cached values reflect.
            self._undo_cache.clear()
        self._table_high.clear()
        self._insert_high.clear()
        self._completions_since_lwm = 0
        self.metrics.incr("tc.crashes")
        for listener in list(self.on_crash):
            listener(self.name, "tc")
        return lost

    def restart(self, reset_mode: Optional[ResetMode] = None) -> dict[str, int]:
        """Recover from a TC crash (Section 5.3.2 "TC Failure")."""
        from repro.tc.recovery import TcRestart

        try:
            stats = TcRestart(self).run(reset_mode or self.reset_mode)
        except (CrashedError, ResendExhaustedError):
            # The restart itself was interrupted (a fresh fault, or a DC
            # became unreachable mid-redo).  Restart clears the crashed
            # flag early so its own redo traffic passes _check_up; a
            # half-restarted TC must not pass for operational, so re-mark
            # it and let the supervisor retry the whole restart.
            self._crashed = True
            raise
        self._crashed = False
        return stats

    def _on_dc_restart(self, dc: DataComponent) -> None:
        """Out-of-band prompt: the DC lost its cache; resend from the RSSP."""
        if self._crashed:
            return
        from repro.tc.recovery import resend_redo_stream

        # The DC lost cached state; until redo finishes rebuilding it, no
        # cached value for its tables can be trusted.
        self._uncache_dc(dc.name)
        # Close the DC to ordinary dispatch for the whole redo window: a
        # new operation arriving mid-rebuild would read committed records
        # as absent (and a later abort would then undo to that absence).
        with self._redo_cv:
            self._dc_redo[dc.name] = threading.get_ident()
        root = self.tracer.start_trace(
            "tc.dc_restart_redo", component=self.name, dc=dc.name
        )
        try:
            with self.tracer.activate(root):
                eosl = self.log.force()
                if dc.name in self._channels:
                    # Acked: redo below relies on the DC knowing the
                    # current EOSL.
                    self._request_acked(
                        dc.name, EndOfStableLog(tc_id=self.tc_id, eosl=eosl)
                    )
                resend_redo_stream(self, dc_names={dc.name})
                # Close the DC-side redo window before anything that may
                # dispatch ordinary (non-redo) traffic: zombie CLR retries
                # below re-send as normal operations.  Acked: a lost close
                # would leave the DC bouncing this TC forever.
                if dc.name in self._channels:
                    self._request_acked(dc.name, RedoComplete(tc_id=self.tc_id))
                self._retry_zombie_rollbacks()
                self._retry_zombie_completions()
                self.broadcast_lwm()
        finally:
            root.finish()
            with self._redo_cv:
                self._dc_redo.pop(dc.name, None)
                self._redo_cv.notify_all()
            _sched.notify(f"redo:{dc.name}")
        self.metrics.incr("tc.dc_restart_redos")

    @property
    def crashed(self) -> bool:
        return self._crashed

    # -- introspection -------------------------------------------------------------------------------------

    def active_count(self) -> int:
        with self._admin:
            return len(self._active)

    def stats(self) -> dict[str, object]:
        """Introspection snapshot: log, locks, routing, contract state."""
        return {
            "tc_id": self.tc_id,
            "cc_policy": self.cc.name,
            "active_transactions": self.active_count(),
            "log_records": self.log.record_count(),
            "stable_records": self.log.stable_count(),
            "eosl": self.log.eosl,
            "lwm": self.log.lwm,
            "rssp": self._rssp,
            "locks_held": self.locks.total_locks(),
            "tables_routed": len(self._routes),
            "dcs_attached": len(self._channels),
        }

    def channels(self) -> dict[str, MessageChannel]:
        return dict(self._channels)
