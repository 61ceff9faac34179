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

Each duty but locking and concurrency control (``tc/lock_manager.py``,
``tc/range_protocols.py``, ``tc/cc.py``) is a stage that owns its state
(docs/architecture.md §1): the handle (``tc/handle.py``), the undo-info
cache (``tc/undo_cache.py``), envelope dispatch and resend
(``tc/dispatch.py``), durability (``tc/durability.py``), rollback and its
re-drive (``tc/rollback.py``) and restart (``tc/recovery.py``).  This
class keeps the transaction lifecycle, the operations and the wiring.
"""

from __future__ import annotations

import itertools
import threading
from typing import TYPE_CHECKING, Callable, Optional

from repro.common.config import ChannelConfig, RangeLockProtocol, TcConfig
from repro.common.errors import CrashedError, DuplicateKeyError, LockTimeoutError
from repro.common.errors import NoSuchRecordError, OwnershipError, ReproError
from repro.common.errors import ResendExhaustedError, TransactionAborted
from repro.common.lsn import Lsn
from repro.common.ops import DeleteOp, DiscardVersionsOp, IncrementOp, InsertOp
from repro.common.ops import LogicalOperation, OpStatus, PromoteVersionsOp, ReadFlavor
from repro.common.ops import ReadOp, UpdateOp
from repro.common.records import Key, Value
from repro.dc.data_component import DataComponent
from repro.net.channel import MessageChannel, build_channel
from repro.obs.tracing import NULL_TRACER
from repro.sim import schedule as _sched
from repro.sim.metrics import Metrics
from repro.storage.buffer import ResetMode
from repro.tc import recovery
from repro.tc.cc import make_policy
from repro.tc.dispatch import Dispatch, expect_ok
from repro.tc.durability import Durability
from repro.tc.handle import ABSENT, OWED, QueuedOp  # noqa: F401  (re-exported)
from repro.tc.handle import SnapshotReader, Transaction, TransactionState
from repro.tc.lock_manager import LockManager
from repro.tc.log import AbortRecord, CommitRecord, GroupCommitCoalescer, OpRecord
from repro.tc.log import TcLog, TxnEndRecord
from repro.tc.range_protocols import FetchAheadProtocol, RangePartitionProtocol
from repro.tc.rollback import Rollback
from repro.tc.undo_cache import UndoCache

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.sim.faults import FaultInjector


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
            timeout=self.config.lock_timeout,
            tracer=self.tracer,
        )
        if self.config.range_protocol is RangeLockProtocol.FETCH_AHEAD:
            self.protocol = FetchAheadProtocol(self)
        else:
            self.protocol = RangePartitionProtocol(self)
        # Pluggable concurrency control (docs/architecture.md §19): every
        # read/scan/write-lock decision and the commit-time validation
        # gate dispatch through this policy.
        self.cc = make_policy(self)
        self._routes: dict[str, _TableRoute] = {}
        self._txn_ids = itertools.count(1)
        self._active: dict[int, Transaction] = {}
        self._admin = threading.RLock()
        self._crashed = False
        self.reset_mode = ResetMode.RECORD_RESET
        #: Group commit (docs/architecture.md §9.3): committing transactions
        #: share log forces, but a commit is acknowledged only once its
        #: record is stable.
        self._group_commit = GroupCommitCoalescer(
            self.log, self.config.group_commit_size, metrics=self.metrics
        )
        # The stages (module docstring), each owning its state.
        self.undo_cache = UndoCache(self)
        self.dispatch = Dispatch(self)
        self.durability = Durability(self)
        self.rollback = Rollback(self)
        # Hot-path counter slots, bound once (see Metrics.counter).
        self._mutations_slot = self.metrics.counter("tc.mutations")
        self._begins_slot = self.metrics.counter("tc.begins")
        self._commits_slot = self.metrics.counter("tc.commits")
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
        channel = build_channel(
            dc, channel_config, self.metrics, faults=self.faults, tracer=self.tracer
        )
        with self._admin:
            self.dispatch.channels[dc.name] = channel
        dc.register_tc(
            self.tc_id,
            force_log=self.durability.force_through,
            on_dc_restart=self._on_dc_restart,
            on_rssp_hint=self.durability.on_rssp_hint,
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

    def route(self, table: str) -> _TableRoute:
        route = self._routes.get(table)
        if route is None:
            raise ReproError(f"TC {self.tc_id}: no DC hosts table {table!r}")
        return route

    def tables_on(self, dc_name: str) -> set[str]:
        return {table for table, route in self._routes.items() if route.dc_name == dc_name}

    def _check_up(self) -> None:
        if self._crashed:
            raise CrashedError(f"TC {self.tc_id}")

    def hook(self, fault: str, yield_point: Optional[str] = None, **detail: object) -> None:
        """A TC fault hook point (``FaultPoint.TC_*``) — and, when named,
        the explorer's yield point of the same place.  Its target is the
        fixed "tc": the TC's allocated name varies across kernels, and
        event streams must be a pure function of the seed."""
        if self.faults is not None:
            self.faults.hit(fault, self.name)
        if yield_point is not None and _sched.task_active():
            _sched.maybe_yield(yield_point, "tc", **detail)

    def bump_txn_ids_past(self, txn_id: int) -> None:
        """Advance the txn-id allocator past ``txn_id`` (restart: a fresh
        incarnation must not reuse an id the stable log holds)."""
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
            self.dispatch.sync(txn)
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
            self.clean_versions(txn.txn_id, txn.versioned_keys, promote=True)
        except (CrashedError, ResendExhaustedError):
            self.force_log()
            # The commit decision stands; only the version cleanup parks.
            self._settle_commit(txn)
            self.rollback.park_completion(txn)
            self.metrics.incr("tc.zombie_completions")
            return
        self.log.append(lambda lsn: TxnEndRecord(lsn=lsn, txn_id=txn.txn_id))
        self._settle_commit(txn)

    def _settle_commit(self, txn: Transaction) -> None:
        """The commit decision is made (and, if anything was logged,
        durable): publish what the transaction learned, settle CC
        registry state with the locks, retire the handle."""
        self.undo_cache.committed(txn)
        self.cc.on_committed(txn)
        self.retire(txn, TransactionState.COMMITTED)
        self._commits_slot.value += 1

    def retire(self, txn: Transaction, state: TransactionState) -> None:
        """Release the transaction's locks and settle its handle."""
        self.locks.release_all(txn.txn_id)
        txn.state = state
        with self._admin:
            self._active.pop(txn.txn_id, None)

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
        self.undo_cache.forget_txn(txn)
        # Operations still queued never reached the log or a DC: forget them.
        txn.in_flight = {slot: r for slot, r in txn.in_flight.items() if r.lsn}
        if txn.logged:
            self.log.append(lambda lsn: AbortRecord(lsn=lsn, txn_id=txn.txn_id))
            try:
                self.rollback.drive(txn)
            except (CrashedError, ResendExhaustedError):
                self.rollback.park(txn)
                self.metrics.incr("tc.aborts")
                return
            self.log.append(lambda lsn: TxnEndRecord(lsn=lsn, txn_id=txn.txn_id))
        # else: nothing is logged under this id, so there is nothing to
        # roll back and nothing a restart could mistake for a loser.
        self.cc.on_abort_settled(txn)
        self.retire(txn, TransactionState.ABORTED)
        self.metrics.incr("tc.aborts")

    def _force_abort(self, txn: Transaction) -> None:
        """Roll back a transaction an operation could not leave holding a
        partial lock set; a rollback that cannot complete is parked."""
        if txn.state is not TransactionState.ACTIVE:
            return
        try:
            self.abort(txn)
        except ReproError:
            self.rollback.park(txn)

    def clean_versions(
        self, txn_id: int, versioned_keys: dict[str, set[Key]], promote: bool
    ) -> None:
        """Promote (commit) or discard (rollback) a transaction's versions,
        one logged operation per versioned table."""
        if not versioned_keys:
            return
        for table, keys in sorted(versioned_keys.items()):
            route = self.route(table)
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
            result = self.dispatch.perform(route.dc_name, op, record.lsn)
            expect_ok(result, op)
            self.dispatch.complete_ops([record.lsn])
            self.metrics.incr("tc.version_cleanups")

    # -- operations ------------------------------------------------------------------------

    def do_insert(self, txn: Transaction, table: str, key: Key, value: Value) -> None:
        self.undo_cache.note_insert(table, key)
        route, _prior = self._prepare_write(
            txn, table, key, self.cc.lock_for_insert, ABSENT, structural=True
        )
        op = InsertOp(table=table, key=key, value=value, versioned=route.versioned)
        undo = None if route.versioned else DeleteOp(table=table, key=key)
        self._run_mutation(txn, route, op, undo, value)

    def do_update(self, txn: Transaction, table: str, key: Key, value: Value) -> None:
        route, prior = self._prepare_write(
            txn, table, key, self.cc.lock_for_update, OWED, structural=False
        )
        op = UpdateOp(table=table, key=key, value=value, versioned=route.versioned)
        owed = prior is OWED and not route.versioned
        undo = (
            None
            if route.versioned or owed
            else UpdateOp(table=table, key=key, value=prior)
        )
        self._run_mutation(txn, route, op, undo, value, owed=owed)

    def do_delete(self, txn: Transaction, table: str, key: Key) -> None:
        route, prior = self._prepare_write(
            txn, table, key, self.cc.lock_for_delete, OWED, structural=True
        )
        op = DeleteOp(table=table, key=key, versioned=route.versioned)
        owed = prior is OWED and not route.versioned
        undo = (
            None
            if route.versioned or owed
            else InsertOp(table=table, key=key, value=prior)
        )
        self._run_mutation(txn, route, op, undo, ABSENT, owed=owed)

    def do_increment(self, txn: Transaction, table: str, key: Key, delta: float) -> None:
        route, prior = self._prepare_write(
            txn, table, key, self.cc.lock_for_update, OWED, False, numeric=True
        )
        op = IncrementOp(
            table=table, key=key, delta=delta, versioned=route.versioned
        )
        # Pure logical undo: no before-image, just the inverse delta — so
        # an unknown prior owes the log nothing; the reply's ``value``
        # tells the transaction what the record now holds.
        undo = None if route.versioned else IncrementOp(
            table=table, key=key, delta=-delta
        )
        known = OWED if prior is OWED else prior + delta
        self._run_mutation(txn, route, op, undo, known)

    def _prepare_write(
        self,
        txn: Transaction,
        table: str,
        key: Key,
        lock: Callable[[Transaction, str, Key], None],
        unknown: object,
        structural: bool,
        numeric: bool = False,
    ) -> tuple[_TableRoute, object]:
        """What every write does before it is queued: check the TC and
        the transaction are live, route and own the key, keep our own
        envelope from holding two operations on it (the TC's core
        obligation, Section 1.2), take the write lock, learn the prior
        (``unknown`` — ``ABSENT`` for an insert, ``OWED`` otherwise — when
        the TC does not know it, see :meth:`UndoCache.prior`) and let the
        policy note the write.  Returns the route and the prior.  A
        deadlock, lock timeout or policy veto rolls the transaction back —
        it must never survive holding a partial lock set."""
        if self._crashed:
            self._check_up()
        if txn.state is not TransactionState.ACTIVE:
            txn._check_active()
        route = self.route(table)
        self._check_ownership(table, key)
        if (table, key) in txn.in_flight:
            self.dispatch.sync(txn)
        try:
            lock(txn, table, key)
            prior = self.undo_cache.prior(txn, table, key, unknown)
            if unknown is ABSENT:
                if prior is not ABSENT:
                    raise DuplicateKeyError(table, key)
            elif prior is ABSENT:
                raise NoSuchRecordError(table, key)
            elif numeric and prior is not OWED and (
                not isinstance(prior, (int, float)) or isinstance(prior, bool)
            ):
                raise ReproError(f"record {key!r} of {table!r} is not numeric")
            self.cc.note_write(txn, table, key, prior, structural=structural)
        except (TransactionAborted, LockTimeoutError):
            self._force_abort(txn)
            raise
        return route, prior

    def _run_mutation(
        self,
        txn: Transaction,
        route: _TableRoute,
        op: LogicalOperation,
        undo: Optional[LogicalOperation],
        known: object,
        owed: bool = False,
    ) -> None:
        """Queue a validated, locked mutation in the transaction's envelope
        for its DC.  Nothing is in the log or on the wire yet: the envelope
        is logged and sent when it reaches ``batch_max_ops`` (at once, by
        default) or at the next flush point (commit, a conflicting
        operation, a scan, :meth:`Transaction.sync`).  OPSR holds although
        the record is appended later: the lock was taken now.

        Once queued (and, if that filled the envelope, acknowledged) the
        transaction knows the key holds ``known`` — ``OWED`` when only the
        reply can tell."""
        slot = (op.table, getattr(op, "key", None))
        txn.in_flight[slot] = QueuedOp(route.dc_name, op, undo, owed)  # type: ignore[index]
        self._mutations_slot.value += 1
        if len(txn.in_flight) >= self.config.batch_max_ops:
            self.dispatch.sync(txn)
        if known is not OWED:
            txn.known[slot] = known  # type: ignore[index]
        if route.versioned:
            txn.versioned_keys.setdefault(op.table, set()).add(slot[1])

    def do_read(self, txn: Transaction, table: str, key: Key) -> Optional[Value]:
        if self._crashed:
            self._check_up()
        if txn.state is not TransactionState.ACTIVE:
            txn._check_active()
        if (table, key) not in txn.known and (table, key) in txn.in_flight:
            # Our own queued increment of a value we never saw: only its
            # reply knows what the record holds now.
            self.dispatch.sync(txn)
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
            self.dispatch.sync(txn)
        try:
            results = self.cc.scan(txn, table, low, high, limit)
        except (TransactionAborted, LockTimeoutError):
            self._force_abort(txn)
            raise
        self.metrics.incr("tc.scans")
        return results

    def _check_ownership(self, table: str, key: Key) -> None:
        """Section 6: a TC may only update keys in its own partition —
        that disjointness is what lets multiple TCs share a DC without the
        DC ever seeing conflicting concurrent operations."""
        if self.ownership_guard is not None and not self.ownership_guard(table, key):
            raise OwnershipError(
                f"TC {self.tc_id} does not own key {key!r} of table {table!r}"
            )

    # -- unlocked reads: cross-TC, snapshot, probes ------------------------------------------

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
        op = ReadOp(table=table, key=key, flavor=flavor)
        result = self.dispatch.read_dc(op)
        if result.status is OpStatus.NOT_FOUND:
            return None
        expect_ok(result, op)
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
        views = self.dispatch.read_range(table, low, high, limit, flavor)
        return [view.as_tuple() for view in views]

    def begin_snapshot(self, allow_degraded: bool = False) -> SnapshotReader:
        """Lock-free reads as of per-DC watermarks (Section 6.3), see
        :meth:`SnapshotReader.begin`."""
        self._check_up()
        return SnapshotReader.begin(self, allow_degraded)

    # -- stage entry points callers use ---------------------------------------------------------

    def retry_pending(self) -> None:
        """Re-drive interrupted rollbacks/cleanups (the supervisor's heal
        hook; also runs automatically on DC restart prompts)."""
        self._check_up()
        self.rollback.retry()

    def pending_zombies(self) -> int:
        return self.rollback.pending()

    def force_log(self) -> Lsn:
        return self.durability.force()

    def checkpoint(self) -> bool:
        """Advance the redo scan start point; False when a DC is blocked."""
        self._check_up()
        return self.durability.checkpoint()

    @property
    def rssp(self) -> Lsn:
        return self.durability.rssp

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
        self.rollback.clear()
        self.undo_cache.clear()
        self.dispatch.reset()
        self.metrics.incr("tc.crashes")
        for listener in list(self.on_crash):
            listener(self.name, "tc")
        return lost

    def restart(self, reset_mode: Optional[ResetMode] = None) -> dict[str, int]:
        """Recover from a TC crash (Section 5.3.2 "TC Failure")."""
        return recovery.restart(self, reset_mode or self.reset_mode)

    def _on_dc_restart(self, dc: DataComponent) -> None:
        """Out-of-band prompt: the DC lost its cache; resend from the RSSP."""
        recovery.redo_restarted_dc(self, dc)

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
            "rssp": self.durability.rssp,
            "locks_held": self.locks.total_locks(),
            "tables_routed": len(self._routes),
            "dcs_attached": len(self.dispatch.channels),
        }

    def channels(self) -> dict[str, MessageChannel]:
        return dict(self.dispatch.channels)
