"""The Data Component: a transaction-oblivious record server (Section 4.1.2).

A DC hosts tables (B-trees or fixed-page heaps), executes logical
operations atomically and idempotently, manages its cache, and recovers its
own structures.  It never learns about user transactions: it cannot tell a
forward operation from an inverse submitted during rollback, and it tracks
TCs only through request ids (LSNs) and per-TC abLSNs.

The class keeps construction, the catalog, the message table and the one
operation executor (:meth:`DataComponent._run`); each other duty is a
stage that owns its state: :mod:`repro.dc.writes` (every record change,
the kept before-images, the snapshot commit clock), :mod:`repro.dc.contract`
(the TC contract calls, the redo window) and :mod:`repro.dc.recovery`
(crash and restart).
"""

from __future__ import annotations

import threading
from functools import partial
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Union

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.sim.faults import FaultInjector

from repro.common.api import (
    BatchedPerform,
    BatchedReply,
    CheckpointRequest,
    EndOfStableLog,
    LowWaterMark,
    Message,
    OperationReply,
    PerformOperation,
    RedoComplete,
    RestartBegin,
    WatermarkRequest,
)
from repro.common.config import DcConfig
from repro.common.errors import (
    CrashedError,
    ReproError,
    UnknownTableError,
    WriteAheadViolation,
)
from repro.common.lsn import Lsn, NULL_LSN
from repro.common.ops import (
    LogicalOperation,
    OpResult,
    ProbeNextKeysOp,
    RangeReadOp,
    ReadFlavor,
    ReadOp,
)
from repro.common.records import RecordView
from repro.dc import recovery
from repro.dc.contract import Contract
from repro.dc.dclog import DcLog
from repro.dc.recovery import TableDescriptor, TableHandle, stable_page_state
from repro.dc.system_txn import SystemTransaction
from repro.dc.writes import Versions, Writes
from repro.obs.tracing import NULL_TRACER
from repro.sim import schedule as _sched
from repro.sim.metrics import Metrics
from repro.sim.schedule import YieldPoint
from repro.storage.btree import BTree
from repro.storage.buffer import BufferPool, ResetMode
from repro.storage.disk import StableStorage
from repro.storage.heap import HashedHeap

Structure = Union[BTree, HashedHeap]


class DataComponent:
    """One DC instance: tables + cache + DC log on one stable volume."""

    def __init__(
        self,
        name: str = "dc",
        config: Optional[DcConfig] = None,
        metrics: Optional[Metrics] = None,
        storage: Optional[StableStorage] = None,
        faults: Optional["FaultInjector"] = None,
        tracer: Optional[object] = None,
    ) -> None:
        self.name = name
        self.config = config or DcConfig()
        self.metrics = metrics or Metrics()
        self.storage = storage or StableStorage(self.metrics)
        self.faults = faults
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.storage.tracer = self.tracer
        self.dclog = DcLog(self.storage, self.metrics)
        self.dclog.tracer = self.tracer
        if faults is not None:
            faults.register_component(self.name, "dc", self.crash)
            self.storage.bind_faults(faults, self.name)
            self.dclog.faults = faults
            self.dclog.owner = self.name
        #: Crash listeners installed by the supervisor: fn(name, kind).
        self.on_crash: list[Callable[[str, str], None]] = []
        self.buffer = BufferPool(
            self.storage,
            self.config,
            self.metrics,
            loader=partial(stable_page_state, self.storage),
            tracer=self.tracer,
        )
        self._tables: dict[str, TableHandle] = {}
        #: Held while the table set changes or is made stable.
        self.catalog_lock = threading.RLock()
        self._crashed = False
        #: Bumped on every crash: an operation that straddled a crash and
        #: recover is refused, as a real crash would have killed its thread.
        self._incarnation = 0
        #: Plug-in access methods (Section 1.1 extensibility):
        #: kind -> factory(dc, name, descriptor_or_None) -> structure.
        #: Called with descriptor=None to create a fresh table, or with the
        #: recovered TableDescriptor to rebuild one at restart.
        self._structure_factories: dict[
            str, Callable[["DataComponent", str, Optional[TableDescriptor]], object]
        ] = {}
        self.writes = Writes(self)
        self.versions = Versions(self)
        self.contract = Contract(self)
        # Hot-path counter slots, bound once (see Metrics.counter).
        self._ops_slot = self.metrics.counter("dc.operations")
        self._batches_slot = self.metrics.counter("dc.batches_received")
        self._handlers: dict[type, Callable[..., Optional[Message]]] = {
            PerformOperation: self._perform,
            BatchedPerform: self._perform_batch,
            EndOfStableLog: self.contract.on_end_of_stable_log,
            LowWaterMark: self.contract.on_low_water_mark,
            CheckpointRequest: self.contract.on_checkpoint,
            RestartBegin: self.contract.on_restart_begin,
            RedoComplete: self.contract.on_redo_complete,
            WatermarkRequest: self.versions.on_watermark_request,
        }

    # -- TC registration -----------------------------------------------------

    def register_tc(
        self,
        tc_id: int,
        force_log: Optional[Callable[[Lsn, dict], Lsn]] = None,
        on_dc_restart: Optional[Callable[["DataComponent"], None]] = None,
        on_rssp_hint: Optional[Callable[[str, Lsn], None]] = None,
    ) -> None:
        """Attach a TC: install its log-force, restart and hint hooks."""
        self.contract.register_tc(tc_id, force_log, on_dc_restart, on_rssp_hint)

    def _begin_systxn(self, kind: str) -> SystemTransaction:
        """A table's structure modification, as the tables' ``begin_smo``."""
        return SystemTransaction(
            kind, self.dclog, self.metrics, self.contract.ensure_tc_stable
        )

    # -- the catalog -------------------------------------------------------------

    def register_structure_kind(
        self,
        kind: str,
        factory: Callable[["DataComponent", str, Optional[TableDescriptor]], object],
    ) -> None:
        """Register a custom access method (Section 1.1, imperative 5).

        The factory is called with ``descriptor=None`` to create a fresh
        table (it must durably log its own pages via a system transaction
        and may expose ``describe() -> dict`` whose result is persisted in
        the catalog), and with the recovered descriptor at DC restart to
        rebuild the structure.  The returned object must implement the
        structure duck-type (find_leaf / ensure_room / maybe_consolidate /
        get_record / iter_range / next_keys / validate / latch ...).
        """
        with self.catalog_lock:
            self._structure_factories[kind] = factory

    def create_table(
        self,
        name: str,
        kind: str = "btree",
        versioned: bool = False,
        bucket_count: int = 16,
    ) -> None:
        """Create a table; its descriptor is durably logged (CatalogRecord)."""
        self._check_up()
        with self.catalog_lock:
            if name in self._tables:
                raise ReproError(f"table {name!r} already exists")
            descriptor = TableDescriptor(name=name, kind=kind, versioned=versioned)
            structure = self._build_structure(descriptor, True, bucket_count)
            txn = SystemTransaction("catalog", self.dclog, self.metrics, None)
            txn.log_catalog(descriptor.to_metadata())
            txn.commit()
            self._tables[name] = TableHandle(descriptor, structure)

    def _build_structure(
        self, descriptor: TableDescriptor, fresh: bool, bucket_count: int = 16
    ) -> Structure:
        """A table's structure: created (``fresh``, its page ids written
        into the descriptor) or rebuilt at restart from the descriptor."""
        name, kind = descriptor.name, descriptor.kind
        factory = self._structure_factories.get(kind)
        if factory is not None:
            structure = factory(self, name, None if fresh else descriptor)
            describe = getattr(structure, "describe", None)
            if fresh and callable(describe):
                descriptor.extra = dict(describe())
            return structure
        parts = (
            name, self.storage, self.buffer, self._begin_systxn, self.config, self.metrics
        )
        if kind == "btree":
            tree = BTree(*parts, root_id=None if fresh else descriptor.root_id)
            descriptor.root_id = tree.root_id
            return tree
        if kind == "heap":
            bucket_ids = None if fresh else list(descriptor.bucket_ids)
            heap = HashedHeap(*parts, bucket_count=bucket_count, bucket_ids=bucket_ids)
            descriptor.bucket_ids = list(heap.bucket_ids)
            return heap
        raise ReproError(f"unknown table kind {kind!r}")

    def table(self, name: str) -> TableHandle:
        handle = self._tables.get(name)
        if handle is None:
            raise UnknownTableError(name)
        return handle

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def save_catalog(self) -> None:
        """Every table's descriptor, with its current root, to stable storage."""
        with self.catalog_lock:
            for handle in self._tables.values():
                if isinstance(handle.structure, BTree):
                    handle.descriptor.root_id = handle.structure.root_id
            recovery.save_catalog(
                self.storage, {n: h.descriptor for n, h in self._tables.items()}
            )

    def _check_up(self) -> None:
        if self._crashed:
            raise CrashedError(f"DC {self.name}")

    # -- the Section 4.2.1 API: message entry point -----------------------------------

    def handle(self, message: Message) -> Optional[Message]:
        """Transport-level dispatch used by :mod:`repro.net.channel`."""
        if self._crashed:
            raise CrashedError(f"DC {self.name}")
        handler = self._handlers.get(type(message))
        if handler is None:
            raise ReproError(f"DC {self.name}: unhandled message {message!r}")
        return handler(message)

    def _perform(self, message: PerformOperation) -> OperationReply:
        if not message.redo and message.tc_id in self.contract.redo_pending:
            self.contract.bounce(message.tc_id)
        if message.eosl:
            self.buffer.note_eosl(message.tc_id, message.eosl)
        return self._run((message,), True)[0]

    def _perform_batch(self, message: BatchedPerform) -> BatchedReply:
        """An envelope runs the executor of a single request: it only saves
        wire trips, and per-op idempotence absorbs a resend after a crash."""
        if not message.redo and message.tc_id in self.contract.redo_pending:
            self.contract.bounce(message.tc_id)
        self._batches_slot.value += 1
        if message.eosl:
            self.buffer.note_eosl(message.tc_id, message.eosl)
        if self.tracer.enabled:
            with self.tracer.span("dc.batch", component=self.name, ops=len(message.ops)):
                replies = self._run(message.ops, False)
        else:
            replies = self._run(message.ops, False)
        return BatchedReply(tc_id=message.tc_id, replies=tuple(replies))

    def perform_operation(
        self,
        tc_id: int,
        op_id: Lsn,
        op: LogicalOperation,
        resend: bool = False,
        want_prior: bool = False,
    ) -> OpResult:
        """Execute one operation: a run of one through :meth:`_run`."""
        sub = PerformOperation(
            tc_id=tc_id, op_id=op_id, op=op, resend=resend, want_prior=want_prior
        )
        return self._run((sub,), True)[0].result

    # -- the operation executor ------------------------------------------------------

    def _run(self, subs: Sequence[PerformOperation], single: bool) -> list[OperationReply]:
        """Execute operations in order, one reply each.

        A run of same-table operations shares one ``buffer.operation()``
        bracket and one hold of the table's latch: the bracket only defers
        eviction, and the latch is what one operation holds for its whole
        mutation anyway.  A ``single`` request yields to the schedule
        explorer once, before its bracket; an envelope yields nowhere.
        """
        replies: list[OperationReply] = []
        traced = self.tracer.enabled
        index, total = 0, len(subs)
        incarnation = self._incarnation
        while index < total:
            if self._crashed:
                raise CrashedError(f"DC {self.name}")
            if incarnation != self._incarnation:
                self._stale()
            sub = subs[index]
            self._ops_slot.value += 1
            if sub.resend:
                self.metrics.incr("dc.resends_received")
            table = sub.op.table
            handle = self._tables.get(table)
            if handle is None:
                result = OpResult.error(str(UnknownTableError(table)))
                replies.append(
                    OperationReply(tc_id=sub.tc_id, op_id=sub.op_id, result=result)
                )
                index += 1
                continue
            if single and _sched.ACTIVE is not None:
                # The yield sits *before* the latch bracket: inside it the
                # task is in a critical section and must not park.
                _sched.maybe_yield(
                    YieldPoint.BUFFER_LATCH, self.name, op=type(sub.op).__name__
                )
                if incarnation != self._incarnation:
                    self._stale()
            with self.buffer.operation(), handle.structure.latch:
                while True:
                    if traced:
                        with self.tracer.span(
                            "dc.execute",
                            component=self.name,
                            request_id=sub.op_id,
                            op=type(sub.op).__name__,
                            op_id=sub.op_id,
                            resend=sub.resend,
                        ):
                            result = self._execute(handle, sub)
                    else:
                        result = self._execute(handle, sub)
                    replies.append(
                        OperationReply(tc_id=sub.tc_id, op_id=sub.op_id, result=result)
                    )
                    index += 1
                    if index == total or subs[index].op.table != table:
                        break
                    sub = subs[index]
                    self._ops_slot.value += 1
                    if sub.resend:
                        self.metrics.incr("dc.resends_received")
        return replies

    def _stale(self) -> None:
        """The DC crashed under this request: a lost message, not an answer."""
        self.metrics.incr("dc.stale_incarnation_ops")
        raise CrashedError(f"DC {self.name} restarted mid-request")

    def _execute(self, handle: TableHandle, sub: PerformOperation) -> OpResult:
        """One operation, inside its run's bracket and latch: the seam every
        operation passes, whether it came alone or in an envelope."""
        op = sub.op
        try:
            if op.MUTATES:
                return self.writes.apply(handle, sub.tc_id, sub.op_id, op, sub.want_prior)
            return self._execute_read(handle, op)
        except CrashedError:
            raise  # a crash mid-operation: a lost message, never a result
        except WriteAheadViolation as exc:
            # The causality gate refused a structure change before it
            # touched a page.  When a TC's log fell short the sender may
            # resend.
            if not exc.needed:
                return OpResult.error(str(exc))
            return OpResult.unstable(exc.needed.get(sub.tc_id, NULL_LSN), str(exc))
        except ReproError as exc:
            return OpResult.error(str(exc))

    def _execute_read(self, handle: TableHandle, op: LogicalOperation) -> OpResult:
        """A key probe, or a point or range read: both of the latter pass one
        snapshot-floor check and pick each record's visible value one way."""
        structure = handle.structure
        if isinstance(op, ProbeNextKeysOp):
            keys = structure.next_keys(op.after, op.count, op.until, inclusive=op.inclusive)
            return OpResult(keys=tuple(keys))
        point = isinstance(op, ReadOp)
        if not point and not isinstance(op, RangeReadOp):
            return OpResult.error(f"unknown read {type(op).__name__}")
        snapshot = op.flavor is ReadFlavor.SNAPSHOT
        if snapshot and op.as_of < self.versions.snapshot_floor():
            return OpResult.error(
                f"snapshot {op.as_of} is older than the retention "
                f"floor {self.versions.snapshot_floor()}"
            )
        read_committed = op.flavor is ReadFlavor.READ_COMMITTED
        if point:
            record = structure.get_record(op.key)
            records = () if record is None else (record,)
        else:
            records = structure.iter_range(op.low, op.high)
        views = []
        for record in records:
            if not point and op.low_exclusive and record.key == op.low:
                continue
            if snapshot:
                value = record.snapshot_value(op.as_of)
                if value is None:
                    continue
            elif record.exists_for(read_committed):
                value = record.visible_value(read_committed)
            else:
                continue
            if point:
                return OpResult.okay(value=value)
            views.append(RecordView(record.key, value))
            if op.limit is not None and len(views) >= op.limit:
                break
        if point:
            return OpResult.not_found()
        return OpResult(records=tuple(views))

    # -- the contract calls, versions and restart (stages) ----------------------------

    def end_of_stable_log(self, tc_id: int, eosl: Lsn) -> None:
        self._check_up()
        self.buffer.note_eosl(tc_id, eosl)

    def low_water_mark(self, tc_id: int, lwm: Lsn) -> None:
        self._check_up()
        self.contract.low_water_mark(tc_id, lwm)

    def checkpoint(self, tc_id: int, new_rssp: Lsn) -> Lsn:
        self._check_up()
        return self.contract.checkpoint(tc_id, new_rssp)

    def begin_restart(
        self,
        tc_id: int,
        stable_lsn: Lsn,
        mode: ResetMode = ResetMode.RECORD_RESET,
    ) -> dict[str, int]:
        self._check_up()
        return self.contract.begin_restart(tc_id, stable_lsn, mode)

    def checkpoint_dc_log(self) -> bool:
        self._check_up()
        return self.contract.checkpoint_dc_log()

    def hint_rssp_advance(self) -> None:
        self.contract.hint_rssp_advance()

    def snapshot_floor(self) -> int:
        return self.versions.snapshot_floor()

    def version_watermark(self) -> int:
        return self.versions.watermark()

    def crash(self) -> None:
        """Lose all volatile state; stable storage survives."""
        recovery.crash(self)

    def recover(self, notify_tcs: bool = True) -> dict[str, object]:
        """DC restart (Section 5.2.2); see :func:`repro.dc.recovery.recover`."""
        return recovery.recover(self, notify_tcs)

    def prompt_redo(self) -> None:
        recovery.prompt_redo(self)

    def stats(self) -> dict[str, object]:
        """Introspection snapshot: per-table structure shape + cache/log."""
        tables = {}
        for name, handle in self._tables.items():
            structure = handle.structure
            entry: dict[str, object] = {
                "kind": handle.descriptor.kind,
                "versioned": handle.descriptor.versioned,
                "records": structure.record_count(),
                "leaves": len(structure.leaf_ids()),
            }
            depth = getattr(structure, "depth", None)
            if callable(depth):
                entry["depth"] = depth()
            tables[name] = entry
        return {
            "name": self.name,
            "tables": tables,
            "cached_pages": len(self.buffer.cached_ids()),
            "dirty_pages": self.buffer.dirty_count(),
            "stable_pages": self.storage.page_count(),
            "dclog_records": self.storage.dc_log_length(),
            "version_clock": self.versions.watermark(),
        }

    @property
    def crashed(self) -> bool:
        return self._crashed
