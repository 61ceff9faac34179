"""The Data Component: a transaction-oblivious record server (Section 4.1.2).

A DC hosts tables (B-trees or fixed-page heaps), executes logical
operations atomically and idempotently, manages its cache, and recovers its
own structures.  It never learns about user transactions: it cannot tell a
forward operation from an inverse submitted during rollback, and it tracks
TCs only through request ids (LSNs) and per-TC abLSNs.

Idempotence (Section 5.1): each mutating request carries the TC-log LSN as
its unique id; before applying, the DC tests ``op LSN <= page abLSN`` with
the generalized containment test, so resends and redo-time replays execute
exactly once even under out-of-order delivery.

Mutations sent by a TC that validated existence under its own locks always
succeed.  A TC that does not know a key's value sends the write without
reading first and lets the DC's own duplicate / not-found verdict stand
in for the check; for an update or delete it then also asks for the
overwritten value
(``PerformOperation.want_prior``), which is what completes its logged undo
information — a requirement for sound crash rollback.  The DC keeps every
before-image it was asked for (:attr:`DataComponent._priors`) until the
TC's low-water mark says the reply arrived, so an exactly-once answer to a
resend still carries it, and a log-force prompt brings along those the TC
may still be missing.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Union

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.sim.faults import FaultInjector

from repro.common.api import (
    BatchedPerform,
    BatchedReply,
    CheckpointReply,
    CheckpointRequest,
    ControlAck,
    EndOfStableLog,
    LowWaterMark,
    Message,
    OperationReply,
    PerformOperation,
    RedoComplete,
    RestartBegin,
    WatermarkReply,
    WatermarkRequest,
)
from repro.common.config import DcConfig
from repro.common.errors import (
    CrashedError,
    PageOverflowError,
    ReproError,
    UnknownTableError,
    WriteAheadViolation,
)
from repro.common.lsn import Lsn, NULL_LSN
from repro.common.ops import (
    DeleteOp,
    DiscardVersionsOp,
    IncrementOp,
    InsertOp,
    LogicalOperation,
    OpResult,
    ProbeNextKeysOp,
    PromoteVersionsOp,
    RangeReadOp,
    ReadFlavor,
    ReadOp,
    UpdateOp,
)
from repro.common.records import RecordView, TOMBSTONE, VersionedRecord
from repro.dc.dclog import DcLog
from repro.dc.recovery import DcRecoveryManager, TableDescriptor
from repro.dc.system_txn import SystemTransaction
from repro.obs.tracing import NULL_TRACER
from repro.sim import schedule as _sched
from repro.sim.metrics import Metrics
from repro.sim.schedule import YieldPoint
from repro.storage.btree import BTree
from repro.storage.buffer import BufferPool, ResetMode
from repro.storage.disk import StableStorage
from repro.storage.heap import HashedHeap
from repro.storage.page import LeafPage

Structure = Union[BTree, HashedHeap]


@dataclass
class TableHandle:
    descriptor: TableDescriptor
    structure: Structure


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
        if (
            not self.tracer.enabled
            and type(self).perform_operation is DataComponent.perform_operation
        ):
            # No tracing: operations dispatch straight to the untraced body
            # (skipped when a subclass overrides perform_operation).
            self.perform_operation = self._perform_operation
        self.storage.tracer = self.tracer
        if faults is not None:
            faults.register_component(self.name, "dc", self.crash)
            self.storage.bind_faults(faults, self.name)
        self.dclog = DcLog(self.storage, self.metrics)
        self.dclog.tracer = self.tracer
        if faults is not None:
            self.dclog.faults = faults
            self.dclog.owner = self.name
        #: Crash listeners installed by the supervisor: fn(name, kind).
        self.on_crash: list[Callable[[str, str], None]] = []
        self.recovery = DcRecoveryManager(self.storage, self.metrics)
        self.buffer = BufferPool(
            self.storage,
            self.config,
            self.metrics,
            loader=self.recovery.load_page,
            tracer=self.tracer,
        )
        self._tables: dict[str, TableHandle] = {}
        self._admin_lock = threading.RLock()
        self._crashed = False
        #: Snapshot extension: DC-local commit sequence clock.  One value
        #: is assigned per promote operation, so every version installed
        #: by one transaction's cleanup shares a sequence — snapshots are
        #: transaction-consistent per DC.
        self._version_clock = 0
        #: Per-TC callbacks for the causality gate (force the TC log
        #: through a given LSN) and the out-of-band restart prompt.
        self._force_log: dict[int, Callable[[Lsn, dict], Lsn]] = {}
        #: Before-images TCs asked for (``want_prior``), per TC by
        #: operation id: in memory only — a crash or TC reset that loses
        #: them loses the operations' effects too, and a resend then
        #: executes afresh.  Pruned as the TC's low-water mark passes.
        self._priors: dict[int, dict[Lsn, object]] = {}
        self._priors_lock = threading.Lock()
        self._restart_prompt: dict[int, Callable[["DataComponent"], None]] = {}
        #: Spontaneous contract termination (Section 4.2.1: the DC "could
        #: spontaneously inform TC that the RSSP can advance").
        self._rssp_hint: dict[int, Callable[[str, Lsn], None]] = {}
        #: TCs whose redo streams this (restarted) DC is still waiting on.
        #: While a TC is pending, its ordinary data operations bounce and
        #: its LWM advances are dropped — see :meth:`handle`.
        self._redo_pending: set[int] = set()
        #: Bumped on every crash.  A request dispatched against one
        #: incarnation must not complete against the next: in a real
        #: process the crash kills its thread, so the simulated DC refuses
        #: any in-flight operation that straddled a crash/recover.
        self._incarnation = 0
        #: Plug-in access methods (Section 1.1 extensibility):
        #: kind -> factory(dc, name, descriptor_or_None) -> structure.
        #: Called with descriptor=None to create a fresh table, or with the
        #: recovered TableDescriptor to rebuild one at restart.
        self._structure_factories: dict[
            str, Callable[["DataComponent", str, Optional[TableDescriptor]], object]
        ] = {}
        # Hot-path counter slots, bound once (see Metrics.counter).
        self._ops_slot = self.metrics.counter("dc.operations")
        self._batches_slot = self.metrics.counter("dc.batches_received")
        self._latches_slot = self.metrics.counter("dc.latches")

    # -- TC registration -----------------------------------------------------

    def register_tc(
        self,
        tc_id: int,
        force_log: Optional[Callable[[Lsn, dict], Lsn]] = None,
        on_dc_restart: Optional[Callable[["DataComponent"], None]] = None,
        on_rssp_hint: Optional[Callable[[str, Lsn], None]] = None,
    ) -> None:
        """Attach a TC: install its log-force, restart and hint hooks."""
        with self._admin_lock:
            if force_log is not None:
                self._force_log[tc_id] = force_log
            if on_dc_restart is not None:
                self._restart_prompt[tc_id] = on_dc_restart
            if on_rssp_hint is not None:
                self._rssp_hint[tc_id] = on_rssp_hint

    def unregister_tc(self, tc_id: int) -> None:
        with self._admin_lock:
            self._force_log.pop(tc_id, None)
            self._restart_prompt.pop(tc_id, None)

    def _begin_systxn(self, kind: str) -> SystemTransaction:
        """A table's structure modification, as the tables' ``begin_smo``."""
        return SystemTransaction(kind, self.dclog, self.metrics, self._ensure_tc_stable)

    def _ensure_tc_stable(self, needed: dict[int, Lsn]) -> bool:
        """Causality gate for system transactions (see dc/system_txn.py).

        For each TC whose operations a staged page image embeds, make sure
        the TC's stable log covers them — prompting the TC to force its log
        when it does not.  The prompt brings the before-images this DC
        keeps for that TC's operations between its EOSL and ``lsn``: a log
        record still waiting for one of them holds the TC's stable
        boundary back, and its reply may be stuck behind this very prompt.
        """
        for tc_id, lsn in needed.items():
            eosl = self.buffer.eosl_for(tc_id)
            if eosl >= lsn:
                continue
            force = self._force_log.get(tc_id)
            if force is None:
                return False
            self.metrics.incr("dc.log_force_prompts")
            with self._priors_lock:
                images = {
                    op_id: prior
                    for op_id, prior in self._priors.get(tc_id, {}).items()
                    if eosl < op_id <= lsn
                }
            eosl = force(lsn, images)
            self.buffer.note_eosl(tc_id, eosl)
            if eosl < lsn:
                return False
        return True

    # -- administration ------------------------------------------------------------

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
        with self._admin_lock:
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
        with self._admin_lock:
            if name in self._tables:
                raise ReproError(f"table {name!r} already exists")
            descriptor = TableDescriptor(name=name, kind=kind, versioned=versioned)
            if kind in self._structure_factories:
                structure = self._structure_factories[kind](self, name, None)
                describe = getattr(structure, "describe", None)
                if callable(describe):
                    descriptor.extra = dict(describe())
            else:
                structure = self._build_structure(
                    name, kind, bucket_count, root_id=None
                )
                if kind == "btree":
                    descriptor.root_id = structure.root_id  # type: ignore[union-attr]
                else:
                    descriptor.bucket_ids = list(structure.bucket_ids)  # type: ignore[union-attr]
            txn = SystemTransaction("catalog", self.dclog, self.metrics, None)
            txn.log_catalog(descriptor.to_metadata())
            txn.commit()
            self._tables[name] = TableHandle(descriptor, structure)

    def _build_structure(
        self, name: str, kind: str, bucket_count: int, root_id: Optional[int]
    ) -> Structure:
        if kind == "btree":
            return BTree(
                name,
                self.storage,
                self.buffer,
                self._begin_systxn,
                self.config,
                self.metrics,
                root_id=root_id,
            )
        if kind == "heap":
            return HashedHeap(
                name,
                self.storage,
                self.buffer,
                self._begin_systxn,
                self.config,
                self.metrics,
                bucket_count=bucket_count,
            )
        raise ReproError(f"unknown table kind {kind!r}")

    def table(self, name: str) -> TableHandle:
        handle = self._tables.get(name)
        if handle is None:
            raise UnknownTableError(name)
        return handle

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def _check_up(self) -> None:
        if self._crashed:
            raise CrashedError(f"DC {self.name}")

    # -- the Section 4.2.1 API: message entry point -----------------------------------

    def handle(self, message: Message) -> Optional[Message]:
        """Transport-level dispatch used by :mod:`repro.net.channel`."""
        self._check_up()
        if isinstance(message, RedoComplete):
            # Idempotent: a duplicate close of an already-closed window acks.
            self._redo_pending.discard(message.tc_id)
            return ControlAck(tc_id=message.tc_id)
        if message.tc_id in self._redo_pending:
            # Recovery ordering (Section 5.2.2): structures are well-formed
            # but record state is still being rebuilt by this TC's redo
            # stream.  An ordinary operation validated against that partial
            # state would see committed records as absent (and a definitive
            # rejection logged from it would diverge from repeat history),
            # and a pre-crash LWM would falsely mark unreplayed operations
            # as contained in rebuilt pages.  Bounce data traffic, drop LWM
            # advances; redo-stream traffic and other control flows pass.
            if isinstance(
                message, (PerformOperation, BatchedPerform)
            ) and not getattr(message, "redo", False):
                self.metrics.incr("dc.bounced_in_redo_window")
                raise CrashedError(
                    f"DC {self.name} awaiting redo from TC {message.tc_id}"
                )
            if isinstance(message, LowWaterMark):
                self.metrics.incr("dc.lwm_dropped_in_redo_window")
                return None
            if isinstance(message, CheckpointRequest):
                # A freshly-recovered DC trivially has zero dirty pages,
                # but "flushed" means nothing while committed operations
                # are still in flight on this TC's redo stream: granting
                # would advance the RSSP past them, and with log
                # truncation that loss becomes permanent.  Refuse; the TC
                # retries its checkpoint after the window closes.
                self.metrics.incr("dc.checkpoint_refused_in_redo_window")
                return CheckpointReply(tc_id=message.tc_id, granted_rssp=NULL_LSN)
        if isinstance(message, PerformOperation):
            assert message.op is not None
            if message.eosl:
                self.buffer.note_eosl(message.tc_id, message.eosl)
            result = self.perform_operation(
                message.tc_id,
                message.op_id,
                message.op,
                resend=message.resend,
                want_prior=message.want_prior,
            )
            return OperationReply(
                tc_id=message.tc_id, op_id=message.op_id, result=result
            )
        if isinstance(message, BatchedPerform):
            return self._handle_batch(message)
        if isinstance(message, EndOfStableLog):
            self.end_of_stable_log(message.tc_id, message.eosl)
            return ControlAck(tc_id=message.tc_id)
        if isinstance(message, LowWaterMark):
            self.low_water_mark(message.tc_id, message.lwm)
            return None
        if isinstance(message, CheckpointRequest):
            granted = self.checkpoint(message.tc_id, message.new_rssp)
            return CheckpointReply(tc_id=message.tc_id, granted_rssp=granted)
        if isinstance(message, RestartBegin):
            self.begin_restart(
                message.tc_id, message.stable_lsn, ResetMode(message.reset_mode)
            )
            return ControlAck(tc_id=message.tc_id)
        if isinstance(message, WatermarkRequest):
            return WatermarkReply(
                tc_id=message.tc_id,
                watermark=self._version_clock,
                floor=self.snapshot_floor(),
            )
        raise ReproError(f"DC {self.name}: unhandled message {message!r}")

    def _handle_batch(self, message: BatchedPerform) -> BatchedReply:
        """Unpack a :class:`BatchedPerform` envelope and execute per-op.

        Each enclosed operation runs through the exact same
        :meth:`perform_operation` path (same abLSN idempotence test, same
        per-op reply) as a single request — the envelope only saves
        wire trips.  An injected crash mid-envelope escapes as
        ``CrashedError``; the channel turns that into a lost message and
        the TC resends the whole envelope, which per-op idempotence
        absorbs.
        """
        self._batches_slot.value += 1
        if message.eosl:
            self.buffer.note_eosl(message.tc_id, message.eosl)
        bound = self.__dict__.get("perform_operation")
        if getattr(bound, "__func__", None) is DataComponent._perform_operation:
            # Untraced, un-overridden dispatch: run the envelope through the
            # lean loop that amortizes the table lookup, buffer bracket and
            # structure latch over runs of same-table operations.  Each
            # operation still gets the identical abLSN test, per-op result
            # and per-op reply — only fixed-cost brackets are shared.
            return self._execute_batch(message)
        with self.tracer.span(
            "dc.batch", component=self.name, ops=len(message.ops)
        ):
            replies = tuple(
                OperationReply(
                    tc_id=sub.tc_id,
                    op_id=sub.op_id,
                    result=self.perform_operation(
                        sub.tc_id,
                        sub.op_id,
                        sub.op,
                        resend=sub.resend,
                        want_prior=sub.want_prior,
                    ),
                )
                for sub in message.ops
            )
        return BatchedReply(tc_id=message.tc_id, replies=replies)

    def _execute_batch(self, message: BatchedPerform) -> BatchedReply:
        """Envelope execution with per-table amortization of fixed costs.

        Exactly :meth:`_perform_operation` per enclosed op, except the
        ``buffer.operation()`` bracket and the structure latch are taken
        once per run of consecutive same-table operations instead of once
        per op.  Holding them across a run is safe: the bracket only
        defers eviction, and the structure latch is what every single-op
        path holds for its whole mutation anyway — a longer hold changes
        contention, never correctness.  ``CrashedError`` escapes exactly
        as in the single-op path (the channel reports a lost message).
        """
        ops = message.ops
        replies: list[OperationReply] = []
        index, total = 0, len(ops)
        incarnation = self._incarnation
        while index < total:
            self._check_up()
            if incarnation != self._incarnation:
                self.metrics.incr("dc.stale_incarnation_ops")
                raise CrashedError(f"DC {self.name} restarted mid-request")
            sub = ops[index]
            table = sub.op.table
            handle = self._tables.get(table)
            if handle is None:
                self._ops_slot.value += 1
                replies.append(
                    OperationReply(
                        tc_id=sub.tc_id,
                        op_id=sub.op_id,
                        result=OpResult.error(str(UnknownTableError(table))),
                    )
                )
                index += 1
                continue
            with self.buffer.operation(), handle.structure.latch:
                while index < total and ops[index].op.table == table:
                    sub = ops[index]
                    self._ops_slot.value += 1
                    if sub.resend:
                        self.metrics.incr("dc.resends_received")
                    try:
                        if sub.op.MUTATES:
                            result = self._apply_mutation(
                                handle, sub.tc_id, sub.op_id, sub.op, sub.want_prior
                            )
                        else:
                            result = self._execute_read(handle, sub.tc_id, sub.op)
                    except CrashedError:
                        raise
                    except WriteAheadViolation as exc:
                        result = self._gate_refusal(exc, sub.tc_id)
                    except (PageOverflowError, ReproError) as exc:
                        result = OpResult.error(str(exc))
                    replies.append(
                        OperationReply(
                            tc_id=sub.tc_id, op_id=sub.op_id, result=result
                        )
                    )
                    index += 1
        return BatchedReply(tc_id=message.tc_id, replies=replies)

    # -- perform_operation ---------------------------------------------------------------

    def perform_operation(
        self,
        tc_id: int,
        op_id: Lsn,
        op: LogicalOperation,
        resend: bool = False,
        want_prior: bool = False,
    ) -> OpResult:
        with self.tracer.span(
            "dc.execute",
            component=self.name,
            request_id=op_id,
            op=type(op).__name__,
            op_id=op_id,
            resend=resend,
        ):
            return self._perform_operation(tc_id, op_id, op, resend, want_prior)

    def _perform_operation(
        self,
        tc_id: int,
        op_id: Lsn,
        op: LogicalOperation,
        resend: bool = False,
        want_prior: bool = False,
    ) -> OpResult:
        self._check_up()
        incarnation = self._incarnation
        self._ops_slot.value += 1
        if resend:
            self.metrics.incr("dc.resends_received")
        try:
            handle = self.table(op.table)
        except UnknownTableError as exc:
            return OpResult.error(str(exc))
        structure = handle.structure
        if _sched.ACTIVE is not None:
            # The yield sits *before* the latch bracket: inside it the task
            # is in a critical section and must not park (see sim.schedule).
            _sched.maybe_yield(
                YieldPoint.BUFFER_LATCH, self.name, op=type(op).__name__
            )
        if incarnation != self._incarnation:
            # The DC crashed while this request was in flight; its thread
            # died with the old incarnation.  Surface as a lost message —
            # validating against rebuilt (possibly not-yet-redone) state
            # would produce a divergent answer.
            self.metrics.incr("dc.stale_incarnation_ops")
            raise CrashedError(f"DC {self.name} restarted mid-request")
        with self.buffer.operation(), structure.latch:
            try:
                if op.MUTATES:
                    return self._apply_mutation(handle, tc_id, op_id, op, want_prior)
                return self._execute_read(handle, tc_id, op)
            except CrashedError:
                # an injected fault crashed a component mid-operation; the
                # channel surfaces it as a lost message, never as a result
                raise
            except WriteAheadViolation as exc:
                return self._gate_refusal(exc, tc_id)
            except ReproError as exc:
                return OpResult.error(str(exc))

    @staticmethod
    def _gate_refusal(exc: WriteAheadViolation, tc_id: int) -> OpResult:
        """The causality gate refused a structure change before it touched
        a page: nothing executed.  When a TC's log fell short (rather than
        no stability provider being installed) the sender may resend."""
        if not exc.needed:
            return OpResult.error(str(exc))
        return OpResult.unstable(exc.needed.get(tc_id, NULL_LSN), str(exc))

    # -- mutations ---------------------------------------------------------------------------

    def _apply_mutation(
        self,
        handle: TableHandle,
        tc_id: int,
        op_id: Lsn,
        op: LogicalOperation,
        want_prior: bool = False,
    ) -> OpResult:
        if _sched.ACTIVE is not None:
            _sched.note_event(
                "dc.apply",
                self.name,
                op=type(op).__name__,
                table=op.table,
                key=getattr(op, "key", None),
            )
        if isinstance(op, (PromoteVersionsOp, DiscardVersionsOp)):
            return self._apply_version_cleanup(handle, tc_id, op_id, op)
        structure = handle.structure
        leaf = structure.find_leaf(op.key)  # type: ignore[union-attr]
        if op_id and leaf.ablsn_for(tc_id).contains(op_id):
            # Exactly-once: already reflected (a resend or a redo replay).
            # The before-image the first execution was asked for is still
            # here unless that reply demonstrably arrived (LWM passed it).
            self.metrics.incr("dc.duplicate_ops")
            if want_prior:
                with self._priors_lock:
                    return OpResult.okay(prior=self._priors.get(tc_id, {}).get(op_id))
            return OpResult.okay()
        versioned = handle.descriptor.versioned or getattr(op, "versioned", False)
        if isinstance(op, InsertOp):
            result, final_leaf = self._apply_insert(
                handle, tc_id, op, versioned, leaf, op_id
            )
        elif isinstance(op, UpdateOp):
            result, final_leaf = self._apply_update(
                handle, tc_id, op, versioned, leaf, op_id, want_prior
            )
        elif isinstance(op, DeleteOp):
            result, final_leaf = self._apply_delete(
                handle, tc_id, op, versioned, leaf, op_id, want_prior
            )
        elif isinstance(op, IncrementOp):
            result, final_leaf = self._apply_increment(
                handle, tc_id, op, versioned, leaf, op_id
            )
        else:
            return OpResult.error(f"unknown mutation {type(op).__name__}")
        if result.prior is not None:
            with self._priors_lock:
                self._priors.setdefault(tc_id, {})[op_id] = result.prior
        if result.ok and isinstance(op, DeleteOp) and not versioned:
            structure.maybe_consolidate(op.key)
        return result

    def _mutate_record(
        self,
        handle: TableHandle,
        tc_id: int,
        key: object,
        mutate: Callable[[Optional[VersionedRecord]], Optional[VersionedRecord]],
        leaf: Optional[LeafPage] = None,
        op_id: Lsn = 0,
        outcome: Optional[dict[str, OpResult]] = None,
    ) -> tuple[Optional[VersionedRecord], LeafPage]:
        """Apply ``mutate`` to the record slot, splitting for space as needed.

        ``leaf`` lets the caller reuse a descent it already made; the
        structure latch held around every mutation keeps it valid.  When the
        caller passes ``op_id`` + ``outcome``, a successful mutation's LSN
        is folded into the leaf's abLSN inside the same latch bracket (the
        exactly-once bookkeeping, saved a second latch acquisition).
        Returns ``(new_record_or_None, leaf_finally_holding_the_slot)``.
        """
        structure = handle.structure
        if leaf is None:
            leaf = structure.find_leaf(key)
        with leaf.latch:
            self._latches_slot.value += 1
            old = leaf.get(key)
            new = mutate(old)
            if new is None:
                if old is not None:
                    leaf.remove(key)
                    if op_id and outcome is not None and outcome["result"].ok:
                        leaf.ablsn_for(tc_id).include(op_id)
                return None, leaf
            # owner_tc is set by the mutators on *successful* changes only,
            # so a rejected operation never reassigns another TC's record
            delta = new.encoded_size() - (old.encoded_size() if old is not None else 0)
            if leaf.fits(delta, self.config.page_size):
                leaf.put(new, delta)
                if op_id and outcome is not None and outcome["result"].ok:
                    leaf.ablsn_for(tc_id).include(op_id)
                return new, leaf
        # Overflow: split (a system transaction), then retry on the new leaf.
        leaf = structure.ensure_room(key, delta)
        with leaf.latch:
            self._latches_slot.value += 1
            leaf.put(new)
            if op_id and outcome is not None and outcome["result"].ok:
                leaf.ablsn_for(tc_id).include(op_id)
            return new, leaf

    def _apply_insert(
        self, handle: TableHandle, tc_id: int, op: InsertOp, versioned: bool,
        leaf: Optional[LeafPage] = None,
        op_id: Lsn = 0,
    ) -> tuple[OpResult, LeafPage]:
        outcome: dict[str, OpResult] = {}

        def mutate(old: Optional[VersionedRecord]) -> Optional[VersionedRecord]:
            if old is not None and old.exists_for(read_committed=False):
                outcome["result"] = OpResult.duplicate(
                    f"key {op.key!r} already exists in {op.table!r}"
                )
                return old
            record = old if old is not None else VersionedRecord(key=op.key)
            outcome["result"] = OpResult.okay()
            # "insert two versions, a before 'null' version followed by
            # the intended insert" (Section 6.2.2).
            derive = record.set_pending if versioned else record.set_committed
            return derive(op.value, tc_id)

        _record, leaf = self._mutate_record(
            handle, tc_id, op.key, mutate, leaf, op_id, outcome
        )
        return outcome["result"], leaf

    def _apply_update(
        self, handle: TableHandle, tc_id: int, op: UpdateOp, versioned: bool,
        leaf: Optional[LeafPage] = None,
        op_id: Lsn = 0,
        want_prior: bool = False,
    ) -> tuple[OpResult, LeafPage]:
        outcome: dict[str, OpResult] = {}

        def mutate(old: Optional[VersionedRecord]) -> Optional[VersionedRecord]:
            if old is None or not old.exists_for(read_committed=False):
                outcome["result"] = OpResult.not_found(
                    f"no record {op.key!r} in {op.table!r}"
                )
                return old
            prior = old.visible_value(read_committed=False) if want_prior else None
            outcome["result"] = OpResult.okay(prior=prior)
            derive = old.set_pending if versioned else old.set_committed
            return derive(op.value, tc_id)

        _record, leaf = self._mutate_record(
            handle, tc_id, op.key, mutate, leaf, op_id, outcome
        )
        return outcome["result"], leaf

    def _apply_delete(
        self, handle: TableHandle, tc_id: int, op: DeleteOp, versioned: bool,
        leaf: Optional[LeafPage] = None,
        op_id: Lsn = 0,
        want_prior: bool = False,
    ) -> tuple[OpResult, LeafPage]:
        outcome: dict[str, OpResult] = {}

        def mutate(old: Optional[VersionedRecord]) -> Optional[VersionedRecord]:
            if old is None or not old.exists_for(read_committed=False):
                outcome["result"] = OpResult.not_found(
                    f"no record {op.key!r} in {op.table!r}"
                )
                return old
            prior = old.visible_value(read_committed=False) if want_prior else None
            outcome["result"] = OpResult.okay(prior=prior)
            if versioned:
                return old.set_pending(TOMBSTONE, tc_id)
            return None  # physical removal

        _record, leaf = self._mutate_record(
            handle, tc_id, op.key, mutate, leaf, op_id, outcome
        )
        return outcome["result"], leaf

    def _apply_increment(
        self, handle: TableHandle, tc_id: int, op: IncrementOp, versioned: bool,
        leaf: Optional[LeafPage] = None,
        op_id: Lsn = 0,
    ) -> tuple[OpResult, LeafPage]:
        outcome: dict[str, OpResult] = {}

        def mutate(old: Optional[VersionedRecord]) -> Optional[VersionedRecord]:
            if old is None or not old.exists_for(read_committed=False):
                outcome["result"] = OpResult.not_found(
                    f"no record {op.key!r} in {op.table!r}"
                )
                return old
            current = old.visible_value(read_committed=False)
            if not isinstance(current, (int, float)) or isinstance(current, bool):
                outcome["result"] = OpResult.error(
                    f"record {op.key!r} is not numeric"
                )
                return old
            updated = current + op.delta
            outcome["result"] = OpResult.okay(value=updated)
            derive = old.set_pending if versioned else old.set_committed
            return derive(updated, tc_id)

        _record, leaf = self._mutate_record(
            handle, tc_id, op.key, mutate, leaf, op_id, outcome
        )
        return outcome["result"], leaf

    def _apply_version_cleanup(
        self,
        handle: TableHandle,
        tc_id: int,
        op_id: Lsn,
        op: Union[PromoteVersionsOp, DiscardVersionsOp],
    ) -> OpResult:
        """Promote/discard pending versions; per-record idempotent, so a
        mid-operation flush or crash re-applies harmlessly."""
        structure = handle.structure
        promote = isinstance(op, PromoteVersionsOp)
        touched: dict[int, LeafPage] = {}
        retention = self.config.snapshot_retention
        commit_seq = 0
        if promote:
            with self._admin_lock:
                self._version_clock += 1
                commit_seq = self._version_clock
        keep = self.config.snapshot_max_versions if retention > 0 else 0
        prune_floor = max(0, self._version_clock - retention)

        for key in op.keys:
            leaf = structure.find_leaf(key)
            if op_id and leaf.ablsn_for(tc_id).contains(op_id):
                continue

            def mutate(old: Optional[VersionedRecord]) -> Optional[VersionedRecord]:
                if old is None:
                    return None
                if promote:
                    new = old.promote_pending(commit_seq=commit_seq, keep_history=keep)
                    if retention > 0:
                        new = new.prune_history(prune_floor)
                else:
                    new = old.discard_pending()
                return None if new.is_dead() else new

            _record, final_leaf = self._mutate_record(handle, tc_id, key, mutate)
            touched[final_leaf.page_id] = final_leaf
        if op_id:
            for leaf in touched.values():
                with leaf.latch:
                    leaf.ablsn_for(tc_id).include(op_id)
                    leaf.dirty = True
        self.metrics.incr(
            "dc.version_promotes" if promote else "dc.version_discards"
        )
        return OpResult.okay()

    # -- reads --------------------------------------------------------------------------------

    def _execute_read(
        self, handle: TableHandle, tc_id: int, op: LogicalOperation
    ) -> OpResult:
        structure = handle.structure
        if isinstance(op, ReadOp):
            if op.flavor is ReadFlavor.SNAPSHOT:
                if op.as_of < self.snapshot_floor():
                    return OpResult.error(
                        f"snapshot {op.as_of} is older than the retention "
                        f"floor {self.snapshot_floor()}"
                    )
                record = structure.get_record(op.key)
                value = record.snapshot_value(op.as_of) if record else None
                if value is None:
                    return OpResult.not_found()
                return OpResult.okay(value=value)
            read_committed = op.flavor is ReadFlavor.READ_COMMITTED
            record = structure.get_record(op.key)
            if record is None or not record.exists_for(read_committed):
                return OpResult.not_found()
            return OpResult.okay(value=record.visible_value(read_committed))
        if isinstance(op, RangeReadOp):
            if op.flavor is ReadFlavor.SNAPSHOT:
                if op.as_of < self.snapshot_floor():
                    return OpResult.error(
                        f"snapshot {op.as_of} is older than the retention "
                        f"floor {self.snapshot_floor()}"
                    )
                views = []
                for record in structure.iter_range(op.low, op.high):
                    if op.low_exclusive and record.key == op.low:
                        continue
                    value = record.snapshot_value(op.as_of)
                    if value is None:
                        continue
                    views.append(RecordView(record.key, value))
                    if op.limit is not None and len(views) >= op.limit:
                        break
                return OpResult(records=tuple(views))
            read_committed = op.flavor is ReadFlavor.READ_COMMITTED
            views = []
            for record in structure.iter_range(op.low, op.high):
                if op.low_exclusive and record.key == op.low:
                    continue
                if not record.exists_for(read_committed):
                    continue
                views.append(
                    RecordView(record.key, record.visible_value(read_committed))
                )
                if op.limit is not None and len(views) >= op.limit:
                    break
            return OpResult(records=tuple(views))
        if isinstance(op, ProbeNextKeysOp):
            keys = structure.next_keys(
                op.after, op.count, op.until, inclusive=op.inclusive
            )
            return OpResult(keys=tuple(keys))
        return OpResult.error(f"unknown read {type(op).__name__}")

    # -- contract maintenance ---------------------------------------------------------------------

    def end_of_stable_log(self, tc_id: int, eosl: Lsn) -> None:
        self._check_up()
        self.buffer.note_eosl(tc_id, eosl)

    def low_water_mark(self, tc_id: int, lwm: Lsn) -> None:
        self._check_up()
        with self.buffer.operation():
            self.buffer.note_lwm(tc_id, lwm)
        with self._priors_lock:
            priors = self._priors.get(tc_id)
            if priors:
                # The TC has every reply at or below LWM: those images arrived.
                self._priors[tc_id] = {
                    op_id: prior for op_id, prior in priors.items() if op_id > lwm
                }

    def checkpoint(self, tc_id: int, new_rssp: Lsn) -> Lsn:
        """Make stable all pages with operations below ``new_rssp``.

        Returns the RSSP the TC may now advance to (``new_rssp`` on
        success, NULL_LSN when some page could not be flushed yet).
        """
        self._check_up()
        self.metrics.incr("dc.checkpoints")
        with self.buffer.operation():
            done = self.buffer.flush_for_checkpoint(new_rssp)
        return new_rssp if done else NULL_LSN

    def begin_restart(
        self,
        tc_id: int,
        stable_lsn: Lsn,
        mode: ResetMode = ResetMode.RECORD_RESET,
    ) -> dict[str, int]:
        """TC-crash reset (Section 5.3.2 / 6.1.2): shed lost-operation state."""
        self._check_up()
        self.metrics.incr("dc.tc_restarts")
        # Whatever still waited for an image was not stable, so it is lost.
        with self._priors_lock:
            self._priors.pop(tc_id, None)
        with self.buffer.operation():
            return self.buffer.reset_after_tc_crash(tc_id, stable_lsn, mode)

    def snapshot_floor(self) -> int:
        """Oldest watermark still served under the retention horizon."""
        if self.config.snapshot_retention <= 0:
            return self._version_clock
        return max(0, self._version_clock - self.config.snapshot_retention)

    def version_watermark(self) -> int:
        return self._version_clock

    # -- DC-local checkpoint (truncates the DC log) ---------------------------------------------------

    def checkpoint_dc_log(self) -> bool:
        """Flush everything and truncate the DC log; False if blocked."""
        self._check_up()
        with self._admin_lock, self.buffer.operation():
            # The cache marks a page dirty when an operation changes it, not
            # when the loader rebuilt it from DC-log records after a restart
            # or a TC-crash reset: such a page is "clean" yet differs from
            # its disk image (or has none), and may not be cached at all.
            # It must reach disk before the records that define it go.
            for page_id in self.storage.pages_behind_dc_log():
                page = self.buffer.fetch(page_id)
                if page is not None:
                    page.dirty = True
            self.buffer.flush_all()
            if self.buffer.dirty_count() > 0:
                return False
            descriptors = {
                name: handle.descriptor for name, handle in self._tables.items()
            }
            for name, handle in self._tables.items():
                if isinstance(handle.structure, BTree):
                    descriptors[name].root_id = handle.structure.root_id
            self.recovery.save_catalog(descriptors)
            self.dclog.truncate_before(self.dclog.last_dlsn + 1)
            self.metrics.incr("dc.log_truncations")
        self.hint_rssp_advance()
        return True

    def hint_rssp_advance(self) -> None:
        """Spontaneous contract termination (Section 4.2.1).

        When the cache holds no dirty page, every *applied* operation is
        stable; operations at or below a TC's low-water mark are known
        applied (no gaps).  So each hinted TC may stop resending anything
        below ``LWM + 1`` as far as this DC is concerned.
        """
        if self.buffer.dirty_count() > 0:
            return
        for tc_id, hint in list(self._rssp_hint.items()):
            if tc_id in self._redo_pending:
                # Same refusal as the checkpoint gate: nothing is "known
                # applied" for a TC whose redo stream is still open.
                continue
            lwm = self.buffer._lwm.get(tc_id, NULL_LSN)
            if lwm > NULL_LSN:
                self.metrics.incr("dc.rssp_hints")
                hint(self.name, lwm + 1)

    # -- failure injection & recovery ---------------------------------------------------------------------

    def crash(self) -> None:
        """Lose all volatile state; stable storage survives."""
        if _sched.ACTIVE is not None:
            _sched.note_event("dc.crash", self.name)
        self._crashed = True
        self._incarnation += 1
        self.buffer.crash()
        self._tables.clear()
        with self._priors_lock:
            self._priors.clear()
        self.metrics.incr("dc.crashes")
        for listener in list(self.on_crash):
            listener(self.name, "dc")

    def recover(self, notify_tcs: bool = True) -> dict[str, object]:
        """DC restart: rebuild catalog + well-formed structures (Section 5.2.2).

        System-transaction effects replay (via the stable-page loader)
        *before* any TC redo is accepted; each tree is validated to assert
        the well-formedness contract.  Optionally prompts registered TCs to
        begin their redo ("an out-of-band prompt is passed to TC").
        """
        if self.faults is not None:
            from repro.sim.faults import FaultPoint

            self.faults.hit(FaultPoint.DC_RESTART, self.name)
        if _sched.ACTIVE is not None:
            _sched.note_event("dc.recover.begin", self.name)
        with self._admin_lock:
            self.buffer.crash()
            catalog = self.recovery.recover_catalog()
            self.dclog.advance_past(self.recovery.highest_stable_dlsn())
            self._tables = {}
            for name, descriptor in catalog.items():
                if descriptor.kind in self._structure_factories:
                    structure: Structure = self._structure_factories[
                        descriptor.kind
                    ](self, name, descriptor)  # type: ignore[assignment]
                elif descriptor.kind == "btree":
                    structure = BTree(
                        name,
                        self.storage,
                        self.buffer,
                        self._begin_systxn,
                        self.config,
                        self.metrics,
                        root_id=descriptor.root_id,
                    )
                elif descriptor.kind == "heap":
                    structure = HashedHeap(
                        name,
                        self.storage,
                        self.buffer,
                        self._begin_systxn,
                        self.config,
                        self.metrics,
                        bucket_ids=list(descriptor.bucket_ids),
                    )
                else:
                    raise ReproError(
                        f"table {name!r} has kind {descriptor.kind!r} but no "
                        f"structure factory is registered for it"
                    )
                structure.validate()
                self._tables[name] = TableHandle(descriptor, structure)
            self._recover_version_clock()
            # Open the redo window: every TC we are about to prompt must
            # finish its redo resend (RedoComplete) before its ordinary
            # operations are served again.  Without prompts there is no
            # resender, so no window.
            self._redo_pending = set(self._restart_prompt) if notify_tcs else set()
            self._crashed = False
            self.metrics.incr("dc.recoveries")
        if _sched.ACTIVE is not None:
            # Structures are rebuilt and validated: redo may now apply.
            _sched.note_event("dc.recover.ready", self.name)
        if notify_tcs:
            self.prompt_redo()
        return {"tables": len(self._tables)}

    def prompt_redo(self) -> None:
        """Out-of-band prompt to every registered TC: this DC restarted and
        lost its cache, begin redo from the redo scan start point.  Safe to
        repeat — a duplicate prompt's redo stream is absorbed by abLSNs —
        so a supervisor can retry it until it completes."""
        for prompt in list(self._restart_prompt.values()):
            prompt(self)

    def _recover_version_clock(self) -> None:
        """Resume the commit-sequence clock above every stamped version so
        per-record histories stay monotone across DC restarts (pre-crash
        snapshot watermarks themselves do not survive)."""
        top = self._version_clock
        for handle in self._tables.values():
            if not handle.descriptor.versioned:
                continue
            for record in handle.structure.iter_range(None, None):
                seq = record.max_seq()
                if seq > top:
                    top = seq
        self._version_clock = top

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
            "version_clock": self._version_clock,
        }

    @property
    def crashed(self) -> bool:
        return self._crashed
