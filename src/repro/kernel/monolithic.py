"""The integrated (monolithic) baseline engine — what the paper unbundles.

A classic single-process storage engine in the System R / ARIES lineage,
for head-to-head comparison with the unbundled kernel (experiments FIG1,
E-LOCK, E-OOO, E-FAIL):

- lock manager, log manager, buffer and access method in one component;
- *physiological* logging: every log record names the page it touches;
- the classic single ``pageLSN`` idempotence test
  (``op LSN <= pageLSN`` => skip) — valid here because the LSN is assigned
  inside the critical section that updates the page, the exact assumption
  out-of-order unbundled execution breaks (Section 5.1.1);
- structure modifications logged inline in the *same* log and redone in
  their original execution order (Section 5.2.1, "current technique");
- repeat-history redo from the checkpoint's RSSP, then undo of losers with
  compensation records.

The access method and the cache are the DC's own :class:`BTree` and
:class:`BufferPool`, so FIG1 compares bundling and nothing else: the tree
logs through :class:`_InlineSmo` instead of a system transaction, and the
pool flushes a page once this log is stable past its ``page_lsn``.

Because locking happens *inside* the engine with the page at hand, the
baseline needs no probe messages, no read-before-write for undo info, and
no messages at all — the integration advantages the paper concedes, which
the benchmarks quantify against unbundling's flexibility.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

from repro.common.config import DcConfig, TcConfig
from repro.common.errors import (
    CrashedError,
    DuplicateKeyError,
    LockTimeoutError,
    NoSuchRecordError,
    ReproError,
    TransactionAborted,
)
from repro.common.lsn import Lsn, LsnGenerator, NULL_LSN
from repro.common.records import Key, Value, VersionedRecord, sizeof_key, sizeof_value
from repro.obs.tracing import NULL_TRACER
from repro.sim.metrics import Metrics
from repro.storage.btree import BTree
from repro.storage.buffer import PAGE_LSN_LOG, BufferPool
from repro.storage.disk import StableStorage
from repro.storage.page import LeafPage, Page, PageImage
from repro.tc.handle import TracedHandle, TransactionState
from repro.tc.lock_manager import LockManager, LockMode

# --------------------------------------------------------------------------
# Physiological log records (every one names its page).
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class MonoLogRecord:
    lsn: Lsn
    txn_id: int

    def encoded_size(self) -> int:
        return 24


@dataclass(frozen=True)
class MonoUpdate(MonoLogRecord):
    page_id: int = 0
    action: str = ""  # "insert" | "update" | "delete"
    table: str = ""
    key: Key = None
    value: Value = None
    prior: Value = None

    def encoded_size(self) -> int:
        return (
            super().encoded_size()
            + 8
            + sizeof_key(self.key)
            + sizeof_value(self.value)
            + sizeof_value(self.prior)
        )


@dataclass(frozen=True)
class MonoCompensation(MonoUpdate):
    """CLR: redo-only inverse applied during rollback."""

    undo_next: Lsn = NULL_LSN

    def encoded_size(self) -> int:
        return super().encoded_size() + 8


@dataclass(frozen=True)
class MonoSmo(MonoLogRecord):
    """A structure modification (create, split or consolidate), redone in
    its original log order.

    The pre-split leaf is logged logically (page id and split key); every
    other page the SMO wrote (new leaf, parents, new inner pages, a new
    root, a merge target) is carried as a physical image — the
    SQL-Server-style system transaction the paper's Section 5.2.1
    describes, inlined in the single log.
    """

    kind: str = ""
    images: tuple[PageImage, ...] = ()
    split: Optional[tuple[int, Key]] = None
    freed: tuple[int, ...] = ()
    root_change: Optional[tuple[str, int]] = None

    def encoded_size(self) -> int:
        size = super().encoded_size() + 16 + 8 * len(self.freed)
        if self.split is not None:
            size += 8 + sizeof_key(self.split[1])
        return size + sum(image.encoded_size() for image in self.images)


@dataclass(frozen=True)
class MonoCommit(MonoLogRecord):
    pass


@dataclass(frozen=True)
class MonoEnd(MonoLogRecord):
    pass


@dataclass(frozen=True)
class MonoCheckpoint(MonoLogRecord):
    rssp: Lsn = NULL_LSN


#: The monolithic handle's states are the unbundled handle's.
MonoTxnState = TransactionState

#: Counters the SMO kinds bump (FIG1 and the tests read them).
_SMO_COUNTERS = {"split": "mono.splits", "consolidate": "mono.merges"}

#: The inverse a rollback applies for each forward action.
_INVERSE = {"insert": "delete", "delete": "insert", "update": "update"}

#: A lock the engine takes: (resource, mode).
_Lock = tuple[tuple, LockMode]


class _InlineSmo:
    """One structure modification as one :class:`MonoSmo` in the single
    log — the interface :class:`BTree` logs through, which the DC fills
    with a system transaction.

    One LSN covers the whole SMO, and each page is stamped with it before
    its image is taken, so the images carry their final ``page_lsn``.
    There is no causality gate: there is one log, and the buffer's WAL
    rule covers it.
    """

    def __init__(self, engine: "MonolithicEngine", kind: str) -> None:
        self._engine = engine
        self.kind = kind
        self.lsn = engine._lsns.next()
        self.images: list[PageImage] = []
        self.split: Optional[tuple[int, Key]] = None
        self.freed: list[int] = []
        self.root_change: Optional[tuple[str, int]] = None

    def gate(self, *sources: Page) -> None:
        pass

    def log_page_image(self, page: Page) -> None:
        page.page_lsn = self.lsn
        self.images.append(page.snapshot())

    def log_keys_removed(self, page: Page, split_key: Key) -> None:
        page.page_lsn = self.lsn
        self.split = (page.page_id, split_key)

    def log_page_free(self, page_id: int) -> None:
        self.freed.append(page_id)

    def log_root_changed(self, table: str, new_root: int) -> None:
        self.root_change = (table, new_root)

    def commit(self) -> None:
        engine = self._engine
        engine._append(
            MonoSmo,
            lsn=self.lsn,
            kind=self.kind,
            images=tuple(self.images),
            split=self.split,
            freed=tuple(self.freed),
            root_change=self.root_change,
        )
        if self.freed:
            # A free reaches stable storage at once, so the record that
            # moved the freed page's records elsewhere must be stable first.
            engine.force_log()
        counter = _SMO_COUNTERS.get(self.kind)
        if counter is not None:
            engine.metrics.incr(counter)


class MonoTransaction(TracedHandle):
    """Handle mirroring :class:`repro.tc.handle.Transaction`; its root
    span makes traces of the two kernels compare side by side."""

    def __init__(self, engine: "MonolithicEngine", txn_id: int) -> None:
        super().__init__(txn_id, engine.tracer, "mono", engine._commit_latency)
        self._engine = engine
        self.undo_chain: list[MonoUpdate] = []

    def insert(self, table: str, key: Key, value: Value) -> None:
        self._traced(None, None, self._engine.do_insert, self, table, key, value)

    def update(self, table: str, key: Key, value: Value) -> None:
        self._traced(None, None, self._engine.do_update, self, table, key, value)

    def delete(self, table: str, key: Key) -> None:
        self._traced(None, None, self._engine.do_delete, self, table, key)

    def increment(self, table: str, key: Key, delta: float) -> None:
        self._traced(None, None, self._engine.do_increment, self, table, key, delta)

    def read(self, table: str, key: Key) -> Optional[Value]:
        return self._traced(None, None, self._engine.do_read, self, table, key)

    def scan(
        self,
        table: str,
        low: Optional[Key] = None,
        high: Optional[Key] = None,
        limit: Optional[int] = None,
    ) -> list[tuple[Key, Value]]:
        return self._traced(None, None, self._engine.do_scan, self, table, low, high, limit)

    def commit(self) -> None:
        self._commit_with("mono.commit", self._engine.commit)

    def abort(self) -> None:
        self._traced("mono.abort", None, self._engine.abort, self)


class MonolithicEngine:
    """Integrated storage engine: one log, one lock table, page LSNs."""

    def __init__(
        self,
        config: Optional[DcConfig] = None,
        tc_config: Optional[TcConfig] = None,
        metrics: Optional[Metrics] = None,
        tracer: Optional[object] = None,
    ) -> None:
        self.config = config or DcConfig()
        self.tc_config = tc_config or TcConfig()
        self.metrics = metrics or Metrics()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if (
            not self.tracer.enabled
            and type(self).force_log is MonolithicEngine.force_log
        ):
            # No tracing: log forces dispatch straight to the untraced body.
            self.force_log = self._force_log
        #: Commit latencies land in a lock-free buffer; ``metrics`` folds
        #: them into the ``mono.commit_latency_ms`` distribution lazily.
        self._commit_latency = self.metrics.buffer("mono.commit_latency_ms")
        self.locks = LockManager(
            self.metrics, timeout=self.tc_config.lock_timeout, tracer=self.tracer
        )
        self.storage = StableStorage(self.metrics)
        self.buffer = BufferPool(self.storage, self.config, self.metrics)
        self._trees: dict[str, BTree] = {}
        self._lsns = LsnGenerator()
        self._log: list[MonoLogRecord] = []
        self._stable_count = 0
        self._txn_ids = itertools.count(1)
        self._crashed = False
        self._mutex = threading.RLock()

    # -- log plumbing -----------------------------------------------------------

    def _append(
        self, cls: type, txn_id: int = 0, lsn: Optional[Lsn] = None, **fields: object
    ) -> MonoLogRecord:
        record = cls(
            lsn=self._lsns.next() if lsn is None else lsn, txn_id=txn_id, **fields
        )
        self._log.append(record)
        self.metrics.incr("mono.log_appends")
        self.metrics.incr("mono.log_bytes", record.encoded_size())
        return record

    def force_log(self) -> Lsn:
        with self.tracer.span("mono.log_force", component="mono"):
            return self._force_log()

    def _force_log(self) -> Lsn:
        self._stable_count = len(self._log)
        self.metrics.incr("mono.log_forces")
        stable = self._log[-1].lsn if self._log else NULL_LSN
        self.buffer.note_eosl(PAGE_LSN_LOG, stable)
        return stable

    # -- schema -------------------------------------------------------------------------

    def _open_tree(self, name: str, root_id: Optional[int] = None) -> BTree:
        return BTree(
            name, self.storage, self.buffer, partial(_InlineSmo, self), self.config,
            self.metrics, root_id=root_id,
        )

    def create_table(self, name: str) -> None:
        self._check_up()
        with self._mutex, self.buffer.operation():
            if name in self._trees:
                raise ReproError(f"table {name!r} already exists")
            self._trees[name] = self._open_tree(name)
            self.force_log()

    def tree(self, table: str) -> BTree:
        tree = self._trees.get(table)
        if tree is None:
            raise ReproError(f"unknown table {table!r}")
        return tree

    # -- locking ------------------------------------------------------------------------

    def begin(self) -> MonoTransaction:
        self._check_up()
        txn = MonoTransaction(self, next(self._txn_ids))
        self.metrics.incr("mono.begins")
        return txn

    def _check_up(self) -> None:
        if self._crashed:
            raise CrashedError("monolithic engine")

    def _lock(self, txn: MonoTransaction, resource: tuple, mode: LockMode) -> None:
        """Every lock call: a refusal or a timeout aborts the transaction,
        as the TC's does."""
        try:
            self.locks.acquire(txn.txn_id, resource, mode)
        except (TransactionAborted, LockTimeoutError):
            self.abort(txn)
            raise

    def _gap_above(self, table: str, key: Optional[Key], mode: LockMode) -> _Lock:
        """Key-range (next-key) locking done *inside* the engine: the
        successor is read straight off the pages — no probe messages."""
        above = self.tree(table).next_keys(key, 1) if key is not None else []
        return (("gap", table, above[0] if above else "<END>"), mode)

    def _run(
        self,
        txn: MonoTransaction,
        table: str,
        key: Optional[Key],
        mode: LockMode,
        step: Callable[[], object],
        plan: Optional[Callable[[], list[_Lock]]] = None,
    ) -> object:
        """Lock ``key`` (just the table, when None) in ``mode``, then run
        ``step()`` under the engine mutex.

        No lock wait happens with the mutex or a tree latch held, so a
        waiter never stalls the holder's commit.  ``plan()``, read under
        the mutex, names the locks that depend on the tree (a successor's
        gap, a scanned range's keys); while it names one not yet taken, the
        mutex is let go, that lock is taken, and the plan is read again.  A
        gap lock that went stale meanwhile is only extra locking under
        strict 2PL.
        """
        self._check_up()
        txn._check_active()
        self._lock(txn, ("table", table), LockMode.IS if mode is LockMode.S else LockMode.IX)
        if key is not None:
            self._lock(txn, ("rec", table, key), mode)
        taken: set[_Lock] = set()
        while True:
            with self._mutex, self.buffer.operation():
                locks = [lock for lock in plan() if lock not in taken] if plan else []
                if not locks:
                    return step()
            for resource, lock_mode in locks:
                self._lock(txn, resource, lock_mode)
            taken.update(locks)

    # -- record operations --------------------------------------------------------------

    def _leaf(self, table: str, key: Key, exists: bool) -> tuple[LeafPage, Value]:
        """The leaf covering ``key`` and the key's committed value there;
        raises unless the key ``exists`` as the operation needs."""
        leaf = self.tree(table).find_leaf(key)
        record = leaf.get(key)
        value = record.committed if record is not None else None
        if exists and value is None:
            raise NoSuchRecordError(table, key)
        if not exists and value is not None:
            raise DuplicateKeyError(table, key)
        return leaf, value

    def _change(
        self,
        cls: type,
        txn_id: int,
        leaf: LeafPage,
        table: str,
        key: Key,
        action: str,
        value: Value,
        **fields: object,
    ) -> MonoLogRecord:
        """Log -> latch -> apply -> stamp: the one step every change to a
        record takes, forward or compensating, on ``key``'s leaf (split
        first if the change does not fit).  The LSN is assigned in the
        critical section that updates the page, which the single pageLSN
        test relies on."""
        if action != "delete":
            old = leaf.get(key)
            grow = VersionedRecord(key, value).encoded_size() - (
                old.encoded_size() if old is not None else 0
            )
            if not leaf.fits(grow, self.config.page_size):
                leaf = self.tree(table).ensure_room(key, grow)
        record = self._append(
            cls, txn_id, page_id=leaf.page_id, action=action, table=table,
            key=key, value=value, **fields,
        )
        with leaf.latch:
            self._apply(leaf, record)
        return record

    @staticmethod
    def _apply(leaf: LeafPage, record: MonoUpdate) -> None:
        if record.action == "delete":
            leaf.remove(record.key)
        else:
            leaf.put(VersionedRecord(record.key, record.value))
        leaf.page_lsn = record.lsn

    def _write(
        self, txn: MonoTransaction, table: str, key: Key, action: str, value: Value = None
    ) -> None:
        """A forward change: checked, logged, applied, and put on the undo
        chain."""
        leaf, prior = self._leaf(table, key, exists=action != "insert")
        record = self._change(
            MonoUpdate, txn.txn_id, leaf, table, key, action, value, prior=prior
        )
        txn.undo_chain.append(record)  # type: ignore[arg-type]
        self.metrics.incr("mono.mutations")

    def do_insert(self, txn: MonoTransaction, table: str, key: Key, value: Value) -> None:
        self._run(
            txn, table, key, LockMode.X,
            lambda: self._write(txn, table, key, "insert", value),
            lambda: [self._gap_above(table, key, LockMode.X)],
        )

    def do_update(self, txn: MonoTransaction, table: str, key: Key, value: Value) -> None:
        self._run(
            txn, table, key, LockMode.X,
            lambda: self._write(txn, table, key, "update", value),
        )

    def do_delete(self, txn: MonoTransaction, table: str, key: Key) -> None:
        def step() -> None:
            self._write(txn, table, key, "delete")
            self.tree(table).maybe_consolidate(key)

        self._run(
            txn, table, key, LockMode.X, step,
            lambda: [self._gap_above(table, key, LockMode.X)],
        )

    def do_increment(
        self, txn: MonoTransaction, table: str, key: Key, delta: float
    ) -> None:
        """Parity with the unbundled kernel's logical increment."""

        def step() -> None:
            current = self._leaf(table, key, exists=True)[1]
            if not isinstance(current, (int, float)) or isinstance(current, bool):
                raise ReproError(f"record {key!r} is not numeric")
            self._write(txn, table, key, "update", current + delta)

        self._run(txn, table, key, LockMode.X, step)

    def do_read(self, txn: MonoTransaction, table: str, key: Key) -> Optional[Value]:
        def step() -> Optional[Value]:
            record = self.tree(table).get_record(key)
            self.metrics.incr("mono.reads")
            return record.committed if record is not None else None

        return self._run(txn, table, key, LockMode.S, step)  # type: ignore[return-value]

    def do_scan(
        self,
        txn: MonoTransaction,
        table: str,
        low: Optional[Key],
        high: Optional[Key],
        limit: Optional[int],
    ) -> list[tuple[Key, Value]]:
        """Integrated key-range locking: each key in the range, the gap
        below it and the gap above ``high``."""
        rows: list[tuple[Key, Value]] = []

        def plan() -> list[_Lock]:
            rows[:] = [
                (record.key, record.committed)
                for record in self.tree(table).iter_range(low, high, limit)
            ]
            locks = [
                ((kind, table, key), LockMode.S) for key, _v in rows for kind in ("rec", "gap")
            ]
            if limit is None or len(rows) < limit:
                locks.append(self._gap_above(table, high, LockMode.S))
            return locks

        self._run(txn, table, None, LockMode.S, lambda: None, plan)
        self.metrics.incr("mono.scans")
        return [(key, value) for key, value in rows if value is not None]

    # -- commit / abort ---------------------------------------------------------------------------

    def commit(self, txn: MonoTransaction) -> None:
        self._check_up()
        txn._check_active()
        with self._mutex:
            self._append(MonoCommit, txn.txn_id)
            self.force_log()
            self._append(MonoEnd, txn.txn_id)
        self.locks.release_all(txn.txn_id)
        txn.state = MonoTxnState.COMMITTED
        self.metrics.incr("mono.commits")

    def abort(self, txn: MonoTransaction) -> None:
        self._check_up()
        if txn.state is not MonoTxnState.ACTIVE:
            return
        with self._mutex, self.buffer.operation():
            self._rollback(txn.txn_id, list(reversed(txn.undo_chain)))
            self._append(MonoEnd, txn.txn_id)
        self.locks.release_all(txn.txn_id)
        txn.state = MonoTxnState.ABORTED
        self.metrics.incr("mono.aborts")

    def _rollback(self, txn_id: int, to_undo: list[MonoUpdate]) -> None:
        for index, record in enumerate(to_undo):
            undo_next = to_undo[index + 1].lsn if index + 1 < len(to_undo) else NULL_LSN
            action = _INVERSE[record.action]
            leaf = self.tree(record.table).find_leaf(record.key)
            self._change(
                MonoCompensation, txn_id, leaf, record.table, record.key, action,
                None if action == "delete" else record.prior, undo_next=undo_next,
            )
            self.metrics.incr("mono.undo_ops")

    # -- checkpoint -------------------------------------------------------------------------------------

    def checkpoint(self) -> None:
        self._check_up()
        with self._mutex, self.buffer.operation():
            self.force_log()
            self.buffer.flush_all()
            self._append(MonoCheckpoint, rssp=self._lsns.last + 1)
            self.force_log()
            self.metrics.incr("mono.checkpoints")

    # -- crash / recovery ----------------------------------------------------------------------------------

    def crash(self) -> int:
        """Monolithic failure is never partial: log tail, cache and lock
        table all vanish together (Section 5.3.1)."""
        self._crashed = True
        lost = len(self._log) - self._stable_count
        del self._log[self._stable_count :]
        self.buffer.crash()
        self.locks.clear()
        self.metrics.incr("mono.crashes")
        return lost

    def recover(self) -> dict[str, int]:
        """ARIES-style: analysis, repeat-history redo (page-LSN test), undo."""
        with self._mutex:
            stable = self._log[-1].lsn if self._log else NULL_LSN
            self._lsns.advance_to(stable)
            self.buffer.note_eosl(PAGE_LSN_LOG, stable)
            rssp, roots, changes, committed, ended = self._analyze()
            self._trees = {name: self._open_tree(name, root) for name, root in roots.items()}
            redone = self._redo(rssp)
            undone = 0
            with self.buffer.operation():
                for txn_id in committed - ended:
                    self._append(MonoEnd, txn_id)
                for txn_id, records in changes.items():
                    if txn_id not in committed and txn_id not in ended:
                        undone += self._undo_loser(txn_id, records)
            self.force_log()
            self._crashed = False
            self.metrics.incr("mono.recoveries")
            return {"rssp": rssp, "redo": redone, "undo": undone}

    def _analyze(self):
        """The last checkpoint's RSSP, each table's root as the log left it,
        each transaction's changes and CLRs in log order, and the
        transactions that committed and that ended."""
        rssp: Lsn = NULL_LSN
        roots: dict[str, int] = {}
        changes: dict[int, list[MonoUpdate]] = {}
        committed: set[int] = set()
        ended: set[int] = set()
        for record in self._log:
            if isinstance(record, MonoCheckpoint):
                rssp = record.rssp
            elif isinstance(record, MonoSmo) and record.root_change is not None:
                table, new_root = record.root_change
                roots[table] = new_root
            elif isinstance(record, MonoUpdate):
                changes.setdefault(record.txn_id, []).append(record)
            elif isinstance(record, MonoCommit):
                committed.add(record.txn_id)
            elif isinstance(record, MonoEnd):
                ended.add(record.txn_id)
        return rssp, roots, changes, committed, ended

    def _redo(self, rssp: Lsn) -> int:
        """Repeat history: every record (user + SMO) in original order."""
        redone = 0
        for record in self._log:
            if record.lsn < rssp:
                continue
            with self.buffer.operation():
                if isinstance(record, MonoSmo):
                    redone += self._redo_smo(record)
                elif isinstance(record, MonoUpdate):
                    leaf = self.buffer.fetch(record.page_id)
                    if leaf is not None and not self._reflects(leaf, record.lsn):
                        self._apply(leaf, record)  # type: ignore[arg-type]
                        redone += 1
        return redone

    def _reflects(self, page: Optional[Page], lsn: Lsn) -> bool:
        """The classic pageLSN test; a page that passes is counted."""
        if page is None or page.page_lsn < lsn:
            return False
        self.metrics.incr("mono.redo_skipped")
        return True

    def _redo_smo(self, record: MonoSmo) -> int:
        count = 0
        for image in record.images:
            if not self._reflects(self.buffer.fetch(image.page_id), record.lsn):
                self.buffer.register(image.materialize())
                count += 1
        if record.split is not None:
            page_id, split_key = record.split
            old = self.buffer.fetch(page_id)
            if old is not None and not self._reflects(old, record.lsn):
                old.extract_from(split_key)  # type: ignore[attr-defined]
                old.page_lsn = record.lsn
                count += 1
        for page_id in record.freed:
            self.buffer.discard(page_id)
            self.storage.free_page(page_id)
        return count

    def _undo_loser(self, txn_id: int, records: list[MonoUpdate]) -> int:
        """Roll back what a rollback cut short left undone: the changes at
        or below the last CLR's ``undo_next``, newest first."""
        clrs = [record for record in records if isinstance(record, MonoCompensation)]
        resume = clrs[-1].undo_next if clrs else None
        to_undo = [
            record
            for record in reversed(records)
            if not isinstance(record, MonoCompensation)
            and (resume is None or record.lsn <= resume)
        ]
        self._rollback(txn_id, to_undo)
        self._append(MonoEnd, txn_id)
        return len(to_undo)

    # -- introspection --------------------------------------------------------------------------------------

    def record_count(self, table: str) -> int:
        return self.tree(table).record_count()
