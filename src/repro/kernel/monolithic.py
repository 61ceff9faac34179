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

Because locking happens *inside* the engine with the page at hand, the
baseline needs no probe messages, no read-before-write for undo info, and
no messages at all — the integration advantages the paper concedes, which
the benchmarks quantify against unbundling's flexibility.
"""

from __future__ import annotations

import bisect
import itertools
import threading
from dataclasses import dataclass
from typing import Optional

from repro.common.config import DcConfig, TcConfig
from repro.common.errors import (
    CrashedError,
    DuplicateKeyError,
    NoSuchRecordError,
    PageOverflowError,
    ReproError,
    TransactionAborted,
)
from repro.common.lsn import Lsn, LsnGenerator, NULL_LSN
from repro.common.records import Key, Value, VersionedRecord, sizeof_key, sizeof_value
from repro.obs.tracing import NULL_TRACER
from repro.sim.metrics import Metrics
from repro.storage.page import InnerPage, LeafPage, Page, PageImage
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
class MonoCompensation(MonoLogRecord):
    """CLR: redo-only inverse applied during rollback."""

    page_id: int = 0
    action: str = ""
    table: str = ""
    key: Key = None
    value: Value = None
    undo_next: Lsn = NULL_LSN

    def encoded_size(self) -> int:
        return super().encoded_size() + 16 + sizeof_key(self.key) + sizeof_value(self.value)


@dataclass(frozen=True)
class MonoSplit(MonoLogRecord):
    """A structure modification: physiological, redone in original order.

    The pre-split leaf is logged logically (split key); every other page
    the SMO touched (new leaf, parents, new inner pages, a new root) is
    carried as a physical image — the SQL-Server-style system transaction
    the paper's Section 5.2.1 describes, inlined in the single log.
    """

    page_id: int = 0  # the pre-split page
    split_key: Key = None
    images: tuple[PageImage, ...] = ()
    root_change: Optional[tuple[str, int]] = None

    def encoded_size(self) -> int:
        size = super().encoded_size() + 16 + sizeof_key(self.split_key)
        size += sum(image.encoded_size() for image in self.images)
        return size


@dataclass(frozen=True)
class MonoMerge(MonoLogRecord):
    target_image: Optional[PageImage] = None
    victim_id: int = 0
    parent_image: Optional[PageImage] = None
    root_change: Optional[tuple[str, int]] = None

    def encoded_size(self) -> int:
        size = super().encoded_size() + 16
        if self.target_image is not None:
            size += self.target_image.encoded_size()
        if self.parent_image is not None:
            size += self.parent_image.encoded_size()
        return size


@dataclass(frozen=True)
class MonoCreate(MonoLogRecord):
    table: str = ""
    root_image: Optional[PageImage] = None

    def encoded_size(self) -> int:
        size = super().encoded_size() + sizeof_key(self.table)
        if self.root_image is not None:
            size += self.root_image.encoded_size()
        return size


@dataclass(frozen=True)
class MonoCommit(MonoLogRecord):
    pass


@dataclass(frozen=True)
class MonoAbort(MonoLogRecord):
    pass


@dataclass(frozen=True)
class MonoEnd(MonoLogRecord):
    pass


@dataclass(frozen=True)
class MonoCheckpoint(MonoLogRecord):
    rssp: Lsn = NULL_LSN
    roots: Optional[dict] = None


#: The monolithic handle's states are the unbundled handle's.
MonoTxnState = TransactionState


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
        self._lsns = LsnGenerator()
        self._log: list[MonoLogRecord] = []
        self._stable_count = 0
        self._stable_pages: dict[int, PageImage] = {}
        self._cache: dict[int, Page] = {}
        self._roots: dict[str, int] = {}
        self._next_page_id = 1
        self._txn_ids = itertools.count(1)
        self._crashed = False
        self._mutex = threading.RLock()

    # -- log plumbing -----------------------------------------------------------

    def _append(self, build) -> MonoLogRecord:
        record = build(self._lsns.next())
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
        return self._log[-1].lsn if self._log else NULL_LSN

    @property
    def stable_lsn(self) -> Lsn:
        if self._stable_count == 0:
            return NULL_LSN
        return self._log[self._stable_count - 1].lsn

    # -- pages -----------------------------------------------------------------------

    def _allocate_page_id(self) -> int:
        page_id = self._next_page_id
        self._next_page_id += 1
        return page_id

    def _fetch(self, page_id: int) -> Page:
        page = self._cache.get(page_id)
        if page is not None:
            self.metrics.incr("mono.cache_hits")
            return page
        image = self._stable_pages.get(page_id)
        if image is None:
            raise ReproError(f"monolithic: page {page_id} missing")
        self.metrics.incr("mono.cache_misses")
        page = image.materialize()
        self._cache[page_id] = page
        return page

    def _flush_page(self, page: Page) -> None:
        """Classic WAL: the log must be stable past the page LSN first."""
        if page.page_lsn > self.stable_lsn:
            self.force_log()
        self._stable_pages[page.page_id] = page.snapshot()
        page.dirty = False
        self.metrics.incr("mono.page_flushes")

    def flush_all(self) -> None:
        for page in list(self._cache.values()):
            if page.dirty:
                self._flush_page(page)

    # -- schema -------------------------------------------------------------------------

    def create_table(self, name: str) -> None:
        self._check_up()
        with self._mutex:
            if name in self._roots:
                raise ReproError(f"table {name!r} already exists")
            root = LeafPage(self._allocate_page_id())
            record = self._append(
                lambda lsn: MonoCreate(
                    lsn=lsn, txn_id=0, table=name, root_image=root.snapshot()
                )
            )
            root.page_lsn = record.lsn
            root.dirty = True
            self._cache[root.page_id] = root
            self._roots[name] = root.page_id
            self.force_log()

    def table_names(self) -> list[str]:
        return sorted(self._roots)

    # -- descend / structure ----------------------------------------------------------------

    def _descend(self, table: str, key: Key) -> tuple[LeafPage, list[InnerPage]]:
        root_id = self._roots.get(table)
        if root_id is None:
            raise ReproError(f"unknown table {table!r}")
        path: list[InnerPage] = []
        page = self._fetch(root_id)
        while isinstance(page, InnerPage):
            path.append(page)
            index = bisect.bisect_right(page.separators, key)
            page = self._fetch(page.children[index])
        assert isinstance(page, LeafPage)
        return page, path

    def _split_leaf(self, table: str, leaf: LeafPage, path: list[InnerPage]) -> None:
        """SMO logged inline; redo happens in original order (Section 5.2.1)."""
        split_key = leaf.choose_split_key()
        new_leaf = LeafPage(self._allocate_page_id())
        new_leaf.absorb(leaf.extract_from(split_key))
        self._cache[new_leaf.page_id] = new_leaf
        changed: list[Page] = [new_leaf]
        root_change = self._post_to_parent(
            table, path, split_key, new_leaf.page_id, changed
        )
        record = self._append(
            lambda lsn: MonoSplit(
                lsn=lsn,
                txn_id=0,
                page_id=leaf.page_id,
                split_key=split_key,
                images=tuple(page.snapshot() for page in changed),
                root_change=root_change,
            )
        )
        for page in [leaf, *changed]:
            page.page_lsn = record.lsn
            page.dirty = True
        # Re-snapshot now that page LSNs are final (nothing forced between).
        self._log[-1] = MonoSplit(
            lsn=record.lsn,
            txn_id=0,
            page_id=leaf.page_id,
            split_key=split_key,
            images=tuple(page.snapshot() for page in changed),
            root_change=root_change,
        )
        self.metrics.incr("mono.splits")

    def _post_to_parent(
        self,
        table: str,
        path: list[InnerPage],
        separator: Key,
        right_id: int,
        changed: list[Page],
    ) -> Optional[tuple[str, int]]:
        """Insert the new separator, splitting inner pages as needed.

        Returns the root change (if the tree grew) and appends every page
        this touched to ``changed`` for physical logging.
        """
        if not path:
            old_root = self._roots[table]
            new_root = InnerPage(self._allocate_page_id())
            new_root.separators = [separator]
            new_root.children = [old_root, right_id]
            self._cache[new_root.page_id] = new_root
            self._roots[table] = new_root.page_id
            changed.append(new_root)
            return (table, new_root.page_id)
        parent = path[-1]
        parent.insert_child(separator, right_id)
        changed.append(parent)
        if parent.fits(0, self.config.page_size):
            return None
        mid = len(parent.separators) // 2
        promoted = parent.separators[mid]
        right_inner = InnerPage(self._allocate_page_id())
        right_inner.separators = parent.separators[mid + 1 :]
        right_inner.children = parent.children[mid + 1 :]
        del parent.separators[mid:]
        del parent.children[mid + 1 :]
        self._cache[right_inner.page_id] = right_inner
        changed.append(right_inner)
        return self._post_to_parent(
            table, path[:-1], promoted, right_inner.page_id, changed
        )

    def _maybe_consolidate(self, table: str, key_hint: Key) -> None:
        leaf, path = self._descend(table, key_hint)
        if not path:
            return
        if leaf.fill_fraction(self.config.page_size) >= self.config.min_fill:
            return
        parent = path[-1]
        index = parent.child_index(leaf.page_id)
        if index > 0:
            target = self._fetch(parent.children[index - 1])
            victim: Page = leaf
        elif index + 1 < len(parent.children):
            target = leaf
            victim = self._fetch(parent.children[index + 1])
        else:
            return
        if not isinstance(target, LeafPage) or not isinstance(victim, LeafPage):
            return
        payload = sum(r.encoded_size() for r in victim.records_in_order())
        if not target.fits(payload, self.config.page_size):
            return
        target.absorb(victim.records_in_order())
        parent.remove_child(victim.page_id)
        root_change: Optional[tuple[str, int]] = None
        if parent.page_id == self._roots[table] and len(parent.children) == 1:
            self._roots[table] = parent.children[0]
            root_change = (table, parent.children[0])
        record = self._append(
            lambda lsn: MonoMerge(
                lsn=lsn,
                txn_id=0,
                target_image=None,  # filled below once page_lsn is set
                victim_id=victim.page_id,
                parent_image=None,
                root_change=root_change,
            )
        )
        target.page_lsn = record.lsn
        parent.page_lsn = record.lsn
        target.dirty = True
        parent.dirty = True
        # Replace the staged record with complete images (atomic append is
        # preserved: nothing was forced in between).
        self._log[-1] = MonoMerge(
            lsn=record.lsn,
            txn_id=0,
            target_image=target.snapshot(),
            victim_id=victim.page_id,
            parent_image=parent.snapshot(),
            root_change=root_change,
        )
        self._cache.pop(victim.page_id, None)
        self._stable_pages.pop(victim.page_id, None)
        self.metrics.incr("mono.merges")

    # -- record operations --------------------------------------------------------------------

    def begin(self) -> MonoTransaction:
        self._check_up()
        txn = MonoTransaction(self, next(self._txn_ids))
        self.metrics.incr("mono.begins")
        return txn

    def _check_up(self) -> None:
        if self._crashed:
            raise CrashedError("monolithic engine")

    def _lock_record(self, txn: MonoTransaction, table: str, key: Key, mode: LockMode) -> None:
        try:
            self.locks.acquire(
                txn.txn_id,
                ("table", table),
                LockMode.IS if mode is LockMode.S else LockMode.IX,
            )
            self.locks.acquire(txn.txn_id, ("rec", table, key), mode)
        except TransactionAborted:
            self.abort(txn)
            raise

    def _lock_gap_above(self, txn: MonoTransaction, table: str, key: Key, mode: LockMode) -> None:
        """Key-range (next-key) locking done *inside* the engine: the
        successor is read straight off the pages — no probe messages."""
        successor = self._successor(table, key)
        guard: object = successor if successor is not None else "<END>"
        try:
            self.locks.acquire(txn.txn_id, ("gap", table, guard), mode)
        except TransactionAborted:
            self.abort(txn)
            raise
        self.metrics.incr("mono.gap_locks")

    def _descend_with_bound(
        self, table: str, key: Key
    ) -> tuple[LeafPage, Optional[Key]]:
        """Leaf for ``key`` plus the upper bound of its key range."""
        root_id = self._roots.get(table)
        if root_id is None:
            raise ReproError(f"unknown table {table!r}")
        upper: Optional[Key] = None
        page = self._fetch(root_id)
        while isinstance(page, InnerPage):
            index = bisect.bisect_right(page.separators, key)
            if index < len(page.separators):
                upper = page.separators[index]
            page = self._fetch(page.children[index])
        assert isinstance(page, LeafPage)
        return page, upper

    def _successor(self, table: str, key: Key) -> Optional[Key]:
        leaf, upper = self._descend_with_bound(table, key)
        while True:
            for candidate in leaf.keys_after(key):
                return candidate
            if upper is None:
                return None
            # Keys in the next leaf are all above `upper` > `key`.
            leaf, upper = self._descend_with_bound(table, upper)

    def do_insert(self, txn: MonoTransaction, table: str, key: Key, value: Value) -> None:
        self._check_up()
        txn._check_active()
        with self._mutex:
            self._lock_record(txn, table, key, LockMode.X)
            self._lock_gap_above(txn, table, key, LockMode.X)
            leaf, path = self._descend(table, key)
            existing = leaf.get(key)
            if existing is not None and existing.committed is not None:
                raise DuplicateKeyError(table, key)
            record_obj = VersionedRecord(key=key, committed=value)
            if not leaf.fits(record_obj.encoded_size(), self.config.page_size):
                self._split_leaf(table, leaf, path)
                leaf, path = self._descend(table, key)
            log_rec = self._append(
                lambda lsn: MonoUpdate(
                    lsn=lsn,
                    txn_id=txn.txn_id,
                    page_id=leaf.page_id,
                    action="insert",
                    table=table,
                    key=key,
                    value=value,
                )
            )
            with leaf.latch:
                self.metrics.incr("mono.latches")
                leaf.put(record_obj)
                leaf.page_lsn = log_rec.lsn
                leaf.dirty = True
            txn.undo_chain.append(log_rec)  # type: ignore[arg-type]
            self.metrics.incr("mono.mutations")

    def do_update(self, txn: MonoTransaction, table: str, key: Key, value: Value) -> None:
        self._check_up()
        txn._check_active()
        with self._mutex:
            self._lock_record(txn, table, key, LockMode.X)
            leaf, path = self._descend(table, key)
            existing = leaf.get(key)
            if existing is None or existing.committed is None:
                raise NoSuchRecordError(table, key)
            prior = existing.committed
            new_rec = existing.set_committed(value)
            delta = new_rec.encoded_size() - existing.encoded_size()
            if not leaf.fits(delta, self.config.page_size):
                self._split_leaf(table, leaf, path)
                leaf, path = self._descend(table, key)
            log_rec = self._append(
                lambda lsn: MonoUpdate(
                    lsn=lsn,
                    txn_id=txn.txn_id,
                    page_id=leaf.page_id,
                    action="update",
                    table=table,
                    key=key,
                    value=value,
                    prior=prior,
                )
            )
            with leaf.latch:
                self.metrics.incr("mono.latches")
                leaf.put(new_rec)
                leaf.page_lsn = log_rec.lsn
                leaf.dirty = True
            txn.undo_chain.append(log_rec)  # type: ignore[arg-type]
            self.metrics.incr("mono.mutations")

    def do_delete(self, txn: MonoTransaction, table: str, key: Key) -> None:
        self._check_up()
        txn._check_active()
        with self._mutex:
            self._lock_record(txn, table, key, LockMode.X)
            self._lock_gap_above(txn, table, key, LockMode.X)
            leaf, _path = self._descend(table, key)
            existing = leaf.get(key)
            if existing is None or existing.committed is None:
                raise NoSuchRecordError(table, key)
            prior = existing.committed
            log_rec = self._append(
                lambda lsn: MonoUpdate(
                    lsn=lsn,
                    txn_id=txn.txn_id,
                    page_id=leaf.page_id,
                    action="delete",
                    table=table,
                    key=key,
                    prior=prior,
                )
            )
            with leaf.latch:
                self.metrics.incr("mono.latches")
                leaf.remove(key)
                leaf.page_lsn = log_rec.lsn
                leaf.dirty = True
            txn.undo_chain.append(log_rec)  # type: ignore[arg-type]
            self._maybe_consolidate(table, key)
            self.metrics.incr("mono.mutations")

    def do_increment(
        self, txn: MonoTransaction, table: str, key: Key, delta: float
    ) -> None:
        """Parity with the unbundled kernel's logical increment."""
        self._check_up()
        txn._check_active()
        with self._mutex:
            self._lock_record(txn, table, key, LockMode.X)
            leaf, _path = self._descend(table, key)
            existing = leaf.get(key)
            if existing is None or existing.committed is None:
                raise NoSuchRecordError(table, key)
            current = existing.committed
            if not isinstance(current, (int, float)) or isinstance(current, bool):
                raise ReproError(f"record {key!r} is not numeric")
            new_rec = existing.set_committed(current + delta)
            log_rec = self._append(
                lambda lsn: MonoUpdate(
                    lsn=lsn,
                    txn_id=txn.txn_id,
                    page_id=leaf.page_id,
                    action="update",
                    table=table,
                    key=key,
                    value=current + delta,
                    prior=current,
                )
            )
            with leaf.latch:
                self.metrics.incr("mono.latches")
                leaf.put(new_rec)
                leaf.page_lsn = log_rec.lsn
                leaf.dirty = True
            txn.undo_chain.append(log_rec)  # type: ignore[arg-type]
            self.metrics.incr("mono.mutations")

    def do_read(self, txn: MonoTransaction, table: str, key: Key) -> Optional[Value]:
        self._check_up()
        txn._check_active()
        with self._mutex:
            self._lock_record(txn, table, key, LockMode.S)
            leaf, _path = self._descend(table, key)
            with leaf.latch:
                self.metrics.incr("mono.latches")
                record = leaf.get(key)
                self.metrics.incr("mono.reads")
                return record.committed if record is not None else None

    def do_scan(
        self,
        txn: MonoTransaction,
        table: str,
        low: Optional[Key],
        high: Optional[Key],
        limit: Optional[int],
    ) -> list[tuple[Key, Value]]:
        """Integrated key-range locking: lock keys as pages are walked."""
        self._check_up()
        txn._check_active()
        with self._mutex:
            try:
                self.locks.acquire(txn.txn_id, ("table", table), LockMode.IS)
            except TransactionAborted:
                self.abort(txn)
                raise
            results: list[tuple[Key, Value]] = []
            leaf, _path = self._descend(table, low) if low is not None else (
                self._leftmost(table),
                [],
            )
            cursor = low
            while True:
                with leaf.latch:
                    self.metrics.incr("mono.latches")
                    for record in leaf.range(cursor, high):
                        self._lock_record(txn, table, record.key, LockMode.S)
                        self.locks.acquire(
                            txn.txn_id, ("gap", table, record.key), LockMode.S
                        )
                        self.metrics.incr("mono.gap_locks")
                        if record.committed is None:
                            continue
                        results.append((record.key, record.committed))
                        if limit is not None and len(results) >= limit:
                            return results
                    last = leaf.max_key()
                if last is None or (high is not None and last > high):
                    break
                nxt = self._successor(table, last)
                if nxt is None or (high is not None and nxt > high):
                    break
                cursor = nxt
                leaf, _path = self._descend(table, nxt)
            boundary = self._successor(table, high) if high is not None else None
            guard: object = boundary if boundary is not None else "<END>"
            self.locks.acquire(txn.txn_id, ("gap", table, guard), LockMode.S)
            self.metrics.incr("mono.gap_locks")
            self.metrics.incr("mono.scans")
            return results

    def _leftmost(self, table: str) -> LeafPage:
        page = self._fetch(self._roots[table])
        while isinstance(page, InnerPage):
            page = self._fetch(page.children[0])
        assert isinstance(page, LeafPage)
        return page

    # -- commit / abort ---------------------------------------------------------------------------

    def commit(self, txn: MonoTransaction) -> None:
        self._check_up()
        txn._check_active()
        with self._mutex:
            self._append(lambda lsn: MonoCommit(lsn=lsn, txn_id=txn.txn_id))
            self.force_log()
            self._append(lambda lsn: MonoEnd(lsn=lsn, txn_id=txn.txn_id))
        self.locks.release_all(txn.txn_id)
        txn.state = MonoTxnState.COMMITTED
        self.metrics.incr("mono.commits")

    def abort(self, txn: MonoTransaction) -> None:
        self._check_up()
        if txn.state is not MonoTxnState.ACTIVE:
            return
        with self._mutex:
            self._append(lambda lsn: MonoAbort(lsn=lsn, txn_id=txn.txn_id))
            self._rollback(txn.txn_id, list(reversed(txn.undo_chain)))
            self._append(lambda lsn: MonoEnd(lsn=lsn, txn_id=txn.txn_id))
        self.locks.release_all(txn.txn_id)
        txn.state = MonoTxnState.ABORTED
        self.metrics.incr("mono.aborts")

    def _rollback(self, txn_id: int, to_undo: list[MonoUpdate]) -> None:
        for index, record in enumerate(to_undo):
            undo_next = to_undo[index + 1].lsn if index + 1 < len(to_undo) else NULL_LSN
            self._apply_inverse(txn_id, record, undo_next)

    def _apply_inverse(self, txn_id: int, record: MonoUpdate, undo_next: Lsn) -> None:
        leaf, _path = self._descend(record.table, record.key)
        if record.action == "insert":
            action, value = "delete", None
        elif record.action == "delete":
            action, value = "insert", record.prior
        else:
            action, value = "update", record.prior
        clr = self._append(
            lambda lsn: MonoCompensation(
                lsn=lsn,
                txn_id=txn_id,
                page_id=leaf.page_id,
                action=action,
                table=record.table,
                key=record.key,
                value=value,
                undo_next=undo_next,
            )
        )
        with leaf.latch:
            self.metrics.incr("mono.latches")
            self._apply_action(leaf, action, record.key, value)
            leaf.page_lsn = clr.lsn
        self.metrics.incr("mono.undo_ops")

    @staticmethod
    def _apply_action(leaf: LeafPage, action: str, key: Key, value: Value) -> None:
        if action == "insert":
            leaf.put(VersionedRecord(key=key, committed=value))
        elif action == "delete":
            leaf.remove(key)
        else:
            existing = leaf.get(key)
            leaf.put((existing or VersionedRecord(key)).set_committed(value))

    # -- checkpoint -------------------------------------------------------------------------------------

    def checkpoint(self) -> None:
        self._check_up()
        with self._mutex:
            self.force_log()
            self.flush_all()
            rssp = self._lsns.last + 1
            self._append(
                lambda lsn: MonoCheckpoint(
                    lsn=lsn, txn_id=0, rssp=rssp, roots=dict(self._roots)
                )
            )
            self.force_log()
            self.metrics.incr("mono.checkpoints")

    # -- crash / recovery ----------------------------------------------------------------------------------

    def crash(self) -> int:
        """Monolithic failure is never partial: log tail, cache and lock
        table all vanish together (Section 5.3.1)."""
        self._crashed = True
        lost = len(self._log) - self._stable_count
        del self._log[self._stable_count :]
        self._cache.clear()
        self.locks.clear()
        self.metrics.incr("mono.crashes")
        return lost

    def recover(self) -> dict[str, int]:
        """ARIES-style: analysis, repeat-history redo (page-LSN test), undo."""
        with self._mutex:
            self._lsns.advance_to(self._log[-1].lsn if self._log else NULL_LSN)
            self._recover_page_allocator()
            rssp, roots, txns = self._analyze()
            if roots is not None:
                self._roots = dict(roots)
            redone = self._redo(rssp)
            undone = 0
            for txn_id, info in txns.items():
                if info["ended"] or info["committed"]:
                    if not info["ended"]:
                        self._append(lambda lsn, t=txn_id: MonoEnd(lsn=lsn, txn_id=t))
                    continue
                undone += self._undo_loser(txn_id, info)
            self.force_log()
            self._crashed = False
            self.metrics.incr("mono.recoveries")
            return {"rssp": rssp, "redo": redone, "undo": undone}

    def _recover_page_allocator(self) -> None:
        top = max(self._stable_pages, default=0)
        for record in self._log:
            if isinstance(record, MonoCreate) and record.root_image is not None:
                top = max(top, record.root_image.page_id)
            elif isinstance(record, MonoSplit):
                for image in record.images:
                    top = max(top, image.page_id)
            elif isinstance(record, MonoMerge) and record.target_image is not None:
                top = max(top, record.target_image.page_id)
        if top >= self._next_page_id:
            self._next_page_id = top + 1

    def _analyze(self):
        rssp: Lsn = NULL_LSN
        roots: Optional[dict] = None
        txns: dict[int, dict] = {}
        self._roots = {}
        for record in self._log:
            if isinstance(record, MonoCheckpoint):
                rssp = record.rssp
                roots = record.roots
            elif isinstance(record, MonoCreate):
                assert record.root_image is not None
                self._roots[record.table] = record.root_image.page_id
            elif isinstance(record, (MonoSplit, MonoMerge)):
                if record.root_change is not None:
                    table, new_root = record.root_change
                    self._roots[table] = new_root
            info = txns.setdefault(
                record.txn_id,
                {"ops": [], "clrs": [], "committed": False, "ended": False},
            )
            if isinstance(record, MonoUpdate):
                info["ops"].append(record)
            elif isinstance(record, MonoCompensation):
                info["clrs"].append(record)
            elif isinstance(record, MonoCommit):
                info["committed"] = True
            elif isinstance(record, MonoEnd):
                info["ended"] = True
        if roots is not None:
            merged = dict(roots)
            merged.update(self._roots)
            roots = merged
        else:
            roots = dict(self._roots)
        return rssp, roots, {t: i for t, i in txns.items() if t != 0}

    def _redo(self, rssp: Lsn) -> int:
        """Repeat history: every record (user + SMO) in original order."""
        redone = 0
        for record in self._log:
            if record.lsn < rssp:
                continue
            if isinstance(record, MonoCreate):
                assert record.root_image is not None
                page = self._fetch_for_redo(record.root_image.page_id)
                if page is None:
                    page = record.root_image.materialize()
                    page.dirty = True
                    self._cache[record.root_image.page_id] = page
                    redone += 1
            elif isinstance(record, MonoSplit):
                redone += self._redo_split(record)
            elif isinstance(record, MonoMerge):
                redone += self._redo_merge(record)
            elif isinstance(record, (MonoUpdate, MonoCompensation)):
                leaf = self._fetch_for_redo(record.page_id)
                if leaf is None or not isinstance(leaf, LeafPage):
                    continue
                if record.lsn <= leaf.page_lsn:
                    self.metrics.incr("mono.redo_skipped")
                    continue  # the classic pageLSN idempotence test
                self._apply_action(leaf, record.action, record.key, record.value)
                leaf.page_lsn = record.lsn
                leaf.dirty = True
                redone += 1
        return redone

    def _fetch_for_redo(self, page_id: int) -> Optional[Page]:
        page = self._cache.get(page_id)
        if page is not None:
            return page
        image = self._stable_pages.get(page_id)
        if image is None:
            return None
        page = image.materialize()
        self._cache[page_id] = page
        return page

    def _redo_split(self, record: MonoSplit) -> int:
        count = 0
        for image in record.images:
            page = self._fetch_for_redo(image.page_id)
            if page is None or page.page_lsn < record.lsn:
                page = image.materialize()
                page.dirty = True
                self._cache[image.page_id] = page
                count += 1
        old = self._fetch_for_redo(record.page_id)
        if old is not None and isinstance(old, LeafPage) and old.page_lsn < record.lsn:
            old.extract_from(record.split_key)
            old.page_lsn = record.lsn
            count += 1
        return count

    def _redo_merge(self, record: MonoMerge) -> int:
        assert record.target_image is not None and record.parent_image is not None
        count = 0
        target = self._fetch_for_redo(record.target_image.page_id)
        if target is None or target.page_lsn < record.lsn:
            target = record.target_image.materialize()
            target.dirty = True
            self._cache[record.target_image.page_id] = target
            count += 1
        parent = self._fetch_for_redo(record.parent_image.page_id)
        if parent is None or parent.page_lsn < record.lsn:
            parent = record.parent_image.materialize()
            parent.dirty = True
            self._cache[record.parent_image.page_id] = parent
            count += 1
        self._cache.pop(record.victim_id, None)
        self._stable_pages.pop(record.victim_id, None)
        return count

    def _undo_loser(self, txn_id: int, info: dict) -> int:
        clrs: list[MonoCompensation] = info["clrs"]
        resume: Optional[Lsn] = clrs[-1].undo_next if clrs else None
        to_undo = [
            record
            for record in info["ops"]
            if resume is None or record.lsn <= resume
        ]
        to_undo.sort(key=lambda record: record.lsn, reverse=True)
        self._rollback(txn_id, to_undo)
        self._append(lambda lsn: MonoEnd(lsn=lsn, txn_id=txn_id))
        return len(to_undo)

    # -- introspection --------------------------------------------------------------------------------------

    def record_count(self, table: str) -> int:
        count = 0
        stack = [self._roots[table]]
        while stack:
            page = self._fetch(stack.pop())
            if isinstance(page, InnerPage):
                stack.extend(page.children)
            else:
                assert isinstance(page, LeafPage)
                count += page.record_count()
        return count

    @property
    def crashed(self) -> bool:
        return self._crashed
