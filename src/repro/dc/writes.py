"""Writes and versions: every record change the DC makes, in two stages.

:class:`Writes` runs a write in one pass under its leaf's latch: the abLSN
test that makes it exactly-once (Section 5.1), what the operation does to
the slot — a plain function from :data:`_MUTATORS` —, the size delta, the
put (or a split first) and the LSN into the abLSN.

A TC that does not know a key's value asks for the overwritten one
(``want_prior``) to complete its logged undo information.  Each such
before-image is kept until the TC's low-water mark says the reply arrived,
so an exactly-once answer to a resend still carries it, and a log-force
prompt brings along those the TC may still be missing.

:class:`Versions` owns the snapshot extension's DC-local commit clock
(Section 6.2): a version cleanup promotes a transaction's pending writes
under one clock value — so snapshots are transaction-consistent per DC —
or discards them, writing each key the same way.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Union

from repro.common.api import WatermarkReply, WatermarkRequest
from repro.common.lsn import Lsn
from repro.common.ops import (
    DeleteOp,
    DiscardVersionsOp,
    IncrementOp,
    InsertOp,
    LogicalOperation,
    OpResult,
    OpStatus,
    PromoteVersionsOp,
    UpdateOp,
)
from repro.common.records import TOMBSTONE, VersionedRecord, size_change
from repro.sim import schedule as _sched
from repro.storage.page import LeafPage

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dc.data_component import DataComponent, Structure, TableHandle


# -- record mutators ---------------------------------------------------------------
#
# What a write does to its slot: ``mutator(old, arg, tc_id, versioned,
# want_prior) -> (result, new)``, ``arg`` being the operation, or for a
# version cleanup ``(commit_seq, keep, prune_floor)``; ``new`` is the record
# to put, None to empty the slot, or ``old`` itself for a rejection.
# :meth:`Writes.write` sizes, puts and stamps what it returns.

Mutator = Callable[..., tuple[OpResult, Optional[VersionedRecord]]]
_OK = OpResult.okay()


def _insert(old, op, tc_id, versioned, want_prior):
    if old is not None and old.exists_for(False):
        return OpResult.duplicate(f"key {op.key!r} already exists in {op.table!r}"), old
    record = old if old is not None else VersionedRecord(key=op.key)
    # "insert two versions, a before 'null' version followed by the
    # intended insert" (Section 6.2.2).
    derive = record.set_pending if versioned else record.set_committed
    return _OK, derive(op.value, tc_id)


def _update(old, op, tc_id, versioned, want_prior):
    if old is None or not old.exists_for(False):
        return OpResult.not_found(f"no record {op.key!r} in {op.table!r}"), old
    result = OpResult.okay(prior=old.visible_value(False)) if want_prior else _OK
    derive = old.set_pending if versioned else old.set_committed
    return result, derive(op.value, tc_id)


def _delete(old, op, tc_id, versioned, want_prior):
    if old is None or not old.exists_for(False):
        return OpResult.not_found(f"no record {op.key!r} in {op.table!r}"), old
    result = OpResult.okay(prior=old.visible_value(False)) if want_prior else _OK
    if versioned:
        return result, old.set_pending(TOMBSTONE, tc_id)
    return result, None  # physical removal


def _increment(old, op, tc_id, versioned, want_prior):
    if old is None or not old.exists_for(False):
        return OpResult.not_found(f"no record {op.key!r} in {op.table!r}"), old
    current = old.visible_value(False)
    if not isinstance(current, (int, float)) or isinstance(current, bool):
        return OpResult.error(f"record {op.key!r} is not numeric"), old
    updated = current + op.delta
    derive = old.set_pending if versioned else old.set_committed
    return OpResult.okay(value=updated), derive(updated, tc_id)


def _promote(old, versions, tc_id, versioned, want_prior):
    if old is None:
        return _OK, None
    commit_seq, keep, prune_floor = versions
    new = old.promote_pending(commit_seq=commit_seq, keep_history=keep)
    if prune_floor is not None:
        new = new.prune_history(prune_floor)
    return _OK, None if new.is_dead() else new


def _discard(old, versions, tc_id, versioned, want_prior):
    if old is None:
        return _OK, None
    new = old.discard_pending()
    return _OK, None if new.is_dead() else new


_MUTATORS: dict[type, Mutator] = {
    InsertOp: _insert,
    UpdateOp: _update,
    DeleteOp: _delete,
    IncrementOp: _increment,
    PromoteVersionsOp: _promote,
    DiscardVersionsOp: _discard,
}


class Writes:
    """The write path and the before-images kept for resends."""

    def __init__(self, dc: "DataComponent") -> None:
        self._dc = dc
        self._config = dc.config
        self._latches = dc.metrics.counter("dc.latches")
        #: Before-images per TC by operation id, in memory only: a crash
        #: or TC reset that loses them loses the operations' effects too.
        self._priors: dict[int, dict[Lsn, object]] = {}
        self._priors_lock = threading.Lock()

    def apply(
        self,
        handle: "TableHandle",
        tc_id: int,
        op_id: Lsn,
        op: LogicalOperation,
        want_prior: bool = False,
    ) -> OpResult:
        """One write: its mutator from :data:`_MUTATORS`, applied by
        :meth:`write`; a version cleanup goes to the versions stage."""
        if _sched.ACTIVE is not None:
            _sched.note_event(
                "dc.apply",
                self._dc.name,
                op=type(op).__name__,
                table=op.table,
                key=getattr(op, "key", None),
            )
        mutator = _MUTATORS.get(type(op))
        if mutator is None:
            return OpResult.error(f"unknown mutation {type(op).__name__}")
        if isinstance(op, (PromoteVersionsOp, DiscardVersionsOp)):
            return self._dc.versions.cleanup(handle, tc_id, op_id, op, mutator)
        versioned = handle.descriptor.versioned or op.versioned
        result, _leaf = self.write(
            handle.structure, op.key, tc_id, op_id, mutator, op, versioned, want_prior
        )
        if result is None:
            # Exactly-once: already reflected (a resend or a redo replay).
            # The before-image the first execution was asked for is still
            # here unless that reply demonstrably arrived (LWM passed it).
            self._dc.metrics.incr("dc.duplicate_ops")
            if want_prior:
                with self._priors_lock:
                    return OpResult.okay(prior=self._priors.get(tc_id, {}).get(op_id))
            return _OK
        if result.prior is not None:
            with self._priors_lock:
                self._priors.setdefault(tc_id, {})[op_id] = result.prior
        if mutator is _delete and not versioned and result.status is OpStatus.OK:
            handle.structure.maybe_consolidate(op.key)
        return result

    def write(
        self,
        structure: "Structure",
        key: object,
        tc_id: int,
        op_id: Lsn,
        mutator: Mutator,
        arg: object,
        versioned: bool = False,
        want_prior: bool = False,
    ) -> tuple[Optional[OpResult], LeafPage]:
        """Run ``mutator`` on ``key``'s slot under one hold of its leaf's
        latch: the abLSN test (a hit answers ``None``), the change, its
        size from the fields that changed, the put — or, when it does not
        fit, a split through ``ensure_room`` and the put on the leaf that
        returns — and the LSN into that leaf's abLSN on an OK result.
        ``op_id == 0`` leaves the test and the LSN to the caller.  Returns
        the result and the leaf holding the slot."""
        leaf = structure.find_leaf(key)
        with leaf.latch:
            if op_id:
                # ``leaf.ablsns`` inlined (a call less per write): catch up
                # to the low-water marks that arrived since it was observed.
                if leaf.marks_seen != leaf.marks.seq:
                    leaf.marks.catch_up(leaf)
                ablsn = leaf._ablsns.get(tc_id)
                if ablsn is None:
                    ablsn = leaf.ablsn_for(tc_id)  # new here: holds nothing
                elif ablsn.contains(op_id):
                    return None, leaf
            self._latches.value += 1
            old = leaf.get(key)
            result, new = mutator(old, arg, tc_id, versioned, want_prior)
            stamp = op_id and result.status is OpStatus.OK
            if new is None:
                if old is not None:
                    leaf.remove(key)
                    if stamp:
                        ablsn.include(op_id)
                return result, leaf
            # A mutator changes a record only when it succeeds (the owner
            # included), so a rejection puts ``old`` back: no size, no LSN.
            delta = size_change(old, new)
            if leaf.put(new, delta, self._config.page_size):
                if stamp:
                    ablsn.include(op_id)
                return result, leaf
        # Overflow: split (a system transaction), then put on the new leaf.
        leaf = structure.ensure_room(key, delta)
        with leaf.latch:
            self._latches.value += 1
            leaf.put(new)
            if stamp:
                leaf.ablsn_for(tc_id).include(op_id)
        return result, leaf

    # -- the kept before-images ------------------------------------------------------

    def images(self, tc_id: int, above: Lsn, through: Lsn) -> dict[Lsn, object]:
        """The images kept for ``tc_id``'s operations in ``(above, through]``."""
        with self._priors_lock:
            return {
                op_id: prior
                for op_id, prior in self._priors.get(tc_id, {}).items()
                if above < op_id <= through
            }

    def prune(self, tc_id: int, lwm: Lsn) -> None:
        """The TC has every reply at or below ``lwm``: those images arrived."""
        with self._priors_lock:
            priors = self._priors.get(tc_id)
            if priors:
                self._priors[tc_id] = {
                    op_id: prior for op_id, prior in priors.items() if op_id > lwm
                }

    def forget(self, tc_id: Optional[int] = None) -> None:
        """Drop one TC's images (its restart), or every TC's (a crash)."""
        with self._priors_lock:
            if tc_id is None:
                self._priors.clear()
            else:
                self._priors.pop(tc_id, None)


class Versions:
    """The commit clock, version cleanups and the snapshot floor."""

    def __init__(self, dc: "DataComponent") -> None:
        self._dc = dc
        self._config = dc.config
        self._lock = threading.Lock()
        self._clock = 0

    def snapshot_floor(self) -> int:
        """Oldest watermark still served under the retention horizon."""
        if self._config.snapshot_retention <= 0:
            return self._clock
        return max(0, self._clock - self._config.snapshot_retention)

    def watermark(self) -> int:
        return self._clock

    def on_watermark_request(self, message: WatermarkRequest) -> WatermarkReply:
        return WatermarkReply(
            tc_id=message.tc_id, watermark=self._clock, floor=self.snapshot_floor()
        )

    def cleanup(
        self,
        handle: "TableHandle",
        tc_id: int,
        op_id: Lsn,
        op: Union[PromoteVersionsOp, DiscardVersionsOp],
        mutator: Mutator,
    ) -> OpResult:
        """Promote/discard pending versions; per-record idempotent, so a
        mid-operation flush or crash re-applies harmlessly.  Each key's
        leaf takes the abLSN test here and the write gets no op_id: a leaf
        takes the LSN once every key is applied, so a second key on the
        same leaf is not taken for a resend."""
        structure = handle.structure
        write = self._dc.writes.write
        promote = isinstance(op, PromoteVersionsOp)
        touched: dict[int, LeafPage] = {}
        retention = self._config.snapshot_retention
        commit_seq = 0
        if promote:
            with self._lock:
                self._clock += 1
                commit_seq = self._clock
        keep = self._config.snapshot_max_versions if retention > 0 else 0
        prune_floor = max(0, self._clock - retention) if retention > 0 else None
        for key in op.keys:
            leaf = structure.find_leaf(key)
            if op_id and leaf.ablsn_for(tc_id).contains(op_id):
                continue
            versions = (commit_seq, keep, prune_floor)
            _result, leaf = write(structure, key, tc_id, 0, mutator, versions)
            touched[leaf.page_id] = leaf
        if op_id:
            for leaf in touched.values():
                with leaf.latch:
                    leaf.ablsn_for(tc_id).include(op_id)
                    leaf.dirty = True
        self._dc.metrics.incr("dc.version_promotes" if promote else "dc.version_discards")
        return OpResult.okay()

    def recover(self, handles: Iterable["TableHandle"]) -> None:
        """Resume the clock above every stamped version so per-record
        histories stay monotone across DC restarts (pre-crash snapshot
        watermarks themselves do not survive)."""
        for handle in handles:
            if handle.descriptor.versioned:
                for record in handle.structure.iter_range(None, None):
                    self._clock = max(self._clock, record.max_seq())
