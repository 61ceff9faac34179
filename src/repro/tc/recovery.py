"""TC restart: the client side of the ``restart`` contract (Section 4.2.1).

After a TC crash the stable log is the only surviving state.  Restart runs
the paper's sequence exactly:

1. **Reset** — tell every DC the largest stable LSN (LSNst); each DC
   discards (or record-level-resets, Section 6.1.2) cached state that
   reflects lost operations.  Causality guarantees nothing stable does.
2. **Redo** — resend every logged mutating operation from the redo scan
   start point onward, with its *original* LSN; DC abLSNs make the stream
   exactly-once (repeat history, logically).
3. **Undo** — submit inverse operations for loser transactions, newest
   first, resuming partially-rolled-back transactions from their last
   compensation record's ``undo_next``.  Versioned-table work is undone
   wholesale with an idempotent discard.
4. **Completion** — committed transactions missing their post-commit
   version cleanup get it re-issued; every finished transaction gets its
   end record; the log is forced and normal processing resumes.

:func:`resend_redo_stream` is also used alone when a *DC* crashes and
prompts the TC (Section 5.3.2 "DC Failure").
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.common.api import (
    BatchedPerform,
    EndOfStableLog,
    PerformOperation,
    RedoComplete,
    RestartBegin,
)
from repro.common.errors import CrashedError, ReproError, ResendExhaustedError
from repro.common.lsn import Lsn, NULL_LSN
from repro.common.ops import (
    DeleteOp,
    IncrementOp,
    InsertOp,
    OpStatus,
    PromoteVersionsOp,
    UpdateOp,
)
from repro.common.records import Key
from repro.storage.buffer import ResetMode
from repro.tc.log import (
    AbortRecord,
    CheckpointRecord,
    CommitRecord,
    CompensationRecord,
    OpRecord,
    TxnEndRecord,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.tc.transactional_component import TransactionalComponent


#: Operations per redo envelope, and envelopes in flight per DC.
_REDO_BATCH = 16
_REDO_WINDOW = 4


def resend_redo_stream(
    tc: "TransactionalComponent", dc_names: Optional[set[str]] = None
) -> int:
    """Resend logged mutations from the RSSP with their original LSNs.

    ``dc_names`` restricts the stream to operations routed at specific DCs
    (the DC-crash case); ``None`` replays to every DC (TC restart).
    Returns the number of operations resent.

    One pump serves every transport: each DC's stream leaves as
    :class:`BatchedPerform` redo envelopes of ``_REDO_BATCH`` operations,
    up to ``_REDO_WINDOW`` of them in flight per DC, so DC processes apply
    their streams concurrently while this one thread pays one send per
    envelope (an in-process channel delivers each envelope as it is
    collected).  Replies are collected in send order, and a DC handles
    its requests in arrival order, so per-DC LSN order — all abLSN
    idempotence requires — is kept.  A lost, partial or ``UNSTABLE``
    reply falls back to per-record :meth:`_perform`, which owns crash
    detection, the stability wait and the resend budget.  The pump is
    single-threaded, so fault-rule hits and schedule decisions stay a
    function of the seed.
    """
    # The whole log, not just its stable prefix: after a TC crash they are
    # the same, but a live TC answering a DC's restart prompt may hold a
    # volatile tail its force could not reach (a record whose before-image
    # the crashed DC still owed holds the stable boundary back).  The DC
    # lost those operations' effects all the same.
    log = tc.log.all_records()
    canceled = {
        record.canceled
        for record in log
        if isinstance(record, CompensationRecord) and record.canceled != NULL_LSN
    }
    streams: dict[str, list] = {}
    for record in log:
        if record.lsn < tc.rssp:
            continue
        if not isinstance(record, (OpRecord, CompensationRecord)):
            continue
        if record.op is None or not record.op.MUTATES:
            continue
        if record.lsn in canceled:
            # The DC definitively rejected this operation when it was
            # live; replaying it into today's state could make it succeed.
            continue
        if dc_names is not None and record.dc_name not in dc_names:
            continue
        streams.setdefault(record.dc_name, []).append(record)

    def owed(record) -> bool:
        return isinstance(record, OpRecord) and record.owed

    def accept(result, record) -> int:
        try:
            tc._expect_ok(result, record.op)
        except (CrashedError, ResendExhaustedError):
            raise
        except ReproError:
            # A rejected operation whose cancel marker was lost with
            # the volatile log tail rejects again deterministically
            # (it was validated under locks): note it and repeat
            # history onward.
            tc.metrics.incr("tc.redo_rejected")
            return 0
        if result.prior is not None:
            # Re-executed afresh: the image its lost reply owed the log.
            tc.log.fill({record.lsn: result.prior})
        return 1

    def replay_one(record) -> int:
        result = tc._perform(
            record.dc_name,
            record.op,
            record.lsn,
            resend=True,
            redo=True,
            want_prior=owed(record),
        )
        return accept(result, record)

    def send(name: str, chunk: list) -> object:
        if tc.faults is not None:
            from repro.sim.faults import FaultPoint

            # Crash-mid-redo: the restart dies with part of the stream
            # resent — abLSN idempotence makes the retried restart's full
            # replay exactly-once anyway.
            for _record in chunk:
                tc.faults.hit(FaultPoint.TC_REDO, tc.name)
        tc._check_up()
        envelope = BatchedPerform(
            tc_id=tc.tc_id,
            ops=tuple(
                PerformOperation(
                    tc_id=tc.tc_id,
                    op_id=record.lsn,
                    op=record.op,
                    resend=True,
                    redo=True,
                    want_prior=owed(record),
                )
                for record in chunk
            ),
            eosl=tc.log.eosl,
            redo=True,
        )
        # Deferred: window-fill envelopes coalesce into one vectored write
        # per DC; finish_async flushes that channel before awaiting.
        return tc._channels[name].request_async(envelope, defer=True)

    def finish(name: str, slot: object, chunk: list) -> int:
        try:
            reply = tc._channels[name].finish_async(slot)
        except ReproError:
            reply = None
        if reply is None:
            return sum(replay_one(record) for record in chunk)
        results = {sub.op_id: sub.result for sub in reply.replies}
        done = 0
        for record in chunk:
            result = results.get(record.lsn)
            if result is None or result.status is OpStatus.UNSTABLE:
                done += replay_one(record)  # owns waiting and resending
            else:
                done += accept(result, record)
        return done

    queued = {
        name: deque(
            records[i : i + _REDO_BATCH] for i in range(0, len(records), _REDO_BATCH)
        )
        for name, records in sorted(streams.items())
    }
    in_flight: dict[str, deque] = {name: deque() for name in queued}
    resent = 0
    while any(queued.values()) or any(in_flight.values()):
        for name, chunks in queued.items():
            sent = in_flight[name]
            if chunks and len(sent) < _REDO_WINDOW:
                chunk = chunks.popleft()
                sent.append((send(name, chunk), chunk))
            elif sent:
                slot, chunk = sent.popleft()
                resent += finish(name, slot, chunk)
    tc.metrics.incr("tc.redo_ops", resent)
    return resent


@dataclass
class _TxnInfo:
    ops: list[OpRecord] = field(default_factory=list)
    clrs: list[CompensationRecord] = field(default_factory=list)
    #: LSNs of forward operations canceled by a marker record: the DC
    #: definitively rejected them, so they carry no undo obligation.
    canceled: set[Lsn] = field(default_factory=set)
    committed: bool = False
    aborted: bool = False
    ended: bool = False
    has_promote: bool = False


class TcRestart:
    """One restart execution; create fresh per restart."""

    def __init__(self, tc: "TransactionalComponent") -> None:
        self._tc = tc

    def run(self, reset_mode: ResetMode = ResetMode.RECORD_RESET) -> dict[str, int]:
        tc = self._tc
        tc.log.recover_lsn_generator()
        stable_lsn = tc.log.eosl
        rssp, txns = self._analyze()
        tc._rssp = rssp
        # A restarted TC (a fresh process in the service deployment) must
        # never reuse a txn id that already appears in the stable log: the
        # analysis above groups records by txn id, so a reused id would
        # merge a finished transaction with a later unrelated one and
        # misclassify winners and losers at the *next* restart.
        tc.bump_txn_ids_past(max(txns, default=0))
        stats = {
            "stable_lsn": stable_lsn,
            "rssp": rssp,
            "redo_ops": 0,
            "undo_ops": 0,
            "losers": 0,
            "completed": 0,
        }

        # 1. Reset every DC's cache of our lost operations, refresh EOSL.
        # Acked delivery: a silently-dropped reset would leave the DC
        # holding state from operations the crash erased from the log.
        for name in tc.channels():
            tc._request_acked(
                name,
                RestartBegin(
                    tc_id=tc.tc_id,
                    stable_lsn=stable_lsn,
                    reset_mode=reset_mode.value,
                ),
            )
            tc._request_acked(
                name, EndOfStableLog(tc_id=tc.tc_id, eosl=stable_lsn)
            )

        # 2. Redo: repeat history from the redo scan start point.
        tc._crashed = False  # the component is operational from here on
        stats["redo_ops"] = resend_redo_stream(tc)
        # Close any DC-side redo windows held open for this TC.  A DC that
        # restarted while we were down prompted into our crashed
        # ``_on_dc_restart`` (a no-op), leaving its window open; the full
        # restart redo above covers that stream, so every window closes.
        for name in tc.channels():
            tc._request_acked(name, RedoComplete(tc_id=tc.tc_id))

        # 3./4. Finish unfinished transactions.
        for txn_id, info in txns.items():
            if info.ended:
                continue
            if info.committed:
                self._complete_committed(txn_id, info)
                stats["completed"] += 1
            else:
                stats["losers"] += 1
                stats["undo_ops"] += self._undo_loser(txn_id, info)

        tc.force_log()
        tc.metrics.incr("tc.restarts")
        return stats

    # -- analysis pass -----------------------------------------------------------

    def _analyze(self) -> tuple[Lsn, dict[int, _TxnInfo]]:
        rssp: Lsn = NULL_LSN
        txns: dict[int, _TxnInfo] = {}
        for record in self._tc.log.stable_records():
            if isinstance(record, CheckpointRecord):
                rssp = record.rssp
                continue
            info = txns.setdefault(record.txn_id, _TxnInfo())
            if isinstance(record, OpRecord):
                info.ops.append(record)
                if isinstance(record.op, PromoteVersionsOp):
                    info.has_promote = True
            elif isinstance(record, CompensationRecord):
                if record.canceled != NULL_LSN:
                    # A cancel marker is logged mid-transaction, before any
                    # rollback starts: it must not influence the CLR-based
                    # resume point.
                    info.canceled.add(record.canceled)
                else:
                    info.clrs.append(record)
            elif isinstance(record, CommitRecord):
                info.committed = True
            elif isinstance(record, AbortRecord):
                info.aborted = True
            elif isinstance(record, TxnEndRecord):
                info.ended = True
        return rssp, txns

    # -- completion of committed transactions ------------------------------------------

    def _complete_committed(self, txn_id: int, info: _TxnInfo) -> None:
        """Re-issue post-commit version cleanup lost with the volatile tail."""
        tc = self._tc
        versioned = self._versioned_keys(info)
        if versioned and not info.has_promote:
            for table, keys in sorted(versioned.items()):
                tc._send_version_cleanup(txn_id, table, keys, promote=True)
        tc.log.append(lambda lsn: TxnEndRecord(lsn=lsn, txn_id=txn_id))

    # -- undo of losers --------------------------------------------------------------------

    def _undo_loser(self, txn_id: int, info: _TxnInfo) -> int:
        """Roll back, resuming after any stable compensation records."""
        tc = self._tc
        if not info.aborted:
            tc.log.append(lambda lsn: AbortRecord(lsn=lsn, txn_id=txn_id))
        resume: Optional[Lsn] = info.clrs[-1].undo_next if info.clrs else None
        to_undo = [
            record
            for record in info.ops
            if record.undo is not None
            and record.lsn not in info.canceled
            and (resume is None or record.lsn <= resume)
        ]
        to_undo.sort(key=lambda record: record.lsn, reverse=True)
        # Versioned work is discarded wholesale — idempotent, so always
        # re-issued even if a pre-crash discard partially ran.
        versioned = self._versioned_keys(info)
        undone = len(to_undo)  # rollback consumes the list in place
        tc.rollback_operations(txn_id, to_undo, versioned)
        tc.log.append(lambda lsn: TxnEndRecord(lsn=lsn, txn_id=txn_id))
        return undone

    @staticmethod
    def _versioned_keys(info: _TxnInfo) -> dict[str, set[Key]]:
        versioned: dict[str, set[Key]] = {}
        for record in info.ops:
            op = record.op
            if (
                isinstance(op, (InsertOp, UpdateOp, DeleteOp, IncrementOp))
                and op.versioned
            ):
                versioned.setdefault(op.table, set()).add(op.key)
        return versioned
