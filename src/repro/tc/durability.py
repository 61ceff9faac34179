"""Durability: log forcing, EOSL propagation and contract termination.

The TC log's stable prefix is the commit point (Section 4.1.1).  This
stage forces it — on commit, at a checkpoint, or prompted by a DC whose
causality gate needs an LSN stable — pushes the end of stable log to the
DCs, and owns the redo scan start point (RSSP, Section 4.2): advanced by
a checkpoint every DC granted or by every DC's spontaneous stability
hint, always the same way (a checkpoint record, a force, a truncation of
the log below it).
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Mapping

from repro.common.api import CheckpointReply, CheckpointRequest, EndOfStableLog
from repro.common.lsn import Lsn, NULL_LSN
from repro.common.records import Value
from repro.sim.faults import FaultPoint
from repro.sim.schedule import YieldPoint
from repro.tc.log import CheckpointRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.tc.transactional_component import TransactionalComponent


class Durability:
    """Forces, EOSL pushes, checkpoints, RSSP hints and truncation."""

    def __init__(self, tc: "TransactionalComponent") -> None:
        self._tc = tc
        self._log = tc.log
        self._metrics = tc.metrics
        self._mu = threading.Lock()
        self._rssp: Lsn = NULL_LSN
        #: Per-DC spontaneous stability hints (Section 4.2.1).
        self._rssp_hints: dict[str, Lsn] = {}

    @property
    def rssp(self) -> Lsn:
        return self._rssp

    def restore(self, rssp: Lsn) -> None:
        """Restart: the RSSP of the last stable checkpoint record."""
        self._rssp = rssp

    # -- forcing ------------------------------------------------------------------

    def force(self) -> Lsn:
        """Force the log; the new EOSL piggybacks on subsequent operations
        (checkpoint and restart still push it explicitly)."""
        # A crash here loses the volatile log tail — the classic "commit
        # record never reached the disk" failure.
        self._tc.hook(FaultPoint.TC_LOG_FORCE)
        return self._log.force()

    def force_through(self, lsn: Lsn, images: Mapping[Lsn, Value]) -> Lsn:
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
        sender of the refused operation waits outside the DC (the
        dispatch stage's stability wait).

        A prompt is only as good as what it names: images for op ids
        that owe nothing fill nothing, and an LSN this TC never issued
        forces nothing — no force could reach it, and the volatile tail
        stays volatile until something earned its force.
        """
        if images:
            self._log.fill(images)
        if not self._log.needs_force(lsn) or lsn > self._log.last_lsn:
            return self._log.eosl
        self._metrics.incr("tc.prompted_forces")
        return self._tc.force_log()

    def broadcast_eosl(self) -> Lsn:
        """Explicitly push the current EOSL to every DC (causality, WAL)."""
        eosl = self._log.eosl
        tc_id = self._tc.tc_id
        for channel in self._tc.dispatch.channels.values():
            channel.request(EndOfStableLog(tc_id=tc_id, eosl=eosl))
        return eosl

    # -- the redo scan start point (contract termination, Section 4.2) -----------------

    def checkpoint(self) -> bool:
        """Advance the redo scan start point; False when a DC is blocked."""
        tc = self._tc
        tc.hook(FaultPoint.TC_CHECKPOINT, YieldPoint.TC_CHECKPOINT)
        tc.force_log()
        self.broadcast_eosl()
        tc.dispatch.broadcast_lwm()
        candidate = self._log.lwm + 1
        if candidate <= self._rssp:
            self._truncate()
            return True
        for channel in tc.dispatch.channels.values():
            reply = channel.request(
                CheckpointRequest(tc_id=tc.tc_id, new_rssp=candidate)
            )
            if not isinstance(reply, CheckpointReply) or reply.granted_rssp < candidate:
                self._metrics.incr("tc.checkpoint_blocked")
                return False
        self._rssp = candidate
        self._advance(candidate, "tc.checkpoints")
        return True

    def on_rssp_hint(self, dc_name: str, lsn: Lsn) -> None:
        """Spontaneous contract termination (Section 4.2.1): a DC reports
        that everything below ``lsn`` is stable there.  The redo scan start
        point may advance once *every* attached DC has hinted at least that
        far (the RSSP is a global minimum)."""
        with self._mu:
            self._rssp_hints[dc_name] = max(self._rssp_hints.get(dc_name, 0), lsn)
            if len(self._rssp_hints) < len(self._tc.dispatch.channels):
                return
            candidate = min(self._rssp_hints.values())
            if candidate <= self._rssp:
                return
            self._rssp = candidate
            self._metrics.incr("tc.rssp_hint_advances")
        self._advance(candidate)

    def _advance(self, rssp: Lsn, counter: str = "") -> None:
        """Make a new RSSP durable, then reclaim the log below it."""
        self._log.append(lambda lsn: CheckpointRecord(lsn=lsn, txn_id=0, rssp=rssp))
        self._tc.force_log()
        if counter:
            self._metrics.incr(counter)
        self._truncate()

    def _truncate(self) -> int:
        """Reclaim stable log space below the checkpoint (contract
        termination's whole point): replay cost — and with it restart
        time — stays proportional to the live tail, not history.

        Crash-safe at any point: truncation only ever drops records redo
        and undo provably no longer need (:meth:`TcLog.truncation_point`),
        so a crash before, during or after it merely replays more or
        fewer records.
        """
        if self._rssp <= NULL_LSN:
            return 0
        # A crash here models dying between the checkpoint record force
        # and the space reclaim — the log keeps its prefix and restart
        # simply replays from the (already stable) RSSP.
        self._tc.hook(FaultPoint.TC_TRUNCATE, YieldPoint.TC_TRUNCATE)
        point = self._log.truncation_point(self._rssp)
        dropped = self._log.truncate_below(point)
        if dropped:
            self._metrics.incr("tc.log_truncations")
        return dropped
