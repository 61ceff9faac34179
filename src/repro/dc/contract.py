"""The contract calls a TC makes of this DC besides operations (Section 4.2.1),
and the hooks it registers: the causality gate's log-force prompt, the
restart prompt and the hint that the redo scan start point (RSSP) may
advance.

The redo window (Section 5.2.2) lives here too.  From ``recover()`` until
a prompted TC's ``RedoComplete``, record state is still being rebuilt by
that TC's redo stream: its ordinary operations bounce, its low-water
marks are dropped, its checkpoints are refused and it gets no hint.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Callable, Mapping

from repro.common.api import (
    CheckpointReply,
    CheckpointRequest,
    ControlAck,
    EndOfStableLog,
    LowWaterMark,
    RedoComplete,
    RestartBegin,
)
from repro.common.errors import CrashedError
from repro.common.lsn import Lsn, NULL_LSN
from repro.storage.buffer import ResetMode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dc.data_component import DataComponent


class Contract:
    """TC hooks, the force prompt, EOSL, LWM, checkpoints and the redo window."""

    def __init__(self, dc: "DataComponent") -> None:
        self._dc = dc
        self._buffer = dc.buffer
        self._metrics = dc.metrics
        self._lock = threading.Lock()
        #: Per-TC hooks: force the log through an LSN, the restart prompt,
        #: the spontaneous RSSP hint.
        self._force_log: dict[int, Callable[[Lsn, dict], Lsn]] = {}
        self.restart_prompts: dict[int, Callable[["DataComponent"], None]] = {}
        self._rssp_hint: dict[int, Callable[[str, Lsn], None]] = {}
        #: TCs whose redo streams this (restarted) DC is still waiting on.
        self.redo_pending: set[int] = set()

    def register_tc(self, tc_id: int, force_log, on_dc_restart, on_rssp_hint) -> None:
        with self._lock:
            if force_log is not None:
                self._force_log[tc_id] = force_log
            if on_dc_restart is not None:
                self.restart_prompts[tc_id] = on_dc_restart
            if on_rssp_hint is not None:
                self._rssp_hint[tc_id] = on_rssp_hint

    def ensure_tc_stable(self, needed: Mapping[int, Lsn]) -> bool:
        """Causality gate for system transactions (see dc/system_txn.py).

        For each TC whose operations a staged page image embeds, make sure
        the TC's stable log covers them — prompting the TC to force its log
        when it does not.  The prompt brings the before-images this DC
        keeps for that TC's operations between its EOSL and ``lsn``: a log
        record still waiting for one of them holds the TC's stable
        boundary back, and its reply may be stuck behind this very prompt.
        """
        for tc_id, lsn in needed.items():
            eosl = self._buffer.eosl_for(tc_id)
            if eosl >= lsn:
                continue
            force = self._force_log.get(tc_id)
            if force is None:
                return False
            self._metrics.incr("dc.log_force_prompts")
            eosl = force(lsn, self._dc.writes.images(tc_id, eosl, lsn))
            self._buffer.note_eosl(tc_id, eosl)
            if eosl < lsn:
                return False
        return True

    # -- the calls -------------------------------------------------------------------

    def low_water_mark(self, tc_id: int, lwm: Lsn) -> None:
        self._buffer.note_lwm(tc_id, lwm)
        self._dc.writes.prune(tc_id, lwm)

    def checkpoint(self, tc_id: int, new_rssp: Lsn) -> Lsn:
        """Make stable all pages with operations below ``new_rssp``; the
        RSSP the TC may advance to, NULL_LSN when some page could not be
        flushed yet."""
        self._metrics.incr("dc.checkpoints")
        with self._buffer.operation():
            done = self._buffer.flush_for_checkpoint(new_rssp)
        return new_rssp if done else NULL_LSN

    def begin_restart(self, tc_id: int, stable_lsn: Lsn, mode: ResetMode) -> dict[str, int]:
        """TC-crash reset (Section 5.3.2 / 6.1.2): shed lost-operation state."""
        self._metrics.incr("dc.tc_restarts")
        # Whatever still waited for an image was not stable, so it is lost.
        self._dc.writes.forget(tc_id)
        with self._buffer.operation():
            return self._buffer.reset_after_tc_crash(tc_id, stable_lsn, mode)

    def checkpoint_dc_log(self) -> bool:
        """Flush everything and truncate the DC log; False if blocked."""
        dc, buffer = self._dc, self._buffer
        with dc.catalog_lock, buffer.operation():
            # The cache marks a page dirty when an operation changes it, not
            # when the loader rebuilt it from DC-log records after a restart
            # or a TC-crash reset: such a page is "clean" yet differs from
            # its disk image (or has none), and may not be cached at all.
            # It must reach disk before the records that define it go.
            for page_id in dc.storage.pages_behind_dc_log():
                page = buffer.fetch(page_id)
                if page is not None:
                    page.dirty = True
            buffer.flush_all()
            if buffer.dirty_count() > 0:
                return False
            dc.save_catalog()
            dc.dclog.truncate_before(dc.dclog.last_dlsn + 1)
            self._metrics.incr("dc.log_truncations")
        self.hint_rssp_advance()
        return True

    def hint_rssp_advance(self) -> None:
        """Spontaneous contract termination (Section 4.2.1).

        When the cache holds no dirty page, every *applied* operation is
        stable; operations at or below a TC's low-water mark are known
        applied (no gaps).  So each hinted TC may stop resending anything
        below ``LWM + 1`` as far as this DC is concerned.
        """
        if self._buffer.dirty_count() > 0:
            return
        for tc_id, hint in list(self._rssp_hint.items()):
            if tc_id in self.redo_pending:
                # Same refusal as the checkpoint gate: nothing is "known
                # applied" for a TC whose redo stream is still open.
                continue
            lwm = self._buffer.lwm_for(tc_id)
            if lwm > NULL_LSN:
                self._metrics.incr("dc.rssp_hints")
                hint(self._dc.name, lwm + 1)

    # -- restart -----------------------------------------------------------------------

    def open_redo_window(self, prompted: bool) -> None:
        """Every TC about to be prompted owes a ``RedoComplete``; without
        prompts there is no resender, so no window."""
        self.redo_pending = set(self.restart_prompts) if prompted else set()

    def bounce(self, tc_id: int) -> None:
        """Refuse an ordinary operation of a TC whose redo stream is still
        open: validated against the partial state it would see committed
        records as absent (and a rejection logged from it would diverge
        from repeat history)."""
        self._metrics.incr("dc.bounced_in_redo_window")
        raise CrashedError(f"DC {self._dc.name} awaiting redo from TC {tc_id}")

    # -- the messages ------------------------------------------------------------------

    def on_end_of_stable_log(self, message: EndOfStableLog) -> ControlAck:
        self._buffer.note_eosl(message.tc_id, message.eosl)
        return ControlAck(tc_id=message.tc_id)

    def on_low_water_mark(self, message: LowWaterMark) -> None:
        if message.tc_id in self.redo_pending:
            # A pre-crash LWM would falsely mark unreplayed operations as
            # contained in rebuilt pages.
            self._metrics.incr("dc.lwm_dropped_in_redo_window")
        else:
            self.low_water_mark(message.tc_id, message.lwm)

    def on_checkpoint(self, message: CheckpointRequest) -> CheckpointReply:
        if message.tc_id in self.redo_pending:
            # A freshly-recovered DC trivially has zero dirty pages, but
            # "flushed" means nothing while committed operations are still
            # in flight on this TC's redo stream: granting would advance
            # the RSSP past them, and with log truncation that loss becomes
            # permanent.  Refuse; the TC retries after the window closes.
            self._metrics.incr("dc.checkpoint_refused_in_redo_window")
            return CheckpointReply(tc_id=message.tc_id, granted_rssp=NULL_LSN)
        granted = self.checkpoint(message.tc_id, message.new_rssp)
        return CheckpointReply(tc_id=message.tc_id, granted_rssp=granted)

    def on_restart_begin(self, message: RestartBegin) -> ControlAck:
        self.begin_restart(
            message.tc_id, message.stable_lsn, ResetMode(message.reset_mode)
        )
        return ControlAck(tc_id=message.tc_id)

    def on_redo_complete(self, message: RedoComplete) -> ControlAck:
        # Idempotent: a duplicate close of an already-closed window acks.
        self.redo_pending.discard(message.tc_id)
        return ControlAck(tc_id=message.tc_id)
