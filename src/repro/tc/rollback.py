"""Rollback: inverse operations, and the re-drive of parked rollbacks.

Atomicity's undo half (Section 4.1.1): a transaction's forward
operations are inverted newest first, each inverse logged as a
compensation record whose ``undo_next`` makes rollback restartable —
shared by runtime abort and restart undo.  A DC outage can interrupt a
rollback or a committed transaction's version cleanup; the transaction
is then *parked* here, its locks released so the rest of the system
makes progress, and re-driven when the DC heals.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

from repro.common.errors import CrashedError, ReproError, ResendExhaustedError
from repro.common.lsn import NULL_LSN
from repro.common.records import Key
from repro.tc.dispatch import expect_ok
from repro.tc.handle import TransactionState
from repro.tc.log import CompensationRecord, TxnEndRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.tc.handle import Transaction
    from repro.tc.transactional_component import TransactionalComponent


class Rollback:
    """Drives rollbacks; owns the ones a DC outage parked."""

    def __init__(self, tc: "TransactionalComponent") -> None:
        self._tc = tc
        self._mu = threading.Lock()
        #: Aborted transactions whose compensation a DC outage interrupted.
        self._zombie_rollbacks: list["Transaction"] = []
        #: Committed transactions whose post-commit version cleanup a DC
        #: outage interrupted (the commit itself is durable and acked).
        self._zombie_completions: list["Transaction"] = []

    @property
    def parked(self) -> bool:
        """True while a parked rollback has keys it has not settled."""
        return bool(self._zombie_rollbacks)

    def pending(self) -> int:
        with self._mu:
            return len(self._zombie_rollbacks) + len(self._zombie_completions)

    def clear(self) -> None:
        """TC crash: restart rolls the parked transactions back as losers
        (and completes the committed ones) from the log."""
        with self._mu:
            self._zombie_rollbacks.clear()
            self._zombie_completions.clear()

    # -- driving ----------------------------------------------------------------

    def drive(self, txn: "Transaction") -> None:
        """Repeat history, then apply (remaining) inverses.

        A logged operation still in flight may or may not have executed,
        yet restart redo would execute it (it is in the log): it is resent
        with its LSN first, so the inverse below is always valid."""
        tc = self._tc
        while txn.in_flight:
            try:
                tc.dispatch.sync(txn)
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
                tc.force_log()
        if txn.undo_pending is None:
            txn.undo_pending = [
                record for record in reversed(txn.op_records) if record.undo is not None
            ]
        self.undo(txn.txn_id, txn.undo_pending, txn.versioned_keys)

    def undo(
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
        tc = self._tc
        while to_undo:
            head = to_undo[0]
            if isinstance(head, CompensationRecord):
                clr = head
                resend = True
            else:
                undo_next = to_undo[1].lsn if len(to_undo) > 1 else NULL_LSN
                assert head.undo is not None
                clr = tc.log.append(
                    lambda lsn, r=head, nxt=undo_next: CompensationRecord(
                        lsn=lsn, txn_id=txn_id, op=r.undo, undo_next=nxt, dc_name=r.dc_name
                    ),
                    track_for_lwm=True,
                )
                to_undo[0] = clr
                resend = False
            result = tc.dispatch.perform(clr.dc_name, clr.op, clr.lsn, resend=resend)  # type: ignore[arg-type]
            expect_ok(result, clr.op)  # type: ignore[arg-type]
            tc.dispatch.complete_ops([clr.lsn])
            to_undo.pop(0)
            tc.metrics.incr("tc.undo_ops")
        tc.clean_versions(txn_id, versioned_keys, promote=False)

    # -- parking and re-driving ---------------------------------------------------------

    def park(self, txn: "Transaction") -> None:
        """A DC outage interrupted ``txn``'s rollback.  The DC still holds
        uncommitted bytes for its keys, so its CC registry entries must
        OUTLIVE the lock release — readers keep conflicting/seeing
        before-images until :meth:`retry` settles the keys.  Its locks go,
        so the rest of the system makes progress; a TC restart would roll
        it back as an ordinary loser anyway."""
        with self._mu:
            self._zombie_rollbacks.append(txn)  # before the locks go
        self._tc.retire(txn, TransactionState.ABORTED)
        self._tc.metrics.incr("tc.zombie_rollbacks")

    def park_completion(self, txn: "Transaction") -> None:
        """A DC outage interrupted ``txn``'s post-commit version cleanup;
        the commit decision stands."""
        with self._mu:
            self._zombie_completions.append(txn)

    def retry(self) -> None:
        """Finish rollbacks and version cleanups interrupted by a DC
        outage; what is still unreachable stays parked."""
        tc = self._tc
        with self._mu:
            zombies, self._zombie_rollbacks = self._zombie_rollbacks, []
        for txn in zombies:
            try:
                self.drive(txn)
                # The inverses just changed DC state for keys whose locks
                # were released long ago — drop anything cached for them
                # (a concurrent reader may have re-cached since the abort).
                tc.undo_cache.forget_txn(txn)
                # Settled at last: bump the keys' stamps (any lock-free
                # read of the mid-rollback bytes must fail validation) and
                # free the writer registry for new writers.
                tc.cc.on_abort_settled(txn)
                tc.log.append(lambda lsn, t=txn.txn_id: TxnEndRecord(lsn=lsn, txn_id=t))
                tc.metrics.incr("tc.zombie_rollbacks_completed")
            except ReproError:
                with self._mu:
                    self._zombie_rollbacks.append(txn)  # still unreachable
        with self._mu:
            zombies, self._zombie_completions = self._zombie_completions, []
        for txn in zombies:
            try:
                tc.clean_versions(txn.txn_id, txn.versioned_keys, promote=True)
                tc.log.append(lambda lsn, t=txn.txn_id: TxnEndRecord(lsn=lsn, txn_id=t))
                tc.metrics.incr("tc.zombie_completions_finished")
            except ReproError:
                with self._mu:
                    self._zombie_completions.append(txn)  # still unreachable
