"""TC crash recovery: redo from RSSP, loser undo, cleanup completion."""

from __future__ import annotations

import pytest

from repro import KernelConfig, UnbundledKernel
from repro.common.config import ChannelConfig, DcConfig
from repro.storage.buffer import ResetMode
from repro.tc.log import CompensationRecord, TxnEndRecord
from tests.conftest import populate


def small_kernel(**channel_kwargs):
    config = KernelConfig(
        dc=DcConfig(page_size=512),
        channel=ChannelConfig(**channel_kwargs) if channel_kwargs else ChannelConfig(),
    )
    kernel = UnbundledKernel(config)
    kernel.create_table("t")
    return kernel


class TestVolatileTailLoss:
    def test_unlogged_txn_disappears(self):
        kernel = small_kernel()
        populate(kernel, 20)
        txn = kernel.begin()
        txn.insert("t", 500, "lost")
        txn.update("t", 3, "lost-update")
        lost = kernel.crash_tc()
        assert lost >= 2
        stats = kernel.recover_tc()
        with kernel.begin() as check:
            assert check.read("t", 500) is None
            assert check.read("t", 3) == "value-00003"
            assert len(check.scan("t")) == 20

    def test_committed_work_survives(self):
        kernel = small_kernel()
        populate(kernel, 30)
        kernel.crash_tc()
        kernel.recover_tc()
        with kernel.begin() as check:
            assert len(check.scan("t")) == 30

    def test_new_transactions_after_restart(self):
        kernel = small_kernel()
        populate(kernel, 5)
        kernel.crash_tc()
        kernel.recover_tc()
        with kernel.begin() as txn:
            txn.insert("t", 100, "fresh")
        with kernel.begin() as check:
            assert check.read("t", 100) == "fresh"

    def test_lsns_continue_above_stable_log(self):
        kernel = small_kernel()
        populate(kernel, 5)
        top = kernel.tc.log.last_lsn
        kernel.crash_tc()
        kernel.recover_tc()
        assert kernel.tc.log.last_lsn >= top


class TestStableLosers:
    def test_forced_loser_rolled_back(self):
        kernel = small_kernel()
        populate(kernel, 20)
        loser = kernel.begin()
        loser.update("t", 5, "dirty")
        loser.insert("t", 500, "dirty")
        loser.delete("t", 6)
        kernel.tc.force_log()  # loser ops now stable
        kernel.crash_tc()
        stats = kernel.recover_tc()
        assert stats["losers"] == 1
        assert stats["undo_ops"] == 3
        with kernel.begin() as check:
            assert check.read("t", 5) == "value-00005"
            assert check.read("t", 500) is None
            assert check.read("t", 6) == "value-00006"

    def test_crash_during_rollback_resumes_from_undo_next(self):
        """A loser with some CLRs already stable is resumed, not redone
        from scratch (the undo_next chain)."""
        kernel = small_kernel()
        populate(kernel, 10)
        loser = kernel.begin()
        for key in range(5):
            loser.update("t", key, f"dirty-{key}")
        kernel.tc.force_log()
        # roll back only part of it by hand, as if the TC died mid-abort:
        # CLRs for the two newest ops, with undo_next pointing onward.
        from repro.tc.log import AbortRecord

        tc = kernel.tc
        tc.log.append(lambda lsn: AbortRecord(lsn=lsn, txn_id=loser.txn_id))
        ops_desc = list(reversed(loser.op_records))
        for index in range(2):
            record = ops_desc[index]
            undo_next = ops_desc[index + 1].lsn
            clr = tc.log.append(
                lambda lsn, r=record, nxt=undo_next: CompensationRecord(
                    lsn=lsn,
                    txn_id=loser.txn_id,
                    op=r.undo,
                    undo_next=nxt,
                    dc_name=r.dc_name,
                ),
                track_for_lwm=True,
            )
            tc._perform(record.dc_name, record.undo, clr.lsn)
            tc._complete_ops([clr.lsn])
        tc.force_log()
        kernel.crash_tc()
        stats = kernel.recover_tc()
        assert stats["losers"] == 1
        assert stats["undo_ops"] == 3  # only the remaining three
        with kernel.begin() as check:
            for key in range(5):
                assert check.read("t", key) == f"value-{key:05d}"

    def test_multiple_losers(self):
        kernel = small_kernel()
        populate(kernel, 10)
        losers = []
        for index in range(3):
            txn = kernel.begin()
            txn.update("t", index, f"dirty-{index}")
            losers.append(txn)
        kernel.tc.force_log()
        kernel.crash_tc()
        stats = kernel.recover_tc()
        assert stats["losers"] == 3
        with kernel.begin() as check:
            for index in range(3):
                assert check.read("t", index) == f"value-{index:05d}"

    def test_restart_is_idempotent(self):
        """Crash again right after restart: same final state."""
        kernel = small_kernel()
        populate(kernel, 10)
        loser = kernel.begin()
        loser.update("t", 1, "dirty")
        kernel.tc.force_log()
        kernel.crash_tc()
        kernel.recover_tc()
        kernel.crash_tc()
        kernel.recover_tc()
        with kernel.begin() as check:
            assert check.read("t", 1) == "value-00001"
            assert len(check.scan("t")) == 10


class TestCheckpointing:
    def test_checkpoint_advances_rssp_and_shrinks_redo(self):
        kernel = small_kernel()
        populate(kernel, 30)
        assert kernel.checkpoint()
        rssp = kernel.tc.rssp
        assert rssp > 0
        with kernel.begin() as txn:
            txn.insert("t", 100, "after")
        kernel.crash_tc()
        stats = kernel.recover_tc()
        assert stats["rssp"] == rssp
        assert stats["redo_ops"] <= 3
        with kernel.begin() as check:
            assert check.read("t", 100) == "after"

    def test_checkpoint_without_new_work_cheap_restart(self):
        kernel = small_kernel()
        populate(kernel, 10)
        kernel.checkpoint()
        kernel.crash_tc()
        stats = kernel.recover_tc()
        assert stats["redo_ops"] == 0

    def test_repeated_checkpoints_monotone(self):
        kernel = small_kernel()
        populate(kernel, 5)
        kernel.checkpoint()
        first = kernel.tc.rssp
        populate_more = kernel.begin()
        populate_more.insert("t", 900, "x")
        populate_more.commit()
        kernel.checkpoint()
        assert kernel.tc.rssp >= first


class TestResetModes:
    @pytest.mark.parametrize(
        "mode",
        [ResetMode.FULL_DROP, ResetMode.DROP_AFFECTED, ResetMode.RECORD_RESET],
    )
    def test_all_modes_recover_correctly(self, mode):
        kernel = small_kernel()
        populate(kernel, 40)
        loser = kernel.begin()
        loser.update("t", 7, "dirty")
        kernel.crash_tc()
        kernel.recover_tc(mode)
        with kernel.begin() as check:
            assert check.read("t", 7) == "value-00007"
            assert len(check.scan("t")) == 40


class TestRecoveryUnderLossyChannel:
    def test_restart_with_lossy_channel(self):
        kernel = small_kernel(loss_rate=0.2, seed=13)
        populate(kernel, 25)
        loser = kernel.begin()
        loser.update("t", 2, "dirty")
        kernel.tc.force_log()
        kernel.crash_tc()
        kernel.recover_tc()
        with kernel.begin() as check:
            assert check.read("t", 2) == "value-00002"
            assert len(check.scan("t")) == 25


class TestCommittedCleanupCompletion:
    def test_committed_txn_gets_end_record(self):
        kernel = small_kernel()
        with kernel.begin() as txn:
            txn.insert("t", 1, "v")
        # remove the TxnEnd from the volatile tail by crashing before force
        # (commit forced the log through the commit record, TxnEnd after)
        kernel.crash_tc()
        stats = kernel.recover_tc()
        assert stats["completed"] >= 0  # completion pass ran
        ends = [
            r
            for r in kernel.tc.log.stable_records()
            if isinstance(r, TxnEndRecord)
        ]
        assert ends


class TestTxnIdReuseAcrossIncarnations:
    """Regression: a respawned TC *process* starts with a fresh txn-id
    counter, so before restart learned to bump the allocator past the
    stable log it would reuse ids from earlier incarnations.  Restart
    analysis groups records by txn id, so a reused id merged two
    unrelated transactions — observed in the process-mode chaos sweep as
    an acknowledged committed update regressing to its before-image
    (the merged "transaction" was undone past the commit).  Model the
    respawn by resetting the in-memory counter, which is exactly the
    state a fresh process starts from.
    """

    @staticmethod
    def _respawn(kernel):
        import itertools

        kernel.crash_tc()
        kernel.tc._txn_ids = itertools.count(1)  # what a fresh process has
        return kernel.recover_tc()

    def test_restart_bumps_allocator_past_stable_log(self):
        kernel = small_kernel()
        populate(kernel, 3)
        logged = max(r.txn_id for r in kernel.tc.log.stable_records())
        self._respawn(kernel)
        txn = kernel.begin()
        try:
            assert txn.txn_id > logged
        finally:
            txn.abort()

    def test_loser_with_reused_id_is_undone(self):
        """Two reincarnation cycles.  Without the allocator bump the
        second incarnation's in-flight loser reuses the id of a finished
        first-incarnation transaction; analysis then sees an ended
        transaction and skips the undo, leaking the uncommitted update.
        """
        kernel = small_kernel()
        with kernel.begin() as txn:
            txn.insert("t", 1, "one")
        with kernel.begin() as txn:
            txn.insert("t", 2, "two")
        self._respawn(kernel)
        with kernel.begin() as txn:  # committed work of incarnation 2
            txn.update("t", 1, "one.v2")
        loser = kernel.begin()  # in flight at the next crash
        loser.update("t", 2, "uncommitted")
        kernel.tc.force_log()  # its op record must survive the crash
        self._respawn(kernel)
        with kernel.begin() as check:
            assert check.read("t", 1) == "one.v2"
            assert check.read("t", 2) == "two"
