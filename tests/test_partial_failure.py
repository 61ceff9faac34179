"""Partial failures (Section 5.3): DC crash, TC crash, both, mid-protocol."""

from __future__ import annotations

import pytest

from repro import KernelConfig, UnbundledKernel
from repro.common.config import ChannelConfig, DcConfig, PageSyncStrategy, TcConfig
from repro.common.errors import CrashedError
from tests.conftest import populate


def small_kernel(**dc_kwargs):
    config = KernelConfig(dc=DcConfig(page_size=512, **dc_kwargs))
    kernel = UnbundledKernel(config)
    kernel.create_table("t")
    return kernel


class TestDcFailure:
    """Section 5.3.2, DC Failure: conventional redo from the RSSP."""

    def test_cache_only_state_restored_by_redo(self):
        kernel = small_kernel()
        populate(kernel, 50)  # never flushed: cache + logs only
        kernel.crash_dc()
        kernel.recover_dc()  # prompts the TC to resend from RSSP
        with kernel.begin() as check:
            assert len(check.scan("t")) == 50
            assert check.read("t", 25) == "value-00025"

    def test_splits_survive_via_dc_log(self):
        kernel = small_kernel()
        populate(kernel, 100)
        assert kernel.metrics.get("btree.leaf_splits") > 0
        kernel.crash_dc()
        kernel.recover_dc()
        structure = kernel.dc.table("t").structure
        structure.validate()
        assert structure.record_count() == 100

    def test_partially_flushed_state(self):
        """Some pages stable, some not: redo fills exactly the gaps."""
        kernel = small_kernel()
        populate(kernel, 40)
        kernel.tc.broadcast_eosl()
        kernel.dc.buffer.flush_all()  # everything stable
        populate_from = 40
        for key in range(populate_from, populate_from + 20):
            with kernel.begin() as txn:
                txn.insert("t", key, f"value-{key:05d}")  # cache only
        kernel.crash_dc()
        kernel.recover_dc()
        with kernel.begin() as check:
            assert len(check.scan("t")) == 60

    def test_operations_during_crash_raise(self):
        kernel = small_kernel()
        populate(kernel, 5)
        kernel.crash_dc()
        txn = kernel.begin()
        with pytest.raises(CrashedError):
            txn.insert("t", 99, "x")
        kernel.recover_dc()
        kernel.tc.abort(txn)
        with kernel.begin() as retry:
            retry.insert("t", 99, "x")

    def test_repeated_dc_crashes(self):
        kernel = small_kernel()
        populate(kernel, 30)
        for _ in range(3):
            kernel.crash_dc()
            kernel.recover_dc()
        with kernel.begin() as check:
            assert len(check.scan("t")) == 30

    def test_in_flight_txn_survives_dc_crash(self):
        """The TC holds its state; only the DC cache is lost.  The active
        transaction continues after recovery because redo restored its
        (logged, resent) operations."""
        kernel = small_kernel()
        populate(kernel, 10)
        txn = kernel.begin()
        txn.update("t", 1, "mid-flight")
        kernel.crash_dc()
        kernel.dc.recover(notify_tcs=True)  # TC resends from RSSP
        assert txn.read("t", 1) == "mid-flight"
        txn.commit()
        with kernel.begin() as check:
            assert check.read("t", 1) == "mid-flight"


class TestTcFailure:
    """Section 5.3.2, TC Failure: reset exactly the lost-operation pages."""

    def test_lost_ops_erased_from_dc_cache(self):
        kernel = small_kernel()
        populate(kernel, 30)
        kernel.tc.checkpoint()
        loser = kernel.begin()
        loser.update("t", 3, "lost-forever")  # volatile tail only
        # the DC cache now reflects an operation that will be lost
        kernel.crash_tc()
        stats = kernel.recover_tc()
        with kernel.begin() as check:
            assert check.read("t", 3) == "value-00003"

    def test_causality_no_lost_op_is_ever_stable(self):
        """WAL across components: flushes exclude unforced operations, so
        reset never needs to touch stable storage."""
        kernel = small_kernel()
        populate(kernel, 20)
        loser = kernel.begin()
        loser.update("t", 5, "unlogged")
        flushed = kernel.dc.buffer.flush_all()  # must skip page with key 5
        state = kernel.dc.recovery.load_page(
            kernel.dc.table("t").structure.find_leaf(5).page_id
        )
        if state is not None:
            record = next((r for r in state.records if r.key == 5), None)
            assert record is None or record.committed == "value-00005"

    def test_tc_crash_does_not_amnesia_the_dc(self):
        """Section 3.2 challenge 4: the DC keeps its cache for everything
        not affected by the lost tail (DROP_AFFECTED counts).

        At every LWM cadence: a completion-driven broadcast landing on the
        loser's own reply is capped at EOSL, so it never tells the leaves
        a low water past LSNst — which would make every leaf count as
        reflecting the loss (docs/architecture.md §6)."""
        from repro.storage.buffer import ResetMode

        for lwm_interval in (1, 8, 64):
            kernel = UnbundledKernel(
                KernelConfig(
                    dc=DcConfig(page_size=512), tc=TcConfig(lwm_interval=lwm_interval)
                )
            )
            kernel.create_table("t")
            populate(kernel, 30)
            kernel.tc.checkpoint()
            cached_before = len(kernel.dc.buffer.cached_ids())
            loser = kernel.begin()
            loser.update("t", 3, "lost")
            kernel.crash_tc()
            kernel.recover_tc(ResetMode.DROP_AFFECTED)
            # only the page holding key 3 was dropped
            cached_after = len(kernel.dc.buffer.cached_ids())
            assert cached_after >= cached_before - 1, (lwm_interval, cached_before)


class TestBothFail:
    """The fail-together case needs no new techniques (Section 5.3.1)."""

    def test_crash_all_recover_all(self):
        kernel = small_kernel()
        populate(kernel, 50)
        loser = kernel.begin()
        loser.update("t", 10, "dirty")
        kernel.tc.force_log()
        kernel.crash_all()
        kernel.recover_all()
        with kernel.begin() as check:
            assert check.read("t", 10) == "value-00010"
            assert len(check.scan("t")) == 50

    def test_sequential_tc_then_dc_crash(self):
        kernel = small_kernel()
        populate(kernel, 20)
        kernel.crash_tc()
        kernel.recover_tc()
        kernel.crash_dc()
        kernel.recover_dc()
        with kernel.begin() as check:
            assert len(check.scan("t")) == 20


class TestSyncStrategiesUnderFailure:
    @pytest.mark.parametrize(
        "strategy",
        [
            PageSyncStrategy.FULL_ABLSN,
            PageSyncStrategy.DELAY,
            PageSyncStrategy.PRUNE_THEN_WRITE,
        ],
    )
    def test_all_strategies_recover(self, strategy):
        kernel = small_kernel(sync_strategy=strategy)
        populate(kernel, 40)
        kernel.tc.checkpoint()
        kernel.crash_dc()
        kernel.recover_dc()
        with kernel.begin() as check:
            assert len(check.scan("t")) == 40

    @pytest.mark.parametrize(
        "strategy",
        [
            PageSyncStrategy.FULL_ABLSN,
            PageSyncStrategy.DELAY,
            PageSyncStrategy.PRUNE_THEN_WRITE,
        ],
    )
    def test_all_strategies_survive_tc_crash(self, strategy):
        kernel = small_kernel(sync_strategy=strategy)
        populate(kernel, 40)
        loser = kernel.begin()
        loser.update("t", 9, "dirty")
        kernel.crash_tc()
        kernel.recover_tc()
        with kernel.begin() as check:
            assert check.read("t", 9) == "value-00009"


class TestVersionedAcrossFailures:
    def _versioned_kernel(self):
        config = KernelConfig(dc=DcConfig(page_size=512))
        kernel = UnbundledKernel(config)
        kernel.create_table("v", versioned=True)
        return kernel

    def test_committed_versioned_txn_promoted_after_tc_crash(self):
        """Commit record stable, promote lost with the tail: restart must
        re-issue the promote (committed-transaction completion)."""
        kernel = self._versioned_kernel()
        with kernel.begin() as txn:
            txn.insert("v", 1, "v1")
        # crash with the TxnEnd (and possibly promote) unforced
        kernel.crash_tc()
        kernel.recover_tc()
        from repro.common.ops import ReadFlavor

        assert kernel.tc.read_other("v", 1, ReadFlavor.READ_COMMITTED) == "v1"

    def test_loser_versioned_txn_discarded(self):
        kernel = self._versioned_kernel()
        with kernel.begin() as setup:
            setup.insert("v", 1, "committed")
        loser = kernel.begin()
        loser.update("v", 1, "uncommitted")
        kernel.tc.force_log()
        kernel.crash_tc()
        kernel.recover_tc()
        from repro.common.ops import ReadFlavor

        assert kernel.tc.read_other("v", 1, ReadFlavor.READ_COMMITTED) == "committed"
        assert kernel.tc.read_other("v", 1, ReadFlavor.DIRTY) == "committed"

    def test_versioned_dc_crash_redo(self):
        kernel = self._versioned_kernel()
        for key in range(20):
            with kernel.begin() as txn:
                txn.insert("v", key, f"v{key}")
        kernel.crash_dc()
        kernel.recover_dc()
        from repro.common.ops import ReadFlavor

        for key in (0, 10, 19):
            assert (
                kernel.tc.read_other("v", key, ReadFlavor.READ_COMMITTED)
                == f"v{key}"
            )
