"""DC-initiated contract termination (Section 4.2.1's spontaneous hint)."""

from __future__ import annotations

import pytest

from repro import KernelConfig, UnbundledKernel
from repro.common.config import DcConfig
from tests.conftest import populate


def ready_kernel(dc_count=1):
    kernel = UnbundledKernel(
        KernelConfig(dc=DcConfig(page_size=512)), dc_count=dc_count
    )
    if dc_count == 1:
        kernel.create_table("t")
    return kernel


def make_stable(kernel):
    kernel.tc.force_log()
    kernel.tc.durability.broadcast_eosl()
    kernel.tc.dispatch.broadcast_lwm()


class TestSpontaneousAdvance:
    def test_dc_checkpoint_hints_the_tc(self):
        kernel = ready_kernel()
        populate(kernel, 40)
        assert kernel.tc.rssp == 0
        make_stable(kernel)
        assert kernel.dc.checkpoint_dc_log()
        assert kernel.tc.rssp > 0
        assert kernel.metrics.get("tc.rssp_hint_advances") == 1

    def test_hinted_rssp_shrinks_restart_redo(self):
        kernel = ready_kernel()
        populate(kernel, 40)
        make_stable(kernel)
        kernel.dc.checkpoint_dc_log()
        kernel.crash_tc()
        stats = kernel.recover_tc()
        assert stats["redo_ops"] == 0
        with kernel.begin() as txn:
            assert len(txn.scan("t")) == 40

    def test_hint_never_regresses(self):
        kernel = ready_kernel()
        populate(kernel, 20)
        make_stable(kernel)
        kernel.dc.checkpoint_dc_log()
        first = kernel.tc.rssp
        kernel.dc.hint_rssp_advance()  # same state: no regression
        assert kernel.tc.rssp == first

    def test_no_hint_while_dirty_pages_remain(self):
        kernel = ready_kernel()
        populate(kernel, 20)  # never flushed
        kernel.dc.hint_rssp_advance()
        assert kernel.tc.rssp == 0  # dirty cache: contract stays live

    def test_multi_dc_requires_all_hints(self):
        """The RSSP is a global minimum: one DC's hint alone must not
        advance it."""
        kernel = ready_kernel(dc_count=2)
        kernel.create_table("a", dc_name="dc1")
        kernel.create_table("b", dc_name="dc2")
        with kernel.begin() as txn:
            txn.insert("a", 1, "v")
            txn.insert("b", 1, "v")
        make_stable(kernel)
        kernel.dcs["dc1"].checkpoint_dc_log()
        assert kernel.tc.rssp == 0  # dc2 has not hinted yet
        kernel.dcs["dc2"].checkpoint_dc_log()
        assert kernel.tc.rssp > 0

    def test_hint_plus_explicit_checkpoint_coexist(self):
        kernel = ready_kernel()
        populate(kernel, 20)
        make_stable(kernel)
        kernel.dc.checkpoint_dc_log()
        hinted = kernel.tc.rssp
        for key in range(100, 110):  # fresh work after the hint
            with kernel.begin() as txn:
                txn.insert("t", key, "v")
        assert kernel.checkpoint()
        assert kernel.tc.rssp >= hinted
