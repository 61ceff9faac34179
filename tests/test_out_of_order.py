"""Out-of-order execution (Section 5.1): why pageLSN fails, why abLSN works.

These tests reproduce the paper's motivating scenario directly: a later
operation (higher LSN) reaches a page before an earlier one, the page
becomes stable in between, and recovery must still re-execute exactly the
missing operation.
"""

from __future__ import annotations

import random

import pytest

from repro.common.config import ChannelConfig, DcConfig, KernelConfig
from repro.common.lsn import AbstractLsn
from repro.common.ops import InsertOp, RangeReadOp, ReadOp
from repro.dc.data_component import DataComponent
from repro.net.channel import MessageChannel
from repro.common.api import PerformOperation
from repro.sim.metrics import Metrics


def make_dc(page_size=512):
    dc = DataComponent("dc", config=DcConfig(page_size=page_size))
    dc.create_table("t")
    dc.register_tc(1, force_log=lambda lsn, images: lsn)
    return dc


class TestTraditionalTestFails:
    """Section 5.1.1: Operation LSN <= Page LSN is wrong out of order."""

    def test_page_lsn_would_mask_earlier_op(self):
        """Simulate the broken engine: a single page LSN set to the max
        applied LSN claims LSN 5 is applied when only 9 was."""
        page_lsn = 0
        applied = set()
        # op 9 executes first
        page_lsn = max(page_lsn, 9)
        applied.add(9)
        # traditional test for op 5: 5 <= page_lsn -> "already applied"
        assert 5 <= page_lsn  # the WRONG conclusion
        assert 5 not in applied  # ...while the truth is it never ran

    def test_ablsn_gives_right_answer_in_same_scenario(self):
        ablsn = AbstractLsn()
        ablsn.include(9)
        assert not ablsn.contains(5)  # redo required — correct
        assert ablsn.contains(9)


class TestEndToEndOutOfOrder:
    def test_shuffled_delivery_reaches_consistent_state(self):
        """Non-conflicting ops (distinct keys) delivered in random order,
        then the full stream replayed in LSN order (as TC redo would):
        exactly-once semantics must hold."""
        dc = make_dc()
        ops = [
            (lsn, InsertOp(table="t", key=lsn * 2, value=f"v{lsn}"))
            for lsn in range(1, 81)
        ]
        shuffled = ops[:]
        random.Random(7).shuffle(shuffled)
        for lsn, op in shuffled:
            assert dc.perform_operation(1, lsn, op).ok
        # replay everything in order — all must be filtered
        duplicates_before = dc.metrics.get("dc.duplicate_ops")
        for lsn, op in ops:
            assert dc.perform_operation(1, lsn, op).ok
        assert dc.metrics.get("dc.duplicate_ops") - duplicates_before == 80
        result = dc.perform_operation(1, 999, RangeReadOp(table="t"))
        assert len(result.records) == 80

    def test_out_of_order_then_dc_crash_then_redo(self):
        """The full Section 5.1 scenario: out-of-order apply, a flush makes
        the page stable with a 'gap' in its abLSN, the DC crashes, and redo
        re-executes exactly the gap."""
        dc = make_dc()
        # LSN 2 arrives first, LSN 1 never arrives before the flush+crash.
        dc.perform_operation(1, 2, InsertOp(table="t", key=20, value="two"))
        dc.end_of_stable_log(1, 100)  # pretend the TC log is stable
        dc.buffer.flush_all()
        dc.crash()
        dc.recover(notify_tcs=False)
        # TC redo resends both, in order.
        assert dc.perform_operation(
            1, 1, InsertOp(table="t", key=10, value="one")
        ).ok
        before = dc.metrics.get("dc.duplicate_ops")
        assert dc.perform_operation(
            1, 2, InsertOp(table="t", key=20, value="DUP")
        ).ok
        assert dc.metrics.get("dc.duplicate_ops") == before + 1  # filtered
        assert dc.perform_operation(1, 50, ReadOp(table="t", key=10)).value == "one"
        assert dc.perform_operation(1, 51, ReadOp(table="t", key=20)).value == "two"

    def test_reordering_channel_end_to_end(self):
        dc = make_dc()
        channel = MessageChannel(
            dc, ChannelConfig(reorder_window=6, seed=11), dc.metrics
        )
        for lsn in range(1, 41):
            channel.post(
                PerformOperation(
                    tc_id=1,
                    op_id=lsn,
                    op=InsertOp(table="t", key=lsn, value=f"v{lsn}"),
                    eosl=0,
                )
            )
        replies = channel.pump()
        assert len(replies) == 40
        result = dc.perform_operation(1, 999, RangeReadOp(table="t"))
        assert [view.key for view in result.records] == list(range(1, 41))


class TestLwmInteraction:
    def test_lwm_prunes_after_out_of_order_completion(self):
        dc = make_dc()
        for lsn in (3, 1, 2):  # out of order
            dc.perform_operation(1, lsn, InsertOp(table="t", key=lsn, value="v"))
        leaf = dc.table("t").structure.find_leaf(1)
        assert leaf.pending_lsn_count() == 3
        dc.low_water_mark(1, 3)
        assert leaf.pending_lsn_count() == 0
        assert leaf.ablsn_for(1).low_water == 3
        # idempotence still exact after pruning
        before = dc.metrics.get("dc.duplicate_ops")
        dc.perform_operation(1, 2, InsertOp(table="t", key=2, value="dup"))
        assert dc.metrics.get("dc.duplicate_ops") == before + 1

    def test_record_level_lsn_space_comparison(self):
        """Section 5.1.1 rejects record-level LSNs as 'very expensive in
        the space required'; quantify the claim our abLSN avoids."""
        dc = make_dc()
        for lsn in range(1, 31):
            dc.perform_operation(1, lsn, InsertOp(table="t", key=lsn, value="v"))
        dc.low_water_mark(1, 30)
        leaf_ids = dc.table("t").structure.leaf_ids()
        ablsn_bytes = sum(
            dc.table("t").structure._fetch(page_id).ablsn_overhead_bytes()
            for page_id in leaf_ids
        )
        record_level_bytes = 8 * 30  # one LSN per record
        assert ablsn_bytes < record_level_bytes
