"""The Data Component: atomic, idempotent logical operations."""

from __future__ import annotations

import pytest

from repro.common.config import DcConfig
from repro.common.errors import CrashedError, ReproError
from repro.common.ops import (
    DeleteOp,
    DiscardVersionsOp,
    InsertOp,
    OpStatus,
    ProbeNextKeysOp,
    PromoteVersionsOp,
    RangeReadOp,
    ReadFlavor,
    ReadOp,
    UpdateOp,
)
from repro.dc.data_component import DataComponent
from repro.sim.metrics import Metrics


@pytest.fixture
def dc():
    component = DataComponent("dc", config=DcConfig(page_size=512))
    component.create_table("t")
    component.register_tc(1, force_log=lambda lsn, images: lsn)
    return component


def perform(dc, op, op_id, tc_id=1, want_prior=False):
    return dc.perform_operation(tc_id, op_id, op, want_prior=want_prior)


class TestBasicOperations:
    def test_insert_then_read(self, dc):
        assert perform(dc, InsertOp(table="t", key=1, value="v"), 1).ok
        result = perform(dc, ReadOp(table="t", key=1), 2)
        assert result.ok and result.value == "v"

    def test_update_returns_prior(self, dc):
        """... to the request that asks for it, and to no other."""
        perform(dc, InsertOp(table="t", key=1, value="old"), 1)
        result = perform(dc, UpdateOp(table="t", key=1, value="new"), 2, want_prior=True)
        assert result.ok and result.prior == "old"
        result = perform(dc, UpdateOp(table="t", key=1, value="newer"), 3)
        assert result.ok and result.prior is None

    def test_delete_returns_prior(self, dc):
        perform(dc, InsertOp(table="t", key=1, value="v"), 1)
        result = perform(dc, DeleteOp(table="t", key=1), 2, want_prior=True)
        assert result.ok and result.prior == "v"
        assert perform(dc, ReadOp(table="t", key=1), 3).status is OpStatus.NOT_FOUND

    def test_duplicate_insert_status(self, dc):
        perform(dc, InsertOp(table="t", key=1, value="v"), 1)
        result = perform(dc, InsertOp(table="t", key=1, value="w"), 2)
        assert result.status is OpStatus.DUPLICATE

    def test_update_missing_status(self, dc):
        result = perform(dc, UpdateOp(table="t", key=9, value="w"), 1)
        assert result.status is OpStatus.NOT_FOUND

    def test_unknown_table_is_error(self, dc):
        result = perform(dc, InsertOp(table="nope", key=1, value="v"), 1)
        assert result.status is OpStatus.ERROR

    def test_range_read(self, dc):
        for index in range(10):
            perform(dc, InsertOp(table="t", key=index, value=index * 10), index + 1)
        result = perform(dc, RangeReadOp(table="t", low=3, high=6), 99)
        assert [v.key for v in result.records] == [3, 4, 5, 6]
        limited = perform(dc, RangeReadOp(table="t", low=None, high=None, limit=4), 100)
        assert len(limited.records) == 4

    def test_range_read_low_exclusive(self, dc):
        for index in range(5):
            perform(dc, InsertOp(table="t", key=index, value=index), index + 1)
        result = perform(
            dc, RangeReadOp(table="t", low=2, high=4, low_exclusive=True), 99
        )
        assert [v.key for v in result.records] == [3, 4]

    def test_probe_next_keys(self, dc):
        for index in (2, 4, 6, 8):
            perform(dc, InsertOp(table="t", key=index, value="v"), index)
        result = perform(dc, ProbeNextKeysOp(table="t", after=2, count=2), 99)
        assert result.keys == (4, 6)
        inclusive = perform(
            dc, ProbeNextKeysOp(table="t", after=2, count=2, inclusive=True), 100
        )
        assert inclusive.keys == (2, 4)


class TestIdempotence:
    """Exactly-once via abLSNs (Sections 4.2, 5.1)."""

    def test_duplicate_request_filtered(self, dc):
        op = InsertOp(table="t", key=1, value="v")
        assert perform(dc, op, 5).ok
        assert perform(dc, op, 5).ok  # resend: filtered, still OK
        assert dc.metrics.get("dc.duplicate_ops") == 1
        result = perform(dc, RangeReadOp(table="t"), 99)
        assert len(result.records) == 1

    def test_duplicate_update_not_reapplied(self, dc):
        perform(dc, InsertOp(table="t", key=1, value="a"), 1)
        update = UpdateOp(table="t", key=1, value="b")
        perform(dc, update, 2)
        perform(dc, UpdateOp(table="t", key=1, value="c"), 3)
        perform(dc, update, 2)  # stale resend of LSN 2
        assert perform(dc, ReadOp(table="t", key=1), 9).value == "c"

    def test_out_of_order_execution(self, dc):
        """A later LSN applied first must not mask an earlier one."""
        perform(dc, InsertOp(table="t", key=1, value="v0"), 1)
        perform(dc, UpdateOp(table="t", key=2 + 10, value="x"), 2)  # unrelated
        # LSN 9 arrives before LSN 5 (non-conflicting: different keys)
        perform(dc, InsertOp(table="t", key=9, value="nine"), 9)
        result = perform(dc, InsertOp(table="t", key=5, value="five"), 5)
        assert result.ok
        assert perform(dc, ReadOp(table="t", key=5), 99).value == "five"
        # both now filtered
        assert perform(dc, InsertOp(table="t", key=9, value="dup"), 9).ok
        assert perform(dc, ReadOp(table="t", key=9), 100).value == "nine"

    def test_idempotence_across_split(self, dc):
        """Splits copy abLSNs, so replays route correctly afterwards."""
        for index in range(50):
            perform(dc, InsertOp(table="t", key=index, value=f"v{index}"), index + 1)
        assert dc.metrics.get("btree.leaf_splits") >= 1
        for index in range(50):
            result = perform(
                dc, InsertOp(table="t", key=index, value="REPLAY"), index + 1
            )
            assert result.ok
        for index in (0, 25, 49):
            assert perform(dc, ReadOp(table="t", key=index), 999).value == f"v{index}"

    def test_reads_are_not_tracked(self, dc):
        perform(dc, InsertOp(table="t", key=1, value="v"), 1)
        perform(dc, ReadOp(table="t", key=1), 7)
        # a mutation can reuse... no: ids are unique; but a read id never
        # lands in an abLSN, so a later mutation with a higher id works
        assert perform(dc, UpdateOp(table="t", key=1, value="w"), 8).ok


class TestVersionedTables:
    @pytest.fixture
    def vdc(self):
        component = DataComponent("dc", config=DcConfig(page_size=512))
        component.create_table("v", versioned=True)
        # act as an always-stable TC (the causality gate needs one)
        component.register_tc(1, force_log=lambda lsn, images: lsn)
        return component

    def test_pending_until_promoted(self, vdc):
        perform(vdc, InsertOp(table="v", key=1, value="new", versioned=True), 1)
        committed = perform(
            vdc, ReadOp(table="v", key=1, flavor=ReadFlavor.READ_COMMITTED), 2
        )
        assert committed.status is OpStatus.NOT_FOUND
        dirty = perform(vdc, ReadOp(table="v", key=1, flavor=ReadFlavor.DIRTY), 3)
        assert dirty.value == "new"
        perform(vdc, PromoteVersionsOp(table="v", keys=(1,)), 4)
        committed = perform(
            vdc, ReadOp(table="v", key=1, flavor=ReadFlavor.READ_COMMITTED), 5
        )
        assert committed.value == "new"

    def test_discard_removes_pending(self, vdc):
        perform(vdc, InsertOp(table="v", key=1, value="new", versioned=True), 1)
        perform(vdc, DiscardVersionsOp(table="v", keys=(1,)), 2)
        result = perform(vdc, ReadOp(table="v", key=1, flavor=ReadFlavor.DIRTY), 3)
        assert result.status is OpStatus.NOT_FOUND

    def test_update_keeps_before_version(self, vdc):
        perform(vdc, InsertOp(table="v", key=1, value="v1", versioned=True), 1)
        perform(vdc, PromoteVersionsOp(table="v", keys=(1,)), 2)
        perform(vdc, UpdateOp(table="v", key=1, value="v2", versioned=True), 3)
        before = perform(
            vdc, ReadOp(table="v", key=1, flavor=ReadFlavor.READ_COMMITTED), 4
        )
        assert before.value == "v1"
        perform(vdc, PromoteVersionsOp(table="v", keys=(1,)), 5)
        after = perform(
            vdc, ReadOp(table="v", key=1, flavor=ReadFlavor.READ_COMMITTED), 6
        )
        assert after.value == "v2"

    def test_versioned_delete_two_step(self, vdc):
        perform(vdc, InsertOp(table="v", key=1, value="v1", versioned=True), 1)
        perform(vdc, PromoteVersionsOp(table="v", keys=(1,)), 2)
        perform(vdc, DeleteOp(table="v", key=1, versioned=True), 3)
        # committed readers still see it until the promote
        committed = perform(
            vdc, ReadOp(table="v", key=1, flavor=ReadFlavor.READ_COMMITTED), 4
        )
        assert committed.value == "v1"
        perform(vdc, PromoteVersionsOp(table="v", keys=(1,)), 5)
        gone = perform(
            vdc, ReadOp(table="v", key=1, flavor=ReadFlavor.READ_COMMITTED), 6
        )
        assert gone.status is OpStatus.NOT_FOUND

    def test_cleanup_replay_is_idempotent(self, vdc):
        perform(vdc, InsertOp(table="v", key=1, value="v1", versioned=True), 1)
        op = PromoteVersionsOp(table="v", keys=(1,))
        perform(vdc, op, 2)
        perform(vdc, op, 2)  # resend filtered by abLSN
        fresh = PromoteVersionsOp(table="v", keys=(1,))
        perform(vdc, fresh, 3)  # restart re-issue: no pending, no-op
        result = perform(
            vdc, ReadOp(table="v", key=1, flavor=ReadFlavor.READ_COMMITTED), 4
        )
        assert result.value == "v1"

    def test_multi_key_cleanup_spans_leaves(self, vdc):
        keys = tuple(range(60))
        for index in keys:
            perform(
                vdc,
                InsertOp(table="v", key=index, value=f"v{index}", versioned=True),
                index + 1,
            )
        perform(vdc, PromoteVersionsOp(table="v", keys=keys), 100)
        result = perform(
            vdc,
            RangeReadOp(table="v", flavor=ReadFlavor.READ_COMMITTED),
            101,
        )
        assert len(result.records) == 60


class TestAdministration:
    def test_duplicate_table_rejected(self, dc):
        with pytest.raises(ReproError):
            dc.create_table("t")

    def test_crashed_dc_refuses_service(self, dc):
        dc.crash()
        with pytest.raises(CrashedError):
            dc.perform_operation(1, 1, ReadOp(table="t", key=1))
        with pytest.raises(CrashedError):
            dc.create_table("x")

    def test_heap_table(self):
        component = DataComponent("dc")
        component.create_table("h", kind="heap", bucket_count=8)
        perform(component, InsertOp(table="h", key=1, value="v"), 1)
        assert perform(component, ReadOp(table="h", key=1), 2).value == "v"

    def test_table_names(self, dc):
        dc.create_table("b")
        assert dc.table_names() == ["b", "t"]

    def test_checkpoint_dc_log_truncates(self, dc):
        for index in range(60):
            perform(dc, InsertOp(table="t", key=index, value="v"), index + 1)
        dc.end_of_stable_log(1, 60)
        dc.low_water_mark(1, 60)
        assert dc.storage.dc_log_length() > 0
        assert dc.checkpoint_dc_log()
        assert dc.storage.dc_log_length() == 0
        # data still reachable purely from disk pages
        assert perform(dc, ReadOp(table="t", key=30), 999).value == "v"
