"""Plug-in access methods (Section 1.1, imperative 5).

"Adding a new access method to support new data types ... is eased
substantially when the type implementation (as DC) can rely on
transactional services provided separately by TC."  This test registers a
custom structure — a single-page "scratchpad" — and shows it renting the
full transactional stack: 2PL, logical logging, rollback, idempotent
redo, crash recovery.
"""

from __future__ import annotations

import pytest

from repro.common.errors import PageOverflowError
from repro.dc.data_component import DataComponent
from repro.dc.recovery import TableDescriptor
from repro.dc.system_txn import SystemTransaction
from repro.sim.metrics import Metrics
from repro.storage.heap import HashedHeap
from repro.tc.transactional_component import TransactionalComponent


class ScratchpadStructure(HashedHeap):
    """A deliberately trivial custom access method: exactly one page.

    Inherits the record plumbing from the heap but pins everything to a
    single fixed page — the sort of specialized structure an application
    might write for a small, hot configuration table.
    """

    KIND = "scratchpad"

    def describe(self) -> dict:
        return {"page_id": self.bucket_ids[0]}

    @classmethod
    def factory(cls, dc: DataComponent, name: str, descriptor):
        if descriptor is None:
            return cls(
                name,
                dc.storage,
                dc.buffer,
                dc._begin_systxn,
                dc.config,
                dc.metrics,
                bucket_count=1,
            )
        return cls(
            name,
            dc.storage,
            dc.buffer,
            dc._begin_systxn,
            dc.config,
            dc.metrics,
            bucket_ids=[descriptor.extra["page_id"]],
        )


def build_kernel():
    metrics = Metrics()
    dc = DataComponent("dc", metrics=metrics)
    dc.register_structure_kind(ScratchpadStructure.KIND, ScratchpadStructure.factory)
    dc.create_table("pad", kind=ScratchpadStructure.KIND)
    tc = TransactionalComponent(metrics=metrics)
    tc.attach_dc(dc)
    return dc, tc


class TestCustomStructure:
    def test_transactions_work_unchanged(self):
        _dc, tc = build_kernel()
        with tc.begin() as txn:
            txn.insert("pad", "a", 1)
            txn.insert("pad", "b", 2)
            assert txn.read("pad", "a") == 1
            assert txn.scan("pad") == [("a", 1), ("b", 2)]

    def test_rollback_works_unchanged(self):
        _dc, tc = build_kernel()
        with tc.begin() as setup:
            setup.insert("pad", "a", 1)
        txn = tc.begin()
        txn.update("pad", "a", 99)
        txn.insert("pad", "z", 0)
        txn.abort()
        with tc.begin() as check:
            assert check.read("pad", "a") == 1
            assert check.read("pad", "z") is None

    def test_descriptor_extra_persisted(self):
        dc, _tc = build_kernel()
        handle = dc.table("pad")
        assert handle.descriptor.kind == "scratchpad"
        assert "page_id" in handle.descriptor.extra
        roundtrip = TableDescriptor.from_metadata(handle.descriptor.to_metadata())
        assert roundtrip.extra == handle.descriptor.extra

    def test_dc_crash_recovery_rebuilds_via_factory(self):
        dc, tc = build_kernel()
        with tc.begin() as txn:
            txn.insert("pad", "survivor", 42)
        dc.crash()
        dc.recover(notify_tcs=True)
        with tc.begin() as txn:
            assert txn.read("pad", "survivor") == 42
        assert isinstance(dc.table("pad").structure, ScratchpadStructure)

    def test_tc_crash_recovery(self):
        dc, tc = build_kernel()
        with tc.begin() as txn:
            txn.insert("pad", "kept", 1)
        loser = tc.begin()
        loser.update("pad", "kept", 666)
        tc.crash()
        tc.restart()
        with tc.begin() as txn:
            assert txn.read("pad", "kept") == 1

    def test_recovery_without_factory_fails_loudly(self):
        """A DC restarted without the plug-in registered cannot silently
        misinterpret the table."""
        dc, tc = build_kernel()
        with tc.begin() as txn:
            txn.insert("pad", "a", 1)
        dc.crash()
        dc._structure_factories.clear()
        with pytest.raises(Exception):
            dc.recover(notify_tcs=False)

    def test_single_page_limit_is_the_structures_contract(self):
        _dc, tc = build_kernel()
        txn = tc.begin()
        with pytest.raises(Exception):
            for index in range(10_000):
                txn.insert("pad", index, "x" * 50)
        tc.abort(txn)

    def test_coexists_with_builtin_kinds(self):
        dc, tc = build_kernel()
        dc.create_table("normal", kind="btree")
        tc.refresh_routes(dc)
        with tc.begin() as txn:
            txn.insert("pad", "a", 1)
            txn.insert("normal", "a", 2)
        with tc.begin() as txn:
            assert txn.read("pad", "a") == 1
            assert txn.read("normal", "a") == 2
