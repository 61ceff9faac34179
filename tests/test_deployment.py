"""The declarative deployment builder (generalized Figure 2)."""

from __future__ import annotations

import pytest

from repro.cloud.deployment import CloudDeployment
from repro.common.errors import OwnershipError, ReproError


def build_two_region():
    deployment = CloudDeployment()
    deployment.add_dc("east")
    deployment.add_dc("west")
    deployment.add_tc("writer")
    deployment.add_tc("reader", read_only=True)
    deployment.create_table("orders", dc="east", versioned=True)
    deployment.create_table(
        "events", partitions=["east", "west"], versioned=True
    )
    deployment.grant("writer", "orders", lambda key: True)
    deployment.grant("writer", "events", lambda key: True)
    deployment.build()
    for tc in deployment.tcs.values():
        for dc in deployment.dcs.values():
            tc.refresh_routes(dc)
    return deployment


class TestBuilder:
    def test_basic_workflow(self):
        deployment = build_two_region()
        writer = deployment.tc("writer")
        with writer.begin() as txn:
            txn.insert("orders", 1, {"sku": "x"})
        with writer.begin() as txn:
            assert txn.read("orders", 1)["sku"] == "x"

    def test_read_only_tc_cannot_write(self):
        deployment = build_two_region()
        reader = deployment.tc("reader")
        txn = reader.begin()
        with pytest.raises(OwnershipError):
            txn.insert("orders", 2, {})
        txn.abort()

    def test_read_only_tc_reads_committed(self):
        deployment = build_two_region()
        writer, reader = deployment.tc("writer"), deployment.tc("reader")
        with writer.begin() as txn:
            txn.insert("orders", 1, "committed")
        open_txn = writer.begin()
        open_txn.update("orders", 1, "pending")
        assert reader.read_other("orders", 1) == "committed"
        open_txn.commit()
        assert reader.read_other("orders", 1) == "pending"

    def test_partitioned_table_routing(self):
        deployment = build_two_region()
        events = deployment.partitioned("events")
        writer = deployment.tc("writer")
        for key in range(20):
            with writer.begin() as txn:
                events.insert(txn, key, f"event-{key}")
        east = deployment.dc("east")
        west = deployment.dc("west")
        east_count = east.table("events@0").structure.record_count()
        west_count = west.table("events@1").structure.record_count()
        assert east_count + west_count == 20
        assert east_count > 0 and west_count > 0

    def test_machines_touched_helper(self):
        deployment = build_two_region()
        writer = deployment.tc("writer")

        def single_dc_write():
            with writer.begin() as txn:
                txn.insert("orders", 99, {})

        _r, machines = deployment.machines_touched(single_dc_write)
        assert machines == 1

    def test_duplicate_declarations_rejected(self):
        deployment = CloudDeployment()
        deployment.add_dc("a")
        with pytest.raises(ReproError):
            deployment.add_dc("a")
        deployment.add_tc("t")
        with pytest.raises(ReproError):
            deployment.add_tc("t")

    def test_double_build_rejected(self):
        deployment = CloudDeployment()
        deployment.add_dc("a")
        deployment.add_tc("t")
        deployment.build()
        with pytest.raises(ReproError):
            deployment.build()

    def test_crash_recover_everything(self):
        deployment = build_two_region()
        writer = deployment.tc("writer")
        events = deployment.partitioned("events")
        with writer.begin() as txn:
            txn.insert("orders", 1, "v")
            events.insert(txn, 5, "e")
        deployment.crash_everything()
        deployment.recover_everything()
        with writer.begin() as txn:
            assert txn.read("orders", 1) == "v"
            assert events.read(txn, 5) == "e"
