"""Building a custom multi-region topology with CloudDeployment.

The MovieSite example hard-codes Figure 2; this one declares its own
topology — an order-processing service with a write region, a far region,
and a read-only analytics TC — then demonstrates the same properties:
clustered access, ownership enforcement, no 2PC, private crashes.

Run:  python examples/cloud_deployment_builder.py
"""

from repro.cloud.deployment import CloudDeployment
from repro.common.errors import OwnershipError


def main() -> None:
    deployment = CloudDeployment()
    deployment.add_dc("us-east")
    deployment.add_dc("eu-west")
    deployment.add_tc("orders-tc")
    deployment.add_tc("analytics-tc", read_only=True)

    # Orders live near the writer; events are hash-partitioned across
    # both regions; both are versioned so analytics reads never block.
    deployment.create_table("orders", dc="us-east", versioned=True)
    events = deployment.create_table(
        "events", partitions=["us-east", "eu-west"], versioned=True
    )
    deployment.grant("orders-tc", "orders", lambda key: True)
    deployment.grant("orders-tc", "events", lambda key: True)
    deployment.build()
    for tc in deployment.tcs.values():
        for dc in deployment.dcs.values():
            tc.refresh_routes(dc)

    writer = deployment.tc("orders-tc")
    analytics = deployment.tc("analytics-tc")

    # One transaction spans both regions; still a single commit point.
    def place_order(order_id: int) -> None:
        with writer.begin() as txn:
            txn.insert("orders", order_id, {"status": "placed"})
            events.insert(txn, order_id, {"type": "order-placed"})

    _, machines = deployment.machines_touched(lambda: place_order(1))
    print(f"placing an order touched {machines} region(s), zero 2PC messages")
    for order_id in range(2, 30):
        place_order(order_id)

    # Analytics reads committed data without ever blocking the writer.
    open_txn = writer.begin()
    open_txn.update("orders", 1, {"status": "editing..."})
    committed = analytics.read_other("orders", 1)
    print("analytics sees committed state during an open write:", committed)
    open_txn.abort()

    # Read-only means read-only.
    try:
        with analytics.begin() as txn:
            txn.insert("orders", 999, {})
    except OwnershipError as exc:
        print("rejected:", exc)

    # Everything survives the datacenter going down.
    deployment.crash_everything()
    deployment.recover_everything()
    with writer.begin() as txn:
        print("orders after full-region crash:", len(txn.scan("orders")))
    print("deployment builder OK")


if __name__ == "__main__":
    main()
