"""A declarative builder for multi-TC / multi-DC deployments (Section 6).

``MovieSite`` hard-codes Figure 2; :class:`CloudDeployment` generalizes it
so applications (and experiments) can declare an arbitrary topology:

    deployment = CloudDeployment()
    deployment.add_dc("dc-east")
    deployment.add_dc("dc-west")
    deployment.add_tc("orders-tc")
    deployment.add_tc("analytics-tc", read_only=True)
    deployment.create_table("orders", dc="dc-east", versioned=True)
    deployment.grant("orders-tc", "orders", lambda key: True)
    deployment.build()

After ``build()`` every TC is attached to every DC it can reach, ownership
guards are installed, and the deployment exposes lookup helpers plus
aggregate instrumentation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.cloud.partitioning import HashPartitionMap, OwnershipRegistry, PartitionedTable
from repro.common.config import ChannelConfig, DcConfig, TcConfig
from repro.common.errors import ReproError
from repro.common.records import Key
from repro.dc.data_component import DataComponent
from repro.sim.metrics import Metrics
from repro.tc.transactional_component import TransactionalComponent

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.sim.faults import FaultInjector


class CloudDeployment:
    """Declare DCs, TCs, tables and ownership; then :meth:`build`."""

    def __init__(
        self,
        metrics: Optional[Metrics] = None,
        dc_config: Optional[DcConfig] = None,
        tc_config: Optional[TcConfig] = None,
        faults: Optional["FaultInjector"] = None,
    ) -> None:
        self.metrics = metrics or Metrics()
        self._dc_config = dc_config
        self._tc_config = tc_config
        self.faults = faults
        self.dcs: dict[str, DataComponent] = {}
        self.tcs: dict[str, TransactionalComponent] = {}
        self._tc_read_only: dict[str, bool] = {}
        #: Remote DCs only; an in-process DC's channel takes the defaults.
        self._channel_configs: dict[str, ChannelConfig] = {}
        self.ownership = OwnershipRegistry()
        self._grants: list[tuple[str, str, Callable[[Key], bool]]] = []
        self._partitioned: dict[str, PartitionedTable] = {}
        self._built = False

    # -- declaration ------------------------------------------------------------

    def add_dc(self, name: str, config: Optional[DcConfig] = None) -> DataComponent:
        if name in self.dcs:
            raise ReproError(f"DC {name!r} already declared")
        dc = DataComponent(
            name,
            config=config or self._dc_config,
            metrics=self.metrics,
            faults=self.faults,
        )
        self.dcs[name] = dc
        return dc

    def add_remote_dc(
        self,
        name: str,
        journal_path: str,
        config: Optional[DcConfig] = None,
        request_timeout_s: float = 30.0,
    ):
        """A DC running as its own OS process (docs/architecture.md §10).

        Mixes freely with in-process DCs declared via :meth:`add_dc`:
        :meth:`build` picks the channel implementation per endpoint.  The
        deployment-wide fault injector cannot reach a remote DC — kill its
        process instead.
        """
        if name in self.dcs:
            raise ReproError(f"DC {name!r} already declared")
        if self.faults is not None:
            raise ReproError(
                "fault injection hooks are local-only; remote DCs exercise "
                "failures by killing the process (docs/architecture.md §10)"
            )
        from repro.net.process import RemoteDc

        dc = RemoteDc(
            name,
            config=config or self._dc_config,
            metrics=self.metrics,
            journal_path=journal_path,
            request_timeout_s=request_timeout_s,
        )
        self.dcs[name] = dc
        self._channel_configs[name] = ChannelConfig(
            transport="process", request_timeout_s=request_timeout_s
        )
        return dc

    def add_tc(
        self, name: str, read_only: bool = False, config: Optional[TcConfig] = None
    ) -> TransactionalComponent:
        if name in self.tcs:
            raise ReproError(f"TC {name!r} already declared")
        tc = TransactionalComponent(
            config=config or self._tc_config, metrics=self.metrics, faults=self.faults
        )
        self.tcs[name] = tc
        self._tc_read_only[name] = read_only
        return tc

    def create_table(
        self,
        logical_name: str,
        dc: Optional[str] = None,
        partitions: Optional[list[str]] = None,
        versioned: bool = False,
        kind: str = "btree",
        route_by: Optional[Callable[[Key], object]] = None,
    ) -> Optional[PartitionedTable]:
        """A table on one DC, or hash-partitioned across several.

        With ``partitions``, physical tables ``name@i`` are created on the
        listed DCs and a :class:`PartitionedTable` router is returned;
        ``route_by`` extracts the routing component from composite keys.
        """
        if partitions is None:
            target = dc if dc is not None else next(iter(self.dcs))
            self.dcs[target].create_table(
                logical_name, kind=kind, versioned=versioned
            )
            return None
        table = PartitionedTable(
            logical_name, HashPartitionMap(len(partitions), extract=route_by)
        )
        for index, dc_name in enumerate(partitions):
            self.dcs[dc_name].create_table(
                f"{logical_name}@{index}", kind=kind, versioned=versioned
            )
        self._partitioned[logical_name] = table
        return table

    def grant(
        self, tc_name: str, logical_table: str, predicate: Callable[[Key], bool]
    ) -> None:
        self._grants.append((tc_name, logical_table, predicate))

    # -- assembly ------------------------------------------------------------------

    def build(self) -> "CloudDeployment":
        if self._built:
            raise ReproError("deployment already built")
        for tc_name, tc in self.tcs.items():
            for dc_name, dc in self.dcs.items():
                tc.attach_dc(dc, self._channel_configs.get(dc_name))
        for tc_name, table, predicate in self._grants:
            self.ownership.grant(self.tcs[tc_name], table, predicate)
        for tc_name, tc in self.tcs.items():
            # read-only TCs get no grants; the guard rejects all updates
            self.ownership.install(tc)
        self._built = True
        return self

    # -- lookup ------------------------------------------------------------------------

    def tc(self, name: str) -> TransactionalComponent:
        return self.tcs[name]

    def dc(self, name: str) -> DataComponent:
        return self.dcs[name]

    def partitioned(self, logical_name: str) -> PartitionedTable:
        return self._partitioned[logical_name]

    # -- instrumentation ------------------------------------------------------------------

    def machines_touched(self, workload: Callable[[], object]) -> tuple[object, int]:
        channels = [
            channel for tc in self.tcs.values() for channel in tc.channels().values()
        ]
        before = {id(channel): channel.ops_sent for channel in channels}
        result = workload()
        touched = {
            channel.dc.name
            for channel in channels
            if channel.ops_sent != before[id(channel)]
        }
        return result, len(touched)

    def crash_everything(self) -> None:
        for tc in self.tcs.values():
            tc.crash()
        for dc in self.dcs.values():
            dc.crash()

    def recover_everything(self) -> None:
        for dc in self.dcs.values():
            dc.recover(notify_tcs=False)
        for tc in self.tcs.values():
            tc.restart()

    def close(self) -> None:
        """Shut down any remote DC server processes (no-op otherwise)."""
        for dc in self.dcs.values():
            shutdown = getattr(dc, "shutdown", None)
            if shutdown is not None:
                shutdown()

    def __enter__(self) -> "CloudDeployment":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()
