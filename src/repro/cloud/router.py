"""TC-service routing: a thin tier in front of N TC server processes.

The paper's deployment sketch (Sections 4, 6) has applications talk to
*a* transaction service, not *the* transaction component: update rights
are partitioned across TCs, all of which share the same DC pool.  The
:class:`TcServiceRouter` is the thin routing layer that makes the tier
look like one service — it hashes a transaction's routing key with the
process-independent :func:`~repro.cloud.partitioning.stable_key_hash`
(the same function every TC server's ownership guard uses, so router and
guards always agree) and opens the transaction on the owning TC.

A misrouted write — stale router, wrong routing key — is *detected*, not
trusted: the owning guard inside the TC server bounces it with a
:class:`~repro.common.errors.TcRedirect` naming the true owner, and
:meth:`TcServiceRouter.execute` retries there once.  Routing is an
optimization; ownership is the invariant.

:class:`TcServiceDeployment` is the operator: it spawns the DC pool (each
DC process additionally listening on a Unix socket), spawns the TC server
processes (each holding its own socket connections to every DC), installs
disjoint ownership grants, and wires DC heal events to the TC processes
so the §5.2.1 redo prompt crosses both process boundaries.  Everything a
:class:`~repro.sim.supervisor.Supervisor` needs (``tcs`` / ``dcs`` maps
with ``crashed`` / ``on_crash`` / heal surfaces) is exposed, so the
standard heal policy runs unchanged over a tier of OS processes.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from typing import Callable, Optional

from repro.common.config import DcConfig, TcConfig
from repro.common.errors import ReproError, TcRedirect
from repro.cloud.partitioning import HashPartitionMap
from repro.net.process import RemoteDc
from repro.net.tcclient import RemoteTc, RemoteTransaction


class TcServiceRouter:
    """Route transactions to the owning TC by stable key hash."""

    def __init__(
        self,
        tcs: list[RemoteTc],
        partitions: Optional[int] = None,
        extract: Optional[Callable] = None,
    ) -> None:
        if not tcs:
            raise ReproError("router needs at least one TC")
        self.tcs = list(tcs)
        self.by_name = {tc.name: tc for tc in self.tcs}
        self.partitions = partitions or len(self.tcs)
        self._map = HashPartitionMap(self.partitions, extract)
        self.redirects_followed = 0

    def partition_of(self, key) -> int:
        return self._map.partition_of(key)

    def owner_of(self, key) -> RemoteTc:
        return self.tcs[self._map.partition_of(key) % len(self.tcs)]

    def begin(self, routing_key) -> RemoteTransaction:
        """Open a transaction on the TC owning ``routing_key``'s partition."""
        return self.owner_of(routing_key).begin()

    def execute(self, routing_key, fn: Callable[[RemoteTc], object]) -> object:
        """Run ``fn(tc)`` on the routed TC, following one redirect.

        The redirect retry is the misroute contract: the guard inside the
        server is authoritative, the router is a cache.  More than one
        bounce means the grants themselves disagree — that is a bug, not
        a race, so it propagates.
        """
        try:
            return fn(self.owner_of(routing_key))
        except TcRedirect as redirect:
            owner = self.by_name.get(redirect.owner)
            if owner is None:
                raise
            self.redirects_followed += 1
            return fn(owner)

    def read_other(self, table: str, key, **kwargs):
        """Read via the owning TC (any TC could serve it — Section 6's
        read-committed sharing — but the owner sees its own writes with no
        cross-TC staleness)."""
        return self.owner_of(key).read_other(table, key, **kwargs)


class TcServiceDeployment:
    """N TC server processes sharing a DC-process pool, plus the router.

    The full out-of-process topology::

        client ──► TcServiceRouter ──► tc1..tcN (OS processes)
                                          │  Unix sockets, §4.2.1 protocol
                                          ▼
                                       dc1..dcM (OS processes, shared pool)

    Ownership: table partitions (``stable_key_hash(key) % partitions``)
    are dealt round-robin to TCs; grants are installed into each server
    and remembered client-side so a §5.3.2 respawn re-installs the exact
    map the router still routes by.
    """

    def __init__(
        self,
        tc_count: int = 2,
        dc_count: int = 2,
        partitions: Optional[int] = None,
        data_dir: str = "",
        tc_config: Optional[TcConfig] = None,
        dc_config: Optional[DcConfig] = None,
        sharing_mode: str = "",
        request_timeout_s: float = 30.0,
        listen_host: str = "",
    ) -> None:
        if tc_count < 1 or dc_count < 1:
            raise ReproError("deployment needs at least one TC and one DC")
        self.partitions = partitions or max(tc_count * 4, 4)
        self._owns_dir = not data_dir
        self.data_dir = data_dir or tempfile.mkdtemp(prefix="repro-tcservice-")
        self.dcs: dict[str, RemoteDc] = {}
        self.tcs: dict[str, RemoteTc] = {}
        self._closed = False
        try:
            for index in range(dc_count):
                name = f"dc{index + 1}"
                self.dcs[name] = RemoteDc(
                    name,
                    config=dc_config,
                    journal_path=os.path.join(self.data_dir, f"{name}.journal"),
                    request_timeout_s=request_timeout_s,
                    # TCP data plane when listen_host is set (ephemeral
                    # port, pinned from the Hello so heals re-bind it);
                    # Unix sockets in the data dir otherwise.
                    listen_path=(
                        f"tcp://{listen_host}:0"
                        if listen_host
                        else os.path.join(self.data_dir, f"{name}.sock")
                    ),
                )
            dc_socks = {dc.name: dc.listen_path for dc in self.dcs.values()}
            for index in range(tc_count):
                name = f"tc{index + 1}"
                self.tcs[name] = RemoteTc(
                    name,
                    tc_id=index + 1,
                    journal_path=os.path.join(self.data_dir, f"{name}.journal"),
                    dcs=dc_socks,
                    config=tc_config,
                    sharing_mode=sharing_mode,
                    request_timeout_s=request_timeout_s,
                )
            for dc in self.dcs.values():
                dc.restart_listeners.append(self._forward_dc_restart)
        except BaseException:
            self.close()
            raise
        self.router = TcServiceRouter(list(self.tcs.values()), self.partitions)

    # -- §5.2.1 across two process boundaries --------------------------------

    def _forward_dc_restart(self, dc: RemoteDc) -> None:
        """Tell every live TC process that ``dc`` was healed.

        A *crashed* TC is skipped on purpose: its own §5.3.2 restart
        builds fresh DC connections and re-drives redo, so the prompt
        would be redundant.  A live TC that fails mid-notify raises
        ``CrashedError`` out of here, which keeps the supervisor's prompt
        queued for the next round — re-notifying an already-notified TC is
        absorbed by abLSN idempotence.
        """
        for tc in self.tcs.values():
            if not tc.crashed:
                tc.notify_dc_restart(dc.name)

    # -- schema & ownership ---------------------------------------------------

    def create_table(
        self,
        name: str,
        dc_name: str = "",
        kind: str = "btree",
        versioned: bool = True,
        bucket_count: int = 16,
    ) -> None:
        """Create a table on one DC, refresh every TC's routes, and deal
        its partitions out as disjoint update rights.

        ``versioned=True`` by default: the TC tier's cross-TC reads use
        Section 6.3's read-committed flavor, which needs version chains.
        """
        dc = self.dcs[dc_name] if dc_name else self._pick_dc(name)
        dc.create_table(name, kind=kind, versioned=versioned, bucket_count=bucket_count)
        tc_names = list(self.tcs)
        owners = tuple(
            tc_names[p % len(tc_names)] for p in range(self.partitions)
        )
        for index, tc in enumerate(self.tcs.values()):
            tc.refresh_routes(dc.name)
            residues = tuple(
                p for p in range(self.partitions) if p % len(tc_names) == index
            )
            tc.grant(name, self.partitions, residues, owners)

    def _pick_dc(self, table: str) -> RemoteDc:
        from repro.cloud.partitioning import stable_key_hash

        names = sorted(self.dcs)
        return self.dcs[names[stable_key_hash(table) % len(names)]]

    def set_sharing_mode(self, mode: str) -> None:
        for tc in self.tcs.values():
            tc.set_sharing_mode(mode)

    # -- introspection --------------------------------------------------------

    def stats(self) -> dict[str, object]:
        return {
            "tcs": {
                name: (tc.stats() if not tc.crashed else {"crashed": True})
                for name, tc in self.tcs.items()
            },
            "dcs": {
                name: (dc.stats() if not dc.crashed else {"crashed": True})
                for name, dc in self.dcs.items()
            },
            "partitions": self.partitions,
            "redirects_followed": self.router.redirects_followed,
        }

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        # TCs first: they hold client connections into the DC pool, and a
        # graceful TC shutdown must not find its DCs already gone.
        for tc in self.tcs.values():
            try:
                tc.shutdown()
            except ReproError:
                pass
        for dc in self.dcs.values():
            try:
                dc.shutdown()
            except ReproError:
                pass
        if self._owns_dir:
            shutil.rmtree(self.data_dir, ignore_errors=True)

    def __enter__(self) -> "TcServiceDeployment":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()
