"""Deployments under test, behind the one surface the driver needs.

Two program assemblies cover the four workloads: ``UnbundledKernel``
(in-process DC, or one DC process over the pipe) and
``TcServiceDeployment`` (client -> TC process -> DC process).  Everything
here goes through the program's public objects; server-side numbers come
from ``RemoteDc.stats()`` / ``RemoteTc.stats()``.
"""

from __future__ import annotations

import os
import shutil

from repro.cloud.router import TcServiceDeployment
from repro.common.api import BatchedPerform, PerformOperation
from repro.common.config import ChannelConfig, DcConfig, KernelConfig, TcConfig
from repro.kernel.unbundled import UnbundledKernel
from repro.net.rpc import TableList
from repro.net.tcrpc import TcRetryPending
from repro.sim.supervisor import Supervisor

TABLE = "t"
#: Records per load transaction.
LOAD_BATCH = 100


def tc_config() -> TcConfig:
    return TcConfig.optimized(cc_policy="2pl")


def load_table(begin, keys: list[int], value_of, tick=lambda: None) -> None:
    """Insert ``keys`` through ``begin(key)`` transactions of ``LOAD_BATCH``
    records; ``tick()`` runs between transactions."""
    for lo in range(0, len(keys), LOAD_BATCH):
        tick()
        chunk = keys[lo : lo + LOAD_BATCH]
        txn = begin(chunk[0])
        for key in chunk:
            txn.insert(TABLE, key, value_of(key))
        txn.commit()


def _message_kind(prefix: str):
    """Span-name chooser for channel sends: split by what is on the wire."""
    names = {
        PerformOperation: f"{prefix}:PerformOperation",
        BatchedPerform: f"{prefix}:BatchedPerform",
    }
    other = f"{prefix}:control"
    return lambda args: names.get(type(args[0]), other) if args else other


class _Deployment:
    """Common surface; subclasses bind it to one program assembly."""

    #: Which OS processes exist besides the client ("tc", "dc").
    server_roles: tuple = ()

    def __init__(self, work_dir: str) -> None:
        self.work_dir = work_dir
        os.makedirs(work_dir, exist_ok=True)

    def local_counter(self, name: str) -> int:
        """A counter of the client process (0 if it lives in a server)."""
        return self.metrics.get(name)

    def heal(self) -> None:
        supervisor = Supervisor(None)
        self._watch(supervisor)
        supervisor.heal()

    def close(self) -> None:
        try:
            self._close()
        finally:
            shutil.rmtree(self.work_dir, ignore_errors=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class KernelDeployment(_Deployment):
    """``UnbundledKernel``: TC in the client; DC in-process or over the pipe."""

    def __init__(self, work_dir: str, transport: str) -> None:
        super().__init__(work_dir)
        self.remote = transport == "process"
        self.server_roles = ("dc",) if self.remote else ()
        self.kernel = UnbundledKernel(
            KernelConfig(
                dc=DcConfig(),
                tc=tc_config(),
                channel=ChannelConfig(transport=transport),
                data_dir=work_dir if self.remote else None,
            )
        )
        self.kernel.create_table(TABLE)
        self.metrics = self.kernel.metrics

    def begin(self, key):
        return self.kernel.begin()

    def checkpoint(self) -> None:
        self.kernel.checkpoint()
        self.kernel.dc.checkpoint_dc_log()

    def pids(self) -> dict:
        return {"dc": self.kernel.dc.pid} if self.remote else {}

    def counters(self) -> dict:
        """Counters per process, plus the byte totals counters() omits."""
        client = dict(self.kernel.metrics.counters())
        if not self.remote:
            client["disk.page_bytes"] = self.kernel.metrics.dist("disk.page_bytes").total
            return {"client": client}
        stats = self.kernel.dc.stats()
        server = dict(stats["counters"])
        server["journal.size_bytes"] = stats["journal_bytes"]
        return {"client": client, "dc": server}

    def crash_dc(self) -> None:
        self.kernel.crash_dc()

    def _watch(self, supervisor: Supervisor) -> None:
        supervisor.watch_kernel(self.kernel)

    def capture_point(self) -> tuple:
        """Where request/reply messages can be tapped for the codec benchmark."""
        return next(iter(self.kernel.tc.channels().values())), "request"

    def noop_round_trips(self) -> dict:
        if not self.remote:
            return {}
        dc = self.kernel.dc
        return {"net.dcserver.noop_rtt_us": lambda: dc.control(TableList(tc_id=0))}

    def trace_targets(self) -> list:
        tc, dc = self.kernel.tc, self.kernel.dc
        targets = [
            (tc, "begin", "tc.begin"),
            (tc, "commit", "tc.commit"),
            (tc.locks, "acquire", "tc.lock_manager.acquire"),
            (tc.locks, "release_all", "tc.lock_manager.release_all"),
            (tc.log, "append", "tc.log.append"),
            (tc.log, "force", "tc.log.force"),
        ]
        for channel in tc.channels().values():
            targets.append((channel, "request", _message_kind("net.channel.request")))
            if self.remote:
                targets += [
                    (channel, "request_async", _message_kind("net.channel.request_async")),
                    (channel, "finish_async", "net.channel.finish_async"),
                    (channel, "flush", "net.channel.flush"),
                ]
        if self.remote:
            targets += [
                (dc, "call", "net.process.call"),
                # The sync path bypasses RemoteDc.submit, so the send cost
                # is only visible one level down; skipped if it moves.
                (getattr(dc, "_transport", None), "submit", "net.process.submit"),
            ]
        else:
            structure = dc.table(TABLE).structure
            targets += [
                (dc, "handle", "dc.handle"),
                (dc, "perform_operation", "dc.perform_operation"),
                (dc.buffer, "fetch", "storage.buffer.fetch"),
                (dc.buffer, "try_flush", "storage.buffer.try_flush"),
                (dc.storage, "read_page", "storage.disk.read_page"),
                (dc.storage, "write_page", "storage.disk.write_page"),
                (structure, "get_record", "storage.btree.get_record"),
                (structure, "ensure_room", "storage.btree.ensure_room"),
                (structure, "iter_range", "storage.btree.iter_range"),
            ]
        return targets

    #: Spans whose self time is spent waiting on another process.
    wait_spans = ("net.process.call", "net.channel.finish_async")

    def _close(self) -> None:
        self.kernel.close()


class ServiceDeployment(_Deployment):
    """``TcServiceDeployment``: router -> TC process -> DC process."""

    server_roles = ("tc", "dc")
    remote = True

    def __init__(self, work_dir: str) -> None:
        super().__init__(work_dir)
        self.dep = TcServiceDeployment(
            tc_count=1,
            dc_count=1,
            data_dir=work_dir,
            tc_config=tc_config(),
            dc_config=DcConfig(),
        )
        try:
            self.dep.create_table(TABLE)
        except BaseException:
            self.dep.close()
            raise
        self.router = self.dep.router
        self.metrics = self.dep.tcs["tc1"].metrics
        self.tc = self.dep.tcs["tc1"]
        self.dc = self.dep.dcs["dc1"]

    def begin(self, key):
        return self.router.begin(key)

    def checkpoint(self) -> None:
        self.tc.checkpoint()
        self.dc.checkpoint_dc_log()

    def pids(self) -> dict:
        return {"tc": self.tc.pid, "dc": self.dc.pid}

    def counters(self) -> dict:
        client = dict(self.tc.metrics.counters())
        for name, value in self.dc.metrics.counters().items():
            client[name] = client.get(name, 0) + value
        client["router.redirects_followed"] = self.router.redirects_followed
        tc_stats, dc_stats = self.tc.stats(), self.dc.stats()
        dc = dict(dc_stats["counters"])
        dc["journal.size_bytes"] = dc_stats["journal_bytes"]
        return {"client": client, "tc": dict(tc_stats["counters"]), "dc": dc}

    def crash_dc(self) -> None:
        self.dc.crash()

    def _watch(self, supervisor: Supervisor) -> None:
        supervisor.watch_deployment(self.dep)

    def capture_point(self) -> tuple:
        return self.tc, "call"

    def noop_round_trips(self) -> dict:
        tc, dc = self.tc, self.dc
        return {
            "net.dcserver.noop_rtt_us": lambda: dc.control(TableList(tc_id=0)),
            "net.tcserver.noop_rtt_us": lambda: tc.control(
                TcRetryPending(tc_id=tc.tc_id)
            ),
        }

    def trace_targets(self) -> list:
        return [
            (self.router, "begin", "cloud.router.begin"),
            (self.tc, "control", "net.tcclient.control"),
            (self.tc, "call", "net.tcclient.call"),
            (getattr(self.tc, "_transport", None), "submit", "net.tcclient.submit"),
        ]

    wait_spans = ("net.tcclient.call",)

    def _close(self) -> None:
        self.dep.close()


def build(deployment: str, work_dir: str) -> _Deployment:
    if deployment == "svc":
        return ServiceDeployment(work_dir)
    return KernelDeployment(work_dir, "process" if deployment == "pipe" else "inproc")
