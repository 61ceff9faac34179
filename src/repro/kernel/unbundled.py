"""One-call assembly of an unbundled kernel (Figure 1).

``UnbundledKernel`` wires one TC to one or more DCs over configurable
channels and exposes the small surface applications use: create tables,
begin transactions, checkpoint, inject crashes, recover.  Multi-TC
deployments (Section 6) are assembled explicitly by
:mod:`repro.cloud.deployment` instead, since they need ownership
partitioning.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from typing import TYPE_CHECKING, Optional

from repro.common.config import KernelConfig
from repro.common.errors import ReproError
from repro.dc.data_component import DataComponent
from repro.obs.tracing import NULL_TRACER
from repro.sim.metrics import Metrics
from repro.storage.buffer import ResetMode
from repro.tc.transactional_component import Transaction, TransactionalComponent

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.sim.faults import FaultInjector


class UnbundledKernel:
    """A TC plus ``dc_count`` DCs — the Figure 1 architecture, assembled."""

    def __init__(
        self,
        config: Optional[KernelConfig] = None,
        metrics: Optional[Metrics] = None,
        dc_count: int = 1,
        faults: Optional["FaultInjector"] = None,
        tracer: Optional[object] = None,
    ) -> None:
        self.config = config or KernelConfig()
        self.metrics = metrics or Metrics()
        self.faults = faults
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.dcs: dict[str, DataComponent] = {}
        self._data_dir: Optional[str] = None
        self._owns_data_dir = False
        process_mode = self.config.channel.transport == "process"
        tc_process_mode = self.config.tc_processes >= 1
        if process_mode and faults is not None:
            raise ReproError(
                "fault injection hooks are local-only; the process transport "
                "exercises failures by killing DC processes instead "
                "(docs/architecture.md §10)"
            )
        if self.config.tc_processes > 1:
            raise ReproError(
                "the kernel assembles one TC; a horizontally scaled TC tier "
                "(tc_processes > 1) is a cloud deployment — use "
                "repro.cloud.router.TcServiceDeployment"
            )
        if tc_process_mode:
            self.tc = None  # spawned below, once the DC sockets exist
        else:
            self.tc = TransactionalComponent(
                config=self.config.tc,
                metrics=self.metrics,
                faults=faults,
                tracer=self.tracer,
            )
        if process_mode:
            from repro.net.process import RemoteDc

            self._data_dir = self.config.data_dir or tempfile.mkdtemp(
                prefix="repro-dcs-"
            )
            self._owns_data_dir = self.config.data_dir is None
            os.makedirs(self._data_dir, exist_ok=True)
        try:
            for index in range(dc_count):
                name = f"dc{index + 1}" if dc_count > 1 else "dc"
                if process_mode:
                    # With a TC process in play the DC must also listen on a
                    # socket — the TC server connects there, not via our pipe.
                    # listen_host selects the TCP data plane (ephemeral port,
                    # pinned from the Hello) over Unix-domain sockets.
                    listen = ""
                    if tc_process_mode:
                        if self.config.channel.listen_host:
                            listen = f"tcp://{self.config.channel.listen_host}:0"
                        else:
                            listen = os.path.join(self._data_dir, f"{name}.sock")
                    dc = RemoteDc(
                        name,
                        config=self.config.dc,
                        metrics=self.metrics,
                        journal_path=os.path.join(self._data_dir, f"{name}.journal"),
                        request_timeout_s=self.config.channel.request_timeout_s,
                        listen_path=listen,
                    )
                else:
                    dc = DataComponent(
                        name,
                        config=self.config.dc,
                        metrics=self.metrics,
                        faults=faults,
                        tracer=self.tracer,
                    )
                self.dcs[name] = dc
                if self.tc is not None:
                    self.tc.attach_dc(dc, self.config.channel)
            if tc_process_mode:
                from repro.net.tcclient import RemoteTc

                self.tc = RemoteTc(
                    "tc1",
                    tc_id=1,
                    journal_path=os.path.join(self._data_dir, "tc1.journal"),
                    dcs={dc.name: dc.listen_path for dc in self.dcs.values()},
                    config=self.config.tc,
                    metrics=self.metrics,
                    sharing_mode=self.config.tc.sharing_mode,
                    request_timeout_s=self.config.channel.request_timeout_s,
                )
                for dc in self.dcs.values():
                    dc.restart_listeners.append(self._notify_tc_of_dc_restart)
        except BaseException:
            # Servers spawned so far (and their pipes and transport
            # threads) must not outlive a construction that failed.
            self.close()
            raise

    def _notify_tc_of_dc_restart(self, dc) -> None:
        """§5.2.1 prompt forwarding for the fully unbundled topology: the
        TC server holds its *own* connection to the healed DC, so the heal
        must be relayed rather than handled in this process.  A crashed TC
        needs no relay — its restart rebuilds every DC connection."""
        if not self.tc.crashed:
            self.tc.notify_dc_restart(dc.name)

    @property
    def dc(self) -> DataComponent:
        """The sole DC (convenience for single-DC kernels)."""
        if len(self.dcs) != 1:
            raise ValueError("kernel has multiple DCs; address them by name")
        return next(iter(self.dcs.values()))

    # -- schema ---------------------------------------------------------------

    def create_table(
        self,
        name: str,
        kind: str = "btree",
        versioned: bool = False,
        dc_name: Optional[str] = None,
        bucket_count: int = 16,
    ) -> None:
        dc = self.dcs[dc_name] if dc_name is not None else self.dc
        dc.create_table(name, kind=kind, versioned=versioned, bucket_count=bucket_count)
        self.tc.refresh_routes(dc)

    # -- transactions ---------------------------------------------------------------

    def begin(self) -> Transaction:
        return self.tc.begin()

    def checkpoint(self) -> bool:
        return self.tc.checkpoint()

    # -- failure injection -------------------------------------------------------------

    def crash_dc(self, dc_name: Optional[str] = None) -> None:
        dc = self.dcs[dc_name] if dc_name is not None else self.dc
        dc.crash()

    def recover_dc(self, dc_name: Optional[str] = None) -> None:
        """DC restart: structures first, then the TC is prompted to redo."""
        dc = self.dcs[dc_name] if dc_name is not None else self.dc
        dc.recover(notify_tcs=True)

    def crash_tc(self) -> int:
        return self.tc.crash()

    def recover_tc(self, reset_mode: ResetMode = ResetMode.RECORD_RESET) -> dict:
        return self.tc.restart(reset_mode)

    @property
    def tc_pid(self) -> Optional[int]:
        """PID of the TC server process (None for an in-process TC)."""
        return getattr(self.tc, "pid", None) if self.config.tc_processes else None

    def crash_all(self) -> None:
        """The fail-together case: no new techniques needed (Section 5.3)."""
        self.tc.crash()
        for dc in self.dcs.values():
            dc.crash()

    def recover_all(self) -> None:
        for dc in self.dcs.values():
            dc.recover(notify_tcs=False)
        self.tc.restart()

    # -- lifecycle (process deployment mode) -------------------------------------------

    def close(self) -> None:
        """Shut down TC/DC server processes and reclaim a kernel-owned data
        directory.  A no-op for the in-process transport."""
        tc_shutdown = getattr(self.tc, "shutdown", None)
        if tc_shutdown is not None:
            # The TC holds client connections into the DC pool; stop it
            # before its DCs disappear out from under it.
            tc_shutdown()
        for dc in self.dcs.values():
            shutdown = getattr(dc, "shutdown", None)
            if shutdown is not None:
                shutdown()
        if self._owns_data_dir and self._data_dir is not None:
            shutil.rmtree(self._data_dir, ignore_errors=True)
            self._data_dir = None

    def __enter__(self) -> "UnbundledKernel":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()
