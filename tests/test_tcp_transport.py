"""The TCP data plane and frame coalescing (docs/architecture.md §17).

Same protocol, different pipes: every §4.2.1 / §5.3.2 contract the Unix
socket tests prove must hold verbatim when the TC↔DC traffic crosses
loopback TCP — including the operational wrinkle Unix sockets do not
have: the server binds an *ephemeral* port (``tcp://host:0``), so the
resolved address reported in the Hello must be pinned into the proxy's
``listen_path`` or a §5.2.1 heal would rebind a different port and every
socket client would dial a dead address.

Coalescing rides along: deferred frames must reach the wire before any
reply is awaited (flush-before-await), and a non-deferred send must not
overtake buffered deferred frames (ordering), both of which are easy to
get wrong and show up here as hangs, not wrong answers.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

pytestmark = pytest.mark.process

from repro.cloud.router import TcServiceDeployment
from repro.common.config import ChannelConfig, KernelConfig, TcConfig
from repro.kernel.unbundled import UnbundledKernel
from repro.net.process import RemoteDc, StatsRequest
from repro.sim.supervisor import Supervisor


def tcp_config(**tc_overrides) -> KernelConfig:
    return KernelConfig(
        tc=TcConfig.optimized(**tc_overrides),
        channel=ChannelConfig(
            transport="process",
            request_timeout_s=15.0,
            listen_host="127.0.0.1",
        ),
        tc_processes=1,
    )


def kill_process(pid: int, proxy) -> None:
    os.kill(pid, signal.SIGKILL)
    deadline = time.monotonic() + 10.0
    while not proxy.crashed and time.monotonic() < deadline:
        time.sleep(0.01)
    assert proxy.crashed


class TestTcpListener:
    def test_ephemeral_port_resolved_and_pinned(self, tmp_path):
        dc = RemoteDc(
            "dcx",
            journal_path=str(tmp_path / "dcx.journal"),
            listen_path="tcp://127.0.0.1:0",
        )
        try:
            host_port = dc.listen_path.removeprefix("tcp://")
            host, _, port = host_port.rpartition(":")
            assert host == "127.0.0.1" and int(port) != 0
        finally:
            dc.shutdown()

    def test_dc_client_over_tcp(self, tmp_path):
        dc = RemoteDc(
            "dcx",
            journal_path=str(tmp_path / "dcx.journal"),
            listen_path="tcp://127.0.0.1:0",
        )
        client = None
        try:
            dc.create_table("t")
            client = RemoteDc("dcx", socket_path=dc.listen_path)
            stats = client.stats()
            assert "t" in stats["dc"]["tables"]
            # The negotiated fast map is live on the socket connection.
            assert client._transport.fast
        finally:
            if client is not None:
                client.close()
            dc.shutdown()


class TestTcpKernel:
    def test_commit_and_read_over_tcp(self):
        with UnbundledKernel(config=tcp_config(), dc_count=2) as kernel:
            assert all(
                dc.listen_path.startswith("tcp://127.0.0.1:")
                for dc in kernel.dcs.values()
            )
            kernel.create_table("t", dc_name="dc1")
            kernel.create_table("u", dc_name="dc2")
            txn = kernel.begin()
            txn.insert("t", 1, {"v": 10})
            txn.insert("u", 2, {"v": 20})
            txn.commit()
            txn = kernel.begin()
            assert txn.read("t", 1) == {"v": 10}
            assert txn.read("u", 2) == {"v": 20}
            txn.commit()

    def test_deferred_writes_coalesce_and_drain(self):
        """Client-side pipelining: past _MAX_PENDING deferred writes in one
        transaction, drained at commit, all visible afterwards."""
        with UnbundledKernel(config=tcp_config(), dc_count=1) as kernel:
            kernel.create_table("t")
            txn = kernel.begin()
            for key in range(70):  # > RemoteTransaction._MAX_PENDING
                txn.insert("t", key, {"v": key})
            txn.commit()
            txn = kernel.begin()
            assert [txn.read("t", k)["v"] for k in range(70)] == list(range(70))
            txn.commit()

    def test_read_drains_pending_writes_first(self):
        with UnbundledKernel(config=tcp_config(), dc_count=1) as kernel:
            kernel.create_table("t")
            txn = kernel.begin()
            txn.insert("t", "k", 1)
            txn.update("t", "k", 2)
            # Read-your-writes across the deferred buffer.
            assert txn.read("t", "k") == 2
            txn.commit()

    def test_sigkill_dc_heals_on_the_same_port(self):
        """Port pinning under §5.2.1: the healed server re-binds the
        resolved address, so the TC server's socket reconnect succeeds."""
        with UnbundledKernel(config=tcp_config(), dc_count=1) as kernel:
            kernel.create_table("t")
            txn = kernel.begin()
            txn.insert("t", "counter", 0)
            txn.commit()
            dc = kernel.dc
            addr_before = dc.listen_path
            supervisor = Supervisor(metrics=kernel.metrics)
            supervisor.watch_kernel(kernel)
            txn = kernel.begin()
            # Enough increments to span coalesced batches either side of
            # the kill: the §4.2.1 resend machinery must converge to
            # exactly-once across the mid-batch process death.
            for _ in range(12):
                txn.increment("t", "counter", 1)
            kill_process(dc.pid, dc)
            report = supervisor.heal()
            assert report.dc_restarts >= 1
            assert dc.listen_path == addr_before
            txn.commit()
            txn = kernel.begin()
            assert txn.read("t", "counter") == 12
            txn.commit()

    def test_sigkill_tc_heals_over_tcp(self):
        with UnbundledKernel(config=tcp_config(), dc_count=1) as kernel:
            kernel.create_table("t")
            txn = kernel.begin()
            txn.insert("t", "counter", 0)
            txn.commit()
            supervisor = Supervisor(metrics=kernel.metrics)
            supervisor.watch_kernel(kernel)
            kill_process(kernel.tc_pid, kernel.tc)
            report = supervisor.heal()
            assert report.tc_restarts == 1
            txn = kernel.begin()
            txn.increment("t", "counter", 5)
            txn.commit()
            txn = kernel.begin()
            assert txn.read("t", "counter") == 5
            txn.commit()


class TestTcpServiceTier:
    def test_deployment_router_over_tcp(self):
        with TcServiceDeployment(
            tc_count=2, dc_count=2, partitions=8, listen_host="127.0.0.1"
        ) as dep:
            dep.create_table("t")
            assert all(
                dc.listen_path.startswith("tcp://127.0.0.1:")
                for dc in dep.dcs.values()
            )
            router = dep.router

            def txn_fn(tc):
                with tc.begin() as txn:
                    txn.insert("t", "acct", 0)
                    txn.increment("t", "acct", 7)
                return tc.name

            assert router.execute("acct", txn_fn) == router.owner_of("acct").name
            assert router.read_other("t", "acct") == 7


class TestCoalescingTransport:
    def test_deferred_frames_stay_buffered_until_flush(self, tmp_path):
        dc = RemoteDc("dcx", journal_path=str(tmp_path / "dcx.journal"))
        try:
            futures = [
                dc.submit(StatsRequest(tc_id=0), defer=True) for _ in range(3)
            ]
            time.sleep(0.1)
            assert not any(f.done() for f in futures)
            dc.flush()
            payloads = [f.result(10.0).payload for f in futures]
            assert all(p["pid"] == dc.pid for p in payloads)
        finally:
            dc.shutdown()

    def test_nondeferred_send_does_not_overtake_deferred(self, tmp_path):
        """Ordering invariant: a plain call issued after deferred frames
        flushes those first, so replies arrive for all four."""
        dc = RemoteDc("dcx", journal_path=str(tmp_path / "dcx.journal"))
        try:
            deferred = [
                dc.submit(StatsRequest(tc_id=0), defer=True) for _ in range(3)
            ]
            direct = dc.control(StatsRequest(tc_id=0))
            assert direct.payload["pid"] == dc.pid
            assert [f.result(10.0).payload["pid"] for f in deferred] == [dc.pid] * 3
        finally:
            dc.shutdown()
