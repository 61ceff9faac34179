"""Self-healing supervision and graceful degradation.

The paper's recovery mechanisms (Sections 5.2-5.3) assume *something*
notices a crash and drives the restart protocol; these tests pin down that
policy layer:

- a write addressed at a down DC fails fast with a typed
  :class:`ComponentUnavailableError` inside the configured timeout budget
  — never an unbounded retry loop;
- sustained channel loss (the DC is up, the wire is not) surfaces as
  :class:`ResendExhaustedError` with the attempt/backoff accounting;
- :meth:`Supervisor.heal` restarts crashed DCs and TCs, lifts partitions,
  finishes zombie rollbacks, and leaves every acknowledged commit intact.
"""

from __future__ import annotations

import pytest

from repro.common.config import KernelConfig, TcConfig
from repro.common.errors import (
    ComponentUnavailableError,
    CrashedError,
    ResendExhaustedError,
)
from repro.common.ops import ReadFlavor
from repro.kernel.unbundled import UnbundledKernel
from repro.sim.faults import FaultAction, FaultInjector, FaultPoint, FaultRule
from repro.sim.supervisor import Supervisor, SupervisorGaveUp


def build_kernel(
    injector=None,
    budget_ms: float = 200.0,
    attempts: int = 24,
    versioned: bool = False,
):
    config = KernelConfig(
        tc=TcConfig(
            group_commit_size=1,
            op_timeout_budget_ms=budget_ms,
            max_resend_attempts=attempts,
        )
    )
    kernel = UnbundledKernel(config=config, dc_count=2, faults=injector)
    names = list(kernel.dcs)
    kernel.create_table("t", dc_name=names[0], versioned=versioned)
    kernel.create_table("u", dc_name=names[1], versioned=versioned)
    return kernel


def put(kernel, table, key, value):
    txn = kernel.begin()
    txn.insert(table, key, value)
    txn.commit()


class TestFailFast:
    def test_down_dc_raises_typed_error_within_budget(self):
        kernel = build_kernel()
        dc1, dc2 = kernel.dcs.values()
        put(kernel, "t", 1, "a")
        dc1.crash()
        txn = kernel.begin()
        with pytest.raises(ComponentUnavailableError) as excinfo:
            txn.insert("t", 2, "b")
        err = excinfo.value
        # Fail fast: the down state is known, so no resend burn at all.
        assert err.waited_ms <= kernel.tc.config.op_timeout_budget_ms
        assert err.attempts <= kernel.tc.config.max_resend_attempts
        # Typed *and* compatible: it still is a CrashedError.
        assert isinstance(err, CrashedError)

    def test_healthy_dc_keeps_serving_while_other_is_down(self):
        kernel = build_kernel()
        dc1, dc2 = kernel.dcs.values()
        put(kernel, "u", 5, "healthy")
        dc1.crash()
        assert (
            kernel.tc.read_other("u", 5, flavor=ReadFlavor.READ_COMMITTED)
            == "healthy"
        )

    def test_sustained_loss_exhausts_resend_policy(self):
        injector = FaultInjector(
            [
                FaultRule(
                    FaultPoint.CHANNEL_SEND,
                    FaultAction.DROP,
                    target="dc1",
                    after=1,
                    count=10**6,
                )
            ]
        )
        kernel = build_kernel(injector, budget_ms=50.0, attempts=12)
        txn = kernel.begin()
        with pytest.raises(ResendExhaustedError) as excinfo:
            txn.insert("t", 1, "x")
        err = excinfo.value
        assert err.attempts <= 12
        assert err.waited_ms <= 50.0 + kernel.tc.config.retry_policy().max_backoff_ms

    def test_snapshot_on_down_dc_fails_fast_unless_degraded(self):
        kernel = build_kernel(versioned=True)
        dc1, _dc2 = kernel.dcs.values()
        put(kernel, "t", 1, "a")
        put(kernel, "u", 2, "b")
        dc1.crash()
        with pytest.raises(ComponentUnavailableError):
            kernel.tc.begin_snapshot()
        reader = kernel.tc.begin_snapshot(allow_degraded=True)
        assert reader.read("u", 2) == "b"  # the healthy DC still answers
        with pytest.raises(ComponentUnavailableError):
            reader.read("t", 1)  # the down DC fails fast, typed


class TestSupervisorHealing:
    def test_restarts_crashed_dc_and_preserves_commits(self):
        injector = FaultInjector()
        kernel = build_kernel(injector)
        supervisor = Supervisor(injector)
        supervisor.watch_kernel(kernel)
        for key in range(8):
            put(kernel, "t", key, f"v{key}")
        dc1 = next(iter(kernel.dcs.values()))
        dc1.crash()
        assert not supervisor.all_healthy()
        report = supervisor.heal()
        assert report.dc_restarts == 1
        assert supervisor.all_healthy()
        for key in range(8):
            assert (
                kernel.tc.read_other("t", key, flavor=ReadFlavor.READ_COMMITTED)
                == f"v{key}"
            )

    def test_restarts_crashed_tc_and_preserves_commits(self):
        injector = FaultInjector()
        kernel = build_kernel(injector)
        supervisor = Supervisor(injector)
        supervisor.watch_kernel(kernel)
        for key in range(6):
            put(kernel, "t", key, f"v{key}")
        kernel.tc.crash()
        report = supervisor.heal()
        assert report.tc_restarts == 1
        assert supervisor.all_healthy()
        put(kernel, "t", 99, "after-heal")  # fully operational again
        for key in list(range(6)) + [99]:
            expected = "after-heal" if key == 99 else f"v{key}"
            assert (
                kernel.tc.read_other("t", key, flavor=ReadFlavor.READ_COMMITTED)
                == expected
            )

    def test_lifts_partition_and_finishes_zombie_rollback(self):
        injector = FaultInjector(
            [
                FaultRule(
                    FaultPoint.CHANNEL_SEND,
                    FaultAction.PARTITION,
                    target="dc1",
                    after=1,
                )
            ]
        )
        kernel = build_kernel(injector)
        supervisor = Supervisor(injector)
        supervisor.watch_kernel(kernel)
        txn = kernel.begin()
        with pytest.raises(CrashedError):
            txn.insert("t", 1, "doomed")  # partition starts on this send
        # The abort cannot reach the DC either: it parks a zombie rollback.
        try:
            txn.abort()
        except CrashedError:
            pass
        assert kernel.tc.pending_zombies() >= 0  # parked or already empty
        report = supervisor.heal()
        assert report.partitions_lifted == 1
        assert supervisor.all_healthy()
        assert kernel.tc.pending_zombies() == 0
        # Nothing from the aborted transaction is visible.
        assert (
            kernel.tc.read_other("t", 1, flavor=ReadFlavor.READ_COMMITTED) is None
        )

    def test_crash_notices_recorded_and_marked_healed(self):
        injector = FaultInjector()
        kernel = build_kernel(injector)
        supervisor = Supervisor(injector)
        supervisor.watch_kernel(kernel)
        dc1 = next(iter(kernel.dcs.values()))
        dc1.crash()
        kernel.tc.crash()
        assert {(n.component, n.kind) for n in supervisor.notices} == {
            (dc1.name, "dc"),
            (kernel.tc.name, "tc"),
        }
        supervisor.heal()
        assert all(notice.healed for notice in supervisor.notices)

    def test_heal_is_idempotent_noop_when_healthy(self):
        injector = FaultInjector()
        kernel = build_kernel(injector)
        supervisor = Supervisor(injector)
        supervisor.watch_kernel(kernel)
        report = supervisor.heal()
        assert report.rounds == 1
        assert not report.acted

    def test_heals_sigkilled_dc_process(self):
        """Process deployment mode: the 'crash' is a real ``kill -9`` of a
        DC server process, mid-transaction, under the optimized fast-path
        config — the supervisor restarts it (journal replay + §5.2.1 redo
        prompt) and resend + abLSN idempotence converge on exactly-once."""
        import os
        import signal
        import time

        from repro.common.config import ChannelConfig

        config = KernelConfig(
            tc=TcConfig.optimized(),
            channel=ChannelConfig(transport="process", request_timeout_s=15.0),
        )
        with UnbundledKernel(config=config, dc_count=1) as kernel:
            kernel.create_table("t")
            supervisor = Supervisor()
            supervisor.watch_kernel(kernel)
            txn = kernel.begin()
            txn.insert("t", "n", 0)
            txn.commit()
            txn = kernel.begin()
            for _ in range(12):  # batch_max_ops=8: a prefix reaches the DC
                txn.increment("t", "n", 1)
            os.kill(kernel.dc.pid, signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            while not kernel.dc.crashed and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not supervisor.all_healthy()
            report = supervisor.heal()
            assert report.dc_restarts == 1
            assert supervisor.all_healthy()
            txn.commit()
            txn = kernel.begin()
            assert txn.read("t", "n") == 12  # not 11, not 13: exactly once
            txn.commit()
            assert kernel.dc.restarts == 1

    def test_gave_up_carries_reproduction_recipe(self):
        injector = FaultInjector(seed=77)
        kernel = build_kernel(injector)
        supervisor = Supervisor(injector, max_rounds=2)
        supervisor.watch_kernel(kernel)
        dc1 = next(iter(kernel.dcs.values()))
        dc1.crash()
        dc1.recover = lambda **kwargs: (_ for _ in ()).throw(CrashedError(dc1.name))
        with pytest.raises(SupervisorGaveUp) as excinfo:
            supervisor.heal()
        assert "seed=77" in str(excinfo.value)
        assert excinfo.value.rounds == 2
