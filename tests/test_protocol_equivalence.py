"""Property: every configuration computes the same answers.

The range protocols, sync strategies, channel behaviors and engines are
implementation choices — none may change results.  Hypothesis drives the
same random workload through each configuration and compares final states
pairwise.
"""

from __future__ import annotations

import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import KernelConfig, UnbundledKernel
from repro.common.config import (
    DcConfig,
    PageSyncStrategy,
    RangeLockProtocol,
    TcConfig,
)
from repro.common.errors import (
    DuplicateKeyError,
    LockTimeoutError,
    NoSuchRecordError,
    TransactionAborted,
)
from repro.kernel.monolithic import MonolithicEngine
from repro.tc.handle import TransactionState
from tests.conftest import lossy

step = st.tuples(
    st.sampled_from(["insert", "update", "delete", "scan"]),
    st.integers(min_value=0, max_value=30),
)


def run_workload(kernel, steps):
    observed = []
    for action, key in steps:
        txn = kernel.begin()
        try:
            if action == "insert":
                txn.insert("t", key, f"v{key}")
            elif action == "update":
                txn.update("t", key, f"u{key}")
            elif action == "delete":
                txn.delete("t", key)
            else:
                observed.append(tuple(txn.scan("t", key, key + 5)))
            txn.commit()
        except (DuplicateKeyError, NoSuchRecordError):
            txn.abort()
    with kernel.begin() as txn:
        final = tuple(txn.scan("t"))
    return observed, final


def kernel_with(**kwargs):
    config = KernelConfig(
        dc=DcConfig(page_size=512, **kwargs.get("dc", {})),
        tc=TcConfig(**kwargs.get("tc", {})),
    )
    kernel = UnbundledKernel(config, faults=kwargs.get("faults"))
    kernel.create_table("t")
    if kwargs.get("boundaries"):
        kernel.tc.protocol.set_boundaries("t", kwargs["boundaries"])
    return kernel


@settings(
    max_examples=35,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(steps=st.lists(step, max_size=40))
def test_range_protocols_agree(steps):
    fetch_ahead = kernel_with(tc={"range_protocol": RangeLockProtocol.FETCH_AHEAD})
    partitions = kernel_with(
        tc={"range_protocol": RangeLockProtocol.RANGE_PARTITION},
        boundaries=[10, 20],
    )
    results = [run_workload(kernel, steps) for kernel in (fetch_ahead, partitions)]
    assert results[0] == results[1]


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(steps=st.lists(step, max_size=30))
def test_sync_strategies_agree(steps):
    results = []
    for strategy in PageSyncStrategy:
        kernel = kernel_with(dc={"sync_strategy": strategy})
        results.append(run_workload(kernel, steps))
    assert results[0] == results[1] == results[2]


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    steps=st.lists(step, max_size=30),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_hostile_channel_agrees_with_clean(steps, seed):
    clean = kernel_with()
    hostile = kernel_with(faults=lossy(seed, loss=0.2, duplicate=0.15))
    assert run_workload(clean, steps) == run_workload(hostile, steps)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(steps=st.lists(step, max_size=30))
def test_monolithic_agrees_with_unbundled(steps):
    unbundled = kernel_with()
    mono = engine_with("monolithic")
    assert run_workload(unbundled, steps) == run_workload(mono, steps)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(steps=st.lists(step, max_size=30))
def test_heap_agrees_with_btree(steps):
    btree = kernel_with()
    heap = UnbundledKernel(KernelConfig(dc=DcConfig(page_size=4096)))
    heap.dc.create_table("t", kind="heap", bucket_count=16)
    heap.tc.refresh_routes(heap.dc)
    assert run_workload(btree, steps) == run_workload(heap, steps)


def engine_with(kind, **tc):
    """An unbundled kernel or the monolithic baseline, table ``t`` created."""
    if kind == "unbundled":
        return kernel_with(tc=tc)
    engine = MonolithicEngine(DcConfig(page_size=512), TcConfig(**tc))
    engine.create_table("t")
    return engine


@pytest.mark.parametrize("kind", ["unbundled", "monolithic"])
def test_lock_timeout_aborts_the_transaction(kind):
    """A lock timeout ends the transaction: its earlier write is undone
    and its commit refused."""
    engine = engine_with(kind, lock_timeout=0.05)
    with engine.begin() as setup:
        setup.insert("t", 3, "a")
        setup.insert("t", 7, "b")
    holder = engine.begin()
    holder.update("t", 7, "t1-write")
    waiter = engine.begin()
    waiter.update("t", 3, "t2-write")
    with pytest.raises(LockTimeoutError):
        waiter.read("t", 7)
    assert waiter.state is TransactionState.ABORTED
    with pytest.raises(TransactionAborted):
        waiter.commit()
    holder.commit()
    with engine.begin() as check:
        assert check.read("t", 3) == "a"
        assert check.read("t", 7) == "t1-write"


@pytest.mark.parametrize("kind", ["unbundled", "monolithic"])
def test_lock_waiter_does_not_stall_the_holders_commit(kind):
    """A transaction waiting for a lock holds nothing the holder's commit
    needs: the commit returns at once and the waiter is then granted."""
    timeout = 1.0
    engine = engine_with(kind, lock_timeout=timeout)
    metrics = engine.metrics if kind == "monolithic" else engine.tc.metrics
    with engine.begin() as setup:
        setup.insert("t", 1, "a")
    holder = engine.begin()
    holder.update("t", 1, "t1-write")
    waiter = engine.begin()
    outcome: list[object] = []

    def wait_then_commit() -> None:
        try:
            waiter.update("t", 1, "t2-write")
            waiter.commit()
            outcome.append("committed")
        except Exception as exc:  # the assertion below reports it
            outcome.append(exc)

    thread = threading.Thread(target=wait_then_commit)
    thread.start()
    deadline = time.monotonic() + timeout / 2
    while metrics.get("locks.waits") == 0 and time.monotonic() < deadline:
        time.sleep(0.001)
    assert metrics.get("locks.waits") >= 1, "the waiter never blocked"
    started = time.perf_counter()
    holder.commit()
    elapsed = time.perf_counter() - started
    thread.join()
    assert elapsed < timeout / 4
    assert outcome == ["committed"]
    with engine.begin() as check:
        assert check.read("t", 1) == "t2-write"
