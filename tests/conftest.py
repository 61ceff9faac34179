"""Shared fixtures for the test suite."""

from __future__ import annotations

import threading

import pytest

from repro import KernelConfig, Metrics, UnbundledKernel
from repro.common.config import ChannelConfig, DcConfig, TcConfig
from repro.sim.faults import FaultAction, FaultInjector, FaultPoint, FaultRule


@pytest.fixture
def metrics() -> Metrics:
    return Metrics()


@pytest.fixture
def kernel() -> UnbundledKernel:
    """A default single-DC kernel with one table ``t``."""
    kernel = UnbundledKernel()
    kernel.create_table("t")
    return kernel


@pytest.fixture
def small_page_kernel() -> UnbundledKernel:
    """Small pages force frequent splits/consolidations."""
    config = KernelConfig(dc=DcConfig(page_size=512))
    kernel = UnbundledKernel(config)
    kernel.create_table("t")
    return kernel


def lossy(seed: int = 0, loss: float = 0.0, duplicate: float = 0.0) -> FaultInjector:
    """§4.2.1's network as a seeded fault schedule: each request and each
    reply is lost with probability ``loss``, and each request that gets
    through is delivered twice with probability ``duplicate``.  Pass it as
    a kernel's ``faults``, or its ``schedule`` to a ``ChaosRunner``."""
    send, recv = FaultPoint.CHANNEL_SEND, FaultPoint.CHANNEL_RECV
    rules = [
        FaultRule(send, FaultAction.DROP, rate=loss, note="loss"),
        FaultRule(send, FaultAction.DUPLICATE, rate=duplicate, note="duplicate"),
        FaultRule(recv, FaultAction.DROP, rate=loss, note="loss"),
    ]
    return FaultInjector([rule for rule in rules if rule.rate], seed=seed)


def populate(kernel: UnbundledKernel, count: int, table: str = "t") -> None:
    for key in range(count):
        with kernel.begin() as txn:
            txn.insert(table, key, f"value-{key:05d}")


def run_in_threads(work, threads: int, timeout: float = 60.0) -> None:
    """Run ``work(thread_id)`` on ``threads`` threads at once; fail on the
    first error any of them raised or on one still running at ``timeout``."""
    errors: list[BaseException] = []

    def guarded(thread_id: int) -> None:
        try:
            work(thread_id)
        except BaseException as exc:  # surfaced below, after the joins
            errors.append(exc)

    workers = [threading.Thread(target=guarded, args=(i,)) for i in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout)
    assert not any(worker.is_alive() for worker in workers)
    assert not errors, errors


@pytest.fixture
def populated_kernel(small_page_kernel: UnbundledKernel) -> UnbundledKernel:
    populate(small_page_kernel, 120)
    return small_page_kernel


def image_fields(image):
    """Every field of a :class:`~repro.storage.page.PageImage`, records
    spelled out, in a form ``==`` compares — for differential and
    round-trip tests (``None`` for a missing page)."""
    if image is None:
        return None
    return {
        "page_id": image.page_id,
        "kind": image.kind,
        "dlsn": image.dlsn,
        "page_lsn": image.page_lsn,
        "ablsns": dict(image.ablsns),
        "records": [
            (
                r.key,
                r.committed,
                r.pending,
                r.has_pending,
                r.owner_tc,
                r.commit_seq,
                list(r.history),
            )
            for r in image.records
        ],
        "records_bytes": image.records_bytes,
        "separators": tuple(image.separators),
        "children": tuple(image.children),
        "encoded_size": image.encoded_size(),
    }
