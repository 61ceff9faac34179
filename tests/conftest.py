"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro import KernelConfig, Metrics, UnbundledKernel
from repro.common.config import ChannelConfig, DcConfig, TcConfig


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


def populate(kernel: UnbundledKernel, count: int, table: str = "t") -> None:
    for key in range(count):
        with kernel.begin() as txn:
            txn.insert(table, key, f"value-{key:05d}")


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
