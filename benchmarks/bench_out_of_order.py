"""E-OOO — out-of-order execution and the abLSN machinery (Section 5.1).

Series regenerated:

- DC throughput under increasing reorder windows (the abLSN containment
  test absorbs arbitrary reordering of non-conflicting operations);
- the cost of duplicate filtering (resends of already-applied operations);
- abLSN space vs the rejected record-level-LSN alternative
  ("very expensive in the space required", Section 5.1.1).
"""

from __future__ import annotations

import random

import pytest

from benchmarks.conftest import series
from repro.common.api import PerformOperation
from repro.common.config import ChannelConfig, DcConfig
from repro.common.lsn import LSN_ENCODED_BYTES
from repro.common.ops import InsertOp, RangeReadOp
from repro.dc.data_component import DataComponent
from repro.net.channel import MessageChannel

OPS = 300


def fresh_dc(page_size=2048) -> DataComponent:
    dc = DataComponent("dc", config=DcConfig(page_size=page_size))
    dc.create_table("t")
    dc.register_tc(1, force_log=lambda lsn, images: lsn)
    return dc


def message(lsn: int) -> PerformOperation:
    return PerformOperation(
        tc_id=1,
        op_id=lsn,
        op=InsertOp(table="t", key=lsn, value=f"v{lsn}"),
        eosl=10**9,
    )


def displaced(count: int, window: int, rng: random.Random) -> list[int]:
    """LSNs 1..count, each moved up to ``window`` places earlier (seeded)."""
    order = list(range(1, count + 1))
    for position in range(len(order)):
        jump = rng.randint(0, min(window, len(order) - 1 - position))
        if jump:
            order.insert(position, order.pop(position + jump))
    return order


@pytest.mark.benchmark(group="eooo-reorder")
@pytest.mark.parametrize("window", [0, 4, 32])
def test_eooo_apply_under_reordering(benchmark, window):
    def run():
        dc = fresh_dc()
        channel = MessageChannel(dc, ChannelConfig(), dc.metrics)
        for lsn in displaced(OPS, window, random.Random(11)):
            channel.request(message(lsn))
        return dc

    dc = benchmark(run)
    result = dc.perform_operation(1, 10**6, RangeReadOp(table="t"))
    assert len(result.records) == OPS
    series("E-OOO reorder", window=window, ops=OPS, correct=True)


@pytest.mark.benchmark(group="eooo-duplicates")
@pytest.mark.parametrize("dup_fraction", [0.0, 0.25, 1.0])
def test_eooo_duplicate_filtering_cost(benchmark, dup_fraction):
    """Resends are absorbed by the abLSN test; measure the filter cost."""

    def run():
        dc = fresh_dc()
        rng = random.Random(5)
        for lsn in range(1, OPS + 1):
            dc.perform_operation(1, lsn, InsertOp(table="t", key=lsn, value="v"))
            if rng.random() < dup_fraction:
                dc.perform_operation(
                    1, lsn, InsertOp(table="t", key=lsn, value="v"), resend=True
                )
        return dc

    dc = benchmark(run)
    filtered = dc.metrics.get("dc.duplicate_ops")
    benchmark.extra_info["duplicates_filtered"] = filtered
    series("E-OOO duplicates", dup_fraction=dup_fraction, filtered=filtered)


def test_eooo_space_model_vs_record_level_lsns():
    """abLSN bytes per page vs one LSN per record, as LWM frequency varies.

    With frequent LWMs the abLSN collapses toward a single low-water LSN
    per page; record-level LSNs scale with record count regardless.
    """
    for lwm_every in (1, 10, 100, None):
        dc = fresh_dc(page_size=2048)
        for lsn in range(1, 201):
            dc.perform_operation(1, lsn, InsertOp(table="t", key=lsn, value="v"))
            if lwm_every is not None and lsn % lwm_every == 0:
                dc.low_water_mark(1, lsn)
        structure = dc.table("t").structure
        pages = structure.leaf_ids()
        ablsn_bytes = sum(
            structure._fetch(page_id).ablsn_overhead_bytes() for page_id in pages
        )
        record_bytes = LSN_ENCODED_BYTES * structure.record_count()
        series(
            "E-OOO space",
            lwm_every=lwm_every if lwm_every is not None else "never",
            ablsn_bytes=ablsn_bytes,
            record_level_bytes=record_bytes,
            pages=len(pages),
        )
        if lwm_every is not None and lwm_every <= 10:
            assert ablsn_bytes < record_bytes


def test_eooo_traditional_test_would_lose_an_update():
    """The Section 5.1.1 failure, demonstrated against a truth model: with
    a single max-LSN page stamp, a redo pass would skip LSN 1."""
    applied: set[int] = set()
    page_lsn = 0
    # out-of-order arrival: 2 first
    for lsn in (2,):
        applied.add(lsn)
        page_lsn = max(page_lsn, lsn)
    # crash before 1 arrives; redo offers 1 and 2
    redo_skipped_wrongly = 1 <= page_lsn and 1 not in applied
    series("E-OOO traditional-test", lost_update=redo_skipped_wrongly)
    assert redo_skipped_wrongly

    # the abLSN version of the same history
    from repro.common.lsn import AbstractLsn

    ablsn = AbstractLsn()
    ablsn.include(2)
    assert not ablsn.contains(1)  # redo proceeds — no lost update
