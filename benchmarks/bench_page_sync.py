"""E-SYNC — the three page-sync strategies (Section 5.1.2, "Page Sync").

For each strategy, a write burst followed by flush attempts, sweeping the
LWM frequency.  Series: flush success rate, delayed flushes, abLSN bytes
written per flushed page.  Expected shape:

- FULL_ABLSN always flushes, at the highest page-space cost;
- DELAY only flushes once the LWM covers everything — cheapest on space,
  most deferrals;
- PRUNE_THEN_WRITE sits between, tunable by its threshold.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import fresh_unbundled, series
from repro.common.config import DcConfig, PageSyncStrategy, TcConfig

BURST = 200


def kernel_for(strategy: PageSyncStrategy, lwm_interval: int):
    return fresh_unbundled(
        dc=DcConfig(page_size=1024, sync_strategy=strategy, prune_threshold=4),
        tc=TcConfig(lwm_interval=lwm_interval),
    )


def burst_and_flush(kernel):
    for key in range(BURST):
        with kernel.begin() as txn:
            txn.insert("t", key, f"value-{key:05d}")
    kernel.tc.durability.broadcast_eosl()
    kernel.dc.buffer.flush_all()
    return kernel


@pytest.mark.benchmark(group="esync-strategies")
@pytest.mark.parametrize(
    "strategy",
    [
        PageSyncStrategy.FULL_ABLSN,
        PageSyncStrategy.DELAY,
        PageSyncStrategy.PRUNE_THEN_WRITE,
    ],
)
def test_esync_strategy_write_burst(benchmark, strategy):
    def run():
        return burst_and_flush(kernel_for(strategy, lwm_interval=8))

    kernel = benchmark(run)
    metrics = kernel.metrics
    flushes = metrics.get("buffer.flushes")
    delayed = metrics.get("buffer.flush_delayed_sync")
    ablsn_dist = metrics.dist("buffer.flushed_ablsn_bytes")
    benchmark.extra_info.update(
        {
            "flushes": flushes,
            "delayed": delayed,
            "ablsn_bytes_mean": round(ablsn_dist.mean, 1),
        }
    )
    series(
        "E-SYNC",
        strategy=strategy.value,
        flushes=flushes,
        delayed=delayed,
        ablsn_bytes_mean=round(ablsn_dist.mean, 1),
        ablsn_bytes_max=ablsn_dist.maximum if ablsn_dist.count else 0,
    )


def test_esync_lwm_frequency_sweep():
    """More frequent LWMs shrink {LSNin}, unblocking DELAY and shrinking
    FULL_ABLSN's page overhead."""
    for lwm_interval in (1, 8, 64):
        for strategy in (PageSyncStrategy.DELAY, PageSyncStrategy.FULL_ABLSN):
            kernel = burst_and_flush(kernel_for(strategy, lwm_interval))
            metrics = kernel.metrics
            series(
                "E-SYNC lwm-sweep",
                strategy=strategy.value,
                lwm_interval=lwm_interval,
                flushes=metrics.get("buffer.flushes"),
                delayed=metrics.get("buffer.flush_delayed_sync"),
                pending_mean=round(
                    metrics.dist("buffer.flushed_pending_lsns").mean, 2
                ),
            )


def test_esync_delay_blocks_until_lwm_catches_up():
    """The DELAY strategy's defining behavior, isolated."""
    kernel = kernel_for(PageSyncStrategy.DELAY, lwm_interval=10**9)
    for key in range(20):
        with kernel.begin() as txn:
            txn.insert("t", key, "v")
    kernel.tc.durability.broadcast_eosl()
    flushed_without_lwm = kernel.dc.buffer.flush_all()
    kernel.tc.dispatch.broadcast_lwm()  # now {LSNin} prunes to empty
    flushed_after_lwm = kernel.dc.buffer.flush_all()
    series(
        "E-SYNC delay-isolated",
        flushed_without_lwm=flushed_without_lwm,
        flushed_after_lwm=flushed_after_lwm,
    )
    assert flushed_without_lwm == 0
    assert flushed_after_lwm > 0


def test_esync_prune_threshold_sweep():
    for threshold in (1, 4, 16):
        kernel = fresh_unbundled(
            dc=DcConfig(
                page_size=1024,
                sync_strategy=PageSyncStrategy.PRUNE_THEN_WRITE,
                prune_threshold=threshold,
            ),
            tc=TcConfig(lwm_interval=16),
        )
        for key in range(BURST):
            with kernel.begin() as txn:
                txn.insert("t", key, f"value-{key:05d}")
        kernel.tc.durability.broadcast_eosl()
        kernel.dc.buffer.flush_all()
        metrics = kernel.metrics
        series(
            "E-SYNC prune-sweep",
            threshold=threshold,
            flushes=metrics.get("buffer.flushes"),
            delayed=metrics.get("buffer.flush_delayed_sync"),
            ablsn_bytes_mean=round(
                metrics.dist("buffer.flushed_ablsn_bytes").mean, 1
            ),
        )
