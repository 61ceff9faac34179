"""Ablations of the design choices DESIGN.md calls out.

Not tied to a single paper claim; these sweeps quantify the knobs the
implementation exposes so downstream users can size deployments:

- buffer capacity (eviction pressure vs stable-state reconstruction cost);
- group commit (forces per transaction vs durability batching);
- LWM broadcast frequency (messages vs {LSNin} growth);
- snapshot retention (history bytes vs how far back readers may look).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import fresh_unbundled, load_keys, series
from repro.common.config import DcConfig, TcConfig

N = 300


@pytest.mark.benchmark(group="ablate-buffer")
@pytest.mark.parametrize("capacity", [8, 64, 1024])
def test_ablate_buffer_capacity(benchmark, capacity):
    """Small caches force evictions + reloads through the stable-state
    loader (disk + DC-log replay) — correct but measurably slower."""

    def run():
        kernel = fresh_unbundled(
            dc=DcConfig(page_size=512, buffer_capacity=capacity)
        )
        load_keys(kernel, N)
        kernel.tc.durability.broadcast_eosl()
        with kernel.begin() as txn:
            assert len(txn.scan("t")) == N
        return kernel

    kernel = benchmark.pedantic(run, rounds=1, iterations=1)
    metrics = kernel.metrics
    series(
        "ABLATE buffer",
        capacity=capacity,
        evictions=metrics.get("buffer.evictions"),
        misses=metrics.get("buffer.misses"),
        flushes=metrics.get("buffer.flushes"),
    )


@pytest.mark.benchmark(group="ablate-group-commit")
@pytest.mark.parametrize("group_size", [1, 8, 32])
def test_ablate_group_commit(benchmark, group_size):
    """Batching commits amortizes log forces (durability is batched too —
    the classic trade, now spanning the TC/DC message boundary).

    Group commit never trades durability for speed: a lone committer still
    forces before acking, so amortization only shows up with *concurrent*
    committers.  This ablation drives barrier-lockstep committer threads
    and counts how many rode a peer's force instead of paying their own.
    """
    import sys
    import threading

    THREADS = 8
    ROUNDS = 12

    baseline = {}

    def run():
        kernel = fresh_unbundled(
            tc=TcConfig(group_commit_size=group_size, group_commit_deadline_ms=5.0)
        )
        load_keys(kernel, THREADS)
        # The sequential load phase forces once per lone commit; measure
        # the concurrent phase as a delta over it.
        baseline["commits"] = kernel.metrics.get("tc.commits")
        baseline["forces"] = kernel.metrics.get("tclog.forces")
        barrier = threading.Barrier(THREADS)
        errors: list[BaseException] = []

        def worker(slot):
            try:
                for round_index in range(ROUNDS):
                    with kernel.begin() as txn:
                        txn.update("t", slot, f"r{round_index}")
                        # Rendezvous *inside* the transaction so all
                        # threads hit commit (the with-exit) together —
                        # aligning at txn start would let fast commits
                        # drain one by one past a lone-committer check.
                        barrier.wait()
            except BaseException as exc:  # pragma: no cover - asserted below
                errors.append(exc)

        # A tiny switch interval forces frequent preemption, so the
        # committers genuinely overlap inside the coalescer window.
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(slot,))
                for slot in range(THREADS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(old_interval)
        assert not errors, errors
        return kernel

    kernel = benchmark.pedantic(run, rounds=1, iterations=1)
    commits = kernel.metrics.get("tc.commits") - baseline["commits"]
    forces = kernel.metrics.get("tclog.forces") - baseline["forces"]
    riders = kernel.metrics.get("tclog.group_commit_riders")
    assert commits == THREADS * ROUNDS
    series(
        "ABLATE group-commit",
        group_size=group_size,
        commits=commits,
        log_forces=forces,
        riders=riders,
        forces_per_commit=round(forces / commits, 3),
    )
    if group_size > 1:
        # Some committers must have shared a force; with size 1 every
        # commit forces for itself and nobody rides.
        assert riders > 0
        assert forces < commits


@pytest.mark.benchmark(group="ablate-lwm")
@pytest.mark.parametrize("interval", [1, 16, 256])
def test_ablate_lwm_interval(benchmark, interval):
    """Frequent LWMs shrink page {LSNin} sets at a message cost."""

    def run():
        kernel = fresh_unbundled(
            dc=DcConfig(page_size=1024), tc=TcConfig(lwm_interval=interval)
        )
        load_keys(kernel, N)
        return kernel

    kernel = benchmark.pedantic(run, rounds=1, iterations=1)
    structure = kernel.dc.table("t").structure
    pending = sum(
        structure._fetch(page_id).pending_lsn_count()
        for page_id in structure.leaf_ids()
    )
    series(
        "ABLATE lwm",
        interval=interval,
        lwm_broadcasts=kernel.metrics.get("tc.lwm_broadcasts"),
        pending_lsns_left=pending,
    )


@pytest.mark.benchmark(group="ablate-pipeline")
@pytest.mark.parametrize("batch_max_ops", [1, 64])
def test_ablate_pipelined_vs_synchronous(benchmark, batch_max_ops):
    """Envelope size: fifty envelopes of one against one of fifty; under
    simulated WAN latency the per-transaction simulated time is the
    point."""
    from repro.common.config import ChannelConfig

    def run():
        kernel = fresh_unbundled(
            tc=TcConfig(batch_max_ops=batch_max_ops),
            channel=ChannelConfig(latency_ms=1.0),
        )
        with kernel.begin() as txn:
            for key in range(50):
                txn.insert("t", key, key)
        return kernel

    kernel = benchmark.pedantic(run, rounds=1, iterations=1)
    sim_ms = sum(c.sim_time_ms for c in kernel.tc.channels().values())
    series(
        "ABLATE envelope",
        batch_max_ops=batch_max_ops,
        sim_transfer_ms=round(sim_ms, 1),
        messages=kernel.metrics.get("channel.requests"),
        sync_points=kernel.metrics.get("tc.pipeline_syncs"),
    )


def test_ablate_snapshot_retention_space():
    """Version history costs page bytes proportional to churn kept."""
    rows = []
    for retention in (0, 8, 128):
        kernel = fresh_unbundled(
            dc=DcConfig(
                page_size=4096,
                snapshot_retention=retention,
                snapshot_max_versions=32,
            )
        )
        kernel.dc.create_table("v", versioned=True)
        kernel.tc.refresh_routes(kernel.dc)
        with kernel.begin() as txn:
            for key in range(20):
                txn.insert("v", key, "v0")
        for round_index in range(10):
            with kernel.begin() as txn:
                for key in range(20):
                    txn.update("v", key, f"v{round_index + 1}")
        structure = kernel.dc.table("v").structure
        history_entries = sum(
            len(record.history) for record in structure.iter_range(None, None)
        )
        bytes_used = sum(
            structure._fetch(page_id).used_bytes()
            for page_id in structure.leaf_ids()
        )
        rows.append((retention, history_entries, bytes_used))
    for retention, entries, bytes_used in rows:
        series(
            "ABLATE snapshot-retention",
            retention=retention,
            history_entries=entries,
            page_bytes=bytes_used,
        )
    assert rows[0][1] == 0  # retention 0 keeps no history
    assert rows[2][1] >= rows[1][1]  # larger windows keep at least as much
    assert rows[2][2] > rows[0][2]  # and pay page space for it
