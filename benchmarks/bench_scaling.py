"""E-SCALE — instantiating components independently (Sections 1.1, 7).

The paper speculates that separately instantiable TCs and DCs use cores
better than one monolith.  Two series test that claim:

- **process backend** (``test_escale_process_backend_scaleout``): each DC
  is its own OS process (docs/architecture.md §10), so DC-side work runs
  on real separate cores while the TC's driver threads block on pipes
  with the GIL released.  Aggregate committed-transaction throughput for
  1 -> 2 -> 4 DC processes is the paper's scale-out number, recorded in
  ``benchmarks/results/BENCH_scaleout.json`` (repro-bench/v2) together
  with the measured speedup and the machine's core count.
- **structural series** (in-process): work partitions cleanly across DC
  instances, threads over disjoint DCs don't interfere in the lock
  manager, and the monolith funnels everything through one lock table
  and one log.

A third series measures the lock-manager striping satellite: the same
contended multi-thread load against ``lock_stripes=1`` (the old single
global mutex) versus the default 16, reporting ``locks.waits`` and wall
time for both.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from benchmarks.conftest import fresh_monolithic, series, write_results
from repro import KernelConfig, UnbundledKernel
from repro.common.config import ChannelConfig, DcConfig, TcConfig

THREADS = 4
OPS_PER_THREAD = 80


def multi_dc_kernel(dc_count: int) -> UnbundledKernel:
    from repro.common.config import TcConfig

    kernel = UnbundledKernel(
        KernelConfig(dc=DcConfig(page_size=2048), tc=TcConfig(lock_timeout=30.0)),
        dc_count=dc_count,
    )
    for index in range(dc_count):
        dc_name = f"dc{index + 1}" if dc_count > 1 else None
        kernel.create_table(f"t{index}", dc_name=dc_name)
    return kernel


def seed_region_boundaries(engine, table: str) -> None:
    """Pre-insert each thread region's upper fence so concurrent tail
    inserts anchor their next-key gap guards to distinct keys instead of
    all contending on the table-end gap (correct, but not what this
    scaling experiment measures)."""
    with engine.begin() as txn:
        for thread_id in range(THREADS + 1):
            txn.insert(table, thread_id * 10_000 + 9_999, "fence")


@pytest.mark.benchmark(group="escale-threads")
@pytest.mark.parametrize("dc_count", [1, 4])
def test_escale_threads_over_dcs(benchmark, dc_count):
    def run():
        kernel = multi_dc_kernel(max(dc_count, 1))
        for index in range(dc_count):
            seed_region_boundaries(kernel, f"t{index}")
        errors: list[Exception] = []

        def worker(thread_id: int):
            table = f"t{thread_id % dc_count}"
            base = thread_id * 10_000
            try:
                for op in range(OPS_PER_THREAD):
                    with kernel.begin() as txn:
                        txn.insert(table, base + op, "v")
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        return kernel

    kernel = benchmark.pedantic(run, rounds=2, iterations=1)
    waits = kernel.metrics.get("locks.waits")
    series(
        "E-SCALE unbundled",
        dcs=dc_count,
        threads=THREADS,
        inserts=THREADS * OPS_PER_THREAD,
        lock_waits=waits,
    )
    if dc_count == THREADS:
        # one table per thread on its own DC: nothing ever contends
        # (a single shared table still sees brief gap-lock brushes at
        # region boundaries, which is correct behavior)
        assert waits == 0


@pytest.mark.benchmark(group="escale-threads")
def test_escale_monolithic_single_engine(benchmark):
    def run():
        from repro.common.config import DcConfig as Dc
        from repro.common.config import TcConfig
        from repro.kernel.monolithic import MonolithicEngine

        engine = MonolithicEngine(Dc(page_size=2048), TcConfig(lock_timeout=30.0))
        engine.create_table("t")
        seed_region_boundaries(engine, "t")
        errors: list[Exception] = []

        def worker(thread_id: int):
            base = thread_id * 10_000
            try:
                for op in range(OPS_PER_THREAD):
                    with engine.begin() as txn:
                        txn.insert("t", base + op, "v")
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        return engine

    engine = benchmark.pedantic(run, rounds=2, iterations=1)
    series(
        "E-SCALE monolithic",
        dcs=1,
        threads=THREADS,
        inserts=THREADS * OPS_PER_THREAD,
        lock_waits=engine.metrics.get("locks.waits"),
    )


def test_escale_work_partitions_across_dcs():
    """Per-DC operation counters show clean load spreading."""
    kernel = multi_dc_kernel(4)
    for index in range(200):
        table = f"t{index % 4}"
        with kernel.begin() as txn:
            txn.insert(table, index, "v")
    per_dc = {
        name: channel.ops_sent
        for name, channel in kernel.tc.channels().items()
    }
    series("E-SCALE partitioning", **per_dc)
    counts = sorted(per_dc.values())
    assert counts[0] > 0 and counts[-1] < sum(counts)  # all DCs carried load


def drive_process_kernel(dc_count: int, txns_per_thread: int) -> dict:
    """Threaded drivers over ``dc_count`` DC server processes; returns the
    aggregate committed-transaction throughput and the raw counters."""
    config = KernelConfig(
        dc=DcConfig(page_size=2048),
        tc=TcConfig.optimized(lock_timeout=30.0),
        channel=ChannelConfig(transport="process", request_timeout_s=30.0),
    )
    with UnbundledKernel(config, dc_count=dc_count) as kernel:
        for index in range(dc_count):
            dc_name = f"dc{index + 1}" if dc_count > 1 else None
            kernel.create_table(f"t{index}", dc_name=dc_name)
            seed_region_boundaries(kernel, f"t{index}")
        errors: list[Exception] = []
        payload = "x" * 64

        def worker(thread_id: int) -> None:
            table = f"t{thread_id % dc_count}"
            base = thread_id * 10_000
            try:
                for txn_index in range(txns_per_thread):
                    with kernel.begin() as txn:
                        start = base + txn_index * 8
                        for op in range(8):
                            txn.insert(table, start + op, payload)
            except Exception as exc:  # pragma: no cover - diagnostics
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(THREADS)
        ]
        begin = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - begin
        assert not errors
        committed = THREADS * txns_per_thread
        return {
            "dc_processes": dc_count,
            "threads": THREADS,
            "txns": committed,
            "elapsed_s": round(elapsed, 3),
            "txns_per_s": round(committed / elapsed, 1),
            "lock_waits": kernel.metrics.get("locks.waits"),
            "counters": kernel.metrics.counters(),
        }


def test_escale_process_backend_scaleout():
    """Real parallelism over a real wire: aggregate throughput while the
    DC side grows from one process to four.  On a >= 4-core machine the
    1 -> 4 speedup must reach 1.8x (the ISSUE 4 acceptance bar); on
    smaller machines the numbers are still recorded, unasserted."""
    txns_per_thread = int(os.environ.get("REPRO_BENCH_SCALEOUT_TXNS", "40"))
    rows = {}
    for dc_count in (1, 2, 4):
        row = drive_process_kernel(dc_count, txns_per_thread)
        counters = row.pop("counters")
        rows[dc_count] = row
        series("E-SCALE process backend", **row)
    speedup = rows[4]["txns_per_s"] / rows[1]["txns_per_s"]
    cores = os.cpu_count() or 1
    payload = {
        "series": [rows[n] for n in (1, 2, 4)],
        "speedup_1_to_4": round(speedup, 2),
        "cpu_count": cores,
        "transport": "process",
        "config": "TcConfig.optimized()",
    }
    write_results("scaleout", payload)
    series(
        "E-SCALE scaleout summary",
        speedup_1_to_4=round(speedup, 2),
        cpu_count=cores,
    )
    if cores >= 4:
        assert speedup >= 1.8, f"1->4 DC-process speedup {speedup:.2f}x < 1.8x"


def test_evloop_flat_threads():
    """E-EVLOOP — event-loop servers (§18).

    The tentpole invariant: a DC server's thread count, reported in its
    own StatsReply, must stay *flat* as the client count grows
    1 -> 4 -> 8 (connections are Peers in one selector loop, not
    threads) — asserted on every machine.
    """
    import tempfile

    from repro.net.process import RemoteDc

    flat_rows = []
    with tempfile.TemporaryDirectory(prefix="repro-evloop-") as workdir:
        dc = RemoteDc(
            "dcb",
            journal_path=os.path.join(workdir, "dcb.journal"),
            listen_path=os.path.join(workdir, "dcb.sock"),
        )
        clients: list[RemoteDc] = []
        try:
            dc.create_table("t")
            for target in (1, 4, 8):
                while len(clients) < target:
                    clients.append(
                        RemoteDc("dcb", socket_path=dc.listen_path)
                    )
                stats = clients[-1].stats()
                row = {
                    "clients": target,
                    "server_connections": stats["connections"],
                    "server_threads": stats["threads"],
                }
                flat_rows.append(row)
                series("E-EVLOOP flat threads", **row)
        finally:
            for client in clients:
                client.close()
            dc.shutdown()
    thread_counts = {row["server_threads"] for row in flat_rows}
    assert len(thread_counts) == 1, (
        f"server thread count varied with client count: {flat_rows}"
    )
    write_results(
        "evloop",
        {"flat_threads": flat_rows, "cpu_count": os.cpu_count() or 1},
    )


def test_escale_lock_striping_contention():
    """The striping satellite: one contended in-process kernel, stripes=1
    (the old global mutex) versus the default 16."""
    rows = {}
    for stripes in (1, 16):
        kernel = UnbundledKernel(
            KernelConfig(
                dc=DcConfig(page_size=2048),
                tc=TcConfig(lock_timeout=30.0, lock_stripes=stripes),
            )
        )
        kernel.create_table("t0")
        seed_region_boundaries(kernel, "t0")
        errors: list[Exception] = []

        def worker(thread_id: int) -> None:
            base = thread_id * 10_000
            try:
                for op in range(OPS_PER_THREAD):
                    with kernel.begin() as txn:
                        txn.insert("t0", base + op, "v")
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(THREADS)
        ]
        begin = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - begin
        assert not errors
        rows[stripes] = {
            "stripes": stripes,
            "elapsed_s": round(elapsed, 3),
            "lock_waits": kernel.metrics.get("locks.waits"),
            "granted": kernel.metrics.get("locks.granted"),
        }
        series("E-SCALE lock striping", **rows[stripes])
    # Same workload, same grants, regardless of stripe count.
    assert rows[1]["granted"] == rows[16]["granted"]


def test_escale_code_path_step_counts():
    """The instruction-path proxy for the cache-locality claim: steps per
    operation by component, showing the DC path dominating the TC path."""
    kernel = multi_dc_kernel(1)
    for index in range(100):
        with kernel.begin() as txn:
            txn.insert("t0", index, "v")
    metrics = kernel.metrics.counters()
    dc_steps = (
        metrics.get("dc.operations", 0)
        + metrics.get("dc.latches", 0)
        + metrics.get("btree.inner_visits", 0)
        + metrics.get("btree.latches", 0)
    )
    tc_steps = (
        metrics.get("tclog.appends", 0)
        + metrics.get("locks.granted", 0)
        + metrics.get("tc.mutations", 0)
    )
    series(
        "E-SCALE code-path",
        dc_steps=dc_steps,
        tc_steps=tc_steps,
        dc_to_tc_ratio=round(dc_steps / max(tc_steps, 1), 2),
    )
    assert dc_steps > 0 and tc_steps > 0
