"""E-RECOVERY — crash-competitive recovery time (Sections 4.2, 5.2).

Two series, one results file (``BENCH_recovery.json``):

- **RTO vs log size** — time-to-recover after a TC crash as the log
  grows, with and without periodic checkpoints.  Checkpoints terminate
  the idempotence contract at the RSSP *and* truncate the log below it,
  so restart redo work — and hence RTO — stays flat instead of growing
  with history.  Asserted: at the largest log size the checkpointed RTO
  is at most half the uncheckpointed one.
- **Journal growth** — the process-mode DC journal with periodic
  ``checkpoint_dc_log`` + compaction stays bounded by live state, while
  the same workload without compaction grows with history.

Run (the CI recovery lane does exactly this):

    PYTHONPATH=src:. python -m pytest -q -p no:benchmark -s \\
        benchmarks/bench_recovery.py
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import fresh_unbundled, series, write_results
from repro.common.config import ChannelConfig, DcConfig, KernelConfig
from repro.kernel.unbundled import UnbundledKernel

SEED = 7
LOG_SIZES = (100, 400, 1600)

#: Sections accumulate here; every test rewrites the (single) results
#: file so a full run of this module leaves one complete document.
_RESULTS: dict = {}
_T0 = time.time()


def _publish() -> None:
    write_results("recovery", _RESULTS, seed=SEED, wall_time_s=time.time() - _T0)


def _timed_tc_restart(kernel):
    kernel.crash_tc()
    start = time.perf_counter()
    stats = kernel.recover_tc()
    return (time.perf_counter() - start) * 1000.0, stats


def _rto_for(txns: int, checkpoints: bool):
    kernel = fresh_unbundled(page_size=1024)
    interval = max(1, txns // 8)
    for index in range(txns):
        with kernel.begin() as txn:
            txn.insert("t", index, f"value-{index:06d}")
        if checkpoints and (index + 1) % interval == 0:
            assert kernel.checkpoint()
    rto_ms, stats = _timed_tc_restart(kernel)
    with kernel.begin() as txn:
        assert len(txn.scan("t")) == txns
    return {
        "rto_ms": round(rto_ms, 3),
        "redo_ops": stats["redo_ops"],
        "truncated_records": kernel.metrics.get("tclog.truncated_records"),
    }


def test_erecovery_rto_vs_log_size():
    rows = []
    for txns in LOG_SIZES:
        baseline = _rto_for(txns, checkpoints=False)
        checkpointed = _rto_for(txns, checkpoints=True)
        row = {
            "txns": txns,
            "no_ckpt_rto_ms": baseline["rto_ms"],
            "no_ckpt_redo_ops": baseline["redo_ops"],
            "ckpt_rto_ms": checkpointed["rto_ms"],
            "ckpt_redo_ops": checkpointed["redo_ops"],
            "ckpt_truncated_records": checkpointed["truncated_records"],
        }
        rows.append(row)
        series("E-RECOVERY rto", **row)
    _RESULTS["rto_vs_log_size"] = rows
    _publish()
    largest = rows[-1]
    # Redo volume is deterministic: without checkpoints it is the whole
    # history; with them, at most the last interval's worth.
    assert largest["ckpt_redo_ops"] < largest["no_ckpt_redo_ops"] / 4
    assert largest["ckpt_truncated_records"] > 0
    # The headline claim: checkpoint-driven truncation halves (at least)
    # the restart time once the log is big enough for redo to dominate.
    assert largest["ckpt_rto_ms"] <= 0.5 * largest["no_ckpt_rto_ms"], rows


def _process_kernel() -> UnbundledKernel:
    config = KernelConfig(
        dc=DcConfig(page_size=1024), channel=ChannelConfig(transport="process")
    )
    kernel = UnbundledKernel(config)
    kernel.create_table("t0")
    return kernel


@pytest.mark.process
def test_erecovery_journal_stays_bounded():
    """Same update workload twice: with periodic DC-log checkpoints (and
    the compaction they trigger) the journal tracks live state; without
    them it grows with history."""

    def run(compact: bool) -> int:
        kernel = _process_kernel()
        try:
            for round_no in range(4):
                for key in range(50):
                    with kernel.begin() as txn:
                        if round_no == 0:
                            txn.insert("t0", key, f"r{round_no}-{key:05d}")
                        else:
                            txn.update("t0", key, f"r{round_no}-{key:05d}")
                assert kernel.checkpoint()
                if compact:
                    kernel.dc.checkpoint_dc_log()
            size = kernel.dc.stats()["journal_bytes"]
            with kernel.begin() as txn:
                assert len(txn.scan("t0")) == 50
            return size
        finally:
            kernel.close()

    unbounded = run(compact=False)
    bounded = run(compact=True)
    row = {
        "journal_bytes_no_compaction": unbounded,
        "journal_bytes_with_compaction": bounded,
        "reduction": round(unbounded / max(1, bounded), 3),
    }
    _RESULTS["journal_growth"] = row
    _publish()
    series("E-RECOVERY journal", **row)
    assert bounded < unbounded / 2, row
