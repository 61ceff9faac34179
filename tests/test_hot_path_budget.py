"""The uncontended path's synchronization budget (docs/architecture.md §7).

One thread runs a seeded 2 000-transaction stream of the FIG1 OLTP mix
(4 operations: 40 % updates, 10 % inserts, the rest reads) through an
in-process ``UnbundledKernel(TcConfig.optimized())``.  Nobody ever waits
for a lock, a group-commit leader or an eviction, so the stream must not
enter a ``threading.Condition``, notify one, or take the ``Metrics``
lock for a per-operation counter.  Each of those is counted by wrapping
the class method for the duration of the stream, on this thread only.

The same stream used to cost, per transaction, 14.4 condition entries,
5.7 ``notify_all`` calls and 8.6 locked metrics calls.  The mechanism
totals below are the ones that stream read before the rule existed:
moving a counter to a slot must not change what it counts.
"""

from __future__ import annotations

import collections
import threading

import pytest

from repro import KernelConfig, UnbundledKernel
from repro.common.config import TcConfig
from repro.sim.metrics import Metrics
from repro.workloads.generator import OltpMix, WorkloadRunner

TXNS = 2_000
KEYSPACE = 300
MIX = OltpMix(updates=0.4, inserts=0.1, ops_per_txn=4)

#: Totals of the stream (deltas over the load), identical before and after
#: the counters moved to slots.
EXPECTED_TOTALS = {
    "buffer.hits": 8_252,
    "btree.inner_visits": 4_126,
    "tclog.forces": 1_887,
    "locks.granted": 11_553,
    "tc.gap_locks": 828,
    "locks.waits": 0,
}


@pytest.fixture(scope="module")
def stream():
    kernel = UnbundledKernel(KernelConfig(tc=TcConfig.optimized()))
    kernel.create_table("t")
    with kernel.begin() as txn:
        for key in range(KEYSPACE):
            txn.insert("t", key, f"v{key}")
    runner = WorkloadRunner(kernel.begin, "t", keyspace=KEYSPACE, mix=MIX, seed=7)
    before = kernel.metrics.counters()
    calls: collections.Counter = collections.Counter()
    me = threading.get_ident()
    patches = [
        (threading.Condition, "__enter__", "condition.enter"),
        (threading.Condition, "notify", "condition.notify"),
        (threading.Condition, "notify_all", "condition.notify_all"),
        (threading.Condition, "wait", "condition.wait"),
        (Metrics, "incr", "metrics.locked"),
        (Metrics, "observe", "metrics.locked"),
    ]
    originals = [(cls, name, getattr(cls, name)) for cls, name, _ in patches]

    def counting(original, key):
        def wrapper(self, *args, **kwargs):
            if threading.get_ident() == me:
                calls[key] += 1
            return original(self, *args, **kwargs)

        return wrapper

    for (cls, name, key), (_, _, original) in zip(patches, originals):
        setattr(cls, name, counting(original, key))
    try:
        stats = runner.run(TXNS)
    finally:
        for cls, name, original in originals:
            setattr(cls, name, original)
    after = kernel.metrics.counters()
    kernel.close()
    totals = {name: after.get(name, 0) - before.get(name, 0) for name in EXPECTED_TOTALS}
    return stats, {key: value / TXNS for key, value in calls.items()}, totals


def test_stream_commits_everything(stream):
    stats, _per_txn, _totals = stream
    assert stats.committed == TXNS and stats.aborted == 0


def test_no_condition_entered(stream):
    _stats, per_txn, _totals = stream
    assert per_txn.get("condition.enter", 0) <= 0.1, per_txn


def test_no_notify(stream):
    _stats, per_txn, _totals = stream
    assert per_txn.get("condition.notify", 0) <= 0.05, per_txn
    assert per_txn.get("condition.notify_all", 0) <= 0.05, per_txn


def test_no_condition_wait(stream):
    _stats, per_txn, _totals = stream
    assert per_txn.get("condition.wait", 0) == 0, per_txn


def test_per_operation_counters_take_no_metrics_lock(stream):
    _stats, per_txn, _totals = stream
    assert per_txn.get("metrics.locked", 0) <= 0.3, per_txn


def test_mechanism_totals_unchanged(stream):
    _stats, _per_txn, totals = stream
    assert totals == EXPECTED_TOTALS
