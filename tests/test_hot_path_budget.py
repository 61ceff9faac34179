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

The second half counts Python function calls (``sys.setprofile``) on a
warm in-process DC table: what one write of a ``BatchedPerform`` costs
the DC, and what one ``LowWaterMark`` costs however many pages are cached.
The DC used to spend 33 calls per update — a closure and an outcome dict
per operation, an ``isinstance`` ladder, both records sized in full — and
two calls per cached page on every low-water mark.
"""

from __future__ import annotations

import collections
import sys
import threading

import pytest

from repro import KernelConfig, UnbundledKernel
from repro.common.api import BatchedPerform, LowWaterMark, PerformOperation
from repro.common.config import TcConfig
from repro.common.ops import InsertOp, UpdateOp
from repro.dc.data_component import DataComponent
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


# -- Python calls of the DC's write path and low-water walk -----------------------


class _Dc:
    """A DC with one table of ``keys`` 100-byte records, loaded by TC 1
    (whose log is always stable), and that TC's next operation id."""

    def __init__(self, keys: int) -> None:
        self.dc = DataComponent("dc")
        self.dc.register_tc(1, force_log=lambda lsn, images: lsn)
        self.dc.create_table("t")
        self.lsn = 0
        self.keys = keys
        self.send(InsertOp("t", key, "v" * 100) for key in range(keys))

    def envelope(self, ops) -> BatchedPerform:
        ops = tuple(PerformOperation(tc_id=1, op_id=self.next_id(), op=op) for op in ops)
        return BatchedPerform(tc_id=1, ops=ops)

    def send(self, ops):
        return self.dc.handle(self.envelope(ops))

    def next_id(self) -> int:
        self.lsn += 1
        return self.lsn

    def updates(self, first: int, count: int) -> BatchedPerform:
        keys = range(first, first + count)
        return self.envelope(UpdateOp("t", key, "w" * 100) for key in keys)


def python_calls(fn, *args) -> int:
    """Python function calls ``fn(*args)`` makes on this thread."""
    calls = 0

    def profile(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


@pytest.fixture(scope="module")
def warm_dc():
    table = _Dc(2_000)
    for first in range(0, table.keys, 8):  # every key written once more
        table.dc.handle(table.updates(first, 8))
    return table


def test_dc_write_calls(warm_dc):
    """A 2-update envelope costs the DC at most 55 calls (it cost 77), and
    every further update at most 20 (it cost 33)."""
    two = python_calls(warm_dc.dc.handle, warm_dc.updates(100, 2))
    six = python_calls(warm_dc.dc.handle, warm_dc.updates(200, 6))
    assert two <= 55, two
    assert (six - two) / 4 <= 20, (two, six)


def test_low_water_walk_calls_flat_in_cached_pages():
    """One low-water mark makes as many calls over 112 cached pages as
    over 12 (each page holding the TC's LSNs above the old mark)."""
    calls = {}
    for keys in (200, 2_000):
        table = _Dc(keys)
        pages = len(table.dc.buffer.cached_ids())
        calls[pages] = python_calls(
            table.dc.handle, LowWaterMark(tc_id=1, lwm=table.lsn)
        )
        assert all(
            page.ablsns[1].low_water == table.lsn
            for page in map(table.dc.buffer.cached_page, table.dc.buffer.cached_ids())
            if 1 in page.ablsns
        )
    small, large = sorted(calls)
    assert large >= 8 * small, calls
    assert calls[large] == calls[small], calls
