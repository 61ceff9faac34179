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
the DC, what one ``LowWaterMark`` costs however many pages are cached,
and what the in-process channel adds to a request.
The DC used to spend 33 calls per update — a closure and an outcome dict
per operation, an ``isinstance`` ladder, both records sized in full — and
two calls per cached page on every low-water mark.

The last part counts clock reads: every timeout reads
``repro.sim.schedule.now``, so wrapping that one attribute counts them all.
"""

from __future__ import annotations

import collections
import random
import sys
import threading
from dataclasses import replace

import pytest

from repro import KernelConfig, UnbundledKernel
from repro.common.api import BatchedPerform, LowWaterMark, PerformOperation
from repro.common.config import ChannelConfig, DcConfig, TcConfig
from repro.common.ops import (
    DeleteOp,
    IncrementOp,
    InsertOp,
    ProbeNextKeysOp,
    RangeReadOp,
    ReadOp,
    UpdateOp,
)
from repro.dc.data_component import DataComponent
from repro.net.channel import MessageChannel
from repro.obs.tracing import Tracer
from repro.sim import schedule
from repro.sim.metrics import Metrics
from repro.workloads.generator import OltpMix, WorkloadRunner

TXNS = 2_000
KEYSPACE = 300
MIX = OltpMix(updates=0.4, inserts=0.1, ops_per_txn=4)

#: Totals of the stream (deltas over the load), identical before and after
#: the counters moved to slots.  The stream's fresh keys sort above every
#: key, so its leaves split at their end: 14 leaf splits where middle
#: splits made 22.  Each split avoided saves the two descents of
#: ``ensure_room`` (before and after the split), 2 inner visits and 4
#: buffer hits (4 126 -> 4 110, 8 252 -> 8 220), and the split gates
#: prompt the TC to force its log once where they prompted four times
#: (1 887 -> 1 884).
EXPECTED_TOTALS = {
    "buffer.hits": 8_220,
    "btree.inner_visits": 4_110,
    "tclog.forces": 1_884,
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
    """A 2-update envelope costs the DC at most 41 calls (it cost 77), and
    every further update at most 15 (it cost 33)."""
    two = python_calls(warm_dc.dc.handle, warm_dc.updates(100, 2))
    six = python_calls(warm_dc.dc.handle, warm_dc.updates(200, 6))
    assert two <= 41, two
    assert (six - two) / 4 <= 15, (two, six)


def test_single_request_calls(warm_dc):
    """A single request is a run of one through the envelope's executor
    and costs no more than its own path did (27 calls for an update, 21
    for a read)."""
    key = 300
    update = UpdateOp("t", key, "u" * 100)
    read = ReadOp("t", key)
    for op, budget in ((update, 29), (read, 23)):
        message = PerformOperation(tc_id=1, op_id=warm_dc.next_id(), op=op)
        calls = python_calls(warm_dc.dc.handle, message)
        assert calls <= budget, (type(op).__name__, calls)


def test_channel_request_calls(warm_dc):
    """The in-process channel adds at most two calls to the DC's own cost
    of a read: with no fault injector attached it consults none (it
    spent nine on loss, duplication and latency helpers)."""
    channel = MessageChannel(warm_dc.dc)
    read = ReadOp("t", 400)
    direct = python_calls(
        warm_dc.dc.handle, PerformOperation(tc_id=1, op_id=warm_dc.next_id(), op=read)
    )
    sent = python_calls(
        channel.request, PerformOperation(tc_id=1, op_id=warm_dc.next_id(), op=read)
    )
    assert sent - direct <= 2, (sent, direct)


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


def test_low_water_mark_advances_no_cached_ablsn():
    """Handling one low-water mark raises no cached page's abLSN, at 7
    cached pages as at 60: the pool records the mark and each page catches
    up when next observed.  The walk it replaced raised 6, then 59 (every
    page holding an abLSN of the TC)."""
    advanced = {}
    for keys in (200, 2_000):
        table = _Dc(keys)
        pages = list(map(table.dc.buffer.cached_page, table.dc.buffer.cached_ids()))
        ablsns = [ablsn for page in pages for ablsn in page.ablsns.values()]
        before = [ablsn.low_water for ablsn in ablsns]
        table.dc.handle(LowWaterMark(tc_id=1, lwm=table.lsn))
        advanced[len(pages)] = sum(
            ablsn.low_water != low for ablsn, low in zip(ablsns, before)
        )
        assert table.dc.metrics.get("buffer.lwm_catchups") == 0
    small, large = sorted(advanced)
    assert large >= 8 * small, advanced
    assert advanced == {small: 0, large: 0}, advanced


# -- one executor, however the DC is observed ------------------------------------


def _parity_stream(seed: int = 37, envelopes: int = 120) -> list:
    """Seeded DC traffic from TC 1 on two tables: envelopes of inserts,
    updates, deletes, increments, reads, range reads and probes (with
    duplicates, misses, an unknown table and resent envelopes), single
    requests and low-water marks."""
    rng = random.Random(seed)
    lsn, sent, messages = 0, [], []

    def op():
        table = rng.choice(("t", "u", "t", "u", "missing"))
        key = rng.randrange(60)
        return rng.choice(
            (
                InsertOp(table, key, f"v{key}"),
                UpdateOp(table, key, "w" * rng.randrange(1, 300)),
                DeleteOp(table, key),
                IncrementOp(table, key, 1),
                ReadOp(table, key),
                RangeReadOp(table, low=key, high=key + 9, limit=4),
                ProbeNextKeysOp(table, after=key, count=3),
            )
        )

    for _ in range(envelopes):
        roll = rng.random()
        if roll < 0.1 and sent:
            again = rng.choice(sent)
            ops = tuple(replace(sub, resend=True) for sub in again.ops)
            messages.append(BatchedPerform(tc_id=1, ops=ops))
            continue
        if roll < 0.15:
            messages.append(LowWaterMark(tc_id=1, lwm=max(0, lsn - 5)))
            continue
        ops = []
        for _ in range(rng.randrange(1, 7)):
            lsn += 1
            ops.append(PerformOperation(tc_id=1, op_id=lsn, op=op(), want_prior=True))
        if len(ops) == 1:
            messages.append(ops[0])
        else:
            sent.append(BatchedPerform(tc_id=1, ops=tuple(ops)))
            messages.append(sent[-1])
    return messages


def _parity_dc(tracer=None) -> DataComponent:
    dc = DataComponent("dc", config=DcConfig(page_size=512), tracer=tracer)
    dc.register_tc(1, force_log=lambda lsn, images: lsn)
    dc.create_table("t")
    dc.create_table("u", kind="heap", bucket_count=4)
    return dc


def test_traced_and_shadowed_dcs_run_the_one_executor():
    """A traced DC, and a DC whose ``perform_operation`` is shadowed the
    way the benchmark harness wraps it, answer a seeded envelope stream
    exactly as a plain DC does and count the same work; the traced one
    records a ``dc.batch`` span per envelope and a ``dc.execute`` span per
    operation on a hosted table."""
    tracer = Tracer()
    plain, traced, shadowed = _parity_dc(), _parity_dc(tracer), _parity_dc()
    shadowed_calls = []

    def wrapper(*args, **kwargs):
        shadowed_calls.append(args)
        return DataComponent.perform_operation(shadowed, *args, **kwargs)

    shadowed.perform_operation = wrapper
    stream = _parity_stream()
    for message in stream:
        replies = [dc.handle(message) for dc in (plain, traced, shadowed)]
        assert replies[0] == replies[1] == replies[2], message

    def work(dc):
        counters = dc.metrics.counters()
        return {
            name: count
            for name, count in counters.items()
            if name.split(".")[0] in ("dc", "btree", "buffer")
        }

    assert work(plain)["dc.duplicate_ops"] > 0
    assert work(plain) == work(traced) == work(shadowed)
    assert shadowed_calls == []  # handle never detours through the shadow
    spans = collections.Counter(span.name for span in tracer.finished_spans())
    envelopes = [m for m in stream if isinstance(m, BatchedPerform)]
    hosted = [
        sub
        for m in stream
        if isinstance(m, (BatchedPerform, PerformOperation))
        for sub in (m.ops if isinstance(m, BatchedPerform) else (m,))
        if sub.op.table != "missing"
    ]
    assert spans["dc.batch"] == len(envelopes)
    assert spans["dc.execute"] == len(hosted)


# -- clock reads per transaction ---------------------------------------------------


@pytest.mark.parametrize(
    "transport, budget",
    # In process nothing waits and nothing times out.  Over the pipe each
    # request reads the clock for its reply deadline and once per read
    # burst; a wait or a request that adds a read exceeds the pin.
    [("inproc", 0.0), ("process", 2.25)],
)
def test_clock_reads_per_transaction(monkeypatch, transport, budget):
    """Clock reads per warm transaction of one read and one update, over
    1 000 transactions."""
    config = KernelConfig(channel=ChannelConfig(transport=transport))
    with UnbundledKernel(config) as kernel:
        kernel.create_table("t")
        with kernel.begin() as txn:
            for key in range(100):
                txn.insert("t", key, "v")

        def run(txns):
            for i in range(txns):
                with kernel.begin() as txn:
                    txn.read("t", i % 100)
                    txn.update("t", (i + 1) % 100, f"w{i}")

        run(200)
        reads = 0
        clock = schedule.now

        def counting():
            nonlocal reads
            reads += 1
            return clock()

        monkeypatch.setattr(schedule, "now", counting)
        run(1_000)
        per_txn = reads / 1_000
    assert per_txn <= budget, per_txn
