"""Additional hypothesis suites on core invariants."""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.lsn import NULL_LSN
from repro.sim.metrics import Metrics
from repro.tc.lock_manager import _COMPATIBLE, LockManager, LockMode, combined_mode
from repro.tc.log import LwmTracker


@settings(max_examples=200)
@given(
    ids=st.lists(
        st.integers(min_value=1, max_value=100), unique=True, min_size=1, max_size=30
    ),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_lwm_tracker_random_completion_orders(ids, seed):
    """Whatever the completion order, the LWM is always the largest id
    below which nothing is outstanding — and ends at the max."""
    ids = sorted(ids)
    tracker = LwmTracker()
    for op_id in ids:
        tracker.register(op_id)
    completion = list(ids)
    random.Random(seed).shuffle(completion)
    completed: set[int] = set()
    for op_id in completion:
        tracker.complete(op_id)
        completed.add(op_id)
        lwm = tracker.lwm
        # everything at or below the mark is completed
        assert all(other in completed for other in ids if other <= lwm)
        # the next registered id above the mark (if any) is incomplete,
        # or the mark is already at the global max
        pending = [other for other in ids if other not in completed]
        if pending:
            assert lwm < min(pending)
    assert tracker.lwm == max(ids)


@settings(max_examples=100, deadline=None)
@given(
    steps=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=4),  # txn
            st.sampled_from(list(LockMode)),
            st.integers(min_value=0, max_value=3),  # resource
            st.booleans(),  # acquire or release-all
        ),
        max_size=40,
    )
)
def test_lock_table_never_holds_incompatible_pairs(steps):
    """Invariant: after any sequence of grants/releases, no two distinct
    holders of one resource hold incompatible modes."""
    manager = LockManager(Metrics(), timeout=0.01)
    for txn, mode, resource, is_acquire in steps:
        try:
            if is_acquire:
                manager.acquire(txn, resource, mode, timeout=0.01)
            else:
                manager.release_all(txn)
        except Exception:
            manager.release_all(txn)  # victims release their locks
        for entry_resource in range(4):
            stripe = manager._stripe_of(entry_resource)
            entry = stripe.table.get(entry_resource)
            if entry is None:
                continue
            holders = list(entry.holders.items())
            for i, (txn_a, mode_a) in enumerate(holders):
                for txn_b, mode_b in holders[i + 1 :]:
                    assert _COMPATIBLE[(mode_a, mode_b)], (
                        entry_resource,
                        holders,
                    )


@settings(max_examples=200)
@given(a=st.sampled_from(list(LockMode)), b=st.sampled_from(list(LockMode)))
def test_combined_mode_is_commutative_and_covering(a, b):
    ab = combined_mode(a, b)
    ba = combined_mode(b, a)
    assert ab is ba
    # the combination is at least as strong as both inputs
    assert combined_mode(ab, a) is ab
    assert combined_mode(ab, b) is ab


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    deltas=st.lists(
        st.integers(min_value=-50, max_value=50), min_size=1, max_size=20
    ),
    crash_at=st.integers(min_value=0, max_value=20),
)
def test_increment_counter_matches_sum_across_crashes(deltas, crash_at):
    """Counter invariant: committed increments sum exactly, across a
    crash-recovery anywhere in the sequence (non-idempotent op, so any
    double- or missed-apply shows up immediately)."""
    from repro import KernelConfig, UnbundledKernel
    from repro.common.config import DcConfig

    kernel = UnbundledKernel(KernelConfig(dc=DcConfig(page_size=512)))
    kernel.create_table("t")
    with kernel.begin() as txn:
        txn.insert("t", "c", 0)
    applied = 0
    for index, delta in enumerate(deltas):
        if index == crash_at:
            kernel.crash_all()
            kernel.recover_all()
        with kernel.begin() as txn:
            txn.increment("t", "c", delta)
        applied += delta
    with kernel.begin() as txn:
        assert txn.read("t", "c") == applied


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    keys=st.lists(st.integers(min_value=0, max_value=100), max_size=40),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_heap_matches_dict_under_random_ops(keys, seed):
    from repro.common.config import DcConfig
    from repro.common.records import VersionedRecord
    from repro.dc.dclog import DcLog
    from repro.dc.system_txn import SystemTransaction
    from repro.storage.buffer import BufferPool
    from repro.storage.disk import StableStorage
    from repro.storage.heap import HashedHeap

    metrics = Metrics()
    storage = StableStorage(metrics)
    dclog = DcLog(storage, metrics)
    heap = HashedHeap(
        "h",
        storage,
        BufferPool(storage, DcConfig(), metrics),
        lambda kind: SystemTransaction(kind, dclog, metrics),
        DcConfig(),
        metrics,
        bucket_count=4,
    )
    rng = random.Random(seed)
    model: dict[int, str] = {}
    for key in keys:
        if rng.random() < 0.7:
            record = VersionedRecord(key=key, committed=f"v{key}")
            heap.ensure_room(key, record.encoded_size())
            heap.find_leaf(key).put(record)
            model[key] = f"v{key}"
        else:
            heap.find_leaf(key).remove(key)
            model.pop(key, None)
    got = {record.key: record.committed for record in heap.iter_range(None, None)}
    assert got == model
    assert heap.record_count() == len(model)