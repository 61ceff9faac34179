"""End-to-end property-based tests: the kernel against an oracle model.

These are the strongest tests in the suite: random transactional
workloads interleaved with random crash/recovery events must leave the
unbundled kernel in exactly the state a trivial in-memory model predicts —
committed transactions fully present, uncommitted ones fully absent, under
every reset mode and channel misbehavior.
"""

from __future__ import annotations

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import KernelConfig, UnbundledKernel
from repro.common.config import DcConfig, PageSyncStrategy
from repro.common.errors import DuplicateKeyError, NoSuchRecordError
from repro.storage.buffer import ResetMode
from tests.conftest import lossy

# One transaction: a list of (action, key) steps.  A missing or duplicate
# key raises from the call (the default envelope holds one operation), so
# the oracle predicts the outcome step by step.
txn_step = st.tuples(
    st.sampled_from(["insert", "update", "delete", "read"]),
    st.integers(min_value=0, max_value=25),
)
txn_strategy = st.tuples(
    st.lists(txn_step, min_size=1, max_size=5),
    st.booleans(),  # commit?
)
event_strategy = st.one_of(
    st.tuples(st.just("txn"), txn_strategy),
    st.just(("crash_dc", None)),
    st.just(("crash_tc", None)),
    st.just(("crash_all", None)),
    st.just(("checkpoint", None)),
)


def apply_txn_to_model(model, steps):
    """Run the transaction against the dict oracle; None if it must abort."""
    shadow = dict(model)
    for action, key in steps:
        if action == "insert":
            if key in shadow:
                return None
            shadow[key] = f"i{key}"
        elif action == "update":
            if key not in shadow:
                return None
            shadow[key] = f"u{key}"
        elif action == "delete":
            if key not in shadow:
                return None
            del shadow[key]
    return shadow


def run_events(kernel, events, reset_mode):
    model: dict[int, str] = {}
    for kind, payload in events:
        if kind == "txn":
            steps, commit = payload
            predicted = apply_txn_to_model(model, steps)
            txn = kernel.begin()
            failed = False
            try:
                for action, key in steps:
                    if action == "insert":
                        txn.insert("t", key, f"i{key}")
                    elif action == "update":
                        txn.update("t", key, f"u{key}")
                    elif action == "delete":
                        txn.delete("t", key)
                    else:
                        txn.read("t", key)
            except (DuplicateKeyError, NoSuchRecordError):
                failed = True
            assert failed == (predicted is None), (steps, model)
            if failed or not commit:
                txn.abort()
            else:
                txn.commit()
                model = predicted
        elif kind == "crash_dc":
            kernel.crash_dc()
            kernel.recover_dc()
        elif kind == "crash_tc":
            kernel.crash_tc()
            kernel.recover_tc(reset_mode)
        elif kind == "crash_all":
            kernel.crash_all()
            kernel.recover_all()
        elif kind == "checkpoint":
            kernel.checkpoint()
    return model


def check_final_state(kernel, model):
    with kernel.begin() as txn:
        rows = dict(txn.scan("t"))
    assert rows == model
    kernel.dc.table("t").structure.validate()


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(events=st.lists(event_strategy, max_size=25))
def test_kernel_matches_oracle_under_crashes(events):
    kernel = UnbundledKernel(KernelConfig(dc=DcConfig(page_size=512)))
    kernel.create_table("t")
    model = run_events(kernel, events, ResetMode.RECORD_RESET)
    check_final_state(kernel, model)


@settings(
    max_examples=35,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    events=st.lists(event_strategy, max_size=20),
    reset_mode=st.sampled_from(list(ResetMode)),
)
def test_every_reset_mode_matches_oracle(events, reset_mode):
    kernel = UnbundledKernel(KernelConfig(dc=DcConfig(page_size=512)))
    kernel.create_table("t")
    model = run_events(kernel, events, reset_mode)
    check_final_state(kernel, model)


@settings(
    max_examples=35,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    events=st.lists(event_strategy, max_size=18),
    strategy=st.sampled_from(list(PageSyncStrategy)),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_lossy_channel_and_sync_strategies_match_oracle(events, strategy, seed):
    kernel = UnbundledKernel(
        KernelConfig(dc=DcConfig(page_size=512, sync_strategy=strategy)),
        faults=lossy(seed, loss=0.15, duplicate=0.1),
    )
    kernel.create_table("t")
    model = run_events(kernel, events, ResetMode.RECORD_RESET)
    check_final_state(kernel, model)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    events=st.lists(event_strategy, max_size=15),
    buffer_capacity=st.sampled_from([DcConfig().buffer_capacity, 3]),
)
@example(  # a loser's page is stolen, the crash loses its log tail
    events=[
        ("txn", ([("update", 0), ("read", 8), ("read", 16), ("read", 24)], False)),
        ("crash_all", None),
    ],
    buffer_capacity=3,
)
def test_monolithic_baseline_matches_same_oracle(events, buffer_capacity):
    """The baseline engine satisfies the identical contract.  Leaves of
    four records split and merge, and every even key starts out committed,
    so a transaction spans several leaves; with a pool of three pages,
    steal evictions interleave with crashes, aborts and checkpoints, and
    each restart must leave a well-formed tree."""
    from repro.kernel.monolithic import MonolithicEngine

    engine = MonolithicEngine(
        DcConfig(page_size=128, buffer_capacity=buffer_capacity)
    )
    engine.create_table("t")
    model = {key: f"i{key}" for key in range(0, 26, 2)}
    with engine.begin() as txn:
        for key, value in model.items():
            txn.insert("t", key, value)
    for kind, payload in events:
        if kind == "txn":
            steps, commit = payload
            predicted = apply_txn_to_model(model, steps)
            txn = engine.begin()
            failed = False
            try:
                for action, key in steps:
                    if action == "insert":
                        txn.insert("t", key, f"i{key}")
                    elif action == "update":
                        txn.update("t", key, f"u{key}")
                    elif action == "delete":
                        txn.delete("t", key)
                    else:
                        txn.read("t", key)
            except (DuplicateKeyError, NoSuchRecordError):
                failed = True
            assert failed == (predicted is None)
            if failed or not commit:
                txn.abort()
            else:
                txn.commit()
                model = predicted
        elif kind in ("crash_dc", "crash_tc", "crash_all"):
            engine.crash()  # monolithic failure is never partial
            engine.recover()
            engine.tree("t").validate()
        elif kind == "checkpoint":
            engine.checkpoint()
    with engine.begin() as txn:
        assert dict(txn.scan("t")) == model
