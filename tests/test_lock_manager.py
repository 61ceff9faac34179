"""The TC lock manager: modes, upgrades, deadlocks, fairness, threads."""

from __future__ import annotations

import threading
import time

import pytest

from repro import KernelConfig, UnbundledKernel
from repro.common.config import DcConfig, TcConfig
from repro.common.errors import DeadlockError, LockTimeoutError
from repro.sim.metrics import Metrics
from repro.tc import lock_manager
from repro.tc.lock_manager import (
    LockManager,
    LockMode,
    combined_mode,
    mode_covers,
)
from tests.conftest import run_in_threads


def make_lm(timeout=0.2):
    return LockManager(Metrics(), timeout=timeout)


class TestCompatibility:
    def test_shared_locks_coexist(self):
        lm = make_lm()
        lm.acquire(1, "r", LockMode.S)
        lm.acquire(2, "r", LockMode.S)
        assert lm.holds(1, "r", LockMode.S) and lm.holds(2, "r", LockMode.S)

    def test_x_excludes_everything(self):
        lm = make_lm(timeout=0.05)
        lm.acquire(1, "r", LockMode.X)
        for mode in (LockMode.S, LockMode.X, LockMode.IS, LockMode.IX):
            with pytest.raises(LockTimeoutError):
                lm.acquire(2, "r", mode, timeout=0.05)

    def test_intention_modes_coexist(self):
        lm = make_lm()
        lm.acquire(1, "t", LockMode.IX)
        lm.acquire(2, "t", LockMode.IX)
        lm.acquire(3, "t", LockMode.IS)

    def test_s_blocks_ix(self):
        lm = make_lm(timeout=0.05)
        lm.acquire(1, "t", LockMode.S)
        with pytest.raises(LockTimeoutError):
            lm.acquire(2, "t", LockMode.IX, timeout=0.05)

    def test_six_allows_is_only(self):
        lm = make_lm(timeout=0.05)
        lm.acquire(1, "t", LockMode.SIX)
        lm.acquire(2, "t", LockMode.IS)
        for mode in (LockMode.IX, LockMode.S, LockMode.SIX, LockMode.X):
            with pytest.raises(LockTimeoutError):
                lm.acquire(3, "t", mode, timeout=0.05)


class TestReentrancyAndUpgrade:
    def test_reacquire_same_mode_free(self):
        lm = make_lm()
        lm.acquire(1, "r", LockMode.S)
        lm.acquire(1, "r", LockMode.S)
        assert lm.locks_held(1) == 1

    def test_x_covers_s(self):
        lm = make_lm()
        lm.acquire(1, "r", LockMode.X)
        lm.acquire(1, "r", LockMode.S)  # no-op
        assert lm.holds(1, "r", LockMode.X)

    def test_upgrade_s_to_x_when_sole_holder(self):
        lm = make_lm()
        lm.acquire(1, "r", LockMode.S)
        lm.acquire(1, "r", LockMode.X)
        assert lm.holds(1, "r", LockMode.X)

    def test_upgrade_ix_plus_s_is_six(self):
        lm = make_lm()
        lm.acquire(1, "t", LockMode.IX)
        lm.acquire(1, "t", LockMode.S)
        assert lm.holds(1, "t", LockMode.SIX)

    def test_upgrade_blocks_on_other_holder(self):
        lm = make_lm(timeout=0.05)
        lm.acquire(1, "r", LockMode.S)
        lm.acquire(2, "r", LockMode.S)
        with pytest.raises(LockTimeoutError):
            lm.acquire(1, "r", LockMode.X, timeout=0.05)

    def test_mode_helpers(self):
        assert combined_mode(LockMode.IS, LockMode.IX) is LockMode.IX
        assert combined_mode(LockMode.S, LockMode.IX) is LockMode.SIX
        assert mode_covers(LockMode.X, LockMode.S)
        assert not mode_covers(LockMode.S, LockMode.X)


class TestRelease:
    def test_release_wakes_waiter(self):
        lm = make_lm(timeout=2.0)
        lm.acquire(1, "r", LockMode.X)
        acquired = threading.Event()

        def waiter():
            lm.acquire(2, "r", LockMode.X)
            acquired.set()

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.05)
        assert not acquired.is_set()
        lm.release(1, "r")
        thread.join(timeout=2)
        assert acquired.is_set()

    def test_release_all(self):
        lm = make_lm()
        for resource in ("a", "b", "c"):
            lm.acquire(1, resource, LockMode.X)
        assert lm.release_all(1) == 3
        assert lm.locks_held(1) == 0
        lm.acquire(2, "a", LockMode.X)  # immediately grantable

    def test_release_unheld_is_noop(self):
        lm = make_lm()
        lm.release(1, "nothing")

    def test_clear_drops_everything(self):
        lm = make_lm()
        lm.acquire(1, "a", LockMode.X)
        lm.clear()
        assert lm.total_locks() == 0
        lm.acquire(2, "a", LockMode.X)


class TestDeadlockDetection:
    def test_two_txn_cycle_detected(self):
        lm = make_lm(timeout=5.0)
        lm.acquire(1, "a", LockMode.X)
        lm.acquire(2, "b", LockMode.X)
        failure: list[Exception] = []
        started = threading.Event()

        def t1_then_blocks():
            started.set()
            try:
                lm.acquire(1, "b", LockMode.X)  # blocks on txn 2
            except DeadlockError as exc:
                failure.append(exc)

        thread = threading.Thread(target=t1_then_blocks)
        thread.start()
        started.wait()
        time.sleep(0.05)
        # txn 2 closing the cycle must be chosen as victim
        with pytest.raises(DeadlockError) as info:
            lm.acquire(2, "a", LockMode.X)
        assert info.value.txn_id == 2
        lm.release_all(2)
        thread.join(timeout=2)
        assert not failure  # txn 1 got its lock after the victim released

    def test_upgrade_deadlock_detected(self):
        """Two S holders both upgrading to X — the classic conversion
        deadlock."""
        lm = make_lm(timeout=5.0)
        lm.acquire(1, "r", LockMode.S)
        lm.acquire(2, "r", LockMode.S)
        results: list[object] = []

        def upgrade(txn_id):
            try:
                lm.acquire(txn_id, "r", LockMode.X)
                results.append(("ok", txn_id))
            except DeadlockError:
                results.append(("deadlock", txn_id))
                lm.release_all(txn_id)

        threads = [threading.Thread(target=upgrade, args=(t,)) for t in (1, 2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5)
        outcomes = {kind for kind, _ in results}
        assert "deadlock" in outcomes and "ok" in outcomes

    def test_timeout_fallback_without_detection(self):
        lm = make_lm(timeout=0.05)
        lm.acquire(1, "r", LockMode.X)
        with pytest.raises(LockTimeoutError):
            lm.acquire(2, "r", LockMode.X)


class TestFairness:
    def test_waiting_writer_not_starved_by_new_readers(self):
        lm = make_lm(timeout=5.0)
        lm.acquire(1, "r", LockMode.S)
        writer_granted = threading.Event()

        def writer():
            lm.acquire(2, "r", LockMode.X)
            writer_granted.set()

        thread = threading.Thread(target=writer)
        thread.start()
        time.sleep(0.05)
        # A new reader must queue behind the waiting writer (FIFO).
        reader_granted = threading.Event()

        def reader():
            lm.acquire(3, "r", LockMode.S)
            reader_granted.set()

        reader_thread = threading.Thread(target=reader)
        reader_thread.start()
        time.sleep(0.05)
        assert not reader_granted.is_set()
        lm.release_all(1)
        thread.join(timeout=2)
        assert writer_granted.is_set()
        lm.release_all(2)
        reader_thread.join(timeout=2)
        assert reader_granted.is_set()


class TestConcurrentStress:
    def test_many_threads_disjoint_resources(self):
        lm = make_lm(timeout=5.0)
        errors: list[Exception] = []

        def worker(txn_id):
            try:
                for i in range(50):
                    resource = ("rec", txn_id, i)
                    lm.acquire(txn_id, resource, LockMode.X)
                lm.release_all(txn_id)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(1, 9)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not errors
        assert lm.total_locks() == 0

    def test_contended_counter_serializes(self):
        lm = make_lm(timeout=10.0)
        counter = {"value": 0}

        def worker(txn_id):
            for _ in range(100):
                lm.acquire(txn_id, "counter", LockMode.X)
                value = counter["value"]
                counter["value"] = value + 1
                lm.release(txn_id, "counter")

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(1, 5)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert counter["value"] == 400


class TestStriping:
    """The striped hash table (``lock_manager.LOCK_STRIPES``)."""

    @pytest.mark.parametrize("stripes", [1, 2, 16])
    def test_semantics_identical_across_stripe_counts(self, stripes):
        lm = LockManager(Metrics(), timeout=0.2, stripes=stripes)
        assert lm.stripe_count == stripes
        lm.acquire(1, ("rec", "t", 1), LockMode.X)
        lm.acquire(1, ("rec", "t", 2), LockMode.S)
        lm.acquire(2, ("rec", "t", 2), LockMode.S)
        assert lm.holds(1, ("rec", "t", 1), LockMode.X)
        assert lm.locks_held(1) == 2
        assert lm.total_locks() == 3
        with pytest.raises(LockTimeoutError):
            lm.acquire(2, ("rec", "t", 1), LockMode.S, timeout=0.05)
        assert lm.release_all(1) == 2
        lm.acquire(2, ("rec", "t", 1), LockMode.S)  # released lock grants now
        assert lm.release_all(2) == 2
        assert lm.total_locks() == 0

    @pytest.mark.parametrize("stripes", [1, 4])
    def test_deadlock_detected_across_stripes(self, stripes):
        """The cycle's resources hash to different stripes; the detector's
        all-stripe snapshot must still see both waits-for edges."""
        lm = LockManager(Metrics(), timeout=5.0, stripes=stripes)
        lm.acquire(1, ("rec", "t", "a"), LockMode.X)
        lm.acquire(2, ("rec", "t", "b"), LockMode.X)
        outcome: dict[str, object] = {}

        def blocked_then_deadlocked():
            try:
                lm.acquire(1, ("rec", "t", "b"), LockMode.X)
                outcome["t1"] = "granted"
            except (DeadlockError, LockTimeoutError) as exc:
                outcome["t1"] = exc

        thread = threading.Thread(target=blocked_then_deadlocked)
        thread.start()
        time.sleep(0.1)  # let txn 1 park as a waiter on "b"
        victims = []
        try:
            lm.acquire(2, ("rec", "t", "a"), LockMode.X)
        except DeadlockError as exc:
            victims.append(exc)
            lm.release_all(2)
        thread.join(timeout=10)
        assert not thread.is_alive()
        # Exactly one side dies (the requester that closed the cycle);
        # the survivor gets its grant once the victim releases.
        if victims:
            assert outcome["t1"] == "granted"
        else:
            assert isinstance(outcome["t1"], DeadlockError)

    def test_concurrent_throughput_across_stripes(self):
        """Disjoint hot resources on a striped table: all threads finish
        (no lost wakeups, no cross-stripe interference)."""
        lm = LockManager(Metrics(), timeout=10.0, stripes=16)
        errors: list[Exception] = []

        def worker(txn_id):
            try:
                for i in range(200):
                    resource = ("rec", "t", (txn_id, i % 8))
                    lm.acquire(txn_id, resource, LockMode.X)
                    lm.release(txn_id, resource)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(1, 9)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        assert lm.total_locks() == 0

    def test_wait_metric_attributed_under_contention(self):
        metrics = Metrics()
        lm = LockManager(metrics, timeout=5.0, stripes=16)
        lm.acquire(1, "hot", LockMode.X)

        def contender():
            lm.acquire(2, "hot", LockMode.X)
            lm.release_all(2)

        thread = threading.Thread(target=contender)
        thread.start()
        time.sleep(0.05)
        lm.release_all(1)
        thread.join(timeout=10)
        assert metrics.get("locks.waits") >= 1

    def test_kernel_grants_the_same_locks_on_one_stripe(self, monkeypatch):
        """One contended in-process kernel, four threads inserting into
        their own regions of one table: one stripe (the old global mutex)
        and the default sixteen grant exactly the same locks."""
        granted = {}
        for stripes in (1, 16):
            monkeypatch.setattr(lock_manager, "LOCK_STRIPES", stripes)
            kernel = UnbundledKernel(
                KernelConfig(
                    dc=DcConfig(page_size=2048), tc=TcConfig(lock_timeout=30.0)
                )
            )
            assert kernel.tc.locks.stripe_count == stripes
            kernel.create_table("t0")
            with kernel.begin() as txn:  # each region's upper fence
                for thread_id in range(5):
                    txn.insert("t0", thread_id * 10_000 + 9_999, "fence")

            def worker(thread_id: int) -> None:
                for op in range(80):
                    with kernel.begin() as txn:
                        txn.insert("t0", thread_id * 10_000 + op, "v")

            run_in_threads(worker, 4)
            granted[stripes] = kernel.metrics.get("locks.granted")
        assert granted[1] == granted[16]


def wait_parked(lm, resource, count, timeout=5.0):
    """Until ``count`` threads sit in the condition wait of ``resource``'s
    stripe — after this, only a notify (or their timeout) moves them."""
    stripe = lm._stripe_of(resource)
    deadline = time.monotonic() + timeout
    while stripe.parked != count:
        assert time.monotonic() < deadline, f"parked={stripe.parked}, want {count}"
        time.sleep(0.001)


class Contender(threading.Thread):
    """A thread that requests one lock and records how that ended."""

    def __init__(self, lm, txn_id, resource, mode, timeout=None):
        super().__init__(daemon=True)
        self.args_ = (lm, txn_id, resource, mode, timeout)
        self.outcome = None

    def run(self):
        lm, txn_id, resource, mode, timeout = self.args_
        try:
            lm.acquire(txn_id, resource, mode, timeout=timeout)
            self.outcome = "granted"
        except LockTimeoutError:
            self.outcome = "timeout"


class TestParkedWakeups:
    """A stripe notifies only while a thread is parked on it.  Every waiter
    here has ten seconds or more to wait but must be done in under one, so
    a lost wakeup fails by the clock instead of passing slowly."""

    @pytest.mark.parametrize("how", ["release_all", "release"])
    def test_fresh_x_waiter_granted_when_holder_lets_go(self, how):
        lm = make_lm(timeout=10.0)
        lm.acquire(1, "r", LockMode.X)
        waiter = Contender(lm, 2, "r", LockMode.X)
        waiter.start()
        wait_parked(lm, "r", 1)
        start = time.monotonic()
        if how == "release":
            lm.release(1, "r")
        else:
            lm.release_all(1)
        waiter.join(timeout=10.0)
        assert waiter.outcome == "granted"
        assert time.monotonic() - start < 1.0
        assert lm.holds(2, "r", LockMode.X)

    def test_upgrade_waiter_granted_when_other_reader_ends(self):
        lm = make_lm(timeout=10.0)
        lm.acquire(1, "r", LockMode.S)
        lm.acquire(2, "r", LockMode.S)
        upgrader = Contender(lm, 1, "r", LockMode.X)
        upgrader.start()
        wait_parked(lm, "r", 1)
        start = time.monotonic()
        lm.release_all(2)
        upgrader.join(timeout=10.0)
        assert upgrader.outcome == "granted"
        assert time.monotonic() - start < 1.0
        assert lm.holds(1, "r", LockMode.X)

    def test_timed_out_waiter_leaves_the_parked_count_right(self):
        """One stripe, two parked waiters on two resources: the first times
        out, and the second is still woken by the release."""
        lm = LockManager(Metrics(), timeout=10.0, stripes=1)
        lm.acquire(1, "a", LockMode.X)
        lm.acquire(1, "b", LockMode.X)
        quitter = Contender(lm, 2, "a", LockMode.X, timeout=0.3)
        stayer = Contender(lm, 3, "b", LockMode.X)
        quitter.start()
        stayer.start()
        wait_parked(lm, "a", 2)
        quitter.join(timeout=10.0)
        assert quitter.outcome == "timeout"
        wait_parked(lm, "b", 1)
        start = time.monotonic()
        lm.release_all(1)
        stayer.join(timeout=10.0)
        assert stayer.outcome == "granted"
        assert time.monotonic() - start < 1.0
        assert lm._stripe_of("b").parked == 0
