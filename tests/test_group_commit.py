"""Group commit (docs/architecture.md §9.3): shared forces, full durability.

These are deterministic unit tests of
:class:`~repro.tc.log.GroupCommitCoalescer`: the test thread plays extra
committers by calling ``enter()`` itself, so a spawned waiter provably
parks (``waiting < committers`` and the deadline, which each test sets
through ``GROUP_COMMIT_DEADLINE_MS``, is far away) and the leader
election is exercised without timing races.  End-to-end force-before-ack
at every batch size lives in test_integration_stress.
"""

from __future__ import annotations

import threading
import time

from repro.sim.metrics import Metrics
from repro.tc import log as tc_log
from repro.tc.log import CommitRecord, GroupCommitCoalescer, TcLog


def commit_lsn(log, txn_id=1):
    return log.append(lambda lsn: CommitRecord(lsn=lsn, txn_id=txn_id)).lsn


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(0.001)


class TestCoalescerBasics:
    def test_size_one_forces_per_commit(self):
        log = TcLog(Metrics())
        coal = GroupCommitCoalescer(log, size=1)
        lsn = commit_lsn(log)
        coal.wait_stable(lsn, log.force)
        assert log.eosl >= lsn
        assert log.metrics.get("tclog.forces") == 1

    def test_single_committer_never_sleeps(self, monkeypatch):
        """waiting >= committers holds immediately for a lone committer, so
        even an hour-long deadline costs nothing (the zero-overhead-when-
        unused property of the knob)."""
        log = TcLog(Metrics())
        monkeypatch.setattr(tc_log, "GROUP_COMMIT_DEADLINE_MS", 3_600_000.0)
        coal = GroupCommitCoalescer(log, size=8)
        coal.enter()
        lsn = commit_lsn(log)
        start = time.monotonic()
        coal.wait_stable(lsn, log.force)
        coal.exit()
        assert time.monotonic() - start < 1.0
        assert log.eosl >= lsn
        assert log.metrics.get("tclog.group_commit_leads") == 1
        assert log.metrics.get("tclog.group_commit_riders") == 0

    def test_already_stable_lsn_skips_the_force(self):
        log = TcLog(Metrics())
        coal = GroupCommitCoalescer(log, size=4)
        lsn = commit_lsn(log)
        log.force()
        before = log.metrics.get("tclog.forces")
        coal.enter()
        coal.wait_stable(lsn, log.force)
        coal.exit()
        assert log.metrics.get("tclog.forces") == before


class TestLeaderElection:
    def test_two_committers_share_one_force(self, monkeypatch):
        """The second committer to park leads (waiting == committers) and
        its single force covers the first, who rides."""
        metrics = Metrics()
        log = TcLog(metrics)
        monkeypatch.setattr(tc_log, "GROUP_COMMIT_DEADLINE_MS", 30_000.0)
        coal = GroupCommitCoalescer(log, size=8)
        coal.enter()  # the rider
        coal.enter()  # this thread, still "running"
        rider_lsn = commit_lsn(log, txn_id=1)
        rider = threading.Thread(
            target=lambda: coal.wait_stable(rider_lsn, log.force)
        )
        rider.start()
        # waiting=1 < committers=2 and the deadline is far away: parked.
        wait_until(lambda: coal._waiting == 1)
        assert log.metrics.get("tclog.forces") == 0
        leader_lsn = commit_lsn(log, txn_id=2)
        coal.wait_stable(leader_lsn, log.force)  # waiting==committers: lead
        rider.join(timeout=5.0)
        assert not rider.is_alive()
        coal.exit()
        coal.exit()
        assert log.eosl >= leader_lsn
        assert metrics.get("tclog.forces") == 1
        assert metrics.get("tclog.group_commit_leads") == 1
        assert metrics.get("tclog.group_commit_riders") == 1

    def test_full_group_leads_without_waiting_for_stragglers(self, monkeypatch):
        """waiting >= size elects a leader even while other committers are
        still running their transactions."""
        metrics = Metrics()
        log = TcLog(metrics)
        monkeypatch.setattr(tc_log, "GROUP_COMMIT_DEADLINE_MS", 30_000.0)
        coal = GroupCommitCoalescer(log, size=2)
        for _ in range(3):  # a third committer never reaches wait_stable
            coal.enter()
        lsns = [commit_lsn(log, txn_id=i) for i in (1, 2)]
        threads = [
            threading.Thread(target=lambda l=lsn: coal.wait_stable(l, log.force))
            for lsn in lsns
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5.0)
            assert not thread.is_alive()
        for _ in range(3):
            coal.exit()
        assert log.eosl >= max(lsns)
        assert metrics.get("tclog.forces") == 1

    def test_deadline_bounds_commit_latency(self, monkeypatch):
        """A parked waiter whose group never fills elects itself once the
        flush deadline elapses — latency is bounded, not best-effort."""
        log = TcLog(Metrics())
        monkeypatch.setattr(tc_log, "GROUP_COMMIT_DEADLINE_MS", 25.0)
        coal = GroupCommitCoalescer(log, size=8)
        coal.enter()
        coal.enter()  # a phantom committer that never commits
        lsn = commit_lsn(log)
        start = time.monotonic()
        coal.wait_stable(lsn, log.force)  # waiting=1 < committers=2: parks
        elapsed = time.monotonic() - start
        coal.exit()
        coal.exit()
        assert log.eosl >= lsn
        assert elapsed >= 0.02  # it did wait for the deadline...
        assert elapsed < 5.0  # ...but not forever

    def test_departing_committer_promotes_the_waiter(self, monkeypatch):
        """exit() re-evaluates the election: when the other in-flight
        committer aborts instead of committing, the parked waiter must not
        sit out its whole deadline."""
        log = TcLog(Metrics())
        monkeypatch.setattr(tc_log, "GROUP_COMMIT_DEADLINE_MS", 30_000.0)
        coal = GroupCommitCoalescer(log, size=8)
        coal.enter()  # the waiter
        coal.enter()  # the aborter
        lsn = commit_lsn(log)
        waiter = threading.Thread(target=lambda: coal.wait_stable(lsn, log.force))
        waiter.start()
        wait_until(lambda: coal._waiting == 1)
        coal.exit()  # the aborter leaves; waiting >= committers now holds
        waiter.join(timeout=5.0)
        assert not waiter.is_alive()
        coal.exit()
        assert log.eosl >= lsn

    def test_exit_releases_a_rider_parked_for_the_whole_deadline(self, monkeypatch):
        """The rider's deadline is ten seconds, so only the departing
        committer's notify can release it in under one: ``exit()`` must
        notify whenever someone is parked."""
        log = TcLog(Metrics())
        monkeypatch.setattr(tc_log, "GROUP_COMMIT_DEADLINE_MS", 10_000.0)
        coal = GroupCommitCoalescer(log, size=8)
        coal.enter()  # the rider
        coal.enter()  # the other committer, which leaves without committing
        lsn = commit_lsn(log)
        rider = threading.Thread(
            target=lambda: coal.wait_stable(lsn, log.force), daemon=True
        )
        rider.start()
        wait_until(lambda: coal._waiting == 1)
        start = time.monotonic()
        coal.exit()
        rider.join(timeout=10.0)
        assert not rider.is_alive()
        assert time.monotonic() - start < 1.0
        coal.exit()
        assert log.eosl >= lsn
