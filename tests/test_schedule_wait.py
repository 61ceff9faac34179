"""The one wait and the one clock (``repro.sim.schedule.wait`` / ``now``).

On a plain thread ``wait`` is a condition wait bounded by a ``now()``
deadline.  On a task of an installed :class:`DeterministicScheduler` it
never blocks for real: it releases the condition, records its yield point
and parks the task until ``notify(resource)``; step-paced runs take no
timeouts.  The source checks pin that nothing else blocks a TC thread or
reads time for a timeout.
"""

from __future__ import annotations

import inspect
import pathlib
import threading
import time

import repro
from repro.sim import schedule
from repro.sim.schedule import DeterministicScheduler, TraceStrategy

SRC = pathlib.Path(repro.__file__).parent


def notify_after(cond, delay=0.0, woke=None):
    """Start a thread that notifies ``cond`` (once it can take its lock)."""

    def body():
        time.sleep(delay)
        with cond:
            if woke is not None:
                woke.append(True)
            cond.notify_all()

    thread = threading.Thread(target=body)
    thread.start()
    return thread


class TestPlainThread:
    def test_false_once_the_deadline_passes(self):
        cond = threading.Condition()
        deadline = schedule.now() + 0.05
        with cond:
            assert not schedule.wait(cond, deadline, "test.wait")
        assert schedule.now() >= deadline

    def test_past_deadline_returns_false_at_once(self):
        cond = threading.Condition()
        with cond:
            assert not schedule.wait(cond, schedule.now() - 1.0, "test.wait")

    def test_true_when_notified_first(self):
        cond = threading.Condition()
        with cond:
            # The notifier needs the lock, which only the wait releases.
            thread = notify_after(cond)
            assert schedule.wait(cond, schedule.now() + 30.0, "test.wait")
        thread.join(timeout=5.0)
        assert not thread.is_alive()

    def test_no_deadline_blocks_until_notified(self):
        cond = threading.Condition()
        woke: list = []
        with cond:
            thread = notify_after(cond, delay=0.05, woke=woke)
            assert schedule.wait(cond, None, "test.wait")
            assert woke == [True]
        thread.join(timeout=5.0)
        assert not thread.is_alive()


class TestSchedulerTask:
    def test_parks_until_notified_and_frees_the_lock(self):
        """The first task parks in ``wait`` (its deadline already past on
        the wall clock); the second takes the condition's lock, sees the
        first blocked on the resource and notifies it; the first then
        returns True holding the lock again."""
        cond = threading.Condition()
        seen: list = []
        scheduler = DeterministicScheduler(TraceStrategy([]))

        def first():
            with cond:
                seen.append(
                    schedule.wait(
                        cond, schedule.now() - 1.0, "test.wait", "x", resource="r"
                    )
                )
                seen.append(cond._is_owned())

        def second():
            assert cond.acquire(timeout=5.0)
            try:
                seen.append(scheduler._tasks[0].blocked_on)
            finally:
                cond.release()
            schedule.notify("r")

        scheduler.spawn("first", first)
        scheduler.spawn("second", second)
        scheduler.run()
        assert scheduler.errors() == {}
        assert seen == ["r", True, True]
        # Only the second task was runnable while the first was parked.
        assert scheduler.decisions == [0, 1, 0]
        (event,) = [e for e in scheduler.events if e["point"] == "test.wait"]
        assert (event["task"], event["target"], event["resource"]) == ("first", "x", "r")

    def test_interrupted_park_takes_the_lock_back(self):
        """A schedule cut while a task is parked unwinds it with
        ``ScheduleInterrupted``; ``wait`` retakes the lock on the way out,
        so the caller's ``with`` releases a lock it holds."""
        cond = threading.Condition()
        seen: list = []
        scheduler = DeterministicScheduler(TraceStrategy([]), max_steps=1)

        def parked():
            with cond:
                try:
                    schedule.wait(cond, None, "test.wait", resource="never")
                    seen.append("returned")
                finally:
                    seen.append(cond._is_owned())

        scheduler.spawn("parked", parked)
        scheduler.run()
        assert scheduler.exhausted
        assert seen == [True]
        assert cond.acquire(blocking=False)
        cond.release()


class TestOneWaitOneClock:
    def test_only_the_schedule_module_reads_the_monotonic_clock(self):
        readers = sorted(
            str(path.relative_to(SRC))
            for path in SRC.rglob("*.py")
            if "time.monotonic" in path.read_text()
        )
        assert readers == ["sim/schedule.py"]

    def test_tc_waits_have_no_scheduler_twin(self):
        for name in ("tc/lock_manager.py", "tc/log.py", "tc/dispatch.py"):
            assert "task_active" not in (SRC / name).read_text(), name

    def test_on_yield_names_no_blocking_point(self):
        source = inspect.getsource(DeterministicScheduler._on_yield)
        for point in ("LOCK_BLOCKED", "DC_REDO_WAIT", "TC_OWED_WAIT"):
            assert point not in source, point
        assert "LOCK_RELEASE" in source
