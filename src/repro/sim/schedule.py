"""Cooperative deterministic scheduling of concurrent kernel activity.

The chaos runner perturbs *what* fails; this module perturbs *when things
interleave*.  N transactions (plus DC recovery, when a schedule injects a
crash) run as virtual tasks on real threads, but only one task executes at
a time: a run token passes from the scheduler to exactly one task, and the
task hands it back at the next **yield point** — an instrumented
interleaving site in the kernel's hot paths:

==================  ====================================================
yield point         site
==================  ====================================================
``lock.acquire``    :meth:`LockManager._acquire` entry (tc/lock_manager)
``lock.blocked``    the 2PL wait loop's :func:`wait`
``lock.release``    :meth:`LockManager.release` / ``release_all`` exit
``channel.send``    :meth:`MessageChannel._request` before delivery
``channel.recv``    :meth:`MessageChannel._request` before the reply
``tc.log_force``    :meth:`TcLog._force` entry (before the log mutex)
``tc.checkpoint``   :meth:`TransactionalComponent.checkpoint` entry
``tc.truncate``     before checkpoint-driven TC log truncation drops the
                    stable prefix below the RSSP
``buffer.latch``    DC operation entry, before the buffer/latch bracket
``dc.systxn``       :meth:`SystemTransaction._commit` entry
``dc.redo_wait``    TC dispatch stalled on a DC's redo window
``tc.owed_wait``    a committer stalled behind another task's log record
                    whose before-image is still owed (:meth:`TcLog.await_fill`)
==================  ====================================================

Every site pays only a module-global ``is None`` check when no scheduler
is installed (the same zero-overhead discipline as the tracer and fault
hooks).  With a scheduler installed, the choice of which task runs next is
delegated to a pluggable :class:`Strategy`; each choice is appended to a
**decision trace**, so any schedule replays exactly from ``(seed, trace)``
via :class:`TraceStrategy`, and a failing trace delta-debugs down to a
minimal reproducer with :func:`minimize_trace`.

Blocking discipline.  :func:`wait` is the one way a TC thread blocks and
:func:`now` the one clock its timeouts read.  A task holds the run token,
so it must never block for real: its ``wait`` releases the condition,
yields, and parks blocked on the wait's resource until a :func:`notify`
(or any lock release) wakes it — step-paced runs take no timeouts.  When
every live task is blocked the scheduler schedules one anyway; a 2PL
waiter's next loop iteration runs the ordinary deadlock detector, which
aborts the victim and un-wedges the rest.  Tasks must also never *park*
while holding a real latch: the DC operation bracket marks a critical
section (:func:`enter_critical`), and yield points hit inside it record
their event but keep running.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Callable, Optional, Sequence

from repro.common.errors import ReproError


class YieldPoint:
    """Names of the instrumented interleaving sites (and note events)."""

    LOCK_ACQUIRE = "lock.acquire"
    LOCK_BLOCKED = "lock.blocked"
    LOCK_RELEASE = "lock.release"
    CHANNEL_SEND = "channel.send"
    CHANNEL_RECV = "channel.recv"
    TC_LOG_FORCE = "tc.log_force"
    TC_CHECKPOINT = "tc.checkpoint"
    TC_TRUNCATE = "tc.truncate"
    BUFFER_LATCH = "buffer.latch"
    DC_SYSTXN = "dc.systxn"
    DC_REDO_WAIT = "dc.redo_wait"
    TC_OWED_WAIT = "tc.owed_wait"
    CC_VALIDATE = "cc.validate"
    CC_INSTALL = "cc.install"


#: The installed scheduler, or None.  Instrumented sites read this module
#: attribute and bail on None, so the hot paths pay a single global load
#: when exploration is off.
ACTIVE: Optional["DeterministicScheduler"] = None


class ScheduleInterrupted(BaseException):
    """Unwinds a task when the scheduler shuts a schedule down early.

    Derives from ``BaseException`` so kernel-level ``except Exception``
    handlers (journal replay, abort cleanup) cannot swallow it.
    """


def maybe_yield(point: str, target: str = "", **detail: object) -> None:
    """Hand the run token back to the scheduler, if one is installed."""
    scheduler = ACTIVE
    if scheduler is not None:
        scheduler._on_yield(point, target, detail)


def note_event(point: str, target: str = "", **detail: object) -> None:
    """Record an event in the active schedule's history without yielding."""
    scheduler = ACTIVE
    if scheduler is not None:
        scheduler.note(point, target, **detail)


def enter_critical() -> None:
    """The current task is entering a real-latch bracket: record-only mode."""
    scheduler = ACTIVE
    if scheduler is not None:
        task = scheduler._current()
        if task is not None:
            task.critical_depth += 1


def exit_critical() -> None:
    scheduler = ACTIVE
    if scheduler is not None:
        task = scheduler._current()
        if task is not None and task.critical_depth > 0:
            task.critical_depth -= 1


def notify(resource: object) -> None:
    """Unblock tasks parked on ``resource`` (non-lock waits, e.g. redo)."""
    scheduler = ACTIVE
    if scheduler is not None:
        for task in scheduler._tasks:
            if task.blocked_on == resource:
                task.blocked_on = None


#: The one clock every timeout reads (seconds, monotonic).  A run that
#: owns time installs its own here, as a scheduler installs :data:`ACTIVE`;
#: the default is ``time.monotonic`` itself, so a read is one builtin call.
now: Callable[[], float] = time.monotonic


def wait(
    cond: threading.Condition,
    deadline: Optional[float],
    point: str,
    target: str = "",
    **detail: object,
) -> bool:
    """Block on ``cond`` (held by the caller) until notified; False only
    once ``deadline`` (a :func:`now` reading, None for none) has passed.

    A task of the installed scheduler instead releases ``cond``, yields
    ``point`` and parks blocked on ``detail["resource"]``; it retakes
    ``cond`` however the park ends and returns True.
    """
    scheduler = ACTIVE
    if scheduler is not None:
        task = scheduler._current()
        if task is not None:
            cond.release()
            try:
                scheduler._park(task, point, target, detail)
            finally:
                cond.acquire()
            return True
    if deadline is None:
        return cond.wait()
    left = deadline - now()
    return left > 0 and (cond.wait(left) or now() < deadline)


def task_active() -> bool:
    """True when the calling thread is a task of the installed scheduler."""
    scheduler = ACTIVE
    return scheduler is not None and scheduler._current() is not None


class _Task:
    """One virtual task: a real thread gated by a semaphore token."""

    __slots__ = (
        "tid",
        "name",
        "fn",
        "gate",
        "thread",
        "done",
        "error",
        "blocked_on",
        "critical_depth",
        "interrupted",
    )

    def __init__(self, tid: int, name: str, fn: Callable[[], None]) -> None:
        self.tid = tid
        self.name = name
        self.fn = fn
        self.gate = threading.Semaphore(0)
        self.thread: Optional[threading.Thread] = None
        self.done = False
        self.error: Optional[BaseException] = None
        self.blocked_on: Optional[object] = None
        self.critical_depth = 0
        self.interrupted = False


# -- strategies --------------------------------------------------------------


class Strategy:
    """Picks which runnable task takes the next step."""

    name = "strategy"

    def pick(self, runnable: Sequence[_Task], step: int) -> _Task:
        raise NotImplementedError


class RandomWalkStrategy(Strategy):
    """Uniform seeded choice at every step: the workhorse explorer."""

    name = "random"

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)

    def pick(self, runnable: Sequence[_Task], step: int) -> _Task:
        return self._rng.choice(list(runnable))


class PctStrategy(Strategy):
    """PCT-style priority scheduling (Burckhardt et al.).

    Each task gets a random priority; the highest-priority runnable task
    always runs.  At ``depth - 1`` pre-chosen change points the current
    top task is demoted below everyone, forcing a context switch exactly
    there.  Small ``depth`` targets low-preemption-count bugs directly.
    """

    name = "pct"

    def __init__(self, seed: int, depth: int = 3, horizon: int = 1000) -> None:
        self._rng = random.Random(seed)
        count = max(0, depth - 1)
        self._changes = set(self._rng.sample(range(horizon), count))
        self._prio: dict[int, float] = {}
        self._floor = 0.0

    def pick(self, runnable: Sequence[_Task], step: int) -> _Task:
        for task in runnable:
            if task.tid not in self._prio:
                self._prio[task.tid] = 1.0 + self._rng.random()
        best = max(runnable, key=lambda t: self._prio[t.tid])
        if step in self._changes:
            self._floor -= 1.0
            self._prio[best.tid] = self._floor
            best = max(runnable, key=lambda t: self._prio[t.tid])
        return best


class RoundRobinStrategy(Strategy):
    """Bounded round-robin: run each task ``budget`` steps, then preempt."""

    name = "rr"

    def __init__(self, budget: int = 4) -> None:
        self.budget = max(1, budget)
        self._current_tid: Optional[int] = None
        self._spent = 0

    def pick(self, runnable: Sequence[_Task], step: int) -> _Task:
        by_tid = {task.tid: task for task in runnable}
        current = (
            by_tid.get(self._current_tid)
            if self._current_tid is not None
            else None
        )
        if current is not None and self._spent < self.budget:
            self._spent += 1
            return current
        order = sorted(by_tid)
        if self._current_tid is not None:
            later = [tid for tid in order if tid > self._current_tid]
            order = later + [tid for tid in order if tid <= self._current_tid]
        chosen = by_tid[order[0]]
        self._current_tid = chosen.tid
        self._spent = 1
        return chosen


class TraceStrategy(Strategy):
    """Replay a recorded decision trace; deterministic fallback after it.

    Decision ``i`` names the task tid to run at step ``i``.  When the
    named task is not runnable (the trace was minimized, so context
    differs) or the trace is exhausted, the lowest-tid runnable task runs
    — fully deterministic, so ``(seed, trace)`` is a complete reproducer.
    """

    name = "trace"

    def __init__(self, trace: Sequence[int]) -> None:
        self.trace = list(trace)

    def pick(self, runnable: Sequence[_Task], step: int) -> _Task:
        if step < len(self.trace):
            wanted = self.trace[step]
            for task in runnable:
                if task.tid == wanted:
                    return task
        return min(runnable, key=lambda t: t.tid)


# -- the scheduler ------------------------------------------------------------


class DeterministicScheduler:
    """Token-passing cooperative scheduler over real threads.

    Usage::

        sched = DeterministicScheduler(RandomWalkStrategy(seed))
        sched.spawn("t0", work_fn)
        sched.at_step(20, lambda: kernel.crash_dc())
        sched.run()          # installs itself as the module-global ACTIVE
        sched.decisions      # the replayable yield-decision trace
        sched.events         # seq-ordered history (yields + noted events)
    """

    #: Wall-clock bound on one task step; tripping it means a task blocked
    #: on a real lock held by a parked task — an instrumentation bug, not
    #: a kernel bug — and the run fails loudly instead of hanging.
    STEP_TIMEOUT_S = 60.0

    def __init__(
        self,
        strategy: Strategy,
        max_steps: int = 5000,
    ) -> None:
        self.strategy = strategy
        self.max_steps = max_steps
        self.events: list[dict] = []
        self.decisions: list[int] = []
        self.steps = 0
        self.exhausted = False
        self._tasks: list[_Task] = []
        self._by_ident: dict[int, _Task] = {}
        self._control = threading.Semaphore(0)
        self._stop = False
        self._seq = 0
        self._actions: dict[int, list[Callable[[], None]]] = {}

    # -- task management ----------------------------------------------------

    def spawn(self, name: str, fn: Callable[[], None]) -> _Task:
        """Add a task (also mid-run, e.g. recovery after a crash action)."""
        task = _Task(len(self._tasks), name, fn)
        self._tasks.append(task)
        task.thread = threading.Thread(
            target=self._task_body, args=(task,), name=f"sched-{name}", daemon=True
        )
        task.thread.start()
        return task

    def at_step(self, step: int, action: Callable[[], None]) -> None:
        """Run ``action`` on the scheduler thread right before step ``step``.

        Actions run while no task holds the token, so they may crash
        components (a ``sim/faults``-style fail-stop) or spawn new tasks;
        combined with strategy-driven yields this interleaves a crash at
        any yield point of the schedule.
        """
        self._actions.setdefault(step, []).append(action)

    def _task_body(self, task: _Task) -> None:
        self._by_ident[threading.get_ident()] = task
        task.gate.acquire()
        try:
            if not self._stop:
                task.fn()
        except ScheduleInterrupted:
            pass
        except BaseException as exc:  # recorded, never propagated to the pool
            task.error = exc
            self._record("task.error", "", task, {"error": repr(exc)})
        finally:
            task.done = True
            self._control.release()

    def _current(self) -> Optional[_Task]:
        return self._by_ident.get(threading.get_ident())

    # -- events -------------------------------------------------------------

    def _record(
        self, point: str, target: str, task: Optional[_Task], detail: dict
    ) -> None:
        event = {
            "seq": self._seq,
            "point": point,
            "target": target,
            "task": None if task is None else task.name,
        }
        self._seq += 1
        if detail:
            event.update(detail)
        self.events.append(event)

    def note(self, point: str, target: str = "", **detail: object) -> None:
        self._record(point, target, self._current(), detail)

    # -- yielding -----------------------------------------------------------

    def _on_yield(self, point: str, target: str, detail: dict) -> None:
        task = self._current()
        self._record(point, target, task, detail)
        if task is None or task.interrupted:
            return  # setup/teardown threads and unwinding tasks never park
        if point == YieldPoint.LOCK_RELEASE:
            # A release may make any blocked task grantable; wake them all
            # to re-check (the wait loop re-evaluates grantability).
            for other in self._tasks:
                other.blocked_on = None
        if task.critical_depth > 0:
            return  # holding a real latch: record, but do not park
        self._switch(task)

    def _park(self, task: _Task, point: str, target: str, detail: dict) -> None:
        """:func:`wait`'s yield: park ``task`` blocked on its resource."""
        self._record(point, target, task, detail)
        if not task.interrupted:
            task.blocked_on = detail.get("resource")
            self._switch(task)

    def _switch(self, task: _Task) -> None:
        """Hand the run token back and sleep until ``task`` is picked."""
        self._control.release()
        task.gate.acquire()
        task.blocked_on = None
        if self._stop:
            task.interrupted = True
            raise ScheduleInterrupted()

    # -- the run loop -------------------------------------------------------

    def run(self) -> None:
        """Drive tasks to completion (or ``max_steps``), one step at a time."""
        global ACTIVE
        if ACTIVE is not None:
            raise ReproError("a deterministic scheduler is already installed")
        ACTIVE = self
        try:
            while True:
                for action in self._actions.pop(self.steps, ()):
                    action()
                live = [t for t in self._tasks if not t.done]
                if not live:
                    break
                if self.steps >= self.max_steps:
                    self.exhausted = True
                    break
                runnable = [t for t in live if t.blocked_on is None]
                if not runnable:
                    # Everyone is parked in a wait.  Schedule them all
                    # anyway: a 2PL waiter's next iteration runs deadlock
                    # detection, aborts a victim, and the rest drain.
                    for t in live:
                        t.blocked_on = None
                    runnable = live
                task = self.strategy.pick(runnable, self.steps)
                self.decisions.append(task.tid)
                self.steps += 1
                self._step(task)
        finally:
            self._shutdown()
            ACTIVE = None

    def _step(self, task: _Task) -> None:
        task.gate.release()
        if not self._control.acquire(timeout=self.STEP_TIMEOUT_S):
            self._stop = True
            raise ReproError(
                f"schedule wedged: task {task.name!r} neither yielded nor "
                f"finished within {self.STEP_TIMEOUT_S}s (a task parked "
                f"while holding a native lock?)"
            )

    def _shutdown(self) -> None:
        """Unwind every unfinished task via ScheduleInterrupted."""
        self._stop = True
        for task in self._tasks:
            while not task.done:
                task.gate.release()
                if not self._control.acquire(timeout=self.STEP_TIMEOUT_S):
                    break  # daemon thread is wedged; abandon it

    # -- results ------------------------------------------------------------

    def errors(self) -> dict[str, BaseException]:
        return {t.name: t.error for t in self._tasks if t.error is not None}


# -- trace minimization -------------------------------------------------------


def minimize_trace(
    trace: Sequence[int],
    still_fails: Callable[[list[int]], bool],
    max_replays: int = 120,
) -> list[int]:
    """Delta-debug a failing yield-decision trace to a smaller one.

    ``still_fails(candidate)`` replays the schedule under
    :class:`TraceStrategy` and reports whether the anomaly persists.  Two
    passes: binary-search the shortest failing prefix (the deterministic
    fallback finishes the schedule), then ddmin-style chunk removal.  The
    replay budget bounds total work; the best trace found so far is
    returned even when the budget trips.
    """
    budget = [max_replays]

    def check(candidate: list[int]) -> bool:
        if budget[0] <= 0:
            return False
        budget[0] -= 1
        return still_fails(candidate)

    best = list(trace)
    # Pass 1: shortest failing prefix.
    lo, hi = 0, len(best)
    while lo < hi:
        mid = (lo + hi) // 2
        if check(best[:mid]):
            hi = mid
        else:
            lo = mid + 1
    if check(best[:hi]):
        best = best[:hi]
    # Pass 2: remove interior chunks, halving granularity.
    chunk = max(1, len(best) // 2)
    while chunk >= 1 and budget[0] > 0:
        index = 0
        while index < len(best) and budget[0] > 0:
            candidate = best[:index] + best[index + chunk :]
            if candidate != best and check(candidate):
                best = candidate
            else:
                index += chunk
        chunk //= 2
    return best
