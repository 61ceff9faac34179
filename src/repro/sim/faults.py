"""Deterministic fault injection for the unbundled kernel.

The paper's contracts (causality, unique request ids, idempotence, resend,
recovery ordering) are only interesting *under failure* — so failure must
be scriptable.  A single :class:`FaultInjector` is threaded through every
component; each component announces named **hook points** by calling
:meth:`FaultInjector.hit` at its fault surface:

==================== ========================================================
hook point           fired
==================== ========================================================
``disk.page_write``  before a page image is installed on stable storage
``disk.dclog_force`` before a system-transaction batch is forced to the
                     stable DC log (the "failed fsync" surface)
``buffer.flush``     before the buffer manager flushes a dirty page
``channel.send``     before a request is delivered to the DC
``channel.recv``     before a reply is returned to the TC
``tc.log_force``     before the TC forces its log (commit durability point)
``tc.checkpoint``    at the start of a TC checkpoint
``tc.truncate``      after a checkpoint is stable, before the TC log's
                     prefix below the RSSP is physically dropped
``tc.redo``          before each operation of a restart redo stream is
                     resent (crash-mid-redo surface)
``dc.systxn``        at system-transaction commit, after the split halves
                     exist in memory but before anything is stable
``dc.restart``       at the start of DC recovery (double-failure surface)
==================== ========================================================

A **schedule** is an ordered list of :class:`FaultRule`; each rule matches
one hook point (optionally filtered to one component) and fires on the Nth
matching hit.  Actions:

- ``crash``    — crash the target component (fail-stop) and abort the
                 in-flight call with ``CrashedError``.  A crash at
                 ``disk.page_write`` models a torn/partial page write: the
                 write never happens (atomic page semantics: torn = nothing)
                 and the volume's DC dies, exactly like a checksum-detected
                 torn sector on real hardware.
- ``drop``     — lose the message (channel points); ``count`` > 1 makes a
                 burst.
- ``duplicate``— deliver the request twice (``channel.send``); DC-side
                 idempotence must absorb the second copy.
- ``partition``— lose *every* message on the channel until the supervisor
                 heals it.
- ``delay``    — record a latency spike of ``delay_ms`` simulated ms.
- ``fail``     — raise :class:`~repro.common.errors.InjectedFault`.

A rule with a ``rate`` is a lossy (or duplicating) wire rather than one
event: from its ``after``-th matching hit on, it fires on each hit with
that probability.  This is the network of §4.2.1 that "may delay,
duplicate or drop" any message, and the only one the in-process channel
has.

Determinism: rules fire on exact hit counts and the random mode *generates
a schedule up front* from a seed; during execution only rate rules draw,
from the injector's own ``random.Random(seed)``, so every run is fully
reproducible from the ``(seed, schedule)`` pair that
:meth:`FaultInjector.describe` prints on failure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.common.errors import CrashedError, InjectedFault
from repro.sim.metrics import Metrics


class FaultPoint:
    """Names of the kernel's fault hook points."""

    DISK_PAGE_WRITE = "disk.page_write"
    DISK_LOG_FORCE = "disk.dclog_force"
    BUFFER_FLUSH = "buffer.flush"
    CHANNEL_SEND = "channel.send"
    CHANNEL_RECV = "channel.recv"
    TC_LOG_FORCE = "tc.log_force"
    TC_CHECKPOINT = "tc.checkpoint"
    TC_TRUNCATE = "tc.truncate"
    TC_REDO = "tc.redo"
    #: occ/mvcc commit windows: entering commit-time validation, and the
    #: instant after the version stamps were installed (validation passed,
    #: commit record not yet durable).  Fire only under a ValidatingCc.
    TC_CC_VALIDATE = "tc.cc_validate"
    TC_CC_INSTALL = "tc.cc_install"
    DC_SYSTXN = "dc.systxn"
    DC_RESTART = "dc.restart"

    #: Points whose target is a DC name.
    DC_POINTS = (
        DISK_PAGE_WRITE,
        DISK_LOG_FORCE,
        BUFFER_FLUSH,
        DC_SYSTXN,
        DC_RESTART,
    )
    #: Points whose target is a DC name but whose fault surface is the wire.
    CHANNEL_POINTS = (CHANNEL_SEND, CHANNEL_RECV)
    #: Points whose target is a TC name.
    TC_POINTS = (
        TC_LOG_FORCE,
        TC_CHECKPOINT,
        TC_TRUNCATE,
        TC_REDO,
        TC_CC_VALIDATE,
        TC_CC_INSTALL,
    )

    ALL = DC_POINTS + CHANNEL_POINTS + TC_POINTS


class FaultAction:
    CRASH = "crash"
    DROP = "drop"
    DUPLICATE = "duplicate"
    PARTITION = "partition"
    DELAY = "delay"
    FAIL = "fail"


@dataclass
class FaultRule:
    """One scheduled fault: fire ``action`` on the ``after``-th matching hit.

    ``count`` extends drop/delay faults over consecutive hits (a burst);
    crash/fail faults fire once.  A partition stays active from its trigger
    until :meth:`FaultInjector.heal` lifts it.  A ``rate`` > 0 replaces the
    burst: the rule fires on every matching hit from the ``after``-th on
    with that probability.
    """

    point: str
    action: str
    target: str = ""
    after: int = 1
    count: int = 1
    delay_ms: float = 5.0
    note: str = ""
    rate: float = 0.0

    def describe(self) -> str:
        parts = [self.point, self.action]
        if self.target:
            parts.append(f"target={self.target}")
        parts.append(f"after={self.after}")
        if self.count != 1:
            parts.append(f"count={self.count}")
        if self.rate:
            parts.append(f"rate={self.rate}")
        if self.action == FaultAction.DELAY:
            parts.append(f"delay_ms={self.delay_ms}")
        if self.note:
            parts.append(f"note={self.note!r}")
        return "FaultRule(" + ", ".join(parts) + ")"


@dataclass
class FaultOutcome:
    """What a non-raising fault asks the call site to do."""

    action: str
    rule: FaultRule
    delay_ms: float = 0.0


@dataclass
class _RuleState:
    rule: FaultRule
    seen: int = 0
    fired: int = 0
    healed: bool = False

    def matches(self, point: str, target: str) -> bool:
        if self.rule.point != point:
            return False
        return not self.rule.target or self.rule.target == target

    def active(self) -> bool:
        if self.healed:
            return False
        if self.rule.action == FaultAction.PARTITION or self.rule.rate:
            return self.seen >= self.rule.after
        return self.rule.after <= self.seen < self.rule.after + self.rule.count


class FaultInjector:
    """Executes a fault schedule against registered components.

    Components self-register with :meth:`register_component` so a ``crash``
    rule can reach their ``crash()`` method; every fired fault is appended
    to :attr:`fired` (the trace printed with the schedule on failure).
    """

    def __init__(
        self,
        schedule: Sequence[FaultRule] = (),
        seed: int = 0,
        metrics: Optional[Metrics] = None,
    ) -> None:
        self.seed = seed
        self.metrics = metrics or Metrics()
        self.load_schedule(schedule)
        self._components: dict[str, tuple[str, Callable[[], object]]] = {}
        #: Human-readable trace of every fired fault, in order.
        self.fired: list[str] = []

    def load_schedule(self, schedule: Sequence[FaultRule]) -> None:
        """Install a schedule after construction (all hit counts reset,
        and the rate rules' generator reseeded).

        Lets callers build the injector first, wire components through it
        (so their registered names are known), and only then generate a
        schedule targeting those names."""
        self.schedule = list(schedule)
        self._states = [_RuleState(rule) for rule in self.schedule]
        self._rng = random.Random(self.seed)

    # -- wiring ------------------------------------------------------------

    def register_component(
        self, name: str, kind: str, crash: Callable[[], object]
    ) -> None:
        """Register a crashable component (kind is ``"tc"`` or ``"dc"``)."""
        self._components[name] = (kind, crash)

    def component_names(self, kind: Optional[str] = None) -> list[str]:
        return sorted(
            name
            for name, (component_kind, _crash) in self._components.items()
            if kind is None or component_kind == kind
        )

    # -- the hook ----------------------------------------------------------

    def hit(self, point: str, target: str = "") -> Optional[FaultOutcome]:
        """Announce one pass through a hook point; maybe inject a fault.

        Returns a :class:`FaultOutcome` for drop/duplicate/partition/delay
        faults (the call site interprets it), returns None when nothing
        fires, raises ``CrashedError`` for crash faults (after crashing the
        target component) and :class:`InjectedFault` for fail faults.  The
        first active rule fires; a rate rule is active on a hit only if
        its draw falls under its rate, and rules behind the chosen one
        draw nothing.
        """
        if not self._states:
            return None
        chosen: Optional[_RuleState] = None
        for state in self._states:
            if not state.matches(point, target):
                continue
            state.seen += 1
            if (
                chosen is None
                and state.active()
                and (not state.rule.rate or self._rng.random() < state.rule.rate)
            ):
                chosen = state
        if chosen is None:
            return None
        rule = chosen.rule
        chosen.fired += 1
        self._record(rule, point, target)
        if rule.action == FaultAction.CRASH:
            self._crash(rule.target or target, point)
        if rule.action == FaultAction.FAIL:
            raise InjectedFault(point, rule.note)
        if rule.action == FaultAction.DELAY:
            return FaultOutcome(FaultAction.DELAY, rule, rule.delay_ms)
        return FaultOutcome(rule.action, rule)

    def _crash(self, name: str, point: str) -> None:
        entry = self._components.get(name)
        if entry is None:
            raise InjectedFault(point, f"crash target {name!r} is not registered")
        _kind, crash = entry
        crash()
        raise CrashedError(name)

    def _record(self, rule: FaultRule, point: str, target: str) -> None:
        self.fired.append(f"{point}[{target or '*'}] -> {rule.action}")
        self.metrics.incr(f"faults.{point}.{rule.action}")
        self.metrics.incr("faults.fired")

    # -- healing -----------------------------------------------------------

    def heal(self, target: Optional[str] = None) -> int:
        """Lift active partitions (all of them, or one target's); returns
        how many rules were disarmed.  Called by the supervisor when it
        re-attaches channels."""
        healed = 0
        for state in self._states:
            if state.rule.action != FaultAction.PARTITION or state.healed:
                continue
            if target is not None and state.rule.target != target:
                continue
            if state.seen >= state.rule.after:
                state.healed = True
                healed += 1
                self.metrics.incr("faults.partitions_healed")
        return healed

    def partitioned(self, target: str) -> bool:
        return any(
            state.rule.action == FaultAction.PARTITION
            and state.active()
            and (not state.rule.target or state.rule.target == target)
            for state in self._states
        )

    # -- reproducibility ---------------------------------------------------

    def describe(self) -> str:
        """The full reproduction recipe: seed + schedule + fired trace."""
        rules = ", ".join(rule.describe() for rule in self.schedule)
        trace = "; ".join(self.fired) or "none"
        return f"seed={self.seed} schedule=[{rules}] fired=[{trace}]"

    def pending(self) -> int:
        """Rules that have not fired yet (partitions count until healed)."""
        return sum(1 for state in self._states if not state.fired)

    # -- seeded random schedules -------------------------------------------

    @staticmethod
    def random_rules(
        seed: int,
        dc_names: Sequence[str],
        tc_names: Sequence[str] = (),
        rules: int = 6,
        horizon: int = 300,
    ) -> list[FaultRule]:
        """Generate a reproducible schedule of ``rules`` faults from ``seed``.

        All randomness happens *here*: the schedule holds no rate rule,
        so executing it draws nothing and ``(seed, schedule)`` fully
        determines a run.
        ``horizon`` bounds the hit counts at which faults trigger — scale
        it to the workload so faults actually land.
        """
        rng = random.Random(seed)
        menu: list[tuple[str, str, str]] = []
        for dc in dc_names:
            menu.extend(
                [
                    (FaultPoint.DISK_PAGE_WRITE, FaultAction.CRASH, dc),
                    (FaultPoint.DISK_LOG_FORCE, FaultAction.CRASH, dc),
                    (FaultPoint.BUFFER_FLUSH, FaultAction.CRASH, dc),
                    (FaultPoint.DC_SYSTXN, FaultAction.CRASH, dc),
                    (FaultPoint.CHANNEL_SEND, FaultAction.DROP, dc),
                    (FaultPoint.CHANNEL_RECV, FaultAction.DROP, dc),
                    (FaultPoint.CHANNEL_SEND, FaultAction.DELAY, dc),
                    (FaultPoint.CHANNEL_SEND, FaultAction.PARTITION, dc),
                ]
            )
        for tc in tc_names:
            menu.extend(
                [
                    (FaultPoint.TC_LOG_FORCE, FaultAction.CRASH, tc),
                    (FaultPoint.TC_CHECKPOINT, FaultAction.CRASH, tc),
                    (FaultPoint.TC_TRUNCATE, FaultAction.CRASH, tc),
                    (FaultPoint.TC_REDO, FaultAction.CRASH, tc),
                ]
            )
        if not menu:
            raise ValueError("random_schedule needs at least one component name")
        # Hook points fire at wildly different rates (a channel carries
        # thousands of messages while a buffer flushes dozens of pages), so
        # the trigger-count horizon is scaled per point — otherwise rules
        # on rare points never land.
        horizon_scale = {
            FaultPoint.DISK_PAGE_WRITE: 20,
            FaultPoint.DISK_LOG_FORCE: 30,
            FaultPoint.BUFFER_FLUSH: 20,
            FaultPoint.DC_SYSTXN: 30,
            FaultPoint.DC_RESTART: 100,
            FaultPoint.TC_LOG_FORCE: 2,
            FaultPoint.TC_CHECKPOINT: 50,
            FaultPoint.TC_TRUNCATE: 50,
            FaultPoint.TC_REDO: 20,
        }
        schedule = []
        for index in range(rules):
            point, action, target = rng.choice(menu)
            point_horizon = max(3, horizon // horizon_scale.get(point, 1))
            schedule.append(
                FaultRule(
                    point=point,
                    action=action,
                    target=target,
                    after=rng.randint(1, point_horizon),
                    count=rng.randint(1, 8) if action == FaultAction.DROP else 1,
                    delay_ms=rng.choice((1.0, 5.0, 25.0)),
                    note=f"r{index}",
                )
            )
        return schedule
