"""The schedule explorer: seeded interleaving search with oracle checking.

One **schedule** = one fresh :class:`~repro.kernel.unbundled.UnbundledKernel`
driving N concurrent transactions as virtual tasks under a
:class:`~repro.sim.schedule.DeterministicScheduler`.  The workload, the
scheduling strategy and any injected DC crash are all pure functions of a
single integer seed, so every schedule — including a failing one — replays
bit-for-bit from ``(seed, trace)``.

A sweep (:func:`explore`) runs many schedules across strategies and crash
modes; the first anomalous schedule is delta-debugged
(:func:`minimize_failure`) into a minimal replayable artifact::

    {"version": "repro-explore/v1", "seed": 17, "strategy": "random",
     "trace": [2, 0, 1, ...], "config": {...}, "anomaly": "..."}

Replay with :func:`replay_artifact` (or ``python -m repro explore
--replay artifact.json``).

Crashes compose with the scheduler two ways: the built-in crash plan
(``crash=True``) fail-stops a DC at a seeded step and runs recovery as its
own schedulable task, so redo interleaves with live transactions; and a
:class:`~repro.sim.faults.FaultInjector` schedule (``fault_rules``) rides
along untouched — every fault hook point sits next to a yield point, so a
fault can fire at any interleaving the strategy reaches.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

from repro.common.config import ChannelConfig, KernelConfig, TcConfig
from repro.common.ops import ReadFlavor
from repro.common.errors import ReproError
from repro.kernel.unbundled import UnbundledKernel
from repro.sim.oracle import OracleReport, SerializationOracle
from repro.sim.schedule import (
    DeterministicScheduler,
    PctStrategy,
    RandomWalkStrategy,
    RoundRobinStrategy,
    ScheduleInterrupted,
    Strategy,
    TraceStrategy,
    minimize_trace,
    note_event,
)

ARTIFACT_VERSION = "repro-explore/v1"

STRATEGIES = ("random", "pct", "rr")


@dataclass
class ExploreConfig:
    """Shape of one explored schedule's workload."""

    txns: int = 3
    ops_per_txn: int = 3
    keyspace: int = 4
    read_fraction: float = 0.5
    #: Fail-stop one DC at a seeded step and schedule recovery as a task.
    crash: bool = False
    #: Run TC checkpoints (and their log truncation) as their own
    #: schedulable task, so checkpoint/truncation decision points
    #: interleave with live transactions and any crash/recovery task.
    checkpoint: bool = False
    #: A negative control: run with TcConfig.unsafe_skip_read_locks.
    skip_read_locks: bool = False
    #: Concurrency-control policy under test ("2pl" | "occ" | "mvcc").
    cc_policy: str = "2pl"
    #: Negative control for occ/mvcc: skip commit-time validation.
    skip_validation: bool = False
    #: Negative control for mvcc: read newest bytes, not the snapshot.
    mvcc_read_newest: bool = False
    #: Run under ``TcConfig.optimized(undo_cache_size=2)`` — operations
    #: queue and are logged when their envelope is flushed, and a
    #: committer's wait behind another task's owed record becomes
    #: schedulable — instead of the FIG1 baseline
    #: ``TcConfig(undo_cache_size=0)``, where every write is an envelope of
    #: one and every update / delete logs its undo image *owed*.
    optimized: bool = False
    max_steps: int = 2000
    table: str = "t"

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExploreConfig":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in known})


@dataclass
class ScheduleOutcome:
    """Everything one schedule produced."""

    seed: int
    strategy: str
    decisions: list[int]
    report: OracleReport
    steps: int
    exhausted: bool
    committed: int
    aborted: int
    events: list[dict] = field(repr=False, default_factory=list)
    task_errors: dict[str, str] = field(default_factory=dict)
    #: The kernel's counters at the end of the schedule.
    counters: dict[str, int] = field(repr=False, default_factory=dict)

    @property
    def anomaly(self) -> Optional[str]:
        return self.report.anomaly()


def _build_strategy(name: str, seed: int, trace: Optional[Sequence[int]]) -> Strategy:
    if name == "trace":
        return TraceStrategy(trace or [])
    if name == "random":
        return RandomWalkStrategy(seed)
    if name == "pct":
        rng = random.Random(seed ^ 0x9C7)
        return PctStrategy(seed, depth=2 + rng.randrange(3))
    if name == "rr":
        rng = random.Random(seed ^ 0x22B)
        return RoundRobinStrategy(budget=1 + rng.randrange(6))
    raise ReproError(f"unknown exploration strategy {name!r}")


def run_schedule(
    seed: int,
    config: Optional[ExploreConfig] = None,
    strategy: str = "random",
    trace: Optional[Sequence[int]] = None,
    fault_rules: Optional[Sequence[object]] = None,
) -> ScheduleOutcome:
    """Run one schedule: build a kernel, interleave, judge the history."""
    config = config or ExploreConfig()
    tc_settings = dict(
        # Real-time lock timeouts would fire spuriously under step-paced
        # scheduling; deadlock detection (which the scheduler guarantees a
        # chance to run) is the liveness mechanism instead.
        lock_timeout=60.0,
        unsafe_skip_read_locks=config.skip_read_locks,
        cc_policy=config.cc_policy,
        unsafe_skip_validation=config.skip_validation,
        unsafe_mvcc_read_newest=config.mvcc_read_newest,
    )
    if config.optimized:
        tc_config = TcConfig.optimized(undo_cache_size=2, **tc_settings)
    else:
        tc_config = TcConfig(undo_cache_size=0, **tc_settings)
    injector = None
    if fault_rules is not None:
        from repro.sim.faults import FaultInjector

        injector = FaultInjector(seed=seed)
    kernel = UnbundledKernel(
        config=KernelConfig(tc=tc_config, channel=ChannelConfig(seed=seed)),
        dc_count=1,
        faults=injector,
    )
    try:
        if injector is not None:
            injector.load_schedule(list(fault_rules))
        table = config.table
        kernel.create_table(table)
        initial: dict[tuple[str, object], object] = {}
        with kernel.begin() as txn:
            for key in range(config.keyspace):
                value = f"init.k{key}"
                txn.insert(table, key, value)
                initial[(table, key)] = value

        scheduler = DeterministicScheduler(
            _build_strategy(strategy, seed, trace), max_steps=config.max_steps
        )
        for index in range(config.txns):
            scheduler.spawn(
                f"t{index}", _txn_task(kernel, config, seed, index)
            )
        if config.checkpoint:
            scheduler.spawn("checkpoint", _checkpoint_task(kernel))
        if config.crash:
            _plan_crash(scheduler, kernel, seed)
        scheduler.run()

        final = None
        if not scheduler.exhausted:
            final = _read_final_state(kernel, config, initial)
        report = SerializationOracle().check(
            scheduler.events,
            initial=initial,
            final=final,
            strict=not scheduler.exhausted,
            # Event order is conflict order only under 2PL, where a lock
            # pins every operation until transaction end.  occ re-serves
            # repeated reads from its transaction-private workspace and
            # mvcc reads before-images, so both can legitimately return
            # an older value *after* a concurrent in-place write — the
            # value-aware MVSG is their judge.  Negative controls run
            # under the same mode as their honest policy: an anomaly
            # only counts as caught if the honest policy sweeps clean
            # under the identical judge.  A batching TC applies its
            # writes when the envelope is flushed, after the operation
            # returned — again not event order.
            multiversion=config.cc_policy in ("occ", "mvcc") or config.optimized,
        )
        commits = sum(
            1 for e in scheduler.events if e["point"] == "txn.commit"
        )
        aborts = sum(1 for e in scheduler.events if e["point"] == "txn.abort")
        return ScheduleOutcome(
            seed=seed,
            strategy=strategy,
            decisions=list(scheduler.decisions),
            report=report,
            steps=scheduler.steps,
            exhausted=scheduler.exhausted,
            committed=commits,
            aborted=aborts,
            events=scheduler.events,
            task_errors={
                name: repr(error) for name, error in scheduler.errors().items()
            },
            counters=kernel.metrics.counters(),
        )
    finally:
        kernel.close()


def _txn_task(kernel: UnbundledKernel, config: ExploreConfig, seed: int, index: int):
    """One transaction as a virtual task; its ops are a pure seed function."""

    def body() -> None:
        rng = random.Random((seed << 8) ^ (index * 0x9E3779B1 + 1))
        name = f"t{index}"
        table = config.table
        txn = kernel.begin()
        note_event("txn.begin", txn=name)
        try:
            for op_no in range(config.ops_per_txn):
                key = rng.randrange(config.keyspace)
                if rng.random() < config.read_fraction:
                    note_event("op.invoke", txn=name, op="read", table=table, key=key)
                    value = txn.read(table, key)
                    note_event(
                        "op.ok", txn=name, op="read", table=table, key=key, value=value
                    )
                else:
                    value = f"{name}.o{op_no}"
                    note_event(
                        "op.invoke", txn=name, op="update", table=table, key=key,
                        value=value,
                    )
                    txn.update(table, key, value)
                    note_event(
                        "op.ok", txn=name, op="update", table=table, key=key,
                        value=value,
                    )
            txn.commit()
            note_event("txn.commit", txn=name)
        except ScheduleInterrupted:
            raise
        except ReproError:
            try:
                txn.abort()
            except ReproError:
                pass  # the DC is down; retry_pending settles it post-run
            note_event("txn.abort", txn=name)

    return body


def _checkpoint_task(kernel: UnbundledKernel):
    """TC checkpoints as a schedulable task: each attempt yields at the
    ``tc.checkpoint``/``tc.truncate`` decision points, so the strategy can
    interleave contract termination anywhere in the transaction mix."""

    def body() -> None:
        for _ in range(2):
            try:
                granted = kernel.checkpoint()
            except ScheduleInterrupted:
                raise
            except ReproError:
                # A concurrently-injected DC crash makes the checkpoint
                # round trip fail; recovery is its own task.
                note_event("tc.checkpoint.failed")
                return
            note_event("tc.checkpoint.done", granted=granted)

    return body


def _plan_crash(
    scheduler: DeterministicScheduler, kernel: UnbundledKernel, seed: int
) -> None:
    """Fail-stop a DC at a seeded step; recovery runs as its own task."""
    rng = random.Random(seed ^ 0xD0C)
    dc_name = sorted(kernel.dcs)[0]
    step = rng.randrange(5, 45)

    def crash_now() -> None:
        if kernel.dcs[dc_name].crashed:
            return
        kernel.crash_dc(dc_name)
        scheduler.spawn("recovery", recover)

    def recover() -> None:
        kernel.recover_dc(dc_name)
        note_event("dc.recover.task_done", target=dc_name)

    scheduler.at_step(step, crash_now)


def _read_final_state(
    kernel: UnbundledKernel,
    config: ExploreConfig,
    initial: dict[tuple[str, object], object],
) -> Optional[dict[tuple[str, object], object]]:
    try:
        # Finish any rollback/cleanup a DC outage interrupted (the
        # supervisor's job in chaos runs) so the final state is settled.
        kernel.tc.retry_pending()
        final: dict[tuple[str, object], object] = {}
        for (table, key) in initial:
            final[(table, key)] = kernel.tc.read_other(
                table, key, flavor=ReadFlavor.READ_COMMITTED
            )
        return final
    except ReproError:
        return None  # a DC is still down; skip the final-state check


# -- sweeps -------------------------------------------------------------------


@dataclass
class ExplorationSummary:
    explored: int = 0
    anomalies: int = 0
    committed: int = 0
    aborted: int = 0
    exhausted: int = 0
    per_variant: dict[str, int] = field(default_factory=dict)
    first_failure: Optional[ScheduleOutcome] = None
    #: The exact variant config the first failure ran under (sweeps mutate
    #: crash/checkpoint/cc_policy per variant) — what minimize_failure needs.
    first_failure_config: Optional[ExploreConfig] = None
    #: Counter totals over every explored schedule (the protocol-counter
    #: ledger's input, :mod:`repro.sim.ledger`).
    counters: Counter = field(default_factory=Counter)

    def to_dict(self) -> dict:
        data = {
            "explored": self.explored,
            "anomalies": self.anomalies,
            "committed": self.committed,
            "aborted": self.aborted,
            "exhausted": self.exhausted,
            "per_variant": dict(self.per_variant),
        }
        if self.first_failure is not None:
            data["first_failure"] = {
                "seed": self.first_failure.seed,
                "strategy": self.first_failure.strategy,
                "anomaly": self.first_failure.anomaly,
            }
            if self.first_failure_config is not None:
                data["first_failure"]["config"] = self.first_failure_config.to_dict()
        return data


def explore(
    config: Optional[ExploreConfig] = None,
    schedules: int = 100,
    strategies: Sequence[str] = ("random", "pct"),
    crash_modes: Sequence[bool] = (False,),
    checkpoint_modes: Optional[Sequence[bool]] = None,
    cc_policies: Optional[Sequence[str]] = None,
    base_seed: int = 0,
    stop_on_anomaly: bool = True,
) -> ExplorationSummary:
    """Sweep ``schedules`` seeds round-robin over strategy × crash-mode
    (× checkpoint-mode, when ``checkpoint_modes`` is given, × CC policy,
    when ``cc_policies`` is given)."""
    config = config or ExploreConfig()
    summary = ExplorationSummary()
    checkpoints = (
        tuple(checkpoint_modes) if checkpoint_modes is not None else (config.checkpoint,)
    )
    policies = (
        tuple(cc_policies) if cc_policies is not None else (config.cc_policy,)
    )
    variants = [
        (strategy, crash, ckpt, policy)
        for strategy in strategies
        for crash in crash_modes
        for ckpt in checkpoints
        for policy in policies
    ]
    for index in range(schedules):
        strategy, crash, ckpt, policy = variants[index % len(variants)]
        variant_config = ExploreConfig(
            **{
                **config.to_dict(),
                "crash": crash,
                "checkpoint": ckpt,
                "cc_policy": policy,
            }
        )
        seed = base_seed + index
        outcome = run_schedule(seed, variant_config, strategy)
        summary.explored += 1
        summary.committed += outcome.committed
        summary.aborted += outcome.aborted
        summary.counters.update(outcome.counters)
        if outcome.exhausted:
            summary.exhausted += 1
        key = f"{strategy}{'+crash' if crash else ''}{'+ckpt' if ckpt else ''}"
        if cc_policies is not None:
            key = f"{key}+{policy}"
        summary.per_variant[key] = summary.per_variant.get(key, 0) + 1
        if outcome.anomaly is not None:
            summary.anomalies += 1
            if summary.first_failure is None:
                summary.first_failure = outcome
                summary.first_failure_config = variant_config
            if stop_on_anomaly:
                break
    return summary


# -- minimization & artifacts -------------------------------------------------


def minimize_failure(
    outcome: ScheduleOutcome,
    config: ExploreConfig,
    max_replays: int = 120,
) -> dict:
    """Delta-debug a failing schedule's decision trace into an artifact.

    The anomaly category is pinned: a candidate trace counts as failing
    only if it reproduces the *same kind* of anomaly (a cycle stays a
    cycle), so minimization cannot drift onto a different bug.
    """
    want_cycle = outcome.report.cycle is not None

    def still_fails(candidate: list[int]) -> bool:
        replay = run_schedule(
            outcome.seed, config, strategy="trace", trace=candidate
        )
        if want_cycle:
            return replay.report.cycle is not None
        return replay.anomaly is not None

    trace = minimize_trace(outcome.decisions, still_fails, max_replays=max_replays)
    replayed = run_schedule(outcome.seed, config, strategy="trace", trace=trace)
    return {
        "version": ARTIFACT_VERSION,
        "seed": outcome.seed,
        "strategy": outcome.strategy,
        "trace": trace,
        "config": config.to_dict(),
        "anomaly": replayed.anomaly or outcome.anomaly,
        "original_trace_len": len(outcome.decisions),
    }


def replay_artifact(artifact: dict) -> ScheduleOutcome:
    """Re-run a minimized ``(seed, trace)`` artifact deterministically."""
    if artifact.get("version") != ARTIFACT_VERSION:
        raise ReproError(
            f"unknown explorer artifact version {artifact.get('version')!r}"
        )
    config = ExploreConfig.from_dict(artifact.get("config", {}))
    return run_schedule(
        int(artifact["seed"]),
        config,
        strategy="trace",
        trace=list(artifact.get("trace", ())),
    )


def save_artifact(artifact: dict, path: str) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(artifact, handle, indent=2)
        handle.write("\n")
    return path


def load_artifact(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)
