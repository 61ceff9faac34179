"""Invariant-checking chaos runner: torture the kernel, prove it honest.

The runner drives a seeded transaction workload against an
:class:`~repro.kernel.unbundled.UnbundledKernel` wired through a
:class:`~repro.sim.faults.FaultInjector`, lets the
:class:`~repro.sim.supervisor.Supervisor` heal every failure, and checks
after each heal (and at the end) that the survivors tell a consistent
story:

- **durability** — every acknowledged commit is visible in full;
- **atomicity** — no partial transaction is ever visible: a transaction's
  effects are all there or all absent;
- **well-formedness** — every B-tree validates after every heal.

Transactions whose ``commit()`` call *raised* are **indeterminate**: the
commit record may or may not have become stable before the crash.  The
runner never touches such a handle again (its log state is unknowable from
outside); instead, after the heal it reads the touched keys back and
classifies the transaction — all post-images visible means it committed,
all pre-images means it aborted, anything else is an atomicity violation.

Every assertion message ends with the injector's ``(seed, schedule)``
recipe, so a failing run is reproducible with::

    ChaosRunner(seed=<seed>).run()                   # random mode
    ChaosRunner(seed=<seed>, schedule=[...]).run()   # scripted mode

With ``channel_config=ChannelConfig(transport="process")`` the runner
drives DC *server processes* instead.  Fault-injection hooks are
local-only there (architecture.md §10), so scripted schedules are
rejected; pass ``kill_every=N`` and every N transactions a seeded-random
DC process takes a real ``kill -9``.  The same durability/atomicity/
well-formedness invariants are then proven across genuine process
kill-and-restart — journal replay, TC resend, and abLSN idempotence
doing the converging.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.common.config import ChannelConfig, KernelConfig, TcConfig
from repro.common.errors import (
    ComponentUnavailableError,
    ReproError,
    SnapshotTooOldError,
    TransactionAborted,
)
from repro.common.ops import ReadFlavor
from repro.kernel.unbundled import UnbundledKernel
from repro.sim.faults import FaultInjector, FaultRule
from repro.sim.metrics import Metrics
from repro.sim.supervisor import Supervisor, SupervisorGaveUp


@dataclass
class _TxnEffects:
    """Intended effects of one transaction: (table, key) -> (pre, post).

    ``pre`` is the model value when the transaction first touched the key
    (None = absent), ``post`` the value it meant to leave behind.  Values
    are unique per transaction, so pre/post images discriminate outcomes.
    """

    txn_no: int
    writes: dict[tuple[str, object], tuple[object, object]] = field(
        default_factory=dict
    )

    def record(self, table: str, key: object, pre: object, post: object) -> None:
        slot = self.writes.get((table, key))
        if slot is None:
            self.writes[(table, key)] = (pre, post)
        else:
            self.writes[(table, key)] = (slot[0], post)


class HistoryRecorder:
    """The committed model: what a perfect kernel would contain."""

    def __init__(self) -> None:
        self.model: dict[tuple[str, object], object] = {}
        self.committed = 0
        self.aborted = 0
        self.resolved_committed = 0
        self.resolved_aborted = 0

    def value(self, table: str, key: object) -> Optional[object]:
        return self.model.get((table, key))

    def apply(self, effects: _TxnEffects) -> None:
        for (table, key), (_pre, post) in effects.writes.items():
            if post is None:
                self.model.pop((table, key), None)
            else:
                self.model[(table, key)] = post

    def table_items(self, table: str) -> dict[object, object]:
        return {
            key: value
            for (tbl, key), value in self.model.items()
            if tbl == table
        }


class ChaosViolation(AssertionError):
    """An invariant failed; the message carries the reproduction recipe."""


class ChaosRunner:
    """Seeded chaos: random (or scripted) faults under a random workload.

    ``schedule=None`` generates ``rules`` random fault rules from ``seed``
    once the kernel's component names are known; a scripted ``schedule``
    is executed as given (its rate rules, a lossy or duplicating wire,
    draw from the injector's generator, seeded with ``seed`` too).  The
    *workload* is always derived from ``seed``, so either way the whole
    run is a pure function of its arguments.
    """

    TABLES = ("t", "v")  # "t" plain B-tree, "v" versioned
    #: In process mode every READ_ONLY_EVERY-th transaction only reads
    #: (1-3 keys, drawn from a generator of their own, so the write
    #: stream keeps its draws).  Under 2PL against a TC server process
    #: such a commit is the one-way frame of docs/architecture.md §16.
    #: In-process runs keep an all-writing stream: their scripted fault
    #: schedules count the hits of that stream.
    READ_ONLY_EVERY = 5

    def __init__(
        self,
        seed: int = 0,
        schedule: Optional[Sequence[FaultRule]] = None,
        txns: int = 250,
        rules: int = 8,
        horizon: int = 600,
        dc_count: int = 2,
        keyspace: int = 48,
        deferred_rate: float = 0.25,
        checkpoint_every: int = 41,
        snapshot_every: int = 29,
        metrics: Optional[Metrics] = None,
        tracer: Optional[object] = None,
        tc_config: Optional[TcConfig] = None,
        channel_config: Optional[ChannelConfig] = None,
        kill_every: int = 0,
        tc_processes: int = 0,
        kill_tc_every: int = 0,
        increment_rate: float = 0.0,
    ) -> None:
        self.seed = seed
        self.txns = txns
        self.keyspace = keyspace
        self.deferred_rate = deferred_rate
        self.checkpoint_every = checkpoint_every
        self.snapshot_every = snapshot_every
        self.metrics = metrics or Metrics()
        #: When a real tracer is passed, invariant failures dump the run's
        #: trace next to the benchmark results (see :meth:`_fail`).
        self.tracer = tracer
        process_mode = (
            channel_config is not None and channel_config.transport == "process"
        )
        self._process_mode = process_mode
        self._tcp = process_mode and bool(channel_config.listen_host)
        self.kill_every = kill_every
        self.kill_tc_every = kill_tc_every
        #: Rate of increment-canary ops: each adds +1 to a reserved slot
        #: (key ``keyspace``, outside the normal workload range), so the
        #: final value counts exactly the committed increments — the
        #: logical-undo (negated delta) analogue of the model check.
        #: Gated (no rng draw at 0.0) to keep default workloads
        #: bit-identical across versions.
        self.increment_rate = increment_rate
        self.kills = 0
        self.tc_kills = 0
        self._tc_process_mode = bool(tc_processes)
        if tc_processes and not process_mode:
            raise ReproError(
                "tc_processes needs the process transport "
                "(channel_config=ChannelConfig(transport='process'))"
            )
        if process_mode:
            # Fault-injection hooks are local-only (architecture.md §10):
            # against DC server processes the only fault is the real one —
            # a SIGKILL, scheduled every ``kill_every`` transactions on a
            # seeded-random victim.  The rest of the runner (workload,
            # heal loop, indeterminate resolution, invariant checks) is
            # transport-agnostic and runs unchanged over the wire.
            if schedule is not None:
                raise ReproError(
                    "scripted fault schedules are local-only; in process "
                    "mode crashes are real kills (use kill_every=N)"
                )
            self.injector = None
        else:
            self.injector = FaultInjector(seed=seed, metrics=self.metrics)
        # The durability invariant checks *acknowledged* commits; commit
        # acknowledgement is force-before-ack at every group_commit_size
        # (the GroupCommitCoalescer waits for the commit record to reach
        # the stable log), so callers may hand in any TcConfig — including
        # the optimized fast-path one — without weakening the check.
        config = KernelConfig(
            tc=tc_config or TcConfig(group_commit_size=1),
            channel=(
                channel_config if channel_config is not None else ChannelConfig()
            ),
            tc_processes=tc_processes,
        )
        self.kernel = UnbundledKernel(
            config=config,
            metrics=self.metrics,
            dc_count=dc_count,
            faults=self.injector,
            tracer=tracer,
        )
        dc_names = list(self.kernel.dcs)
        self.kernel.create_table("t", kind="btree", dc_name=dc_names[0])
        self.kernel.create_table(
            "v", kind="btree", versioned=True, dc_name=dc_names[-1]
        )
        if self.injector is not None:
            if schedule is None:
                schedule = FaultInjector.random_rules(
                    seed,
                    dc_names=self.injector.component_names("dc"),
                    tc_names=self.injector.component_names("tc"),
                    rules=rules,
                    horizon=horizon,
                )
            self.injector.load_schedule(schedule)
        self.supervisor = Supervisor(self.injector, self.metrics)
        self.supervisor.watch_kernel(self.kernel)
        self.history = HistoryRecorder()
        self._indeterminate: list[_TxnEffects] = []
        self.heals = 0
        self.checks = 0
        #: Counters of server processes that were killed (a kill loses
        #: them); see :meth:`counter_totals`.
        self._banked: Counter = Counter()

    # -- the run -----------------------------------------------------------

    def run(self) -> dict[str, object]:
        rng = random.Random(self.seed ^ 0xC0FFEE)
        kill_rng = random.Random(self.seed ^ 0x51D)
        read_rng = random.Random(self.seed ^ 0x5EAD)
        tc = self.kernel.tc
        for txn_no in range(self.txns):
            if self.kill_every and txn_no % self.kill_every == self.kill_every - 1:
                self._kill_one(kill_rng)
            # TC kills ride a distinct phase offset so DC and TC deaths
            # interleave (and occasionally coincide) over a long run.
            if (
                self.kill_tc_every
                and txn_no % self.kill_tc_every == self.kill_tc_every // 2
            ):
                self._kill_tc()
            if self.checkpoint_every and txn_no % self.checkpoint_every == 7:
                self._probe(tc.checkpoint)
                if self._process_mode:
                    # DC-log checkpoints truncate each server's DC log and
                    # compact its journal, so kills land on both.  (The
                    # in-process stream stays as it was: scripted fault
                    # schedules count its hook hits.)
                    for dc in self.kernel.dcs.values():
                        if not dc.crashed:
                            self._probe(dc.checkpoint_dc_log)
            if self.snapshot_every and txn_no % self.snapshot_every == 11:
                self._snapshot_probe(rng)
            self._run_txn(rng, read_rng, txn_no)
        self._heal_and_check()
        return self.report()

    def report(self) -> dict[str, object]:
        if self.injector is not None:
            faults_fired = len(self.injector.fired)
            points = sorted(
                {entry.split("[", 1)[0] for entry in self.injector.fired}
            )
        else:
            faults_fired = self.kills
            points = ["process.kill"] if self.kills else []
        return {
            "seed": self.seed,
            "txns": self.txns,
            "committed": self.history.committed,
            "aborted": self.history.aborted,
            "resolved_committed": self.history.resolved_committed,
            "resolved_aborted": self.history.resolved_aborted,
            "heals": self.heals,
            "invariant_checks": self.checks,
            "tc_kills": self.tc_kills,
            "faults_fired": faults_fired,
            "fault_points_hit": points,
            "recipe": self._recipe(),
        }

    def _recipe(self) -> str:
        if self.injector is not None:
            return self.injector.describe()
        return (
            f"seed={self.seed} kill_every={self.kill_every} "
            f"kill_tc_every={self.kill_tc_every} "
            f"tc_processes={int(self._tc_process_mode)} "
            f"channel_config=ChannelConfig(transport='process'"
            f"{', listen_host=<loopback>' if self._tcp else ''}) "
            f"(kills fired: {self.kills}, of which TC: {self.tc_kills})"
        )

    def repro_command(self) -> str:
        """A copy-pasteable command line reproducing this exact run."""
        parts = [f"python -m repro chaos --seed {self.seed}"]
        if self.txns != 250:
            parts.append(f"--txns {self.txns}")
        cc_policy = self.kernel.config.tc.cc_policy
        if cc_policy != "2pl":
            parts.append(f"--cc {cc_policy}")
        if self.increment_rate:
            parts.append(f"--increment-rate {self.increment_rate}")
        if self._process_mode:
            parts.append("--process")
            if self.kill_every:
                parts.append(f"--kill-every {self.kill_every}")
            if self._tc_process_mode and not self._tcp:
                parts.append("--tc-process")
            if self.kill_tc_every:
                parts.append(f"--kill-tc-every {self.kill_tc_every}")
            if self._tcp:
                parts.append("--tcp")
        return " ".join(parts)

    def _kill_one(self, rng: random.Random) -> None:
        """The process-mode fault: SIGKILL a live DC server process.

        ``crash()`` on a :class:`~repro.net.process.RemoteDc` is a real
        ``kill -9``; the supervisor later restarts the server, which
        replays its journal before the §5.2.1 redo prompt.
        """
        victims = [dc for dc in self.kernel.dcs.values() if not dc.crashed]
        if victims:
            victim = rng.choice(victims)
            self._bank(victim)
            victim.crash()
            self.kills += 1

    def _kill_tc(self) -> None:
        """Kill the TC mid-run.  Against a TC server process this is a
        real ``kill -9``; the supervisor's restart then exercises the
        §5.3.2 journal-replay + record-reset path under live traffic."""
        tc = self.kernel.tc
        if not tc.crashed:
            self._bank(tc)
            tc.crash()
            self.kills += 1
            self.tc_kills += 1

    # -- one transaction ---------------------------------------------------

    def _run_txn(
        self, rng: random.Random, read_rng: random.Random, txn_no: int
    ) -> None:
        effects = _TxnEffects(txn_no)
        read_only = (
            self._process_mode
            and txn_no % self.READ_ONLY_EVERY == self.READ_ONLY_EVERY - 1
        )
        stage = "begin"
        txn = None
        try:
            txn = self.kernel.begin()
            stage = "ops"
            if read_only:
                for _ in range(read_rng.randint(1, 3)):
                    txn.read(
                        read_rng.choice(self.TABLES), read_rng.randrange(self.keyspace)
                    )
            else:
                for op_no in range(rng.randint(1, 4)):
                    self._one_op(rng, txn, effects, txn_no, op_no)
            stage = "commit"
            txn.commit()
        except TransactionAborted:
            # Determinate: rolled back (deadlock-free here, so this is the
            # commit-time "DC unavailable" conversion or a forced abort).
            self.history.aborted += 1
            self._heal_and_check()
        except ReproError:
            if stage == "commit":
                # Indeterminate: never touch this handle again.
                self._indeterminate.append(effects)
            else:
                if txn is not None:
                    self._abandon(txn)
                self.history.aborted += 1
            self._heal_and_check()
        else:
            self.history.apply(effects)
            self.history.committed += 1

    def _one_op(
        self,
        rng: random.Random,
        txn,
        effects: _TxnEffects,
        txn_no: int,
        op_no: int,
    ) -> None:
        table = rng.choice(self.TABLES)
        if self.increment_rate and rng.random() < self.increment_rate:
            key = self.keyspace  # the reserved canary slot
            pre = self._pending_value(effects, table, key)
            if pre is None:
                txn.insert(table, key, 0)
                effects.record(table, key, None, 0)
            else:
                txn.increment(table, key, 1)
                effects.record(table, key, pre, pre + 1)
            return
        key = rng.randrange(self.keyspace)
        pre = self._pending_value(effects, table, key)
        value = f"s{self.seed}.t{txn_no}.o{op_no}"
        # Client-side pipelining belongs to a TC process's handle; the draw
        # is taken either way, so one seed is one operation stream.
        pipelined = rng.random() < self.deferred_rate and self._tc_process_mode
        write = {"deferred": True} if pipelined else {}
        if pre is None:
            txn.insert(table, key, value, **write)
            effects.record(table, key, pre, value)
        elif rng.random() < 0.25:
            txn.delete(table, key, **write)
            effects.record(table, key, pre, None)
        else:
            txn.update(table, key, value, **write)
            effects.record(table, key, pre, value)

    def _pending_value(
        self, effects: _TxnEffects, table: str, key: object
    ) -> Optional[object]:
        slot = effects.writes.get((table, key))
        if slot is not None:
            return slot[1]
        return self.history.value(table, key)

    def _abandon(self, txn) -> None:
        """Roll back a transaction that failed mid-operation; tolerate the
        abort itself failing (the supervisor finishes it as a zombie)."""
        try:
            txn.abort()
        except ReproError:
            pass

    def _probe(self, call) -> None:
        """Run an auxiliary call (checkpoint); heal if it takes a crash."""
        try:
            call()
        except ReproError:
            self._heal_and_check()

    def _snapshot_probe(self, rng: random.Random) -> None:
        """Degraded-mode snapshot reads: healthy DCs answer, down DCs raise
        ComponentUnavailableError instead of hanging."""
        tc = self.kernel.tc
        if not hasattr(tc, "begin_snapshot"):
            return  # a TC server process has no snapshot surface (yet)
        try:
            reader = tc.begin_snapshot(allow_degraded=True)
            for _ in range(3):
                table = rng.choice(self.TABLES)
                key = rng.randrange(self.keyspace)
                try:
                    reader.read(table, key)
                except (ComponentUnavailableError, SnapshotTooOldError):
                    pass
        except ReproError:
            self._heal_and_check()

    # -- counters ------------------------------------------------------------

    @staticmethod
    def _counters_of(component) -> dict[str, int]:
        """A server process's counters (an in-process component's are
        already in :attr:`metrics`, and its stats carry none)."""
        try:
            return component.stats().get("counters", {})
        except ReproError:
            return {}  # unreachable: its counters die with it

    def _bank(self, component) -> None:
        """Keep a server process's counters before it is killed."""
        self._banked.update(self._counters_of(component))

    def counter_totals(self) -> dict[str, int]:
        """Every counter the run moved, summed over this process, each
        live server process and every server process killed on the way —
        what the protocol-counter ledger (:mod:`repro.sim.ledger`) reads."""
        totals = Counter(self.metrics.counters())
        totals.update(self._banked)
        for component in (*self.kernel.dcs.values(), self.kernel.tc):
            totals.update(self._counters_of(component))
        return dict(sorted(totals.items()))

    # -- heal + invariants -------------------------------------------------

    def _heal_and_check(self) -> None:
        """Heal, resolve indeterminates, verify — repeating if the
        verification traffic itself takes fresh faults."""
        for _ in range(8):
            try:
                report = self.supervisor.heal()
            except SupervisorGaveUp as exc:
                raise ChaosViolation(f"heal did not converge: {exc}") from exc
            if report.acted:
                self.heals += 1
            try:
                self._resolve_indeterminate()
                self.check_invariants()
                return
            except ChaosViolation:
                raise
            except ReproError:
                continue  # a new crash mid-verification; heal again
        self._fail("healing/verification kept crashing and never converged")

    def _resolve_indeterminate(self) -> None:
        # Consume only after classification, so a crash mid-resolution
        # (handled by the caller's retry loop) loses nothing.
        while self._indeterminate:
            effects = self._indeterminate[0]
            post_hits = 0
            pre_hits = 0
            for (table, key), (pre, post) in effects.writes.items():
                actual = self._read_actual(table, key)
                if actual == post:
                    post_hits += 1
                if actual == pre:
                    pre_hits += 1
            total = len(effects.writes)
            if post_hits == total:
                self.history.apply(effects)
                self.history.resolved_committed += 1
            elif pre_hits == total:
                self.history.resolved_aborted += 1
            else:
                self._fail(
                    f"txn {effects.txn_no} is partially visible after heal: "
                    f"{post_hits}/{total} post-images, {pre_hits}/{total} "
                    f"pre-images ({effects.writes!r})"
                )
            self._indeterminate.pop(0)

    def _read_actual(self, table: str, key: object) -> Optional[object]:
        return self.kernel.tc.read_other(
            table, key, flavor=ReadFlavor.READ_COMMITTED
        )

    def check_invariants(self) -> None:
        """Model equality per table, plus structural validation per DC."""
        self.checks += 1
        for table in self.TABLES:
            expected = self.history.table_items(table)
            actual = dict(
                self.kernel.tc.scan_other(
                    table, flavor=ReadFlavor.READ_COMMITTED
                )
            )
            if actual != expected:
                missing = sorted(set(expected) - set(actual))
                extra = sorted(set(actual) - set(expected))
                wrong = sorted(
                    key
                    for key in set(actual) & set(expected)
                    if actual[key] != expected[key]
                )
                self._fail(
                    f"table {table!r} diverged from the committed model: "
                    f"missing={missing} extra={extra} wrong={wrong}"
                )
        for dc in self.kernel.dcs.values():
            for name in dc.table_names():
                # Remote DC handles are catalog-only: the structure lives
                # in the server process and validates itself on recovery.
                structure = getattr(dc.table(name), "structure", None)
                if hasattr(structure, "validate"):
                    try:
                        structure.validate()
                    except ReproError as exc:
                        self._fail(f"structure {name!r} on {dc.name}: {exc}")

    def _fail(self, message: str) -> None:
        trace_note = ""
        path = self._dump_trace()
        if path is not None:
            trace_note = f"\ntrace dumped to: {path}"
        raise ChaosViolation(
            f"{message}\nreproduce with: {self.repro_command()}"
            f"\nrecipe: {self._recipe()}{trace_note}"
        )

    def _dump_trace(self) -> Optional[str]:
        """Export the failing run's spans for post-mortem (Perfetto)."""
        if self.tracer is None or not getattr(self.tracer, "enabled", False):
            return None
        from pathlib import Path

        from repro.obs.export import write_chrome_trace

        target = Path(f"CHAOS_TRACE_seed{self.seed}.json")
        try:
            return str(write_chrome_trace(target, self.tracer))
        except OSError:  # pragma: no cover - read-only checkout etc.
            return None
