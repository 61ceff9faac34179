"""The deterministic fault-injection engine and the chaos torture runner.

Covers the two reproducibility contracts:

- the **engine** — rules fire on exact hit counts, random schedules are a
  pure function of the seed, and ``describe()`` carries everything needed
  to replay a failure;
- the **runner** — a fixed-seed scripted schedule spanning disk, channel,
  TC and DC crash points completes with zero invariant violations, the
  supervisor healing every crash without a manual ``restart()``.
"""

from __future__ import annotations

import pytest

pytestmark = pytest.mark.chaos

from repro.common.config import ChannelConfig, TcConfig
from repro.common.errors import CrashedError, InjectedFault
from repro.sim.chaos import ChaosRunner, ChaosViolation, HistoryRecorder, _TxnEffects
from repro.sim.faults import FaultAction, FaultInjector, FaultPoint, FaultRule
from tests.conftest import lossy


class _Crashable:
    def __init__(self) -> None:
        self.crashes = 0

    def crash(self) -> None:
        self.crashes += 1


class TestFaultInjectorDeterminism:
    def test_rule_fires_on_exact_hit_count(self):
        injector = FaultInjector(
            [FaultRule(FaultPoint.CHANNEL_SEND, FaultAction.DROP, after=3)]
        )
        outcomes = [injector.hit(FaultPoint.CHANNEL_SEND, "dc1") for _ in range(5)]
        assert [o.action if o else None for o in outcomes] == [
            None,
            None,
            FaultAction.DROP,
            None,
            None,
        ]

    def test_target_filter(self):
        injector = FaultInjector(
            [FaultRule(FaultPoint.CHANNEL_SEND, FaultAction.DROP, target="dc2")]
        )
        assert injector.hit(FaultPoint.CHANNEL_SEND, "dc1") is None
        assert injector.hit(FaultPoint.CHANNEL_SEND, "dc2") is not None

    def test_drop_burst_extends_over_count_hits(self):
        injector = FaultInjector(
            [FaultRule(FaultPoint.CHANNEL_RECV, FaultAction.DROP, after=1, count=3)]
        )
        fired = [injector.hit(FaultPoint.CHANNEL_RECV, "dc1") for _ in range(5)]
        assert [o is not None for o in fired] == [True, True, True, False, False]

    def test_crash_rule_crashes_registered_component(self):
        component = _Crashable()
        injector = FaultInjector(
            [FaultRule(FaultPoint.TC_LOG_FORCE, FaultAction.CRASH, target="tc1")]
        )
        injector.register_component("tc1", "tc", component.crash)
        with pytest.raises(CrashedError):
            injector.hit(FaultPoint.TC_LOG_FORCE, "tc1")
        assert component.crashes == 1

    def test_fail_rule_raises_injected_fault(self):
        injector = FaultInjector(
            [FaultRule(FaultPoint.BUFFER_FLUSH, FaultAction.FAIL)]
        )
        with pytest.raises(InjectedFault):
            injector.hit(FaultPoint.BUFFER_FLUSH, "dc1")

    def test_partition_persists_until_heal(self):
        injector = FaultInjector(
            [FaultRule(FaultPoint.CHANNEL_SEND, FaultAction.PARTITION, target="dc1")]
        )
        assert not injector.partitioned("dc1")
        assert injector.hit(FaultPoint.CHANNEL_SEND, "dc1") is not None
        assert injector.partitioned("dc1")
        assert injector.hit(FaultPoint.CHANNEL_SEND, "dc1") is not None
        assert injector.heal() == 1
        assert not injector.partitioned("dc1")
        assert injector.hit(FaultPoint.CHANNEL_SEND, "dc1") is None

    def test_delay_outcome_carries_delay(self):
        injector = FaultInjector(
            [FaultRule(FaultPoint.CHANNEL_SEND, FaultAction.DELAY, delay_ms=7.5)]
        )
        outcome = injector.hit(FaultPoint.CHANNEL_SEND, "dc1")
        assert outcome.action == FaultAction.DELAY
        assert outcome.delay_ms == 7.5

    def test_random_rules_are_pure_function_of_seed(self):
        a = FaultInjector.random_rules(11, ["dc1", "dc2"], ["tc1"], rules=9)
        b = FaultInjector.random_rules(11, ["dc1", "dc2"], ["tc1"], rules=9)
        c = FaultInjector.random_rules(12, ["dc1", "dc2"], ["tc1"], rules=9)
        assert [r.describe() for r in a] == [r.describe() for r in b]
        assert [r.describe() for r in a] != [r.describe() for r in c]

    def test_describe_carries_seed_schedule_and_trace(self):
        injector = FaultInjector(
            [FaultRule(FaultPoint.CHANNEL_SEND, FaultAction.DROP)], seed=42
        )
        injector.hit(FaultPoint.CHANNEL_SEND, "dc1")
        recipe = injector.describe()
        assert "seed=42" in recipe
        assert "channel.send" in recipe
        assert "fired=[channel.send[dc1] -> drop]" in recipe

    def test_load_schedule_resets_hit_counts(self):
        rule = FaultRule(FaultPoint.CHANNEL_SEND, FaultAction.DROP, after=2)
        injector = FaultInjector([rule])
        injector.hit(FaultPoint.CHANNEL_SEND, "dc1")
        injector.load_schedule([rule])
        assert injector.hit(FaultPoint.CHANNEL_SEND, "dc1") is None  # count reset
        assert injector.hit(FaultPoint.CHANNEL_SEND, "dc1") is not None


class TestHistoryRecorder:
    def test_apply_and_table_items(self):
        history = HistoryRecorder()
        effects = _TxnEffects(0)
        effects.record("t", 1, None, "a")
        effects.record("t", 2, None, "b")
        effects.record("t", 2, "b", None)  # inserted then deleted
        history.apply(effects)
        assert history.table_items("t") == {1: "a"}

    def test_record_keeps_first_pre_and_last_post(self):
        effects = _TxnEffects(0)
        effects.record("t", 1, "old", "mid")
        effects.record("t", 1, "mid", "new")
        assert effects.writes[("t", 1)] == ("old", "new")


#: Fixed scripted schedule for the CI smoke: five distinct fault types
#: across disk, channel, TC and DC crash points.  TC rules use an empty
#: target (= any TC) because TC ids are allocated globally and the name
#: depends on how many TCs earlier tests created.
SMOKE_SCHEDULE = [
    FaultRule(FaultPoint.CHANNEL_SEND, FaultAction.DROP, target="dc1", after=9, count=3),
    FaultRule(FaultPoint.CHANNEL_SEND, FaultAction.DELAY, target="dc2", after=4, delay_ms=25.0),
    FaultRule(FaultPoint.CHANNEL_SEND, FaultAction.PARTITION, target="dc1", after=120),
    FaultRule(FaultPoint.CHANNEL_RECV, FaultAction.DROP, target="dc2", after=31, count=2),
    FaultRule(FaultPoint.TC_LOG_FORCE, FaultAction.CRASH, after=25),
    FaultRule(FaultPoint.DISK_PAGE_WRITE, FaultAction.CRASH, target="dc1", after=2),
    FaultRule(FaultPoint.BUFFER_FLUSH, FaultAction.CRASH, target="dc2", after=2),
    FaultRule(FaultPoint.TC_CHECKPOINT, FaultAction.CRASH, after=2),
]

#: A lossy wire as rate rules: 5 % of requests and of replies lost, 5 % of
#: requests delivered twice, drawn from the runner's seed.
LOSSY_WIRE = lossy(loss=0.05, duplicate=0.05).schedule


class TestChaosRunner:
    def test_scripted_smoke_zero_violations(self):
        """The acceptance run: >=5 distinct fault types across disk,
        channel, TC and DC crash points; every crash healed by the
        supervisor; zero invariant violations."""
        runner = ChaosRunner(seed=1234, schedule=list(SMOKE_SCHEDULE), txns=120)
        report = runner.run()  # raises ChaosViolation on any broken invariant
        fired_types = {
            entry.split(" -> ")[1] for entry in runner.injector.fired
        }
        fired_points = set(report["fault_points_hit"])
        assert len(fired_points | fired_types) >= 5
        assert {"tc.log_force", "disk.page_write", "channel.send"} <= fired_points
        assert report["faults_fired"] >= 5
        # every crash notice was healed by the supervisor, not by the test
        assert runner.supervisor.notices, "schedule must actually crash something"
        assert all(notice.healed for notice in runner.supervisor.notices)
        assert runner.supervisor.all_healthy()

    def test_random_mode_reproducible(self):
        first = ChaosRunner(seed=7, txns=60).run()
        second = ChaosRunner(seed=7, txns=60).run()
        # The recipe embeds the TC's globally-allocated name; everything
        # observable must be a pure function of the seed.
        strip = lambda report: {k: v for k, v in report.items() if k != "recipe"}
        assert strip(first) == strip(second)

    def test_lossy_run_replays_from_its_recipe(self):
        """The wire's loss and duplication are rules of the schedule, so
        the recipe names their rates and one ``(seed, schedule)`` pair
        replays the run: same outcomes, same fired trace."""
        first = ChaosRunner(seed=5, schedule=LOSSY_WIRE, txns=100)
        report = first.run()
        assert "drop, after=1, rate=0.05" in report["recipe"]
        assert "duplicate, after=1, rate=0.05" in report["recipe"]
        second = ChaosRunner(seed=5, schedule=LOSSY_WIRE, txns=100)
        again = second.run()
        assert (again["committed"], again["aborted"]) == (
            report["committed"],
            report["aborted"],
        )
        assert any(entry.endswith("-> duplicate") for entry in first.injector.fired)
        assert second.injector.fired == first.injector.fired

    def test_seed_sweep_small(self):
        for seed in range(4):
            report = ChaosRunner(seed=seed, txns=80).run()
            assert report["committed"] + report["aborted"] + report[
                "resolved_committed"
            ] + report["resolved_aborted"] == 80

    def test_violation_message_carries_recipe(self):
        runner = ChaosRunner(seed=3, txns=10)
        with pytest.raises(ChaosViolation) as excinfo:
            runner._fail("synthetic")
        message = str(excinfo.value)
        assert "reproduce with: python -m repro chaos --seed 3" in message
        assert "recipe: seed=3" in message


class TestRecoveryChaosWindows:
    """Crash windows opened by checkpoint-driven truncation and redo.

    Three new fault surfaces (ISSUE 6): dying *during* a checkpoint,
    dying after the checkpoint record is stable but before/while the log
    prefix is dropped, and dying in the middle of a restart's redo
    stream.  Every window must converge through the supervisor with zero
    invariant violations — truncation only ever drops records recovery
    provably no longer needs, and redo is exactly-once under abLSNs no
    matter how many times it is cut short and retried.
    """

    def _gauntlet(self, rules, txns=60, **kwargs):
        runner = ChaosRunner(
            seed=77,
            schedule=rules,
            txns=txns,
            checkpoint_every=10,
            **kwargs,
        )
        report = runner.run()  # raises ChaosViolation on any violation
        assert report["committed"] + report["aborted"] + report[
            "resolved_committed"
        ] + report["resolved_aborted"] == txns
        assert runner.supervisor.all_healthy()
        return runner, report

    def test_crash_during_checkpoint(self):
        runner, report = self._gauntlet(
            [FaultRule(FaultPoint.TC_CHECKPOINT, FaultAction.CRASH, after=2)]
        )
        assert "tc.checkpoint" in report["fault_points_hit"]
        assert all(notice.healed for notice in runner.supervisor.notices)

    def test_crash_mid_truncation(self):
        runner, report = self._gauntlet(
            [FaultRule(FaultPoint.TC_TRUNCATE, FaultAction.CRASH, after=2)]
        )
        assert "tc.truncate" in report["fault_points_hit"]
        assert all(notice.healed for notice in runner.supervisor.notices)

    def test_crash_mid_redo(self):
        # A log-force crash opens the restart window; the redo rule then
        # cuts the restart's own replay short, so the supervisor must
        # retry the whole restart and still converge.
        runner, report = self._gauntlet(
            [
                FaultRule(FaultPoint.TC_LOG_FORCE, FaultAction.CRASH, after=30),
                FaultRule(FaultPoint.TC_REDO, FaultAction.CRASH, after=3),
            ]
        )
        assert "tc.redo" in report["fault_points_hit"]
        assert all(notice.healed for notice in runner.supervisor.notices)

    def test_all_windows_with_optimized_config_and_truncation(self):
        """The combined gauntlet: every new window plus a DC crash, under
        the fast paths, with truncation doing real work (frequent
        checkpoints over many transactions)."""
        runner, report = self._gauntlet(
            [
                FaultRule(FaultPoint.TC_CHECKPOINT, FaultAction.CRASH, after=1),
                FaultRule(FaultPoint.TC_TRUNCATE, FaultAction.CRASH, after=3),
                FaultRule(FaultPoint.TC_LOG_FORCE, FaultAction.CRASH, after=40),
                FaultRule(FaultPoint.TC_REDO, FaultAction.CRASH, after=2),
                FaultRule(FaultPoint.DISK_PAGE_WRITE, FaultAction.CRASH, target="dc1", after=5),
            ],
            txns=90,
            tc_config=TcConfig.optimized(),
        )
        assert report["faults_fired"] >= 4
        # truncation actually reclaimed log space during the gauntlet
        assert runner.metrics.get("tclog.truncated_records") > 0

    def test_truncation_determinism_across_reruns(self):
        rules = [
            FaultRule(FaultPoint.TC_TRUNCATE, FaultAction.CRASH, after=1),
            FaultRule(FaultPoint.TC_REDO, FaultAction.CRASH, after=4),
        ]
        strip = lambda report: {k: v for k, v in report.items() if k != "recipe"}
        first = ChaosRunner(seed=9, schedule=list(rules), txns=50, checkpoint_every=10).run()
        second = ChaosRunner(seed=9, schedule=list(rules), txns=50, checkpoint_every=10).run()
        assert strip(first) == strip(second)


class TestChaosFastPaths:
    """The fast paths (batching, undo cache, group commit) under torture.

    The optimized configuration changes message shapes and caching, never
    contracts: every invariant the baseline run proves must survive the
    same fault schedule with all three optimizations on.
    """

    def test_scripted_smoke_with_optimized_config(self):
        runner = ChaosRunner(
            seed=1234,
            schedule=list(SMOKE_SCHEDULE),
            txns=120,
            tc_config=TcConfig.optimized(),
        )
        report = runner.run()  # raises ChaosViolation on any broken invariant
        assert report["faults_fired"] >= 5
        assert runner.supervisor.notices
        assert all(notice.healed for notice in runner.supervisor.notices)
        assert runner.supervisor.all_healthy()
        # the fast paths were actually exercised, not silently off
        assert runner.metrics.get("channel.batches") > 0
        assert runner.metrics.get("tc.undo_cache_hits") > 0

    def test_random_seeds_with_optimized_config(self):
        for seed in range(3):
            report = ChaosRunner(
                seed=seed, txns=80, tc_config=TcConfig.optimized()
            ).run()
            assert report["committed"] + report["aborted"] + report[
                "resolved_committed"
            ] + report["resolved_aborted"] == 80

    def test_process_mode_rejects_scripted_schedules(self):
        from repro.common.errors import ReproError

        with pytest.raises(ReproError, match="local-only"):
            ChaosRunner(
                schedule=list(SMOKE_SCHEDULE),
                channel_config=ChannelConfig(transport="process"),
            )

    def test_process_mode_kill9_zero_violations(self):
        """The ISSUE 4 acceptance run: DC *processes* under the chaos
        runner, with real ``kill -9`` as the fault.  Every kill is healed
        by the supervisor (journal replay + §5.2.1 redo prompt + resend),
        and the §4.2.1 contract invariants — durability of acknowledged
        commits, atomicity, structural well-formedness — must hold after
        every heal, under the optimized fast paths (batched envelopes
        make mid-transaction kills surface at commit, exercising the
        indeterminate-resolution path)."""
        runner = ChaosRunner(
            seed=11,
            txns=48,
            kill_every=12,
            checkpoint_every=17,
            tc_config=TcConfig.optimized(lock_timeout=30.0),
            channel_config=ChannelConfig(
                transport="process", request_timeout_s=15.0
            ),
        )
        try:
            report = runner.run()  # raises ChaosViolation on any violation
        finally:
            runner.kernel.close()
        assert report["committed"] + report["aborted"] + report[
            "resolved_committed"
        ] + report["resolved_aborted"] == 48
        assert report["committed"] > 0
        assert report["fault_points_hit"] == ["process.kill"]
        assert report["faults_fired"] == runner.kills >= 3
        # every kill was a real process death, healed by a real restart
        restarts = sum(dc.restarts for dc in runner.kernel.dcs.values())
        assert restarts == runner.kills
        assert runner.supervisor.all_healthy()
        assert "kill_every=12" in report["recipe"]

    def test_recovery_windows_process_mode_kills_near_checkpoints(self):
        """Process-mode analogue of the recovery-window gauntlet: real
        kill -9s landing adjacent to frequent checkpoints (TC checkpoints
        plus DC-log checkpoints, which truncate the DC logs and compact
        the DC journals), so recovery repeatedly runs against a
        just-truncated log and a just-compacted journal."""
        runner = ChaosRunner(
            seed=23,
            txns=40,
            kill_every=9,
            checkpoint_every=8,
            tc_config=TcConfig.optimized(lock_timeout=30.0),
            channel_config=ChannelConfig(
                transport="process", request_timeout_s=15.0
            ),
        )
        try:
            report = runner.run()
            totals = runner.counter_totals()
        finally:
            runner.kernel.close()
        assert report["committed"] + report["aborted"] + report[
            "resolved_committed"
        ] + report["resolved_aborted"] == 40
        assert runner.kills >= 3
        assert runner.supervisor.all_healthy()
        assert totals.get("journal.compactions", 0) > 0
        assert totals.get("dc.log_truncations", 0) > 0

    def test_envelopes_survive_loss_duplication_and_reordering(self):
        """Envelope loss/duplication is per-op loss/duplication of
        everything inside — absorbed by per-op abLSNs.  (Out-of-order
        arrival is tests/test_out_of_order.py's.)"""
        runner = ChaosRunner(
            seed=5,
            schedule=LOSSY_WIRE,  # a lossy wire is the only adversary
            txns=100,
            tc_config=TcConfig.optimized(),
        )
        report = runner.run()
        assert report["committed"] > 0
        assert runner.metrics.get("channel.requests_lost") > 0
        assert runner.metrics.get("dc.duplicate_ops") > 0


class TestReplyCarriedUndoChaos:
    """The gauntlet with an undo cache of four entries over 48 keys:
    nearly every update / delete logs its undo image owed and fills it
    from the reply, so crashes, lost replies and kills land on owed
    records, the hold-back and the DC's image table.  The increment
    canary is on — its undo is logical, its replies are not idempotent."""

    @pytest.mark.parametrize("policy", ["2pl", "occ", "mvcc"])
    def test_in_process_scripted_and_random(self, policy):
        config = TcConfig.optimized(undo_cache_size=4, cc_policy=policy)
        runner = ChaosRunner(
            seed=1234,
            schedule=list(SMOKE_SCHEDULE),
            txns=120,
            tc_config=config,
            increment_rate=0.2,
        )
        report = runner.run()  # raises ChaosViolation on any broken invariant
        assert report["faults_fired"] >= 5
        assert runner.supervisor.all_healthy()
        misses = runner.metrics.get("tc.undo_cache_misses")
        reads = runner.metrics.get("tc.undo_info_reads")
        assert misses > 50
        if policy == "mvcc":
            assert reads > 0.9 * misses  # serves readers the image: still reads
        else:
            assert reads < misses / 2  # only while a rollback was parked
        for seed in (3, 9):
            runner = ChaosRunner(
                seed=seed, txns=80, tc_config=config, increment_rate=0.2
            )
            report = runner.run()
            assert report["committed"] > 0
            assert runner.supervisor.all_healthy()

    def test_lossy_channel(self):
        """Lost first replies: the resend is a DC duplicate answered with
        the kept image."""
        runner = ChaosRunner(
            seed=5,
            schedule=LOSSY_WIRE,
            txns=100,
            tc_config=TcConfig.optimized(undo_cache_size=4),
            increment_rate=0.2,
        )
        report = runner.run()
        assert report["committed"] > 0
        assert runner.metrics.get("dc.duplicate_ops") > 0
        assert runner.metrics.get("tc.undo_cache_misses") > 50

    def test_process_mode_kill9(self):
        runner = ChaosRunner(
            seed=11,
            txns=48,
            kill_every=12,
            checkpoint_every=17,
            increment_rate=0.2,
            tc_config=TcConfig.optimized(undo_cache_size=4, lock_timeout=30.0),
            channel_config=ChannelConfig(
                transport="process", request_timeout_s=15.0
            ),
        )
        try:
            report = runner.run()
        finally:
            runner.kernel.close()
        assert report["committed"] + report["aborted"] + report[
            "resolved_committed"
        ] + report["resolved_aborted"] == 48
        assert report["committed"] > 0 and runner.kills >= 3
        assert runner.supervisor.all_healthy()
        assert runner.metrics.get("tc.undo_cache_misses") > 20


class TestCcPolicyChaos:
    """The chaos gauntlet under the optimistic policies: TC crashes
    landing exactly in the commit-time validation and version-install
    windows must leave zero invariant violations — validated-but-
    uncommitted transactions roll back on recovery, and the volatile CC
    state (stamps, writer registry, before-images) dies with the TC and
    is rebuilt clean."""

    @pytest.mark.parametrize("policy", ["occ", "mvcc"])
    def test_crash_mid_validate_and_mid_install(self, policy):
        schedule = [
            FaultRule(FaultPoint.TC_CC_VALIDATE, FaultAction.CRASH, after=9),
            FaultRule(FaultPoint.TC_CC_INSTALL, FaultAction.CRASH, after=21),
            FaultRule(FaultPoint.TC_CC_VALIDATE, FaultAction.CRASH, after=33),
            FaultRule(FaultPoint.TC_LOG_FORCE, FaultAction.CRASH, after=55),
        ]
        runner = ChaosRunner(
            seed=77,
            schedule=schedule,
            txns=90,
            tc_config=TcConfig(group_commit_size=1, cc_policy=policy),
            increment_rate=0.2,
        )
        report = runner.run()  # raises ChaosViolation on any violation
        fired = set(report["fault_points_hit"])
        assert {FaultPoint.TC_CC_VALIDATE, FaultPoint.TC_CC_INSTALL} <= fired
        assert runner.supervisor.all_healthy()
        # The increment canary converged: the reserved slot counts
        # exactly the committed +1s (model equality already proved it
        # equals the DC's value after every heal).
        canary_values = [
            runner.history.value(table, runner.keyspace)
            for table in runner.TABLES
        ]
        assert any(isinstance(v, (int, float)) and v > 0 for v in canary_values)

    @pytest.mark.parametrize("policy", ["occ", "mvcc"])
    def test_random_fault_sweep_per_policy(self, policy):
        for seed in (3, 9):
            runner = ChaosRunner(
                seed=seed,
                txns=70,
                tc_config=TcConfig(group_commit_size=1, cc_policy=policy),
                increment_rate=0.15,
            )
            report = runner.run()
            assert report["committed"] > 0
            assert runner.supervisor.all_healthy()

    @pytest.mark.parametrize("policy", ["occ", "mvcc"])
    def test_process_mode_tc_kill9(self, policy):
        """Real SIGKILLs against a TC server process running the
        optimistic policies: every death lands with live traffic and
        in-flight CC state; §5.3.2 healing must replay the journal,
        roll back the in-doubt transactions and converge the canary."""
        runner = ChaosRunner(
            seed=31,
            txns=36,
            tc_processes=1,
            kill_tc_every=9,
            increment_rate=0.2,
            tc_config=TcConfig.optimized(cc_policy=policy, lock_timeout=30.0),
            channel_config=ChannelConfig(
                transport="process", request_timeout_s=15.0
            ),
        )
        try:
            report = runner.run()
        finally:
            runner.kernel.close()
        assert report["committed"] + report["aborted"] + report[
            "resolved_committed"
        ] + report["resolved_aborted"] == 36
        assert runner.tc_kills >= 3
        assert runner.supervisor.all_healthy()
        assert f"--cc {policy}" in runner.repro_command()
