"""The deterministic schedule explorer end to end.

Covers the tentpole contracts:

- **determinism** — one seed is one schedule: decisions, recorded events
  and the oracle verdict are bit-identical across runs;
- **replay** — a recorded decision trace re-executes the exact
  interleaving via the ``trace`` strategy, and a saved ``(seed, trace)``
  artifact round-trips through JSON;
- **soundness** — with strict 2PL on, sweeps across all strategies (with
  and without an injected DC crash + interleaved recovery) find zero
  serialization cycles and zero recovery-ordering violations;
- **teeth (negative control)** — with read locks weakened
  (``TcConfig.unsafe_skip_read_locks``) the oracle finds a serialization
  cycle within 200 schedules, and delta-debugging shrinks the failing
  trace to a minimal replayable artifact;
- **pluggable CC** — the same sweeps run per concurrency-control policy
  (2pl / occ / mvcc) and stay clean, each policy judged under the graph
  mode its honest semantics satisfy (event-order for 2pl, MVSG for
  occ/mvcc); the occ negative control (skip commit validation) and the
  mvcc negative control (read newest bytes instead of the snapshot) are
  each caught within 200 schedules under the *same* judge that passes
  the honest policy, then minimized to replayable artifacts;
- **the optimized lane** — the same sweeps under
  ``TcConfig.optimized(undo_cache_size=2)`` (batched envelopes logged at
  flush, undo images owed and filled from replies), all three policies,
  with and without a DC crash, judged by the MVSG; deterministic, clean,
  and the weakened-lock control is still caught.
"""

from __future__ import annotations

import pytest

from repro.sim.explore import (
    ExploreConfig,
    explore,
    load_artifact,
    minimize_failure,
    replay_artifact,
    run_schedule,
    save_artifact,
)
from repro.sim.schedule import (
    DeterministicScheduler,
    PctStrategy,
    RandomWalkStrategy,
    RoundRobinStrategy,
    minimize_trace,
)


def _signature(outcome):
    """The schedule's identity: decisions + the event stream shape."""
    return (
        outcome.decisions,
        [(e["seq"], e["point"], e.get("task"), e.get("target")) for e in outcome.events],
        outcome.report.anomaly(),
    )


class TestSchedulerUnit:
    def test_tasks_interleave_one_at_a_time(self):
        log = []

        def worker(name):
            def run():
                from repro.sim import schedule

                for i in range(3):
                    log.append((name, i))
                    schedule.maybe_yield("test.point", name)

            return run

        scheduler = DeterministicScheduler(RoundRobinStrategy(budget=1))
        scheduler.spawn("a", worker("a"))
        scheduler.spawn("b", worker("b"))
        scheduler.run()
        assert sorted(log) == [(n, i) for n in "ab" for i in range(3)]
        # budget=1 round-robin: strict alternation while both live.
        assert log[0][0] != log[1][0]

    def test_same_seed_same_decisions(self):
        def build(seed):
            def worker(name):
                def run():
                    from repro.sim import schedule

                    for _ in range(4):
                        schedule.maybe_yield("test.point", name)

                return run

            scheduler = DeterministicScheduler(RandomWalkStrategy(seed))
            for name in ("a", "b", "c"):
                scheduler.spawn(name, worker(name))
            scheduler.run()
            return list(scheduler.decisions)

        assert build(7) == build(7)
        assert build(7) != build(8)

    def test_minimize_trace_prefix_and_chunks(self):
        # "Fails" whenever decisions 3 and 7 both survive.
        def still_fails(candidate):
            return len(candidate) > 7 and candidate[3] == 3 and candidate[7] == 7

        minimal = minimize_trace(list(range(12)), still_fails)
        assert still_fails(minimal)
        assert len(minimal) <= 8


class TestDeterminism:
    @pytest.mark.parametrize("strategy", ["random", "pct", "rr"])
    def test_identical_reruns(self, strategy):
        first = run_schedule(11, ExploreConfig(), strategy=strategy)
        second = run_schedule(11, ExploreConfig(), strategy=strategy)
        assert _signature(first) == _signature(second)

    def test_crash_schedules_are_deterministic_too(self):
        config = ExploreConfig(crash=True)
        first = run_schedule(3, config, strategy="random")
        second = run_schedule(3, config, strategy="random")
        assert _signature(first) == _signature(second)
        assert any(e["point"] == "dc.crash" for e in first.events)
        assert any(e["point"] == "dc.recover.ready" for e in first.events)

    def test_trace_replay_reproduces_schedule(self):
        original = run_schedule(5, ExploreConfig(), strategy="pct")
        replay = run_schedule(
            5, ExploreConfig(), strategy="trace", trace=original.decisions
        )
        assert _signature(replay) == _signature(original)

    def test_checkpoint_schedules_are_deterministic(self):
        config = ExploreConfig(checkpoint=True)
        first = run_schedule(13, config, strategy="random")
        second = run_schedule(13, config, strategy="random")
        assert _signature(first) == _signature(second)
        # the checkpoint task actually reached its decision points
        assert any(e["point"] == "tc.checkpoint" for e in first.events)
        assert any(e["point"] == "tc.checkpoint.done" for e in first.events)

    def test_checkpoint_trace_replay(self):
        config = ExploreConfig(checkpoint=True)
        original = run_schedule(21, config, strategy="pct")
        replay = run_schedule(
            21, config, strategy="trace", trace=original.decisions
        )
        assert _signature(replay) == _signature(original)


class TestLockedSweepIsClean:
    def test_small_sweep_no_anomalies(self):
        summary = explore(
            ExploreConfig(),
            schedules=30,
            strategies=("random", "pct", "rr"),
            crash_modes=(False, True),
            base_seed=100,
            stop_on_anomaly=True,
        )
        assert summary.anomalies == 0, summary.first_failure.anomaly
        assert summary.explored == 30
        assert summary.committed > 0

    def test_checkpoint_sweep_no_anomalies(self):
        """Checkpoint/truncation decision points interleaved with live
        transactions — and with a DC crash + recovery task — must stay
        serializable with a clean recovery ordering."""
        summary = explore(
            ExploreConfig(),
            schedules=24,
            strategies=("random", "pct"),
            crash_modes=(False, True),
            checkpoint_modes=(True,),
            base_seed=400,
            stop_on_anomaly=True,
        )
        assert summary.anomalies == 0, summary.first_failure.anomaly
        assert summary.explored == 24
        assert any("+ckpt" in key for key in summary.per_variant)

    @pytest.mark.slow
    def test_acceptance_sweep_500_schedules(self):
        """The acceptance criterion: 500 schedules (random + PCT, with and
        without injected DC crashes) — zero cycles, zero recovery-ordering
        violations."""
        summary = explore(
            ExploreConfig(),
            schedules=500,
            strategies=("random", "pct"),
            crash_modes=(False, True),
            base_seed=0,
            stop_on_anomaly=True,
        )
        assert summary.anomalies == 0, summary.first_failure.anomaly
        assert summary.explored == 500


class TestNegativeControl:
    def test_weakened_read_locks_caught_and_minimized(self, tmp_path):
        config = ExploreConfig(skip_read_locks=True)
        summary = explore(
            config,
            schedules=200,
            strategies=("random", "pct"),
            crash_modes=(False,),
            base_seed=0,
            stop_on_anomaly=True,
        )
        failure = summary.first_failure
        assert failure is not None, "oracle failed to catch broken 2PL"
        assert failure.report.cycle is not None
        assert summary.explored <= 200

        artifact = minimize_failure(failure, config)
        assert len(artifact["trace"]) <= len(failure.decisions)
        assert "cycle" in artifact["anomaly"]

        # The artifact round-trips through JSON and still reproduces.
        path = save_artifact(artifact, str(tmp_path / "failure.json"))
        replayed = replay_artifact(load_artifact(path))
        assert replayed.report.cycle is not None

    def test_locked_counterpart_of_failing_seed_is_clean(self):
        """The same seed that cycles without read locks is serializable
        with them — the anomaly is the knob's fault, not the workload's."""
        weak = ExploreConfig(skip_read_locks=True)
        summary = explore(
            weak,
            schedules=200,
            strategies=("random", "pct"),
            crash_modes=(False,),
            base_seed=0,
            stop_on_anomaly=True,
        )
        failure = summary.first_failure
        assert failure is not None
        locked = run_schedule(
            failure.seed, ExploreConfig(), strategy=failure.strategy
        )
        assert locked.report.anomaly() is None


CC_POLICIES = ("2pl", "occ", "mvcc")


class TestOptimizedLane:
    """The explorer under the composed fast path (it had only ever seen
    the unbatched default): queue-then-log-at-flush, owed undo images,
    committers parked behind them (``tc.owed_wait``), and a DC restart's
    redo over a volatile log tail are all scheduling decisions here."""

    def test_identical_reruns(self):
        config = ExploreConfig(optimized=True, crash=True)
        first = run_schedule(77, config, "pct")
        second = run_schedule(77, config, "pct")
        assert _signature(first) == _signature(second)

    def test_sweep_is_clean_per_policy_with_and_without_crash(self):
        summary = explore(
            ExploreConfig(optimized=True),
            schedules=72,
            strategies=("random", "pct", "rr"),
            crash_modes=(False, True),
            cc_policies=CC_POLICIES,
            base_seed=60,
            stop_on_anomaly=True,
        )
        assert summary.anomalies == 0, summary.first_failure.anomaly
        assert summary.explored == 72 and summary.committed > 0

    def test_the_owed_paths_are_reached(self):
        """Not vacuous: across a small sweep some write logs its image
        owed, some committer parks behind another task's owed record, and
        a crash lands while a transaction has records in the log."""
        points: set = set()
        owed_writes = 0
        for seed in range(40):
            outcome = run_schedule(
                seed,
                ExploreConfig(optimized=True, crash=bool(seed % 2), txns=4, keyspace=6),
                ("random", "pct", "rr")[seed % 3],
            )
            assert outcome.report.anomaly() is None
            points |= {event["point"] for event in outcome.events}
            owed_writes += sum(
                1
                for event in outcome.events
                if event["point"] == "dc.apply" and event.get("op") == "UpdateOp"
            )
        assert owed_writes > 0
        assert {"tc.owed_wait", "dc.crash", "dc.recover.ready"} <= points

    def test_weakened_read_locks_still_caught(self):
        summary = explore(
            ExploreConfig(optimized=True, skip_read_locks=True),
            schedules=200,
            strategies=("random", "pct", "rr"),
            crash_modes=(False, True),
            base_seed=0,
            stop_on_anomaly=True,
        )
        failure = summary.first_failure
        assert failure is not None, "oracle failed to catch broken 2PL"
        assert failure.report.cycle is not None

    @pytest.mark.slow
    def test_acceptance_sweep_200_with_crashes(self):
        summary = explore(
            ExploreConfig(optimized=True),
            schedules=200,
            strategies=("random", "pct", "rr"),
            crash_modes=(False, True),
            base_seed=11,
            stop_on_anomaly=True,
        )
        assert summary.anomalies == 0, summary.first_failure.anomaly


class TestEveryWriteOwesItsImage:
    """The default lane runs the FIG1 baseline, ``TcConfig(undo_cache_size=0)``:
    no cache, envelopes of one, so every update / delete not preceded by
    the transaction's own read logs its image owed and fills it from the
    reply — under all three policies, with and without a DC crash."""

    def test_sweep_is_clean_per_policy_with_and_without_crash(self):
        summary = explore(
            ExploreConfig(),
            schedules=72,
            strategies=("random", "pct", "rr"),
            crash_modes=(False, True),
            cc_policies=CC_POLICIES,
            base_seed=900,
            stop_on_anomaly=True,
        )
        assert summary.anomalies == 0, summary.first_failure.anomaly
        assert summary.explored == 72 and summary.committed > 0

    def test_owed_writes_are_reached(self):
        owed = 0
        for seed in range(12):
            outcome = run_schedule(
                seed, ExploreConfig(crash=bool(seed % 2), keyspace=6), "random"
            )
            assert outcome.report.anomaly() is None
            owed += sum(
                1
                for event in outcome.events
                if event["point"] == "dc.apply"
                and event.get("op") in ("UpdateOp", "DeleteOp")
            )
        assert owed > 0

    def test_negative_control_still_caught(self):
        summary = explore(
            ExploreConfig(skip_read_locks=True),
            schedules=200,
            strategies=("random", "pct", "rr"),
            crash_modes=(False, True),
            base_seed=0,
            stop_on_anomaly=True,
        )
        failure = summary.first_failure
        assert failure is not None, "oracle failed to catch broken 2PL"
        assert failure.report.cycle is not None


class TestCcPolicySweeps:
    """The pluggable-CC soundness sweeps: every policy, same workload,
    zero oracle anomalies."""

    @pytest.mark.parametrize("policy", CC_POLICIES)
    def test_determinism_per_policy(self, policy):
        config = ExploreConfig(cc_policy=policy)
        first = run_schedule(19, config, strategy="random")
        second = run_schedule(19, config, strategy="random")
        assert _signature(first) == _signature(second)

    @pytest.mark.parametrize("policy", CC_POLICIES)
    def test_small_sweep_per_policy(self, policy):
        summary = explore(
            ExploreConfig(cc_policy=policy),
            schedules=24,
            strategies=("random", "pct"),
            crash_modes=(False, True),
            base_seed=100,
            stop_on_anomaly=True,
        )
        assert summary.anomalies == 0, summary.first_failure.anomaly
        assert summary.explored == 24
        assert summary.committed > 0

    def test_cc_policies_sweep_mode(self):
        """``cc_policies=`` crosses the policy into the variant matrix and
        labels each variant, so one sweep covers all three policies."""
        summary = explore(
            ExploreConfig(),
            schedules=18,
            strategies=("random",),
            crash_modes=(False,),
            cc_policies=CC_POLICIES,
            base_seed=300,
            stop_on_anomaly=True,
        )
        assert summary.anomalies == 0, summary.first_failure.anomaly
        for policy in CC_POLICIES:
            assert summary.per_variant.get(f"random+{policy}", 0) == 6

    @pytest.mark.slow
    @pytest.mark.parametrize("policy", CC_POLICIES)
    def test_acceptance_sweep_200_per_policy(self, policy):
        """The acceptance criterion: >=200 locked schedules per policy
        (random + PCT, with and without injected DC crashes) — zero
        oracle anomalies."""
        summary = explore(
            ExploreConfig(cc_policy=policy),
            schedules=200,
            strategies=("random", "pct"),
            crash_modes=(False, True),
            base_seed=0,
            stop_on_anomaly=True,
        )
        assert summary.anomalies == 0, summary.first_failure.anomaly
        assert summary.explored == 200


class TestCcNegativeControls:
    """Each weakened policy must be caught by the *same* judge that
    passes its honest counterpart — that is what gives the clean sweeps
    teeth."""

    def _catch_and_replay(self, config, tmp_path):
        summary = explore(
            config,
            schedules=200,
            strategies=("random", "pct"),
            crash_modes=(False,),
            base_seed=0,
            stop_on_anomaly=True,
        )
        failure = summary.first_failure
        assert failure is not None, "oracle failed to catch the weakened policy"
        assert summary.explored <= 200

        artifact = minimize_failure(failure, summary.first_failure_config)
        assert len(artifact["trace"]) <= len(failure.decisions)
        assert artifact["anomaly"] is not None

        # The artifact round-trips through JSON and still reproduces.
        path = save_artifact(artifact, str(tmp_path / "failure.json"))
        replayed = replay_artifact(load_artifact(path))
        assert replayed.report.anomaly() is not None
        return failure

    def test_occ_skip_validation_caught_and_minimized(self, tmp_path):
        failure = self._catch_and_replay(
            ExploreConfig(cc_policy="occ", skip_validation=True), tmp_path
        )
        # The honest counterpart of the failing seed sweeps clean: the
        # anomaly is the missing validation's fault, not the workload's.
        honest = run_schedule(
            failure.seed, ExploreConfig(cc_policy="occ"), strategy=failure.strategy
        )
        assert honest.report.anomaly() is None

    def test_mvcc_read_newest_caught_and_minimized(self, tmp_path):
        failure = self._catch_and_replay(
            ExploreConfig(cc_policy="mvcc", mvcc_read_newest=True), tmp_path
        )
        honest = run_schedule(
            failure.seed, ExploreConfig(cc_policy="mvcc"), strategy=failure.strategy
        )
        assert honest.report.anomaly() is None

    def test_mvcc_skip_validation_write_skew_caught(self):
        """Without read-set validation mvcc is plain snapshot isolation:
        first-committer-wins no longer kills write skew, and the MVSG
        finds the r->w / r->w cycle."""
        summary = explore(
            ExploreConfig(cc_policy="mvcc", skip_validation=True),
            schedules=200,
            strategies=("random", "pct"),
            crash_modes=(False,),
            base_seed=0,
            stop_on_anomaly=True,
        )
        assert summary.first_failure is not None
