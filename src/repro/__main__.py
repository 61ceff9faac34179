"""Command-line entry point: ``python -m repro <command>``.

Commands:

- ``demo``        — a two-minute guided tour of the unbundled kernel
- ``stats``       — build a sample workload and print component stats
- ``experiments`` — list the experiment index (benchmarks per paper claim)
- ``trace [preset] [out.json]`` — run a traced YCSB workload (preset A-F,
  default A), write Chrome trace-event JSON (open in chrome://tracing or
  https://ui.perfetto.dev) and print the per-phase latency breakdown
- ``explore``     — deterministic schedule exploration with the
  serializability + recovery-ordering oracle; ``--replay artifact.json``
  re-executes a saved failing ``(seed, trace)`` exactly
- ``chaos``       — seeded invariant-checking chaos run (``--process``
  for real DC processes and ``kill -9`` faults; ``--tc-process`` /
  ``--kill-tc-every`` put the TC in its own process and kill it too;
  ``--tcp`` runs the TC↔DC data plane over loopback TCP)
- ``serve-tc``    — run one TC server process on a Unix socket against an
  already-running DC pool (the TC service tier's standalone mode)
"""

from __future__ import annotations

import sys


def _demo() -> None:
    from repro import KernelConfig, UnbundledKernel
    from repro.common.config import DcConfig

    print("== repro demo: an unbundled transactional kernel ==\n")
    kernel = UnbundledKernel(KernelConfig(dc=DcConfig(page_size=512)))
    kernel.create_table("accounts")
    print("1. 100 inserts through TC -> channel -> DC (small pages => splits)")
    for account in range(100):
        with kernel.begin() as txn:
            txn.insert("accounts", account, {"balance": 100})
    print(f"   leaf splits: {kernel.metrics.get('btree.leaf_splits')}, "
          f"messages: {kernel.metrics.get('channel.requests')}")

    print("2. an uncommitted transfer, then a TC crash")
    transfer = kernel.begin()
    transfer.update("accounts", 1, {"balance": 60})
    transfer.update("accounts", 2, {"balance": 140})
    lost = kernel.crash_tc()
    stats = kernel.recover_tc()
    print(f"   lost {lost} volatile log records; restart: {stats}")
    with kernel.begin() as txn:
        assert txn.read("accounts", 1)["balance"] == 100

    print("3. a DC crash: cache gone, logical redo replays")
    kernel.crash_dc()
    kernel.recover_dc()
    with kernel.begin() as txn:
        assert len(txn.scan("accounts")) == 100
    print(f"   redo ops resent: {kernel.metrics.get('tc.redo_ops')}")

    print("4. checkpoint terminates the resend contract")
    kernel.checkpoint()
    kernel.crash_tc()
    stats = kernel.recover_tc()
    print(f"   post-checkpoint restart redid {stats['redo_ops']} op(s)")
    print("\ndemo OK — see examples/ for the full walkthroughs")


def _stats() -> None:
    import json

    from repro import UnbundledKernel

    kernel = UnbundledKernel()
    kernel.create_table("sample")
    for key in range(500):
        with kernel.begin() as txn:
            txn.insert("sample", key, f"value-{key}")
    kernel.checkpoint()
    print(json.dumps({"dc": kernel.dc.stats(), "tc": kernel.tc.stats()}, indent=2))


def _experiments() -> None:
    rows = [
        ("FIG1", "architecture cost vs monolithic", "bench_fig1_architecture.py"),
        ("FIG2", "cloud movie site W1-W4, no 2PC", "bench_fig2_cloud.py"),
        ("E-LOCK", "fetch-ahead vs range partitions", "bench_range_locking.py"),
        ("E-OOO", "out-of-order execution / abLSNs", "bench_out_of_order.py"),
        ("E-SYNC", "page-sync strategies", "bench_page_sync.py"),
        ("E-SMO", "system-transaction logging", "bench_system_txn.py"),
        ("E-FAIL", "partial failures & reset modes", "bench_partial_failure.py"),
        ("E-MTC", "multiple TCs per DC", "bench_multi_tc.py"),
        ("E-CKPT", "contract termination", "bench_checkpoint.py"),
        ("E-SCALE", "independent instantiation", "bench_scaling.py"),
        ("ABLATE", "design-knob sweeps", "bench_ablation.py"),
        ("APP", "application throughput", "bench_applications.py"),
    ]
    width = max(len(row[0]) for row in rows)
    for exp_id, claim, bench in rows:
        print(f"{exp_id:<{width}}  {claim:<40}  benchmarks/{bench}")
    print("\nrun one:  pytest benchmarks/<file> -s")


def _trace(args: list[str]) -> int:
    from repro import KernelConfig, UnbundledKernel
    from repro.common.config import DcConfig
    from repro.obs import Tracer, latency_breakdown, write_chrome_trace
    from repro.workloads.ycsb import PRESETS, YcsbConfig, YcsbWorkload

    preset = (args[0] if args else "A").upper()
    if preset not in PRESETS:
        print(f"unknown YCSB preset {preset!r}; choose from {sorted(PRESETS)}")
        return 1
    out = args[1] if len(args) > 1 else f"trace_ycsb_{preset}.json"
    tracer = Tracer()
    kernel = UnbundledKernel(
        KernelConfig(dc=DcConfig(page_size=1024)), tracer=tracer
    )
    kernel.create_table("usertable")
    workload = YcsbWorkload(
        kernel.begin, config=YcsbConfig(preset=preset, keyspace=300, seed=7)
    )
    workload.load()
    stats = workload.run(400)
    path = write_chrome_trace(out, tracer)
    print(f"YCSB-{preset}: {stats.committed} committed, "
          f"{len(tracer.finished_spans())} spans")
    print(f"trace written to {path} "
          "(drag into https://ui.perfetto.dev or chrome://tracing)\n")
    print(latency_breakdown(tracer))
    latency = kernel.metrics.dist("tc.commit_latency_ms")
    if latency.count:
        print(f"\ncommit latency ms: p50={latency.percentile(0.5):.3f} "
              f"p95={latency.percentile(0.95):.3f} "
              f"p99={latency.percentile(0.99):.3f}  (n={latency.count})")
    return 0


def _explore(args: list[str]) -> int:
    import argparse
    import json

    from repro.sim.explore import (
        ExploreConfig,
        explore,
        load_artifact,
        minimize_failure,
        replay_artifact,
        save_artifact,
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro explore",
        description="Explore transaction interleavings under a "
        "deterministic scheduler; judge each history with the "
        "serializability + recovery-ordering oracle.",
    )
    parser.add_argument("--schedules", type=int, default=200,
                        help="schedules per strategy/crash variant group")
    parser.add_argument("--seed", type=int, default=0, help="base seed")
    parser.add_argument("--strategy", default="random,pct",
                        help="comma list of random|pct|rr")
    parser.add_argument("--crash", action="store_true",
                        help="also explore schedules with an injected "
                        "DC crash + interleaved recovery")
    parser.add_argument("--weaken-read-locks", action="store_true",
                        help="negative control: drop read locks and let "
                        "the oracle find the cycle")
    parser.add_argument("--cc", default="2pl",
                        help="comma list of 2pl|occ|mvcc; more than one "
                        "sweeps the policies round-robin")
    parser.add_argument("--skip-validation", action="store_true",
                        help="negative control: disable occ/mvcc "
                        "commit-time validation")
    parser.add_argument("--mvcc-read-newest", action="store_true",
                        help="negative control: mvcc reads newest bytes "
                        "instead of the snapshot")
    parser.add_argument("--optimized", action="store_true",
                        help="run under TcConfig.optimized(undo_cache_size"
                        "=2): batched envelopes, reply-carried undo images")
    parser.add_argument("--txns", type=int, default=3)
    parser.add_argument("--ops", type=int, default=3)
    parser.add_argument("--keyspace", type=int, default=4)
    parser.add_argument("--out", default=None,
                        help="where to write a failing (seed, trace) "
                        "artifact [explore_failure_seed<N>.json]")
    parser.add_argument("--replay", default=None, metavar="ARTIFACT",
                        help="re-execute a saved failing artifact instead "
                        "of exploring")
    opts = parser.parse_args(args)

    if opts.replay is not None:
        outcome = replay_artifact(load_artifact(opts.replay))
        anomaly = outcome.report.anomaly()
        print(f"replayed seed={outcome.seed} strategy={outcome.strategy} "
              f"steps={outcome.steps}")
        print(f"anomaly: {anomaly or 'none — schedule is clean'}")
        return 0 if anomaly else 1  # a saved failure should reproduce

    policies = tuple(p.strip() for p in opts.cc.split(",") if p.strip())
    config = ExploreConfig(
        txns=opts.txns,
        ops_per_txn=opts.ops,
        keyspace=opts.keyspace,
        skip_read_locks=opts.weaken_read_locks,
        cc_policy=policies[0] if policies else "2pl",
        skip_validation=opts.skip_validation,
        mvcc_read_newest=opts.mvcc_read_newest,
        optimized=opts.optimized,
    )
    strategies = tuple(s.strip() for s in opts.strategy.split(",") if s.strip())
    crash_modes = (False, True) if opts.crash else (False,)
    summary = explore(
        config,
        schedules=opts.schedules,
        strategies=strategies,
        crash_modes=crash_modes,
        cc_policies=policies if len(policies) > 1 else None,
        base_seed=opts.seed,
        stop_on_anomaly=True,
    )
    print(json.dumps(summary.to_dict(), indent=2))
    failure = summary.first_failure
    if failure is None:
        print(f"\nclean: {summary.explored} schedules, no anomalies")
        return 0
    print(f"\nANOMALY at seed={failure.seed} strategy={failure.strategy}: "
          f"{failure.anomaly}")
    artifact = minimize_failure(failure, summary.first_failure_config or config)
    out = opts.out or f"explore_failure_seed{failure.seed}.json"
    save_artifact(artifact, out)
    print(f"minimized to {len(artifact['trace'])} decisions "
          f"(from {len(failure.decisions)}); artifact: {out}")
    print(f"reproduce with: python -m repro explore --replay {out}")
    return 1


def _chaos(args: list[str]) -> int:
    import argparse
    import json

    from repro.common.config import ChannelConfig
    from repro.sim.chaos import ChaosRunner, ChaosViolation

    parser = argparse.ArgumentParser(
        prog="python -m repro chaos",
        description="Seeded chaos run: random faults under a random "
        "workload, durability/atomicity/well-formedness checked after "
        "every heal.",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--txns", type=int, default=250)
    parser.add_argument("--process", action="store_true",
                        help="DCs as real server processes; faults are "
                        "real kill -9 (see --kill-every)")
    parser.add_argument("--kill-every", type=int, default=0, metavar="N",
                        help="process mode: SIGKILL a random DC every N "
                        "transactions")
    parser.add_argument("--tc-process", action="store_true",
                        help="process mode: run the TC as its own server "
                        "process (durable log journal, §5.3.2 healing)")
    parser.add_argument("--kill-tc-every", type=int, default=0, metavar="N",
                        help="process mode: SIGKILL the TC process every "
                        "N transactions (implies --tc-process)")
    parser.add_argument("--tcp", action="store_true",
                        help="process mode: TC↔DC traffic over loopback "
                        "TCP (ephemeral ports, TCP_NODELAY) instead of "
                        "Unix sockets; implies --tc-process")
    parser.add_argument("--cc", default="2pl", choices=("2pl", "occ", "mvcc"),
                        help="concurrency-control policy under chaos")
    parser.add_argument("--increment-rate", type=float, default=0.0,
                        metavar="R", help="rate of increment-canary ops "
                        "on the reserved slot (0 disables)")
    opts = parser.parse_args(args)

    kwargs: dict[str, object] = {"seed": opts.seed, "txns": opts.txns}
    if opts.cc != "2pl":
        from repro.common.config import TcConfig

        kwargs["tc_config"] = TcConfig(group_commit_size=1, cc_policy=opts.cc)
    if opts.increment_rate:
        kwargs["increment_rate"] = opts.increment_rate
    if opts.process:
        kwargs["channel_config"] = ChannelConfig(
            transport="process",
            listen_host="127.0.0.1" if opts.tcp else "",
        )
        kwargs["kill_every"] = opts.kill_every or 25
        if opts.tc_process or opts.kill_tc_every or opts.tcp:
            kwargs["tc_processes"] = 1
            kwargs["kill_tc_every"] = opts.kill_tc_every
    elif opts.tc_process or opts.kill_tc_every or opts.tcp:
        parser.error(
            "--tc-process/--kill-tc-every/--tcp require --process"
        )
    runner = ChaosRunner(**kwargs)
    try:
        report = runner.run()
    except ChaosViolation as violation:
        print(f"INVARIANT VIOLATION\n{violation}")
        return 1
    finally:
        runner.kernel.close()
    print(json.dumps(report, indent=2))
    return 0


def _serve_tc(args: list[str]) -> int:
    import argparse

    from repro.common.config import TcConfig
    from repro.net.tcserver import serve_socket

    parser = argparse.ArgumentParser(
        prog="python -m repro serve-tc",
        description="Serve one transactional component on a Unix socket. "
        "DCs are addressed by their own sockets (see RemoteDc "
        "listen_path); clients connect with RemoteTc(socket_path=...).",
    )
    parser.add_argument("--name", default="tc1")
    parser.add_argument("--tc-id", type=int, default=1)
    parser.add_argument("--listen", required=True, metavar="SOCK",
                        help="Unix socket path to serve on")
    parser.add_argument("--journal", required=True, metavar="PATH",
                        help="TC log journal (replayed on restart)")
    parser.add_argument("--dc", action="append", default=[],
                        metavar="NAME=SOCK", required=False,
                        help="a DC to attach, as name=socket_path "
                        "(repeatable)")
    parser.add_argument("--sharing-mode", default="",
                        choices=["", "read_committed", "dirty"])
    parser.add_argument("--max-sessions", type=int, default=0,
                        help="exit after N client sessions (0 = forever)")
    opts = parser.parse_args(args)
    dc_socks: dict[str, str] = {}
    for spec in opts.dc:
        name, sep, path = spec.partition("=")
        if not sep or not name or not path:
            parser.error(f"--dc expects NAME=SOCK, got {spec!r}")
        dc_socks[name] = path
    serve_socket(
        opts.listen,
        opts.name,
        opts.tc_id,
        TcConfig.optimized(),
        opts.journal,
        dc_socks,
        sharing_mode=opts.sharing_mode,
        max_sessions=opts.max_sessions,
    )
    return 0


def main(argv: list[str]) -> int:
    commands = {"demo": _demo, "stats": _stats, "experiments": _experiments}
    if argv and argv[0] == "trace":
        return _trace(argv[1:])
    if argv and argv[0] == "explore":
        return _explore(argv[1:])
    if argv and argv[0] == "chaos":
        return _chaos(argv[1:])
    if argv and argv[0] == "serve-tc":
        return _serve_tc(argv[1:])
    if len(argv) != 1 or argv[0] not in commands:
        print(__doc__)
        return 1
    commands[argv[0]]()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
