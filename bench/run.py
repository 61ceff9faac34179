#!/usr/bin/env python3
"""The repo's benchmark: four closed-loop workloads down the deployment
ladder, end-to-end metrics from an untraced run, per-layer metrics and a
latency budget from a traced run.  See bench/README.md.

    python3 bench/run.py --seed 1                      # all workloads, both runs
    python3 bench/run.py --seed 1 --workload NAME --seconds 12 --trace 0|1

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from types import SimpleNamespace

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit(f"bench/run.py: no program to measure at {SRC}/repro")
if os.environ.get("PYTHONHASHSEED") != "0":
    # One fixed string-hash seed for the client and the servers it forks:
    # dict layouts and lock-stripe choices then repeat from run to run.
    os.execve(sys.executable, [sys.executable, *sys.argv],
              {**os.environ, "PYTHONHASHSEED": "0"})
# Relative paths from the checkout root keep Unix-socket paths short.
os.chdir(ROOT)
sys.path[:0] = [SRC, BENCH_DIR]

import deploy  # noqa: E402
import driver  # noqa: E402
import layers  # noqa: E402
from spans import SpanRecorder, restore, shadow  # noqa: E402
from workloads import WORKLOADS, load_order, make_value, txn_stream  # noqa: E402

RESULTS_DIR = os.path.join("bench", "results")
WORK_DIR = os.path.join("bench", ".work")
OPEN_LOOP_RATE = 300.0


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def pin_to_one_cpu() -> int:
    """Run the client and every server it forks on one CPU.

    On this 2-vCPU host a round trip between processes on different
    vCPUs pays a hypervisor wake-up that is several times the program's
    own cost and drifts over seconds; on one CPU the numbers follow the
    program's code.  README.md, "Load model", has the measurements."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def fingerprint(cpu: int) -> dict:
    from repro.net.process import default_start_method

    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "python": platform.python_version(),
        "start_method": default_start_method(),
        "kernel": platform.release(),
        "machine": platform.machine(),
        "flush_policy": "journal flush(), never fsync: kill-9 durable, not power-loss durable",
    }


# -- one run of one workload --------------------------------------------------


def snapshot(dep) -> dict:
    cpu = {"client": time.process_time()}
    for role, pid in dep.pids().items():
        cpu[role] = driver.cpu_seconds(pid)
    return {"counters": dep.counters(), "cpu": cpu}


def delta(after: dict, before: dict) -> dict:
    return {
        role: {
            name: value - before.get(role, {}).get(name, 0)
            for name, value in names.items()
        }
        for role, names in after.items()
    }


def set_up(workload, seed: int, work_dir: str):
    """Spawn, create the table, load, first checkpoint.  Returns the
    deployment, its client and the set-up time, as measured and at reference
    host speed."""
    prober = driver.Prober()
    prober.tick()
    started = time.perf_counter()
    dep = deploy.build(workload.deployment, work_dir)
    try:
        client = driver.Client(txn_stream(workload, seed), workload.checkpoint_every)
        order = load_order(workload)
        deploy.load_table(dep.begin, order, lambda key: make_value(key, 1), prober.tick)
        client.model = dict.fromkeys(order, 1)
        dep.checkpoint()
    except BaseException:
        dep.close()
        raise
    elapsed = time.perf_counter() - started - sum(prober.samples[1:])
    prober.samples.append(driver.probe())
    return dep, client, elapsed, elapsed / driver.slowdown(prober.samples)


def verify_across_kill(dep, client, workload, seed: int) -> tuple[int, int, float]:
    """Output verification: read back, kill the DC, heal, read back again.
    Returns (keys checked each time, mismatches in total, kill -> healed s)."""
    checked, wrong = driver.verify(dep, client, workload, seed)
    crashed = time.perf_counter()
    dep.crash_dc()
    dep.heal()
    recover_s = time.perf_counter() - crashed
    _, wrong_after = driver.verify(dep, client, workload, seed)
    return checked, wrong + wrong_after, recover_s


def run_workload(workload, seed: int, seconds: float, trace: bool, work_root: str) -> dict:
    warmup_s = min(5.0, max(1.0, seconds / 4))
    setups, setups_as_measured, dep = [], [], None
    try:
        for attempt in range(workload.setup_repeats):
            if dep is not None:
                dep.close()
                dep = None
            dep, client, measured_s, setup_s = set_up(
                workload, seed, os.path.join(work_root, f"s{attempt}"))
            setups.append(setup_s)
            setups_as_measured.append(measured_s)
        # Server counters are read before the warm-up and after the last
        # window only: RemoteDc.stats() scans the whole table through the
        # buffer pool, which would evict the working set mid-measurement.
        before = snapshot(dep)
        capture = layers.Capture()
        tap_obj, tap_attr = dep.capture_point()
        tapped = shadow(tap_obj, tap_attr, capture.tap(getattr(tap_obj, tap_attr)))
        try:
            warmup = driver.closed_loop(dep, client, warmup_s)
        finally:
            restore(*tapped)
        gc.collect()
        window = driver.closed_loop(dep, client, seconds * 0.4 if trace else seconds)
        counted = [warmup, window]
        result = {
            "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
            "warmup_s": warmup_s, "setup_samples_s": setups,
            "setup_as_measured_s": setups_as_measured,
            "samples": window.committed, "slices": window.slices,
            "host_slowdown": driver.slowdown(window.probes),
        }
        attempted, failed = window.attempted, window.failed
        if not trace:
            after = snapshot(dep)
            counters = delta(after["counters"], before["counters"])
            metrics = {
                **window.normalised(),
                "stable_bytes_per_txn": layers.stable_bytes(counters)
                / (warmup.committed + window.committed),
                "setup_s": statistics.median(setups),
            }
            result["as_measured"] = {
                "txn_per_s_mean": window.committed / window.wall_s,
                "txn_p50_ms": window.percentile_ms(0.50),
                "txn_p95_ms": window.percentile_ms(0.95),
            }
        else:
            ctx = SimpleNamespace(workload=workload, untraced=window, wait_spans=dep.wait_spans)
            dc_ops_before = dep.local_counter("dc.operations")
            rec = ctx.recorder = SpanRecorder()
            for obj, attr, name in dep.trace_targets():
                rec.wrap(obj, attr, name)
            try:
                ctx.traced = driver.closed_loop(dep, client, seconds * 0.6, rec)
            finally:
                rec.unwrap_all()
            ctx.traced_dc_ops = dep.local_counter("dc.operations") - dc_ops_before
            after = snapshot(dep)
            attempted += ctx.traced.attempted
            failed += ctx.traced.failed
            counted.append(ctx.traced)
            ctx.counted_txns = sum(w.committed for w in counted)
            ctx.counted_wall_s = sum(w.wall_s for w in counted)
            ctx.counters = delta(after["counters"], before["counters"])
            ctx.cpu_s = {r: after["cpu"][r] - before["cpu"][r] for r in after["cpu"]}
            ctx.rss_mb = driver.rss_mb(os.getpid()) + sum(
                driver.rss_mb(pid) for pid in dep.pids().values())
            ctx.open_loop = {"p50_ms": 0.0, "p99_ms": 0.0, "late_ms": 0.0, "backlog": 0}
            if workload.deployment == "svc":
                phase = driver.open_loop(dep, client, min(10.0, seconds / 2), OPEN_LOOP_RATE)
                attempted += phase.pop("attempted")
                failed += phase.pop("failed")
                ctx.open_loop = phase
            ctx.micro = layers.wire_micro(capture)
            ctx.micro["net.eventloop.echo_rtt_us"] = layers.eventloop_echo_us()
            for name, call in dep.noop_round_trips().items():
                ctx.micro[name] = layers.median_us(call)

        checked, wrong, recover_s = verify_across_kill(dep, client, workload, seed)
        attempted += 2 * checked
        failed += wrong
        result["verified_keys"] = checked
        result["recover_s"] = recover_s
    finally:
        if dep is not None:
            dep.close()

    if trace:
        ctx.micro.update(layers.storage_micro(work_root))
        ctx.micro["kernel.monolithic.txn_per_s"] = layers.monolithic_txn_per_s(
            seed, min(5.0, max(1.0, seconds / 4)))
        ctx.recover_s, ctx.attempted, ctx.failed = recover_s, attempted, failed
        metrics = layers.layer_metrics(ctx)
        result["budget"] = ctx.budget
        result["spans"] = rec.summary()
        os.makedirs(RESULTS_DIR, exist_ok=True)
        rec.write(os.path.join(RESULTS_DIR, f"trace-{workload.name}.json"),
                  {"workload": workload.name, "seed": seed})
    result.update(metrics=metrics, attempted=attempted, failed=failed)
    return result


# -- output -------------------------------------------------------------------


def emit(result: dict, listed: list) -> dict:
    """Print one run's metrics by name with units; returns the contract's
    result object (exactly the metrics BENCHMARK.json lists)."""
    unit_of = {m["name"]: m["unit"] for m in listed}
    missing = set(unit_of) - set(result["metrics"])
    extra = set(result["metrics"]) - set(unit_of)
    if missing or extra:
        raise SystemExit(f"metric names differ from BENCHMARK.json: "
                         f"missing {sorted(missing)}, unlisted {sorted(extra)}")
    kind = "per-layer (traced run)" if result["trace"] else "end-to-end (untraced run)"
    if result["quick"]:
        kind += ", QUICK: not comparable with anything"
    print(f"\n== {result['workload']}: {kind}, seed {result['seed']}, "
          f"{result['seconds']:g} s window after {result['warmup_s']:g} s warm-up, "
          f"{result['samples']} latency samples ==")
    for name, unit in unit_of.items():
        print(f"  {name:<40}{result['metrics'][name]:>16.4f} {unit}")
    print(f"  verified {result['verified_keys']} keys before and after a DC kill + heal "
          f"({result['recover_s']:.3f} s); attempted {result['attempted']}, "
          f"failed {result['failed']}")
    if result["trace"]:
        print(layers.format_budget(result["workload"], result["budget"]))
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["metrics"][name], "unit": unit}
            for name, unit in unit_of.items()
        },
    }


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process —
    exactly what a single ``--workload ... --trace ...`` invocation runs, so
    the numbers do not depend on what ran before in the same interpreter."""
    finals = {}
    for name in [args.workload] if args.workload else list(WORKLOADS):
        for trace in (0, 1) if args.trace is None else (args.trace,):
            command = [sys.executable, os.path.abspath(__file__), "--seed", str(args.seed),
                       "--workload", name, "--trace", str(trace),
                       "--seconds", str(args.seconds)] + (["--quick"] if args.quick else [])
            child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
            lines = []
            try:
                for line in child.stdout:
                    lines.append(line)
                    if not line.startswith("{"):
                        print(line, end="", flush=True)
                child.wait()
            finally:
                if child.poll() is None:
                    child.terminate()  # it tears its own servers down on SIGTERM
                    child.wait()
            if child.returncode != 0 and not (lines and lines[-1].startswith("{")):
                print(f"{name} --trace {trace} exited {child.returncode} without a result")
                return child.returncode or 1
            finals[f"{name}/{'per_layer' if trace else 'end_to_end'}"] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(f["correct"] for f in finals.values()),
        "attempted": sum(f["attempted"] for f in finals.values()),
        "failed": sum(f["failed"] for f in finals.values()),
        "quick": args.quick,
        "metrics": {run: f["metrics"] for run, f in finals.items()},
    }))
    return 0 if all(f["correct"] for f in finals.values()) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed; the same seed gives the same operations")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all four)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measured window (default 30)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, 1: per-layer metrics (default: both)")
    parser.add_argument("--quick", action="store_true",
                        help="2 s windows; output is stamped quick and never comparable")
    args = parser.parse_args()

    def terminate(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, terminate)
    if args.workload is None or args.trace is None:
        return run_all(args)
    seconds = 2.0 if args.quick else args.seconds
    listed = spec()["per_layer" if args.trace else "end_to_end"]
    host = fingerprint(pin_to_one_cpu())
    print(f"host: {json.dumps(host)}")
    work_root = os.path.join(WORK_DIR, f"run{os.getpid()}")
    os.makedirs(work_root, exist_ok=True)
    try:
        result = run_workload(WORKLOADS[args.workload], args.seed, seconds,
                              bool(args.trace), work_root)
    finally:
        for child in multiprocessing.active_children():
            child.kill()
            child.join()
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass
    result.update(host=host, quick=args.quick)
    final = emit(result, listed)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    artifact = f"scoreboard-{args.workload}-trace{args.trace}-seed{args.seed}.json"
    with open(os.path.join(RESULTS_DIR, artifact), "w") as out:
        json.dump(result, out, indent=1, default=list)
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
