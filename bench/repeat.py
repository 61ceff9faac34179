#!/usr/bin/env python3
"""Repeatability report: does the benchmark agree with itself?

    python3 bench/repeat.py --seed 1            # same seed twice + another seed
    python3 bench/repeat.py --seed 1 --spread 10  # ten seeds: spread vs bound

Every run is a fresh ``bench/run.py`` process, as a later PR's judge
would start it.  A difference beyond a metric's bound is flagged
``UNRESOLVED`` (the benchmark cannot tell a regression of that size from
noise) and makes the exit code non-zero; nothing passes silently.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed} failed:\n{done.stdout[-2000:]}\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values["_wall_s"] = time.perf_counter() - started
    return values


def worse_by(metric: dict, first: float, second: float) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return -change if metric["better"] == "higher" else change


def same_seed_report(benchmark: dict, seed: int, seconds: int) -> int:
    unresolved = 0
    for workload in benchmark["workloads"]:
        name = workload["name"]
        a, b, c = (run_once(name, s, seconds) for s in (seed, seed, seed + 1))
        print(f"\n{name}: seed {seed} twice, then seed {seed + 1}")
        print(f"  {'metric':<24}{'run A':>12}{'run B':>12}{'other seed':>12}"
              f"{'|B-A|/A':>10}{'|C-A|/A':>10}{'bound':>8}")
        for metric in benchmark["end_to_end"]:
            key = metric["name"]
            same = abs(b[key] - a[key]) / a[key]
            other = abs(c[key] - a[key]) / a[key]
            flag = ""
            if max(same, other) > metric["bound"]:
                flag = "  UNRESOLVED"
                unresolved += 1
            print(f"  {key:<24}{a[key]:>12.4f}{b[key]:>12.4f}{c[key]:>12.4f}"
                  f"{same:>10.1%}{other:>10.1%}{metric['bound']:>8.0%}{flag}")
    return unresolved


def spread_report(benchmark: dict, seed: int, seconds: int, runs: int) -> int:
    """The acceptance rule: inter-quartile spread over ``runs`` seeds as a
    share of the median must stay within the bound (``setup_s`` excepted),
    and should stay under a third of it."""
    unresolved = 0
    for workload in benchmark["workloads"]:
        name = workload["name"]
        samples = [run_once(name, seed + i, seconds) for i in range(runs)]
        walls = [s["_wall_s"] for s in samples]
        print(f"\n{name}: {runs} seeds from {seed}, "
              f"{statistics.fmean(walls):.1f} s per run (max {max(walls):.1f})")
        print(f"  {'metric':<24}{'median':>12}{'q1':>12}{'q3':>12}{'IQR/med':>10}{'bound':>8}")
        for metric in benchmark["end_to_end"]:
            key = metric["name"]
            values = [s[key] for s in samples]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            flag = ""
            if key != "setup_s" and spread > metric["bound"]:
                flag = "  UNRESOLVED"
                unresolved += 1
            elif spread > metric["bound"] / 3:
                flag = "  (above a third of the bound)"
            print(f"  {key:<24}{median:>12.4f}{q1:>12.4f}{q3:>12.4f}"
                  f"{spread:>10.1%}{metric['bound']:>8.0%}{flag}")
    return unresolved


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int,
                        help="window (default: run_seconds from BENCHMARK.json)")
    parser.add_argument("--spread", type=int, metavar="RUNS",
                        help="run RUNS different seeds and report the quartile spread")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    seconds = args.seconds or benchmark["run_seconds"]
    if args.spread:
        unresolved = spread_report(benchmark, args.seed, seconds, args.spread)
    else:
        unresolved = same_seed_report(benchmark, args.seed, seconds)
    print(f"\n{unresolved} unresolved" if unresolved else "\nall within bounds")
    return 1 if unresolved else 0


if __name__ == "__main__":
    sys.exit(main())
