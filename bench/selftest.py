#!/usr/bin/env python3
"""Checks that ``BENCHMARK.json`` and ``bench/run.py`` agree.

    python3 bench/selftest.py            # static checks + one quick run per
                                         # workload and trace mode (~1.5 min)
    python3 bench/selftest.py --static   # BENCHMARK.json only

Fails if a metric lacks a unit, direction or (end-to-end) bound, if the
file breaks a limit of the benchmark contract, or if the names and units
the command prints differ from the ones the file lists.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")


def static_problems(benchmark: dict) -> list[str]:
    problems = []
    expected_keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(benchmark) != expected_keys:
        problems.append(f"top-level keys are {sorted(benchmark)}")
        return problems
    if not 1 <= len(benchmark["paths"]) <= 16 or not all(
        PATH.match(p) and not p.startswith("/") and ".." not in p.split("/")
        for p in benchmark["paths"]
    ):
        problems.append("paths out of contract")
    command = benchmark["command"]
    if not 1 <= len(command) <= 32 or any(len(c) > 200 or c.startswith("/") for c in command):
        problems.append("command out of contract")
    if not (isinstance(benchmark["run_seconds"], int) and 1 <= benchmark["run_seconds"] <= 60):
        problems.append("run_seconds must be a whole number from 1 to 60")
    if not 2 <= len(benchmark["workloads"]) <= 8:
        problems.append("2 to 8 workloads")
    for workload in benchmark["workloads"]:
        if set(workload) != {"name", "why"}:
            problems.append(f"workload keys: {workload}")
        elif len(workload["why"]) > 200 or "\n" in workload["why"]:
            problems.append(f"workload {workload['name']}: why is not one line of <= 200")
    listed = {w.get("name") for w in benchmark["workloads"]}
    if listed != set(WORKLOADS):
        problems.append(f"workloads differ: file {sorted(listed)}, code {sorted(WORKLOADS)}")
    if not 1 <= len(benchmark["end_to_end"]) <= 16 or not 1 <= len(benchmark["per_layer"]) <= 128:
        problems.append("metric counts out of contract")
    names = [w.get("name") for w in benchmark["workloads"]]
    for section, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                          ("per_layer", {"name", "unit", "better"})):
        for metric in benchmark[section]:
            label = f"{section} {metric.get('name')}"
            if set(metric) != keys:
                problems.append(f"{label}: keys {sorted(metric)}, need {sorted(keys)}")
                continue
            names.append(metric["name"])
            if not UNIT.match(metric["unit"]):
                problems.append(f"{label}: bad unit {metric['unit']!r}")
            if metric["better"] not in ("higher", "lower"):
                problems.append(f"{label}: no direction")
            if "bound" in keys and not 0 < metric["bound"] <= 0.25:
                problems.append(f"{label}: bound must be in (0, 0.25]")
    for name in names:
        if not isinstance(name, str) or not NAME.match(name):
            problems.append(f"bad name {name!r}")
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    setup = [m for m in benchmark["end_to_end"] if m.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" or setup[0].get("better") != "lower":
        problems.append("end_to_end needs setup_s in s, lower is better")
    if len(json.dumps(benchmark)) > 64 * 1024:
        problems.append("file larger than 64 KiB")
    return problems


def run_problems(benchmark: dict) -> list[str]:
    problems = []
    for workload in benchmark["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload['name']} --trace {trace}"
            done = subprocess.run(
                benchmark["command"] + ["--workload", workload["name"], "--seed", "1",
                                        "--quick", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=300,
            )
            if done.returncode != 0:
                problems.append(f"{label}: exit {done.returncode}: {done.stderr[-500:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
                continue
            want = {m["name"]: m["unit"] for m in benchmark[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if want != got:
                problems.append(f"{label}: printed metrics differ from BENCHMARK.json: "
                                f"{sorted(set(want) ^ set(got))}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']} failed={result['failed']}")
            print(f"ok: {label} ({len(got)} metrics)")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--static", action="store_true", help="skip the quick runs")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    problems = static_problems(benchmark)
    if not problems and not args.static:
        problems = run_problems(benchmark)
    for problem in problems:
        print(f"FAIL: {problem}")
    print("selftest failed" if problems else "selftest passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
