"""The load: one closed-loop client thread, one connection.

Callers of this kernel each wait for their reply (an application thread
embedding the TC, or one session on a TC server), so the loop sends its
next transaction only after the previous one returned.  The client keeps
a model of what it committed (key -> version) and checks every read
against it, in the window and again after it.
"""

from __future__ import annotations

import functools
import os
import random
import statistics
import time
from array import array
from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import ReproError

from deploy import TABLE
from workloads import FRESH_BASE, OP_NAMES, READ, UPDATE, make_value

_CLK_TCK = os.sysconf("SC_CLK_TCK")
_PAGE = os.sysconf("SC_PAGE_SIZE")

#: The host-speed probe runs this often inside every measured interval.
PROBE_EVERY_S = 0.05
#: Probe duration on a quiet host of the kind the baseline was taken on;
#: time metrics are reported as if the probe always took this long.
REFERENCE_PROBE_US = 400.0

_CHASE_OBJECTS = 200_000


@functools.lru_cache(maxsize=None)
def _chase_state() -> tuple:
    """A random cycle through 200,000 separately allocated objects (~25 MB):
    following it misses the CPU caches the way a large object graph does."""
    order = list(range(_CHASE_OBJECTS))
    random.Random(5).shuffle(order)
    successor = [0] * _CHASE_OBJECTS
    for here, there in zip(order, order[1:] + order[:1]):
        successor[here] = there
    return successor, [(i, str(i)) for i in range(_CHASE_OBJECTS)], [0]


def probe() -> float:
    """Seconds a fixed piece of interpreter work takes right now: an
    arithmetic loop (CPU-bound) plus a pointer chase (cache-missing).

    The shared host this benchmark runs on changes speed by tens of
    percent for seconds to minutes at a time, and not equally for
    compute and for memory (README.md, "Host speed").  The probe shares no
    code with ``src/``, so a change to the program cannot move it; the host
    slowing down moves it and the workload alike."""
    successor, objects, cursor = _chase_state()
    start = time.perf_counter()
    total = 0
    for i in range(3000):
        total += i * i
    at = cursor[0]
    for _ in range(120):
        at = successor[at]
        total += objects[at][0]
    cursor[0] = at
    return time.perf_counter() - start


class Prober:
    """Takes a probe whenever ``tick()`` is called at least ``every_s``
    after the previous one (set-up's counterpart of the probing built into
    ``closed_loop``; set-ups are short, so they probe more often)."""

    def __init__(self, every_s: float = PROBE_EVERY_S / 2) -> None:
        self.samples: list[float] = []
        self._every_s = every_s
        self._next = 0.0

    def tick(self) -> None:
        now = time.perf_counter()
        if now >= self._next:
            self.samples.append(probe())
            self._next = now + self._every_s


def slowdown(probes) -> float:
    """Mean probe time over the reference: >1 when the host ran slow."""
    return statistics.fmean(probes) * 1e6 / REFERENCE_PROBE_US if len(probes) else 1.0


@dataclass
class Client:
    """State that outlives one window: the stream position and the model."""

    stream: object
    checkpoint_every: int
    model: dict = field(default_factory=dict)
    commits: int = 0
    next_txn_id: int = 0


@dataclass
class Window:
    start: float
    wall_s: float
    latencies: array
    ends: array
    attempted: int
    failed: int
    checkpoints: list
    #: Host-speed probe durations and when each was taken.
    probes: array
    probe_at: array

    @property
    def committed(self) -> int:
        return len(self.latencies)

    def percentile_ms(self, q: float) -> float:
        """Plain percentile of every sample, not host-speed normalised."""
        return float(np.percentile(self.latencies, q * 100)) * 1e3

    def mean_ms(self) -> float:
        return statistics.fmean(self.latencies) * 1e3

    @functools.cached_property
    def slices(self) -> list[dict]:
        """Per full second of the window: commits, latency percentiles and
        how slow the host ran (mean probe time over the reference)."""
        full = max(1, int(self.wall_s))
        width = self.wall_s / full if self.wall_s < 1 else 1.0
        latencies = np.asarray(self.latencies)
        slot = ((np.asarray(self.ends) - self.start) / width).astype(int)
        probes = np.asarray(self.probes)
        probe_slot = ((np.asarray(self.probe_at) - self.start) / width).astype(int)
        whole_run = slowdown(self.probes)
        out = []
        for i in range(full):
            mine = latencies[slot == i]
            if not len(mine):
                out.append({"rate": 0.0, "p50_ms": None, "p95_ms": None, "slowdown": whole_run})
                continue
            near = probes[probe_slot == i]
            out.append({
                "rate": len(mine) / width,
                "p50_ms": float(np.percentile(mine, 50)) * 1e3,
                "p95_ms": float(np.percentile(mine, 95)) * 1e3,
                "slowdown": slowdown(near) if len(near) else whole_run,
            })
        return out

    def normalised(self) -> dict:
        """The time metrics a run reports: the median over one-second
        slices, each slice scaled to the reference host speed.  The median
        shrugs off the slices a checkpoint or a host hiccup lands in; the
        scaling removes the host's slower drifts."""
        slices = self.slices
        timed = [s for s in slices if s["p50_ms"] is not None]
        return {
            "txn_per_s": statistics.median(s["rate"] * s["slowdown"] for s in slices),
            "txn_p50_ms": statistics.median(s["p50_ms"] / s["slowdown"] for s in timed),
            "txn_p95_ms": statistics.median(s["p95_ms"] / s["slowdown"] for s in timed),
        }

    def drift(self) -> float:
        """Last-third over first-third throughput of the window."""
        rates = [s["rate"] * s["slowdown"] for s in self.slices]
        third = max(1, len(rates) // 3)
        head = statistics.fmean(rates[:third])
        return statistics.fmean(rates[-third:]) / head if head else 0.0


def closed_loop(dep, client: Client, seconds: float, rec=None) -> Window:
    """Run transactions back to back for ``seconds``; ``rec`` records the
    client-boundary spans of a traced window."""
    begin, model, stream = dep.begin, client.model, client.stream
    perf = time.perf_counter
    latencies, ends, checkpoints = array("d"), array("d"), []
    probes, probe_at = array("d"), array("d")
    attempted = failed = 0
    if rec is not None:
        span = {name: rec.index(f"client.{name}") for name in OP_NAMES}
        span_txn, span_begin, span_commit = (
            rec.index("client.txn"), rec.index("client.begin"), rec.index("client.commit")
        )
    start = now = next_probe = perf()
    deadline = start + seconds
    while now < deadline:
        if now >= next_probe:
            probes.append(probe())
            probe_at.append(now)
            next_probe = now + PROBE_EVERY_S
        ops = next(stream)
        attempted += 1
        written = txn = None
        t0 = perf()
        try:
            if rec is not None:
                client.next_txn_id += 1
                rec.txn_id = client.next_txn_id
                rec.push(span_txn)
                rec.push(span_begin)
            txn = begin(ops[0][1])
            if rec is not None:
                rec.pop()
            for kind, key in ops:
                if rec is not None:
                    rec.push(span[OP_NAMES[kind]])
                if kind == READ:
                    got = txn.read(TABLE, key)
                    version = written.get(key) if written else None
                    if version is None:
                        version = model[key]
                    if got != make_value(key, version):
                        raise _Mismatch(key, version, got)
                else:
                    if written is None:
                        written = {}
                    if kind == UPDATE:
                        version = written.get(key) or model[key]
                        written[key] = version + 1
                        txn.update(TABLE, key, make_value(key, version + 1))
                    else:
                        written[key] = 1
                        txn.insert(TABLE, key, make_value(key, 1))
                if rec is not None:
                    rec.pop()
            if rec is not None:
                rec.push(span_commit)
            txn.commit()
            if rec is not None:
                rec.pop()
                rec.pop()
        except (ReproError, _Mismatch) as exc:
            failed += 1
            if rec is not None:
                rec.unwind()
            _abort_quietly(txn)
            if failed <= 3:
                print(f"transaction failed: {exc!r}", flush=True)
            now = perf()
            continue
        now = perf()
        latencies.append(now - t0)
        ends.append(now)
        if written:
            model.update(written)
        client.commits += 1
        if client.commits % client.checkpoint_every == 0:
            dep.checkpoint()
            done = perf()
            checkpoints.append(done - now)
            now = done
    return Window(start, now - start, latencies, ends, attempted, failed, checkpoints,
                  probes, probe_at)


class _Mismatch(Exception):
    def __init__(self, key, version, got) -> None:
        super().__init__(f"key {key}: expected version {version}, read {got!r}")


def _abort_quietly(txn) -> None:
    if txn is None:
        return
    try:
        txn.abort()
    except ReproError:
        pass


def open_loop(dep, client: Client, seconds: float, rate: float) -> dict:
    """Fixed-rate arrivals from the single client; each transaction is
    timed from when it was due, so a stall charges the ones queued behind it."""
    model, stream, perf = client.model, client.stream, time.perf_counter
    latencies, lateness = [], []
    failed = 0
    start = perf()
    total = int(seconds * rate)
    issued = 0
    while issued < total:
        due = start + issued / rate
        now = perf()
        if now >= start + seconds:
            break
        if now < due:
            time.sleep(due - now)
            now = perf()
        lateness.append(now - due)
        issued += 1
        kind, key = next(stream)[0]
        try:
            txn = dep.begin(key)
            if kind == READ:
                if txn.read(TABLE, key) != make_value(key, model[key]):
                    failed += 1
            else:
                txn.update(TABLE, key, make_value(key, model[key] + 1))
            txn.commit()
        except ReproError:
            failed += 1
            continue
        if kind == UPDATE:
            model[key] += 1
        latencies.append(perf() - due)
    elapsed = perf() - start
    p50, p99 = np.percentile(latencies, [50, 99]) if latencies else (0.0, 0.0)
    return {
        "p50_ms": float(p50) * 1e3,
        "p99_ms": float(p99) * 1e3,
        "late_ms": statistics.fmean(lateness) * 1e3 if lateness else 0.0,
        "backlog": max(0, min(total, int(elapsed * rate)) - issued),
        "attempted": issued,
        "failed": failed,
    }


def verify(dep, client: Client, workload, seed: int) -> tuple[int, int]:
    """Read back what the model says was committed: every hot key (or a
    2,000-key seeded sample of them) plus a sample of inserted keys.
    Returns (keys checked, mismatches)."""
    rng = np.random.default_rng([seed, 7])
    hot = np.arange(workload.keys)
    if workload.keys > 2_000:
        hot = rng.choice(hot, size=2_000, replace=False)
    fresh = [key for key in client.model if key >= FRESH_BASE]
    if len(fresh) > 500:
        fresh = rng.choice(np.array(fresh), size=500, replace=False)
    keys = [int(k) for k in hot] + [int(k) for k in fresh]
    mismatches = 0
    for lo in range(0, len(keys), 100):
        chunk = keys[lo : lo + 100]
        try:
            txn = dep.begin(chunk[0])
            for key in chunk:
                if txn.read(TABLE, key) != make_value(key, client.model[key]):
                    mismatches += 1
            txn.commit()
        except ReproError as exc:
            print(f"verification read failed: {exc!r}", flush=True)
            mismatches += len(chunk)
    return len(keys), mismatches


# -- process accounting, from outside ----------------------------------------


def cpu_seconds(pid: int) -> float:
    """utime + stime of a process (all its threads), from /proc."""
    with open(f"/proc/{pid}/stat") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/statm") as statm:
        return int(statm.read().split()[1]) * _PAGE / 1e6
