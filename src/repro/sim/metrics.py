"""Lightweight metrics used by every component and every experiment.

Counters record how often things happen (messages, locks, flushes,
resends); observations record value distributions (log-record bytes, abLSN
set sizes, redo batch lengths).  All methods are thread-safe — the kernel
is multi-threaded by design (Section 1.2).
"""

from __future__ import annotations

import threading
from collections import defaultdict, deque
from dataclasses import dataclass, field

from repro.obs.hist import Histogram

#: The event-loop server core's counter family (net/eventloop.py).  The
#: DC/TC servers fold these into their ``StatsRequest`` payloads and the
#: transport benchmarks record them in repro-bench/v2 snapshots, so the
#: single-threaded server core is observable end to end:
#:
#: - ``eventloop.connections_open``   currently adopted connections (the
#:   +1/-1 pair makes this a live gauge in counter clothing);
#: - ``eventloop.connections_total``  lifetime adopted connections;
#: - ``eventloop.frames_deferred``    sends that parked bytes in a peer's
#:   out-buffer because the fd would block (write interest engaged);
#: - ``eventloop.wakeups``            poll returns.
EVENTLOOP_COUNTERS = (
    "eventloop.connections_open",
    "eventloop.connections_total",
    "eventloop.frames_deferred",
    "eventloop.wakeups",
)


@dataclass
class Distribution:
    """Summary of observed values: count / total / min / max / percentiles.

    Percentiles come from a fixed-bucket log-scale :class:`Histogram`
    (see :mod:`repro.obs.hist`), so tails are real measurements, not
    mean-plus-hope.
    """

    count: int = 0
    total: float = 0.0
    minimum: float = float("inf")
    maximum: float = float("-inf")
    hist: Histogram = field(default_factory=Histogram, repr=False, compare=False)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        self.hist.observe(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        return self.hist.percentile(q)

    def merge(self, other: "Distribution") -> "Distribution":
        """Fold ``other``'s observations into ``self``."""
        self.count += other.count
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        self.hist.merge(other.hist)
        return self

    def summary(self) -> dict[str, object]:
        """The snapshot row: plain built-ins, JSON-serializable as-is."""
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.minimum if self.count else None,
            "max": self.maximum if self.count else None,
            "p50": self.percentile(0.50) if self.count else None,
            "p95": self.percentile(0.95) if self.count else None,
            "p99": self.percentile(0.99) if self.count else None,
        }


class CounterSlot:
    """A pre-bound, lock-free counter for per-operation hot paths.

    ``slot.value += 1`` (or :meth:`incr`) is a single attribute update —
    no dict lookup, no lock acquisition.  Like :meth:`Metrics.buffer`, it
    relies on the GIL making the read-modify-write effectively atomic for
    our workloads; slot totals fold into the owning :class:`Metrics`
    whenever any reader runs, so ``metrics.get(name)`` always sees the sum
    of locked increments and slot increments under one name.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def incr(self, amount: int = 1) -> None:
        self.value += amount


class Metrics:
    """A named bag of counters and distributions.

    A single :class:`Metrics` instance is threaded through TC, DC, channel
    and buffer pool so an experiment reads one object at the end.  Create a
    fresh instance per experiment run.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, int] = defaultdict(int)
        self._distributions: dict[str, Distribution] = defaultdict(Distribution)
        self._buffers: dict[str, deque] = {}
        self._slots: dict[str, CounterSlot] = {}

    def incr(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counters[name] += amount

    def counter(self, name: str) -> CounterSlot:
        """A cached :class:`CounterSlot` for ``name`` (hot-path counters).

        Callers bind the slot once at construction and bump
        ``slot.value`` per event; readers fold every slot's value into the
        named counter, so mixing ``incr(name)`` and a slot is safe.
        """
        with self._lock:
            slot = self._slots.get(name)
            if slot is None:
                slot = self._slots[name] = CounterSlot()
            return slot

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            self._distributions[name].observe(value)

    def buffer(self, name: str) -> deque:
        """A lock-free sink for per-transaction hot-path observations.

        ``deque.append`` is atomic under the GIL, an order of magnitude
        cheaper than :meth:`observe` (no lock, no histogram math).  Buffered
        values fold into the named distribution lazily, whenever any reader
        (:meth:`dist`, :meth:`snapshot`, :meth:`merged_with`) runs.  Callers
        cache the returned deque and append raw values to it.
        """
        with self._lock:
            return self._buffers.setdefault(name, deque())

    def _drain(self) -> None:
        """Fold buffered observations into distributions (lock held)."""
        for name, buf in self._buffers.items():
            dist = self._distributions[name]
            while True:
                try:
                    value = buf.popleft()
                except IndexError:
                    break
                dist.observe(value)

    def _folded_counters(self) -> dict[str, int]:
        """Counters plus slot totals, zero-valued names dropped (lock held)."""
        counters = dict(self._counters)
        for name, slot in self._slots.items():
            if slot.value:
                counters[name] = counters.get(name, 0) + slot.value
        return counters

    def get(self, name: str) -> int:
        with self._lock:
            value = self._counters.get(name, 0)
            slot = self._slots.get(name)
            if slot is not None:
                value += slot.value
            return value

    def dist(self, name: str) -> Distribution:
        with self._lock:
            self._drain()
            return self._distributions.get(name, Distribution())

    def counters(self) -> dict[str, int]:
        with self._lock:
            return self._folded_counters()

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._distributions.clear()
            for buf in self._buffers.values():
                buf.clear()
            for slot in self._slots.values():
                slot.value = 0

    def merged_with(self, other: "Metrics") -> dict[str, object]:
        """A snapshot-shaped dict of both objects' data combined.

        Counters add; distributions merge count/total/min/max *and* their
        histograms, so multi-component experiments keep full observation
        data (this used to drop distributions entirely).
        """
        merged = Metrics()
        for source in (self, other):
            with source._lock:
                source._drain()
                counters = source._folded_counters()
                distributions = {
                    name: (dist.count, dist.total, dist.minimum, dist.maximum, dist.hist.snapshot())
                    for name, dist in source._distributions.items()
                }
            for name, value in counters.items():
                merged._counters[name] += value
            for name, (count, total, minimum, maximum, hist) in distributions.items():
                target = merged._distributions[name]
                target.count += count
                target.total += total
                target.minimum = min(target.minimum, minimum)
                target.maximum = max(target.maximum, maximum)
                target.hist.merge(hist)
        return merged.snapshot()

    def snapshot(self) -> dict[str, object]:
        """A point-in-time copy of everything: counters plus distribution
        summaries (with p50/p95/p99), as plain built-in types
        (JSON-serializable as-is)."""
        with self._lock:
            self._drain()
            return {
                "counters": dict(sorted(self._folded_counters().items())),
                "distributions": {
                    name: dist.summary()
                    for name, dist in sorted(self._distributions.items())
                },
            }

    def __repr__(self) -> str:
        items = ", ".join(f"{k}={v}" for k, v in sorted(self.counters().items()))
        return f"Metrics({items})"
