"""Spans recorded from outside the program.

The benchmark wraps bound methods of objects it holds (instance
attributes shadow the class methods, so ``src/`` is untouched and the
wrap is removed again after the traced window).  Each span has a name,
start, end, parent and the transaction it ran under; a layer's self time
is its spans' duration minus the part child spans cover.

Only the client's main thread records: the load is one closed-loop
thread, and transport helper threads would interleave unrelated stacks.
``repro.obs.Tracer`` is deliberately not used — enabling it rebinds the
program's hot sites to different bodies.
"""

from __future__ import annotations

import json
import statistics
import sys
import threading
import time
from array import array


def shadow(obj: object, attr: str, replacement) -> tuple:
    """Set ``obj.attr`` as an instance attribute; returns what ``restore``
    needs to put the object back exactly as it was."""
    had = attr in getattr(obj, "__dict__", {})
    original = getattr(obj, attr)
    setattr(obj, attr, replacement)
    return obj, attr, had, original


def restore(obj: object, attr: str, had: bool, original) -> None:
    if had:
        setattr(obj, attr, original)
    else:
        delattr(obj, attr)


class SpanRecorder:
    #: Full span records kept for the trace file; aggregates cover all spans.
    KEEP_SPANS = 40_000

    def __init__(self) -> None:
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.count: list[int] = []
        self.total: list[float] = []
        self.self_total: list[float] = []
        self.durations: list[array] = []
        self.raw: list[tuple] = []
        self.missing: list[str] = []
        self.txn_id = 0
        self._stack: list[list] = []
        self._next_span = 0
        self._restore: list[tuple] = []
        self._thread = threading.get_ident()

    def index(self, name: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self.names)
            self.names.append(name)
            self.count.append(0)
            self.total.append(0.0)
            self.self_total.append(0.0)
            self.durations.append(array("d"))
        return idx

    # -- explicit spans (the driver's own client.* boundaries) --------------

    def push(self, idx: int) -> None:
        self._stack.append([idx, 0.0, self._next_span, time.perf_counter()])
        self._next_span += 1

    def pop(self) -> None:
        end = time.perf_counter()
        idx, covered, span_no, start = self._stack.pop()
        self._close(idx, span_no, start, end, covered)

    def _close(self, idx: int, span_no: int, start: float, end: float, covered: float) -> None:
        duration = end - start
        self.count[idx] += 1
        self.total[idx] += duration
        self.self_total[idx] += duration - covered
        self.durations[idx].append(duration)
        stack = self._stack
        parent = -1
        if stack:
            stack[-1][1] += duration
            parent = stack[-1][2]
        if len(self.raw) < self.KEEP_SPANS:
            self.raw.append((span_no, idx, start, end, parent, self.txn_id))

    def unwind(self) -> None:
        """Close whatever a failed transaction left open."""
        while self._stack:
            self.pop()

    # -- wrapping -------------------------------------------------------------

    def wrap(self, obj: object, attr: str, name) -> None:
        """Shadow ``obj.attr`` with a recording wrapper.

        ``name`` is a span name or a callable ``args -> span name``.  A
        target that no longer exists is noted, not fatal: the layer's
        metrics then read 0 and the run says which wrap was skipped.
        """
        label = name if isinstance(name, str) else name(())
        fn = getattr(obj, attr, None) if obj is not None else None
        if fn is None:
            self.missing.append(f"{label} ({type(obj).__name__}.{attr})")
            return
        fixed = self.index(name) if isinstance(name, str) else None
        index, stack, perf = self.index, self._stack, time.perf_counter
        close, ident, thread = self._close, threading.get_ident, self._thread
        recorder = self

        def traced(*args, **kwargs):
            if ident() != thread:
                return fn(*args, **kwargs)
            idx = fixed if fixed is not None else index(name(args))
            span_no = recorder._next_span
            recorder._next_span = span_no + 1
            frame = [idx, 0.0, span_no]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                close(idx, span_no, start, end, frame[1])

        try:
            self._restore.append(shadow(obj, attr, traced))
        except AttributeError:
            self.missing.append(f"{label} ({type(obj).__name__}.{attr} is read-only)")

    def unwrap_all(self) -> None:
        for saved in reversed(self._restore):
            restore(*saved)
        self._restore.clear()
        for label in self.missing:
            print(f"trace: no span for {label}", file=sys.stderr)

    # -- results --------------------------------------------------------------

    def _idx(self, name: str):
        return self._index.get(name)

    def calls(self, name: str) -> int:
        idx = self._idx(name)
        return self.count[idx] if idx is not None else 0

    def total_s(self, name: str) -> float:
        idx = self._idx(name)
        return self.total[idx] if idx is not None else 0.0

    def self_s(self, name: str) -> float:
        idx = self._idx(name)
        return self.self_total[idx] if idx is not None else 0.0

    def median_us(self, name: str) -> float:
        idx = self._idx(name)
        if idx is None or not self.durations[idx]:
            return 0.0
        return statistics.median(self.durations[idx]) * 1e6

    def mean_us(self, name: str) -> float:
        calls = self.calls(name)
        return self.total_s(name) / calls * 1e6 if calls else 0.0

    def mean_self_us(self, name: str) -> float:
        calls = self.calls(name)
        return self.self_s(name) / calls * 1e6 if calls else 0.0

    def summary(self) -> dict:
        return {
            name: {
                "calls": self.count[idx],
                "total_s": self.total[idx],
                "self_s": self.self_total[idx],
                "median_us": self.median_us(name),
            }
            for name, idx in sorted(self._index.items())
        }

    def write(self, path: str, meta: dict) -> None:
        spans = [
            {
                "id": span_no,
                "name": self.names[idx],
                "start_s": start,
                "end_s": end,
                "parent": parent,
                "txn": txn,
            }
            for span_no, idx, start, end, parent, txn in self.raw
        ]
        with open(path, "w") as out:
            json.dump(
                {
                    **meta,
                    "spans_recorded": self._next_span,
                    "spans_kept": len(spans),
                    "by_name": self.summary(),
                    "spans": spans,
                },
                out,
            )
