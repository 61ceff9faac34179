"""Causal tracing across the TC/DC boundary.

The interaction contracts already force every TC -> DC operation to carry a
*unique request id* (the TC-log LSN): it is what makes resends idempotent,
redo exactly-once and causality checkable.  A unique id per operation *is*
a distributed-tracing context, so this module makes the latent structure
visible: one :class:`Span` tree per transaction, linking lock waits, log
forces, channel sends (resends become sibling retry spans), DC-side
execution, system-transaction splits and buffer/disk I/O.

Design points:

- **Thread-local activation.**  Components never pass span handles around;
  a span entered via ``tracer.span(...)`` (or re-entered via
  ``tracer.activate(root)``) becomes the implicit parent for anything the
  same thread starts beneath it — which, in an in-process kernel whose
  channel delivers synchronously, is exactly the causal order.
- **Request ids double as trace context.**  ``bind_request(op_id, span)``
  publishes the sending span under its operation id; a DC executing with
  no active span (a redo replay after its restart, say) recovers the
  original transaction's context from the id alone — the piggybacking the
  paper's contracts made free.
- **Zero overhead when off.**  Every component holds a tracer reference
  defaulting to the singleton :data:`NULL_TRACER`, whose ``span``/
  ``activate`` return one shared no-op context manager: tracing disabled
  costs one attribute lookup and one method call per site, no allocation.

Spans always close: ``tracer.span(...)`` finishes its span in a
``finally`` and tags the exception type on the way out, so crashed
operations leave error-tagged spans, never dangling ones.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Optional

from repro.obs.hist import Histogram


def _now_us() -> float:
    return time.perf_counter_ns() / 1_000.0


class Span:
    """One timed, tagged node in a trace tree."""

    __slots__ = (
        "name",
        "component",
        "trace_id",
        "span_id",
        "parent_id",
        "start_us",
        "duration_us",
        "tags",
        "_tracer",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        component: str,
        trace_id: int,
        span_id: int,
        parent_id: Optional[int],
        tags: dict,
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.component = component
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_us = _now_us()
        self.duration_us: Optional[float] = None  # None = still open
        self.tags = tags

    @property
    def finished(self) -> bool:
        return self.duration_us is not None

    def finish(self, **tags: object) -> None:
        """Close the span (idempotent) and hand it to the tracer."""
        if self.duration_us is not None:
            return
        self.duration_us = _now_us() - self.start_us
        if tags:
            self.tags.update(tags)
        self._tracer._record(self)

    def __repr__(self) -> str:
        state = f"{self.duration_us:.1f}us" if self.finished else "open"
        return (
            f"Span({self.name!r}, trace={self.trace_id}, id={self.span_id}, "
            f"parent={self.parent_id}, {state})"
        )


class _SpanScope:
    """Context manager pushing a span on the thread stack; finishes on exit."""

    __slots__ = ("_tracer", "_span", "_finish")

    def __init__(self, tracer: "Tracer", span: Span, finish: bool) -> None:
        self._tracer = tracer
        self._span = span
        self._finish = finish

    def __enter__(self) -> Span:
        self._tracer._stack().append(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        stack = self._tracer._stack()
        if stack and stack[-1] is self._span:
            stack.pop()
        else:  # pragma: no cover - defensive: unbalanced enter/exit
            try:
                stack.remove(self._span)
            except ValueError:
                pass
        if self._finish:
            if exc_type is not None:
                self._span.tags.setdefault("error", exc_type.__name__)
            self._span.finish()
        return False


class Tracer:
    """Collects finished spans; grouping and export live in
    :mod:`repro.obs.export`.

    Thread-safe: the finished-span list and the request registry are
    guarded; the activation stack is thread-local by construction.
    """

    enabled = True

    def __init__(self, max_spans: int = 1_000_000) -> None:
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._spans: list[Span] = []
        self._local = threading.local()
        #: op_id -> (trace_id, span_id) of the span that sent the request.
        self._requests: dict[object, tuple[int, int]] = {}
        self.max_spans = max_spans
        self.dropped = 0

    # -- span creation -----------------------------------------------------

    def start_trace(self, name: str, component: str = "tc", **tags: object) -> Span:
        """A new root span (a fresh trace).  Not activated and not finished
        automatically — the caller owns its lifetime (transaction roots
        span many calls)."""
        span_id = next(self._ids)
        return Span(self, name, component, span_id, span_id, None, tags)

    def span(
        self,
        name: str,
        component: str = "",
        parent: Optional[Span] = None,
        request_id: object = None,
        **tags: object,
    ) -> _SpanScope:
        """A child span as a context manager: parented to ``parent``, else
        to the thread's active span, else to the trace registered under
        ``request_id``, else a fresh root.  Finished (and error-tagged) on
        exit, even when the body raises."""
        if parent is None:
            parent = self.current()
        if parent is not None:
            trace_id, parent_id = parent.trace_id, parent.span_id
        else:
            context = self._requests.get(request_id) if request_id is not None else None
            if context is not None:
                trace_id, parent_id = context
                tags.setdefault("via_request_id", True)
            else:
                trace_id, parent_id = 0, None  # patched to own id below
        span_id = next(self._ids)
        if parent_id is None and trace_id == 0:
            trace_id = span_id
        return _SpanScope(
            self, Span(self, name, component, trace_id, span_id, parent_id, tags), True
        )

    def activate(self, span: Optional[Span]) -> "_SpanScope | _NullSpan":
        """Re-enter an existing span (a transaction root) as the thread's
        current parent without finishing it on exit."""
        if span is None or not isinstance(span, Span):
            return NULL_SPAN
        return _SpanScope(self, span, False)

    # -- request-id piggybacking ------------------------------------------

    def bind_request(self, op_id: object, span: Optional[Span] = None) -> None:
        """Publish the trace context reachable through ``op_id``."""
        if span is None:
            span = self.current()
        if span is None or not isinstance(span, Span):
            return
        with self._lock:
            self._requests[op_id] = (span.trace_id, span.span_id)

    def release_request(self, op_id: object) -> None:
        """Forget a completed operation's context (bounds the registry)."""
        with self._lock:
            self._requests.pop(op_id, None)

    # -- activation stack --------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def current(self) -> Optional[Span]:
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    # -- collection --------------------------------------------------------

    def _record(self, span: Span) -> None:
        with self._lock:
            if len(self._spans) >= self.max_spans:
                self.dropped += 1
                return
            self._spans.append(span)

    def finished_spans(self) -> list[Span]:
        with self._lock:
            return list(self._spans)

    def traces(self) -> dict[int, list[Span]]:
        """Finished spans grouped by trace id, each group in start order."""
        grouped: dict[int, list[Span]] = {}
        for span in self.finished_spans():
            grouped.setdefault(span.trace_id, []).append(span)
        for spans in grouped.values():
            spans.sort(key=lambda s: s.start_us)
        return grouped

    def span_tree(self, trace_id: int) -> dict[Optional[int], list[Span]]:
        """``parent_id -> children`` for one trace (roots under ``None``)."""
        tree: dict[Optional[int], list[Span]] = {}
        for span in self.traces().get(trace_id, []):
            tree.setdefault(span.parent_id, []).append(span)
        return tree

    def descendant_names(self, root: Span) -> set[str]:
        """Names of every finished span in ``root``'s subtree (root excluded)."""
        tree = self.span_tree(root.trace_id)
        names: set[str] = set()
        frontier = [root.span_id]
        while frontier:
            parent = frontier.pop()
            for child in tree.get(parent, []):
                names.add(child.name)
                frontier.append(child.span_id)
        return names

    def duration_histograms(self) -> dict[str, Histogram]:
        """Per-span-name latency histograms (microseconds)."""
        result: dict[str, Histogram] = {}
        for span in self.finished_spans():
            result.setdefault(span.name, Histogram()).observe(span.duration_us or 0.0)
        return result

    def reset(self) -> None:
        with self._lock:
            self._spans.clear()
            self._requests.clear()
            self.dropped = 0


class _NullSpan:
    """Shared no-op standing in for Span, its scope, and the tracer's
    context managers.  Every method is a no-op; every use is reentrant."""

    __slots__ = ()

    name = ""
    component = ""
    trace_id = 0
    span_id = 0
    parent_id = None
    start_us = 0.0
    duration_us = 0.0
    tags: dict = {}
    finished = True

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def finish(self, **tags: object) -> None:
        pass

    def __repr__(self) -> str:
        return "<NULL_SPAN>"


NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: same surface as :class:`Tracer`, zero work.

    All components default to the shared :data:`NULL_TRACER`, so every
    instrumentation site is unconditional — no ``if tracing:`` branches —
    yet a disabled run allocates nothing per operation.
    """

    enabled = False
    dropped = 0
    max_spans = 0

    def start_trace(self, name: str, component: str = "", **tags: object) -> _NullSpan:
        return NULL_SPAN

    def span(self, name: str, component: str = "", **tags: object) -> _NullSpan:
        return NULL_SPAN

    def activate(self, span: object) -> _NullSpan:
        return NULL_SPAN

    def bind_request(self, op_id: object, span: object = None) -> None:
        pass

    def release_request(self, op_id: object) -> None:
        pass

    def current(self) -> None:
        return None

    def finished_spans(self) -> list:
        return []

    def traces(self) -> dict:
        return {}

    def duration_histograms(self) -> dict:
        return {}

    def reset(self) -> None:
        pass


NULL_TRACER = NullTracer()
