"""The observability subsystem: spans, histograms, export, fault behavior.

Tier-1 coverage for :mod:`repro.obs` plus the two fault-interaction
properties the subsystem exists for:

- a dropped request's resend shows up as a *sibling retry span* under the
  same transaction root (the lost send tagged ``lost``, the retry tagged
  ``resend``), because the op id carries the trace context across retries;
- spans close cleanly across a DC crash + supervisor-driven restart: every
  collected span is finished, the crashed operation's spans carry error
  tags instead of dangling, and the redo stream gets its own trace.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.common.config import DcConfig, KernelConfig, TcConfig
from repro.common.errors import ReproError
from repro.common.ops import ReadFlavor
from repro.kernel.monolithic import MonolithicEngine
from repro.kernel.unbundled import UnbundledKernel
from repro.obs import (
    Histogram,
    NULL_SPAN,
    NULL_TRACER,
    Tracer,
    chrome_trace,
    latency_breakdown,
    percentile_block,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.sim.faults import FaultAction, FaultInjector, FaultPoint, FaultRule
from repro.sim.supervisor import Supervisor
from repro.workloads.ycsb import YcsbConfig, YcsbWorkload


class TestHistogram:
    def test_percentiles_bounded_relative_error(self):
        hist = Histogram()
        for value in range(1, 1001):
            hist.observe(float(value))
        for q, expected in ((0.50, 500), (0.95, 950), (0.99, 990)):
            assert abs(hist.percentile(q) - expected) / expected < 0.10

    def test_zero_and_negative_values_land_in_zero_bucket(self):
        hist = Histogram()
        hist.observe(0.0)
        hist.observe(-3.0)
        hist.observe(8.0)
        assert hist.count == 3
        assert hist.percentile(0.01) == 0.0

    def test_merge_equals_combined_observation(self):
        a, b = Histogram(), Histogram()
        for value in (1.0, 4.0, 9.0):
            a.observe(value)
        for value in (16.0, 25.0):
            b.observe(value)
        a.merge(b)
        assert a.count == 5
        assert a.percentile(1.0) == pytest.approx(25.0, rel=0.10)

    def test_empty_percentile_is_zero(self):
        assert Histogram().percentile(0.5) == 0.0

    def test_bucket_bounds_are_log_spaced(self):
        hist = Histogram()
        hist.observe(100.0)
        ((low, high, count),) = hist.nonempty_buckets()
        assert count == 1
        assert low <= 100.0 <= high
        assert math.log2(high / low) == pytest.approx(1 / 8, rel=1e-6)


class TestTracer:
    def test_nesting_follows_thread_stack(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
                assert inner.trace_id == outer.trace_id
        spans = tracer.finished_spans()
        assert [span.name for span in spans] == ["inner", "outer"]
        assert all(span.finished for span in spans)

    def test_exception_tags_error_and_still_finishes(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("x")
        (span,) = tracer.finished_spans()
        assert span.tags["error"] == "ValueError"
        assert span.finished

    def test_request_id_recovers_context_without_active_span(self):
        tracer = Tracer()
        root = tracer.start_trace("txn")
        with tracer.activate(root):
            tracer.bind_request(41)
        # no active span now: the op id alone reconnects the trace
        with tracer.span("dc.execute", request_id=41) as span:
            assert span.trace_id == root.trace_id
            assert span.tags["via_request_id"] is True
        tracer.release_request(41)
        with tracer.span("dc.execute", request_id=41) as span:
            assert span.trace_id != root.trace_id  # released = fresh root

    def test_descendant_names_is_transitive(self):
        tracer = Tracer()
        root = tracer.start_trace("txn")
        with tracer.activate(root):
            with tracer.span("mid"):
                with tracer.span("leaf"):
                    pass
        root.finish()
        assert tracer.descendant_names(root) == {"mid", "leaf"}

    def test_max_spans_cap_counts_drops(self):
        tracer = Tracer(max_spans=2)
        for _ in range(4):
            with tracer.span("s"):
                pass
        assert len(tracer.finished_spans()) == 2
        assert tracer.dropped == 2

    def test_null_tracer_is_inert(self):
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.start_trace("txn") is NULL_SPAN
        with NULL_TRACER.span("x") as span:
            assert span is NULL_SPAN
        with NULL_TRACER.activate(NULL_SPAN):
            pass
        NULL_SPAN.finish(outcome="committed")  # no-op, no error
        assert NULL_TRACER.finished_spans() == []


class TestExport:
    def _traced_kernel(self):
        tracer = Tracer()
        kernel = UnbundledKernel(tracer=tracer)
        kernel.create_table("t")
        with kernel.begin() as txn:
            txn.insert("t", 1, "a")
        return tracer

    def test_chrome_trace_is_valid_and_complete(self):
        tracer = self._traced_kernel()
        document = chrome_trace(tracer)
        assert validate_chrome_trace(document) == []
        names = {e["name"] for e in document["traceEvents"] if e["ph"] == "X"}
        assert {"txn", "tc.insert", "channel.send", "dc.execute"} <= names
        components = {
            e["args"]["name"]
            for e in document["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert "tc1" in {c for c in components if c.startswith("tc")} or components

    def test_validate_flags_malformed_documents(self):
        assert validate_chrome_trace({}) == ["traceEvents missing or not a list"]
        assert "empty" in validate_chrome_trace({"traceEvents": []})[0]
        bad = {"traceEvents": [{"ph": "X", "name": "s", "pid": 1, "tid": "oops"}]}
        assert any("tid" in problem for problem in validate_chrome_trace(bad))

    def test_breakdown_and_percentile_block(self):
        tracer = self._traced_kernel()
        text = latency_breakdown(tracer)
        assert "dc.execute" in text and "p99_us" in text
        block = percentile_block(tracer)
        assert block["txn"]["count"] >= 1
        assert block["txn"]["p50_us"] > 0

    def test_empty_tracer_exports_cleanly(self):
        tracer = Tracer()
        assert latency_breakdown(tracer) == "(no finished spans)"
        assert validate_chrome_trace(chrome_trace(tracer)) == [
            "traceEvents is empty"
        ]


def build_traced_kernel(injector=None):
    tracer = Tracer()
    config = KernelConfig(tc=TcConfig(group_commit_size=1))
    kernel = UnbundledKernel(config=config, faults=injector, tracer=tracer)
    kernel.create_table("t")
    return tracer, kernel


class TestTracePropagationUnderFaults:
    def test_resend_appears_as_retry_sibling_under_same_root(self):
        injector = FaultInjector()
        tracer, kernel = build_traced_kernel(injector)
        # Arm the drop only now, so table creation traffic is untouched:
        # the next channel send (this txn's insert) is lost once.
        injector.load_schedule(
            [FaultRule(FaultPoint.CHANNEL_SEND, FaultAction.DROP, after=1)]
        )
        with kernel.begin() as txn:
            txn.insert("t", 1, "a")
        roots = [
            span
            for span in tracer.finished_spans()
            if span.name == "txn" and span.tags.get("outcome") == "committed"
        ]
        assert len(roots) == 1
        sends = [
            span
            for span in tracer.traces()[roots[0].trace_id]
            if span.name == "channel.send" and span.tags.get("kind") == "PerformOperation"
        ]
        inserts = [s for s in sends if not s.tags.get("resend")]
        retries = [s for s in sends if s.tags.get("resend")]
        assert inserts and retries, "expected a lost send plus a retry span"
        assert inserts[0].tags.get("lost") is True
        # The retry is a sibling: same parent operation, same op id.
        assert retries[0].parent_id == inserts[0].parent_id
        assert retries[0].tags["op_id"] == inserts[0].tags["op_id"]

    def test_spans_close_cleanly_across_dc_crash_and_restart(self):
        injector = FaultInjector()
        tracer, kernel = build_traced_kernel(injector)
        supervisor = Supervisor(injector, kernel.metrics)
        supervisor.watch_kernel(kernel)
        for key in range(4):
            with kernel.begin() as txn:
                txn.insert("t", key, f"v{key}")
        injector.load_schedule(
            [FaultRule(FaultPoint.CHANNEL_SEND, FaultAction.CRASH, after=1)]
        )
        txn = kernel.begin()
        with pytest.raises(ReproError):
            txn.insert("t", 99, "doomed")
            txn.commit()
        try:
            txn.abort()
        except ReproError:
            pass
        supervisor.heal()
        # Post-heal traffic works and is traced end to end.
        with kernel.begin() as verify:
            assert verify.read("t", 0) == "v0"
        spans = tracer.finished_spans()
        assert all(span.finished for span in spans)
        # The doomed transaction's root closed with a terminal outcome...
        dead_roots = [
            s for s in spans if s.name == "txn" and s.tags.get("outcome") == "aborted"
        ]
        assert dead_roots
        # ...its failing operation is error-tagged rather than dangling...
        assert any(
            s.tags.get("error") for s in tracer.traces()[dead_roots[0].trace_id]
        )
        # ...and the restart's redo stream got its own root trace.
        redo_roots = [s for s in spans if s.name == "tc.dc_restart_redo"]
        assert redo_roots
        assert all(
            kernel.tc.read_other("t", key, flavor=ReadFlavor.READ_COMMITTED)
            == f"v{key}"
            for key in range(4)
        )

    def test_mono_engine_traces_commits_for_parity(self):
        tracer = Tracer()
        engine = MonolithicEngine(tracer=tracer)
        engine.create_table("t")
        with engine.begin() as txn:
            txn.insert("t", 1, "a")
        roots = [s for s in tracer.finished_spans() if s.name == "txn"]
        assert roots and roots[0].tags["outcome"] == "committed"
        names = tracer.descendant_names(roots[0])
        assert {"mono.commit", "tc.lock_wait"} <= names
        assert engine.metrics.dist("mono.commit_latency_ms").count == 1


class TestTracedWorkload:
    def test_committed_txn_links_one_span_tree(self, tmp_path):
        """A traced YCSB-A run exports a valid Chrome trace, and some
        committed transaction's root span links its lock waits, log forces,
        channel sends and DC execution in one tree."""
        tracer = Tracer()
        kernel = UnbundledKernel(
            KernelConfig(dc=DcConfig(page_size=1024)), tracer=tracer
        )
        kernel.create_table("usertable")
        workload = YcsbWorkload(
            kernel.begin, config=YcsbConfig(preset="A", keyspace=300, seed=7)
        )
        workload.load()
        assert workload.run(200).committed > 0

        path = write_chrome_trace(tmp_path / "TRACE_ycsb.json", tracer)
        problems = validate_chrome_trace(json.loads(path.read_text()))
        assert not problems, problems

        committed_roots = [
            span
            for span in tracer.finished_spans()
            if span.name == "txn" and span.tags.get("outcome") == "committed"
        ]
        assert committed_roots
        required = {"tc.lock_wait", "tc.log_force", "channel.send", "dc.execute"}
        assert any(
            required <= tracer.descendant_names(root) for root in committed_roots
        ), "no committed transaction trace contains all required child spans"

        latency = kernel.metrics.snapshot()["distributions"]["tc.commit_latency_ms"]
        assert latency["p50"] is not None
        assert latency["p95"] is not None
        assert latency["p99"] is not None
