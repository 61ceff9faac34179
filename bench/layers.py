"""Layer microbenchmarks, per-layer metrics and the latency budget.

Layers are the program's modules.  Three sources feed a layer's numbers:
spans of the traced window (T), program counters divided by committed
transactions (C), and the microbenchmarks below (M), which call one
layer's public functions in the benchmark process.
"""

from __future__ import annotations

import os
import socket
import statistics
import struct
import threading
import time

from repro.common.api import BatchedPerform
from repro.common.config import DcConfig, KernelConfig
from repro.kernel.monolithic import MonolithicEngine
from repro.kernel.unbundled import UnbundledKernel
from repro.net import rpc, wire
from repro.net.eventloop import EventLoop
from repro.net.journal import JournalStorage

from deploy import TABLE, load_table
from driver import Client, closed_loop
from workloads import WORKLOADS, load_order, make_value, txn_stream

CALLS = 2_000
WARMUP_CALLS = 300
_FRAME_LEN = struct.Struct("!i")


def median_us(fn, calls: int = CALLS, warmup: int = WARMUP_CALLS) -> float:
    """Median wall time of ``fn()`` in microseconds, after a warm-up."""
    for _ in range(warmup):
        fn()
    perf = time.perf_counter
    samples = []
    for _ in range(calls):
        start = perf()
        fn()
        samples.append(perf() - start)
    return statistics.median(samples) * 1e6


# -- net.wire / net.rpc ------------------------------------------------------


class Capture:
    """First request/reply pairs seen on a cross-process call boundary,
    kept so the codec is timed on the workload's own messages."""

    LIMIT = 400

    def __init__(self) -> None:
        self.pairs: list[tuple] = []

    def tap(self, fn):
        def tapped(message, *args, **kwargs):
            reply = fn(message, *args, **kwargs)
            if len(self.pairs) < self.LIMIT and reply is not None:
                self.pairs.append((message, reply))
            return reply

        return tapped

    def pick(self, batch: bool):
        """A small pair (prefer a read: its reply carries the 100-byte
        value) or the first 3-op ``BatchedPerform`` pair (else any batch)."""
        if batch:
            batches = [p for p in self.pairs if isinstance(p[0], BatchedPerform)]
            three = [p for p in batches if len(p[0].ops) == 3]
            return (three or batches or [None])[0]
        small = [p for p in self.pairs if not isinstance(p[0], BatchedPerform)]
        reads = [
            p
            for p in small
            if "Read" in type(getattr(p[0], "op", p[0])).__name__
        ]
        return (reads or small or [None])[0]


def _codec_roundtrip(pair, fast: dict):
    request, reply = pair
    scratch = bytearray()

    def roundtrip():
        rpc.unpack_frame(rpc.pack_frame(rpc.REQUEST, 77, request, fast, scratch))
        rpc.unpack_frame(rpc.pack_frame(rpc.REPLY, 77, reply, fast, scratch))

    size = len(rpc.pack_frame(rpc.REQUEST, 77, request, fast)) + len(
        rpc.pack_frame(rpc.REPLY, 77, reply, fast)
    )
    return roundtrip, size


def wire_micro(capture: Capture) -> dict:
    """Encode + decode of one RPC's request and reply (both directions)."""
    fast = wire.negotiate(wire.fast_vocabulary())
    out = {
        "net.wire.fast_roundtrip_small_us": 0.0,
        "net.wire.tagged_roundtrip_small_us": 0.0,
        "net.wire.frame_bytes_small": 0.0,
        "net.wire.fast_roundtrip_batch_us": 0.0,
        "net.wire.frame_bytes_batch": 0.0,
    }
    small, batch = capture.pick(batch=False), capture.pick(batch=True)
    if small is not None:
        fn, size = _codec_roundtrip(small, fast)
        out["net.wire.fast_roundtrip_small_us"] = median_us(fn)
        out["net.wire.frame_bytes_small"] = float(size)
        out["net.wire.tagged_roundtrip_small_us"] = median_us(
            _codec_roundtrip(small, {})[0]
        )
    if batch is not None:
        fn, size = _codec_roundtrip(batch, fast)
        out["net.wire.fast_roundtrip_batch_us"] = median_us(fn)
        out["net.wire.frame_bytes_batch"] = float(size)
    out["net.rpc.pack_unpack_us"] = median_us(
        lambda: rpc.unpack_frame(rpc.pack_frame(rpc.REQUEST, 77, None, fast))
    )
    return out


# -- net.eventloop -----------------------------------------------------------


def eventloop_echo_us() -> float:
    """A bare ``EventLoop`` echoing one small frame over a Unix socket
    pair: the syscall + selector floor under every server round trip."""
    loop = EventLoop()
    server, client = socket.socketpair()
    loop.adopt(server, lambda peer, data: peer.send_frame(bytes(data)))
    thread = threading.Thread(target=loop.run, name="bench-echo", daemon=True)
    thread.start()
    frame = _FRAME_LEN.pack(16) + b"x" * 16

    def echo():
        client.sendall(frame)
        need = len(frame)
        while need:
            need -= len(client.recv(need))

    try:
        return median_us(echo)
    finally:
        loop.call_soon(loop.stop)
        thread.join(5.0)
        loop.close()
        client.close()


# -- storage.buffer / net.journal ---------------------------------------------


def storage_micro(work_dir: str) -> dict:
    """Evicted-page ``BufferPool.fetch`` and ``JournalStorage.write_page``.

    A private in-process kernel is loaded past its 256-page pool; cycling
    over all of its stable pages in id order makes every fetch a miss
    (sequential flooding of an LRU).  One of those 4 KiB page images is
    then appended to a journal file (flush-only, as shipped)."""
    kernel = UnbundledKernel(KernelConfig(dc=DcConfig()))
    kernel.create_table(TABLE)
    load_table(lambda key: kernel.begin(), list(range(6_000)), lambda key: make_value(key, 1))
    kernel.checkpoint()
    dc = kernel.dc
    dc.checkpoint_dc_log()
    page_ids = sorted(dc.storage.page_ids())
    position = [0]

    def fetch_miss():
        page_id = page_ids[position[0] % len(page_ids)]
        position[0] += 1
        with dc.buffer.operation():
            dc.buffer.fetch(page_id)

    misses_before = kernel.metrics.get("buffer.misses")
    fetch_us = median_us(fetch_miss)
    missed = kernel.metrics.get("buffer.misses") - misses_before
    if missed < (CALLS + WARMUP_CALLS) * 0.9:
        print(f"storage.buffer.fetch_miss_us: only {missed} of "
              f"{CALLS + WARMUP_CALLS} fetches missed")
    images = [dc.storage.read_page(pid) for pid in page_ids]
    image = max(images, key=lambda im: im.encoded_size())
    journal_path = os.path.join(work_dir, "micro.journal")
    journal = JournalStorage(journal_path)
    try:
        append_us = median_us(lambda: journal.write_page(image))
    finally:
        journal.close()
        os.unlink(journal_path)
    return {
        "storage.buffer.fetch_miss_us": fetch_us,
        "net.journal.append_us": append_us,
    }


# -- kernel.monolithic --------------------------------------------------------


def monolithic_txn_per_s(seed: int, seconds: float) -> float:
    """The ``oltp_inproc_hot`` stream on the integrated engine (FIG1's
    reference point; no checkpoints, the run is short)."""
    workload = WORKLOADS["oltp_inproc_hot"]
    engine = MonolithicEngine(DcConfig())
    engine.create_table(TABLE)

    class _Mono:
        begin = staticmethod(lambda key: engine.begin())
        checkpoint = staticmethod(engine.checkpoint)

    client = Client(txn_stream(workload, seed), checkpoint_every=1 << 60)
    order = load_order(workload)
    load_table(_Mono.begin, order, lambda key: make_value(key, 1))
    client.model = dict.fromkeys(order, 1)
    closed_loop(_Mono, client, min(1.0, seconds / 3))
    window = closed_loop(_Mono, client, seconds)
    if window.failed:
        print(f"kernel.monolithic: {window.failed} transactions failed")
    return window.committed / window.wall_s


# -- per-layer metrics --------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(ctx) -> dict:
    """Every per-layer metric (BENCHMARK.json ``per_layer``) for one traced
    run.  A metric of a layer the deployment does not have reads 0."""
    w, tw, rec, micro = ctx.untraced, ctx.traced, ctx.recorder, ctx.micro
    kind = ctx.workload.deployment
    counters = ctx.counters
    txns = ctx.counted_txns  # warm-up included: counters span it
    ttx = tw.committed

    def total(name: str) -> float:
        return sum(proc.get(name, 0) for proc in counters.values())

    def per_txn(name: str) -> float:
        return _ratio(total(name), txns)

    def of(role: str, name: str) -> float:
        return counters.get(role, {}).get(name, 0)

    m = {f"client.{op}_p50_us": rec.median_us(f"client.{op}")
         for op in ("begin", "read", "update", "insert", "commit")}
    m["client.txn_p99_ms"] = w.percentile_ms(0.99)
    m["client.txn_per_s_mean"] = w.committed / w.wall_s
    m["client.drift"] = w.drift()
    m["host.probe_us"] = statistics.fmean(list(w.probes) + list(tw.probes)) * 1e6
    stalls = w.checkpoints + tw.checkpoints
    m["client.checkpoint_ms"] = statistics.median(stalls) * 1e3 if stalls else 0.0
    m["client.recover_s"] = ctx.recover_s
    for name, value in ctx.open_loop.items():
        m[f"client.open300_{name}"] = float(value)
    m["failed_share"] = _ratio(ctx.failed, ctx.attempted)

    for role in ("client", "tc", "dc"):
        m[f"proc.{role}_cpu_share"] = _ratio(ctx.cpu_s.get(role, 0.0), ctx.counted_wall_s)
    m["proc.cpu_ms_per_txn"] = _ratio(sum(ctx.cpu_s.values()) * 1e3, txns)
    m["proc.rss_mb"] = ctx.rss_mb

    m["cloud.router.begin_self_us"] = rec.mean_self_us("cloud.router.begin")
    m["cloud.router.redirects"] = total("router.redirects_followed")
    m["net.tcclient.call_rtt_us"] = rec.median_us("net.tcclient.call")
    m["net.tcclient.calls_per_txn"] = _ratio(rec.calls("net.tcclient.call"), ttx)
    m["net.tcserver.noop_rtt_us"] = micro.get("net.tcserver.noop_rtt_us", 0.0)
    m["net.tcserver.wakeups_per_txn"] = _ratio(of("tc", "eventloop.wakeups"), txns)

    in_client_tc = kind != "svc"
    op_spans = ("client.read", "client.update", "client.insert")
    m["tc.op_self_us"] = (
        _ratio(sum(rec.self_s(s) for s in op_spans) * 1e6,
               sum(rec.calls(s) for s in op_spans))
        if in_client_tc else 0.0
    )
    m["tc.commit_self_us"] = rec.mean_self_us("tc.commit")
    m["tc.msgs_per_txn"] = per_txn("channel.requests")
    m["tc.batched_ops_per_batch"] = _ratio(
        total("channel.batched_ops"), total("channel.batches"))
    hits, misses = total("tc.undo_cache_hits"), total("tc.undo_cache_misses")
    m["tc.undo_cache_hit_ratio"] = _ratio(hits, hits + misses)
    m["tc.undo_info_reads_per_txn"] = per_txn("tc.undo_info_reads")
    m["tc.lock_manager.acquire_us"] = rec.mean_us("tc.lock_manager.acquire")
    m["tc.lock_manager.release_all_us"] = rec.mean_us("tc.lock_manager.release_all")
    m["tc.lock_manager.requests_per_txn"] = per_txn("locks.requests")
    m["tc.lock_manager.waits"] = total("locks.waits")
    m["tc.cc.aborts"] = total("tc.aborts") + total("tc.cc_validation_failures")
    m["tc.log.append_us"] = rec.mean_us("tc.log.append")
    m["tc.log.force_us"] = rec.mean_us("tc.log.force")
    m["tc.log.forces_per_txn"] = per_txn("tclog.forces")
    m["tc.log.journal_forces_per_txn"] = per_txn("tclog.journal_forces")
    m["tc.log.bytes_per_txn"] = per_txn("tclog.bytes")

    remote = kind != "inproc"
    m["net.process.rtt_us"] = rec.median_us("net.channel.request:PerformOperation") if remote else 0.0
    m["net.process.batch_rtt_us"] = rec.median_us("net.channel.request:BatchedPerform") if remote else 0.0
    m["net.process.submit_self_us"] = rec.mean_self_us("net.process.submit")
    m["net.process.requests_per_txn"] = per_txn("channel.requests") if remote else 0.0
    m["net.process.timeouts"] = total("remote_dc.request_timeouts") + total(
        "remote_tc.request_timeouts")
    for name in ("net.wire.fast_roundtrip_small_us", "net.wire.fast_roundtrip_batch_us",
                 "net.wire.tagged_roundtrip_small_us", "net.wire.frame_bytes_small",
                 "net.wire.frame_bytes_batch", "net.rpc.pack_unpack_us",
                 "net.eventloop.echo_rtt_us", "storage.buffer.fetch_miss_us",
                 "net.journal.append_us", "kernel.monolithic.txn_per_s"):
        m[name] = micro[name]
    m["net.eventloop.wakeups_per_txn"] = _ratio(of("dc", "eventloop.wakeups"), txns)
    m["net.dcserver.noop_rtt_us"] = micro.get("net.dcserver.noop_rtt_us", 0.0)
    m["net.dcserver.batches_per_txn"] = per_txn("dc.batches_received")

    m["dc.perform_self_us"] = _ratio(
        (rec.self_s("dc.handle") + rec.self_s("dc.perform_operation")) * 1e6,
        ctx.traced_dc_ops)
    m["dc.ops_per_txn"] = per_txn("dc.operations")
    m["dc.duplicate_ops"] = total("dc.duplicate_ops")
    m["dc.log_force_prompts_per_ktxn"] = 1e3 * per_txn("dc.log_force_prompts")
    m["dc.system_txn.splits_per_ktxn"] = 1e3 * per_txn("systxn.split")
    m["storage.btree.lookup_us"] = rec.mean_us("storage.btree.get_record")
    m["storage.btree.inner_visits_per_op"] = _ratio(
        total("btree.inner_visits"), total("dc.operations"))
    hits, misses = total("buffer.hits"), total("buffer.misses")
    m["storage.buffer.hit_ratio"] = _ratio(hits, hits + misses)
    m["storage.buffer.misses_per_txn"] = per_txn("buffer.misses")
    m["storage.buffer.evictions_per_txn"] = per_txn("buffer.evictions")
    m["storage.disk.page_reads_per_txn"] = per_txn("disk.page_reads")
    m["storage.disk.page_writes_per_txn"] = per_txn("disk.page_writes")
    # A DC server exposes the write count but not the encoded sizes.
    m["storage.disk.page_bytes_per_txn"] = (
        per_txn("disk.page_writes") * DcConfig().page_size if remote
        else per_txn("disk.page_bytes"))
    m["net.journal.bytes_per_txn"] = _ratio(journal_appended(counters), txns)
    m["net.journal.frames_per_txn"] = per_txn("journal.frames")
    m["net.journal.compactions"] = total("journal.compactions")
    m["net.journal.fsyncs"] = total("journal.fsyncs")

    budget = latency_budget(ctx, m)
    m["budget.explained_share"] = budget["explained_share"]
    m["budget.unexplained_us"] = budget["unexplained_us"]
    m["trace.overhead_share"] = 1.0 - _ratio(
        tw.normalised()["txn_per_s"], w.normalised()["txn_per_s"])
    ctx.budget = budget
    return m


def journal_appended(counters: dict) -> float:
    """Bytes the DC server appended to its journal: file growth plus what
    compactions reclaimed in between (both exposed by ``stats()``)."""
    dc = counters.get("dc", {})
    return dc.get("journal.size_bytes", 0) + dc.get("journal.compacted_bytes", 0)


def stable_bytes(counters: dict) -> float:
    """TC log + DC stable bytes.  An in-process DC's share is its DC-log
    bytes plus encoded page images; a DC server's share is what it appended
    to its journal, which carries both."""
    total = sum(proc.get("tclog.bytes", 0) for proc in counters.values())
    if "dc" in counters:
        return total + journal_appended(counters)
    client = counters["client"]
    return total + client.get("dclog.bytes", 0) + client.get("disk.page_bytes", 0)


# -- budget -------------------------------------------------------------------

_KERNEL_LAYERS = {
    "client.txn": "client (driver loop)",
    "client.begin": "tc.transactional_component",
    "client.read": "tc.transactional_component",
    "client.update": "tc.transactional_component",
    "client.insert": "tc.transactional_component",
    "client.commit": "tc.transactional_component",
    "tc.begin": "tc.transactional_component",
    "tc.commit": "tc.transactional_component",
}
_SVC_LAYERS = {
    "client.txn": "client (driver loop)",
    "client.begin": "net.tcclient",
    "client.read": "net.tcclient",
    "client.update": "net.tcclient",
    "client.insert": "net.tcclient",
    "client.commit": "net.tcclient",
    "cloud.router.begin": "cloud.router",
}


def _layer_of(span: str, svc: bool) -> str:
    named = (_SVC_LAYERS if svc else _KERNEL_LAYERS).get(span)
    if named:
        return named
    if span.startswith("net.channel.") or span.startswith("net.process."):
        return "net.process / net.channel (client side)"
    if span.startswith("storage.buffer.") or span.startswith("storage.disk."):
        return "storage.buffer + storage.disk"
    if span.startswith("dc."):
        return "dc.data_component"
    return span.rsplit(".", 1)[0]


def latency_budget(ctx, m: dict) -> dict:
    """Where a traced transaction's time went, per transaction.

    In-process spans partition the client's time exactly (self times).
    Time a span spent *waiting on another process* has no spans behind it
    in this PR, so it is explained only up to what the microbenchmarks
    account for: one no-op round trip per call plus the payload codec.
    The rest — server-side work — is the unexplained remainder."""
    rec, ttx = ctx.recorder, ctx.traced.committed
    svc = ctx.workload.deployment == "svc"
    rows: dict[str, list] = {}
    wait_us = 0.0
    round_trips = 0
    for name in rec.names:
        self_us = _ratio(rec.self_s(name) * 1e6, ttx)
        if name in ctx.wait_spans:
            wait_us += self_us
            round_trips += rec.calls(name)
            continue
        row = rows.setdefault(_layer_of(name, svc), [0.0, 0.0])
        row[0] += _ratio(rec.calls(name), ttx)
        row[1] += self_us
    table = [
        (layer, calls, _ratio(us, calls), us) for layer, (calls, us) in sorted(rows.items())
    ]
    if wait_us:
        per_txn = _ratio(round_trips, ttx)
        noop = m["net.tcserver.noop_rtt_us" if svc else "net.dcserver.noop_rtt_us"]
        batches = _ratio(rec.calls("net.channel.request:BatchedPerform"), ttx)
        codec = (
            batches * m["net.wire.fast_roundtrip_batch_us"]
            + (per_txn - batches) * m["net.wire.fast_roundtrip_small_us"]
        )
        table.append(("round-trip floor (no-op RTT)", per_txn, noop, per_txn * noop))
        table.append(("net.wire payload codec (both ends)", per_txn,
                      _ratio(codec, per_txn), codec))
    explained = sum(row[3] for row in table)
    mean_us = ctx.traced.mean_ms() * 1e3
    unexplained = mean_us - explained
    return {
        "rows": table,
        "wait_us": wait_us,
        "explained_us": explained,
        "mean_txn_us": mean_us,
        "untraced_mean_txn_us": ctx.untraced.mean_ms() * 1e3,
        "unexplained_us": unexplained,
        "explained_share": _ratio(explained, mean_us),
    }


def format_budget(name: str, budget: dict) -> str:
    lines = [
        f"latency budget: {name} (per transaction, traced window)",
        f"  {'layer':<44}{'calls/txn':>10}{'cost us':>10}{'us/txn':>10}",
    ]
    for layer, calls, cost, us in budget["rows"]:
        lines.append(f"  {layer:<44}{calls:>10.2f}{cost:>10.2f}{us:>10.1f}")
    lines.append(f"  {'sum explained':<64}{budget['explained_us']:>10.1f}")
    lines.append(f"  {'measured mean txn latency (traced)':<64}{budget['mean_txn_us']:>10.1f}")
    lines.append(f"  {'measured mean txn latency (untraced)':<64}"
                 f"{budget['untraced_mean_txn_us']:>10.1f}")
    lines.append(f"  {'budget.unexplained_us':<64}{budget['unexplained_us']:>10.1f}")
    if budget["explained_share"] < 0.75:
        lines.append(
            f"  FINDING: {1 - budget['explained_share']:.0%} of the latency is waiting on "
            "server processes beyond the no-op round trip and the codec; it stays "
            "unexplained until spans cross the process boundary."
        )
    return "\n".join(lines)
