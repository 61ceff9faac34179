"""Checkpoint-driven log truncation, redo, journal compaction.

The recovery-time story has three legs, each tested here:

- **TC log truncation** — once a checkpoint advances the RSSP, the log
  prefix below it is garbage *except* for records of transactions that
  have not durably ended (restart still needs their undo info).  The
  truncation point is the min of the RSSP and the oldest record of any
  such transaction; EOSL and the LSN generator must survive a truncation
  that empties the stable prefix.
- **Redo** — one single-threaded pump replays every DC's stream as
  windows of envelopes, over every transport: restart must leave exactly
  the committed pre-crash state (in-process, under a fault injector that
  loses an envelope, and over real DC processes), and every DC has an
  envelope outstanding before the first reply is collected.
- **Journal compaction** — the process-mode DC journal is rewritten from
  history to state behind an atomic ``os.replace``; a crash at any point
  before the swap leaves the old journal fully readable, and replay
  after compaction is equivalent to replay of the full history.  A DC
  server compacts at its first DC-log checkpoint, then only once the
  journal has doubled since; a compaction that fails leaves the old
  journal serving.  The TC server's record journal is rewritten by the
  same swap, survives the same failures, and neither server waits for
  the replaced file to be released.
"""

from __future__ import annotations

import builtins
import errno
import math
import os
import signal
import threading
import time
import types

import pytest

from repro.cloud.router import TcServiceDeployment
from repro.common.config import ChannelConfig, DcConfig, KernelConfig, TcConfig
from repro.common.lsn import NULL_LSN
from repro.common.ops import InsertOp
from repro.dc.data_component import DataComponent
from repro.kernel.unbundled import UnbundledKernel
from repro.net.dcserver import _DcServer
from repro.net.journal import (
    _TAG_DELTA,
    _TAG_META,
    COMPACT_GROWTH,
    JournalStorage,
    _release,
    frame_bytes,
    read_frames,
)
from repro.net.rpc import CheckpointDcLog
from repro.net.tcserver import _RecordJournal
from repro.sim.faults import FaultAction, FaultInjector, FaultPoint, FaultRule
from repro.sim.metrics import Metrics
from repro.sim.supervisor import Supervisor
from repro.tc.log import CommitRecord, OpRecord, TcLog, TxnEndRecord
from tests.test_journal_delta import full_leaf, page_frames, volume


def append_op(log, txn_id=1, key=1):
    return log.append(
        lambda lsn: OpRecord(
            lsn=lsn,
            txn_id=txn_id,
            op=InsertOp(table="t", key=key, value="v"),
            undo=None,
            dc_name="dc",
        ),
        track_for_lwm=True,
    )


def end_txn(log, txn_id):
    log.append(lambda lsn: CommitRecord(lsn=lsn, txn_id=txn_id))
    return log.append(lambda lsn: TxnEndRecord(lsn=lsn, txn_id=txn_id))


class TestTcLogTruncation:
    def test_truncate_below_drops_only_the_stable_prefix(self):
        log = TcLog(Metrics())
        first = append_op(log, key=0)
        second = append_op(log, key=1)
        log.force()
        volatile = append_op(log, key=2)
        dropped = log.truncate_below(volatile.lsn)
        assert dropped == 2
        # The volatile tail is untouched — crash semantics still apply.
        assert [r.lsn for r in log.all_records()] == [volatile.lsn]
        assert log.truncated_upto == second.lsn

    def test_truncation_point_holds_at_unended_transaction(self):
        """The safe point is min(RSSP, oldest record of a txn without a
        stable TxnEndRecord): restart needs the loser's undo info even
        after its operations completed at the DC."""
        log = TcLog(Metrics())
        done = append_op(log, txn_id=1, key=0)
        end_txn(log, txn_id=1)
        loser = append_op(log, txn_id=2, key=1)  # never ends
        tail = append_op(log, txn_id=3, key=2)
        end_txn(log, txn_id=3)
        log.force()
        limit = tail.lsn + 1  # pretend the RSSP advanced past everything
        assert log.truncation_point(limit) == loser.lsn
        dropped = log.truncate_below(log.truncation_point(limit))
        # Only txn 1's records go; the loser's record survives.
        assert dropped == 3
        assert log.stable_records()[0].lsn == loser.lsn

    def test_truncation_point_respects_limit(self):
        log = TcLog(Metrics())
        first = append_op(log, txn_id=1, key=0)
        end_txn(log, txn_id=1)
        append_op(log, txn_id=2, key=1)
        end_txn(log, txn_id=2)
        log.force()
        assert log.truncation_point(first.lsn) == first.lsn

    def test_eosl_survives_truncating_the_whole_stable_prefix(self):
        log = TcLog(Metrics())
        append_op(log, txn_id=1, key=0)
        last = end_txn(log, txn_id=1)
        log.force()
        before = log.eosl
        assert log.truncate_below(last.lsn + 1) == 3
        assert log.record_count() == 0
        # EOSL never regresses: an empty stable prefix reports the
        # highest truncated LSN, not NULL.
        assert log.eosl == before == last.lsn

    def test_lsn_generator_continues_above_truncated_prefix(self):
        log = TcLog(Metrics())
        append_op(log, txn_id=1, key=0)
        last = end_txn(log, txn_id=1)
        log.force()
        log.truncate_below(last.lsn + 1)
        log.crash()
        log.recover_lsn_generator()
        fresh = append_op(log, txn_id=2, key=1)
        assert fresh.lsn > last.lsn

    def test_truncate_below_null_is_a_no_op(self):
        log = TcLog(Metrics())
        append_op(log)
        log.force()
        assert log.truncate_below(NULL_LSN) == 0
        assert log.record_count() == 1


class TestCheckpointTruncation:
    def _kernel(self, tc=None):
        config = KernelConfig(dc=DcConfig(page_size=1024), tc=tc or TcConfig())
        kernel = UnbundledKernel(config)
        kernel.create_table("t")
        return kernel

    def test_checkpoint_truncates_and_restart_stays_correct(self):
        kernel = self._kernel()
        for index in range(60):
            with kernel.begin() as txn:
                txn.insert("t", index, f"value-{index:05d}")
        grew_to = kernel.tc.log.record_count()
        assert kernel.checkpoint()
        assert kernel.metrics.get("tclog.truncated_records") > 0
        assert kernel.tc.log.record_count() < grew_to
        for index in range(60, 80):
            with kernel.begin() as txn:
                txn.insert("t", index, f"value-{index:05d}")
        kernel.crash_tc()
        kernel.recover_tc()
        with kernel.begin() as txn:
            assert len(txn.scan("t")) == 80

    def test_checkpoint_with_active_writer_keeps_undo_info(self):
        """An uncommitted writer's records must survive truncation: its
        operations complete (so LWM/RSSP may pass them) but restart still
        needs the undo info to roll the loser back."""
        kernel = self._kernel()
        with kernel.begin() as txn:
            txn.insert("t", 0, "committed")
        loser = kernel.begin()
        loser.insert("t", 99, "uncommitted")
        loser_records = [
            r for r in kernel.tc.log.all_records() if r.txn_id == loser.txn_id
        ]
        assert loser_records
        for index in range(1, 40):
            with kernel.begin() as txn:
                txn.insert("t", index, f"value-{index:05d}")
        assert kernel.checkpoint()
        # RSSP advanced (operations all completed), but the truncation
        # point held at the open transaction's oldest record.
        assert kernel.tc.rssp > loser_records[0].lsn
        surviving = {r.lsn for r in kernel.tc.log.stable_records()}
        assert loser_records[0].lsn in surviving
        kernel.crash_tc()
        kernel.recover_tc()
        with kernel.begin() as txn:
            assert txn.read("t", 99) is None  # loser rolled back
            assert txn.read("t", 0) == "committed"
            assert len(txn.scan("t")) == 40

    def test_redo_after_checkpoint_truncation_replays_only_tail(self):
        kernel = self._kernel()
        for index in range(20):
            with kernel.begin() as txn:
                txn.insert("t", index, f"value-{index:05d}")
        assert kernel.checkpoint()
        for index in range(20, 25):
            with kernel.begin() as txn:
                txn.insert("t", index, f"value-{index:05d}")
        kernel.crash_tc()
        stats = kernel.recover_tc()
        assert stats["redo_ops"] <= 5
        with kernel.begin() as txn:
            assert len(txn.scan("t")) == 25


class TestParallelRedo:
    def _multi_dc_kernel(self, dc_count, tc=None, faults=None):
        config = KernelConfig(dc=DcConfig(page_size=1024), tc=tc or TcConfig())
        kernel = UnbundledKernel(config, dc_count=dc_count, faults=faults)
        for index in range(dc_count):
            kernel.create_table(f"t{index}", dc_name=f"dc{index + 1}")
        return kernel

    def _load(self, kernel, dc_count, rows=30):
        for index in range(rows):
            with kernel.begin() as txn:
                txn.insert(f"t{index % dc_count}", index, f"value-{index:05d}")

    def _check(self, kernel, dc_count, rows=30):
        with kernel.begin() as txn:
            seen = sum(len(txn.scan(f"t{i}")) for i in range(dc_count))
        assert seen == rows

    def test_parallel_redo_multi_dc_correctness(self):
        kernel = self._multi_dc_kernel(4)
        self._load(kernel, 4)
        kernel.crash_tc()
        stats = kernel.recover_tc()
        assert stats["redo_ops"] > 0
        self._check(kernel, 4)

    def test_sequential_fallback_under_fault_injection(self):
        """A FaultInjector needs no path of its own: the pump is
        single-threaded, so fault-rule hit counts stay deterministic."""
        faults = FaultInjector(schedule=[])
        kernel = self._multi_dc_kernel(3, faults=faults)
        self._load(kernel, 3)
        kernel.crash_tc()
        stats = kernel.recover_tc()
        assert stats["redo_ops"] > 0
        self._check(kernel, 3)

    def test_single_dc_never_fans_out(self):
        config = KernelConfig(dc=DcConfig(page_size=1024))
        kernel = UnbundledKernel(config)
        kernel.create_table("t")
        for index in range(10):
            with kernel.begin() as txn:
                txn.insert("t", index, f"value-{index:05d}")
        kernel.crash_tc()
        kernel.recover_tc()
        with kernel.begin() as txn:
            assert len(txn.scan("t")) == 10

    @pytest.mark.parametrize("dc_count", [1, 3])
    @pytest.mark.parametrize("mode", ["inproc", "faults", "process"])
    def test_restart_leaves_committed_state(self, tmp_path, mode, dc_count):
        """Both components crash, so redo really re-executes every stream
        (several envelopes per DC: inserts, then updates and deletes of
        the same keys), and a forced loser is redone and rolled back.
        Under the injector the first redo envelope to the first DC is
        lost: its records are resent one by one before anything queued
        behind them reaches that DC."""
        faults = FaultInjector() if mode == "faults" else None
        config = KernelConfig(dc=DcConfig(page_size=1024))
        if mode == "process":
            config.channel = ChannelConfig(transport="process")
            config.data_dir = str(tmp_path)
        kernel = UnbundledKernel(config, dc_count=dc_count, faults=faults)
        try:
            tables = [f"t{index}" for index in range(dc_count)]
            for table, dc_name in zip(tables, kernel.dcs):
                kernel.create_table(table, dc_name=dc_name)
            for rows in (range(48), range(0, 48, 2)):
                for index in rows:
                    with kernel.begin() as txn:
                        table = tables[index % dc_count]
                        if rows.step == 1:
                            txn.insert(table, index, f"value-{index:05d}")
                        elif index % 3:
                            txn.update(table, index, f"updated-{index:05d}")
                        else:
                            txn.delete(table, index)
            with kernel.begin() as txn:
                committed = [sorted(txn.scan(table)) for table in tables]
            loser = kernel.begin()
            loser.update(tables[0], dc_count, "lost")
            loser.insert(tables[-1], 999, "lost")
            loser.delete(tables[0], 3 * dc_count)
            kernel.tc.force_log()  # the loser's records are redone, then undone
            kernel.crash_all()
            if faults is not None:
                first = next(iter(kernel.dcs))
                # RestartBegin and EndOfStableLog are that DC's first sends.
                faults.load_schedule(
                    [FaultRule(FaultPoint.CHANNEL_SEND, FaultAction.DROP, first, after=3)]
                )
            kernel.recover_all()
            if faults is not None:
                assert faults.fired == [f"channel.send[{first}] -> drop"]
            with kernel.begin() as txn:
                assert [sorted(txn.scan(table)) for table in tables] == committed
        finally:
            kernel.close()

    @pytest.mark.process
    def test_envelope_outstanding_at_every_dc(self, tmp_path):
        """Counted, not timed: with 3 DC processes, an envelope has been
        sent to every DC before the first reply is collected."""
        config = KernelConfig(
            dc=DcConfig(page_size=1024),
            channel=ChannelConfig(transport="process"),
            data_dir=str(tmp_path),
        )
        with UnbundledKernel(config, dc_count=3) as kernel:
            for index, dc_name in enumerate(kernel.dcs):
                kernel.create_table(f"t{index}", dc_name=dc_name)
            self._load(kernel, 3)
            kernel.crash_tc()
            events: list = []
            for name, channel in kernel.tc.channels().items():

                def sent(message, defer=False, _send=channel.request_async, _name=name):
                    events.append(("send", _name))
                    return _send(message, defer=defer)

                def collected(slot, _finish=channel.finish_async):
                    events.append(("collect", None))
                    return _finish(slot)

                channel.request_async = sent
                channel.finish_async = collected
            kernel.recover_tc()
            first_collect = events.index(("collect", None))
            assert {name for _kind, name in events[:first_collect]} == set(kernel.dcs)
            self._check(kernel, 3)


def populated(path):
    storage = JournalStorage(str(path))
    for key in range(8):
        storage.write_metadata(f"k{key}", key)
    for key in range(8):  # supersede: history > state
        storage.write_metadata(f"k{key}", key * 10)
    return storage


class TestJournalCompaction:
    def test_replay_after_compaction_is_equivalent(self, tmp_path):
        path = tmp_path / "dc.journal"
        storage = populated(path)
        before = {f"k{i}": storage.read_metadata(f"k{i}") for i in range(8)}
        reclaimed = storage.compact()
        assert reclaimed > 0
        storage.close()
        reopened = JournalStorage(str(path))
        assert reopened.replayed
        after = {f"k{i}": reopened.read_metadata(f"k{i}") for i in range(8)}
        assert after == before
        reopened.close()

    def test_journal_keeps_accepting_writes_after_compaction(self, tmp_path):
        path = tmp_path / "dc.journal"
        storage = populated(path)
        storage.compact()
        storage.write_metadata("post", "compaction")
        storage.close()
        reopened = JournalStorage(str(path))
        assert reopened.read_metadata("post") == "compaction"
        assert reopened.read_metadata("k3") == 30
        reopened.close()

    def test_crash_before_replace_leaves_old_journal_intact(
        self, tmp_path, monkeypatch
    ):
        """kill -9 anywhere before the atomic swap = the old journal, whole.

        Simulated by making ``os.replace`` itself die: everything the
        compaction wrote so far lives in a sibling file the next startup
        never looks at."""
        import repro.net.journal as journal_module

        path = tmp_path / "dc.journal"
        storage = populated(path)

        def die(src, dst):
            raise OSError("simulated SIGKILL before the swap")

        monkeypatch.setattr(journal_module.os, "replace", die)
        with pytest.raises(OSError):
            storage.compact()
        monkeypatch.undo()

        reopened = JournalStorage(str(path))
        assert reopened.replayed
        for key in range(8):
            assert reopened.read_metadata(f"k{key}") == key * 10
        reopened.close()

    def test_compaction_bounds_journal_growth(self, tmp_path):
        path = tmp_path / "dc.journal"
        storage = JournalStorage(str(path))
        for round_no in range(5):
            for key in range(16):
                storage.write_metadata(f"k{key}", f"round-{round_no}")
        full_history = storage.journal_bytes()
        storage.compact()
        assert storage.journal_bytes() < full_history / 2
        storage.close()


def dc_log_checkpoint(storage) -> bool:
    """What a DC server does after a DC-log checkpoint advances: compact
    once the journal has doubled.  True when it compacted."""
    if not storage.compaction_due():
        return False
    storage.compact()
    return True


def meta_frame_bytes(key, value) -> int:
    return len(frame_bytes(_TAG_META, (key, value)))


class TestCompactionRule:
    """Compaction waits until the journal has doubled since the last one."""

    def test_first_checkpoint_after_open_compacts(self, tmp_path):
        path = tmp_path / "dc.journal"
        populated(path).close()
        storage = JournalStorage(str(path))  # a restarted server
        assert dc_log_checkpoint(storage)
        assert storage.metrics.get("journal.compactions") == 1
        storage.close()

    def test_immediate_second_checkpoint_does_not_compact(self, tmp_path):
        storage = populated(tmp_path / "dc.journal")
        assert dc_log_checkpoint(storage)
        compacted = storage.journal_bytes()
        storage.write_metadata("k0", "one more frame")
        assert not dc_log_checkpoint(storage)
        assert storage.metrics.get("journal.compactions") == 1
        assert storage.journal_bytes() > compacted
        storage.close()

    def test_compacts_once_the_journal_has_doubled(self, tmp_path):
        storage = populated(tmp_path / "dc.journal")
        assert dc_log_checkpoint(storage)
        compacted = storage.journal_bytes()
        round_no = 0
        while storage.journal_bytes() < COMPACT_GROWTH * compacted:
            assert not dc_log_checkpoint(storage)
            storage.write_metadata(f"k{round_no % 8}", f"round-{round_no}")
            round_no += 1
        doubled = storage.journal_bytes()
        assert dc_log_checkpoint(storage)
        assert storage.metrics.get("journal.compactions") == 2
        assert storage.journal_bytes() < doubled
        storage.close()

    def test_growing_stream_rewrites_amortized(self, tmp_path):
        """New keys only, a checkpoint every 7 frames: what compactions
        rewrite stays within twice what was appended, and they happen
        about once per doubling of live state."""
        storage = JournalStorage(str(tmp_path / "dc.journal"))
        appended = 0
        first_live = 0
        for key in range(2000):
            value = f"value-{key:06d}"
            storage.write_metadata(f"k{key}", value)
            appended += meta_frame_bytes(f"k{key}", value)
            if key % 7 == 6 and dc_log_checkpoint(storage) and not first_live:
                first_live = storage.journal_bytes()
        compactions = storage.metrics.get("journal.compactions")
        rewritten = storage.metrics.get("journal.rewritten_bytes")
        assert first_live > 0
        assert rewritten <= COMPACT_GROWTH * appended
        # Nothing was superseded: live state is everything appended.
        assert 1 <= compactions <= math.log2(appended / first_live) + 2
        storage.close()

    def test_churning_stream_keeps_replay_bounded_by_state(self, tmp_path):
        """The same 64 keys rewritten over and over, a checkpoint every 5
        frames: after each checkpoint the journal is under twice its live
        state, and rewrites still cost at most twice the appends."""
        storage = JournalStorage(str(tmp_path / "dc.journal"))
        appended = 0
        for step in range(3000):
            key, value = f"k{step % 64}", f"round-{step // 64:06d}"
            storage.write_metadata(key, value)
            appended += meta_frame_bytes(key, value)
            if step % 5 == 4 and step >= 64:
                dc_log_checkpoint(storage)
                live = sum(
                    meta_frame_bytes(k, storage.read_metadata(k))
                    for k in (f"k{i}" for i in range(64))
                )
                assert storage.journal_bytes() < COMPACT_GROWTH * live
        assert storage.metrics.get("journal.compactions") > 1
        rewritten = storage.metrics.get("journal.rewritten_bytes")
        assert rewritten <= COMPACT_GROWTH * appended
        storage.close()

    def test_kill9_after_checkpoints_that_did_not_compact(self, tmp_path):
        """Delta chains that span several checkpoints which left the
        journal alone replay to the live volume after a kill -9."""
        path = tmp_path / "dc.journal"
        storage = JournalStorage(str(path))
        page_ids = []
        for _ in range(4):
            page_id = storage.allocate_page_id()
            storage.write_page(full_leaf(page_id).snapshot())
            page_ids.append(page_id)
        assert dc_log_checkpoint(storage)
        compacted_end = storage.journal_bytes()
        for round_no in range(6):
            for page_id in page_ids:
                leaf = storage.read_page(page_id).materialize()
                old = leaf.get(round_no)
                leaf.put(old.set_committed(f"round-{round_no}"))
                storage.write_page(leaf.snapshot())
            assert not dc_log_checkpoint(storage)
        assert storage.metrics.get("journal.compactions") == 1
        chained = [
            tag for start, _end, tag, _p in page_frames(path) if start >= compacted_end
        ]
        assert chained == [_TAG_DELTA] * (6 * len(page_ids))
        live = volume(storage)
        # kill -9: the live storage is never closed; a new one replays.
        restarted = JournalStorage(str(path))
        assert restarted.replayed
        assert volume(restarted) == live
        assert restarted.read_page(page_ids[2]).materialize().get(5).committed == (
            "round-5"
        )
        restarted.close()
        storage.close()  # the dead process's handle


class _FullDisk:
    """A sibling file that takes a few bytes, then fails with ENOSPC."""

    def __init__(self, handle):
        self._handle = handle

    def write(self, data):
        self._handle.write(data[:5])
        raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._handle.close()


class TestFailedCompaction:
    """A compaction that cannot finish leaves the old journal serving."""

    @pytest.fixture
    def full_disk(self, monkeypatch):
        import repro.net.journal as journal_module

        def fake_open(path, mode="r", *args, **kwargs):
            handle = builtins.open(path, mode, *args, **kwargs)
            if str(path).endswith(".compact"):
                return _FullDisk(handle)
            return handle

        monkeypatch.setattr(journal_module, "open", fake_open, raising=False)
        return monkeypatch

    def _check_serving(self, storage, path):
        assert not (tmp := path.parent / (path.name + ".compact")).exists(), tmp
        storage.write_metadata("after", "failure")
        storage.close()
        reopened = JournalStorage(str(path))
        assert reopened.read_metadata("after") == "failure"
        for key in range(8):
            assert reopened.read_metadata(f"k{key}") == key * 10
        reopened.close()

    def test_enospc_on_the_sibling(self, tmp_path, full_disk):
        path = tmp_path / "dc.journal"
        storage = populated(path)
        with pytest.raises(OSError) as raised:
            storage.compact()
        assert raised.value.errno == errno.ENOSPC
        full_disk.undo()
        self._check_serving(storage, path)

    def test_failed_swap(self, tmp_path, monkeypatch):
        import repro.net.journal as journal_module

        path = tmp_path / "dc.journal"
        storage = populated(path)

        def fail(src, dst):
            raise OSError(errno.EIO, "swap failed")

        monkeypatch.setattr(journal_module.os, "replace", fail)
        with pytest.raises(OSError):
            storage.compact()
        monkeypatch.undo()
        self._check_serving(storage, path)

    def test_dc_server_counts_it_and_still_answers_advanced(
        self, tmp_path, full_disk
    ):
        path = tmp_path / "dc.journal"
        storage = JournalStorage(str(path))
        server = types.SimpleNamespace(
            _storage=storage,
            _dc=DataComponent("dc", metrics=storage.metrics, storage=storage),
        )
        request = CheckpointDcLog(tc_id=0)
        reply = _DcServer._checkpoint_dc_log(server, None, request)
        assert reply.advanced
        assert storage.metrics.get("journal.compaction_failures") == 1
        assert storage.metrics.get("journal.compactions") == 0
        full_disk.undo()
        # Nothing was compacted, so the next checkpoint is still due.
        assert _DcServer._checkpoint_dc_log(server, None, request).advanced
        assert storage.metrics.get("journal.compactions") == 1
        assert storage.metrics.get("journal.compaction_failures") == 1
        storage.close()


def kill_9(*proxies) -> None:
    """A real ``kill -9`` on each server, then wait for its proxy."""
    for proxy in proxies:
        os.kill(proxy.pid, signal.SIGKILL)
    deadline = time.monotonic() + 10.0
    while not all(p.crashed for p in proxies) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert all(p.crashed for p in proxies)


def service(tmp_path) -> TcServiceDeployment:
    """One TC server and one DC server journalling into ``tmp_path``."""
    dep = TcServiceDeployment(
        tc_count=1,
        dc_count=1,
        partitions=2,
        data_dir=str(tmp_path),
        dc_config=DcConfig(page_size=1024),
    )
    dep.create_table("t")
    return dep


@pytest.mark.process
class TestFailedTcRewrite:
    """A TC journal rewrite that cannot finish leaves the TC server
    serving: it counts the failure, answers the checkpoint and appends to
    the old journal, which a kill -9 then replays."""

    @pytest.fixture
    def armed(self, tmp_path):
        """While this file exists, the TC journal's rewrite fails in the
        server processes (forked after the fault is installed)."""
        return tmp_path / "armed"

    @staticmethod
    def _target(path, armed) -> bool:
        return str(path).endswith("tc1.journal.compact") and armed.exists()

    def _survives(self, tmp_path, armed):
        with service(tmp_path) as dep:
            tc = dep.tcs["tc1"]
            for key in range(50):
                with tc.begin() as txn:
                    txn.insert("t", key, f"v{key}")
            armed.touch()
            try:
                assert tc.checkpoint()
            finally:
                armed.unlink()
            assert tc.stats()["counters"]["tclog.rewrite_failures"] == 1
            assert not (tmp_path / "tc1.journal.compact").exists()
            with tc.begin() as txn:
                txn.insert("t", 50, "after")
            supervisor = Supervisor()
            supervisor.watch_deployment(dep)
            kill_9(tc)
            supervisor.heal()
            expected = [(key, f"v{key}") for key in range(50)] + [(50, "after")]
            assert tc.scan_other("t") == expected

    def test_enospc_on_the_sibling(self, tmp_path, armed, monkeypatch):
        real_open = builtins.open

        def full_disk(path, *args, **kwargs):
            if self._target(path, armed):
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", full_disk)
        self._survives(tmp_path, armed)

    def test_failed_swap(self, tmp_path, armed, monkeypatch):
        real_replace = os.replace

        def failing(src, dst):
            if self._target(src, armed):
                raise OSError(errno.EIO, "swap failed")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", failing)
        self._survives(tmp_path, armed)


class HeldRelease:
    """Stands in for the journal's release of a replaced file, and holds
    it until :attr:`event` is set (or 20 s pass)."""

    def __init__(self) -> None:
        self.event = threading.Event()

    def __call__(self, handle) -> None:
        self.event.wait(20.0)
        _release(handle)


def deleted_links(path, pid="self") -> list[str]:
    """The fds of process ``pid`` still open on ``path`` after it was
    replaced."""
    fd_dir = f"/proc/{pid}/fd"
    found = []
    for fd in os.listdir(fd_dir):
        try:
            if os.readlink(os.path.join(fd_dir, fd)) == f"{path} (deleted)":
                found.append(fd)
        except OSError:
            pass
    return found


def release_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name == "journal-release"]


def dc_journal(path):
    """A DC journal, its swap, an append, and the frame that append writes."""
    journal = populated(path)
    return (
        journal,
        journal.compact,
        lambda: journal.write_metadata("after", "swap"),
        (_TAG_META, ("after", "swap")),
    )


def tc_journal(path):
    """The same for a TC server's record journal."""
    journal = _RecordJournal(str(path))
    for key in range(8):
        journal.append_records([(key, key)])
    return (
        journal,
        lambda: journal.rewrite(7, [(7, 7)]),
        lambda: journal.append_records([("after", "swap")]),
        ("records", [("after", "swap")]),
    )


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
class TestSwapRelease:
    """A swap holds the replaced file open across the rename and closes it
    on a release thread; the server goes on meanwhile."""

    @pytest.fixture
    def held(self, monkeypatch):
        import repro.net.journal as journal_module

        held = HeldRelease()
        monkeypatch.setattr(journal_module, "_release", held)
        yield held
        held.event.set()

    @pytest.mark.parametrize("open_journal", [dc_journal, tc_journal], ids=["dc", "tc"])
    def test_swap_returns_while_the_release_is_held(
        self, tmp_path, held, open_journal
    ):
        path = tmp_path / "x.journal"
        journal, swap, append, frame = open_journal(path)
        started = time.perf_counter()
        swap()
        elapsed = time.perf_counter() - started
        append()
        assert elapsed < 0.05, f"swap took {elapsed * 1e3:.1f} ms"
        assert deleted_links(path), "the replaced file was not held"
        assert frame in list(read_frames(str(path)))
        held.event.set()
        journal.close()

    @pytest.mark.parametrize("open_journal", [dc_journal, tc_journal], ids=["dc", "tc"])
    def test_close_leaves_no_fd_and_no_thread(self, tmp_path, held, open_journal):
        path = tmp_path / "x.journal"
        journal, swap, append, _frame = open_journal(path)
        swap()
        assert deleted_links(path) and release_threads()
        threading.Timer(0.05, held.event.set).start()
        journal.close()  # joins the release
        assert not deleted_links(path)
        assert not release_threads()

    @pytest.mark.process
    def test_kill_9_with_the_release_pending_replays_live_state(
        self, tmp_path, held, monkeypatch
    ):
        # Installed before the servers fork: their releases hold too.
        with service(tmp_path) as dep:
            tc, dc = dep.tcs["tc1"], dep.dcs["dc1"]
            for key in range(50):
                with tc.begin() as txn:
                    txn.insert("t", key, f"v{key}")
            for key in range(0, 50, 2):
                with tc.begin() as txn:
                    txn.update("t", key, f"u{key}")
            assert tc.checkpoint()  # rewrites the TC journal
            assert dc.checkpoint_dc_log()  # compacts the DC journal
            for key in range(50, 60):
                with tc.begin() as txn:
                    txn.insert("t", key, f"v{key}")
            for proxy in (tc, dc):
                journal = tmp_path / f"{proxy.name}.journal"
                assert deleted_links(journal, proxy.pid), proxy.name
            monkeypatch.undo()  # the restarted servers release as shipped
            supervisor = Supervisor()
            supervisor.watch_deployment(dep)
            kill_9(tc, dc)
            supervisor.heal()
            expected = [
                (key, f"u{key}" if key < 50 and key % 2 == 0 else f"v{key}")
                for key in range(60)
            ]
            assert tc.scan_other("t") == expected


@pytest.mark.process
class TestProcessModeCompaction:
    def _process_kernel(self, tmp_path, dc_count=1):
        config = KernelConfig(
            dc=DcConfig(page_size=1024),
            channel=ChannelConfig(transport="process"),
            data_dir=str(tmp_path),
        )
        kernel = UnbundledKernel(config, dc_count=dc_count)
        kernel.create_table("t")
        return kernel

    def test_sigkill_after_compaction_replays_compacted_journal(self, tmp_path):
        kernel = self._process_kernel(tmp_path)
        try:
            for index in range(50):
                with kernel.begin() as txn:
                    txn.insert("t", index, f"value-{index:05d}")
            # Several checkpointed update rounds: each flush journals a
            # fresh generation of every touched page, so the journal
            # grows with history while live state stays constant.
            for round_no in range(3):
                for index in range(50):
                    with kernel.begin() as txn:
                        txn.update("t", index, f"round-{round_no}-{index:05d}")
                assert kernel.checkpoint()
            history_bytes = kernel.dc.stats()["journal_bytes"]
            assert kernel.dc.checkpoint_dc_log()
            compacted_bytes = kernel.dc.stats()["journal_bytes"]
            assert compacted_bytes < history_bytes
            # A real SIGKILL; the restarted server replays the compacted
            # journal and the TC resends anything above the RSSP.
            kernel.crash_dc()
            kernel.recover_dc()
            with kernel.begin() as txn:
                assert len(txn.scan("t")) == 50
                assert txn.read("t", 7) == "round-2-00007"
        finally:
            kernel.close()

    def test_compaction_then_more_writes_then_sigkill(self, tmp_path):
        kernel = self._process_kernel(tmp_path)
        try:
            for index in range(30):
                with kernel.begin() as txn:
                    txn.insert("t", index, f"value-{index:05d}")
            assert kernel.checkpoint()
            kernel.dc.checkpoint_dc_log()
            for index in range(30, 45):
                with kernel.begin() as txn:
                    txn.insert("t", index, f"value-{index:05d}")
            kernel.crash_dc()
            kernel.recover_dc()
            with kernel.begin() as txn:
                assert len(txn.scan("t")) == 45
        finally:
            kernel.close()
