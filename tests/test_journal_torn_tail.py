"""Torn-tail edge cases of the server journals (net/journal.py).

Both journals — the DC server's volume and the TC server's log records —
read their frames with one reader, and promise torn-write = no-write: a
frame whose mutating call never returned must vanish on replay, and
everything before it must survive byte-for-byte.  These tests tamper with
the file directly to hit the cuts a real SIGKILL can produce
mid-``write()``:

- a final record truncated inside its payload (header intact);
- a payload cut that still *unpickles* — only the CRC catches it;
- a zero-length tail record (header present, empty frame);
- a partial header (fewer bytes than the frame header itself);
- a frame ending exactly at the file boundary (must replay whole).

The page-frame classes at the end repeat the torn and corrupted cuts on
page frames (records and abLSNs framed as field tuples), round-trip every
field through close -> reopen, and check that the loader's page-id index
over the stable DC log comes back from replay and from compaction as the
appends built it.
"""

from __future__ import annotations

import pickle
import struct
import zlib

import pytest

from repro.common.errors import CrashedError, JournalCorruptError
from repro.common.records import TOMBSTONE, VersionedRecord
from repro.dc.dclog import DcLog
from repro.dc.recovery import stable_page_state
from repro.dc.system_txn import SystemTransaction
from repro.net.journal import _HEADER, JournalStorage
from repro.net.tcclient import RemoteTc
from repro.net.tcserver import _RecordJournal
from repro.storage.buffer import BufferPool
from repro.storage.page import InnerPage, LeafPage
from tests.conftest import image_fields


class _DcJournal:
    """The torn-tail cases' key/value surface over the DC's JournalStorage
    (a metadata write is one frame)."""

    def __init__(self, path):
        self.journal = JournalStorage(str(path))
        self.replayed = self.journal.replayed

    @staticmethod
    def frame(key, value) -> bytes:
        """The pickled payload ``put(key, value)`` frames."""
        return pickle.dumps((2, (key, value)), protocol=pickle.HIGHEST_PROTOCOL)

    def put(self, key, value):
        self.journal.write_metadata(key, value)

    def get(self, key):
        return self.journal.read_metadata(key)

    def crc_rejected(self):
        return self.journal.metrics.get("journal.crc_rejected")

    def close(self):
        self.journal.close()


class _TcJournal(_DcJournal):
    """The same surface over the TC server's record journal (a batch of
    one record is one frame; it counts no metrics)."""

    def __init__(self, path):
        self.journal = _RecordJournal(str(path))
        self.replayed = self.journal.replayed

    @staticmethod
    def frame(key, value) -> bytes:
        records = ("records", [(key, value)])
        return pickle.dumps(records, protocol=pickle.HIGHEST_PROTOCOL)

    def put(self, key, value):
        self.journal.append_records([(key, value)])

    def get(self, key):
        return dict(self.journal.records).get(key)

    def crc_rejected(self):
        return None


def _frames(path):
    """Parse the raw file into (header_offset, length, crc, payload) tuples."""
    data = path.read_bytes()
    frames = []
    pos = 0
    while pos + _HEADER.size <= len(data):
        length, crc = _HEADER.unpack_from(data, pos)
        payload = data[pos + _HEADER.size : pos + _HEADER.size + length]
        frames.append((pos, length, crc, payload))
        pos += _HEADER.size + length
    return frames


class TestTornTail:
    journal = _DcJournal

    def _make_journal(self, path, entries):
        storage = self.journal(path)
        for key, value in entries:
            storage.put(key, value)
        storage.close()
        return path

    def test_truncated_final_record_is_dropped(self, tmp_path):
        path = self._make_journal(
            tmp_path / "j.bin", [("a", 1), ("b", 2), ("c", 3)]
        )
        frames = _frames(path)
        last_start = frames[-1][0]
        data = path.read_bytes()
        # Cut inside the final payload: header claims more than remains.
        path.write_bytes(data[: last_start + _HEADER.size + 2])

        storage = self.journal(path)
        assert storage.get("a") == 1
        assert storage.get("b") == 2
        assert storage.get("c") is None  # torn -> no write
        # The tail was truncated to a clean frame boundary: new appends
        # land after the surviving frames and themselves replay.
        storage.put("d", 4)
        storage.close()
        reopened = self.journal(path)
        assert reopened.get("b") == 2
        assert reopened.get("d") == 4
        reopened.close()

    def test_crc_rejects_truncation_that_still_unpickles(self, tmp_path):
        """A cut landing on a valid pickle must not replay as a frame.

        The length prefix alone cannot catch this shape: we rewrite the
        final record so its payload *is* a loadable pickle of a different
        (shorter) mutation, but keep the original CRC.  Only the checksum
        distinguishes "frame the writer finished" from "bytes that happen
        to parse"."""
        path = self._make_journal(tmp_path / "j.bin", [("a", 1), ("victim", 2)])
        frames = _frames(path)
        last_start, length, crc, payload = frames[-1]
        impostor = self.journal.frame("victim", 999)
        assert zlib.crc32(impostor) != crc
        data = path.read_bytes()
        tampered = (
            data[:last_start]
            + _HEADER.pack(len(impostor), crc)  # stale CRC, "torn" payload
            + impostor
        )
        path.write_bytes(tampered)

        storage = self.journal(path)
        assert storage.get("a") == 1
        # Without the CRC this would read 999; with it the frame is torn.
        assert storage.get("victim") is None
        assert storage.crc_rejected() in (1, None)  # None: counts no metrics
        storage.close()

    def test_zero_length_tail_record(self, tmp_path):
        """A header announcing an empty frame: CRC matches b'', pickle
        cannot — replay must stop cleanly, keeping prior frames."""
        path = self._make_journal(tmp_path / "j.bin", [("a", 1)])
        with open(path, "ab") as handle:
            handle.write(_HEADER.pack(0, zlib.crc32(b"")))

        storage = self.journal(path)
        assert storage.get("a") == 1
        storage.put("b", 2)
        storage.close()
        reopened = self.journal(path)
        assert reopened.get("a") == 1
        assert reopened.get("b") == 2
        reopened.close()

    def test_partial_header_tail(self, tmp_path):
        """Fewer tail bytes than one frame header (the smallest tear)."""
        path = self._make_journal(tmp_path / "j.bin", [("a", 1), ("b", 2)])
        with open(path, "ab") as handle:
            handle.write(b"\x07\x00\x00")  # 3 of the header's 8 bytes

        storage = self.journal(path)
        assert storage.get("a") == 1
        assert storage.get("b") == 2
        storage.close()

    def test_record_spanning_exact_buffer_boundary(self, tmp_path):
        """A frame engineered to end exactly on a 4096-byte boundary.

        Replay must consume it whole (no off-by-one at the "buffer edge")
        and a subsequent frame starting exactly at the boundary replays
        too."""
        path = tmp_path / "j.bin"
        storage = self.journal(path)
        storage.put("pad", "x")
        base = path.stat().st_size
        # Size one value so header + payload lands the file exactly at
        # 4096 (pickle's string-length encoding varies, so probe exactly).
        def frame_size(fill):
            return _HEADER.size + len(self.journal.frame("big", "y" * fill))

        fill = next(
            n for n in range(1, 4096) if base + frame_size(n) == 4096
        )
        storage.put("big", "y" * fill)
        assert path.stat().st_size == 4096
        storage.put("after", "z")
        storage.close()

        reopened = self.journal(path)
        assert reopened.get("big") == "y" * fill
        assert reopened.get("after") == "z"
        reopened.close()

    def test_clean_journal_replays_everything(self, tmp_path):
        path = self._make_journal(
            tmp_path / "j.bin", [(f"k{i}", i) for i in range(10)]
        )
        storage = self.journal(path)
        assert storage.replayed
        for i in range(10):
            assert storage.get(f"k{i}") == i
        storage.close()


class TestRecordJournalTornTail(TestTornTail):
    """The TC server's record journal reads its frames with the same
    reader, so every torn-tail case holds for it too."""

    journal = _TcJournal


# -- page frames (ISSUE 17: records and abLSNs framed as field tuples) ---------


def _busy_leaf(page_id, keys):
    """Pending versions (a tombstone among them), snapshot history, two
    TCs' abLSNs with pending {LSNin}."""
    leaf = LeafPage(page_id)
    for key in keys:
        record = VersionedRecord(
            key=key, committed={"v": key}, owner_tc=1 + key % 2, commit_seq=key
        )
        if key % 2:
            record = record.set_pending(
                TOMBSTONE if key % 3 == 0 else f"pending-{key}"
            )
        if key % 4 == 0:
            record = record._replace(history=((1, "first"), (3, TOMBSTONE)))
        leaf.put(record)
    leaf.ablsn_for(1).advance_low_water(40)
    for lsn in (47, 43, 51):
        leaf.ablsn_for(1).include(lsn)
    leaf.ablsn_for(2).include(9)
    leaf.dlsn = 5
    leaf.page_lsn = 2
    return leaf


def _inner(page_id, separators, children):
    inner = InnerPage(page_id)
    inner.separators = list(separators)
    inner.children = list(children)
    inner.dlsn = 6
    return inner


class TestPageFrames:
    def test_page_images_round_trip_through_the_journal(self, tmp_path):
        path = tmp_path / "j.bin"
        written = [
            _busy_leaf(1, range(12)).snapshot(),
            _inner(2, [("k", 5), ("k", 9)], [1, 3, 4]).snapshot(),
            LeafPage(3).snapshot(),
        ]
        storage = JournalStorage(str(path))
        for image in written:
            storage.write_page(image)
        storage.close()

        reopened = JournalStorage(str(path))
        for image in written:
            stored = reopened.read_page(image.page_id)
            assert stored is not image
            assert image_fields(stored) == image_fields(image)
            rebuilt = stored.materialize()
            assert image_fields(rebuilt.snapshot()) == image_fields(image)
        # TOMBSTONE stays the singleton the DC compares by identity.
        pendings = [r.pending for r in reopened.read_page(1).records if r.has_pending]
        assert any(p is TOMBSTONE for p in pendings)
        assert reopened.read_page(1).records[0].history[1][1] is TOMBSTONE
        reopened.close()

    def test_a_page_frame_holds_tuples_not_object_state(self, tmp_path):
        """The frame names no record class and no attribute: a later change
        that quietly goes back to pickling dataclass state fails here (and
        on net.journal.bytes_per_txn in CI)."""
        path = tmp_path / "j.bin"
        storage = JournalStorage(str(path))
        storage.write_page(_busy_leaf(1, range(12)).snapshot())
        storage.close()
        (_pos, _length, _crc, payload), = _frames(path)
        assert b"VersionedRecord" not in payload
        assert b"AbstractLsn" not in payload
        assert b"has_pending" not in payload and b"_included" not in payload

    def test_torn_page_frame_is_dropped_and_earlier_pages_survive(self, tmp_path):
        path = tmp_path / "j.bin"
        storage = JournalStorage(str(path))
        first = _busy_leaf(1, range(8)).snapshot()
        storage.write_page(first)
        storage.write_page(_busy_leaf(2, range(20, 30)).snapshot())
        storage.close()
        frames = _frames(path)
        last_start, length, _crc, _payload = frames[-1]
        data = path.read_bytes()
        path.write_bytes(data[: last_start + _HEADER.size + length // 2])

        reopened = JournalStorage(str(path))
        assert image_fields(reopened.read_page(1)) == image_fields(first)
        assert reopened.read_page(2) is None  # torn -> no write
        assert path.stat().st_size == last_start
        reopened.write_page(_busy_leaf(2, range(3)).snapshot())
        reopened.close()
        again = JournalStorage(str(path))
        assert len(again.read_page(2).records) == 3
        again.close()

    def test_crc_rejects_a_page_frame_with_a_flipped_byte(self, tmp_path):
        path = tmp_path / "j.bin"
        storage = JournalStorage(str(path))
        storage.write_page(_busy_leaf(1, range(8)).snapshot())
        storage.write_page(_busy_leaf(2, range(8)).snapshot())
        storage.close()
        last_start, length, _crc, _payload = _frames(path)[-1]
        data = bytearray(path.read_bytes())
        data[last_start + _HEADER.size + length // 2] ^= 0x01
        path.write_bytes(bytes(data))

        reopened = JournalStorage(str(path))
        assert reopened.read_page(1) is not None
        assert reopened.read_page(2) is None
        assert reopened.metrics.get("journal.crc_rejected") == 1
        reopened.close()


class TestMidJournalDamage:
    """A bad frame is a torn tail only if it runs to the end of the file.
    With a complete frame after it, the frames behind the damage were
    acknowledged: truncating there would hand back a silently shortened
    volume, so the journal refuses to open and leaves the file alone."""

    def _three_pages(self, path):
        storage = JournalStorage(str(path))
        leaf = _busy_leaf(1, range(8))
        storage.write_page(leaf.snapshot())
        leaf.put(leaf.get(4).set_committed("changed"))
        storage.write_page(leaf.snapshot())  # a delta on the frame before
        storage.write_page(_busy_leaf(2, range(8)).snapshot())
        storage.close()
        return _frames(path)

    def test_flipped_byte_in_a_middle_frame_refuses_to_open(self, tmp_path):
        path = tmp_path / "j.bin"
        frames = self._three_pages(path)
        start, length, _crc, _payload = frames[1]
        data = bytearray(path.read_bytes())
        data[start + _HEADER.size + length // 2] ^= 0x01
        path.write_bytes(bytes(data))

        with pytest.raises(JournalCorruptError, match="complete frame after it"):
            JournalStorage(str(path))
        assert path.read_bytes() == bytes(data)  # as found, not shrunk

    def test_delta_whose_base_frame_is_cut_out_refuses_to_open(self, tmp_path):
        path = tmp_path / "j.bin"
        frames = self._three_pages(path)
        data = path.read_bytes()
        without_base = data[frames[1][0] :]
        path.write_bytes(without_base)

        with pytest.raises(JournalCorruptError, match="delta frame for page 1"):
            JournalStorage(str(path))
        assert path.read_bytes() == without_base

    def test_damaged_last_frame_is_still_a_torn_tail(self, tmp_path):
        path = tmp_path / "j.bin"
        frames = self._three_pages(path)
        start, length, _crc, _payload = frames[-1]
        data = bytearray(path.read_bytes())
        data[start + _HEADER.size + length // 2] ^= 0x01
        path.write_bytes(bytes(data))

        reopened = JournalStorage(str(path))
        assert reopened.read_page(1).records[4].committed == "changed"
        assert reopened.read_page(2) is None
        assert path.stat().st_size == start
        reopened.close()


class TestRecordJournalMidFileDamage:
    """The TC server's record journal under the same rule: a bad frame
    with a whole frame after it held an acknowledged force behind it, so
    the journal refuses to open and leaves the file as found (it used to
    cut the file at the bad frame — to 0 bytes here — and come up with
    no records)."""

    @staticmethod
    def _damage_first_of_three(path):
        journal = _RecordJournal(str(path))
        for n in range(3):
            journal.append_records([("txn", n)])
        journal.close()
        start, length, _crc, _payload = _frames(path)[0]
        data = bytearray(path.read_bytes())
        data[start + _HEADER.size + length // 2] ^= 0x01
        path.write_bytes(bytes(data))
        return bytes(data)

    def test_flipped_byte_in_the_first_frame_refuses_to_open(self, tmp_path):
        path = tmp_path / "tc1.journal"
        damaged = self._damage_first_of_three(path)
        with pytest.raises(JournalCorruptError, match="complete frame after it"):
            _RecordJournal(str(path))
        assert path.read_bytes() == damaged

    @pytest.mark.process
    def test_a_tc_server_on_it_dies_before_its_hello(self, tmp_path):
        path = tmp_path / "tc1.journal"
        damaged = self._damage_first_of_three(path)
        with pytest.raises(CrashedError, match="restart failed"):
            RemoteTc("tc1", tc_id=1, journal_path=str(path))
        assert path.read_bytes() == damaged


class TestPageIndexAcrossRestart:
    """The loader's page-id index over the stable DC log is rebuilt by
    journal replay and by compaction exactly as appends built it."""

    def _volume(self, path):
        storage = JournalStorage(str(path))
        dclog = DcLog(storage, storage.metrics)
        gate = lambda needed: True  # noqa: E731
        old = _busy_leaf(1, range(10))
        old.dlsn = 0
        storage.write_page(old.snapshot())
        storage.write_page(_busy_leaf(9, range(90, 95)).snapshot())  # unnamed
        first = SystemTransaction("split", dclog, storage.metrics, gate)
        first.log_page_image(_busy_leaf(7, range(70, 73)))
        first.commit()
        cut = dclog.last_dlsn + 1
        split = SystemTransaction("split", dclog, storage.metrics, gate)
        split.log_page_image(_busy_leaf(2, range(5, 10)))  # never flushed
        split.log_keys_removed(old, split_key=5)
        split.log_page_image(_inner(3, [5], [1, 2]))
        split.log_page_free(7)
        split.commit()
        storage.truncate_dc_log(cut)  # drops page 7's image, keeps its free
        return storage

    @staticmethod
    def _index(storage):
        return {
            page_id: [(type(r).__name__, r.dlsn) for r in records]
            for page_id, records in storage._dc_log_by_page.items()
        }

    @staticmethod
    def _states(storage):
        return {
            page_id: image_fields(stable_page_state(storage, page_id))
            for page_id in (1, 2, 3, 7, 9, 11)
        }

    @pytest.mark.parametrize("compact", [False, True])
    def test_index_after_replay_and_after_compaction(self, tmp_path, compact):
        path = tmp_path / "j.bin"
        storage = self._volume(path)
        index, states = self._index(storage), self._states(storage)
        assert set(index) == {1, 2, 3, 7}
        assert [r.key for r in stable_page_state(storage, 2).records] == list(range(5, 10))
        assert [r.key for r in stable_page_state(storage, 1).records] == list(range(5))
        assert states[7] is None and states[11] is None
        if compact:
            assert storage.compact() > 0
            assert self._index(storage) == index
        storage.close()

        reopened = JournalStorage(str(path))
        assert self._index(reopened) == index
        assert self._states(reopened) == states
        assert stable_page_state(reopened, 9) is reopened.read_page(9)
        # A page named only by a DC-log image is fetchable after restart.
        pool = BufferPool(
            reopened, loader=lambda page_id: stable_page_state(reopened, page_id)
        )
        page = pool.fetch(2)
        assert isinstance(page, LeafPage) and page.keys() == list(range(5, 10))
        assert pool.fetch(7) is None
        reopened.close()
