"""Delta page frames of the DC server journal (net/journal.py, §10).

A leaf whose image the journal already holds is journalled as what
changed — the slots that are no longer the *same object* as the base's,
and the keys that went — and rebuilt from that base on replay.  The model
test drives a journal with randomly built leaves (put / remove / split /
merge, frees, re-allocations, inner pages, compactions), reopens a copy of
the file at every frame boundary and at a torn cut inside every frame,
and requires the reopened volume to equal, field by field, what the live
one held at that point.  The rest pins which frame each situation
produces and what a delta costs.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.common.records import TOMBSTONE, VersionedRecord
from repro.net.journal import _HEADER, _TAG_DELTA, _TAG_PAGE, JournalStorage
from repro.storage.page import InnerPage, LeafPage
from tests.conftest import image_fields
from tests.test_journal_torn_tail import _frames


def volume(storage) -> dict:
    """Everything a replay must bring back, in a form ``==`` compares.
    ``repr`` of the records on top of :func:`image_fields`, because ``==``
    alone calls ``1``, ``1.0`` and ``True`` the same value."""
    return {
        "next": storage._next_page_id,
        "pages": {
            page_id: (
                image_fields(storage.read_page(page_id)),
                repr(storage.read_page(page_id).records),
            )
            for page_id in storage.page_ids()
        },
    }


def frames(path) -> list[tuple[int, int, int, object]]:
    """``(start, end, tag, payload)`` of every frame in the file."""
    return [
        (start, start + _HEADER.size + length, *pickle.loads(frame))
        for start, length, _crc, frame in _frames(path)
    ]


def page_frames(path) -> list[tuple[int, int, int, object]]:
    return [frame for frame in frames(path) if frame[2] in (_TAG_PAGE, _TAG_DELTA)]


def tags(path) -> list[int]:
    return [tag for _s, _e, tag, _p in page_frames(path)]


def reopened(tmp_path, data: bytes) -> dict:
    copy = tmp_path / "copy.bin"
    copy.write_bytes(data)
    storage = JournalStorage(str(copy))
    try:
        return volume(storage)
    finally:
        storage.close()


def full_leaf(page_id: int, count: int = 64, width: int = 48) -> LeafPage:
    """A leaf of ~4 KiB: ``count`` records of ``width``-byte values."""
    leaf = LeafPage(page_id)
    for key in range(count):
        leaf.put(VersionedRecord(key, f"{key:0{width}d}", owner_tc=1))
    leaf.ablsn_for(1).include(7)
    return leaf


# -- the model -------------------------------------------------------------------


class _Model:
    """Live leaves over one journal, and what the journal should hold
    after each of its frames."""

    def __init__(self, path, seed: int) -> None:
        self.path = path
        self.rng = random.Random(seed)
        self.storage = JournalStorage(str(path))
        self.leaves: dict[int, LeafPage] = {}
        self.freed: list[int] = []
        #: file size -> volume, for every frame boundary of this segment
        self.expected: dict[int, dict] = {0: volume(self.storage)}
        #: where the frames appended since the last compaction begin
        self.segment_start = 0
        self.next_key = 0

    def note(self) -> None:
        self.expected[self.path.stat().st_size] = volume(self.storage)

    def record(self, key) -> VersionedRecord:
        rng = self.rng
        value = rng.choice([key, float(key), f"v{key}" * rng.randint(1, 6), None])
        record = VersionedRecord(key, value, owner_tc=rng.randint(0, 2))
        if rng.random() < 0.3:
            record = record.set_pending(rng.choice([TOMBSTONE, "p", 0, False]))
        if rng.random() < 0.2:
            record = record._replace(commit_seq=3, history=((1, "h"), (2, TOMBSTONE)))
        return record

    def new_leaf(self) -> LeafPage:
        if self.freed and self.rng.random() < 0.7:
            page_id = self.freed.pop()  # re-allocation of a freed id
        else:
            page_id = self.storage.allocate_page_id()
            self.note()
        leaf = LeafPage(page_id)
        for _ in range(self.rng.randint(0, 12)):
            self.next_key += 1
            leaf.put(self.record(self.next_key))
        self.leaves[page_id] = leaf
        return leaf

    def step(self) -> None:
        rng = self.rng
        leaf = rng.choice(list(self.leaves.values())) if self.leaves else None
        move = rng.random()
        if leaf is None or move < 0.08:
            leaf = self.new_leaf()
        elif move < 0.40:
            for _ in range(rng.randint(1, 3)):
                if leaf.record_count() and rng.random() < 0.6:
                    old = leaf.get(rng.choice(leaf.keys()))
                    leaf.put(rng.choice([self.record(old.key), old, old.set_committed(1.0)]))
                else:
                    self.next_key += 1
                    leaf.put(self.record(self.next_key))
        elif move < 0.50 and leaf.record_count():
            for key in rng.sample(leaf.keys(), rng.randint(1, leaf.record_count())):
                leaf.remove(key)
        elif move < 0.58 and leaf.record_count() >= 2:
            right = LeafPage(self.storage.allocate_page_id())
            self.note()
            right.absorb(leaf.extract_from(leaf.choose_split_key()))
            right.ablsns = {tc: ab.snapshot() for tc, ab in leaf.ablsns.items()}
            self.leaves[right.page_id] = right
            self.write(right)
        elif move < 0.66 and len(self.leaves) >= 2:
            victim = rng.choice([p for p in self.leaves.values() if p is not leaf])
            leaf.absorb(victim.records_in_order())
            self.free(victim.page_id)
        elif move < 0.72:
            self.free(leaf.page_id)
            return
        elif move < 0.76:
            inner = InnerPage(self.storage.allocate_page_id())
            self.note()
            inner.separators = [10, 20]
            inner.children = [1, 2, 3]
            self.storage.write_page(inner.snapshot())
            self.note()
            return
        elif move < 0.80:
            self.storage.write_metadata("m", rng.random())
            self.note()
            return
        leaf.ablsn_for(rng.randint(1, 2)).include(rng.randint(1, 500))
        leaf.dlsn += rng.randint(0, 1)
        self.write(leaf)

    def write(self, leaf: LeafPage) -> None:
        self.storage.write_page(leaf.snapshot())
        self.note()

    def free(self, page_id: int) -> None:
        del self.leaves[page_id]
        self.storage.free_page(page_id)
        self.freed.append(page_id)
        self.note()

    def check_segment(self, tmp_path) -> int:
        """Reopen at every frame boundary of this segment, and torn at
        four cuts inside every frame; returns the frames checked."""
        data = self.path.read_bytes()
        previous = self.expected[self.segment_start]
        checked = 0
        for start, end, _tag, _payload in frames(self.path):
            if start < self.segment_start:
                continue  # the compacted prefix: swapped in whole
            assert reopened(tmp_path, data[:end]) == self.expected[end]
            for cut in (start + 3, start + _HEADER.size + 1, (start + end) // 2, end - 1):
                assert reopened(tmp_path, data[:cut]) == previous
            previous = self.expected[end]
            checked += 1
        assert previous == volume(self.storage)
        return checked

    def compact(self) -> None:
        before = volume(self.storage)
        self.storage.compact()
        assert volume(self.storage) == before
        assert _TAG_DELTA not in tags(self.path)  # compaction ends every chain
        self.segment_start = self.path.stat().st_size
        self.expected = {self.segment_start: before}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_reopened_volume_equals_the_live_one_at_every_cut(tmp_path, seed):
    path = tmp_path / "j.bin"
    model = _Model(path, seed)
    checked = deltas = 0
    for _segment in range(3):
        for _ in range(60):
            model.step()
        deltas += tags(path).count(_TAG_DELTA)
        checked += model.check_segment(tmp_path)
        model.compact()
    live = volume(model.storage)
    model.storage.close()
    assert reopened(tmp_path, path.read_bytes()) == live
    assert checked > 150 and deltas > 30  # the run did write delta frames


# -- which frame, and what it costs ----------------------------------------------


class TestFrameChoice:
    def journal(self, tmp_path):
        path = tmp_path / "j.bin"
        storage = JournalStorage(str(path))
        for _ in range(3):
            storage.allocate_page_id()  # ids 0-2 are ours to write
        return path, storage

    def test_first_write_inner_page_and_reallocation_are_whole_images(self, tmp_path):
        path, storage = self.journal(tmp_path)
        leaf = full_leaf(1, count=10)
        storage.write_page(leaf.snapshot())  # first write: no base
        inner = InnerPage(2)
        inner.separators, inner.children = [5], [1, 3]
        storage.write_page(inner.snapshot())
        storage.write_page(inner.snapshot())  # unchanged, but an inner page
        storage.free_page(1)
        storage.write_page(leaf.snapshot())  # re-allocated: the base went with the free
        assert tags(path) == [_TAG_PAGE] * 4
        storage.close()

    def test_more_than_half_changed_is_a_whole_image(self, tmp_path):
        path, storage = self.journal(tmp_path)
        leaf = full_leaf(1, count=10)
        storage.write_page(leaf.snapshot())
        for key in range(4):  # 4 of 10: a delta
            leaf.put(leaf.get(key).set_committed("x"))
        storage.write_page(leaf.snapshot())
        for key in range(6):  # 6 of 10: an image
            leaf.put(leaf.get(key).set_committed("y"))
        storage.write_page(leaf.snapshot())
        for key in range(3):  # 3 removed + 2 changed of the 7 left: an image
            leaf.remove(key)
        leaf.put(leaf.get(8).set_committed("z"))
        leaf.put(leaf.get(9).set_committed("z"))
        storage.write_page(leaf.snapshot())
        assert tags(path) == [_TAG_PAGE, _TAG_DELTA, _TAG_PAGE, _TAG_PAGE]
        live = volume(storage)
        storage.close()
        assert reopened(tmp_path, path.read_bytes()) == live

    def test_unchanged_reflush_is_an_empty_delta(self, tmp_path):
        path, storage = self.journal(tmp_path)
        leaf = full_leaf(1)
        storage.write_page(leaf.snapshot())
        leaf.ablsn_for(1).include(99)  # only the header moved
        storage.write_page(leaf.snapshot())
        (_image, (_s, _e, tag, payload)) = page_frames(path)
        assert tag == _TAG_DELTA
        *_header, changed, removed = payload
        assert changed == [] and removed == []
        live = volume(storage)
        storage.close()
        assert reopened(tmp_path, path.read_bytes()) == live

    def test_one_record_change_is_under_a_tenth_of_the_image(self, tmp_path):
        path, storage = self.journal(tmp_path)
        leaf = full_leaf(1)
        assert 3800 <= leaf.used_bytes() <= 4096
        storage.write_page(leaf.snapshot())
        leaf.put(leaf.get(30).set_committed("y" * 48))
        storage.write_page(leaf.snapshot())
        (i_start, i_end, _t, _p), (d_start, d_end, tag, payload) = page_frames(path)
        assert tag == _TAG_DELTA
        assert payload[5] == [tuple(leaf.get(30))]  # field tuples, no classes
        assert b"VersionedRecord" not in path.read_bytes()[d_start:d_end]
        assert (d_end - d_start) * 10 < i_end - i_start
        storage.close()

    def test_equal_is_not_same_when_the_type_differs(self, tmp_path):
        """``1 == 1.0 == True``: a slot re-put with an equal value of
        another type is journalled, and replays as what was written."""
        path, storage = self.journal(tmp_path)
        leaf = full_leaf(1, count=10)
        leaf.put(VersionedRecord(3, 1, owner_tc=1))
        storage.write_page(leaf.snapshot())
        for value in (1.0, True):
            leaf.put(leaf.get(3).set_committed(value))
            storage.write_page(leaf.snapshot())
        storage.close()
        back = JournalStorage(str(path))
        assert back.read_page(1).records[3].committed is True
        back.close()

    def test_torn_delta_is_dropped_and_its_base_survives(self, tmp_path):
        path, storage = self.journal(tmp_path)
        leaf = full_leaf(1, count=10)
        storage.write_page(leaf.snapshot())
        base = volume(storage)
        leaf.put(leaf.get(2).set_committed("torn away"))
        storage.write_page(leaf.snapshot())
        storage.close()
        (_i, (d_start, d_end, tag, _p)) = page_frames(path)
        assert tag == _TAG_DELTA
        path.write_bytes(path.read_bytes()[: (d_start + d_end) // 2])
        back = JournalStorage(str(path))
        assert volume(back) == base
        assert path.stat().st_size == d_start
        # ... and a page rebuilt from the replayed base is journalled as a
        # delta on it again.
        leaf = back.read_page(1).materialize()
        leaf.put(leaf.get(2).set_committed("torn away"))
        back.write_page(leaf.snapshot())
        assert tags(path) == [_TAG_PAGE, _TAG_DELTA]
        assert back.read_page(1).records[2].committed == "torn away"
        back.close()

    def test_every_frame_is_flushed_before_write_page_returns(self, tmp_path):
        path, storage = self.journal(tmp_path)
        leaf = full_leaf(1, count=10)
        sizes = []
        for key in range(3):
            leaf.put(leaf.get(key).set_committed("w"))
            storage.write_page(leaf.snapshot())
            sizes.append(path.stat().st_size)  # no close, no explicit flush
        assert sizes == [end for _s, end, _t, _p in page_frames(path)]
        storage.close()
