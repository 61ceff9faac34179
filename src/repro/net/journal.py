"""File-backed stable storage for out-of-process DCs.

The in-memory :class:`~repro.storage.disk.StableStorage` gives crash
*semantics* (atomic pages, crash separation) but lives in the process it
models — fine for simulated crashes, useless when the supervisor delivers
a real ``SIGKILL``.  :class:`JournalStorage` keeps the same interface and
in-memory read path, but additionally appends every durable mutation to a
length-prefixed frame journal on disk.  A restarted server process replays
the journal to rebuild pages, metadata, the stable DC log and the page-id
allocation high-water, then runs ordinary DC recovery on top.

Durability model: each frame is written and ``flush()``-ed before the
mutating call returns, which moves the bytes into the OS page cache — and
the OS survives the *child's* SIGKILL, which is precisely the crash the
process deployment mode injects.  Whole-machine durability would add an
``fsync`` per force; the experiments here kill processes, not kernels, so
the journal trades that cost away (documented in docs/architecture.md §10).

Frames are pickled ``(tag, payload)`` tuples behind a ``<length, crc32>``
header.  Pickle is acceptable here — unlike the TC/DC request path, the
journal is written and read only by the same trusted server binary on its
own volume.  A leaf the journal already holds is framed as what changed
since (``PageImage.delta_from``) and patched onto that image on replay;
``compact()`` writes whole images, which ends every such chain.  The
frames and their reader (:func:`read_frames`) are shared with the TC
server's log journal.  A torn tail (partial last frame) is discarded on
replay: the mutating call that wrote it never returned, so nothing
downstream depends on it — exactly torn-write = no write, the atomicity
the in-memory store promises.  The CRC is what makes torn-tail detection
*sound* rather than best-effort: a truncated pickle usually raises, but a
cut that happens to land on a self-delimiting prefix would otherwise
replay as a different, shorter frame.  A bad frame that is *not* the
tail is not dropped: replay raises
:class:`~repro.common.errors.JournalCorruptError`.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from typing import Iterator, Optional

from repro.common.errors import JournalCorruptError
from repro.common.lsn import Lsn
from repro.sim.metrics import Metrics
from repro.storage.disk import StableStorage
from repro.storage.page import PageImage, image_from_delta

#: Frame header: payload length, then CRC-32 of the payload bytes.
_HEADER = struct.Struct("<II")

_TAG_PAGE = 0
_TAG_FREE = 1
_TAG_META = 2
_TAG_LOG = 3
_TAG_TRUNC = 4
_TAG_ALLOC = 5
_TAG_DELTA = 6  # a leaf as a change to the last frame for its page id


def frame_bytes(tag: object, payload: object) -> bytes:
    """One journal frame: ``<length, crc32>`` header, pickled ``(tag, payload)``."""
    data = pickle.dumps((tag, payload), protocol=pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(len(data), zlib.crc32(data)) + data


def _whole_frame_at(data: bytes, pos: int) -> bool:
    """Is there a complete, CRC-valid frame at ``pos``?"""
    if pos + _HEADER.size > len(data):
        return False
    length, crc = _HEADER.unpack_from(data, pos)
    frame = data[pos + _HEADER.size : pos + _HEADER.size + length]
    return len(frame) == length and zlib.crc32(frame) == crc


def read_frames(path: str, metrics: Optional[Metrics] = None) -> Iterator[tuple]:
    """Yield the ``(tag, payload)`` of every frame of the journal at
    ``path`` — the one reader under the DC's :class:`JournalStorage` and
    the TC server's record journal.  A torn tail is cut off once the walk
    reaches it; damage with a whole frame after it raises (see the module
    docstring), leaving the file as found — as does a caller raising
    while it applies a frame."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return
    pos = 0
    size = len(data)
    while pos + _HEADER.size <= size:
        length, crc = _HEADER.unpack_from(data, pos)
        end = pos + _HEADER.size + length
        if end > size:
            break  # torn tail: the write never returned, drop it
        frame = data[pos + _HEADER.size : end]
        # Without the CRC a truncation landing on a valid pickle prefix
        # (or a corrupted header) would replay as a different frame.
        intact = zlib.crc32(frame) == crc
        if intact:
            try:
                tag, payload = pickle.loads(frame)
            except Exception:
                intact = False
        elif metrics is not None:
            metrics.incr("journal.crc_rejected")
        if not intact:
            if _whole_frame_at(data, end):
                raise JournalCorruptError(
                    f"{path}: bad frame at byte {pos} with a complete frame after it"
                )
            break
        yield tag, payload
        pos = end
    if pos < size:
        with open(path, "ab") as handle:
            handle.truncate(pos)


class JournalStorage(StableStorage):
    """Stable storage whose mutations also land in an on-disk journal."""

    def __init__(self, path: str, metrics: Optional[Metrics] = None) -> None:
        super().__init__(metrics)
        self._path = path
        self._file = None
        self.replayed = self._replay()
        self._file = open(path, "ab")

    # -- journaling ---------------------------------------------------------

    def _journal(self, tag: int, payload: object) -> None:
        # Callers hold self._lock, so frame order matches apply order.
        self._file.write(frame_bytes(tag, payload))
        self._file.flush()
        self.metrics.incr("journal.frames")

    def _replay(self) -> bool:
        applied = 0
        for tag, payload in read_frames(self._path, self.metrics):
            self._apply(tag, payload)
            applied += 1
        self.metrics.incr("journal.replayed_frames", applied)
        return applied > 0

    def _apply(self, tag: int, payload: object) -> None:
        if tag == _TAG_PAGE:
            image: PageImage = payload
            self._pages[image.page_id] = image
            if image.page_id >= self._next_page_id:
                self._next_page_id = image.page_id + 1
        elif tag == _TAG_DELTA:
            base = self._pages.get(payload[0])
            if base is None:
                raise JournalCorruptError(
                    f"{self._path}: delta frame for page {payload[0]} "
                    f"but no image of it before"
                )
            self._pages[payload[0]] = image_from_delta(base, payload)
        elif tag == _TAG_FREE:
            self._pages.pop(payload, None)
        elif tag == _TAG_META:
            key, value = payload
            self._metadata[key] = value
        elif tag == _TAG_LOG:
            self._extend_dc_log(payload)
        elif tag == _TAG_TRUNC:
            self._truncate_dc_log(payload)
        elif tag == _TAG_ALLOC:
            if payload >= self._next_page_id:
                self._next_page_id = payload + 1

    # -- overridden mutators ------------------------------------------------

    def allocate_page_id(self) -> int:
        with self._lock:
            page_id = self._next_page_id
            self._next_page_id += 1
            self._journal(_TAG_ALLOC, page_id)
            return page_id

    def note_allocated(self, page_id: int) -> None:
        with self._lock:
            if page_id >= self._next_page_id:
                self._next_page_id = page_id + 1
                self._journal(_TAG_ALLOC, page_id)

    def _write_page(self, image: PageImage) -> None:
        if self.faults is not None:
            from repro.sim.faults import FaultPoint

            self.faults.hit(FaultPoint.DISK_PAGE_WRITE, self.owner)
        with self._lock:
            # The base is whatever this journal last wrote for the page, so
            # the delta and the image it patches on replay cannot drift.
            delta = image.delta_from(self._pages.get(image.page_id))
            self._pages[image.page_id] = image
            if delta is None:
                self._journal(_TAG_PAGE, image)
            else:
                self._journal(_TAG_DELTA, delta)
            self.metrics.incr("disk.page_writes")
            self.metrics.observe("disk.page_bytes", image.encoded_size())

    def free_page(self, page_id: int) -> None:
        with self._lock:
            self._pages.pop(page_id, None)
            self._journal(_TAG_FREE, page_id)
            self.metrics.incr("disk.page_frees")

    def write_metadata(self, key: str, value: object) -> None:
        with self._lock:
            self._metadata[key] = value
            self._journal(_TAG_META, (key, value))

    def _append_dc_log(self, entries: list[object]) -> None:
        if self.faults is not None:
            from repro.sim.faults import FaultPoint

            self.faults.hit(FaultPoint.DISK_LOG_FORCE, self.owner)
        with self._lock:
            self._extend_dc_log(entries)
            self._journal(_TAG_LOG, list(entries))
            self.metrics.incr("disk.dclog_forces")

    def truncate_dc_log(self, keep_from_dlsn: Lsn) -> None:
        with self._lock:
            self._truncate_dc_log(keep_from_dlsn)
            self._journal(_TAG_TRUNC, keep_from_dlsn)

    # -- compaction ---------------------------------------------------------

    def compact(self) -> int:
        """Rewrite the journal as a snapshot of live state; returns bytes
        reclaimed.

        The append-only journal keeps every superseded page image and
        truncated log entry forever, so replay cost after a kill -9 grows
        with *history*; compaction rewrites it to grow with *state*.  The
        swap is atomic (write a sibling file, then ``os.replace``): a
        crash at any point leaves either the complete old journal or the
        complete new one — never a mix, never a torn volume.
        """
        with self._lock:
            before = self.journal_bytes()
            tmp_path = self._path + ".compact"
            with open(tmp_path, "wb") as tmp:
                if self._next_page_id > 0:
                    tmp.write(frame_bytes(_TAG_ALLOC, self._next_page_id - 1))
                for key, value in self._metadata.items():
                    tmp.write(frame_bytes(_TAG_META, (key, value)))
                for image in self._pages.values():
                    tmp.write(frame_bytes(_TAG_PAGE, image))
                if self._dc_log:
                    tmp.write(frame_bytes(_TAG_LOG, list(self._dc_log)))
                tmp.flush()
            if self._file is not None:
                try:
                    self._file.flush()
                    self._file.close()
                except OSError:
                    pass
            os.replace(tmp_path, self._path)
            self._file = open(self._path, "ab")
            reclaimed = max(0, before - self.journal_bytes())
            self.metrics.incr("journal.compactions")
            self.metrics.incr("journal.compacted_bytes", reclaimed)
            return reclaimed

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        if self._file is not None:
            try:
                self._file.flush()
                self._file.close()
            except OSError:
                pass
            self._file = None

    @property
    def path(self) -> str:
        return self._path

    def journal_bytes(self) -> int:
        try:
            return os.path.getsize(self._path)
        except OSError:
            return 0
