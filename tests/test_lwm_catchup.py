"""A low-water mark touches no cached page (Section 5.1.2): the buffer
pool records it, and each cached page catches up when it is next observed.

The invariant is eager-equivalence.  A seeded stream runs through two DCs
with a small pool: the DC as it ships, and a reference whose ``note_lwm``
walks every cached page at each mark and raises its abLSN there and then
(how marks were applied before).  The stream holds envelopes from two TCs,
marks, end-of-stable-log notices, checkpoints, page images read,
splits, evictions with reloads, delete runs that consolidate leaves (the horizon guard), TC-crash
resets in ``DROP_AFFECTED`` and ``RECORD_RESET`` and a DC crash with
restart.  After every step both DCs must answer alike, every cached page's
abLSNs as its next observation would read them must be equal, and so must
every page image written to disk and every DC-log record.
"""

from __future__ import annotations

import random

import pytest

from repro.common.api import (
    BatchedPerform,
    CheckpointRequest,
    EndOfStableLog,
    LowWaterMark,
    PerformOperation,
    RestartBegin,
)
from repro.common.config import DcConfig
from repro.common.ops import DeleteOp, InsertOp, UpdateOp
from repro.dc.data_component import DataComponent
from repro.storage.buffer import ResetMode
from repro.storage.page import LeafPage
from tests.conftest import image_fields

TCS = (1, 2)
KEYS = 400


def _eager(pool) -> None:
    """Make ``pool`` walk every cached page at each mark, keeping the marks
    to itself: its pages never see one to catch up to."""
    lwms: dict[int, int] = {}
    crash = pool.crash

    def note_lwm(tc_id, lwm):
        if lwm <= lwms.get(tc_id, 0):
            return
        lwms[tc_id] = lwm
        for page_id in pool.cached_ids():
            ablsn = pool.cached_page(page_id)._ablsns.get(tc_id)
            if ablsn is not None:
                ablsn.advance_low_water(lwm)

    def crashed():
        crash()
        lwms.clear()

    pool.note_lwm = note_lwm
    pool.lwm_for = lambda tc_id: lwms.get(tc_id, 0)
    pool.crash = crashed


def _dc(eager: bool) -> tuple[DataComponent, list]:
    dc = DataComponent("dc", config=DcConfig(page_size=512, buffer_capacity=12))
    written: list = []
    write_page, commit = dc.storage.write_page, dc.dclog.commit

    def recording_write(image):
        written.append(("page", image_fields(image)))
        return write_page(image)

    def recording_commit(kind, records):
        written.append(("dclog", kind, [_record(r) for r in records]))
        return commit(kind, records)

    dc.storage.write_page = recording_write
    dc.dclog.commit = recording_commit
    for tc_id in TCS:
        dc.register_tc(tc_id, force_log=lambda lsn, images: lsn)
    dc.create_table("t")
    if eager:
        _eager(dc.buffer)
    return dc, written


def _record(record) -> tuple:
    fields = dict(vars(record)) if hasattr(record, "__dict__") else {}
    image = fields.pop("image", None)
    return type(record).__name__, sorted(fields.items(), key=str), image_fields(image)


def observed(dc: DataComponent) -> dict:
    """Every cached page's keys and abLSNs as its next observation reads
    them, computed without observing (which would catch the page up)."""
    pool = dc.buffer
    view = {}
    for page_id in sorted(pool.cached_ids()):
        page = pool.cached_page(page_id)
        ablsns = {}
        for tc_id, ablsn in sorted(page._ablsns.items()):
            low, included = ablsn.low_water, set(ablsn.included)
            mark = pool.marks.latest.get(tc_id)
            if mark is not None and mark[0] > page.marks_seen and mark[1] > low:
                low = mark[1]
                included = {lsn for lsn in included if lsn > low}
            ablsns[tc_id] = (low, sorted(included))
        keys = page.keys() if isinstance(page, LeafPage) else page.children
        view[page_id] = (keys, ablsns)
    return view


def stream(seed: int, steps: int = 700):
    """Seeded steps: ``(kind, payload)`` pairs every DC gets alike."""
    rng = random.Random(seed)
    last = {tc: 0 for tc in TCS}  # last LSN issued
    stable = {tc: 0 for tc in TCS}  # last EOSL sent
    marked = {tc: 0 for tc in TCS}
    for step in range(steps):
        tc = rng.choice(TCS)
        roll = rng.random()
        if roll < 0.45 or step < 30:
            ops = []
            for _ in range(rng.randrange(1, 5)):
                last[tc] += 1
                key = rng.randrange(KEYS)
                op = rng.choice(
                    (
                        InsertOp("t", key, "v" * rng.randrange(20, 100)),
                        InsertOp("t", key, "i" * rng.randrange(20, 100)),
                        UpdateOp("t", key, "u" * rng.randrange(4, 100)),
                        DeleteOp("t", key),
                    )
                )
                ops.append(PerformOperation(tc_id=tc, op_id=last[tc], op=op))
            yield "message", BatchedPerform(tc_id=tc, ops=tuple(ops))
        elif roll < 0.52:
            # A delete run: empties part of a leaf, so it consolidates.
            first = rng.randrange(KEYS - 24)
            ops = []
            for key in range(first, first + rng.randrange(6, 24)):
                last[tc] += 1
                ops.append(
                    PerformOperation(tc_id=tc, op_id=last[tc], op=DeleteOp("t", key))
                )
            yield "message", BatchedPerform(tc_id=tc, ops=tuple(ops))
        elif roll < 0.72:
            if stable[tc] > marked[tc]:
                marked[tc] = rng.randint(marked[tc] + 1, stable[tc])
                yield "message", LowWaterMark(tc_id=tc, lwm=marked[tc])
        elif roll < 0.85:
            stable[tc] = rng.choice((rng.randint(stable[tc], last[tc]), last[tc]))
            yield "message", EndOfStableLog(tc_id=tc, eosl=stable[tc])
        elif roll < 0.9:
            yield "message", CheckpointRequest(tc_id=tc, new_rssp=marked[tc] + 1)
        elif roll < 0.96:
            # The TC crashes: its volatile tail is lost and its LSNs above
            # the stable log are issued again.
            mode = rng.choice((ResetMode.DROP_AFFECTED, ResetMode.RECORD_RESET))
            last[tc] = stable[tc]
            marked[tc] = min(marked[tc], stable[tc])
            yield "message", RestartBegin(
                tc_id=tc, stable_lsn=stable[tc], reset_mode=mode.value
            )
        elif roll < 0.98:
            # Something reads one cached page's image (as a flush would).
            yield "image", rng.randrange(1 << 16)
        else:
            yield "dc_crash", None


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_lazy_catch_up_equals_the_eager_walk(seed):
    lazy, lazy_written = _dc(eager=False)
    eager, eager_written = _dc(eager=True)
    kinds = set()
    for index, (kind, payload) in enumerate(stream(seed)):
        if kind == "dc_crash":
            for dc in (lazy, eager):
                dc.crash()
                dc.recover(notify_tcs=False)
        elif kind == "image":
            images = []
            for dc in (lazy, eager):
                cached = dc.buffer.cached_ids()
                page = dc.buffer.cached_page(cached[payload % len(cached)])
                images.append(image_fields(page.snapshot()))
            assert images[0] == images[1], index
        else:
            replies = [dc.handle(payload) for dc in (lazy, eager)]
            assert replies[0] == replies[1], (index, payload)
            kind = type(payload).__name__
        kinds.add(kind)
        assert observed(lazy) == observed(eager), (index, kind)
        assert lazy_written == eager_written, (index, kind)

    def work(dc):
        return {
            name: count
            for name, count in dc.metrics.counters().items()
            if name.split(".")[0] in ("dc", "btree", "buffer", "systxn")
            and name != "buffer.lwm_catchups"
        }

    assert work(lazy) == work(eager)
    counters = lazy.metrics.counters()
    # The stream reached what it is meant to cover.
    assert kinds >= {
        "BatchedPerform",
        "LowWaterMark",
        "EndOfStableLog",
        "CheckpointRequest",
        "RestartBegin",
        "image",
        "dc_crash",
    }
    for name in (
        "buffer.lwm_catchups",
        "buffer.evictions",
        "buffer.misses",
        "btree.leaf_splits",
        "btree.consolidations",
        "buffer.reset_pages_dropped",
        "buffer.reset_pages_record_level",
    ):
        assert counters.get(name, 0) > 0, name
    assert eager.metrics.get("buffer.lwm_catchups") == 0
    assert any(entry[0] == "page" for entry in lazy_written)
