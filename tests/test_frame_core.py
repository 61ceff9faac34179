"""The fd-free halves of a connection (docs/architecture.md §10, §18).

:class:`~repro.net.transport.ClientCore` is a client connection with the
I/O taken out, and :class:`~repro.net.rpc.FrameReader` is the one
length-prefix reassembly loop both ends run (the server's
:class:`~repro.net.eventloop.Peer` is one).  Everything here drives them
with byte strings: no socket, no pipe, no thread.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.api import ControlAck
from repro.net import rpc, wire
from repro.net.eventloop import Peer
from repro.net.rpc import FRAME_LEN, MAX_FRAME, ForceLogRequest, RsspHint, StatsRequest
from repro.net.transport import _COALESCE_BYTES, ClientCore


def _wire(kind: int, seq: int, payload: object) -> bytes:
    """One frame as a server writes it: length prefix, packed frame."""
    data = rpc.pack_frame(kind, seq, payload)
    return FRAME_LEN.pack(len(data)) + data


def _peer(frames: list) -> Peer:
    """The server's connection object, off any loop: frames land in
    ``frames`` as its handler would get them."""
    return Peer(None, -1, None, lambda peer, frame: frames.append(frame), None)


def _frames_of(blob: bytes) -> list:
    frames: list = []
    _peer(frames).feed(blob)
    return [rpc.unpack_frame(frame) for frame in frames]


class TestReplies:
    def test_out_of_order_replies_fill_their_own_slots(self):
        core = ClientCore()
        slots = [core.open() for _ in range(4)]
        assert [slot.seq for slot in slots] == [1, 2, 3, 4]
        core.feed(
            _wire(rpc.REPLY, 3, ControlAck(tc_id=30))
            + _wire(rpc.REPLY, 1, ControlAck(tc_id=10))
        )
        assert [slot.done() for slot in slots] == [True, False, True, False]
        core.feed(_wire(rpc.REPLY, 4, ControlAck(tc_id=40)))
        core.feed(_wire(rpc.REPLY, 2, ControlAck(tc_id=20)))
        assert [slot.result().tc_id for slot in slots] == [10, 20, 30, 40]
        assert core.slots == {}

    def test_a_forgotten_slot_drops_its_late_reply(self):
        core = ClientCore()
        late, next_one = core.open(), core.open()
        core.forget(late.seq)
        core.feed(_wire(rpc.REPLY, late.seq, ControlAck(tc_id=1)))
        core.feed(_wire(rpc.REPLY, next_one.seq, ControlAck(tc_id=2)))
        assert not late.done()
        assert next_one.result().tc_id == 2

    def test_eof_strands_every_open_slot_with_none(self):
        core = ClientCore()
        answered = core.open()
        stranded = [core.open() for _ in range(3)]
        core.feed(_wire(rpc.REPLY, answered.seq, ControlAck(tc_id=1)))
        assert core.strand() is True
        assert all(slot.done() and slot.result() is None for slot in stranded)
        assert answered.result().tc_id == 1
        assert core.strand() is False  # once
        after = core.open()
        assert after.done() and after.result() is None
        assert core.slots == {}


class TestServerInitiated:
    def test_server_requests_and_pushes_come_out_in_order(self):
        core = ClientCore()
        slot = core.open()
        force = ForceLogRequest(tc_id=1, lsn=9)
        hint = RsspHint(tc_id=0, dc_name="dc1", lsn=4)
        core.feed(
            _wire(rpc.SERVER_REQUEST, 5, force)
            + _wire(rpc.REPLY, slot.seq, ControlAck(tc_id=1))
            + _wire(rpc.PUSH, 0, hint)
        )
        assert slot.done()
        assert core.inbox == [(rpc.SERVER_REQUEST, 5, force), (rpc.PUSH, 0, hint)]


class TestFraming:
    @pytest.mark.parametrize("length", [-1, MAX_FRAME + 1])
    def test_a_bad_length_prefix_is_a_decode_error(self, length):
        for reader in (ClientCore(), _peer([])):
            with pytest.raises(wire.WireDecodeError):
                reader.feed(FRAME_LEN.pack(length) + b"\0" * 8)

    def test_garbage_inside_a_frame_is_a_decode_error(self):
        core = ClientCore()
        with pytest.raises(wire.WireError):
            core.feed(FRAME_LEN.pack(3) + b"\xffzz")

    @settings(max_examples=40, deadline=None)
    @given(
        tags=st.lists(st.integers(0, 2**40), min_size=1, max_size=5),
        cuts=st.lists(st.integers(0, 400), max_size=6),
    )
    def test_any_split_delivers_the_same_frames(self, tags, cuts):
        """A multi-frame blob cut at every byte offset (and at random
        sets of offsets) comes out frame for frame, through the client
        core and through the server's Peer alike."""
        blob = b"".join(
            _wire(rpc.REPLY, seq, StatsRequest(tc_id=tag))
            for seq, tag in enumerate(tags, start=1)
        )
        expected = _frames_of(blob)
        assert [frame[1] for frame in expected] == list(range(1, len(tags) + 1))
        splits = [(k,) for k in range(len(blob) + 1)]
        splits.append(tuple(sorted({cut % (len(blob) + 1) for cut in cuts})))
        for offsets in splits:
            pieces = [blob[a:b] for a, b in zip((0, *offsets), (*offsets, len(blob)))]
            frames: list = []
            peer = _peer(frames)
            core = ClientCore()
            slots = [core.open() for _ in tags]
            for piece in pieces:
                peer.feed(piece)
                core.feed(piece)
            assert [rpc.unpack_frame(frame) for frame in frames] == expected
            assert [slot.result() for slot in slots] == [frame[2] for frame in expected]

    def test_a_frame_fed_from_inside_delivery_keeps_arrival_order(self):
        """A handler that pumps its loop makes the nested read feed the
        same reader: the frames still held are delivered first, each
        once."""
        got: list = []
        later = FRAME_LEN.pack(1) + b"D"

        def on_frame(peer, frame):
            got.append(frame)
            if frame == b"A":
                peer.feed(later)

        peer = Peer(None, -1, None, on_frame, None)
        peer.feed(b"".join(FRAME_LEN.pack(1) + name for name in (b"A", b"B", b"C")))
        assert got == [b"A", b"B", b"C", b"D"]

    def test_clear_stops_delivery_mid_blob(self):
        got: list = []

        def on_frame(peer, frame):
            got.append(frame)
            peer.clear()  # e.g. the connection was dropped for a bad frame

        peer = Peer(None, -1, None, on_frame, None)
        peer.feed(b"".join(FRAME_LEN.pack(1) + name for name in (b"A", b"B")))
        assert got == [b"A"]


class TestDeferredFrames:
    def test_deferred_frames_leave_in_submission_order(self):
        core = ClientCore()
        assert core.frame(rpc.REQUEST, 1, StatsRequest(tc_id=1), defer=True) == b""
        assert core.frame(rpc.REQUEST, 2, StatsRequest(tc_id=2), defer=True) == b""
        run = core.frame(rpc.REQUEST, 3, StatsRequest(tc_id=3))
        sent = [(seq, message.tc_id) for _kind, seq, message in _frames_of(run)]
        assert sent == [(1, 1), (2, 2), (3, 3)]
        assert core.pending == [] and core.take() == b""

    def test_take_and_the_coalescing_bound_release_the_run(self):
        core = ClientCore()
        for seq in (1, 2):
            request = StatsRequest(tc_id=seq)
            assert core.frame(rpc.REQUEST, seq, request, defer=True) == b""
        assert [f[1] for f in _frames_of(core.take())] == [1, 2]
        bulky = RsspHint(tc_id=0, dc_name="x" * 4096)
        released = b""
        seq = 0
        while not released:
            seq += 1
            released = core.frame(rpc.PUSH, seq, bulky, defer=True)
        assert len(released) >= _COALESCE_BYTES
        assert [f[1] for f in _frames_of(released)] == list(range(1, seq + 1))
        alone = StatsRequest(tc_id=0)  # nothing deferred: written as it is
        assert core.frame(rpc.REQUEST, 99, alone) == _wire(rpc.REQUEST, 99, alone)
