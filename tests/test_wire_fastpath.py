"""The fast-path codec: same messages, fewer bytes, never a wrong decode.

The fast form (§17) drops per-field name tables for Hello-negotiated
numeric type ids and positional fields, so three properties carry the
whole design:

- **equivalence** — every type in the fast vocabulary decodes to the
  exact same value through the fast frame as through the tagged form;
- **integrity** — a truncated or corrupted fast frame raises
  :class:`~repro.net.wire.WireDecodeError`, *never* a wrong message
  (the frame CRC is checked before any payload byte is interpreted);
- **negotiation** — the fast map is the intersection of both peers'
  ``(id, name, signature)`` triples, so version skew (missing type,
  renamed type, drifted field layout, malformed advertisement) degrades
  to the tagged form instead of misdecoding positionally.
"""

from __future__ import annotations

import dataclasses
import enum
import random
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import api
from repro.common.ops import (
    IncrementOp,
    InsertOp,
    OpResult,
    OpStatus,
    ReadOp,
    UpdateOp,
)
from repro.common.records import KEY_MAX, KEY_MIN, TOMBSTONE, RecordView
from repro.net import rpc, tcrpc, wire
from repro.net.wire import (
    FAST_MAGIC,
    UnknownTypeError,
    WireDecodeError,
    decode_fast_frame,
    encode_fast_frame,
    fast_vocabulary,
    negotiate,
)
from tests.test_wire import _obj_frame, _sample_for


def _full_map() -> dict:
    """Both peers at the same version: every vocabulary entry negotiates."""
    return negotiate(fast_vocabulary())


def _fast_types() -> list[type]:
    fast_vocabulary()  # bootstrap the registry
    return [cls for _, cls in sorted(wire._FAST_BY_ID.items())]


def _sample_instance(cls):
    if isinstance(cls, type) and issubclass(cls, enum.Enum):
        return list(cls)[-1]
    kwargs = {f.name: _sample_for(cls, f) for f in dataclasses.fields(cls)}
    return cls(**kwargs)


def _big_batch() -> api.BatchedPerform:
    ops = tuple(
        api.PerformOperation(
            tc_id=1, op_id=i, op=ReadOp(table="t", key=i), eosl=i
        )
        for i in range(1, 9)
    )
    return api.BatchedPerform(tc_id=1, ops=ops, eosl=8)


# -- equivalence --------------------------------------------------------------


@pytest.mark.parametrize("cls", _fast_types(), ids=lambda c: c.__name__)
def test_fast_and_tagged_decode_identically(cls):
    value = _sample_instance(cls)
    tagged = wire.decode(wire.encode(value))
    frame = encode_fast_frame(rpc.PUSH, 9, value, _full_map())
    assert frame[0] == FAST_MAGIC
    kind, seq, fast = decode_fast_frame(frame)
    assert (kind, seq) == (rpc.PUSH, 9)
    assert fast == tagged == value


def _hot_vocabulary() -> list[object]:
    """The traffic the data plane carries most, in its real shapes: 8-op
    envelopes of 24-byte values, a 20-row scan reply, the TC tier's
    per-transaction control messages and an RSSP hint."""

    def op_for(i: int):
        if i % 4 == 0:
            return InsertOp(table="t", key=i, value="x" * 24)
        if i % 4 == 1:
            return UpdateOp(table="t", key=i, value="y" * 24)
        if i % 4 == 2:
            return IncrementOp(table="t", key=i, delta=1)
        return ReadOp(table="t", key=i)

    return [
        api.BatchedPerform(
            tc_id=1,
            ops=tuple(
                api.PerformOperation(tc_id=1, op_id=i, op=op_for(i), eosl=i)
                for i in range(1, 9)
            ),
            eosl=8,
        ),
        api.BatchedReply(
            tc_id=1,
            replies=tuple(
                api.OperationReply(tc_id=1, op_id=i, result=OpResult.okay("z" * 24))
                for i in range(1, 9)
            ),
        ),
        api.OperationReply(
            tc_id=1,
            op_id=3,
            result=OpResult(
                status=OpStatus.OK,
                records=tuple(RecordView(key=i, value="v" * 24) for i in range(20)),
            ),
        ),
        tcrpc.TxnWrite(
            tc_id=1, txn_id=42, verb="insert", table="t", key=7, value="v" * 24
        ),
        tcrpc.TxnReadReply(tc_id=1, txn_id=42, found=True, value="v" * 24),
        tcrpc.TxnCommit(tc_id=1, txn_id=42),
        tcrpc.TxnAck(tc_id=1, txn_id=42),
        rpc.RsspHint(tc_id=1, dc_name="dc1", lsn=12345),
    ]


def test_hot_vocabulary_round_trips_both_ways():
    fast = _full_map()
    assert fast, "the full vocabulary must self-negotiate"
    scratch = bytearray()
    for message in _hot_vocabulary():
        tagged = rpc.unpack_frame(rpc.pack_frame(rpc.PUSH, 7, message))
        fastrt = rpc.unpack_frame(rpc.pack_frame(rpc.PUSH, 7, message, fast, scratch))
        assert tagged == fastrt == (rpc.PUSH, 7, message)


def _defaults_only_types() -> list[type]:
    """Enums and messages.  Non-message payload types (ops, RecordView)
    have their own required fields; the sampled shape above covers them."""
    return [
        cls for cls in _fast_types() if issubclass(cls, (enum.Enum, api.Message))
    ]


@pytest.mark.parametrize("cls", _defaults_only_types(), ids=lambda c: c.__name__)
def test_fast_defaults_only_shape_roundtrips(cls):
    value = list(cls)[0] if issubclass(cls, enum.Enum) else cls(tc_id=0)
    _, _, decoded = decode_fast_frame(
        encode_fast_frame(rpc.PUSH, 0, value, _full_map())
    )
    assert decoded == value


_SENTINELS = (TOMBSTONE, KEY_MIN, KEY_MAX)


def _field_values() -> list:
    """Values that are equal across types (``0 == 0.0 == False``), the
    empties a default may be, the sentinels and every enum member."""
    plain = [0, 1, -1, 2**40, 0.0, 1.0, True, False, None, "", "x", b"", (), (1,)]
    members = [m for cls in _fast_types() if issubclass(cls, enum.Enum) for m in cls]
    return plain + list(_SENTINELS) + members


@pytest.mark.parametrize(
    "cls",
    [cls for cls in _fast_types() if dataclasses.is_dataclass(cls)],
    ids=lambda c: c.__name__,
)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_field_round_trips_type_exact(cls, data):
    """Elided or sent, every field comes back as the same type: a trailing
    ``False`` where the default is ``0`` (equal, not the same) is sent."""
    values = {
        field.name: data.draw(st.sampled_from(_field_values()), label=field.name)
        for field in dataclasses.fields(cls)
    }
    message = object.__new__(cls)  # any value in any field, valid or not
    message.__dict__.update(values)
    _, _, decoded = decode_fast_frame(
        encode_fast_frame(rpc.PUSH, 1, message, _full_map())
    )
    assert type(decoded) is cls and decoded == message
    for name, value in values.items():
        got = getattr(decoded, name)
        assert type(got) is type(value), name
        if value in _SENTINELS or isinstance(value, enum.Enum):
            assert got is value, name


def test_a_defaults_only_result_is_shorter_by_its_elided_fields():
    """The common write reply: an ``OperationReply`` carrying
    ``OpResult.okay()``.  While every fast object sent all of its fields
    the frame was 32 bytes; now the result is its id and a zero count,
    so the frame is shorter by exactly what its six fields took on the
    wire (a 6-byte status enum, two 1-byte ``None``s, two 2-byte empty
    tuples, a 2-byte empty string)."""
    reply = api.OperationReply(tc_id=1, op_id=4_000, result=OpResult.okay())
    frame = rpc.pack_frame(rpc.REPLY, 9, reply, _full_map())
    assert rpc.unpack_frame(frame) == (rpc.REPLY, 9, reply)

    def sent(value) -> int:
        out = bytearray()
        wire._encode(out, value, _full_map())
        return len(out)

    fields = dataclasses.fields(OpResult)
    elided = sum(sent(getattr(reply.result, field.name)) for field in fields)
    assert elided == 6 + 1 + 1 + 2 + 2 + 2
    assert len(frame) == 32 - elided
    assert sent(reply.result) == 3  # tag, id, count 0


def test_pack_frame_selects_form_by_negotiated_map():
    message = _big_batch()
    fast = rpc.pack_frame(rpc.PUSH, 3, message, _full_map())
    tagged = rpc.pack_frame(rpc.PUSH, 3, message)
    assert fast[0] == FAST_MAGIC and tagged[0] != FAST_MAGIC
    assert rpc.unpack_frame(fast) == rpc.unpack_frame(tagged) == (
        rpc.PUSH, 3, message,
    )
    # The entire point: the hot envelope sheds its per-field name tables.
    assert len(fast) < len(tagged)


def test_values_outside_the_map_nest_tagged_inside_fast_frames():
    # Hello is deliberately not in the fast vocabulary (it is sent before
    # negotiation); inside a fast frame it falls back to the tagged form.
    hello = rpc.Hello(tc_id=0, dc_name="dc1", pid=7, fast_codec=fast_vocabulary())
    kind, seq, decoded = decode_fast_frame(
        encode_fast_frame(rpc.REQUEST, 1, hello, _full_map())
    )
    assert decoded == hello


def _three_op_round_trip(owed: bool) -> tuple:
    """The oltp mix's usual envelope — two updates and an insert of
    100-byte values — and its reply; ``owed``: the updates ask for their
    before-images (the TC did not know them)."""
    value = "v" * 100
    ops = (
        UpdateOp(table="t", key=17, value=value),
        UpdateOp(table="t", key=1_170, value=value),
        InsertOp(table="t", key=20_001, value=value),
    )
    request = api.BatchedPerform(
        tc_id=1,
        ops=tuple(
            api.PerformOperation(
                tc_id=1,
                op_id=4_000 + index,
                op=op,
                want_prior=owed and isinstance(op, UpdateOp),
            )
            for index, op in enumerate(ops)
        ),
        eosl=3_999,
    )
    reply = api.BatchedReply(
        tc_id=1,
        replies=tuple(
            api.OperationReply(
                tc_id=1,
                op_id=sub.op_id,
                result=OpResult.okay(prior=value if sub.want_prior else None),
            )
            for sub in request.ops
        ),
    )
    return request, reply


def test_prior_travels_only_when_asked():
    """``net.wire.frame_bytes_batch``: every update / delete reply used to
    carry the 100-byte before-image and nobody read it (≈ 689 B for this
    round trip); now it is sent for owed records only.  482 B while every
    fast object sent all of its fields; 421 B since trailing fields equal
    to their default stay off the wire (an ``OpResult.okay()`` is one
    count byte, a ``PerformOperation`` stops at its ``eosl``)."""

    def size(owed: bool) -> int:
        request, reply = _three_op_round_trip(owed)
        frames = [
            rpc.pack_frame(rpc.REQUEST, 9, request, _full_map()),
            rpc.pack_frame(rpc.REPLY, 9, reply, _full_map()),
        ]
        assert [rpc.unpack_frame(f)[2] for f in frames] == [request, reply]
        return sum(len(frame) for frame in frames)

    assert size(owed=False) == 421
    # Per owed update, no more than: in the reply the image (100 bytes + a
    # 2-byte string header) and the fields before it that an ``okay()``
    # leaves off, the status (a 6-byte enum) and a ``None`` value; in the
    # request ``want_prior`` and the three defaulted flags / LSN before it.
    assert size(owed=True) - size(owed=False) == 2 * ((102 + 6 + 1) + (1 + 4))


def test_scratch_buffer_reuse_yields_independent_frames():
    scratch = bytearray()
    one = rpc.pack_frame(rpc.PUSH, 1, api.ControlAck(tc_id=1), _full_map(), scratch)
    two = rpc.pack_frame(rpc.PUSH, 2, _big_batch(), _full_map(), scratch)
    # ``one`` must not have been clobbered by the buffer reuse.
    assert rpc.unpack_frame(one) == (rpc.PUSH, 1, api.ControlAck(tc_id=1))
    assert rpc.unpack_frame(two) == (rpc.PUSH, 2, _big_batch())


# -- integrity: truncation / corruption never yields a wrong message ----------


def test_fuzz_truncation_always_raises():
    frame = encode_fast_frame(rpc.PUSH, 5, _big_batch(), _full_map())
    rng = random.Random(0xF457)
    cuts = {rng.randrange(len(frame)) for _ in range(64)} | {0, 1, 4, len(frame) - 1}
    for cut in sorted(cuts):
        with pytest.raises(WireDecodeError):
            decode_fast_frame(frame[:cut])


def test_fuzz_corruption_always_raises():
    frame = encode_fast_frame(rpc.PUSH, 5, _big_batch(), _full_map())
    rng = random.Random(0xC0DE)
    for _ in range(256):
        pos = rng.randrange(len(frame))
        flip = 1 << rng.randrange(8)
        mutated = bytearray(frame)
        mutated[pos] ^= flip
        with pytest.raises(WireDecodeError):
            decode_fast_frame(bytes(mutated))


def test_fuzz_garbage_extension_always_raises():
    frame = encode_fast_frame(rpc.PUSH, 5, api.ControlAck(tc_id=2), _full_map())
    rng = random.Random(0xBEEF)
    for _ in range(64):
        junk = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 9)))
        with pytest.raises(WireDecodeError):
            decode_fast_frame(frame + junk)


def crc_framed(body: bytes) -> bytes:
    """A fast frame around hand-built ``kind | seq | payload`` bytes: the
    CRC is right, so only the payload itself can be wrong."""
    return struct.pack("<BI", FAST_MAGIC, zlib.crc32(body)) + body


def test_unknown_fast_id_raises_typed_error():
    # A peer that negotiated an id we do not know (impossible through
    # negotiate(), but bugs and byte flips happen) must fail loudly.
    for tag in (wire._T_FOBJ, wire._T_FENUM):
        for fid in (len(wire._FAST_NAMES) + 1, 0x80, 0xFF):
            frame = crc_framed(bytes((rpc.PUSH, 1, tag, fid, 1, wire._T_INT, 2)))
            with pytest.raises(UnknownTypeError):
                decode_fast_frame(frame)


def test_tagged_frames_still_unpack_alongside_fast():
    message = api.ControlAck(tc_id=4)
    assert rpc.unpack_frame(rpc.pack_frame(rpc.REPLY, 8, message)) == (
        rpc.REPLY, 8, message,
    )


# -- negotiation: version skew degrades to tagged, loudly not wrongly ---------


#: Retired messages: their names hold their ids, no class claims them.
RETIRED = ("TxnBegin", "TxnBeginReply")


def test_negotiation_is_exact_intersection():
    vocab = fast_vocabulary()
    assert len(vocab) == len(wire._FAST_NAMES) - len(RETIRED)
    full = negotiate(vocab)
    assert set(full.values()) == {fid for fid, _, _ in vocab}

    drifted = []
    for fid, name, sig in vocab:
        if name == "PerformOperation":
            sig += 1  # field layout drifted on the peer
        if name == "TxnCommit":
            name = "TxnCommitV2"  # renamed on the peer
        drifted.append((fid, name, sig))
    partial = negotiate(tuple(drifted))
    names = {cls.__name__ for cls in partial}
    assert "PerformOperation" not in names
    assert "TxnCommit" not in names
    assert len(partial) == len(full) - 2


def test_peer_without_want_prior_negotiates_down_cleanly():
    """A peer whose ``PerformOperation`` lacks the ``want_prior`` field
    (and whose ``OpStatus`` lacks ``UNSTABLE``) but is otherwise the same:
    those two leave the fast map, everything else stays fast, and the envelope
    still round-trips — the drifted types nest tagged inside fast frames.
    What the old peer sends, tagged and one field short, decodes with the
    field defaulted."""
    old_fields = [
        f.name for f in dataclasses.fields(api.PerformOperation) if f.name != "want_prior"
    ]
    old_status = [m for m in OpStatus if m is not OpStatus.UNSTABLE]
    old_sig = {
        "PerformOperation": zlib.crc32(",".join(old_fields).encode("utf-8")),
        "OpStatus": zlib.crc32(
            ",".join(f"{m.name}={m.value!r}" for m in old_status).encode("utf-8")
        ),
    }
    peer = tuple(
        (fid, name, old_sig.get(name, sig)) for fid, name, sig in fast_vocabulary()
    )
    assert peer != fast_vocabulary()
    agreed = negotiate(peer)
    dropped = set(_full_map()) - set(agreed)
    assert {cls.__name__ for cls in dropped} == {"PerformOperation", "OpStatus"}

    request, reply = _three_op_round_trip(owed=True)
    for message in (request, reply):
        frame = rpc.pack_frame(rpc.REQUEST, 5, message, agreed)
        assert frame[0] == FAST_MAGIC
        assert rpc.unpack_frame(frame) == (rpc.REQUEST, 5, message)
        assert len(frame) > len(rpc.pack_frame(rpc.REQUEST, 5, message, _full_map()))

    # The old peer's own tagged PerformOperation: no want_prior on the wire.
    sub = request.ops[2]
    old_style = _obj_frame(
        "PerformOperation", {name: getattr(sub, name) for name in old_fields}
    )
    assert wire.decode(old_style) == sub and not sub.want_prior


def test_negotiation_with_subset_peer():
    # An older peer advertising only a prefix of the vocabulary: the fast
    # map shrinks to the shared prefix, everything else goes tagged.
    subset = fast_vocabulary()[:5]
    accepted = negotiate(subset)
    assert len(accepted) == 5


def test_malformed_advertisement_degrades_to_tagged():
    assert negotiate(()) == {}
    assert negotiate(None) == {}
    assert negotiate(42) == {}
    assert negotiate(("garbage",)) == {}
    assert negotiate(((1, "PerformOperation"),)) == {}  # missing signature


def test_signature_covers_enum_values():
    # Enum signatures fingerprint name=value pairs: reordering or revaluing
    # members on one side must exclude the enum from the fast map.
    assert wire._signature(OpStatus) != wire._signature(OpResult)
    fid = next(
        fid for fid, cls in wire._FAST_BY_ID.items() if cls is OpStatus
    )
    assert wire._FAST_SIG[fid] == wire._signature(OpStatus)


def test_vocabulary_is_append_only_prefix_stable():
    """Regression pin: ids are positional in ``_FAST_NAMES``, so the first
    entries must never be renumbered (old peers negotiate by id)."""
    vocab = fast_vocabulary()
    assert vocab[0][:2] == (1, "PerformOperation")
    assert [(fid, name) for fid, name, _ in vocab] == [
        (fid, name)
        for fid, name in enumerate(wire._FAST_NAMES, start=1)
        if name not in RETIRED
    ]
    # The retired slots keep their place: nothing after them moved.
    assert dict((name, fid) for fid, name, _ in vocab)["TxnWrite"] == 25
