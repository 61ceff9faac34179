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

import pytest

from repro.common import api
from repro.common.ops import InsertOp, OpResult, OpStatus, ReadOp, UpdateOp
from repro.net import rpc, wire
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
    round trip); now it is sent for owed records only."""

    def size(owed: bool) -> int:
        request, reply = _three_op_round_trip(owed)
        frames = [
            rpc.pack_frame(rpc.REQUEST, 9, request, _full_map()),
            rpc.pack_frame(rpc.REPLY, 9, reply, _full_map()),
        ]
        assert [rpc.unpack_frame(f)[2] for f in frames] == [request, reply]
        return sum(len(frame) for frame in frames)

    assert size(owed=False) == 482
    # The images themselves, twice (100 bytes + a 2-byte string header in
    # place of a 1-byte None), no more.
    assert size(owed=True) - size(owed=False) == 2 * 101


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


def test_unknown_fast_id_raises_typed_error():
    # A peer that negotiated an id we do not know (impossible through
    # negotiate(), but bugs and byte flips happen) must fail loudly.
    frame = encode_fast_frame(rpc.PUSH, 1, api.ControlAck(tc_id=1), {api.ControlAck: 999})
    with pytest.raises(UnknownTypeError):
        decode_fast_frame(frame)


def test_tagged_frames_still_unpack_alongside_fast():
    message = api.ControlAck(tc_id=4)
    assert rpc.unpack_frame(rpc.pack_frame(rpc.REPLY, 8, message)) == (
        rpc.REPLY, 8, message,
    )


# -- negotiation: version skew degrades to tagged, loudly not wrongly ---------


def test_negotiation_is_exact_intersection():
    vocab = fast_vocabulary()
    assert len(vocab) == len(wire._FAST_NAMES)
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
    """A peer one version back advertises ``PerformOperation`` without the
    ``want_prior`` field (and ``OpStatus`` without ``UNSTABLE``): those
    two leave the fast map, everything else stays fast, and the envelope
    still round-trips — the drifted types nest tagged inside fast frames.
    What the old peer sends, tagged and one field short, decodes with the
    field defaulted."""
    import zlib

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
    assert [fid for fid, _, _ in vocab] == list(range(1, len(vocab) + 1))
