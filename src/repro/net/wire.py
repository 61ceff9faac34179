"""A compact, self-describing wire codec for the TC/DC message set.

The process deployment mode (docs/architecture.md §10) moves each DC into
its own OS process, so every :class:`~repro.common.api.Message` must cross
a real pipe as bytes.  This codec is deliberately *self-describing*: each
value carries a one-byte type tag, registered dataclasses are encoded as
``(type name, {field name: value})`` and enums as ``(type name, value)``.
That buys two properties the §4.2.1 contracts need:

- **version skew is loud, not silent** — decoding a frame that names an
  unknown message type raises :class:`UnknownTypeError`, and a known type
  carrying an unknown field raises :class:`UnknownFieldError` (both are
  :class:`WireDecodeError`).  A field the sender omitted simply takes the
  dataclass default, so adding a defaulted field is backward compatible.
- **no pickle on the request path** — frames can only decode into the
  registered message/operation vocabulary, never arbitrary objects.

Scalars use varints (zigzag for sign), so the common small ints (LSNs,
op ids) cost one or two bytes.  The sentinels ``TOMBSTONE`` / ``KEY_MIN`` /
``KEY_MAX`` get their own tags and decode back to the canonical singletons
— identity checks like ``value is TOMBSTONE`` keep working across the wire.

**The fast path** (docs/architecture.md §17).  Self-description is paid on
every hot-loop message: the type name and every field name travel as
strings, per frame.  The fast-path codec removes that for a fixed, ordered
vocabulary of hot types (:data:`_FAST_NAMES`): a compact numeric type id
plus *positional* field values, no name strings at all, and no trailing
field that equals its default.  Each such type has one generated encode
and one generated decode function (:func:`_object_codec`).  Which types may
be fast-encoded toward a peer is **negotiated at Hello time** — each side
advertises ``(id, name, field-signature)`` triples and only exact matches
are enabled — so a tagged-only or differently-versioned peer transparently
falls back to the tagged form, and a genuinely unknown type still raises
loudly.  Fast *frames* (:func:`encode_fast_frame`) carry a magic byte and
a CRC32 over the body: truncation or corruption is detected before any
positional decode is attempted, so a damaged frame raises
:class:`WireDecodeError` instead of decoding into the wrong message.
Decoding both forms is unconditional (version-bound, not negotiated);
only the *encoder* is gated by negotiation.

Registered out of the box: every ``Message`` subclass (including the
control-plane messages of :mod:`repro.net.rpc`), every
``LogicalOperation``, ``OpResult``/``RecordView`` and the enums they
embed.  Extensions register their own payload dataclasses with
:func:`register`.
"""

from __future__ import annotations

import dataclasses
import enum
import struct
import zlib
from textwrap import indent
from typing import Any, Optional

from repro.common.errors import ReproError

__all__ = [
    "WireError",
    "WireEncodeError",
    "WireDecodeError",
    "UnknownTypeError",
    "UnknownFieldError",
    "register",
    "registered_types",
    "encode",
    "decode",
    "FAST_MAGIC",
    "fast_vocabulary",
    "negotiate",
    "encode_fast_frame",
    "decode_fast_frame",
]


class WireError(ReproError):
    """Base class for codec failures."""


class WireEncodeError(WireError):
    """The value contains a type the codec does not speak."""


class WireDecodeError(WireError):
    """The frame is truncated, malformed or has trailing garbage."""


class UnknownTypeError(WireDecodeError):
    """The frame names a dataclass/enum this process has not registered."""


class UnknownFieldError(WireDecodeError):
    """A registered type arrived with a field this process does not know."""


# -- type tags ----------------------------------------------------------------

_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_STR = 0x05
_T_BYTES = 0x06
_T_TUPLE = 0x07
_T_LIST = 0x08
_T_DICT = 0x09
_T_SET = 0x0A
_T_FROZENSET = 0x0B
_T_OBJ = 0x0C
_T_ENUM = 0x0D
_T_TOMBSTONE = 0x0E
_T_KEY_MIN = 0x0F
_T_KEY_MAX = 0x10
#: Fast-path forms: a negotiated numeric type id instead of name strings,
#: and positional instead of named fields.
_T_FOBJ = 0x11
_T_FENUM = 0x12

_FLOAT = struct.Struct(">d")

#: First byte of a fast frame.  Deliberately far outside the tag range a
#: tagged top-level value can start with, so the two frame forms are
#: distinguishable from byte 0.
FAST_MAGIC = 0xFA
_FAST_HEAD = struct.Struct("<BI")  # magic byte, crc32 of the body
_FAST_HEAD_SPACE = bytes(_FAST_HEAD.size)

# -- registry -----------------------------------------------------------------

_BY_NAME: dict[str, type] = {}
_FIELDS: dict[type, tuple[str, ...]] = {}
_FIELD_SETS: dict[type, frozenset] = {}
#: Memoized per-type byte tables (built once at register time): the tagged
#: object/enum headers and the per-field name strings that used to be
#: re-encoded on every single ``encode()`` call.
_OBJ_HEAD: dict[type, bytes] = {}
_FIELD_HEAD: dict[type, tuple[bytes, ...]] = {}
_ENUM_HEAD: dict[type, bytes] = {}
_bootstrapped = False

# Canonical sentinel singletons, bound at bootstrap (they live in
# repro.common.records; binding them here avoids a per-encode import).
_TOMBSTONE: Any = None
_KEY_MIN: Any = None
_KEY_MAX: Any = None


def _enc_str(text: str) -> bytes:
    raw = text.encode("utf-8")
    out = bytearray()
    _put_uvarint(out, len(raw))
    return bytes(out) + raw


def register(cls: type) -> type:
    """Add a dataclass or enum to the wire vocabulary (idempotent).

    Names must be unique — the type name *is* the wire identifier.
    Usable as a decorator on extension payload types.
    """
    existing = _BY_NAME.get(cls.__name__)
    if existing is not None and existing is not cls:
        raise WireError(
            f"wire name collision: {cls.__name__!r} already registered "
            f"for {existing!r}"
        )
    _BY_NAME[cls.__name__] = cls
    if dataclasses.is_dataclass(cls):
        names = tuple(f.name for f in dataclasses.fields(cls))
        _FIELDS[cls] = names
        _FIELD_SETS[cls] = frozenset(names)
        head = bytearray([_T_OBJ])
        head += _enc_str(cls.__name__)
        _put_uvarint(head, len(names))
        _OBJ_HEAD[cls] = bytes(head)
        _FIELD_HEAD[cls] = tuple(_enc_str(name) for name in names)
    elif isinstance(cls, type) and issubclass(cls, enum.Enum):
        _ENUM_HEAD[cls] = bytes([_T_ENUM]) + _enc_str(cls.__name__)
    else:
        raise WireError(f"only dataclasses and enums can be registered: {cls!r}")
    return cls


def registered_types() -> dict[str, type]:
    """The current wire vocabulary (name -> type); bootstraps lazily."""
    _bootstrap()
    return dict(_BY_NAME)


def _walk_subclasses(base: type) -> None:
    for sub in base.__subclasses__():
        register(sub)
        _walk_subclasses(sub)


def _bootstrap() -> None:
    global _bootstrapped, _TOMBSTONE, _KEY_MIN, _KEY_MAX
    if _bootstrapped:
        return
    _bootstrapped = True
    # The control-plane messages are Message subclasses; import them first
    # so one subclass walk collects the whole vocabulary.
    import repro.net.rpc  # noqa: F401  (registers via the Message walk)
    import repro.net.tcrpc  # noqa: F401  (TC-service vocabulary, same walk)
    from repro.common import api, ops, records

    register(api.Message)
    _walk_subclasses(api.Message)
    _walk_subclasses(ops.LogicalOperation)
    register(ops.OpResult)
    register(ops.OpStatus)
    register(ops.ReadFlavor)
    register(records.RecordView)
    _TOMBSTONE = records.TOMBSTONE
    _KEY_MIN = records.KEY_MIN
    _KEY_MAX = records.KEY_MAX
    _build_fast_tables()


# -- the fast-path vocabulary -------------------------------------------------

#: The hot message set, in wire-id order (ids are 1-based positions).
#: APPEND ONLY — reordering or removing entries changes ids under existing
#: peers.  Negotiation tolerates drift (a mismatched entry is simply not
#: enabled), but stable ids keep homogeneous deployments fully fast.  A
#: retired message keeps its name here as an empty slot (no class of that
#: name exists, so no id is assigned to it): ``TxnBegin`` /
#: ``TxnBeginReply``, unsent since a transaction opens on its first request.
_FAST_NAMES = (
    "PerformOperation",
    "OperationReply",
    "BatchedPerform",
    "BatchedReply",
    "OpResult",
    "RecordView",
    "OpStatus",
    "ReadFlavor",
    "InsertOp",
    "UpdateOp",
    "DeleteOp",
    "IncrementOp",
    "ReadOp",
    "RangeReadOp",
    "ProbeNextKeysOp",
    "PromoteVersionsOp",
    "DiscardVersionsOp",
    "EndOfStableLog",
    "LowWaterMark",
    "ControlAck",
    "RsspHint",
    "RedoComplete",
    "TxnBegin",
    "TxnBeginReply",
    "TxnWrite",
    "TxnAck",
    "TxnRead",
    "TxnReadReply",
    "TxnScan",
    "TxnScanReply",
    "TxnSync",
    "TxnCommit",
    "TxnAbort",
)

_FAST_BY_ID: dict[int, type] = {}
_FAST_SIG: dict[int, int] = {}
#: The one encode function per vocabulary type (``fn(out, value, fast)``,
#: writing the whole fast form, id included) and the one decode function
#: per object / enum id (``fn(data, pos) -> (value, pos)``, called just
#: past the id byte).  Built once by :func:`_build_fast_tables`.
_FAST_ENC: dict[type, Any] = {}
_FAST_OBJ_DEC: dict[int, Any] = {}
_FAST_ENUM_DEC: dict[int, Any] = {}

#: Version of the fast form's layout, folded into every signature: a peer
#: built against another layout (e.g. one whose count byte is always the
#: field count) negotiates an empty map, and both directions stay tagged.
_FAST_FORM = 2


def _signature(cls: type) -> int:
    """CRC32 over the fast-form version and the type's field layout — the
    negotiation fingerprint.

    Two peers may only fast-encode a type to each other when name *and*
    signature agree, because positional decoding has no field names to
    reconcile schema drift with.  A drifted type falls back to the tagged
    form, where drift stays loud (UnknownFieldError) or absorbable
    (defaulted fields), exactly as before.
    """
    if cls in _FIELDS:
        layout = ",".join(_FIELDS[cls])
    else:
        layout = ",".join(f"{m.name}={m.value!r}" for m in cls)
    return zlib.crc32(f"fast{_FAST_FORM}:{layout}".encode("utf-8"))


def _elidable(field: dataclasses.Field) -> bool:
    """May a trailing ``field`` equal to its default be left off the wire?
    Only for an immutable default: the decoder shares that one object."""
    default = field.default
    return default is not dataclasses.MISSING and (
        default is None
        or type(default) in (bool, int, float, str)
        or (type(default) is tuple and not default)
        or isinstance(default, enum.Enum)
    )


# Source templates of the per-type functions.  Simple values (the bulk of
# a transactional message: ids, LSNs, table names) are handled inline;
# anything else goes through the generic codec.
_ENC_VALUE = """\
if {x} is None:
    out.append(_T_NONE)
elif type({x}) is int:
    out.append(_T_INT)
    zz = ({x} << 1) ^ (-1 if {x} < 0 else 0)
    if zz < 0x80:
        out.append(zz)
    else:
        _put_uvarint(out, zz)
elif type({x}) is str:
    raw = {x}.encode("utf-8")
    out.append(_T_STR)
    if len(raw) < 0x80:
        out.append(len(raw))
    else:
        _put_uvarint(out, len(raw))
    out += raw
else:
    _encode(out, {x}, fast)
"""

_DEC_VALUE = """\
tag = data[pos]
if tag == _T_INT:
    zz = data[pos + 1]
    pos += 2
    if zz >= 0x80:
        zz, pos = _uvarint_at(data, pos - 1)
    d[{name!r}] = (zz >> 1) ^ -(zz & 1)
elif tag == _T_STR:
    d[{name!r}], pos = _text_at(data, pos + 1)
elif tag == _T_NONE:
    d[{name!r}] = None
    pos += 1
else:
    d[{name!r}], pos = _decode_at(data, pos)
"""


def _object_codec(cls: type, fid: int) -> tuple:
    """Generate ``cls``'s encode and decode functions from its field list
    (never from wire bytes), the way ``dataclasses`` builds ``__init__``.

    The count byte after the id says how many positional fields follow:
    trailing fields equal to their default — type-exact, so ``1``,
    ``1.0`` and ``True`` stay apart — are left off and filled back in by
    the decoder.  Fields up to the last one that may not be elided (no
    default, a ``default_factory``, a mutable default) are always sent; a
    count outside ``required..len(fields)`` does not decode.
    """
    fields = dataclasses.fields(cls)
    total = len(fields)
    assert total < 0x80, f"{cls.__name__} outgrew one-byte field counts"
    required = max(
        (i + 1 for i, field in enumerate(fields) if not _elidable(field)), default=0
    )
    ns = {**globals(), "_head": bytes((_T_FOBJ, fid)), "_cls": cls}
    enc = ["def enc(out, value, fast):", "    d = value.__dict__"]
    enc += [f"    x{i} = d[{field.name!r}]" for i, field in enumerate(fields)]
    if required == total:
        ns["_head"] += bytes((total,))
        enc.append("    out += _head")
    else:
        for i in range(total - 1, required - 1, -1):
            default = fields[i].default
            ns[f"_d{i}"], ns[f"_t{i}"] = default, type(default)
            same = f"x{i} is _d{i}"
            if type(default) in (int, float, str, tuple):  # equal, not the same
                same += f" or (type(x{i}) is _t{i} and x{i} == _d{i})"
            enc.append(f"    {'if' if i == total - 1 else 'elif'} not ({same}):")
            enc.append(f"        n = {i + 1}")
        enc += ["    else:", f"        n = {required}"]
        enc += ["    out += _head", "    out.append(n)"]
    dec = [
        "def dec(data, pos):",
        "    n = data[pos]",
        f"    if n > {total} or n < {required}:",
        f"        raise WireDecodeError(f'fast {cls.__name__} field count {{n}}"
        f" outside {required}..{total}')",
        "    pos += 1",
        "    obj = _OBJ_NEW(_cls)",
        "    d = obj.__dict__",
    ]
    for i, field in enumerate(fields):
        depth = " " * (4 if i < required else 8)
        if i >= required:
            enc.append(f"    if n > {i}:")
            dec.append(f"    if n > {i}:")
        enc.append(indent(_ENC_VALUE.format(x=f"x{i}"), depth))
        dec.append(indent(_DEC_VALUE.format(name=field.name), depth))
        if i >= required:
            dec += ["    else:", f"        d[{field.name!r}] = _d{i}"]
    dec.append("    return obj, pos")
    source = "\n".join(line.rstrip("\n") for line in enc + dec) + "\n"
    exec(compile(source, f"<wire fast form of {cls.__name__}>", "exec"), ns)
    return ns["enc"], ns["dec"]


def _enum_codec(cls: type, fid: int) -> tuple:
    """An enum's members are a closed set: encoding is one memoized byte
    string per member, decoding one dict probe per value."""
    whole = {member: bytes((_T_FENUM, fid)) + encode(member.value) for member in cls}
    members = {member.value: member for member in cls}

    def enc(out: bytearray, value: Any, fast: dict) -> None:
        out += whole[value]

    def dec(data: bytes, pos: int) -> tuple:
        value, pos = _decode_at(data, pos)
        try:
            return members[value], pos
        except (KeyError, TypeError):
            raise WireDecodeError(f"bad {cls.__name__} value: {value!r}") from None

    return enc, dec


def _build_fast_tables() -> None:
    if _FAST_BY_ID:
        return
    for idx, name in enumerate(_FAST_NAMES, start=1):
        cls = _BY_NAME.get(name)
        if cls is None:
            continue
        assert idx < 0x80, "fast vocabulary outgrew one-byte ids"
        _FAST_BY_ID[idx] = cls
        _FAST_SIG[idx] = _signature(cls)
        if cls in _FIELDS:
            _FAST_ENC[cls], _FAST_OBJ_DEC[idx] = _object_codec(cls, idx)
        else:
            _FAST_ENC[cls], _FAST_ENUM_DEC[idx] = _enum_codec(cls, idx)


def fast_vocabulary() -> tuple:
    """The local fast vocabulary as ``(id, name, signature)`` triples —
    what Hello/TcHello advertise and :func:`negotiate` consumes."""
    _bootstrap()
    return tuple(
        (fid, cls.__name__, _FAST_SIG[fid])
        for fid, cls in sorted(_FAST_BY_ID.items())
    )


def negotiate(peer_vocabulary) -> dict[type, int]:
    """Intersect a peer's advertised vocabulary with the local one.

    Returns the encode map (type -> fast id) of exact matches — id, name
    and field signature must all agree.  An empty map means "speak tagged
    only", which is also what a malformed advertisement degrades to:
    negotiation can only ever *disable* fast encoding, never break framing.
    """
    _bootstrap()
    accepted: dict[type, int] = {}
    try:
        for entry in peer_vocabulary or ():
            fid, name, sig = entry
            cls = _FAST_BY_ID.get(fid)
            if cls is not None and cls.__name__ == name and _FAST_SIG[fid] == sig:
                accepted[cls] = fid
    except (TypeError, ValueError):
        return {}
    return accepted


# -- encoding -----------------------------------------------------------------


def _put_uvarint(out: bytearray, value: int) -> None:
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _put_str(out: bytearray, text: str) -> None:
    raw = text.encode("utf-8")
    _put_uvarint(out, len(raw))
    out += raw


_NO_FAST: dict[type, int] = {}


_SEQ_TAG = {tuple: _T_TUPLE, list: _T_LIST, set: _T_SET, frozenset: _T_FROZENSET}
_OBJ_NEW = object.__new__


def _encode(out: bytearray, value: Any, fast: dict) -> None:
    # The varint writes for small values (tags, lengths, ids — the vast
    # majority on a transactional wire) are inlined as single appends;
    # profile-guided, since this loop is the process transport's CPU floor.
    if value is None:
        out.append(_T_NONE)
        return
    if value is True:
        out.append(_T_TRUE)
        return
    if value is False:
        out.append(_T_FALSE)
        return
    kind = type(value)
    if kind is int:
        out.append(_T_INT)
        # zigzag so small negatives stay small
        zz = (value << 1) ^ (-1 if value < 0 else 0)
        if zz < 0x80:
            out.append(zz)
        else:
            _put_uvarint(out, zz)
        return
    if kind is str:
        raw = value.encode("utf-8")
        size = len(raw)
        out.append(_T_STR)
        if size < 0x80:
            out.append(size)
        else:
            _put_uvarint(out, size)
        out += raw
        return
    if kind in fast:
        encoder = _FAST_ENC.get(kind)
        if encoder is not None:
            encoder(out, value, fast)
            return
    if kind is float:
        out.append(_T_FLOAT)
        out += _FLOAT.pack(value)
        return
    if kind is bytes:
        size = len(value)
        out.append(_T_BYTES)
        if size < 0x80:
            out.append(size)
        else:
            _put_uvarint(out, size)
        out += value
        return
    if kind is tuple or kind is list or kind is set or kind is frozenset:
        size = len(value)
        out.append(_SEQ_TAG[kind])
        if size < 0x80:
            out.append(size)
        else:
            _put_uvarint(out, size)
        for item in value:
            _encode(out, item, fast)
        return
    if kind is dict:
        size = len(value)
        out.append(_T_DICT)
        if size < 0x80:
            out.append(size)
        else:
            _put_uvarint(out, size)
        for key, item in value.items():
            _encode(out, key, fast)
            _encode(out, item, fast)
        return
    # Sentinels: compared by identity everywhere, so they need their own
    # tags to survive a process hop.
    if value is _TOMBSTONE:
        out.append(_T_TOMBSTONE)
        return
    if value is _KEY_MIN:
        out.append(_T_KEY_MIN)
        return
    if value is _KEY_MAX:
        out.append(_T_KEY_MAX)
        return
    fields = _FIELDS.get(kind)
    if fields is not None:
        out += _OBJ_HEAD[kind]
        heads = _FIELD_HEAD[kind]
        for index, name in enumerate(fields):
            out += heads[index]
            _encode(out, getattr(value, name), fast)
        return
    if isinstance(value, enum.Enum):
        head = _ENUM_HEAD.get(kind)
        if head is None:
            raise WireEncodeError(f"unregistered enum: {kind.__name__}")
        out += head
        _encode(out, value.value, fast)
        return
    raise WireEncodeError(f"cannot encode {kind.__name__}: {value!r}")


def encode(value: Any) -> bytes:
    """Serialize one value (typically a ``Message``) to bytes."""
    _bootstrap()
    out = bytearray()
    _encode(out, value, _NO_FAST)
    return bytes(out)


def encode_into(out: bytearray, value: Any) -> bytes:
    """Tagged encode into a caller-owned buffer (cleared first) — the
    transports reuse one ``bytearray`` per connection to cut growth
    reallocations on the hot send path."""
    _bootstrap()
    del out[:]
    _encode(out, value, _NO_FAST)
    return bytes(out)


def encode_fast_frame(
    kind: int,
    seq: int,
    payload: Any,
    fast: dict,
    scratch: Optional[bytearray] = None,
) -> bytes:
    """One CRC'd fast frame: ``magic | crc32(body) | kind | seq | payload``.

    ``fast`` is the negotiated encode map from :func:`negotiate` (whose
    ids are this vocabulary's own); any value outside it (including
    nested ones) falls back to the tagged form in place.  ``scratch`` is
    an optional reusable buffer.
    """
    _bootstrap()
    out = scratch if scratch is not None else bytearray()
    del out[:]
    out += _FAST_HEAD_SPACE
    if kind < 0x80:
        out.append(kind)
    else:
        _put_uvarint(out, kind)
    _put_uvarint(out, seq)
    _encode(out, payload, fast)
    crc = zlib.crc32(memoryview(out)[_FAST_HEAD.size :]) & 0xFFFFFFFF
    _FAST_HEAD.pack_into(out, 0, FAST_MAGIC, crc)
    return bytes(out)


# -- decoding -----------------------------------------------------------------


def _uvarint_at(data: bytes, pos: int) -> tuple:
    """Varint at ``pos`` (the one-byte case is inlined at the hot call
    sites — on this wire almost every length and count fits one byte)."""
    result = 0
    shift = 0
    while True:
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if byte < 0x80:
            return result, pos
        shift += 7


def _text_at(data: bytes, pos: int) -> tuple:
    size = data[pos]
    pos += 1
    if size >= 0x80:
        size, pos = _uvarint_at(data, pos - 1)
    stop = pos + size
    if stop > len(data):
        raise WireDecodeError("truncated frame")
    try:
        return data[pos:stop].decode("utf-8"), stop
    except UnicodeDecodeError as exc:
        raise WireDecodeError(f"bad utf-8 in frame: {exc}") from exc


def _decode_at(data: bytes, pos: int) -> tuple:
    """Decode one value at ``pos``; returns ``(value, next_pos)``.

    Positional and allocation-lean on purpose: running off the end of
    ``data`` raises ``IndexError``, which the entry points translate to
    ``WireDecodeError("truncated frame")`` — one try/except per frame
    instead of a bounds check per byte.
    """
    tag = data[pos]
    pos += 1
    if tag == _T_INT:
        zz = data[pos]
        pos += 1
        if zz >= 0x80:
            zz, pos = _uvarint_at(data, pos - 1)
        return (zz >> 1) ^ -(zz & 1), pos
    if tag == _T_STR:
        return _text_at(data, pos)
    if tag == _T_NONE:
        return None, pos
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_FALSE:
        return False, pos
    if tag == _T_FOBJ:
        # Ids are one byte (checked when the tables are built), so any
        # other byte here is simply not a known id.  The decoder builds
        # the frozen dataclass without ``__init__`` (object.__new__ plus
        # a ``__dict__`` fill): every field is set, sent or defaulted.
        decoder = _FAST_OBJ_DEC.get(data[pos])
        if decoder is None:
            raise UnknownTypeError(f"unknown fast type id {data[pos]} on wire")
        return decoder(data, pos + 1)
    if tag == _T_TUPLE or tag == _T_LIST or tag == _T_SET or tag == _T_FROZENSET:
        count = data[pos]
        pos += 1
        if count >= 0x80:
            count, pos = _uvarint_at(data, pos - 1)
        items = []
        append = items.append
        for _ in range(count):
            value, pos = _decode_at(data, pos)
            append(value)
        if tag == _T_TUPLE:
            return tuple(items), pos
        if tag == _T_LIST:
            return items, pos
        if tag == _T_SET:
            return set(items), pos
        return frozenset(items), pos
    if tag == _T_DICT:
        count = data[pos]
        pos += 1
        if count >= 0x80:
            count, pos = _uvarint_at(data, pos - 1)
        result: dict = {}
        for _ in range(count):
            key, pos = _decode_at(data, pos)
            value, pos = _decode_at(data, pos)
            result[key] = value
        return result, pos
    if tag == _T_FLOAT:
        stop = pos + 8
        if stop > len(data):
            raise WireDecodeError("truncated frame")
        return _FLOAT.unpack_from(data, pos)[0], stop
    if tag == _T_BYTES:
        size = data[pos]
        pos += 1
        if size >= 0x80:
            size, pos = _uvarint_at(data, pos - 1)
        stop = pos + size
        if stop > len(data):
            raise WireDecodeError("truncated frame")
        return data[pos:stop], stop
    if tag == _T_TOMBSTONE:
        return _TOMBSTONE, pos
    if tag == _T_KEY_MIN:
        return _KEY_MIN, pos
    if tag == _T_KEY_MAX:
        return _KEY_MAX, pos
    if tag == _T_ENUM:
        name, pos = _text_at(data, pos)
        cls = _BY_NAME.get(name)
        if cls is None or not issubclass(cls, enum.Enum):
            raise UnknownTypeError(f"unknown enum on wire: {name!r}")
        value, pos = _decode_at(data, pos)
        try:
            return cls(value), pos
        except ValueError as exc:
            raise WireDecodeError(f"bad {name} value: {value!r}") from exc
    if tag == _T_OBJ:
        name, pos = _text_at(data, pos)
        cls = _BY_NAME.get(name)
        if cls is None:
            raise UnknownTypeError(f"unknown type on wire: {name!r}")
        known = _FIELD_SETS.get(cls)
        if known is None:
            raise UnknownTypeError(f"{name!r} is not a wire dataclass")
        count, pos = _uvarint_at(data, pos)
        kwargs: dict[str, Any] = {}
        for _ in range(count):
            field_name, pos = _text_at(data, pos)
            value, pos = _decode_at(data, pos)
            if field_name not in known:
                raise UnknownFieldError(f"{name} has no field {field_name!r}")
            kwargs[field_name] = value
        try:
            return cls(**kwargs), pos
        except TypeError as exc:
            raise WireDecodeError(f"cannot build {name}: {exc}") from exc
    if tag == _T_FENUM:
        decoder = _FAST_ENUM_DEC.get(data[pos])
        if decoder is None:
            raise UnknownTypeError(f"unknown fast enum id {data[pos]} on wire")
        return decoder(data, pos + 1)
    raise WireDecodeError(f"unknown wire tag 0x{tag:02x}")


def decode(data: bytes, expect: Optional[type] = None) -> Any:
    """Deserialize one value; raises :class:`WireDecodeError` subclasses.

    ``expect`` optionally asserts the top-level type (transport framing
    uses it to reject cross-protocol garbage early).
    """
    _bootstrap()
    try:
        value, pos = _decode_at(data, 0)
    except IndexError:
        raise WireDecodeError("truncated frame") from None
    if pos != len(data):
        raise WireDecodeError(
            f"trailing garbage: {len(data) - pos} bytes after value"
        )
    if expect is not None and not isinstance(value, expect):
        raise WireDecodeError(
            f"expected {expect.__name__}, decoded {type(value).__name__}"
        )
    return value


def decode_fast_frame(data: bytes) -> tuple:
    """Decode one fast frame to ``(kind, seq, payload)``.

    The CRC is checked before any positional decode, so a truncated or
    bit-flipped frame deterministically raises :class:`WireDecodeError`
    (never a structurally-plausible wrong message).
    """
    _bootstrap()
    head = _FAST_HEAD.size
    if len(data) <= head or data[0] != FAST_MAGIC:
        raise WireDecodeError("not a fast frame")
    _magic, crc = _FAST_HEAD.unpack_from(data, 0)
    if zlib.crc32(memoryview(data)[head:]) & 0xFFFFFFFF != crc:
        raise WireDecodeError("fast frame failed its crc32 check")
    try:
        kind = data[head]
        pos = head + 1
        if kind >= 0x80:
            kind, pos = _uvarint_at(data, head)
        seq, pos = _uvarint_at(data, pos)
        payload, pos = _decode_at(data, pos)
    except IndexError:
        raise WireDecodeError("truncated frame") from None
    if pos != len(data):
        raise WireDecodeError(
            f"trailing garbage: {len(data) - pos} bytes after fast frame"
        )
    return kind, seq, payload
