"""Control-plane messages and frame envelopes for the process transport.

The data plane of the process deployment mode is exactly the §4.2.1
message set of :mod:`repro.common.api`.  What §4.2.1 leaves to "the
environment" — how a TC finds a DC's tables, how the DC-prompted log
force crosses the process boundary, how the server announces itself —
is this module's small control plane.  Every control message is a
``Message`` subclass so the wire codec picks it up automatically.

Frames on the pipe are ``wire.encode((kind, seq, payload))``:

- ``REQUEST``/``REPLY`` — client RPC, correlated by ``seq``.  Requests
  are pipelined: the client may have many in flight and the server's
  replies fill client-side reply slots out of order, which is exactly
  the delivery model the §4.2.1 unique-id/idempotence contracts assume.
- ``SERVER_REQUEST``/``CLIENT_REPLY`` — the reverse direction, used for
  the causality gate: a DC system transaction that must not outrun the
  TC log sends :class:`ForceLogRequest` and blocks until the TC's force
  completes (Section 4.2.2's "DC prompts the TC to force its log").
- ``PUSH`` — one-way traffic nothing answers.  Server to client: the
  :class:`Hello` banner and spontaneous :class:`RsspHint` contract
  terminations.  Client to server: only the types the server lists as
  one-way (a TC server's decided read-only ``TxnCommit``), served in
  arrival order with the requests.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.common.api import Message
from repro.net import wire

# Envelope kinds (first element of every frame tuple).
REQUEST = 0
REPLY = 1
SERVER_REQUEST = 2
CLIENT_REPLY = 3
PUSH = 4


def pack_frame(
    kind: int,
    seq: int,
    payload: object,
    fast: dict | None = None,
    scratch: bytearray | None = None,
) -> bytes:
    """Pack one frame; with a negotiated ``fast`` map the frame uses the
    CRC'd fast form (docs/architecture.md §17), else the tagged tuple."""
    if fast:
        return wire.encode_fast_frame(kind, seq, payload, fast, scratch)
    if scratch is not None:
        return wire.encode_into(scratch, (kind, seq, payload))
    return wire.encode((kind, seq, payload))


#: Every frame on a connection is this 4-byte network-order length, then
#: the packed frame: what ``multiprocessing.Connection.send_bytes``
#: writes, so a run of frames written as one blob parses unchanged.
FRAME_LEN = struct.Struct("!i")
#: Reassembly sanity bound; anything bigger is a corrupt length prefix.
MAX_FRAME = 1 << 28


class FrameReader:
    """Length-prefix reassembly, the one loop both connection ends run
    (the server's :class:`~repro.net.eventloop.Peer`, the client's
    :class:`~repro.net.transport.ClientCore`): bytes go in through
    :meth:`feed`, split anywhere; each complete frame comes out, once and
    in order, through the subclass's :meth:`deliver`.

    Re-entrant by design: the scan cursor lives on the reader and moves
    past a frame *before* that frame is delivered.  A server handler may
    pump its loop (the §4.2.2 force bridge), whose nested read of this
    same connection feeds here again — and must deliver, because the
    frame the outer handler waits for (a force's ``CLIENT_REPLY``) may be
    in this very buffer.  The nested call continues after the frames
    already taken; the outer loop then re-reads the cursor and finds them
    gone.  Compaction resets the cursor, safe at any depth since nobody
    holds a position across ``deliver``.
    """

    __slots__ = ("_held", "_pos")

    def __init__(self) -> None:
        self._held = bytearray()
        self._pos = 0

    def feed(self, data: bytes) -> None:
        """Append ``data`` and deliver every frame it completes.  A bad
        length prefix raises :class:`~repro.net.wire.WireDecodeError`:
        nothing after it can be framed."""
        held = self._held
        held += data
        try:
            while True:
                pos = self._pos
                if len(held) - pos < 4:
                    return
                (length,) = FRAME_LEN.unpack_from(held, pos)
                if not 0 <= length <= MAX_FRAME:
                    raise wire.WireDecodeError(f"frame length {length}")
                end = pos + 4 + length
                if end > len(held):
                    return
                self._pos = end
                self.deliver(bytes(held[pos + 4 : end]))  # may feed again
        finally:
            if self._pos:
                del held[: self._pos]
                self._pos = 0

    def clear(self) -> None:
        """Drop everything held: nothing more is delivered from it."""
        self._held.clear()
        self._pos = 0

    def deliver(self, frame: bytes) -> None:
        """Take one complete frame (without its length prefix)."""
        raise NotImplementedError


def unpack_frame(data: bytes) -> tuple[int, int, object]:
    # The two frame forms are distinguishable from byte 0: a tagged frame
    # starts with the tuple tag, a fast frame with FAST_MAGIC.  Decoding
    # is therefore unconditional — negotiation only gates the *encoder*,
    # so in-flight tagged traffic racing a codec upgrade stays valid.
    if data and data[0] == wire.FAST_MAGIC:
        frame = wire.decode_fast_frame(data)
    else:
        frame = wire.decode(data, expect=tuple)
        if len(frame) != 3:
            raise wire.WireDecodeError(f"malformed frame envelope: {frame!r}")
    if not isinstance(frame[0], int) or not isinstance(frame[1], int):
        raise wire.WireDecodeError(f"malformed frame envelope: {frame!r}")
    return frame  # type: ignore[return-value]


# -- server -> client ---------------------------------------------------------


@dataclass(frozen=True)
class Hello(Message):
    """First frame a DC server sends: identity plus the table catalog, so
    a reconnecting client can prime its routes without an extra RPC."""

    dc_name: str = ""
    pid: int = 0
    #: True when the server replayed a journal and ran DC-local recovery
    #: before accepting traffic (the kill -9 restart path).
    recovered: bool = False
    #: ``(name, kind, versioned)`` per hosted table.
    tables: tuple = ()
    #: The server's fast-path codec vocabulary, as ``(id, name, signature)``
    #: triples (see :func:`repro.net.wire.fast_vocabulary`).  Empty means
    #: the server speaks tagged only.
    fast_codec: tuple = ()
    #: The resolved listener address (``tcp://host:port`` or a Unix socket
    #: path).  Lets a client that asked for an ephemeral TCP port
    #: (``tcp://host:0``) pin the concrete port, so respawns after a crash
    #: rebind the same address and DC-pool clients can reconnect.
    listen_addr: str = ""


@dataclass(frozen=True)
class ForceLogRequest(Message):
    """Causality gate: block this DC system transaction until the TC log
    is stable through ``lsn`` (carried on a SERVER_REQUEST frame).

    ``images`` maps operation ids to the before-images the DC keeps for
    this TC up to ``lsn``: a log record still waiting for one of them
    holds the TC's stable boundary back, and the reply that would bring it
    may be queued behind this very request."""

    lsn: int = 0
    images: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ForceLogReply(Message):
    eosl: int = 0


@dataclass(frozen=True)
class RsspHint(Message):
    """Spontaneous contract termination (§4.2.1): everything below
    ``lsn`` is stable at ``dc_name``."""

    dc_name: str = ""
    lsn: int = 0


@dataclass(frozen=True)
class RemoteError(Message):
    """A server-side exception, reflected back instead of a reply."""

    kind: str = ""
    text: str = ""


# -- client -> server ---------------------------------------------------------


@dataclass(frozen=True)
class NegotiateCodec(Message):
    """Enable the fast-path codec server→client for the intersection of
    ``vocab`` (the client's :func:`~repro.net.wire.fast_vocabulary`) with
    the server's own.  Sent after Hello by clients that chose to fast-
    encode; until it arrives the server encodes tagged, so there is no
    ordering race — each direction upgrades independently."""

    vocab: tuple = ()


@dataclass(frozen=True)
class RegisterTc(Message):
    """Install the §4.2.1 per-TC hooks server-side; the client bridges
    force-log and RSSP-hint callbacks back over the pipe."""


@dataclass(frozen=True)
class CreateTable(Message):
    name: str = ""
    kind: str = "btree"
    versioned: bool = False
    bucket_count: int = 16


@dataclass(frozen=True)
class TableList(Message):
    """Ask for the catalog (same shape as :attr:`Hello.tables`)."""


@dataclass(frozen=True)
class TableListReply(Message):
    tables: tuple = ()


@dataclass(frozen=True)
class StatsRequest(Message):
    """Fetch the server-side ``dc.stats()`` and metric counters."""


@dataclass(frozen=True)
class StatsReply(Message):
    payload: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CheckpointDcLog(Message):
    """Run a DC-local log checkpoint (may emit RsspHint pushes)."""


@dataclass(frozen=True)
class CheckpointDcLogReply(Message):
    advanced: bool = False


@dataclass(frozen=True)
class Shutdown(Message):
    """Graceful stop: the server acks, closes its journal and exits."""
