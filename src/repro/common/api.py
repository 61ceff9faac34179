"""The TC/DC interaction API of Section 4.2.1, as typed messages.

The paper presents the interface as methods of the DC invoked by the TC but
explicitly allows any transport ("asynchronous messages ... in a cloud
environment, signals and shared variables ... for a multi-core design").
We model each call as a message dataclass so the same code runs over the
direct in-process transport and over the lossy simulated network
(:mod:`repro.net.channel`).

Messages TC -> DC:

- :class:`PerformOperation` — a logical operation with its unique request
  id (the LSN for mutations); resends reuse the id.
- :class:`BatchedPerform` — a transport envelope of one or more
  ``PerformOperation`` requests for the same DC, answered by one
  :class:`BatchedReply`; every forward mutation travels in one.  Per-op
  ids, replies and idempotence semantics are exactly those of single
  messages.
- :class:`EndOfStableLog` — WAL across components: the DC may make stable
  any page whose operations are all at or below EOSL.
- :class:`LowWaterMark` — the TC has replies for everything <= LWM, so the
  DC can raise page low waters and prune {LSNin}.
- :class:`CheckpointRequest` — advance the redo scan start point: the DC
  must make stable every page containing operations below ``new_rssp``.
- :class:`RestartBegin` / :class:`RestartEnd` — bracket TC-driven restart;
  ``RestartBegin`` carries LSNst, the largest LSN on the stable TC log,
  telling the DC which cached state must be reset.

Messages DC -> TC:

- :class:`OperationReply` — correlated by request id.
- :class:`CheckpointReply` — the contract-termination acknowledgement.
- :class:`CrashNotice` — the out-of-band prompt that the DC restarted and
  the TC must begin redo from its redo scan start point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.common.lsn import Lsn
from repro.common.ops import LogicalOperation, OpResult


@dataclass(frozen=True)
class Message:
    """Base class for all TC/DC messages."""

    tc_id: int


@dataclass(frozen=True)
class PerformOperation(Message):
    """A logical operation request (Section 4.2.1, ``perform_operation``).

    ``op_id`` is the unique, monotonically increasing request identifier —
    for mutating operations it is the LSN of the TC log record; reads draw
    from the same sequence so ids stay totally ordered per TC.  A resend
    reuses the same ``op_id``, which is what lets the DC provide
    idempotence.
    """

    op_id: Lsn = 0
    op: Optional[LogicalOperation] = None
    resend: bool = False
    #: Piggybacked end-of-stable-log, so the WAL bound stays fresh without
    #: a dedicated message per log force (an explicit
    #: :class:`EndOfStableLog` is still sent at checkpoint/restart time).
    eosl: Lsn = 0
    #: Part of a redo stream replay after a component restart.  A DC in its
    #: redo window accepts only these; ordinary operations bounce until
    #: the TC signals :class:`RedoComplete` (recovery ordering, Section
    #: 5.2.2 — an operation validated against not-yet-redone state would
    #: read committed records as absent).
    redo: bool = False
    #: "Send me the image": the TC logged this update / delete with its
    #: undo image *owed* and fills it from this reply.  The DC returns the
    #: overwritten value in ``OpResult.prior`` and keeps it until the TC's
    #: low-water mark passes ``op_id``, so a resend answered from the
    #: idempotence test still carries it.
    want_prior: bool = False


@dataclass(frozen=True)
class OperationReply(Message):
    op_id: Lsn = 0
    result: Optional[OpResult] = None


@dataclass(frozen=True)
class BatchedPerform(Message):
    """Several :class:`PerformOperation` requests in one round trip.

    The envelope is a *transport* unit, not an atomicity unit: the DC
    executes each enclosed operation independently (each against its own
    abLSN idempotence test) and replies per-op.  Losing, duplicating or
    reordering the envelope is therefore no different from losing,
    duplicating or reordering every enclosed operation together — the
    per-op resend/idempotence contracts of Section 4.2.1 are unchanged.
    ``eosl`` is piggybacked once for the whole envelope.
    """

    ops: tuple[PerformOperation, ...] = ()
    eosl: Lsn = 0
    #: The envelope belongs to a redo stream replay (every enclosed
    #: operation carries ``redo=True`` too); a DC redo window admits it
    #: just like a single redo :class:`PerformOperation`.
    redo: bool = False


@dataclass(frozen=True)
class BatchedReply(Message):
    """Per-op replies for one :class:`BatchedPerform`, correlated by op_id."""

    replies: tuple[OperationReply, ...] = ()


@dataclass(frozen=True)
class ControlAck(Message):
    """Acknowledges a control message that carries no other reply.

    Control messages that change contract state (``RestartBegin``,
    ``EndOfStableLog``) must be *delivered*, not merely sent: over a lossy
    channel the sender resends until this ack arrives."""


@dataclass(frozen=True)
class EndOfStableLog(Message):
    """``end_of_stable_log(EOSL)``: causality/WAL enforcement point."""

    eosl: Lsn = 0


@dataclass(frozen=True)
class RedoComplete(Message):
    """This TC's redo stream for a restarted DC has been fully resent.

    Closes the DC's redo window for the sending TC: ordinary operations
    are accepted again, and LWM advances may once more prune its abLSNs.
    Must be delivered (ControlAck + resend), like other contract-state
    control messages."""


@dataclass(frozen=True)
class LowWaterMark(Message):
    """``low_water_mark(LWM)``: no gaps at or below LWM."""

    lwm: Lsn = 0


@dataclass(frozen=True)
class CheckpointRequest(Message):
    """``checkpoint(newRSSP)``: terminate resend contracts below newRSSP."""

    new_rssp: Lsn = 0


@dataclass(frozen=True)
class CheckpointReply(Message):
    granted_rssp: Lsn = 0


@dataclass(frozen=True)
class RestartBegin(Message):
    """Start of the ``restart`` conversation after a TC (or DC) crash.

    ``stable_lsn`` (LSNst) is the largest LSN on the stable TC log; any DC
    state reflecting higher LSNs belongs to operations lost forever and
    must be reset before redo begins.  ``reset_mode`` selects how
    surgically the DC sheds that state (Section 5.3.2 / 6.1.2): one of
    ``full_drop``, ``drop_affected``, ``record_reset``.
    """

    stable_lsn: Lsn = 0
    reset_mode: str = "record_reset"


@dataclass(frozen=True)
class RestartEnd(Message):
    """All redo and undo operations have been applied; resume normal work."""


@dataclass(frozen=True)
class CrashNotice(Message):
    """DC -> TC out-of-band prompt: the DC crashed and has restarted."""

    dc_name: str = ""


@dataclass(frozen=True)
class WatermarkRequest(Message):
    """Snapshot extension (Section 6.3): ask for the DC's current commit-
    sequence watermark; reads ``as_of`` it see a per-DC-consistent past."""


@dataclass(frozen=True)
class WatermarkReply(Message):
    watermark: int = 0
    floor: int = 0  # oldest watermark still served (retention horizon)
