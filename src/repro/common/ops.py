"""Logical, record-oriented operations — the only language the TC speaks.

Section 4.1.1 requires the TC to operate purely at the logical level: every
request to a DC names a table and a key (or key range) and carries no page
knowledge whatsoever.  The DC maps these to pages privately.

Update operations have *inverses* (:func:`inverse_of`) so the TC can roll a
transaction back by submitting inverse operations in reverse chronological
order (Section 4.1.1 item 2b).  Computing an inverse may require the value
the operation overwrote; the TC either knows it already (it read or wrote
the record under its lock) or asks the DC to return it in the operation's
reply, and stores it as undo information in its log.

For versioned tables (Section 6.2.2) the mutating operations create
*pending* versions and the two cleanup operations —
:class:`PromoteVersionsOp` / :class:`DiscardVersionsOp` — implement commit
and abort without any distributed protocol.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.common.records import Key, RecordView, Value, sizeof_key, sizeof_value

#: Per-log-record / per-message framing overhead in the space model (bytes).
OP_HEADER_BYTES = 16


class ReadFlavor(enum.Enum):
    """Which version of a record a read observes (Section 6.2).

    ``OWN`` — the reading TC owns the partition and sees its own pending
    updates (latest version).  ``READ_COMMITTED`` — cross-TC read of the
    before/committed version, never blocking.  ``DIRTY`` — cross-TC read of
    the latest version, uncommitted data included.
    """

    OWN = "own"
    READ_COMMITTED = "read_committed"
    DIRTY = "dirty"
    #: Snapshot-read extension (Section 6.3): read as of a past per-DC
    #: commit-sequence watermark; never blocks, transactionally consistent
    #: per DC.
    SNAPSHOT = "snapshot"


@dataclass(frozen=True)
class LogicalOperation:
    """Base class; concrete operations are the frozen dataclasses below."""

    table: str

    #: True for operations that change DC state (and hence are logged,
    #: carry an LSN, and participate in idempotence/redo).
    MUTATES = False

    def encoded_size(self) -> int:
        return OP_HEADER_BYTES + sizeof_value(self.table)


@dataclass(frozen=True)
class InsertOp(LogicalOperation):
    key: Key = None
    value: Value = None
    versioned: bool = False

    MUTATES = True

    def encoded_size(self) -> int:
        return super().encoded_size() + sizeof_key(self.key) + sizeof_value(self.value)


@dataclass(frozen=True)
class UpdateOp(LogicalOperation):
    key: Key = None
    value: Value = None
    versioned: bool = False

    MUTATES = True

    def encoded_size(self) -> int:
        return super().encoded_size() + sizeof_key(self.key) + sizeof_value(self.value)


@dataclass(frozen=True)
class DeleteOp(LogicalOperation):
    key: Key = None
    versioned: bool = False

    MUTATES = True

    def encoded_size(self) -> int:
        return super().encoded_size() + sizeof_key(self.key)


@dataclass(frozen=True)
class IncrementOp(LogicalOperation):
    """Add ``delta`` to a numeric record — a *logical* operation proper.

    Increments showcase two things the paper's logical level buys:

    - **value-independent undo**: the inverse is just the negated delta, no
      prior value needed in the log;
    - **non-idempotence**: replaying an increment twice corrupts the value,
      so the abLSN exactly-once machinery is doing real work here (a
      blind "set value" would mask double-execution bugs).
    """

    key: Key = None
    delta: float = 0
    versioned: bool = False

    MUTATES = True

    def encoded_size(self) -> int:
        return super().encoded_size() + sizeof_key(self.key) + 8


@dataclass(frozen=True)
class ReadOp(LogicalOperation):
    key: Key = None
    flavor: ReadFlavor = ReadFlavor.OWN
    #: Snapshot watermark (SNAPSHOT flavor only).
    as_of: int = 0

    def encoded_size(self) -> int:
        return super().encoded_size() + sizeof_key(self.key) + 1


@dataclass(frozen=True)
class RangeReadOp(LogicalOperation):
    """Read all records with ``low <= key <= high`` (inclusive bounds).

    ``limit`` caps the number of records returned; ``None`` bounds are
    open.  Range reads are what make unbundled locking hard (Section 3.1):
    the TC must lock before it knows which keys exist in the range.
    """

    low: Optional[Key] = None
    high: Optional[Key] = None
    limit: Optional[int] = None
    flavor: ReadFlavor = ReadFlavor.OWN
    #: Exclude ``low`` itself (used by fetch-ahead batch continuation).
    low_exclusive: bool = False
    #: Snapshot watermark (SNAPSHOT flavor only).
    as_of: int = 0

    def encoded_size(self) -> int:
        return (
            super().encoded_size() + sizeof_key(self.low) + sizeof_key(self.high) + 5
        )


@dataclass(frozen=True)
class ProbeNextKeysOp(LogicalOperation):
    """Speculative probe of the fetch-ahead protocol (Section 3.1).

    Returns up to ``count`` existing keys strictly greater than ``after``
    (or from the start when ``after`` is None) and no earlier than
    ``until`` would allow.  The TC locks the returned keys and then issues
    the real read; if the keys changed meanwhile it probes again.
    """

    after: Optional[Key] = None
    count: int = 16
    until: Optional[Key] = None
    #: Include ``after`` itself in the result (first batch of a scan).
    inclusive: bool = False

    def encoded_size(self) -> int:
        return super().encoded_size() + sizeof_key(self.after) + 4


@dataclass(frozen=True)
class PromoteVersionsOp(LogicalOperation):
    """Version cleanup at commit: pending versions become committed."""

    keys: tuple[Key, ...] = ()

    MUTATES = True

    def encoded_size(self) -> int:
        return super().encoded_size() + sum(sizeof_key(k) for k in self.keys)


@dataclass(frozen=True)
class DiscardVersionsOp(LogicalOperation):
    """Version cleanup at abort: pending versions are removed."""

    keys: tuple[Key, ...] = ()

    MUTATES = True

    def encoded_size(self) -> int:
        return super().encoded_size() + sum(sizeof_key(k) for k in self.keys)


class OpStatus(enum.Enum):
    OK = "ok"
    NOT_FOUND = "not_found"
    DUPLICATE = "duplicate"
    ERROR = "error"
    #: Not executed: the operation needed a structure change whose page
    #: image would embed operations the TC log does not hold stably yet,
    #: and the log-force prompt could not get them there (a record below
    #: still owes its before-image).  Nothing changed; the TC resends the
    #: operation once ``value`` — the LSN its log must be stable through —
    #: can be reached.
    UNSTABLE = "unstable"


@dataclass(frozen=True)
class OpResult:
    """Reply payload for a logical operation.

    ``records`` carries range-read results, ``keys`` probe results and
    ``value`` a read's (or an increment's resulting) value.

    ``prior`` is the value an update / delete overwrote, sent only when
    the request asked for it (``PerformOperation.want_prior``): the TC
    then logged the operation with its undo image *owed* and completes
    the log record from this field (docs/architecture.md §9.2).  The DC
    keeps every image it was asked for until the asking TC's low-water
    mark passes the operation, so the exactly-once answer to a resend
    carries the same image as the first reply did.
    """

    status: OpStatus = OpStatus.OK
    value: Value = None
    prior: Value = None
    records: tuple[RecordView, ...] = ()
    keys: tuple[Key, ...] = ()
    message: str = ""

    @property
    def ok(self) -> bool:
        return self.status is OpStatus.OK

    @staticmethod
    def okay(value: Value = None, prior: Value = None) -> "OpResult":
        if value is None and prior is None:
            return _OKAY  # frozen, so one shared instance serves every bare OK
        return OpResult(status=OpStatus.OK, value=value, prior=prior)

    @staticmethod
    def not_found(message: str = "") -> "OpResult":
        return OpResult(status=OpStatus.NOT_FOUND, message=message)

    @staticmethod
    def duplicate(message: str = "") -> "OpResult":
        return OpResult(status=OpStatus.DUPLICATE, message=message)

    @staticmethod
    def error(message: str) -> "OpResult":
        return OpResult(status=OpStatus.ERROR, message=message)

    @staticmethod
    def unstable(needed: int, message: str) -> "OpResult":
        return OpResult(status=OpStatus.UNSTABLE, value=needed, message=message)


_OKAY = OpResult(status=OpStatus.OK)


def inverse_of(op: LogicalOperation, result: OpResult) -> Optional[LogicalOperation]:
    """The logical inverse used for transaction rollback (Section 4.1.1).

    ``result`` is the reply from the forward execution; its ``prior`` field
    supplies the overwritten value where one is needed.  Returns ``None``
    for operations that need no inverse (reads, probes, version cleanups —
    versioned mutations are rolled back wholesale by a single
    :class:`DiscardVersionsOp`, which the TC constructs itself).
    """
    if isinstance(op, InsertOp):
        if op.versioned:
            return None
        return DeleteOp(table=op.table, key=op.key)
    if isinstance(op, DeleteOp):
        if op.versioned:
            return None
        return InsertOp(table=op.table, key=op.key, value=result.prior)
    if isinstance(op, UpdateOp):
        if op.versioned:
            return None
        return UpdateOp(table=op.table, key=op.key, value=result.prior)
    if isinstance(op, IncrementOp):
        return IncrementOp(table=op.table, key=op.key, delta=-op.delta)
    return None
