"""Exception hierarchy for the unbundled kernel.

Every error raised by the library derives from :class:`ReproError` so
callers can catch library failures with a single handler while letting
programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class TransactionAborted(ReproError):
    """The transaction was rolled back and must not be used further.

    Raised both for explicit aborts that the caller then re-observes and
    for internally forced aborts (deadlock victims, crash-time losers).
    """

    def __init__(self, txn_id: int, reason: str = "aborted") -> None:
        super().__init__(f"transaction {txn_id} aborted: {reason}")
        self.txn_id = txn_id
        self.reason = reason


class DeadlockError(TransactionAborted):
    """The transaction was chosen as a deadlock victim."""

    def __init__(self, txn_id: int, cycle: tuple[int, ...]) -> None:
        TransactionAborted.__init__(
            self, txn_id, f"deadlock victim (cycle {'->'.join(map(str, cycle))})"
        )
        self.cycle = cycle


class LockTimeoutError(ReproError):
    """A lock request waited longer than the configured timeout."""

    def __init__(self, txn_id: int, resource: object) -> None:
        super().__init__(f"transaction {txn_id} timed out waiting for {resource!r}")
        self.txn_id = txn_id
        self.resource = resource


class CrashedError(ReproError):
    """The component is crashed and cannot serve requests until restart."""

    def __init__(self, component: str) -> None:
        super().__init__(f"{component} is crashed")
        self.component = component


class ComponentUnavailableError(CrashedError):
    """An operation was addressed to a component that is known to be down.

    Raised instead of retrying into a dead component so callers fail fast
    within their timeout budget; the supervisor heals the component and the
    caller may then retry.  Subclasses :class:`CrashedError` so existing
    ``except CrashedError`` handlers keep working.
    """

    def __init__(self, component: str, attempts: int = 0, waited_ms: float = 0.0) -> None:
        CrashedError.__init__(self, component)
        self.attempts = attempts
        self.waited_ms = waited_ms


class UndoImageLostError(CrashedError):
    """A DC acknowledged a write without the before-image the TC asked for.

    The TC had logged the operation with its undo image *owed* (to be
    filled from this reply) and will not guess one: it fail-stops.  The
    owed record was never stable, so restart loses it from the log and —
    through the Section 5.3.2 reset — from the DC together.
    """

    def __init__(self, component: str, op_id: object) -> None:
        CrashedError.__init__(self, component)
        self.op_id = op_id


class ResendExhaustedError(ReproError):
    """An operation's resend policy ran out of attempts or timeout budget.

    The component was not known to be crashed — the channel simply never
    delivered an acknowledgement (sustained loss or a partition).
    """

    def __init__(
        self, op_id: object, component: str, attempts: int, waited_ms: float = 0.0
    ) -> None:
        super().__init__(
            f"operation {op_id} to {component} unacknowledged after "
            f"{attempts} attempts ({waited_ms:.1f}ms of backoff)"
        )
        self.op_id = op_id
        self.component = component
        self.attempts = attempts
        self.waited_ms = waited_ms


class ConfigError(ReproError):
    """A configuration value is outside the vocabulary the kernel accepts.

    Raised at config-construction time (``__post_init__``) so a typo like
    ``transport="proccess"`` fails where it was written instead of deep in
    kernel setup with an unrelated traceback.
    """

    def __init__(self, field: str, value: object, allowed: tuple = ()) -> None:
        hint = f" (expected one of {', '.join(map(repr, allowed))})" if allowed else ""
        super().__init__(f"invalid {field}: {value!r}{hint}")
        self.field = field
        self.value = value
        self.allowed = allowed


class TcRedirect(ReproError):
    """A request landed on a TC that does not own the key's partition.

    Retryable: ``owner`` names the TC that does own it; the router (or any
    client) re-issues the request there.  Section 6's disjoint update
    rights, surfaced as routing information instead of a hard failure.
    """

    def __init__(self, table: str, key: object, owner: str) -> None:
        super().__init__(
            f"key {key!r} of table {table!r} is owned by {owner}; retry there"
        )
        self.table = table
        self.key = key
        self.owner = owner


class InjectedFault(ReproError):
    """A fault deliberately raised by the fault-injection engine."""

    def __init__(self, point: str, note: str = "") -> None:
        super().__init__(f"injected fault at {point}" + (f": {note}" if note else ""))
        self.point = point
        self.note = note


class OwnershipError(ReproError):
    """A TC tried to update data outside its ownership partition.

    Section 6 requires that update rights of TCs sharing a DC be disjoint;
    this error enforces that invariant at the deployment layer.
    """


class PageOverflowError(ReproError):
    """A record does not fit on a page even after a structure modification."""


class SnapshotTooOldError(ReproError):
    """A snapshot read's watermark fell behind the DC's retention horizon."""

    def __init__(self, watermark: int, floor: int) -> None:
        super().__init__(
            f"snapshot watermark {watermark} is older than the retention "
            f"floor {floor}"
        )
        self.watermark = watermark
        self.floor = floor


class WriteAheadViolation(ReproError):
    """A page (or a system transaction's page image) would become stable
    ahead of the stable TC log.

    Causality (Section 4.2) forbids making a page stable while it reflects
    operations that could still be lost by a TC crash.  ``needed`` maps
    each TC whose log fell short to the LSN it had to be stable through.
    """

    def __init__(self, message: str = "", needed: dict[int, int] | None = None) -> None:
        super().__init__(message)
        self.needed = needed or {}


class JournalCorruptError(ReproError):
    """A journal is damaged somewhere other than its torn tail (a bad
    frame with a complete one after it, a delta frame without its base):
    truncating would drop acknowledged writes, so the volume refuses to
    open and the file is left as found."""


class UnknownTableError(ReproError):
    """An operation referenced a table the DC does not host."""

    def __init__(self, table: str) -> None:
        super().__init__(f"unknown table: {table!r}")
        self.table = table


class DuplicateKeyError(ReproError):
    """An insert found an existing (visible) record under the same key."""

    def __init__(self, table: str, key: object) -> None:
        super().__init__(f"duplicate key {key!r} in table {table!r}")
        self.table = table
        self.key = key


class NoSuchRecordError(ReproError):
    """An update/delete addressed a key with no visible record."""

    def __init__(self, table: str, key: object) -> None:
        super().__init__(f"no record with key {key!r} in table {table!r}")
        self.table = table
        self.key = key
