"""Logical records and the versioned-record model of Section 6.2.2.

A record is a key plus an opaque value.  Keys must be totally ordered
within a table (the B-tree relies on this).  Values are arbitrary Python
objects; :func:`sizeof_value` provides the byte-size model used by pages,
logs and the space experiments.

Versioned records support the paper's cross-TC *read committed* sharing: an
update produces a new *uncommitted* version while the *before* (committed)
version is retained.  The owning TC later sends version-cleanup operations
— promote on commit, discard on abort — so readers from other TCs never
block and no two-phase commit is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, NamedTuple, Optional

Key = Any
Value = Any


class _Tombstone:
    """Sentinel marking a pending delete in a versioned record."""

    _instance: Optional["_Tombstone"] = None

    def __new__(cls) -> "_Tombstone":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "<TOMBSTONE>"


TOMBSTONE = _Tombstone()


class _KeyExtreme:
    """Totally-ordered sentinel below (or above) every ordinary key.

    Used to build composite-key range bounds, e.g. all reviews of movie m:
    ``low=(m, KEY_MIN)``, ``high=(m, KEY_MAX)``.
    """

    def __init__(self, top: bool) -> None:
        self._top = top

    def __lt__(self, other: object) -> bool:
        if isinstance(other, _KeyExtreme):
            return (not self._top) and other._top
        return not self._top

    def __gt__(self, other: object) -> bool:
        if isinstance(other, _KeyExtreme):
            return self._top and not other._top
        return self._top

    def __le__(self, other: object) -> bool:
        return not self.__gt__(other)

    def __ge__(self, other: object) -> bool:
        return not self.__lt__(other)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _KeyExtreme) and other._top == self._top

    def __hash__(self) -> int:
        return hash(("_KeyExtreme", self._top))

    def __repr__(self) -> str:
        return "<KEY_MAX>" if self._top else "<KEY_MIN>"


KEY_MIN = _KeyExtreme(top=False)
KEY_MAX = _KeyExtreme(top=True)

#: Exact-type fast table for :func:`sizeof_value` (bool precedes int in the
#: legacy chain, so both get explicit entries here).
_FIXED_VALUE_SIZES = {type(None): 1, bool: 1, int: 8, float: 8}


def sizeof_value(value: Value) -> int:
    """Approximate encoded size in bytes of a record value.

    A deliberately simple, deterministic model: strings and bytes count
    their length, numbers count fixed widths, containers sum their parts
    plus small per-element overhead.  The absolute numbers only need to be
    consistent, since every experiment compares sizes produced by the same
    model.
    """
    # Exact-type dispatch first: the overwhelming majority of values are
    # plain strs/ints/floats, and the isinstance chain below (kept for
    # subclasses and containers) is measurably hot without it.
    kind = type(value)
    if kind is str:
        # ASCII length equals UTF-8 length — no throwaway encode.
        return len(value) if value.isascii() else len(value.encode("utf-8"))
    fixed = _FIXED_VALUE_SIZES.get(kind)
    if fixed is not None:
        return fixed
    if value is None or value is TOMBSTONE:
        return 1
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return 8
    if isinstance(value, float):
        return 8
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    if isinstance(value, (list, tuple, frozenset, set)):
        return 2 + sum(sizeof_value(item) + 1 for item in value)
    if isinstance(value, dict):
        return 2 + sum(
            sizeof_value(k) + sizeof_value(v) + 2 for k, v in value.items()
        )
    return len(repr(value).encode("utf-8"))


def sizeof_key(key: Key) -> int:
    """Encoded size of a key; keys use the same model as values."""
    return sizeof_value(key)


#: A ``VersionedRecord`` from all its fields in one C call (not Python's).
_new_record = tuple.__new__


class VersionedRecord(NamedTuple):
    """A record slot inside a DC page — an immutable value.

    ``committed`` is the version visible to cross-TC read-committed
    readers.  ``pending`` is the uncommitted version produced by the owning
    TC's in-flight transaction (``TOMBSTONE`` for a pending delete); it is
    what the owner itself and dirty readers see.  Non-versioned tables keep
    everything in ``committed`` and never populate ``pending``.

    ``owner_tc`` links the record to the TC whose abLSN covers it — the
    record->TC chain of Section 6.1.2 that enables record-level page reset.

    **Snapshot extension** (Section 6.3 "potential for providing snapshot
    isolation"): versioned tables may additionally retain a bounded
    *history* of superseded committed versions, each stamped with the
    DC-local commit sequence number at which it was installed.
    ``commit_seq`` stamps the current committed value;
    :meth:`snapshot_value` reads as-of any past watermark.

    A record is never written after it is built: an attribute write
    raises, ``history`` is a tuple, and every mutator below returns a new
    record.  That is what lets a live page, its stored image, the journal's
    base image and a sibling page after a split all hold the *same* object
    — a change replaces the slot, it never edits it.
    """

    key: Key
    committed: Value = None
    pending: Value = None
    has_pending: bool = False
    owner_tc: int = 0
    #: Commit sequence at which ``committed`` was installed (0 = unknown /
    #: non-versioned table).
    commit_seq: int = 0
    #: Superseded committed versions, oldest first: (commit_seq, value);
    #: TOMBSTONE records a deleted state.
    history: tuple = ()

    # -- visibility ------------------------------------------------------

    def visible_value(self, read_committed: bool) -> Value:
        """The value a reader sees, or ``None`` for "no visible record".

        ``read_committed=True`` is the cross-TC flavor (before-version when
        an uncommitted version exists); ``False`` is the owner's own view /
        dirty read (latest version).
        """
        if read_committed:
            return self.committed
        if self.has_pending:
            return None if self.pending is TOMBSTONE else self.pending
        return self.committed

    def exists_for(self, read_committed: bool) -> bool:
        if read_committed:
            return self.committed is not None
        if self.has_pending:
            return self.pending is not TOMBSTONE
        return self.committed is not None

    # -- derivation by the DC (each returns a new record) ------------------

    def set_committed(self, value: Value, owner_tc: Optional[int] = None) -> "VersionedRecord":
        """The record with ``committed`` replaced (and, when given, a new
        owner).  This runs once per write, hence :data:`_new_record`."""
        return _new_record(VersionedRecord, (
            self.key, value, self.pending, self.has_pending,
            self.owner_tc if owner_tc is None else owner_tc,
            self.commit_seq, self.history,
        ))

    def set_pending(self, value: Value, owner_tc: Optional[int] = None) -> "VersionedRecord":
        return _new_record(VersionedRecord, (
            self.key, self.committed, value, True,
            self.owner_tc if owner_tc is None else owner_tc,
            self.commit_seq, self.history,
        ))

    def promote_pending(self, commit_seq: int = 0, keep_history: int = 0) -> "VersionedRecord":
        """Version cleanup on commit: the pending version becomes committed.

        With ``keep_history > 0`` the superseded committed version is
        retained (up to that many entries) for snapshot readers, stamped
        with the sequence it originally carried.
        """
        if not self.has_pending:
            return self
        history = self.history
        if keep_history > 0 and self.commit_seq > 0:
            old = TOMBSTONE if self.committed is None else self.committed
            history = (history + ((self.commit_seq, old),))[-keep_history:]
        return VersionedRecord(
            self.key, None if self.pending is TOMBSTONE else self.pending,
            None, False, self.owner_tc, commit_seq, history,
        )

    def discard_pending(self) -> "VersionedRecord":
        """Version cleanup on abort: drop the uncommitted version."""
        return self._replace(pending=None, has_pending=False) if self.has_pending else self

    def snapshot_value(self, watermark: int) -> Value:
        """The committed value as of ``watermark``; None if the record did
        not (visibly) exist then.

        The caller (the DC) is responsible for rejecting watermarks older
        than its retention horizon — below the horizon, pruned history
        makes "did not exist" indistinguishable from "version discarded".
        """
        if self.commit_seq and self.commit_seq <= watermark:
            return self.committed
        for seq, value in reversed(self.history):
            if seq <= watermark:
                return None if value is TOMBSTONE else value
        return None

    def prune_history(self, oldest_seq_to_keep: int) -> "VersionedRecord":
        """The record without history entries strictly older than the horizon."""
        kept = tuple(entry for entry in self.history if entry[0] >= oldest_seq_to_keep)
        return self if len(kept) == len(self.history) else self._replace(history=kept)

    def max_seq(self) -> int:
        top = self.commit_seq
        for seq, _value in self.history:
            if seq > top:
                top = seq
        return top

    def is_dead(self) -> bool:
        """True when the slot holds no version at all and can be reclaimed."""
        return self.committed is None and not self.has_pending and not self.history

    # -- space model -------------------------------------------------------

    def encoded_size(self) -> int:
        size = sizeof_key(self.key) + 4  # slot header
        size += sizeof_value(self.committed)
        if self.has_pending:
            size += sizeof_value(self.pending)
        if self.owner_tc:
            size += 2  # the two-byte chain offset of Section 6.1.2
        if self.commit_seq:
            size += 8
        return size + _history_size(self.history) if self.history else size


def size_change(old: Optional[VersionedRecord], new: VersionedRecord) -> int:
    """``new.encoded_size()`` less ``old``'s (0 for no ``old``), sizing
    only the fields that are not the same object in both: each field is
    its own term of :meth:`VersionedRecord.encoded_size`, so the rest
    cancel exactly."""
    if old is None:
        return new.encoded_size()
    # (not x) - (not y) is 1 when only y is set, -1 when only x is
    delta = 2 * ((not old.owner_tc) - (not new.owner_tc))
    delta += 8 * ((not old.commit_seq) - (not new.commit_seq))
    if new.committed is not old.committed:
        delta += sizeof_value(new.committed) - sizeof_value(old.committed)
    if new.pending is not old.pending or new.has_pending != old.has_pending:
        if new.has_pending:
            delta += sizeof_value(new.pending)
        if old.has_pending:
            delta -= sizeof_value(old.pending)
    if new.history is not old.history:
        delta += _history_size(new.history) - _history_size(old.history)
    return delta


def _history_size(history: tuple) -> int:
    return sum(8 + sizeof_value(value) for _seq, value in history)


@dataclass(frozen=True)
class RecordView:
    """Immutable (key, value) pair returned by reads."""

    key: Key
    value: Value

    def as_tuple(self) -> tuple[Key, Value]:
        return (self.key, self.value)
