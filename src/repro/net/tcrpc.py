"""The TC-service control plane: app-facing txn API as wire messages.

The process deployment mode promoted DCs to OS processes (PR 4); this
vocabulary promotes the *TC* — the last component still trapped in the
client's address space — to its own process tier (docs/architecture.md
§16).  A client (the kernel's :class:`~repro.net.tcclient.RemoteTc`
proxy, or the router in :mod:`repro.cloud.router`) speaks these messages
to a :mod:`repro.net.tcserver` process over the same framed multiplexing
(:mod:`repro.net.rpc`) and tagged codec (:mod:`repro.net.wire`) the
DC tier uses.

Three message families:

- **Lifecycle / wiring** — :class:`TcHello` (first frame out of a fresh
  server, carrying whether its journal replayed), :class:`AttachDc` /
  :class:`RefreshRoutes` (DC pool membership and table routes),
  :class:`GrantOwnership` (Section 6's disjoint update rights, carried as
  a stable-hash partition rule so every process computes the same owner),
  :class:`SharingMode` (cross-TC read flavor), :class:`DcRestarted` (the
  supervisor's prompt that a shared DC was healed — the TC server
  reconnects and resends its redo stream), :class:`TcRetryPending`.
- **Transactions** — ``TxnWrite .. TxnCommit/TxnAbort`` mirror the
  :class:`~repro.tc.transactional_component.Transaction` surface;
  ``txn_id`` correlates every op with its server-side transaction.
  Opening one is not a message: a request whose ``txn_id`` is a
  *negative*, client-chosen, connection-local handle the connection has
  not used before opens the transaction it names, every reply carries
  the server's (positive) id, and the handle stays valid for that
  transaction until it ends (docs/architecture.md §16).
  Writes collapse to one :class:`TxnWrite` with a ``verb`` so the
  vocabulary stays small while covering insert/update/delete/increment.
- **Sharing** — :class:`ReadOther` / :class:`ScanOther` are Section 6.2's
  cross-TC reads: no locks, never block, routable to *any* TC sharing the
  DC pool.

:class:`Redirect` is the router contract: a TC that does not own a key's
partition bounces the write with the owner's name instead of failing —
retryable misrouting, not an error (see ``TcRedirect``).

Every message is a frozen dataclass with fully-defaulted fields, like the
rest of the vocabulary, so schema evolution keeps decoding old frames.
All subclass :class:`repro.common.api.Message`; the wire bootstrap's
subclass walk registers them automatically.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.api import Message
from repro.common.lsn import Lsn


# -- lifecycle / wiring -------------------------------------------------------


@dataclass(frozen=True)
class TcHello(Message):
    """First frame a TC server pushes: identity, and whether it recovered.

    ``recovered`` means the TC-log journal replayed on startup and the
    server ran the Section 5.3.2 restart protocol (record reset + redo +
    loser undo) against its DCs *before* accepting requests.
    """

    tc_name: str = ""
    pid: int = 0
    recovered: bool = False
    replayed_records: int = 0
    #: The server's fast-path codec vocabulary (``(id, name, signature)``
    #: triples); empty means tagged only.  Same negotiation contract as
    #: :class:`repro.net.rpc.Hello`.
    fast_codec: tuple = ()
    #: The server's concurrency control cannot veto the commit of a
    #: transaction that wrote nothing (2PL), so such a commit may arrive
    #: one-way, as a ``PUSH`` frame nothing answers (docs/architecture.md
    #: §16).  An older server's hello lacks the field: its clients keep
    #: the round trip.
    read_only_commit_decided: bool = False


@dataclass(frozen=True)
class AttachDc(Message):
    """Connect the TC server to one DC process via its Unix socket."""

    dc_name: str = ""
    socket_path: str = ""


@dataclass(frozen=True)
class RefreshRoutes(Message):
    """(Re)learn the named DC's table routes (after a create_table)."""

    dc_name: str = ""


@dataclass(frozen=True)
class GrantOwnership(Message):
    """Install Section 6 disjoint update rights for one logical table.

    The rule is a stable-hash partition map: this TC owns key ``k`` iff
    ``stable_key_hash(k) % modulus in residues``.  ``owners[p]`` names the
    TC owning partition ``p`` — that is what a :class:`Redirect` quotes,
    so the router can re-aim a misrouted write without a second lookup.
    A built-in ``hash()`` would not do: str hashing is seed-randomized per
    process, and router and server must agree across processes.
    """

    table: str = ""
    modulus: int = 1
    residues: tuple = ()
    owners: tuple = ()


@dataclass(frozen=True)
class SharingMode(Message):
    """Set the server's default cross-TC read flavor (Section 6.2)."""

    mode: str = "read_committed"


@dataclass(frozen=True)
class DcRestarted(Message):
    """Supervisor prompt: the named DC was kill -9'd and healed.

    The TC server reconnects its DC client over the (re-bound) socket,
    re-registers, and resends its redo stream from the RSSP — the same
    §5.2.2 window the in-process ``_on_dc_restart`` drives.
    """

    dc_name: str = ""


@dataclass(frozen=True)
class TcRetryPending(Message):
    """Drive the server's zombie rollback/completion retries once."""


# -- transactions -------------------------------------------------------------


@dataclass(frozen=True)
class TxnWrite(Message):
    """One mutation: ``verb`` is insert/update/delete/increment."""

    txn_id: int = 0
    verb: str = ""
    table: str = ""
    key: object = None
    value: object = None
    delta: object = 0


@dataclass(frozen=True)
class TxnAck(Message):
    """Positive acknowledgement for a txn op with no other payload."""

    txn_id: int = 0


@dataclass(frozen=True)
class TxnRead(Message):
    txn_id: int = 0
    table: str = ""
    key: object = None


@dataclass(frozen=True)
class TxnReadReply(Message):
    """``found`` distinguishes "no record" from a stored ``None`` value."""

    txn_id: int = 0
    found: bool = False
    value: object = None


@dataclass(frozen=True)
class TxnScan(Message):
    """Range read inside a transaction; ``limit=0`` means unlimited."""

    txn_id: int = 0
    table: str = ""
    low: object = None
    high: object = None
    limit: int = 0


@dataclass(frozen=True)
class TxnScanReply(Message):
    txn_id: int = 0
    rows: tuple = ()


@dataclass(frozen=True)
class TxnSync(Message):
    """Flush the transaction's pending envelopes now."""

    txn_id: int = 0


@dataclass(frozen=True)
class TxnCommit(Message):
    """A request, or — for a transaction that wrote nothing, when the
    server's hello said ``read_only_commit_decided`` — a one-way frame."""

    txn_id: int = 0


@dataclass(frozen=True)
class TxnAbort(Message):
    txn_id: int = 0


# -- cross-TC sharing (Section 6.2) -------------------------------------------


@dataclass(frozen=True)
class ReadOther(Message):
    """Lock-free cross-TC read; ``flavor=None`` uses the server default."""

    table: str = ""
    key: object = None
    flavor: object = None


@dataclass(frozen=True)
class ScanOther(Message):
    table: str = ""
    low: object = None
    high: object = None
    limit: int = 0
    flavor: object = None


# -- routing ------------------------------------------------------------------


@dataclass(frozen=True)
class Redirect(Message):
    """Retryable bounce: the named ``owner`` TC owns this key's partition."""

    table: str = ""
    key: object = None
    owner: str = ""


# -- maintenance --------------------------------------------------------------


@dataclass(frozen=True)
class TcCheckpoint(Message):
    """Run a TC checkpoint (RSSP advance + log truncation) server-side."""


@dataclass(frozen=True)
class TcCheckpointReply(Message):
    advanced: bool = False
    rssp: Lsn = 0
