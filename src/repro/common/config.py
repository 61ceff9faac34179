"""Configuration knobs for the unbundled kernel.

Everything an experiment sweeps lives here so benchmark code can vary one
dataclass instead of threading loose parameters through constructors.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.common.errors import ConfigError


class PageSyncStrategy(enum.Enum):
    """The three page-sync alternatives of Section 5.1.2.

    A page being flushed must carry an LSN representation that is stable
    atomically with it:

    - ``DELAY`` — refuse further operations on the page and wait until the
      TC's low-water mark covers every included LSN, then write a single
      plain LSN.  Cheapest on page space, delays the flush.
    - ``FULL_ABLSN`` — write the entire ``<LSNlw, {LSNin}>`` onto the page
      immediately.  No delay, costs page space.
    - ``PRUNE_THEN_WRITE`` — wait only until ``{LSNin}`` has shrunk below a
      threshold, then write the (small) abLSN.  The hybrid.
    """

    DELAY = "delay"
    FULL_ABLSN = "full_ablsn"
    PRUNE_THEN_WRITE = "prune_then_write"


class RangeLockProtocol(enum.Enum):
    """The two range-locking alternatives of Section 3.1."""

    FETCH_AHEAD = "fetch_ahead"
    RANGE_PARTITION = "range_partition"


#: Vocabulary the typed config validation below accepts.  Kept as module
#: constants so error messages and tests quote one source of truth.
TRANSPORTS = ("inproc", "process")
SHARING_MODES = ("read_committed", "dirty")
CC_POLICIES = ("2pl", "occ", "mvcc")


@dataclass
class DcConfig:
    """Data component configuration."""

    #: Usable bytes per page (the space model drives splits/consolidates).
    page_size: int = 4096
    #: Pages the buffer pool may cache before evicting.
    buffer_capacity: int = 256
    #: How a page's abLSN is made stable at flush time.
    sync_strategy: PageSyncStrategy = PageSyncStrategy.FULL_ABLSN
    #: PRUNE_THEN_WRITE flushes once ``len({LSNin})`` is at or below this.
    prune_threshold: int = 4
    #: Leaf fill fraction below which a consolidation is attempted.
    min_fill: float = 0.25
    #: Snapshot-read extension (Section 6.3): how many commit sequence
    #: numbers of version history the DC retains for snapshot readers.
    #: 0 disables snapshots (the paper's plain two-version scheme).
    snapshot_retention: int = 0
    #: Cap on superseded versions kept per record.
    snapshot_max_versions: int = 16


#: A TC gives up after this many resend attempts of one operation.
MAX_RESEND_ATTEMPTS = 1000


@dataclass
class TcConfig:
    """Transactional component configuration."""

    #: Lock wait budget in "ticks" of the simulated scheduler / real ms.
    lock_timeout: float = 1.0
    #: How range reads are locked.
    range_protocol: RangeLockProtocol = RangeLockProtocol.FETCH_AHEAD
    #: Group commit: up to this many concurrently-committing transactions
    #: share one log force.  Durability is never relaxed — a commit is
    #: acknowledged only once its record's LSN is at or below EOSL; the
    #: knob only coalesces *when* the force happens (1 = force per commit,
    #: the paper-faithful default).
    group_commit_size: int = 1
    #: Every mutation leaves in a ``BatchedPerform`` envelope, logged as it
    #: is sent.  A transaction's envelope for a DC is flushed at this many
    #: operations (commit, scans and dependent reads flush earlier); the
    #: default 1 ships each write at its call, so a rejection still raises
    #: from the call.  The envelope is a transport unit, not an atomicity
    #: unit — request ids, replies and idempotence/resend semantics stay
    #: per operation (docs/architecture.md §9.1).
    batch_max_ops: int = 1
    #: TC-side undo-info cache: committed values learned under a covering
    #: lock, least recently used evicted past this many entries.  A miss
    #: costs no read: the write's own reply brings the before-image back
    #: (docs/architecture.md §9.2).  0 = no cache.
    undo_cache_size: int = 4096
    #: Send LWM/EOSL to DCs every this-many log appends.
    lwm_interval: int = 8
    #: Total simulated backoff one operation may accumulate before the TC
    #: gives up with ResendExhaustedError (the per-operation timeout budget).
    op_timeout_budget_ms: float = 5_000.0
    #: TEST ONLY — skip read locks entirely, breaking strict 2PL on
    #: purpose.  The schedule explorer's negative control flips this to
    #: prove the serializability oracle catches the resulting r/w cycles;
    #: never enable it for anything that should be correct.
    unsafe_skip_read_locks: bool = False
    #: Cross-TC read flavor in the TC service tier (Section 6.2): the
    #: default ``ReadFlavor`` a TC server applies to ``read_other`` /
    #: ``scan_other`` requests that do not name one explicitly.
    #: ``"read_committed"`` uses the versioned before-image;
    #: ``"dirty"`` reads the latest (possibly uncommitted) value.
    sharing_mode: str = "read_committed"
    #: Concurrency-control policy (docs/architecture.md §19).  ``"2pl"``
    #: is the paper's strict two-phase locking; ``"occ"`` drops read locks
    #: and validates read/scan sets at commit against concurrently
    #: committed writers; ``"mvcc"`` serves reads from the committed
    #: before-image (snapshot-style, no read locks) with write locks and
    #: first-committer-wins read validation.  All three are serializable
    #: and swept by the schedule explorer's oracle.
    cc_policy: str = "2pl"
    #: TEST ONLY — OCC/MVCC negative control: skip commit-time read-set
    #: validation, admitting non-serializable interleavings on purpose so
    #: the explorer's oracle can prove it catches a cheating validator.
    unsafe_skip_validation: bool = False
    #: TEST ONLY — MVCC negative control: read the newest (possibly
    #: uncommitted) value instead of the committed before-image and skip
    #: read tracking, producing dirty reads the oracle must flag.
    unsafe_mvcc_read_newest: bool = False

    def __post_init__(self) -> None:
        if self.sharing_mode not in SHARING_MODES:
            raise ConfigError("TcConfig.sharing_mode", self.sharing_mode, SHARING_MODES)
        if self.cc_policy not in CC_POLICIES:
            raise ConfigError("TcConfig.cc_policy", self.cc_policy, CC_POLICIES)
        for name, floor in (
            ("batch_max_ops", 1),
            ("undo_cache_size", 0),
            ("group_commit_size", 1),
        ):
            value = getattr(self, name)
            if value < floor:
                raise ConfigError(f"TcConfig.{name}", value, (f">= {floor}",))

    def retry_policy(self) -> "RetryPolicy":
        return RetryPolicy(
            max_attempts=MAX_RESEND_ATTEMPTS,
            timeout_budget_ms=self.op_timeout_budget_ms,
        )

    @classmethod
    def optimized(cls, **overrides) -> "TcConfig":
        """The FIG1 fast-path configuration (docs/architecture.md §9).

        Envelopes of up to eight operations and group commit; every
        §4.2.1 interaction contract is preserved, only round trips and log
        forces are coalesced.  The LWM broadcast interval is relaxed
        because every envelope already piggybacks the current EOSL — the
        broadcast only paces abLSN garbage collection, so a lazier cadence
        trades a little DC-side memory for fewer control messages, never
        correctness.
        """
        settings = dict(
            batch_max_ops=8,
            group_commit_size=8,
            lwm_interval=64,
        )
        settings.update(overrides)
        return cls(**settings)


@dataclass(frozen=True)
class RetryPolicy:
    """Unified resend policy: exponential backoff under a total budget.

    Backoff is *simulated* (charged to channel/metrics time, never slept)
    so retry storms are visible in experiments without slowing tests.  An
    operation is abandoned when either bound trips: attempts or budget.
    """

    max_attempts: int = MAX_RESEND_ATTEMPTS
    base_backoff_ms: float = 0.1
    max_backoff_ms: float = 25.0
    timeout_budget_ms: float = 5_000.0

    def backoff_ms(self, attempt: int) -> float:
        """Deterministic exponential backoff for the given attempt (1-based)."""
        if attempt <= 0:
            return 0.0
        return min(self.base_backoff_ms * (2.0 ** (attempt - 1)), self.max_backoff_ms)

    def exhausted(self, attempts: int, waited_ms: float) -> bool:
        return attempts >= self.max_attempts or waited_ms >= self.timeout_budget_ms


@dataclass
class ChannelConfig:
    """The TC <-> DC transport: simulated in-process, or a real pipe.

    With ``transport="process"`` each DC runs as its own OS process
    (docs/architecture.md §10) and the misbehavior knobs below must stay
    zero — a pipe delivers reliably in order; resend/idempotence get
    exercised by killing the process instead.
    """

    #: One-way latency per message, simulated milliseconds.
    latency_ms: float = 0.0
    #: Probability a request or reply is dropped (exercises resends).
    loss_rate: float = 0.0
    #: Probability a delivered message is duplicated.
    duplicate_rate: float = 0.0
    #: Seed for the channel's private RNG (determinism).
    seed: int = 0
    #: ``"inproc"`` (default) or ``"process"`` — where DCs live.
    transport: str = "inproc"
    #: Process transport: real-time bound one request waits for its reply
    #: before the TC treats it as lost and its resend policy takes over.
    request_timeout_s: float = 30.0
    #: TCP data plane: when set (e.g. ``"127.0.0.1"``), DC and TC
    #: listeners bind ``tcp://<listen_host>:0`` (ephemeral port, pinned
    #: after the first Hello, TCP_NODELAY) instead of Unix sockets, so the
    #: tiers can live on other hosts.  "" keeps Unix-domain sockets.
    listen_host: str = ""

    def __post_init__(self) -> None:
        if self.transport not in TRANSPORTS:
            raise ConfigError("ChannelConfig.transport", self.transport, TRANSPORTS)


@dataclass
class KernelConfig:
    """Bundle of everything, for one-call construction of a kernel."""

    dc: DcConfig = field(default_factory=DcConfig)
    tc: TcConfig = field(default_factory=TcConfig)
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    #: Process transport: directory holding per-DC journal volumes.  None
    #: = a kernel-owned temporary directory, removed on ``close()``; a
    #: caller-provided path persists across kernels (restart experiments).
    data_dir: Optional[str] = None
    #: TC service tier (docs/architecture.md §16): run the TC as this many
    #: OS processes instead of in the client.  0 = in-process TC (the
    #: historical mode).  The kernel itself drives at most one TC process;
    #: multi-TC fan-out goes through
    #: :class:`repro.cloud.router.TcServiceDeployment`.  Requires
    #: ``channel.transport == "process"``.
    tc_processes: int = 0

    def __post_init__(self) -> None:
        if self.tc_processes < 0:
            raise ConfigError("KernelConfig.tc_processes", self.tc_processes)
        if self.tc_processes and self.channel.transport != "process":
            raise ConfigError(
                "KernelConfig.tc_processes",
                self.tc_processes,
                ('requires channel.transport "process"',),
            )
