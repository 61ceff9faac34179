"""The protocol-counter ledger: which judged lane must reach which branch.

Many counters name a protocol branch — a lock wait, a group-commit rider,
a one-way commit.  A judge that never reaches a branch says nothing about
it, so each row below names a counter, the paper section or contract its
branch serves, and the *lanes* that must make it non-zero.  A lane is a
``chaos`` run, an ``explore`` run (both named in :data:`LANES`) or a
tier-1 test module (a ``tests/...py`` path, judged by pytest itself).

``python -m repro chaos`` and ``python -m repro explore`` end by printing
their counter totals as one JSON object (``{"counters": {...}}``).  Save
each lane's last line as ``<lane>.json`` in one directory and run::

    python -m repro.sim.ledger DIR

It merges the totals and exits 1 when a row's counter is 0 in every chaos
or explore lane that names it and that ran.  A row none of whose lanes ran
is listed as not judged; a row that names only tier-1 modules is listed
as judged by pytest.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

#: The chaos and explore lanes CI runs, by name: the command line of each.
LANES: dict[str, str] = {
    "chaos-tcp": (
        "python -m repro chaos --process --tcp --seed 3 --txns 40 "
        "--kill-every 12 --kill-tc-every 18"
    ),
    "chaos-tc-process": (
        "python -m repro chaos --process --tc-process --kill-tc-every 29 "
        "--txns 80 --kill-every 19 --seed 11"
    ),
    "chaos-tc-process-occ": (
        "python -m repro chaos --process --tc-process --kill-tc-every 9 "
        "--txns 36 --seed 31 --cc occ --increment-rate 0.2"
    ),
    "chaos-tc-process-mvcc": (
        "python -m repro chaos --process --tc-process --kill-tc-every 9 "
        "--txns 36 --seed 31 --cc mvcc --increment-rate 0.2"
    ),
    "explore-crash": (
        "python -m repro explore --schedules 500 --strategy random,pct,rr --crash"
    ),
    "explore-optimized": (
        "python -m repro explore --schedules 500 --strategy random,pct,rr "
        "--crash --optimized --cc 2pl,occ,mvcc"
    ),
    "explore-cc": (
        "python -m repro explore --schedules 500 --strategy random,pct "
        "--crash --cc 2pl,occ,mvcc"
    ),
}


@dataclass(frozen=True)
class Row:
    counter: str
    #: The paper section or contract the counted branch serves.
    serves: str
    #: Lanes that must make the counter non-zero.
    lanes: tuple[str, ...]
    note: str = ""


LEDGER: tuple[Row, ...] = (
    Row(
        "locks.waits",
        "§3.1 / §4.1.1 strict 2PL: a conflicting request waits for its holder",
        (
            "explore-crash",
            "explore-optimized",
            "explore-cc",
            "tests/test_lock_manager.py",
        ),
        "the explorer parks a blocked task at the scheduler (LOCK_BLOCKED); "
        "chaos runs one transaction at a time and never waits",
    ),
    Row(
        "locks.deadlocks",
        "§4.1.1 strict 2PL: a waits-for cycle aborts the requester",
        (
            "explore-crash",
            "explore-optimized",
            "explore-cc",
            "tests/test_lock_manager.py",
        ),
    ),
    Row(
        "locks.timeouts",
        "§4.1.1 strict 2PL: a wait with no cycle ends at lock_timeout",
        ("tests/test_lock_manager.py",),
        "only parked threads reach it, so only tier-1 thread tests judge "
        "the lock table's threaded wait/notify path (TestParkedWakeups): "
        "the explorer parks cooperatively under a 60 s timeout and chaos "
        "runs serially",
    ),
    Row(
        "tclog.group_commit_leads",
        "§4.2.1 force-before-ack: a committer forces the TC log for its group",
        ("explore-optimized", "tests/test_group_commit.py"),
        "chaos runs group_commit_size=1, which forces without the coalescer",
    ),
    Row(
        "tclog.group_commit_riders",
        "§4.2.1 force-before-ack: a committer rides another's force",
        ("tests/test_group_commit.py",),
        "no judged lane rides: an explorer task parked in the coalescer "
        "keeps the run token until its deadline and then leads itself, "
        "and chaos runs group_commit_size=1",
    ),
    Row(
        "buffer.evictions",
        "§4.2 causality: a page leaves the cache only once it may be flushed",
        ("tests/test_buffer.py", "tests/test_cold_path.py"),
        "every chaos and explore working set fits the 256-page pool",
    ),
    Row(
        "tcserver.oneway_commits",
        "docs/architecture.md §16 contract: a read-only commit the TC has "
        "decided under 2PL leaves as a one-way frame",
        ("chaos-tcp", "chaos-tc-process", "tests/test_oneway_commit.py"),
        "every fifth process-mode chaos transaction only reads; the occ "
        "and mvcc lanes validate at commit and keep the round trip",
    ),
    Row(
        "dc.log_truncations",
        "§4.2 contract termination: a DC-log checkpoint drops the DC log "
        "below flushed pages",
        ("chaos-tcp", "chaos-tc-process", "tests/test_recovery_truncation.py"),
        "process-mode chaos checkpoints every live DC's log beside each TC "
        "checkpoint; in-process chaos keeps its stream for scripted faults",
    ),
    Row(
        "journal.compactions",
        "docs/architecture.md §12: a DC server rewrites its journal as live "
        "state once it has doubled since the last rewrite",
        ("chaos-tcp", "chaos-tc-process", "tests/test_recovery_truncation.py"),
        "a server compacts at its first DC-log checkpoint after it starts, "
        "so a lane reaches it once per DC incarnation that checkpoints",
    ),
    Row(
        "journal.replayed_frames",
        "§5.2.1 DC restart: a killed DC server rebuilds its volume from "
        "the journal before redo",
        (
            "chaos-tcp",
            "chaos-tc-process",
            "tests/test_journal_torn_tail.py",
            "tests/test_recovery_truncation.py",
        ),
    ),
    Row(
        "dc.duplicate_ops",
        "§5.1.2 abLSN idempotence: a resent or replayed operation the page "
        "already reflects is answered, not applied again",
        ("explore-crash", "chaos-tcp"),
        "a crash between a write and its reply makes the heal's redo or the "
        "TC's resend meet an operation the DC already holds",
    ),
    Row(
        "buffer.lwm_catchups",
        "§5.1.2 establishing LSNlw: a cached page's abLSN catches up to the "
        "TC's low-water mark when the page is next observed, not when the "
        "mark arrives",
        ("explore-crash", "chaos-tcp", "tests/test_lwm_catchup.py"),
        "any lane whose TC sends a mark and then touches a page reaches it",
    ),
    Row(
        "dc.stale_incarnation_ops",
        "§5.3 DC crash: a request in flight across a DC crash and recover "
        "is lost, not executed against the rebuilt state",
        ("explore-crash",),
        "only the in-process explorer can park a request at BUFFER_LATCH "
        "while its DC crashes and recovers; a killed server's thread dies",
    ),
    Row(
        "tcserver.disconnect_aborts",
        "§5.3.2 presumed abort: a client that disconnects mid-transaction "
        "gets its open transactions aborted (what its crash would force at "
        "restart), so their locks do not outlive it",
        ("tests/test_server_contract.py", "tests/test_tc_service.py"),
    ),
    Row(
        "tcserver.oneway_failures",
        "docs/architecture.md §16 contract: a one-way commit that fails is "
        "counted and its transaction aborted, since no client hears it",
        ("tests/test_server_core.py",),
        "no lane makes a read-only commit fail under 2PL; the core test "
        "vetoes one at its commit-time validation",
    ),
    Row(
        "tc.unstable_retries",
        "§4.2.2 causality gate: an operation a DC refuses as UNSTABLE (a "
        "before-image it needs is still owed) waits for the fill, then is "
        "resent",
        ("tests/test_reply_undo.py",),
    ),
    Row(
        "tc.zombie_rollbacks_completed",
        "docs/architecture.md §6 partial failures: a rollback parked by a DC "
        "outage finishes once the DC heals",
        (
            "explore-crash",
            "explore-optimized",
            "tests/test_zombie_rollbacks.py",
        ),
    ),
    Row(
        "tc.redo_rejected",
        "§5.3.2 TC restart: redo resends an operation its DC had rejected "
        "when the cancel marker was lost with the volatile log tail, and "
        "the DC rejects it again",
        ("tests/test_redo_rejected.py",),
        "needs a split's force prompt to make the rejected operation's "
        "record stable in the envelope that carried it, then a TC crash",
    ),
    Row(
        "tc.fetch_ahead_retries",
        "§3.1 fetch-ahead range reads: a probed batch the authoritative read "
        "contradicts (a key moved between probe and lock) is retried",
        ("tests/test_fetch_ahead_retry.py",),
    ),
    Row(
        "dc.bounced_in_redo_window",
        "§5.2.2 recovery ordering: a restarted DC refuses a TC's ordinary "
        "operations until that TC's redo stream is complete",
        ("explore-crash", "explore-optimized"),
    ),
    Row(
        "dc.lwm_dropped_in_redo_window",
        "§5.2.2 recovery ordering: a pre-crash low-water mark must not cover "
        "operations the redo stream has not replayed yet",
        ("explore-crash", "tests/test_dc_restart_semantics.py"),
    ),
    Row(
        "dc.checkpoint_refused_in_redo_window",
        "§5.2.2 recovery ordering: no RSSP is granted past a redo stream "
        "that is still open",
        ("tests/test_dc_restart_semantics.py",),
        "no lane reaches it: a TC's checkpoint never overlaps its own redo",
    ),
    Row(
        "journal.compaction_failures",
        "docs/architecture.md §12: a DC journal rewrite that fails leaves "
        "the old journal serving and the checkpoint answered",
        ("tests/test_recovery_truncation.py",),
        "only an injected ENOSPC or failed rename reaches it; no judged "
        "lane fills a disk",
    ),
    Row(
        "tclog.rewrite_failures",
        "§4.2 contract termination: a TC journal rewrite that fails leaves "
        "the old journal serving and the checkpoint answered",
        ("tests/test_recovery_truncation.py",),
        "only an injected ENOSPC or failed rename reaches it; no judged "
        "lane fills a disk",
    ),
)


def load_totals(directory: Path) -> dict[str, dict[str, int]]:
    """``{lane: counters}`` from each ``<lane>.json`` in ``directory``."""
    totals: dict[str, dict[str, int]] = {}
    for path in sorted(directory.glob("*.json")):
        last = path.read_text().strip().splitlines()[-1]
        totals[path.stem] = json.loads(last)["counters"]
    return totals


def check(totals: Mapping[str, Mapping[str, int]]) -> tuple[list[str], list[str]]:
    """Judge every row against the lanes that ran: (report lines, failures)."""
    lines: list[str] = []
    failures: list[str] = []
    for row in LEDGER:
        # Chaos and explore lanes are judged here, test modules by pytest.
        judged = [lane for lane in row.lanes if lane in LANES]
        ran = [lane for lane in judged if lane in totals]
        if not judged:
            lines.append(f"{row.counter}: judged by pytest ({', '.join(row.lanes)})")
            continue
        if not ran:
            lines.append(f"{row.counter}: not judged (none of {', '.join(judged)} ran)")
            continue
        counts = {lane: totals[lane].get(row.counter, 0) for lane in ran}
        shown = ", ".join(f"{lane}={count}" for lane, count in counts.items())
        if any(counts.values()):
            lines.append(f"{row.counter}: ok ({shown})")
        else:
            failures.append(row.counter)
            lines.append(f"{row.counter}: ZERO in every lane that names it ({shown})")
    return lines, failures


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python -m repro.sim.ledger DIR")
        return 2
    lines, failures = check(load_totals(Path(argv[0])))
    print("\n".join(lines))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
