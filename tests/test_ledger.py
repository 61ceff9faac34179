"""The protocol-counter ledger (repro.sim.ledger): well-formed, wired to
the lanes CI runs, and judging what it says it judges."""

from __future__ import annotations

import json
import re
from pathlib import Path

from repro.__main__ import main as cli
from repro.sim.ledger import LANES, LEDGER, check, load_totals

ROOT = Path(__file__).resolve().parents[1]


def test_covers_the_branches_it_was_started_for():
    assert {row.counter for row in LEDGER} >= {
        "locks.waits",
        "locks.deadlocks",
        "locks.timeouts",
        "tclog.group_commit_leads",
        "tclog.group_commit_riders",
        "buffer.evictions",
        "tcserver.oneway_commits",
        "tcserver.disconnect_aborts",
        "tcserver.oneway_failures",
        "tc.unstable_retries",
        "tc.zombie_rollbacks_completed",
        "tc.fetch_ahead_retries",
        "dc.log_truncations",
        "journal.compactions",
        "journal.replayed_frames",
        "journal.compaction_failures",
        "tclog.rewrite_failures",
        "dc.duplicate_ops",
        "dc.stale_incarnation_ops",
        "dc.bounced_in_redo_window",
        "dc.lwm_dropped_in_redo_window",
        "dc.checkpoint_refused_in_redo_window",
    }


def test_every_lane_exists():
    for row in LEDGER:
        assert row.serves and row.lanes, row
        for lane in row.lanes:
            assert lane in LANES or (ROOT / lane).is_file(), (row.counter, lane)


def test_every_counter_is_counted_somewhere_in_src():
    source = "\n".join(
        p.read_text() for p in (ROOT / "src").rglob("*.py") if p.name != "ledger.py"
    )
    for row in LEDGER:
        assert f'"{row.counter}"' in source, row.counter


def test_every_lane_is_a_command_ci_runs():
    workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    flat = re.sub(r"\s+", " ", workflow.replace("\\\n", " "))
    flat = flat.replace("PYTHONPATH=src ", "")
    for lane, command in LANES.items():
        assert command in flat, lane
        assert f"ledger/{lane}.json" in workflow, lane


def test_zero_in_every_lane_that_ran_fails():
    totals = {
        "chaos-tcp": {"dc.log_truncations": 2, "dc.duplicate_ops": 14},
        "chaos-tc-process": {"tcserver.oneway_commits": 0, "journal.compactions": 4},
    }
    lines, failures = check(totals)
    assert failures == ["tcserver.oneway_commits", "journal.replayed_frames"]
    assert any(line.startswith("tcserver.oneway_commits: ZERO") for line in lines)
    assert any(line.startswith("journal.compactions: ok") for line in lines)


def test_one_lane_reaching_it_is_enough():
    _lines, failures = check(
        {"chaos-tcp": {}, "chaos-tc-process": {"tcserver.oneway_commits": 3}}
    )
    assert "tcserver.oneway_commits" not in failures


def test_rows_whose_lanes_did_not_run_are_not_judged():
    lines, failures = check({})
    assert failures == []
    assert any(line.startswith("locks.waits: not judged") for line in lines)
    assert any(line.startswith("locks.timeouts: judged by pytest") for line in lines)


def test_reads_the_last_line_of_each_lane(tmp_path):
    (tmp_path / "explore-crash.json").write_text(
        'clean: 3 schedules\n{"counters": {"locks.waits": 4}}\n'
    )
    assert load_totals(tmp_path) == {"explore-crash": {"locks.waits": 4}}


def test_explore_and_chaos_end_with_their_counter_totals(capsys):
    assert cli(["explore", "--schedules", "4", "--strategy", "random"]) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert json.loads(last)["counters"]["tc.commits"] > 0
    assert cli(["chaos", "--seed", "2", "--txns", "6"]) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert json.loads(last)["counters"]["tc.begins"] == 6
