"""The fetch-ahead validation/retry path (Section 3.1).

"Should the records to be read or written be different from the ones that
were locked based on the earlier request, this subsequent request becomes
again a speculative request."  These tests inject a concurrent insert
*between* the probe and the authoritative read — deterministically, via a
DC wrapper — and assert the scan retries and lands on the enlarged truth.
"""

from __future__ import annotations

import pytest

from repro.common.config import DcConfig
from repro.common.ops import InsertOp, ProbeNextKeysOp, RangeReadOp
from repro.dc.data_component import DataComponent
from repro.sim.metrics import Metrics
from repro.tc.transactional_component import TransactionalComponent

#: tc_id used by the sneaky out-of-band writer
INTRUDER = 999


class IntrudingDc(DataComponent):
    """A DC that inserts a key right after serving the Nth probe —
    modelling another TC's insert racing the scanner's probe/lock window."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.intrusions: list[tuple[int, object, object]] = []
        self._probe_count = 0
        self._intruder_lsn = 10_000_000  # far above any real TC LSN

    def arm(self, after_probe: int, table: str, key: object, value: object) -> None:
        self.intrusions.append((after_probe, (table, key), value))

    def reset_probe_count(self) -> None:
        """Ignore probes issued so far (setup inserts also probe for their
        gap guards); arm counters relative to the scan under test."""
        self._probe_count = 0

    def _execute(self, handle, sub):
        result = super()._execute(handle, sub)
        if isinstance(sub.op, ProbeNextKeysOp):
            self._probe_count += 1
            for intrusion in list(self.intrusions):
                after_probe, (table, key), value = intrusion
                if self._probe_count == after_probe:
                    self.intrusions.remove(intrusion)
                    self._intruder_lsn += 1
                    self.perform_operation(
                        INTRUDER,
                        self._intruder_lsn,
                        InsertOp(table=table, key=key, value=value),
                    )
        return result


def scanning_setup(batch=4):
    from repro.common.config import TcConfig

    metrics = Metrics()
    dc = IntrudingDc("dc", config=DcConfig(page_size=1024), metrics=metrics)
    dc.create_table("t")
    dc.register_tc(INTRUDER, force_log=lambda lsn, images: lsn)
    tc = TransactionalComponent(
        config=TcConfig(fetch_ahead_batch=batch), metrics=metrics
    )
    tc.attach_dc(dc)
    with tc.begin() as txn:
        for key in range(0, 20, 2):  # evens 0..18
            txn.insert("t", key, f"v{key}")
    dc.reset_probe_count()
    return dc, tc, metrics


class TestValidationRetry:
    def test_insert_between_probe_and_read_triggers_retry(self):
        dc, tc, metrics = scanning_setup(batch=4)
        # after the scan's first probe, key 3 appears inside the batch
        dc.arm(after_probe=1, table="t", key=3, value="intruder")
        with tc.begin() as txn:
            rows = txn.scan("t", 0, 18)
        assert metrics.get("tc.fetch_ahead_retries") >= 1
        assert (3, "intruder") in rows  # the retry saw the new truth
        assert [key for key, _v in rows] == sorted(key for key, _v in rows)

    def test_multiple_intrusions_all_absorbed(self):
        dc, tc, metrics = scanning_setup(batch=4)
        dc.arm(after_probe=1, table="t", key=3, value="a")
        dc.arm(after_probe=3, table="t", key=11, value="b")
        with tc.begin() as txn:
            rows = txn.scan("t", 0, 18)
        keys = [key for key, _v in rows]
        assert 3 in keys and 11 in keys
        assert len(keys) == 12
        assert metrics.get("tc.fetch_ahead_retries") >= 2

    def test_intrusion_outside_scanned_range_no_retry(self):
        dc, tc, metrics = scanning_setup(batch=4)
        dc.arm(after_probe=1, table="t", key=500, value="far away")
        with tc.begin() as txn:
            rows = txn.scan("t", 0, 18)
        assert len(rows) == 10
        assert metrics.get("tc.fetch_ahead_retries") == 0

    def test_scan_result_is_exactly_final_state(self):
        dc, tc, metrics = scanning_setup(batch=2)
        dc.arm(after_probe=2, table="t", key=7, value="mid")
        with tc.begin() as txn:
            rows = txn.scan("t")
        expected_keys = sorted(list(range(0, 20, 2)) + [7])
        assert [key for key, _v in rows] == expected_keys
