"""TC restart redo meets an operation its DC rejects again (ROADMAP item 8:
``tc.redo_rejected``).

The case: one envelope holds an insert onto a leaf with room for one more
record, an insert of a key that exists (the DC rejects it as a
duplicate) and an insert that splits that leaf.  The split's causality
gate prompts the TC to force its log, which makes the rejected
operation's ``OpRecord`` stable; the cancel marker the TC logs when the
reply arrives stays in the volatile tail.  The TC crashes before anything
forces it again, so restart redo resends the rejected insert, and the DC
rejects it again.
"""

from __future__ import annotations

import pytest

from repro import KernelConfig, UnbundledKernel
from repro.common.config import DcConfig, TcConfig
from repro.common.errors import DuplicateKeyError


def _crashed_after_a_rejection():
    kernel = UnbundledKernel(
        KernelConfig(
            dc=DcConfig(page_size=512), tc=TcConfig.optimized(undo_cache_size=0)
        )
    )
    kernel.create_table("t")
    with kernel.begin() as txn:
        for key in range(3):  # one leaf, room for one more record
            txn.insert("t", key, "v" * 90)
    metrics = kernel.metrics
    txn = kernel.begin()
    txn.insert("t", 10, "a" * 90)  # fills the leaf
    txn.insert("t", 0, "dup")  # rejected: key 0 exists
    txn.insert("t", 11, "b" * 90)  # splits the leaf: the gate forces the log
    with pytest.raises(DuplicateKeyError):
        txn.sync()
    assert metrics.get("dc.log_force_prompts") == 1
    assert metrics.get("tc.canceled_ops") == 1
    stable = kernel.tc.log.eosl
    assert stable < kernel.tc.log.last_lsn  # the cancel marker is volatile
    kernel.crash_tc()
    kernel.recover_tc()
    return kernel


def test_restart_redo_meets_the_rejection_again():
    kernel = _crashed_after_a_rejection()
    assert kernel.metrics.get("tc.redo_rejected") == 1
    with kernel.begin() as txn:
        assert txn.read("t", 10) is None and txn.read("t", 11) is None


@pytest.mark.xfail(
    strict=True,
    reason="restart undo treats the redo-rejected insert as executed and "
    "deletes the committed key it collided with",
)
def test_restart_keeps_the_committed_key_the_rejected_insert_named():
    kernel = _crashed_after_a_rejection()
    with kernel.begin() as txn:
        assert txn.read("t", 0) == "v" * 90
