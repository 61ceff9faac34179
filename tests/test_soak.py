"""A deterministic soak: sustained mixed load with periodic failures."""

from __future__ import annotations

import random

import pytest

from repro import KernelConfig, UnbundledKernel
from repro.common.config import DcConfig
from repro.common.errors import DuplicateKeyError, NoSuchRecordError
from repro.storage.buffer import ResetMode
from tests.conftest import lossy


def test_soak_mixed_load_with_periodic_failures():
    """4 000 operations, a crash every 400, a checkpoint every 600 — the
    kernel must track a dict oracle exactly throughout."""
    kernel = UnbundledKernel(
        KernelConfig(dc=DcConfig(page_size=512, buffer_capacity=32)),
        faults=lossy(1234, loss=0.05, duplicate=0.05),
    )
    kernel.create_table("t")
    rng = random.Random(99)
    model: dict[int, int] = {}
    crash_cycle = [
        lambda: (kernel.crash_dc(), kernel.recover_dc()),
        lambda: (kernel.crash_tc(), kernel.recover_tc(ResetMode.RECORD_RESET)),
        lambda: (kernel.crash_all(), kernel.recover_all()),
        lambda: (kernel.crash_tc(), kernel.recover_tc(ResetMode.DROP_AFFECTED)),
    ]
    operations = 0
    for step in range(4_000):
        if step and step % 400 == 0:
            crash_cycle[(step // 400) % len(crash_cycle)]()
        if step and step % 600 == 0:
            kernel.checkpoint()
        key = rng.randrange(200)
        roll = rng.random()
        txn = kernel.begin()
        try:
            if roll < 0.35:
                txn.insert("t", key, step)
                txn.commit()
                model[key] = step
            elif roll < 0.6:
                txn.update("t", key, step)
                txn.commit()
                model[key] = step
            elif roll < 0.75:
                txn.delete("t", key)
                txn.commit()
                model.pop(key, None)
            elif roll < 0.85:
                # an aborted multi-op transaction leaves no trace
                txn.update("t", key, -1) if key in model else txn.insert(
                    "t", key, -1
                )
                txn.abort()
            else:
                assert txn.read("t", key) == model.get(key)
                txn.commit()
            operations += 1
        except (DuplicateKeyError, NoSuchRecordError):
            txn.abort()
    with kernel.begin() as txn:
        assert dict(txn.scan("t")) == model
    kernel.dc.table("t").structure.validate()
    assert operations > 2_000  # the rest hit duplicate/missing-key aborts


def test_soak_counter_bank_invariant():
    """A 'bank': transfers between 20 numeric accounts under crashes; the
    total balance is invariant (increments are non-idempotent, so any
    replay defect corrupts the sum immediately)."""
    kernel = UnbundledKernel(
        KernelConfig(dc=DcConfig(page_size=512)),
        faults=lossy(5, duplicate=0.1),
    )
    kernel.create_table("bank")
    accounts = 20
    with kernel.begin() as txn:
        for account in range(accounts):
            txn.insert("bank", account, 1_000)
    rng = random.Random(7)
    for step in range(600):
        if step and step % 150 == 0:
            kernel.crash_all()
            kernel.recover_all()
        src, dst = rng.sample(range(accounts), 2)
        amount = rng.randrange(1, 50)
        txn = kernel.begin()
        txn.increment("bank", src, -amount)
        txn.increment("bank", dst, amount)
        if rng.random() < 0.15:
            txn.abort()  # rollback must restore both sides
        else:
            txn.commit()
    with kernel.begin() as txn:
        balances = [value for _key, value in txn.scan("bank")]
    assert sum(balances) == accounts * 1_000
