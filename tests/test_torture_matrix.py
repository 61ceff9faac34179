"""Torture matrix: structure churn × crash modes × sync strategies × chaos.

The combination of heavy split/merge churn with interleaved partial
failures is what exposed the consolidation horizon bug; this module keeps
that pressure on permanently, across the full configuration matrix.
"""

from __future__ import annotations

import random

import pytest

from repro import KernelConfig, UnbundledKernel
from repro.common.config import DcConfig, PageSyncStrategy, TcConfig
from repro.common.errors import DuplicateKeyError, NoSuchRecordError
from repro.storage.buffer import ResetMode
from tests.conftest import lossy


def churn(kernel, rng, model, steps, keyspace=260):
    for _ in range(steps):
        key = rng.randrange(keyspace)
        txn = kernel.begin()
        try:
            if key in model:
                if rng.random() < 0.5:
                    txn.delete("t", key)
                    txn.commit()
                    del model[key]
                else:
                    txn.update("t", key, rng.randrange(1000))
                    txn.commit()
                    model[key] = None  # value checked via scan comparison
            else:
                txn.insert("t", key, rng.randrange(1000))
                txn.commit()
                model[key] = None
        except (DuplicateKeyError, NoSuchRecordError):
            txn.abort()


def verify(kernel, model):
    with kernel.begin() as txn:
        keys = {key for key, _value in txn.scan("t")}
    assert keys == set(model), (
        f"missing={set(model) - keys} phantom={keys - set(model)}"
    )
    kernel.dc.table("t").structure.validate()


@pytest.mark.parametrize("strategy", list(PageSyncStrategy))
@pytest.mark.parametrize("reset_mode", list(ResetMode))
def test_torture_churn_with_crashes(strategy, reset_mode):
    kernel = UnbundledKernel(
        KernelConfig(
            dc=DcConfig(page_size=512, sync_strategy=strategy, buffer_capacity=24),
            tc=TcConfig(lwm_interval=5),
        )
    )
    kernel.create_table("t")
    rng = random.Random(hash((strategy.value, reset_mode.value)) & 0xFFFF)
    model: dict[int, None] = {}
    crashes = [
        lambda: (kernel.crash_dc(), kernel.recover_dc()),
        lambda: (kernel.crash_tc(), kernel.recover_tc(reset_mode)),
        lambda: (kernel.crash_all(), kernel.recover_all()),
    ]
    for round_index in range(6):
        churn(kernel, rng, model, steps=80)
        crashes[round_index % 3]()
        verify(kernel, model)
        if round_index == 3:
            kernel.checkpoint()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_torture_chaotic_channel_plus_churn(seed):
    kernel = UnbundledKernel(
        KernelConfig(dc=DcConfig(page_size=384)),
        faults=lossy(seed, loss=0.15, duplicate=0.1),
    )
    kernel.create_table("t")
    rng = random.Random(seed * 101)
    model: dict[int, None] = {}
    for round_index in range(4):
        churn(kernel, rng, model, steps=100)
        if round_index % 2 == 0:
            kernel.crash_dc()
            kernel.recover_dc()
        else:
            kernel.crash_tc()
            kernel.recover_tc()
        verify(kernel, model)


def test_torture_multi_tc_churn_with_alternating_crashes():
    """Two TCs churning disjoint halves of one DC; each crashes in turn."""
    from repro.dc.data_component import DataComponent
    from repro.sim.metrics import Metrics
    from repro.tc.transactional_component import TransactionalComponent

    metrics = Metrics()
    dc = DataComponent("dc", config=DcConfig(page_size=512), metrics=metrics)
    dc.create_table("t")
    tcs = []
    for index in range(2):
        tc = TransactionalComponent(metrics=metrics)
        tc.attach_dc(dc)
        tc.ownership_guard = lambda table, key, i=index: key % 2 == i
        tcs.append(tc)
    rng = random.Random(55)
    models: list[dict[int, None]] = [{}, {}]
    for round_index in range(6):
        for index, tc in enumerate(tcs):
            model = models[index]
            for _ in range(50):
                key = rng.randrange(200) * 2 + index  # stay in our half
                txn = tc.begin()
                try:
                    if key in model:
                        txn.delete("t", key)
                        txn.commit()
                        del model[key]
                    else:
                        txn.insert("t", key, round_index)
                        txn.commit()
                        model[key] = None
                except (DuplicateKeyError, NoSuchRecordError):
                    txn.abort()
        victim = round_index % 2
        tcs[victim].crash()
        tcs[victim].restart(ResetMode.RECORD_RESET)
        with tcs[0].begin() as txn:
            keys = {key for key, _v in txn.scan("t")}
        expected = set(models[0]) | set(models[1])
        assert keys == expected, (
            f"round {round_index}: missing={expected - keys} "
            f"phantom={keys - expected}"
        )
        dc.table("t").structure.validate()
