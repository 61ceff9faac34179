"""The four workloads and their seeded operation streams.

Nothing here imports ``repro``: the program under test receives only the
operations this module generates, so editing ``src/`` cannot change the
load.  A stream is a pure function of ``(workload, seed)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

READ, UPDATE, INSERT = 0, 1, 2
OP_NAMES = ("read", "update", "insert")

#: Fresh keys (load-time fillers and run-time inserts) live above every hot
#: key, so the hot set stays contiguous in the B-tree.
FRESH_BASE = 1_000_000

_VALUE_PAD = "v" * 100


def make_value(key: int, version: int) -> str:
    """A 100-byte value that embeds the key and its per-key version."""
    head = f"{key:08d}.{version:09d}."
    return head + _VALUE_PAD[len(head):]


@dataclass(frozen=True)
class Workload:
    name: str
    #: "inproc" | "pipe" (UnbundledKernel) or "svc" (TcServiceDeployment).
    deployment: str
    #: "oltp": 4 ops/txn, 50 % read / 40 % update / 10 % insert, uniform.
    #: "ycsb_b": 1 op/txn, 95 % read / 5 % update, Zipf(1.2).
    mix: str
    #: Hot keys 0..keys-1, the only keys reads and updates touch.
    keys: int
    #: Fresh keys loaded interleaved with the hot ones (see README: they
    #: leave the TC's FIFO undo cache mixed the way steady state leaves it).
    fillers: int
    #: Maintenance (TC checkpoint + DC-log checkpoint) every N commits.
    checkpoint_every: int
    #: How many times set-up is repeated for the ``setup_s`` median.
    setup_repeats: int

    @property
    def ops_per_txn(self) -> int:
        return 4 if self.mix == "oltp" else 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(name="oltp_inproc_hot", deployment="inproc", mix="oltp", keys=2_000,
                 fillers=2_096, checkpoint_every=20_000, setup_repeats=5),
        Workload(name="oltp_pipe_hot", deployment="pipe", mix="oltp", keys=2_000,
                 fillers=2_096, checkpoint_every=4_000, setup_repeats=3),
        # The 20,000-key load takes seconds: one set-up per run is all the
        # run-time budget allows.
        Workload(name="oltp_pipe_cold", deployment="pipe", mix="oltp", keys=20_000,
                 fillers=0, checkpoint_every=500, setup_repeats=1),
        Workload(name="ycsb_b_svc", deployment="svc", mix="ycsb_b", keys=2_000,
                 fillers=0, checkpoint_every=4_000, setup_repeats=3),
    )
}


def load_order(workload: Workload) -> list[int]:
    """Keys in load order: hot keys with the fillers spread evenly between."""
    order: list[int] = []
    hot = filler = 0
    for _ in range(workload.keys + workload.fillers):
        if hot >= workload.keys or filler * workload.keys < hot * workload.fillers:
            order.append(FRESH_BASE + filler)
            filler += 1
        else:
            order.append(hot)
            hot += 1
    return order


def txn_stream(workload: Workload, seed: int) -> Iterator[tuple]:
    """Endless stream of transactions; each is a tuple of ``(kind, key)``.

    Insert keys are allocated here, in stream order, so the whole stream
    (not just its shape) is seed-determined.  Generated in numpy blocks:
    cheap enough to refill between transactions, outside any latency sample.
    """
    rng = np.random.default_rng([seed, len(workload.name), workload.keys])
    next_fresh = FRESH_BASE + workload.fillers
    n_ops = workload.ops_per_txn
    block = 8_192
    while True:
        draws = rng.random((block, n_ops))
        if workload.mix == "oltp":
            kinds = np.where(draws < 0.5, READ, np.where(draws < 0.9, UPDATE, INSERT))
            keys = rng.integers(0, workload.keys, size=(block, n_ops))
        else:
            kinds = np.where(draws < 0.95, READ, UPDATE)
            keys = (rng.zipf(1.2, size=(block, n_ops)) - 1) % workload.keys
        for txn_kinds, txn_keys in zip(kinds.tolist(), keys.tolist()):
            ops = []
            for kind, key in zip(txn_kinds, txn_keys):
                if kind == INSERT:
                    key = next_fresh
                    next_fresh += 1
                ops.append((kind, key))
            yield tuple(ops)
