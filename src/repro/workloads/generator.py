"""Synthetic OLTP workload generation.

The runner drives any engine exposing the shared transaction interface
(``begin()`` returning an object with insert/update/delete/read/scan/
commit/abort) — both the unbundled kernel and the monolithic baseline —
so every experiment compares identical logical work.

Key distributions: uniform and Zipfian (hot keys make lock conflicts and
page-sync pressure realistic; numpy supplies the Zipf sampler).
"""

from __future__ import annotations

import enum
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.common.errors import (
    DuplicateKeyError,
    LockTimeoutError,
    NoSuchRecordError,
    ReproError,
    TransactionAborted,
)


class KeyDistribution(enum.Enum):
    UNIFORM = "uniform"
    ZIPF = "zipf"


def uniform_keys(count: int, keyspace: int, seed: int = 0) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(keyspace) for _ in range(count)]


def zipf_keys(count: int, keyspace: int, skew: float = 1.2, seed: int = 0) -> list[int]:
    """Zipf-distributed keys folded into [0, keyspace)."""
    rng = np.random.default_rng(seed)
    raw = rng.zipf(skew, size=count)
    return [int(value - 1) % keyspace for value in raw]


@dataclass
class OltpMix:
    """Operation mix for one transaction (fractions sum to <= 1; the
    remainder becomes reads)."""

    updates: float = 0.3
    inserts: float = 0.1
    deletes: float = 0.0
    scans: float = 0.0
    ops_per_txn: int = 4
    scan_length: int = 10


@dataclass
class RunStats:
    committed: int = 0
    aborted: int = 0
    operations: int = 0
    elapsed_s: float = 0.0
    errors: dict[str, int] = field(default_factory=dict)

    @property
    def ops_per_second(self) -> float:
        return self.operations / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def note_error(self, name: str) -> None:
        self.errors[name] = self.errors.get(name, 0) + 1


class WorkloadRunner:
    """Drives an engine through a keyed OLTP workload, deterministically."""

    def __init__(
        self,
        begin: Callable[[], object],
        table: str,
        keyspace: int = 1000,
        mix: Optional[OltpMix] = None,
        distribution: KeyDistribution = KeyDistribution.UNIFORM,
        zipf_skew: float = 1.2,
        seed: int = 0,
    ) -> None:
        self._begin = begin
        self.table = table
        self.keyspace = keyspace
        self.mix = mix or OltpMix()
        self.distribution = distribution
        self.zipf_skew = zipf_skew
        self.seed = seed
        self._next_insert_key = keyspace  # inserts use fresh keys above

    def load(self, count: Optional[int] = None, value_bytes: int = 32) -> None:
        """Populate the table with ``count`` (default keyspace) records."""
        count = count if count is not None else self.keyspace
        payload = "x" * value_bytes
        for key in range(count):
            txn = self._begin()
            try:
                txn.insert(self.table, key, f"{payload}-{key}")
                txn.commit()
            except DuplicateKeyError:
                txn.abort()

    def _keys(self, count: int) -> list[int]:
        if self.distribution is KeyDistribution.UNIFORM:
            return uniform_keys(count, self.keyspace, self.seed)
        return zipf_keys(count, self.keyspace, self.zipf_skew, self.seed)

    def run(self, txn_count: int, value_bytes: int = 32) -> RunStats:
        rng = random.Random(self.seed + 1)
        mix = self.mix
        keys = self._keys(txn_count * mix.ops_per_txn)
        payload = "y" * value_bytes
        stats = RunStats()
        cursor = 0
        started = time.perf_counter()
        for _ in range(txn_count):
            txn = self._begin()
            try:
                for _op in range(mix.ops_per_txn):
                    key = keys[cursor]
                    cursor += 1
                    roll = rng.random()
                    if roll < mix.updates:
                        txn.update(self.table, key, f"{payload}-{key}")
                    elif roll < mix.updates + mix.inserts:
                        self._next_insert_key += 1
                        txn.insert(self.table, self._next_insert_key, payload)
                    elif roll < mix.updates + mix.inserts + mix.deletes:
                        txn.delete(self.table, key)
                    elif roll < mix.updates + mix.inserts + mix.deletes + mix.scans:
                        txn.scan(self.table, key, key + mix.scan_length)
                    else:
                        txn.read(self.table, key)
                    stats.operations += 1
                txn.commit()
                stats.committed += 1
            except (
                TransactionAborted,
                DuplicateKeyError,
                NoSuchRecordError,
                LockTimeoutError,
            ) as exc:
                stats.aborted += 1
                stats.note_error(type(exc).__name__)
                self._safe_abort(txn)
            except ReproError as exc:
                stats.note_error(type(exc).__name__)
                self._safe_abort(txn)
        stats.elapsed_s = time.perf_counter() - started
        return stats

    @staticmethod
    def _safe_abort(txn: object) -> None:
        try:
            txn.abort()
        except ReproError:
            pass
