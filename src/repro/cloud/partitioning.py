"""Data partitioning and ownership for multi-TC deployments (Section 6).

Two orthogonal partitionings appear in the paper's Figure 2:

- **Tables partitioned across DCs** for clustering (Movies/Reviews by
  movie onto DC1/DC2; Users/MyReviews by user onto DC3...).  Partitioning
  lives in the *physical schema*: each partition is a separate DC-resident
  table, and :class:`PartitionedTable` routes logical operations to the
  right physical table by key.
- **Update rights partitioned across TCs** (users among TC1/TC2), recorded
  in an :class:`OwnershipRegistry` and enforced through each TC's
  ``ownership_guard`` hook.  Disjoint rights are what guarantee the DC
  never sees conflicting concurrent operations from different TCs.
"""

from __future__ import annotations

import zlib
from typing import Callable, Optional

from repro.common.records import Key, Value
from repro.tc.transactional_component import Transaction, TransactionalComponent


def stable_key_hash(key: object) -> int:
    """A process-independent key hash for cross-process routing.

    The built-in ``hash()`` will not do here: str/bytes hashing is
    seed-randomized per interpreter (PYTHONHASHSEED), so a router in the
    client and an ownership guard in a TC server process would disagree
    about which partition a key lives in.  This hash is deterministic
    across processes and runs, covering the key vocabulary the wire codec
    accepts (ints, strings, bytes, floats, tuples thereof).
    """

    if isinstance(key, bool):
        return int(key)
    if isinstance(key, int):
        return key if key >= 0 else -key * 2 - 1
    if isinstance(key, str):
        return zlib.crc32(key.encode("utf-8"))
    if isinstance(key, (bytes, bytearray)):
        return zlib.crc32(bytes(key))
    if isinstance(key, float) and key.is_integer():
        return stable_key_hash(int(key))
    if isinstance(key, tuple):
        combined = 2166136261
        for part in key:
            combined = (combined * 16777619 + stable_key_hash(part)) & 0xFFFFFFFF
        return combined
    return zlib.crc32(repr(key).encode("utf-8"))


class HashPartitionMap:
    """Route a key to one of N partitions by a hash of a key part.

    ``extract`` picks the routing component from composite keys, e.g.
    ``lambda key: key[0]`` routes ``(movie_id, user_id)`` by movie — the
    clustering Figure 2 needs so all reviews of one movie share a DC.

    The hash is :func:`stable_key_hash`, which every process computes
    identically, so a placement is a property of the key, not of the
    interpreter's hash seed.
    """

    def __init__(
        self,
        partition_count: int,
        extract: Optional[Callable[[Key], object]] = None,
    ) -> None:
        if partition_count < 1:
            raise ValueError("need at least one partition")
        self.partition_count = partition_count
        self._extract = extract or (lambda key: key)

    def partition_of(self, key: Key) -> int:
        return stable_key_hash(self._extract(key)) % self.partition_count


class PartitionedTable:
    """A logical table physically split into per-DC tables.

    The physical table names are ``f"{logical}@{index}"``; the deployment
    creates one on each participating DC and attaches every relevant TC.
    """

    def __init__(
        self, logical_name: str, partition_map: HashPartitionMap
    ) -> None:
        self.logical_name = logical_name
        self.partition_map = partition_map

    def physical_name(self, key: Key) -> str:
        return f"{self.logical_name}@{self.partition_map.partition_of(key)}"

    def all_physical_names(self) -> list[str]:
        return [
            f"{self.logical_name}@{index}"
            for index in range(self.partition_map.partition_count)
        ]

    # -- convenience wrappers over a transaction ----------------------------

    def insert(self, txn: Transaction, key: Key, value: Value) -> None:
        txn.insert(self.physical_name(key), key, value)

    def update(self, txn: Transaction, key: Key, value: Value) -> None:
        txn.update(self.physical_name(key), key, value)

    def delete(self, txn: Transaction, key: Key) -> None:
        txn.delete(self.physical_name(key), key)

    def read(self, txn: Transaction, key: Key) -> Optional[Value]:
        return txn.read(self.physical_name(key), key)


class OwnershipRegistry:
    """Who may update what: ``(logical_table) -> key predicate`` per TC.

    The registry builds the ``ownership_guard`` closures installed into
    each TC.  Physical partition names (``table@N``) are mapped back to
    their logical table before rules are consulted.
    """

    def __init__(self) -> None:
        #: tc_id -> {logical table -> predicate(key) -> bool}
        self._rules: dict[int, dict[str, Callable[[Key], bool]]] = {}

    def grant(
        self, tc: TransactionalComponent, table: str, predicate: Callable[[Key], bool]
    ) -> None:
        self._rules.setdefault(tc.tc_id, {})[table] = predicate

    def grant_all(self, tc: TransactionalComponent, table: str) -> None:
        self.grant(tc, table, lambda _key: True)

    @staticmethod
    def logical_of(physical_table: str) -> str:
        return physical_table.split("@", 1)[0]

    def allows(self, tc_id: int, physical_table: str, key: Key) -> bool:
        rules = self._rules.get(tc_id)
        if rules is None:
            return False
        predicate = rules.get(self.logical_of(physical_table))
        return predicate is not None and predicate(key)

    def install(self, tc: TransactionalComponent) -> None:
        """Wire this registry into the TC's mutation path."""
        tc.ownership_guard = (
            lambda table, key, _tc_id=tc.tc_id: self.allows(_tc_id, table, key)
        )

    def assert_disjoint(
        self,
        table: str,
        tcs: list[TransactionalComponent],
        sample_keys: list[Key],
    ) -> None:
        """Sanity check (used by tests): no key is updatable by two TCs."""
        for key in sample_keys:
            owners = [
                tc.tc_id for tc in tcs if self.allows(tc.tc_id, table, key)
            ]
            if len(owners) > 1:
                raise ValueError(
                    f"key {key!r} of {table!r} owned by multiple TCs: {owners}"
                )
