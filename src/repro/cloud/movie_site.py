"""The Figure 2 cloud scenario: an online movie-review site (Section 6.3).

Four logical tables support four workloads:

- ``movies`` (key ``mid``) — general information, partitioned *by movie*
  across the review DCs; supports W1.
- ``reviews`` (key ``(mid, uid)``) — partitioned by movie so all reviews of
  one movie are clustered on one DC; versioned, so the read-only TC gets
  read-committed access without blocking updaters.  Updated by W2.
- ``users`` (key ``uid``) — profile data on the user DC; updated by W3.
- ``myreviews`` (key ``(uid, mid)``) — a clustered per-user copy of each
  review ("effectively ... an index in the physical schema"); updated by
  W2 to support W4.

Users (and workloads W2-W4) are partitioned among updater TCs; every user
transaction is local to one TC — *no distributed transactions* even though
W2 writes two DCs, because a single TC log is the only commit point.  W1
runs on a separate read-only TC with read-committed (versioned) access and
never blocks or is blocked.

The class also instruments machines-touched per workload so experiment
FIG2 can verify "a query needing to access [no] more than two machines".
"""

from __future__ import annotations

from typing import Optional

from repro.cloud.partitioning import (
    HashPartitionMap,
    OwnershipRegistry,
    PartitionedTable,
    stable_key_hash,
)
from repro.common.config import ChannelConfig, DcConfig, TcConfig
from repro.common.ops import ReadFlavor
from repro.common.records import KEY_MAX, KEY_MIN, Value
from repro.dc.data_component import DataComponent
from repro.sim.metrics import Metrics
from repro.tc.transactional_component import TransactionalComponent


class MovieSite:
    """A running deployment of the Figure 2 scenario."""

    def __init__(
        self,
        metrics: Optional[Metrics] = None,
        movie_partitions: int = 2,
        updater_tcs: int = 2,
        channel_config: Optional[ChannelConfig] = None,
        dc_config: Optional[DcConfig] = None,
        tc_config: Optional[TcConfig] = None,
    ) -> None:
        self.metrics = metrics or Metrics()
        self._channel_config = channel_config

        # DCs: one per movie partition (reviews+movies), one for user data.
        self.movie_dcs = [
            DataComponent(f"dc{index + 1}", config=dc_config, metrics=self.metrics)
            for index in range(movie_partitions)
        ]
        self.user_dc = DataComponent(
            f"dc{movie_partitions + 1}", config=dc_config, metrics=self.metrics
        )

        # Logical tables and their physical partitions.
        self.movies = PartitionedTable(
            "movies", HashPartitionMap(movie_partitions)
        )
        self.reviews = PartitionedTable(
            "reviews", HashPartitionMap(movie_partitions, extract=lambda key: key[0])
        )
        for index, dc in enumerate(self.movie_dcs):
            dc.create_table(f"movies@{index}", versioned=True)
            dc.create_table(f"reviews@{index}", versioned=True)
        self.user_dc.create_table("users")
        self.user_dc.create_table("myreviews")

        # TCs: updaters own disjoint user partitions; one read-only TC.
        self.updaters = [
            TransactionalComponent(config=tc_config, metrics=self.metrics)
            for _ in range(updater_tcs)
        ]
        self.reader = TransactionalComponent(config=tc_config, metrics=self.metrics)
        for tc in [*self.updaters, self.reader]:
            for dc in [*self.movie_dcs, self.user_dc]:
                tc.attach_dc(dc, channel_config)

        # Ownership: disjoint update rights (Section 6.1).
        self.ownership = OwnershipRegistry()
        count = len(self.updaters)
        for index, tc in enumerate(self.updaters):
            owns_user = (
                lambda uid, i=index, n=count: stable_key_hash(uid) % n == i
            )
            self.ownership.grant(tc, "users", owns_user)
            self.ownership.grant(
                tc, "myreviews", lambda key, own=owns_user: own(key[0])
            )
            self.ownership.grant(
                tc, "reviews", lambda key, own=owns_user: own(key[1])
            )
            # Movie metadata is administered by the first updater.
            if index == 0:
                self.ownership.grant_all(tc, "movies")
            self.ownership.install(tc)
        self.ownership.install(self.reader)  # read-only: owns nothing

    # -- routing --------------------------------------------------------------

    def owner_of(self, uid: object) -> TransactionalComponent:
        return self.updaters[stable_key_hash(uid) % len(self.updaters)]

    # -- administration ----------------------------------------------------------

    def add_movie(self, mid: object, info: Value) -> None:
        with self.updaters[0].begin() as txn:
            self.movies.insert(txn, mid, info)

    def register_user(self, uid: object, profile: Value) -> None:
        with self.owner_of(uid).begin() as txn:
            txn.insert("users", uid, profile)

    # -- the four workloads (Section 6.3) ----------------------------------------------

    def reviews_for_movie(self, mid: object) -> list[tuple[object, Value]]:
        """W1: all reviews for a movie — one clustered, non-blocking,
        read-committed scan on the movie's DC by the read-only TC."""
        table = self.reviews.physical_name((mid, None))
        return self.reader.scan_other(
            table,
            low=(mid, KEY_MIN),
            high=(mid, KEY_MAX),
            flavor=ReadFlavor.READ_COMMITTED,
        )

    def post_review(self, uid: object, mid: object, text: Value) -> None:
        """W2: add a review — one TC-local transaction spanning two DCs
        (review clustered by movie, copy clustered by user), no 2PC."""
        tc = self.owner_of(uid)
        with tc.begin() as txn:
            self.reviews.insert(txn, (mid, uid), text)
            txn.insert("myreviews", (uid, mid), text)

    def update_profile(self, uid: object, profile: Value) -> None:
        """W3: update a user's profile — local to the owning TC and DC3."""
        tc = self.owner_of(uid)
        with tc.begin() as txn:
            if txn.read("users", uid) is None:
                txn.insert("users", uid, profile)
            else:
                txn.update("users", uid, profile)

    def my_reviews(self, uid: object) -> list[tuple[object, Value]]:
        """W4: all reviews by one user — one clustered scan of MyReviews."""
        tc = self.owner_of(uid)
        with tc.begin() as txn:
            return txn.scan("myreviews", low=(uid, KEY_MIN), high=(uid, KEY_MAX))

    # -- instrumentation ---------------------------------------------------------------------

    def machines_touched(self, workload, *args: object) -> tuple[object, int]:
        """Run a workload and count how many distinct DCs it contacted."""
        channels = [
            channel
            for tc in [*self.updaters, self.reader]
            for channel in tc.channels().values()
        ]
        before = {id(channel): channel.ops_sent for channel in channels}
        result = workload(*args)
        touched_dcs = {
            channel.dc.name
            for channel in channels
            if channel.ops_sent != before[id(channel)]
        }
        return result, len(touched_dcs)

    def crash_updater(self, index: int) -> int:
        return self.updaters[index].crash()

    def recover_updater(self, index: int) -> dict:
        return self.updaters[index].restart()
