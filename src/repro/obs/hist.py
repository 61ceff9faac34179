"""Fixed-bucket log-scale histograms (the measurement substrate).

``Distribution`` in :mod:`repro.sim.metrics` records count/total/min/max —
enough for throughput counters, useless for tail latency.  A
:class:`Histogram` adds percentile estimation with bounded memory and
bounded relative error: values land in geometric buckets whose boundaries
are fixed at ``2**(i / SUBBUCKETS)``, so a bucket's width is a constant
*ratio* (not a constant difference) and one sparse dict covers twelve
orders of magnitude.  With 8 sub-buckets per octave the boundary ratio is
``2**(1/8) ~ 1.09``; reporting the geometric midpoint bounds the relative
error of any percentile estimate at ~4.4%.

The same type backs latency spans (seconds), log-record sizes (bytes) and
batch lengths (counts) — the unit is the caller's business.
"""

from __future__ import annotations

import math

#: Geometric sub-buckets per octave (power of two).  Fixed: every histogram
#: in one process uses the same boundaries, so merging is index-wise.
SUBBUCKETS = 8

_LOG2_SCALE = SUBBUCKETS  # bucket index = floor(log2(value) * SUBBUCKETS)


class Histogram:
    """Sparse fixed-boundary log-scale histogram with percentile queries."""

    __slots__ = ("_counts", "_zero", "count")

    def __init__(self) -> None:
        self._counts: dict[int, int] = {}
        #: Values <= 0 get a dedicated bucket (durations of 0.0 happen when
        #: the clock granularity exceeds the measured interval).
        self._zero = 0
        self.count = 0

    # -- recording ---------------------------------------------------------

    def observe(self, value: float, times: int = 1) -> None:
        self.count += times
        if value <= 0.0:
            self._zero += times
            return
        index = math.floor(math.log2(value) * _LOG2_SCALE)
        self._counts[index] = self._counts.get(index, 0) + times

    # -- querying ----------------------------------------------------------

    @staticmethod
    def bucket_bounds(index: int) -> tuple[float, float]:
        """The half-open value interval ``[low, high)`` of bucket ``index``."""
        low = 2.0 ** (index / _LOG2_SCALE)
        high = 2.0 ** ((index + 1) / _LOG2_SCALE)
        return low, high

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``0 < q <= 1``): the geometric
        midpoint of the bucket holding the rank-``ceil(q * count)`` value."""
        if self.count == 0:
            return 0.0
        target = max(1, math.ceil(q * self.count))
        cumulative = self._zero
        if cumulative >= target:
            return 0.0
        for index in sorted(self._counts):
            cumulative += self._counts[index]
            if cumulative >= target:
                low, high = self.bucket_bounds(index)
                return math.sqrt(low * high)
        return 0.0  # unreachable: cumulative == count after the loop

    def summary(self) -> dict[str, float]:
        return {
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }

    # -- merging -----------------------------------------------------------

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other`` into ``self`` (bucket boundaries are global)."""
        self.count += other.count
        self._zero += other._zero
        for index, count in other._counts.items():
            self._counts[index] = self._counts.get(index, 0) + count
        return self

    def snapshot(self) -> "Histogram":
        copy = Histogram()
        copy._counts = dict(self._counts)
        copy._zero = self._zero
        copy.count = self.count
        return copy

    # -- introspection -----------------------------------------------------

    def nonempty_buckets(self) -> list[tuple[float, float, int]]:
        """``(low, high, count)`` rows for every populated bucket, sorted."""
        rows = []
        if self._zero:
            rows.append((0.0, 0.0, self._zero))
        for index in sorted(self._counts):
            low, high = self.bucket_bounds(index)
            rows.append((low, high, self._counts[index]))
        return rows

    def __repr__(self) -> str:
        if not self.count:
            return "Histogram(empty)"
        s = self.summary()
        return (
            f"Histogram(n={self.count}, p50={s['p50']:.3g}, "
            f"p95={s['p95']:.3g}, p99={s['p99']:.3g})"
        )
