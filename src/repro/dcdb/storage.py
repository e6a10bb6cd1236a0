"""In-memory time-series storage backend.

Stands in for the Apache Cassandra backend of DCDB.  It preserves the
interfaces Wintermute relies on: per-sensor inserts keyed by topic, range
queries over ``[start, end]`` timestamp intervals, newest-value lookups,
and TTL-based expiry.  Data is held in per-sensor append-only column
pairs (int64 timestamps / float64 values) with amortised O(1) appends and
O(log N) range location via binary search.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.common.errors import StorageError
from repro.dcdb.sensor import SensorReading


class _Series:
    """Growable column pair for one sensor."""

    __slots__ = ("ts", "val", "size", "newest_ts")

    _INITIAL = 256

    def __init__(self) -> None:
        self.ts = np.empty(self._INITIAL, dtype=np.int64)
        self.val = np.empty(self._INITIAL, dtype=np.float64)
        self.size = 0
        #: ``ts[size - 1]`` as a Python int (``None`` when empty): the
        #: order guard reads it without boxing a NumPy scalar.
        self.newest_ts: Optional[int] = None

    def _grow(self, needed: int) -> None:
        cap = len(self.ts)
        while cap < needed:
            cap *= 2
        new_ts = np.empty(cap, dtype=np.int64)
        new_val = np.empty(cap, dtype=np.float64)
        new_ts[: self.size] = self.ts[: self.size]
        new_val[: self.size] = self.val[: self.size]
        self.ts, self.val = new_ts, new_val

    def append(self, timestamp: int, value: float) -> bool:
        """Append one reading; returns False when it was dropped.

        Maintain time order: DCDB rejects out-of-order inserts at the
        same key; we drop them silently like the sensor cache does.
        """
        newest = self.newest_ts
        if newest is not None and timestamp < newest:
            return False
        size = self.size
        if size == len(self.ts):
            self._grow(size + 1)
        self.ts[size] = timestamp
        self.val[size] = value
        self.newest_ts = timestamp
        self.size = size + 1
        return True

    def append_batch(self, timestamps: np.ndarray, values: np.ndarray) -> int:
        """Append a batch under the same out-of-order-drop semantics as
        scalar :meth:`append`; returns how many readings were stored.

        An element survives only if it is >= every element stored before
        it — both the series tail and any earlier batch element that was
        itself kept.  Because any element larger than the running prefix
        maximum is always kept, "kept running maximum" and "prefix
        maximum" coincide, so the guard vectorises as one accumulated
        maximum plus a tail comparison.
        """
        n = len(timestamps)
        if n == 0:
            return 0
        keep = timestamps >= np.maximum.accumulate(timestamps)
        if self.size:
            keep &= timestamps >= self.newest_ts
        if not keep.all():
            timestamps = timestamps[keep]
            values = values[keep]
            n = len(timestamps)
            if n == 0:
                return 0
        if self.size + n > len(self.ts):
            self._grow(self.size + n)
        self.ts[self.size : self.size + n] = timestamps
        self.val[self.size : self.size + n] = values
        self.size += n
        self.newest_ts = int(timestamps[-1])
        return n

    def range(self, start: int, end: int) -> Tuple[np.ndarray, np.ndarray]:
        lo = int(np.searchsorted(self.ts[: self.size], start, side="left"))
        hi = int(np.searchsorted(self.ts[: self.size], end, side="right"))
        return self.ts[lo:hi], self.val[lo:hi]

    def expire_before(self, cutoff: int) -> int:
        """Drop readings older than ``cutoff``; returns how many.

        When expiry leaves the buffers less than a quarter full the
        column pair is reallocated at the next power-of-two fit, so
        long-retention runs actually release the memory their TTL
        sweeps free up instead of keeping peak-sized buffers forever.
        """
        lo = int(np.searchsorted(self.ts[: self.size], cutoff, side="left"))
        if lo == 0:
            return 0
        keep = self.size - lo
        cap = len(self.ts)
        if cap > self._INITIAL and keep < cap / 4:
            new_cap = self._INITIAL
            while new_cap < keep:
                new_cap *= 2
            new_ts = np.empty(new_cap, dtype=np.int64)
            new_val = np.empty(new_cap, dtype=np.float64)
            new_ts[:keep] = self.ts[lo : self.size]
            new_val[:keep] = self.val[lo : self.size]
            self.ts, self.val = new_ts, new_val
        else:
            self.ts[:keep] = self.ts[lo : self.size]
            self.val[:keep] = self.val[lo : self.size]
        self.size = keep
        if not keep:
            self.newest_ts = None
        return lo

    def memory_bytes(self) -> int:
        return self.ts.nbytes + self.val.nbytes


class StorageBackend:
    """Topic-keyed time-series store.

    Args:
        ttl_ns: if positive, readings older than ``newest - ttl_ns`` are
            eligible for expiry via :meth:`expire`.
    """

    def __init__(self, ttl_ns: int = 0) -> None:
        self._series: Dict[str, _Series] = {}
        self.ttl_ns = int(ttl_ns)
        self.insert_count = 0
        self.query_count = 0
        #: Readings refused for violating per-topic time order.
        self.ooo_dropped = 0

    # ------------------------------------------------------------------
    # Inserts
    # ------------------------------------------------------------------

    def insert(self, topic: str, timestamp: int, value: float) -> None:
        """Insert one reading for ``topic``."""
        series = self._series.get(topic)
        if series is None:
            series = self._series[topic] = _Series()
        if series.append(timestamp, value):
            self.insert_count += 1
        else:
            self.ooo_dropped += 1

    def insert_batch(
        self, topic: str, timestamps: np.ndarray, values: np.ndarray
    ) -> None:
        """Insert a time-ordered batch for ``topic``."""
        if len(timestamps) != len(values):
            raise StorageError(
                f"batch length mismatch: {len(timestamps)} != {len(values)}"
            )
        series = self._series.get(topic)
        if series is None:
            series = self._series[topic] = _Series()
        stored = series.append_batch(
            np.asarray(timestamps, dtype=np.int64),
            np.asarray(values, dtype=np.float64),
        )
        self.insert_count += stored
        self.ooo_dropped += len(timestamps) - stored

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def topics(self) -> List[str]:
        """All topics with stored data."""
        return list(self._series.keys())

    def __contains__(self, topic: str) -> bool:
        return topic in self._series

    def count(self, topic: str) -> int:
        """Number of stored readings for ``topic`` (0 if unknown)."""
        series = self._series.get(topic)
        return series.size if series else 0

    def query(
        self, topic: str, start_ts: int, end_ts: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Readings for ``topic`` in ``[start_ts, end_ts]``.

        Returns (timestamps, values) array views, oldest first.  Unknown
        topics yield empty arrays, matching a Cassandra empty result set.
        """
        if start_ts > end_ts:
            raise StorageError(f"inverted range: {start_ts} > {end_ts}")
        self.query_count += 1
        series = self._series.get(topic)
        if series is None:
            empty = np.empty(0, dtype=np.int64)
            return empty, np.empty(0, dtype=np.float64)
        return series.range(start_ts, end_ts)

    def latest(self, topic: str) -> Optional[SensorReading]:
        """Most recent reading for ``topic``, or None."""
        series = self._series.get(topic)
        if series is None or series.size == 0:
            return None
        i = series.size - 1
        return SensorReading(int(series.ts[i]), float(series.val[i]))

    def query_readings(
        self, topic: str, start_ts: int, end_ts: int
    ) -> List[SensorReading]:
        """Like :meth:`query`, but materialised as reading tuples."""
        ts, val = self.query(topic, start_ts, end_ts)
        return [SensorReading(int(t), float(v)) for t, v in zip(ts, val)]

    def query_aggregate(
        self,
        topic: str,
        start_ts: int,
        end_ts: int,
        bucket_ns: int,
        op: str = "mean",
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Downsampled range query: one value per ``bucket_ns`` bucket.

        The dcdbquery tool offers the same server-side downsampling for
        long ranges.  ``op`` is one of ``mean``, ``min``, ``max``,
        ``sum``, ``count``; empty buckets are omitted from the result.
        Returns (bucket start timestamps, aggregated values).
        """
        if bucket_ns <= 0:
            raise StorageError(f"bucket_ns must be positive: {bucket_ns}")
        reducers = {
            "mean": None,  # computed from sums/counts below
            "min": np.minimum,
            "max": np.maximum,
            "sum": None,
            "count": None,
        }
        if op not in reducers:
            raise StorageError(f"unknown aggregate {op!r}")
        ts, val = self.query(topic, start_ts, end_ts)
        if len(ts) == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, np.empty(0, dtype=np.float64)
        bucket_idx = (ts - start_ts) // bucket_ns
        n_buckets = int(bucket_idx.max()) + 1
        counts = np.bincount(bucket_idx, minlength=n_buckets)
        occupied = np.nonzero(counts)[0]
        bucket_ts = (start_ts + occupied * bucket_ns).astype(np.int64)
        if op == "count":
            return bucket_ts, counts[occupied].astype(np.float64)
        if op in ("mean", "sum"):
            sums = np.bincount(bucket_idx, weights=val, minlength=n_buckets)
            if op == "sum":
                return bucket_ts, sums[occupied]
            with np.errstate(invalid="ignore"):
                means = sums[occupied] / counts[occupied]
            return bucket_ts, means
        # min/max: ufunc reduceat over bucket boundaries.
        boundaries = np.searchsorted(bucket_idx, occupied, side="left")
        reduced = reducers[op].reduceat(val, boundaries)
        return bucket_ts, reduced

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def expire(self, now_ns: int) -> int:
        """Apply the TTL relative to ``now_ns``; returns dropped count."""
        if self.ttl_ns <= 0:
            return 0
        cutoff = now_ns - self.ttl_ns
        return sum(s.expire_before(cutoff) for s in self._series.values())

    def drop(self, topic: str) -> bool:
        """Delete an entire series; returns whether it existed."""
        return self._series.pop(topic, None) is not None

    def memory_bytes(self) -> int:
        """Total resident size of all series buffers."""
        return sum(s.memory_bytes() for s in self._series.values())

    def total_readings(self) -> int:
        """Total stored readings across all topics."""
        return sum(s.size for s in self._series.values())

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, path: str) -> int:
        """Snapshot every series to a compressed ``.npz`` file.

        The Cassandra backend is durable by nature; the in-memory
        stand-in offers explicit snapshots instead, so long experiment
        outputs can be archived and reloaded.  Returns the number of
        series written.
        """
        arrays = {}
        for i, (topic, series) in enumerate(sorted(self._series.items())):
            arrays[f"topic_{i}"] = np.frombuffer(
                topic.encode("utf-8"), dtype=np.uint8
            )
            arrays[f"ts_{i}"] = series.ts[: series.size]
            arrays[f"val_{i}"] = series.val[: series.size]
        np.savez_compressed(path, n_series=np.int64(len(self._series)),
                            **arrays)
        return len(self._series)

    @classmethod
    def load(cls, path: str, ttl_ns: int = 0) -> "StorageBackend":
        """Restore a backend from a :meth:`save` snapshot."""
        storage = cls(ttl_ns=ttl_ns)
        with np.load(path) as data:
            n = int(data["n_series"])
            for i in range(n):
                topic = bytes(data[f"topic_{i}"]).decode("utf-8")
                storage.insert_batch(topic, data[f"ts_{i}"], data[f"val_{i}"])
        storage.insert_count = 0  # snapshot restore is not "inserts"
        return storage
