"""In-memory time-series storage backend.

Stands in for the Apache Cassandra backend of DCDB.  It preserves the
interfaces Wintermute relies on: per-sensor inserts keyed by topic, range
queries over ``[start, end]`` timestamp intervals, newest-value lookups,
and TTL-based expiry.

Readings are held in *blocks*, the second layout of the caches'
lock-step group (:class:`~repro.dcdb.cache.LockStep`): the topics first
stored together (one pass's first arrivals) are the rows of ``val[rows,
w]`` chunk matrices beside one ``ts[w]`` vector a chunk, which the rows
share — so a pass lands as one column per block, two NumPy writes
each, through the hosts' one memoised writer.  Membership,
the order guard and the hand-over are the group's: a write that would
break the lock step first moves the rows that fall out of step into a
fresh block, and a lone topic is a one-row block.  The block's own are
its chunks, :meth:`_Block.empty` and :meth:`_Block.expire_before`.  A
block grows by appending a chunk as wide as the block so far (256, 256,
512, …), so no stored reading is copied to grow, a row spans O(log n)
chunks, and a range query copies only when it spans two.  Timestamps
are located by binary search.  Values stay topic-major: a block is read
a topic's history at a time (DESIGN.md, "How a reading is written").
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.common.errors import StorageError
from repro.dcdb.cache import (
    LockStep,
    Member,
    PlanMemo,
    WritePlan,
    first_arrivals,
    plan_columns,
    plan_write,
    write_columns_at,
)
from repro.dcdb.sensor import SensorReading

#: Readings per row of a block's first chunk; every later chunk is as
#: wide as the block so far.
CHUNK = 256


def _empty() -> Tuple[np.ndarray, np.ndarray]:
    return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)


def _joined(parts) -> Tuple[np.ndarray, np.ndarray]:
    """``parts`` — (timestamps, values) pairs, oldest first — as one
    pair, joined along the last axis: the part itself when there is
    one, a copy otherwise."""
    if len(parts) == 1:
        return parts[0]
    if not parts:
        return _empty()
    return (
        np.concatenate([ts for ts, _ in parts], axis=-1),
        np.concatenate([val for _, val in parts], axis=-1),
    )


class _Row(Member):
    """A stored topic: row :attr:`row` of block :attr:`slab`."""

    __slots__ = ("topic",)

    def __init__(self, topic: str) -> None:
        self.topic = topic


class _Block(LockStep):
    """``rows`` stored topics advancing in lock step: ``(ts[w], val[rows,
    w])`` chunks that grow instead of wrapping, the
    :class:`~repro.dcdb.cache.LockStep` group's other layout.

    ``newest`` — the order guard — outlives :meth:`empty`, so after a
    flush it is the seal floor of every row.
    """

    __slots__ = ("chunks", "capacity", "firsts", "_ts", "_val", "_start", "_end")

    def __init__(self, rows: int, newest: Optional[int] = None) -> None:
        super().__init__(rows, newest)
        #: ``(ts, val)`` chunk pairs, oldest first.
        self.chunks: List[Tuple[np.ndarray, np.ndarray]] = []
        self.capacity = 0  # readings per row the chunks have room for
        self._rewind()

    def _rewind(self) -> None:
        """Hold nothing: the next reading goes to position 0."""
        self.size = 0
        #: The first timestamp of each chunk that holds readings.
        self.firsts: List[int] = []
        # The chunk holding position ``size - 1`` and its positions.
        self._ts = self._val = None
        self._start = self._end = 0

    def memory_bytes(self) -> int:
        """The live rows' slots at 16 bytes (a timestamp and a value), the
        flush budget's input: about 2x what chunks holding their
        timestamps once allocate, kept so flushes fall on the same sweeps."""
        return len(self.bound) * self.capacity * 16

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def _add_chunk(self) -> None:
        width = self.capacity or CHUNK
        self.chunks.append((
            np.empty(width, dtype=np.int64),
            np.empty((self.rows, width), dtype=np.float64),
        ))
        self.capacity += width

    def _enter(self, timestamp: int) -> None:
        """Write on in the next chunk, its first reading at
        ``timestamp``; the block grows when it has no next chunk."""
        k = len(self.firsts)
        if k == len(self.chunks):
            self._add_chunk()
        self._ts, self._val = self.chunks[k]
        self._start = self._end
        self._end += len(self._ts)
        self.firsts.append(timestamp)

    def _append(self, timestamp: int, values) -> None:
        size = self.size
        if size == self._end:
            self._enter(timestamp)
        at = size - self._start
        self._ts[at] = timestamp
        self._val[:, at] = values
        self.size = size + 1

    def _extend(self, ts: np.ndarray, val: np.ndarray) -> None:
        """Append the columns of ``ts`` (``(n,)``) / ``val`` (``[rows,
        n]``, or ``[1, n]`` for every row): in order, none older than
        :attr:`newest`."""
        n = len(ts)
        done = 0
        while done < n:
            if self.size == self._end:
                self._enter(int(ts[done]))
            at = self.size - self._start
            take = min(n - done, self._end - self.size)
            self._ts[at:at + take] = ts[done:done + take]
            self._val[:, at:at + take] = val[:, done:done + take]
            self.size += take
            done += take
        if n:
            self.newest = int(ts[-1])

    def _copy(self, rows: List[_Row]) -> "_Block":
        """A fresh block with this one's chunk widths, the readings of
        ``rows`` and :attr:`newest`."""
        block = _Block(len(rows), self.newest)
        for _ in self.chunks:
            block._add_chunk()
        if self.size:
            index = np.array([row.row for row in rows], dtype=np.intp)
            block._extend(*_joined(self.parts(index)))
        return block

    def empty(self) -> None:
        """Hold nothing, keeping the first chunk and :attr:`newest`."""
        del self.chunks[1:]
        self.capacity = min(self.capacity, CHUNK)
        self._rewind()

    def expire_before(self, cutoff: int) -> int:
        """Drop the readings older than ``cutoff``; returns how many per
        row.

        The rest move to the front.  When that leaves the block less
        than a quarter full its trailing chunks are released down to the
        next power-of-two fit, so long-retention runs actually give back
        the memory their TTL sweeps free up.
        """
        if not self.size or self.firsts[0] >= cutoff:
            return 0
        ts, val = _joined(self.parts(slice(None)))
        lo = int(ts.searchsorted(cutoff))
        keep = self.size - lo
        if self.capacity > CHUNK and keep < self.capacity / 4:
            capacity = CHUNK
            while capacity < keep:
                capacity *= 2
            del self.chunks[(capacity // CHUNK).bit_length():]
            self.capacity = capacity
        self._rewind()
        if keep:
            self._extend(ts[lo:], val[:, lo:])
        return lo

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def parts(
        self, row, first: int = 0, last: Optional[int] = None
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """The readings of ``row`` — one row, or an index or a slice of
        rows — in chunks ``first:last`` (default: to the newest), oldest
        first: each chunk's timestamps, and the rows' values."""
        newest = len(self.firsts) - 1
        if last is None:
            last = newest + 1
        out = []
        for k in range(first, last):
            ts, val = self.chunks[k]
            if k < newest:  # full
                out.append((ts, val[row]))
            else:
                n = self.size - self._start
                out.append((ts[:n], val[row, :n]))
        return out

    def range(
        self, row: int, start_ts: int, end_ts: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``row``'s readings in ``[start_ts, end_ts]``: views when they
        lie in one chunk."""
        # (The ndarray method: np.searchsorted's dispatch costs more
        # than the search.)
        firsts = self.firsts
        if firsts and (firsts[-1] < start_ts or len(firsts) == 1):
            # Nothing at or after start_ts before the newest chunk.
            ts = self._ts[:self.size - self._start]
            lo = ts.searchsorted(start_ts, "left")
            hi = ts.searchsorted(end_ts, "right")
            return ts[lo:hi], self._val[row, lo:hi]
        ts, val = _joined(self.parts(
            row, max(bisect_left(firsts, start_ts) - 1, 0),
            bisect_right(firsts, end_ts),
        ))
        lo = ts.searchsorted(start_ts, "left")
        hi = ts.searchsorted(end_ts, "right")
        return ts[lo:hi], val[lo:hi]

    def latest(self, row: int) -> Optional[SensorReading]:
        if not self.size:
            return None
        return SensorReading(
            self.newest, float(self._val[row, self.size - 1 - self._start])
        )


class StorageBackend:
    """Topic-keyed time-series store.

    Args:
        ttl_ns: if positive, readings older than ``newest - ttl_ns`` are
            eligible for expiry via :meth:`expire`.
    """

    def __init__(self, ttl_ns: int = 0) -> None:
        #: topic -> its row.
        self._series: Dict[str, _Row] = {}
        #: Write plans by topics tuple (see :meth:`insert_columns_at`).
        self.plans = PlanMemo()
        self.ttl_ns = int(ttl_ns)
        self.insert_count = 0
        self.query_count = 0
        #: Readings refused for violating per-topic time order.
        self.ooo_dropped = 0

    def _floor(self, topic: str) -> Optional[int]:
        """The oldest timestamp a row opened for ``topic`` takes: none
        here, a tiered backend's seal floor there."""
        return None

    def _open(self, topics: List[str], floor: Optional[int]) -> List[_Row]:
        """Rows for ``topics``, together in a fresh block.  A topic with
        a NUL in it is refused: no segment could name it."""
        for topic in topics:
            if "\0" in topic:
                raise StorageError(f"NUL in topic {topic!r}")
        block = _Block(len(topics), floor)
        rows = [_Row(topic) for topic in topics]
        for i, row in enumerate(rows):
            row._bind(block, i)
        self._series.update(zip(topics, rows))
        return rows

    def _blocks(self) -> List[_Block]:
        """Every block a topic is stored in, once."""
        return list(dict.fromkeys(row.slab for row in self._series.values()))

    # ------------------------------------------------------------------
    # Inserts
    # ------------------------------------------------------------------

    def insert_columns_at(self, topics, ts: int, values) -> None:
        """Insert a pass: ``values`` of ``topics``, all at one timestamp
        ``ts``, as one column per block, by the write plan :attr:`plans`
        keeps for this topics tuple (:func:`~repro.dcdb.cache.plan_write`).

        Time order is kept per topic: DCDB rejects out-of-order inserts
        at the same key; they are dropped and counted in
        :attr:`ooo_dropped`, like the sensor cache does.
        """
        if not len(topics):
            return
        plan = plan_write(self.plans, self._write_plan, tuple(topics))
        dropped = write_columns_at(
            plan.columns, ts, np.asarray(values, dtype=np.float64)
        )
        self.insert_count += len(topics) - dropped
        self.ooo_dropped += dropped

    def _write_plan(self, topics: tuple) -> WritePlan:
        """The columns of a pass (:func:`plan_columns`), once the topics
        it is the first to bring have rows: one block, split by floor so
        each block starts at one."""
        floors: Dict[Optional[int], List[str]] = {}
        for topic in first_arrivals(self._series, topics):
            floors.setdefault(self._floor(topic), []).append(topic)
        for floor, opened in floors.items():
            self._open(opened, floor)
        series = self._series
        return WritePlan(
            topics, plan_columns([series[topic] for topic in topics])
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def topics(self) -> List[str]:
        """All topics written to (and not dropped)."""
        return list(self._series.keys())

    def __contains__(self, topic: str) -> bool:
        return topic in self._series

    def count(self, topic: str) -> int:
        """Number of stored readings for ``topic`` (0 if unknown)."""
        row = self._series.get(topic)
        return row.slab.size if row else 0

    def query(
        self, topic: str, start_ts: int, end_ts: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Readings for ``topic`` in ``[start_ts, end_ts]``.

        Returns (timestamps, values), oldest first: views of the stored
        arrays unless the range spans two chunks, so valid until an
        expiry or a flush rewrites them.  Unknown topics yield empty
        arrays, matching a Cassandra empty result set.
        """
        if start_ts > end_ts:
            raise StorageError(f"inverted range: {start_ts} > {end_ts}")
        self.query_count += 1
        row = self._series.get(topic)
        if row is None:
            return _empty()
        return row.slab.range(row.row, start_ts, end_ts)

    def latest(self, topic: str) -> Optional[SensorReading]:
        """Most recent reading for ``topic``, or None."""
        row = self._series.get(topic)
        return None if row is None else row.slab.latest(row.row)

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
            return _empty()
        bucket_idx = (ts - start_ts) // bucket_ns
        n_buckets = int(bucket_idx.max()) + 1
        counts = np.bincount(bucket_idx, minlength=n_buckets)
        occupied = counts.nonzero()[0]
        bucket_ts = (start_ts + occupied * bucket_ns).astype(np.int64)
        if op == "count":
            return bucket_ts, counts[occupied].astype(np.float64)
        if op in ("mean", "sum"):
            sums = np.bincount(bucket_idx, weights=val, minlength=n_buckets)
            if op == "sum":
                return bucket_ts, sums[occupied]
            # Occupied buckets count >= 1: no 0/0 to silence.
            return bucket_ts, sums[occupied] / counts[occupied]
        # min/max: ufunc reduceat over bucket boundaries.
        boundaries = bucket_idx.searchsorted(occupied, side="left")
        reduced = reducers[op].reduceat(val, boundaries)
        return bucket_ts, reduced

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def expire(self, now_ns: int) -> int:
        """Apply the TTL relative to ``now_ns``; returns dropped count.

        A topic left with no reading takes any timestamp again — down to
        its floor (:meth:`_floor`).
        """
        if self.ttl_ns <= 0:
            return 0
        cutoff = now_ns - self.ttl_ns
        dropped = 0
        for block in self._blocks():
            lo = block.expire_before(cutoff)
            if lo:
                dropped += lo * len(block.bound)
                if not block.size:
                    row = next(iter(block.bound.values()))
                    block.newest = self._floor(row.topic)
        return dropped

    def drop(self, topic: str) -> bool:
        """Delete an entire series; returns whether it existed."""
        row = self._series.pop(topic, None)
        if row is None:
            return False
        row.slab.hand_over([row])
        return True

    def memory_bytes(self) -> int:
        """What the stored topics hold allocated: their rows' chunks."""
        return sum(block.memory_bytes() for block in self._blocks())

    def total_readings(self) -> int:
        """Total stored readings across all topics."""
        return sum(row.slab.size for row in self._series.values())

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
        for i, (topic, row) in enumerate(sorted(self._series.items())):
            arrays[f"topic_{i}"] = np.frombuffer(
                topic.encode("utf-8"), dtype=np.uint8
            )
            arrays[f"ts_{i}"], arrays[f"val_{i}"] = _joined(
                row.slab.parts(row.row)
            )
        np.savez_compressed(path, n_series=np.int64(len(self._series)),
                            **arrays)
        return len(self._series)

    @classmethod
    def load(cls, path: str, ttl_ns: int = 0) -> "StorageBackend":
        """Restore a backend from a :meth:`save` snapshot.

        A snapshot is outside input: a series whose columns differ in
        length, or whose timestamps go back, is refused with a
        :class:`StorageError` naming its topic, never stored in part.
        """
        storage = cls(ttl_ns=ttl_ns)
        with np.load(path) as data:
            n = int(data["n_series"])
            for i in range(n):
                topic = bytes(data[f"topic_{i}"]).decode("utf-8")
                ts = np.asarray(data[f"ts_{i}"], dtype=np.int64)
                val = np.asarray(data[f"val_{i}"], dtype=np.float64)
                if len(ts) != len(val):
                    raise StorageError(
                        f"snapshot series {topic!r}: {len(ts)} timestamps,"
                        f" {len(val)} values"
                    )
                if (np.diff(ts) < 0).any():
                    raise StorageError(
                        f"snapshot series {topic!r}: timestamps go back"
                    )
                (row,) = storage._open([topic], storage._floor(topic))
                if len(ts):
                    row.slab._extend(ts, val[None, :])
        return storage
