"""Per-sensor in-memory caches.

Every DCDB component keeps a *sensor cache* holding the most recent
readings of each sensor it sees, enabling fast in-memory access without a
round trip to the storage backend.  The Wintermute Query Engine reads
these caches in two modes (Section V-B of the paper):

- **relative**: the caller supplies an offset against the most recent
  reading; the view is computed with index arithmetic in O(1), using the
  sensor's nominal sampling interval.
- **absolute**: the caller supplies absolute timestamps; the bounds are
  located with binary search in O(log N).

The cache is a fixed-capacity ring buffer over two parallel NumPy arrays
(int64 timestamps, float64 values).  Those arrays are always one *row*
of a :class:`CacheSlab`: storage follows the sampling group — sensors a
host creates together (one monitoring plugin, one operator pass, one
first-arrival batch) share one ``ts[rows, cap]`` / ``val[rows, cap]``
pair, which is exactly the set of rings a compiled query plan reads
together and can therefore gather with one index operation.  A
stand-alone ``SensorCache(capacity)`` is a slab of one row.  Everything
a ring does — stores, heads, sizes, views — happens on its row and is
unaware of its neighbours.

**Snapshot semantics.**  Views handed out by a :class:`SensorCache` are
*snapshots*: the (at most two) window slices are materialised into one
contiguous copy at view creation, so readings stored after the view is
taken — including stores that wrap around the ring and overwrite the
viewed slots — can never rewrite a view's contents mid-computation.
Views built from already-private arrays (storage query results, virtual
sensor evaluations) skip the copy, keeping those paths zero-copy.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from repro.common.errors import QueryError
from repro.common.timeutil import NS_PER_SEC
from repro.dcdb.sensor import SensorReading

#: :attr:`SensorCache.gap_ns` until two distinct timestamps have arrived:
#: no gap observed yet is an arbitrarily large one, so ``window // gap``
#: is 0 and a host's "is this arrival closer than any before" is one
#: comparison with no unknown case.
NO_GAP = 1 << 62


class CacheSlab:
    """Backing store of ``rows`` rings of one capacity: two matrices and
    nothing else but :attr:`epoch`.

    Ring state (head, size, newest timestamp) lives on the
    :class:`SensorCache` bound to each row; the slab only owns the
    memory.  A ring that is resized moves into a fresh one-row slab and
    bumps ``epoch`` here, which is how a reader that indexes the
    matrices by row number (``QueryPlan``) learns that one of the rows
    it remembered is no longer anybody's ring.  The row left behind
    stays allocated for as long as any sibling keeps the slab alive.
    """

    __slots__ = ("ts", "val", "epoch")

    def __init__(self, rows: int, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"cache capacity must be positive: {capacity}")
        self.ts = np.zeros((rows, int(capacity)), dtype=np.int64)
        self.val = np.zeros((rows, int(capacity)), dtype=np.float64)
        #: Moves whenever a ring leaves one of the rows.
        self.epoch = 0

    @classmethod
    def sized_for(
        cls, rows: int, window_ns: int, interval_ns: int
    ) -> "CacheSlab":
        """Rings sized like :meth:`SensorCache.for_duration`."""
        return cls(
            rows, SensorCache.capacity_for_duration(window_ns, interval_ns)
        )

    def rings(self, interval_ns: int = 0) -> "list[SensorCache]":
        """A fresh, empty :class:`SensorCache` on every row, in row
        order — call once per slab."""
        rings = []
        for row in range(len(self.ts)):
            cache = SensorCache.__new__(SensorCache)
            cache._init_on(self, row, interval_ns)
            rings.append(cache)
        return rings

    def memory_bytes(self) -> int:
        """Resident size of both matrices in bytes."""
        return self.ts.nbytes + self.val.nbytes


def slab_memory_bytes(caches) -> int:
    """Bytes allocated behind ``caches``, every slab counted once."""
    return sum(slab.memory_bytes() for slab in {c.slab for c in caches})


class CacheView:
    """A window over sensor readings.

    Holds one or two (timestamps, values) slice pairs.  Iteration yields
    :class:`SensorReading` tuples oldest-first.  ``timestamps()`` and
    ``values()`` concatenate lazily and cache the result.

    With ``snapshot=True`` the segments are materialised into one
    contiguous private copy immediately — required whenever the source
    arrays are a live ring buffer that later stores may overwrite.
    Views over arrays the caller already owns (storage results, virtual
    sensor output) keep the default zero-copy behaviour.
    """

    __slots__ = ("_segments", "_ts", "_val")

    def __init__(self, segments, snapshot: bool = False):
        self._segments = [
            (ts, val) for ts, val in segments if len(ts) > 0
        ]
        self._ts: Optional[np.ndarray] = None
        self._val: Optional[np.ndarray] = None
        if snapshot and self._segments:
            if len(self._segments) == 1:
                ts, val = self._segments[0]
                self._ts = ts.copy()
                self._val = val.copy()
            else:
                self._ts = np.concatenate(
                    [ts for ts, _ in self._segments]
                )
                self._val = np.concatenate(
                    [val for _, val in self._segments]
                )
            self._segments = [(self._ts, self._val)]

    def __len__(self) -> int:
        return sum(len(ts) for ts, _ in self._segments)

    def __bool__(self) -> bool:
        return len(self) > 0

    def __iter__(self) -> Iterator[SensorReading]:
        return iter(self.readings())

    def readings(self) -> "list[SensorReading]":
        """All readings oldest-first as a list.

        Converts both columns with a single ``tolist()`` each — per-slot
        ``int(ts[i])``/``float(val[i])`` indexing boxes one NumPy scalar
        per element and dominates iteration-heavy plugin loops.
        """
        ts = self.timestamps().tolist()
        val = self.values().tolist()
        return [SensorReading(t, v) for t, v in zip(ts, val)]

    def timestamps(self) -> np.ndarray:
        """All timestamps oldest-first (concatenated once, then cached)."""
        if self._ts is None:
            if len(self._segments) == 1:
                self._ts = self._segments[0][0]
            elif not self._segments:
                self._ts = np.empty(0, dtype=np.int64)
            else:
                self._ts = np.concatenate([ts for ts, _ in self._segments])
        return self._ts

    def values(self) -> np.ndarray:
        """All values oldest-first (concatenated once, then cached)."""
        if self._val is None:
            if len(self._segments) == 1:
                self._val = self._segments[0][1]
            elif not self._segments:
                self._val = np.empty(0, dtype=np.float64)
            else:
                self._val = np.concatenate([v for _, v in self._segments])
        return self._val

    def first(self) -> SensorReading:
        """Oldest reading in the view."""
        if not self:
            raise QueryError("empty cache view")
        ts, val = self._segments[0]
        return SensorReading(int(ts[0]), float(val[0]))

    def last(self) -> SensorReading:
        """Newest reading in the view."""
        if not self:
            raise QueryError("empty cache view")
        ts, val = self._segments[-1]
        return SensorReading(int(ts[-1]), float(val[-1]))

    @staticmethod
    def empty() -> "CacheView":
        """A view over no readings."""
        return CacheView([])

    @classmethod
    def _snapshot_of(cls, ts: np.ndarray, val: np.ndarray) -> "CacheView":
        """Fast-path constructor around already-materialised copies.

        Skips the generic segment filtering of ``__init__``; used by the
        cache's view methods, which produce exactly one contiguous
        private (timestamps, values) pair per view.
        """
        view = cls.__new__(cls)
        view._ts = ts
        view._val = val
        view._segments = [(ts, val)] if len(ts) else []
        return view


class SensorCache:
    """Fixed-capacity ring buffer of readings for one sensor: one row
    (:attr:`row`) of a :class:`CacheSlab` (:attr:`slab`).

    Args:
        capacity: maximum number of retained readings.  Alternatively use
            :meth:`for_duration` to size the buffer from a time window and
            a nominal sampling interval, as DCDB does (e.g. a 180 s cache
            at 1 s sampling).
        interval_ns: nominal sampling interval; enables O(1) relative
            views.  When 0, relative views fall back to binary search.
    """

    __slots__ = (
        "slab", "row", "_ts", "_val", "_cap", "_head", "_size", "interval_ns",
        "stale_drops", "newest_ts", "gap_ns",
    )

    def __init__(self, capacity: int, interval_ns: int = 0):
        self._init_on(CacheSlab(1, capacity), 0, interval_ns)

    def _bind(self, slab: CacheSlab, row: int) -> None:
        self.slab = slab
        self.row = row
        self._ts = slab.ts[row]
        self._val = slab.val[row]
        self._cap = slab.ts.shape[1]

    def _init_on(self, slab: CacheSlab, row: int, interval_ns: int) -> None:
        self._bind(slab, row)
        self._head = 0  # index of the next write slot
        self._size = 0
        #: Timestamp of the newest retained reading (``None`` when
        #: empty), kept as a Python int beside the ring so the order
        #: guard and the hosts' cadence tracking read it without boxing
        #: a NumPy scalar per reading.  Read-only for callers.
        self.newest_ts: Optional[int] = None
        self.interval_ns = int(interval_ns)
        #: Smallest gap between two successive distinct timestamps, as
        #: measured by a host that cannot know the sensor's interval
        #: (the Collect Agent's ingest loop; :data:`NO_GAP` until it has
        #: seen two).  It is an observation, not a contract: the host
        #: sizes the ring by it and the Query Engine reads it to decide
        #: how many readings a time window can hold at most — the window
        #: itself stays a matter of timestamps (``interval_ns`` is the
        #: claim that turns it into a count).
        self.gap_ns = NO_GAP
        #: Readings rejected for violating timestamp monotonicity; hosts
        #: surface the aggregate as a telemetry drop gauge.
        self.stale_drops = 0

    @staticmethod
    def capacity_for_duration(
        window_ns: int, interval_ns: int, slack: float = 1.2
    ) -> int:
        """Ring capacity needed for ``window_ns`` at ``interval_ns``.

        Exposed separately from :meth:`for_duration` so consumers that
        only need the *sizing arithmetic* (fused-channel width planning,
        memory estimation) share it without allocating a buffer.
        """
        if interval_ns <= 0:
            raise ValueError("interval_ns must be positive")
        return max(2, int(np.ceil(window_ns / interval_ns * slack)) + 1)

    @classmethod
    def for_duration(
        cls, window_ns: int, interval_ns: int, slack: float = 1.2
    ) -> "SensorCache":
        """Size a cache to hold ``window_ns`` of data at ``interval_ns``.

        A slack factor (default 20%) absorbs sampling jitter, mirroring
        DCDB's maxHistory handling.
        """
        capacity = cls.capacity_for_duration(window_ns, interval_ns, slack)
        return cls(capacity, interval_ns=interval_ns)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def store(self, timestamp: int, value: float) -> None:
        """Append one reading.  Timestamps must be non-decreasing; stale
        (out-of-order) readings are dropped, matching DCDB semantics."""
        newest = self.newest_ts
        if newest is not None and timestamp < newest:
            self.stale_drops += 1
            return
        head = self._head
        self._ts[head] = timestamp
        self._val[head] = value
        self.newest_ts = timestamp
        self._head = (head + 1) % self._cap
        if self._size < self._cap:
            self._size += 1

    def store_reading(self, reading: SensorReading) -> None:
        """Append one :class:`SensorReading`."""
        self.store(reading.timestamp, reading.value)

    def store_batch(self, timestamps: np.ndarray, values: np.ndarray) -> None:
        """Append many readings at once (already time-ordered).

        The same non-decreasing-timestamp invariant as :meth:`store`
        applies: any prefix of the batch older than the newest retained
        reading is dropped, so a stale batch can never corrupt the
        sorted timestamp order that :meth:`view_absolute`'s binary
        search relies on.
        """
        n = len(timestamps)
        if n == 0:
            return
        if self._size:
            newest = self.newest_ts
            stale = int(np.searchsorted(timestamps, newest, side="left"))
            if stale:
                self.stale_drops += stale
                timestamps = timestamps[stale:]
                values = values[stale:]
                n -= stale
                if n == 0:
                    return
        self.newest_ts = int(timestamps[-1])
        if n >= self._cap:
            # Only the newest `cap` readings survive; write them aligned
            # to the start of the buffer.
            self._ts[:] = timestamps[n - self._cap:]
            self._val[:] = values[n - self._cap:]
            self._head = 0
            self._size = self._cap
            return
        first = min(n, self._cap - self._head)
        self._ts[self._head:self._head + first] = timestamps[:first]
        self._val[self._head:self._head + first] = values[:first]
        rest = n - first
        if rest:
            self._ts[:rest] = timestamps[first:]
            self._val[:rest] = values[first:]
        self._head = (self._head + n) % self._cap
        self._size = min(self._cap, self._size + n)

    def clear(self) -> None:
        """Drop all readings."""
        self._head = 0
        self._size = 0
        self.newest_ts = None

    def resize(self, capacity: int) -> None:
        """Re-allocate the ring at a new capacity, preserving contents.

        The newest readings survive (all of them when growing, the
        newest ``capacity`` when shrinking).  Hosts use this to grow
        ingest caches once a remote sensor's real cadence is observed —
        the window is a retention contract, not a reading count.

        A slab holds rings of one capacity, so the ring moves into a
        fresh one-row slab and the slab it leaves notes it in ``epoch``;
        resizing to the current capacity changes nothing and the ring
        stays where it is.
        """
        capacity = int(capacity)
        if capacity == self._cap:
            return
        slab = CacheSlab(1, capacity)  # refuses a capacity <= 0
        keep = min(self._size, capacity)
        kept = self._tail_view(keep)  # snapshot: private contiguous copy
        self.slab.epoch += 1
        self._bind(slab, 0)
        self._head = keep % capacity
        self._size = keep
        if keep:
            self._ts[:keep] = kept.timestamps()
            self._val[:keep] = kept.values()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    @property
    def capacity(self) -> int:
        """Maximum number of retained readings."""
        return self._cap

    def latest(self) -> Optional[SensorReading]:
        """Most recent reading, or ``None`` if empty."""
        if not self._size:
            return None
        i = (self._head - 1) % self._cap
        return SensorReading(int(self._ts[i]), float(self._val[i]))

    def oldest(self) -> Optional[SensorReading]:
        """Oldest retained reading, or ``None`` if empty."""
        if not self._size:
            return None
        i = (self._head - self._size) % self._cap
        return SensorReading(int(self._ts[i]), float(self._val[i]))

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def tail_into(self, dst_ts: np.ndarray, dst_val: np.ndarray, count: int) -> int:
        """Copy the newest ``min(count, size)`` readings into the *tail*
        of the destination arrays, oldest-first, and return how many
        were written.

        This is the one-ring window primitive — behind every view of
        this cache, the fused pipeline channels' seeding and the rows a
        compiled query plan reads one at a time (rings that share a slab
        with too few others to be worth one index operation, see
        ``QueryEngine._execute_plan``): the ring's one or two live
        segments are sliced straight into the caller's right-aligned row
        storage, with no per-reading loop and no temporary
        concatenation.  The destinations must be at least
        ``min(count, size)`` long.
        """
        n = count if count < self._size else self._size
        if n <= 0:
            return 0
        start = (self._head - n) % self._cap
        end = (self._head - 1) % self._cap + 1
        if start < end:
            dst_ts[-n:] = self._ts[start:end]
            dst_val[-n:] = self._val[start:end]
        else:
            first = self._cap - start
            dst_ts[-n:first - n] = self._ts[start:]
            dst_val[-n:first - n] = self._val[start:]
            dst_ts[first - n:] = self._ts[:end]
            dst_val[first - n:] = self._val[:end]
        return n

    def _tail_view(self, count: int) -> CacheView:
        """View over the newest ``count`` readings (<= size)."""
        count = min(count, self._size)
        if count <= 0:
            return CacheView.empty()
        ts = np.empty(count, dtype=np.int64)
        val = np.empty(count, dtype=np.float64)
        self.tail_into(ts, val, count)
        return CacheView._snapshot_of(ts, val)

    def view_latest(self) -> CacheView:
        """View containing only the most recent reading."""
        return self._tail_view(1)

    def view_relative(self, offset_ns: int) -> CacheView:
        """Readings within ``offset_ns`` of the newest reading.

        This is the O(1) path from the paper: the number of readings is
        derived from the nominal sampling interval with integer division,
        then clamped to the buffer contents.  With no interval hint the
        call degrades to an absolute query anchored at the newest
        timestamp.
        """
        if not self._size:
            return CacheView.empty()
        if offset_ns < 0:
            raise QueryError(f"negative relative offset: {offset_ns}")
        if offset_ns == 0:
            return self.view_latest()
        if self.interval_ns > 0:
            count = offset_ns // self.interval_ns + 1
            return self._tail_view(int(count))
        newest = self.newest_ts
        return self.view_absolute(newest - offset_ns, newest)

    def view_absolute(self, start_ts: int, end_ts: int) -> CacheView:
        """Readings with timestamps in ``[start_ts, end_ts]``.

        This is the O(log N) path: the ring is logically unrolled and the
        bounds are located with binary search on the timestamp column.
        """
        if start_ts > end_ts:
            raise QueryError(
                f"inverted absolute range: {start_ts} > {end_ts}"
            )
        if not self._size:
            return CacheView.empty()
        segs = self._ordered_segments()
        out = []
        for ts, val in segs:
            lo = int(np.searchsorted(ts, start_ts, side="left"))
            hi = int(np.searchsorted(ts, end_ts, side="right"))
            if lo < hi:
                out.append((ts[lo:hi], val[lo:hi]))
        if not out:
            return CacheView.empty()
        if len(out) == 1:
            ts, val = out[0]
            return CacheView._snapshot_of(ts.copy(), val.copy())
        return CacheView._snapshot_of(
            np.concatenate([ts for ts, _ in out]),
            np.concatenate([val for _, val in out]),
        )

    def _ordered_segments(self):
        """The live contents as 1 or 2 time-ordered slices (no copy)."""
        start = (self._head - self._size) % self._cap
        end = (self._head - 1) % self._cap + 1
        if self._size == 0:
            return []
        if start < end:
            return [(self._ts[start:end], self._val[start:end])]
        return [
            (self._ts[start:], self._val[start:]),
            (self._ts[:end], self._val[:end]),
        ]

    def memory_bytes(self) -> int:
        """Size of this ring's slab row in bytes (what a host has
        allocated is :func:`slab_memory_bytes` of its caches)."""
        return self._ts.nbytes + self._val.nbytes


def default_cache(interval_ns: int, window_seconds: float = 180.0) -> SensorCache:
    """The cache DCDB configures by default: 180 s of history."""
    return SensorCache.for_duration(
        int(window_seconds * NS_PER_SEC), interval_ns
    )
