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
of a :class:`CacheSlab`, and the ring's state — head, size, newest
timestamp, observed gap — is the slab's, shared by every live row.  The
invariant: **all live rows of a slab share one history of timestamps**.
Storage follows the sampling group — sensors a host writes together (one
monitoring plugin, one operator pass, one first-arrival batch) share a
slab — so a pass lands as one column (:meth:`CacheSlab.store_column`,
two NumPy writes) and a compiled query plan reads those rings with one
index operation.  A write that would break the lock step (a scalar
store, a batch or a clear on a shared slab; a column some rows miss or
are brought to twice) first moves the rings that fall out of step into a
fresh slab (:meth:`CacheSlab.move`) and bumps the ``epoch`` of the one
they left.  :func:`plan_columns` is that rule for a whole write, the
plan a host memoises per sequence of sensors.  A stand-alone
``SensorCache(capacity)`` is a slab of one row, so every scalar path is
what it was.

**Snapshot semantics.**  Views handed out by a :class:`SensorCache` are
*snapshots*: the (at most two) window slices are materialised into one
contiguous copy at view creation, so readings stored after the view is
taken — including stores that wrap around the ring and overwrite the
viewed slots — can never rewrite a view's contents mid-computation.
Views built from already-private arrays (storage query results, virtual
sensor evaluations) skip the copy, keeping those paths zero-copy.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence

import numpy as np

from repro.common.errors import QueryError
from repro.common.timeutil import NS_PER_SEC
from repro.dcdb.sensor import SensorReading

#: :attr:`CacheSlab.gap` until two distinct timestamps have arrived:
#: no gap observed yet is an arbitrarily large one, so ``window // gap``
#: is 0 and a host's "is this arrival closer than any before" is one
#: comparison with no unknown case.
NO_GAP = 1 << 62

#: Most write plans a host keeps, oldest forgotten first.  Steady
#: traffic repeats a handful of sequences — one per plugin, per
#: operator, per drain shape — but spill replays, partial passes and
#: job operators (whose units, and so whose sensors, are new every
#: pass) bring sequences that never come back; unbounded, those would
#: be kept for the life of the process.
PLAN_MEMO_SIZE = 64


def remember(memo: dict, key, plan, size: int = PLAN_MEMO_SIZE) -> None:
    """``memo[key] = plan``, forgetting the oldest entry of a memo that
    holds ``size`` already."""
    if len(memo) >= size and key not in memo:
        del memo[next(iter(memo))]
    memo[key] = plan


class CacheSlab:
    """``rows`` rings of one capacity advancing in lock step: two
    matrices, one ring state, and :attr:`epoch`.

    Every live row holds the same timestamps in the same slots, so head,
    size, newest timestamp and observed gap are plain ints here, not on
    the :class:`SensorCache` bound to each row.  A ring that leaves —
    resized, written alone, missed by a column — moves into a fresh slab
    and bumps ``epoch``, which is how a reader that indexes the matrices
    by row number (``QueryPlan``, a host's write plan) learns that one of
    the rows it remembered is no longer anybody's ring.  The row left
    behind stays allocated for as long as any sibling keeps the slab
    alive, and keeps being written with the column (its values are
    whatever the writer passes).
    """

    __slots__ = ("ts", "val", "epoch", "head", "size", "newest", "gap", "bound")

    def __init__(self, rows: int, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"cache capacity must be positive: {capacity}")
        self.ts = np.zeros((rows, int(capacity)), dtype=np.int64)
        self.val = np.zeros((rows, int(capacity)), dtype=np.float64)
        #: Moves whenever a ring leaves one of the rows.
        self.epoch = 0
        self.head = 0  # index of the next write slot
        self.size = 0
        #: Timestamp of the newest retained reading (``None`` when
        #: empty), a Python int so the order guard and the hosts'
        #: cadence tracking read it without boxing a NumPy scalar.
        self.newest: Optional[int] = None
        #: Smallest gap between two successive distinct timestamps, as
        #: measured by a host that cannot know the sensors' interval
        #: (the Collect Agent's ingest loop; :data:`NO_GAP` until it has
        #: seen two).  It is an observation, not a contract: the Query
        #: Engine reads it to decide how many readings a time window can
        #: hold at most — the window itself stays a matter of timestamps
        #: (``interval_ns`` is the claim that turns it into a count).
        self.gap = NO_GAP
        #: row -> the ring bound to it; a row whose ring left is absent.
        self.bound: Dict[int, "SensorCache"] = {}

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
        for row in range(self.rows):
            cache = SensorCache.__new__(SensorCache)
            cache._init_on(self, row, interval_ns)
            rings.append(cache)
        return rings

    @property
    def capacity(self) -> int:
        """Readings each row retains."""
        return self.ts.shape[1]

    @property
    def rows(self) -> int:
        """Rows of the matrices, the ones a ring left included."""
        return len(self.ts)

    def oldest(self) -> Optional[int]:
        """Timestamp of the oldest retained reading (``None`` when empty);
        every row holds it, the rows a ring left included."""
        if not self.size:
            return None
        return int(self.ts[0, self.head - self.size])

    def memory_bytes(self) -> int:
        """Resident size of both matrices in bytes."""
        return self.ts.nbytes + self.val.nbytes

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def store_column(self, timestamp: int, values) -> None:
        """Append one reading to every row: ``values`` in row order, all
        at ``timestamp``.  A stale column (older than the newest
        reading) is dropped and counts one drop on every live ring, as
        one store per ring would."""
        newest = self.newest
        if newest is not None and timestamp < newest:
            for ring in self.bound.values():
                ring.stale_drops += 1
            return
        head = self.head
        self.ts[:, head] = timestamp
        self.val[:, head] = values
        self.newest = timestamp
        cap = self.ts.shape[1]
        self.head = (head + 1) % cap
        if self.size < cap:
            self.size += 1

    def _newest_columns(self, keep: int) -> np.ndarray:
        """Slots of the newest ``keep`` readings, oldest first."""
        cap = self.ts.shape[1]
        return (self.head + np.arange(cap - keep, cap)) % cap

    def move(self, rings, capacity: Optional[int] = None) -> "CacheSlab":
        """Move ``rings`` — live rows of this slab — together into a
        fresh slab of ``capacity`` (default: this one's) and return it.

        They keep their newest readings (all of them unless the new
        capacity is smaller), the ring state and the observed gap; this
        slab's ``epoch`` moves.  Refuses a capacity <= 0 before anything
        has changed.
        """
        capacity = self.capacity if capacity is None else int(capacity)
        slab = CacheSlab(len(rings), capacity)
        keep = min(self.size, capacity)
        if keep:
            rows = np.array([ring.row for ring in rings], dtype=np.intp)
            cols = self._newest_columns(keep)
            slab.ts[:, :keep] = self.ts[rows[:, None], cols]
            slab.val[:, :keep] = self.val[rows[:, None], cols]
        slab.head = keep % capacity
        slab.size = keep
        slab.newest = self.newest
        slab.gap = self.gap
        for row, ring in enumerate(rings):
            del self.bound[ring.row]
            ring._bind(slab, row)
        self.epoch += 1
        return slab

    def grow(self, capacity: int) -> None:
        """Re-allocate every row at a larger ``capacity`` in place,
        contents kept: the rings keep their slab and row and are rebound
        to the new matrices, so no plan that reads them goes stale."""
        keep = self.size
        cols = self._newest_columns(keep)
        ts = np.zeros((len(self.ts), int(capacity)), dtype=np.int64)
        val = np.zeros((len(self.ts), int(capacity)), dtype=np.float64)
        ts[:, :keep] = self.ts[:, cols]
        val[:, :keep] = self.val[:, cols]
        self.ts, self.val = ts, val
        self.head = keep % capacity
        for row, ring in self.bound.items():
            ring._bind(self, row)


def slab_memory_bytes(caches) -> int:
    """Bytes allocated behind ``caches``, every slab counted once."""
    return sum(slab.memory_bytes() for slab in {c.slab for c in caches})


def register_cache_gauges(telemetry, caches: Dict[str, "SensorCache"]) -> None:
    """A host's collection-time gauges over its ``topic -> cache`` map:
    evaluated by the /metrics scraper, costing the data path nothing.
    ``cache_slab_count`` beside ``cache_sensor_count`` shows how many
    rings have fallen out of step with the group they were created in."""
    telemetry.gauge("cache_sensor_count", fn=lambda: len(caches))
    telemetry.gauge(
        "cache_slab_count", fn=lambda: len({c.slab for c in caches.values()})
    )
    telemetry.gauge(
        "cache_occupancy_readings",
        fn=lambda: sum(len(c) for c in caches.values()),
    )
    telemetry.gauge(
        "cache_capacity_readings",
        fn=lambda: sum(c.capacity for c in caches.values()),
    )
    # What is allocated, each slab once: a row a ring left behind stays
    # counted for as long as its slab has a live ring.
    telemetry.gauge(
        "cache_memory_bytes", fn=lambda: slab_memory_bytes(caches.values())
    )
    telemetry.gauge(
        "cache_stale_drops",
        fn=lambda: sum(c.stale_drops for c in caches.values()),
    )


class Column(NamedTuple):
    """One column of a write plan: ``slab`` takes the readings at
    positions ``index`` of the written sequence, one per row in row
    order (``None``: the sequence *is* the slab's rows, in order)."""

    slab: CacheSlab
    epoch: int            # the slab's when planned: a ring leaving moves it
    index: Optional[np.ndarray]
    first: int            # a position of the column: its timestamp is the column's


def first_arrivals(known, topics, timestamps) -> Dict[int, List[str]]:
    """The topics of a write that ``known`` holds no row for, grouped by
    the timestamp each first arrives at, in order of first arrival:
    what is first heard together is written and read together."""
    first: Dict[str, int] = {}
    for topic, ts in zip(topics, timestamps):
        if topic not in known and topic not in first:
            first[topic] = ts
    groups: Dict[int, List[str]] = {}
    for topic, ts in first.items():
        groups.setdefault(ts, []).append(topic)
    return groups


def plan_columns(
    caches: Sequence["SensorCache"], timestamps: Sequence[int]
) -> List[Column]:
    """How reading ``i`` — for ``caches[i]`` at ``timestamps[i]`` — is
    written, as columns that keep every slab in lock step.

    Per slab, its live rings are grouped by the timestamps this write
    brings them, in order (none, for a ring it misses).  The largest
    group stays (the first of equals; the missed rings count last);
    every other group moves together into a fresh slab.  Each group then
    takes one column per timestamp it was brought — a ring's ``k``-th
    reading in its group's ``k``-th column, so each ring sees its
    readings in the order a loop of scalar stores would.  Run before
    anything is stored; the plan is valid for as long as no planned
    slab's ``epoch`` moves.

    A ring is anything with a ``slab`` and a ``row``, a slab anything
    with ``rows``, ``bound``, ``epoch`` and ``move`` — the storage
    backend's blocks are planned by this rule too.
    """
    positions: Dict[SensorCache, List[int]] = {}
    for i, cache in enumerate(caches):
        positions.setdefault(cache, []).append(i)
    by_slab: Dict[CacheSlab, Dict[tuple, List[SensorCache]]] = {}
    for cache, where in positions.items():
        pattern = tuple(timestamps[i] for i in where)
        by_slab.setdefault(cache.slab, {}).setdefault(pattern, []).append(cache)
    homes = []
    for slab, groups in by_slab.items():
        missed = [r for r in slab.bound.values() if r not in positions]
        if missed:
            groups.setdefault((), []).extend(missed)
        stay = max(groups, key=lambda pattern: len(groups[pattern]))
        for pattern, rings in groups.items():
            if pattern:
                homes.append((rings, pattern))
            if pattern != stay:
                slab.move(rings)
    columns = []
    n = len(caches)
    for rings, pattern in homes:
        slab = rings[0].slab
        rows = slab.rows
        for k in range(len(pattern)):
            index = [positions[rings[0]][k]] * rows  # rows no ring is on
            for ring in rings:
                index[ring.row] = positions[ring][k]
            identity = rows == n and index == list(range(n))
            columns.append(Column(
                slab, slab.epoch,
                None if identity else np.array(index, dtype=np.intp),
                index[rings[0].row],
            ))
    return columns


def plan_is_current(columns: Sequence[Column]) -> bool:
    """Whether no planned slab has lost a ring since."""
    return all(col.slab.epoch == col.epoch for col in columns)


def plan_fits(columns: Sequence[Column], timestamps: List[int]) -> bool:
    """Whether ``columns`` still write a sequence of these timestamps:
    the plan is current and each column's readings share one timestamp
    (trivially, when the whole sequence does)."""
    if not plan_is_current(columns):
        return False
    if timestamps.count(timestamps[0]) == len(timestamps):
        return True
    stamps = np.asarray(timestamps, dtype=np.int64)
    for col in columns:
        column = stamps if col.index is None else stamps[col.index]
        if (column != stamps[col.first]).any():
            return False
    return True


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
    (:attr:`row`) of a :class:`CacheSlab` (:attr:`slab`), whose ring
    state it reads through.

    Args:
        capacity: maximum number of retained readings.  Alternatively use
            :meth:`for_duration` to size the buffer from a time window and
            a nominal sampling interval, as DCDB does (e.g. a 180 s cache
            at 1 s sampling).
        interval_ns: nominal sampling interval; enables O(1) relative
            views.  When 0, relative views fall back to binary search.
    """

    __slots__ = ("slab", "row", "_ts", "_val", "interval_ns", "stale_drops")

    def __init__(self, capacity: int, interval_ns: int = 0):
        self._init_on(CacheSlab(1, capacity), 0, interval_ns)

    def _bind(self, slab: CacheSlab, row: int) -> None:
        self.slab = slab
        self.row = row
        self._ts = slab.ts[row]
        self._val = slab.val[row]
        slab.bound[row] = self

    def _init_on(self, slab: CacheSlab, row: int, interval_ns: int) -> None:
        self._bind(slab, row)
        self.interval_ns = int(interval_ns)
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
    # Ring state, read through the slab
    # ------------------------------------------------------------------

    @property
    def newest_ts(self) -> Optional[int]:
        """Timestamp of the newest retained reading (``None`` if empty)."""
        return self.slab.newest

    @property
    def gap_ns(self) -> int:
        """The observed arrival gap (:attr:`CacheSlab.gap`) — setting
        it sets it for every ring of the slab."""
        return self.slab.gap

    @gap_ns.setter
    def gap_ns(self, gap: int) -> None:
        self.slab.gap = gap

    @property
    def _size(self) -> int:  # what the Query Engine's window check reads
        return self.slab.size

    def _alone(self) -> CacheSlab:
        """This ring's slab, once the ring is alone on it: a ring-by-ring
        write moves it out of a slab it shares first."""
        slab = self.slab
        if len(slab.bound) > 1:
            slab = slab.move([self])
        return slab

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def store(self, timestamp: int, value: float) -> None:
        """Append one reading.  Timestamps must be non-decreasing; stale
        (out-of-order) readings are dropped, matching DCDB semantics."""
        newest = self.slab.newest
        if newest is not None and timestamp < newest:
            self.stale_drops += 1
            return
        slab = self._alone()
        head = slab.head
        self._ts[head] = timestamp
        self._val[head] = value
        slab.newest = timestamp
        cap = len(self._ts)
        slab.head = (head + 1) % cap
        if slab.size < cap:
            slab.size += 1

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
        newest = self.slab.newest
        if newest is not None:
            stale = int(np.searchsorted(timestamps, newest, side="left"))
            if stale:
                self.stale_drops += stale
                timestamps = timestamps[stale:]
                values = values[stale:]
                n -= stale
                if n == 0:
                    return
        slab = self._alone()
        ts, val = self._ts, self._val
        cap = len(ts)
        slab.newest = int(timestamps[-1])
        if n >= cap:
            # Only the newest `cap` readings survive; write them aligned
            # to the start of the buffer.
            ts[:] = timestamps[n - cap:]
            val[:] = values[n - cap:]
            slab.head = 0
            slab.size = cap
            return
        head = slab.head
        first = min(n, cap - head)
        ts[head:head + first] = timestamps[:first]
        val[head:head + first] = values[:first]
        rest = n - first
        if rest:
            ts[:rest] = timestamps[first:]
            val[:rest] = values[first:]
        slab.head = (head + n) % cap
        slab.size = min(cap, slab.size + n)

    def clear(self) -> None:
        """Drop all readings."""
        slab = self._alone()
        slab.head = 0
        slab.size = 0
        slab.newest = None

    def resize(self, capacity: int) -> None:
        """Re-allocate the ring at a new capacity, preserving contents.

        The newest readings survive (all of them when growing, the
        newest ``capacity`` when shrinking).  A slab holds rings of one
        capacity, so the ring moves into a fresh one-row slab and the
        slab it leaves notes it in ``epoch``; resizing to the current
        capacity changes nothing and the ring stays where it is.
        """
        if int(capacity) != self.capacity:
            self.slab.move([self], capacity)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self.slab.size

    @property
    def capacity(self) -> int:
        """Maximum number of retained readings."""
        return len(self._ts)

    def latest(self) -> Optional[SensorReading]:
        """Most recent reading, or ``None`` if empty."""
        slab = self.slab
        if not slab.size:
            return None
        i = slab.head - 1
        return SensorReading(int(self._ts[i]), float(self._val[i]))

    def oldest(self) -> Optional[SensorReading]:
        """Oldest retained reading, or ``None`` if empty."""
        slab = self.slab
        if not slab.size:
            return None
        i = slab.head - slab.size
        return SensorReading(int(self._ts[i]), float(self._val[i]))

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def tail_into(self, dst_ts: np.ndarray, dst_val: np.ndarray, count: int) -> int:
        """Copy the newest ``min(count, size)`` readings into the *tail*
        of the destination arrays, oldest-first, and return how many
        were written.

        This is the one-ring window primitive — behind the fused
        pipeline channels' seeding and the rows a compiled query plan
        reads one at a time (rings that share a slab with too few others
        to be worth one index operation, see
        ``QueryEngine._execute_plan``): the ring's one or two live
        segments are sliced straight into the caller's right-aligned row
        storage, with no per-reading loop and no temporary
        concatenation.  The destinations must be at least
        ``min(count, size)`` long.
        """
        slab = self.slab
        size = slab.size
        n = count if count < size else size
        if n <= 0:
            return 0
        head = slab.head
        start = head - n  # negative: the window wraps (or ends at the end)
        ts, val = self._ts, self._val
        if start >= 0 or not head:
            end = head or None
            dst_ts[-n:] = ts[start:end]
            dst_val[-n:] = val[start:end]
        else:
            dst_ts[-n:-head] = ts[start:]
            dst_val[-n:-head] = val[start:]
            dst_ts[-head:] = ts[:head]
            dst_val[-head:] = val[:head]
        return n

    def _tail_view(self, count: int) -> CacheView:
        """Snapshot view over the newest ``min(count, size)`` readings."""
        slab = self.slab
        size = slab.size
        n = count if count < size else size
        if n <= 0:
            return CacheView.empty()
        head = slab.head
        start = head - n
        ts, val = self._ts, self._val
        if start >= 0 or not head:
            end = head or None
            return CacheView._snapshot_of(ts[start:end].copy(), val[start:end].copy())
        return CacheView._snapshot_of(
            np.concatenate((ts[start:], ts[:head])),
            np.concatenate((val[start:], val[:head])),
        )

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
        newest = self.slab.newest
        if newest is None:
            return CacheView.empty()
        if offset_ns < 0:
            raise QueryError(f"negative relative offset: {offset_ns}")
        if offset_ns == 0:
            return self._tail_view(1)
        if self.interval_ns > 0:
            return self._tail_view(int(offset_ns // self.interval_ns) + 1)
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
        out = []
        for ts, val in self._ordered_segments():
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
        slab = self.slab
        size = slab.size
        if not size:
            return []
        head = slab.head
        start = head - size
        ts, val = self._ts, self._val
        if start >= 0 or not head:
            end = head or None
            return [(ts[start:end], val[start:end])]
        return [(ts[start:], val[start:]), (ts[:head], val[:head])]

    def memory_bytes(self) -> int:
        """Size of this ring's slab row in bytes (what a host has
        allocated is :func:`slab_memory_bytes` of its caches)."""
        return self._ts.nbytes + self._val.nbytes


def default_cache(interval_ns: int, window_seconds: float = 180.0) -> SensorCache:
    """The cache DCDB configures by default: 180 s of history."""
    return SensorCache.for_duration(
        int(window_seconds * NS_PER_SEC), interval_ns
    )
