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
(int64 timestamps, float64 values): a :class:`CacheSlab`'s timestamp
vector and one row of its time-major values.  The ring's state — head,
size, newest timestamp, observed gap — is the slab's, shared by every
live row.  The invariant: **the group holds its history of timestamps
once**.
Storage follows the sampling group — sensors a host writes together (one
monitoring plugin, one operator pass, one first-arrival batch) share a
slab — so a pass lands as one column (a timestamp and one contiguous row
of values) and a compiled query plan reads those rings by basic slicing,
one or two slot spans (:meth:`CacheSlab.newest_spans`) for all of them.

The lock step is not the caches' alone: a :class:`LockStep` group —
its members, ``epoch``, fill, newest timestamp, the order guard and the
hand-over of members to a fresh group — is the base of a slab and of the
storage backend's blocks, each a :class:`Member` of it.  A change that
would break the lock step (a clear or a resize on a shared group; a
column some rows miss or are brought to twice) first moves the members
that fall out of step into a fresh group and bumps the ``epoch`` of the
one they left.  :func:`plan_columns` is that rule for a whole write, and
:func:`plan_write` / :func:`write_columns_at` are the one memoised
writer every host's write path goes through.  A write is a pass: a
sequence of readings all at one timestamp — a sampled group, an
operator's outputs, a drain's run of passes.  A stand-alone
``SensorCache(capacity)`` is a slab of one row, written as a pass of
one.

**Snapshot semantics.**  Views handed out by a :class:`SensorCache` are
*snapshots*: the (at most two) window slices are materialised into one
contiguous copy at view creation, so readings stored after the view is
taken — including stores that wrap around the ring and overwrite the
viewed slots — can never rewrite a view's contents mid-computation.
A :class:`CacheView` itself copies nothing: whoever builds one hands it
arrays it may keep.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

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


def first_and_length(seq) -> tuple:
    """Content key of a tuple of unhashable ``Sensor`` objects."""
    return id(seq[0]), len(seq)


def element_ids(seq) -> tuple:
    """Content key of a tuple of kept objects (a drain's topics tuples)."""
    return tuple(map(id, seq))


class PlanMemo:
    """Plans by the sequence they were made for: how every write plan and
    broker route run is found.

    *Identity first*: an entry holds its sequence, so its ``id`` names
    nothing else while kept.  A new object is looked up by content, the
    memo's ``key`` function (default ``tuple``: a tuple is its own key),
    and compared whole; a content hit adds no entry, and a key names the
    newest sequence put under it.  At most ``size`` plans, the oldest
    put forgotten first (a plan put again for one object keeps its
    place).  ``compiles`` and ``evictions`` are plain ints, read by
    collection-time gauges (:func:`register_memo_gauges`).
    """

    __slots__ = ("key", "size", "compiles", "evictions", "_plans", "_keyed")

    def __init__(self, key=tuple, size: int = PLAN_MEMO_SIZE) -> None:
        self.key, self.size = key, size
        self.compiles = self.evictions = 0
        self._plans: Dict[int, tuple] = {}  # id(seq) -> (seq, plan), oldest first
        self._keyed: Dict[object, tuple] = {}  # key(seq) -> the newest entry

    def __len__(self) -> int:
        return len(self._plans)

    def get(self, seq):
        """The plan kept for ``seq``, or ``None``."""
        entry = self._plans.get(id(seq))
        if entry is None:
            entry = self._keyed.get(self.key(seq))
            if entry is None or entry[0] != seq:
                return None
        return entry[1]

    def put(self, seq, plan):
        """Keep ``plan`` for ``seq`` and return it."""
        self.compiles += 1
        plans, keyed, key = self._plans, self._keyed, self.key
        if id(seq) not in plans and len(plans) >= self.size:
            oldest = plans.pop(next(iter(plans)))
            if keyed.get(key(oldest[0])) is oldest:
                del keyed[key(oldest[0])]
            self.evictions += 1
        plans[id(seq)] = keyed[key(seq)] = (seq, plan)
        return plan

    def clear(self) -> None:
        self._plans.clear()
        self._keyed.clear()


def register_memo_gauges(telemetry, memos: Dict[str, PlanMemo]) -> None:
    """``plan_memo_compiles{memo=}`` and ``plan_memo_evictions{memo=}``
    over a host's memos, by name: after warm-up a steady deployment
    compiles nothing, so a count that keeps moving is a recompile storm."""
    for name, memo in memos.items():
        for count in ("compiles", "evictions"):
            telemetry.gauge(
                f"plan_memo_{count}", fn=partial(getattr, memo, count), memo=name
            )


class LockStep:
    """``rows`` rows advancing in lock step, row -> :class:`Member` in
    ``bound``: the group under a :class:`CacheSlab` and a storage block.

    Every live row holds the same timestamps in the same positions, so a
    layout stores them once, and ``size`` and ``newest`` are plain ints
    here.  ``newest`` is the order guard (:meth:`stale`).  A member
    that leaves (moved out or dropped: :meth:`hand_over`) moves
    ``epoch``, which is how a reader that indexes the rows by number (a
    write plan, a ``QueryPlan``) learns it; the row left behind stays
    allocated and keeps being written with the column.  A layout
    supplies ``_append`` (one column) and ``_copy`` (a fresh group
    holding some members' readings and ``newest``).
    """

    __slots__ = ("rows", "bound", "epoch", "size", "newest")

    def __init__(self, rows: int, newest: Optional[int] = None) -> None:
        self.rows = rows
        self.bound: Dict[int, "Member"] = {}
        self.epoch = 0
        self.size = 0
        self.newest = newest  # a Python int: read without boxing

    def stale(self, timestamp: int) -> bool:
        """Whether a column at ``timestamp`` is older than the newest
        reading, and so refused (equal is in order)."""
        newest = self.newest
        return newest is not None and timestamp < newest

    def store_column(self, timestamp: int, values) -> bool:
        """Append one reading to every row: ``values`` in row order (or
        one for all), all at ``timestamp``; False for a stale column."""
        if self.stale(timestamp):
            self._refused()
            return False
        self._append(timestamp, values)
        self.newest = timestamp
        return True

    def _refused(self) -> None:
        """The layout's own count of a stale column."""

    def move(self, members, *layout) -> "LockStep":
        """Move live ``members`` together into a fresh group holding their
        readings (``layout`` goes to ``_copy``) and return it."""
        return self.hand_over(members, self._copy(members, *layout))

    def hand_over(self, members, group: Optional["LockStep"] = None):
        """Take ``members`` off their rows and bind them, in order, to
        ``group``'s (``None``: drop them); ``epoch`` moves."""
        for row, member in enumerate(members):
            del self.bound[member.row]
            if group is not None:
                member._bind(group, row)
        self.epoch += 1
        return group


class Member:
    """Row :attr:`row` of the :class:`LockStep` group :attr:`slab`."""

    __slots__ = ("slab", "row")

    def _bind(self, group: LockStep, row: int) -> None:
        self.slab = group
        self.row = row
        group.bound[row] = self

    def alone(self) -> LockStep:
        """This member's group, once it is alone on it: a change to one
        member moves it out of a group it shares first."""
        group = self.slab
        if len(group.bound) > 1:
            group = group.move([self])
        return group


class CacheSlab(LockStep):
    """``rows`` rings of one capacity in lock step: ``ts[capacity]``,
    time-major ``val[capacity, rows]``, the next write slot ``head`` and
    the observed :attr:`gap`.  A ring that leaves (resized, written
    alone, missed by a column) moves into a fresh slab."""

    __slots__ = ("ts", "val", "head", "gap")

    def __init__(self, rows: int, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"cache capacity must be positive: {capacity}")
        super().__init__(rows)
        self.ts = np.zeros(int(capacity), dtype=np.int64)
        self.val = np.zeros((int(capacity), rows), dtype=np.float64)
        self.head = 0  # index of the next write slot
        #: Smallest gap between two successive distinct timestamps, as
        #: measured by a host that cannot know the sensors' interval
        #: (the Collect Agent, on every write: ``_advance``;
        #: :data:`NO_GAP` until it has seen two).  It is an observation,
        #: not a contract: the Query Engine reads it to decide how many
        #: readings a time window can hold at most — the window itself
        #: stays a matter of timestamps (``interval_ns`` is the claim
        #: that turns it into a count).
        self.gap = NO_GAP

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
        return len(self.ts)

    def oldest(self) -> Optional[int]:
        """Timestamp of the oldest retained reading (``None`` when empty);
        every row holds it, the rows a ring left included."""
        if not self.size:
            return None
        return int(self.ts[self.head - self.size])

    def memory_bytes(self) -> int:
        """Resident size of both arrays in bytes."""
        return self.ts.nbytes + self.val.nbytes

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def _append(self, timestamp: int, values) -> None:
        head = self.head
        self.ts[head] = timestamp
        self.val[head] = values
        cap = len(self.ts)
        self.head = (head + 1) % cap
        if self.size < cap:
            self.size += 1

    def _refused(self) -> None:
        # One drop on every live ring, as one store per ring would count.
        for ring in self.bound.values():
            ring.stale_drops += 1

    def newest_spans(self, n: int) -> Tuple[Tuple[int, int], ...]:
        """Slot spans ``(start, stop)`` of the newest ``n`` readings
        (``1 <= n <= capacity``), oldest first: one, or two when they
        wrap the end of the ring — never more, so a window is copied by
        basic slicing, whatever its length."""
        head = self.head
        if n <= head:
            return ((head - n, head),)
        cap = len(self.ts)
        start = (head - n) % cap  # the window wraps the ring
        if not head:
            return ((start, cap),)
        return ((start, cap), (0, head))

    def copy_newest(
        self, n: int, rows, dst_ts: np.ndarray, dst_val: np.ndarray,
        dst_rows, lo: int,
    ) -> None:
        """Copy the newest ``n`` readings of ``rows`` (a slice or a 1-D
        index) into columns ``[lo, lo + n)`` of ``dst_rows`` of a
        topic-major value destination (a slab's: ``val.T``), and their
        timestamps once into slots ``[lo, lo + n)`` of the time vector
        ``dst_ts``, oldest first."""
        for a, b in self.newest_spans(n):
            hi = lo + b - a
            dst_ts[..., lo:hi] = self.ts[a:b]
            dst_val[dst_rows, lo:hi] = self.val[a:b, rows].T
            lo = hi

    def _copy(self, rings, capacity: Optional[int] = None) -> "CacheSlab":
        """A slab of ``capacity`` (default: this one's; <= 0 is refused)
        holding the newest readings of ``rings``, ring state and gap."""
        capacity = self.capacity if capacity is None else int(capacity)
        slab = CacheSlab(len(rings), capacity)
        keep = min(self.size, capacity)
        if keep:
            rows = np.array([ring.row for ring in rings], dtype=np.intp)
            self.copy_newest(keep, rows, slab.ts, slab.val.T, slice(None), 0)
        slab.head = keep % capacity
        slab.size = keep
        slab.newest = self.newest
        slab.gap = self.gap
        return slab

    def grow(self, capacity: int) -> None:
        """Re-allocate every row at a larger ``capacity`` in place,
        contents kept: the rings keep their slab and row and are rebound
        to the new arrays, so no plan that reads them goes stale."""
        keep = self.size
        ts = np.zeros(int(capacity), dtype=np.int64)
        val = np.zeros((int(capacity), self.rows), dtype=np.float64)
        if keep:
            everyone = slice(None)
            self.copy_newest(keep, everyone, ts, val.T, everyone, 0)
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
    """One column of a write plan: the group ``slab`` takes the readings
    at positions ``index`` of the written sequence, one per row in row
    order (``None``: the sequence *is* the group's rows, in order)."""

    slab: LockStep
    epoch: int            # the group's when planned: a member leaving moves it
    index: Optional[np.ndarray]


def first_arrivals(known, topics) -> List[str]:
    """The topics of a write that ``known`` holds no row for, in order:
    what is first heard together is written and read together."""
    return [topic for topic in dict.fromkeys(topics) if topic not in known]


def plan_columns(caches: Sequence[Member]) -> List[Column]:
    """How reading ``i`` — for ``caches[i]``, all at one timestamp — is
    written, as columns that keep every group in lock step.

    Per group, its live members are grouped by how many readings this
    write brings them (none, for a member it misses).  The largest group
    stays (the first of equals; the missed members count last); every
    other group moves together into a fresh one.  Each group then takes
    one column per reading it was brought — a member's ``k``-th reading
    in its group's ``k``-th column, so each sees its readings in the
    order a loop of one-reading writes would.  Run before anything is
    stored; the plan is valid for as long as no planned group's
    ``epoch`` moves.  The rule of every layout: ring slabs and the
    storage backend's blocks alike.
    """
    positions: Dict[Member, List[int]] = {}
    for i, cache in enumerate(caches):
        positions.setdefault(cache, []).append(i)
    by_slab: Dict[LockStep, Dict[int, List[Member]]] = {}
    for cache, where in positions.items():
        by_slab.setdefault(cache.slab, {}).setdefault(len(where), []).append(cache)
    homes = []
    for slab, groups in by_slab.items():
        missed = [r for r in slab.bound.values() if r not in positions]
        if missed:
            groups.setdefault(0, []).extend(missed)
        stay = max(groups, key=lambda count: len(groups[count]))
        for count, rings in groups.items():
            if count:
                homes.append((rings, count))
            if count != stay:
                slab.move(rings)
    columns = []
    n = len(caches)
    for rings, count in homes:
        slab = rings[0].slab
        rows = slab.rows
        for k in range(count):
            index = [positions[rings[0]][k]] * rows  # rows no ring is on
            for ring in rings:
                index[ring.row] = positions[ring][k]
            identity = rows == n and index == list(range(n))
            columns.append(Column(
                slab, slab.epoch,
                None if identity else np.array(index, dtype=np.intp),
            ))
    return columns


class WritePlan(NamedTuple):
    """How a host writes one sequence: its columns, and the topics it
    hands on — the agent's to storage, a Pusher's published ones (at
    ``published`` positions; ``None``: all) to the broker."""

    topics: Tuple[str, ...]
    columns: List[Column]
    published: Optional[np.ndarray] = None


def plan_write(memo: PlanMemo, compile, seq: tuple):
    """The plan ``memo`` finds for ``seq`` (:class:`PlanMemo`) while no
    planned group's ``epoch`` moved, else ``compile(seq)``, the host's
    (rows opened for what ``seq`` brings first, then ``columns``), kept.
    """
    plan = memo.get(seq)
    if plan is not None:
        for col in plan.columns:  # (a loop: no generator to build on every write)
            if col.slab.epoch != col.epoch:
                break
        else:
            return plan
    return memo.put(seq, compile(seq))


def write_columns_at(columns, ts: int, values: np.ndarray, advance=None) -> int:
    """Store ``values`` (float64, in sequence order), all at ``ts``, by a
    plan's ``columns``, each seen first by ``advance(group, ts)`` when
    given; returns the readings refused as stale."""
    refused = 0
    for col in columns:
        group = col.slab
        if advance is not None:
            advance(group, ts)
        if not group.store_column(
            ts, values if col.index is None else values[col.index]
        ):
            refused += len(group.bound)
    return refused


class CacheView:
    """A window over one sensor's readings: one (timestamps, values)
    pair, oldest first.  Iteration yields :class:`SensorReading` tuples.

    The view holds the arrays it is given, uncopied.  Every view a
    :class:`SensorCache` or the Query Engine hands out is built over a
    private copy, so stores after the view is taken — ring wrap-around,
    a storage flush or expiry — can never rewrite its contents.
    """

    __slots__ = ("_ts", "_val")

    def __init__(self, ts: np.ndarray, val: np.ndarray):
        self._ts = ts
        self._val = val

    def __len__(self) -> int:
        return len(self._ts)

    def __bool__(self) -> bool:
        return len(self._ts) > 0

    def __iter__(self) -> Iterator[SensorReading]:
        return iter(self.readings())

    def readings(self) -> "list[SensorReading]":
        """All readings oldest-first as a list.

        Converts both columns with a single ``tolist()`` each — per-slot
        ``int(ts[i])``/``float(val[i])`` indexing boxes one NumPy scalar
        per element and dominates iteration-heavy plugin loops.
        """
        ts = self._ts.tolist()
        val = self._val.tolist()
        return [SensorReading(t, v) for t, v in zip(ts, val)]

    def timestamps(self) -> np.ndarray:
        """All timestamps oldest-first."""
        return self._ts

    def values(self) -> np.ndarray:
        """All values oldest-first."""
        return self._val

    def first(self) -> SensorReading:
        """Oldest reading in the view."""
        if not self:
            raise QueryError("empty cache view")
        return SensorReading(int(self._ts[0]), float(self._val[0]))

    def last(self) -> SensorReading:
        """Newest reading in the view."""
        if not self:
            raise QueryError("empty cache view")
        return SensorReading(int(self._ts[-1]), float(self._val[-1]))

    @staticmethod
    def empty() -> "CacheView":
        """A view over no readings."""
        return CacheView(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        )


class SensorCache(Member):
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

    __slots__ = ("_ts", "_val", "interval_ns", "stale_drops")

    def __init__(self, capacity: int, interval_ns: int = 0):
        self._init_on(CacheSlab(1, capacity), 0, interval_ns)

    def _bind(self, slab: CacheSlab, row: int) -> None:
        super()._bind(slab, row)
        self._ts = slab.ts  # the group's one vector, for the readers
        self._val = slab.val[:, row]  # the row's values: a strided view

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

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def clear(self) -> None:
        """Drop all readings."""
        slab = self.alone()
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

        What a fused pipeline channel is seeded from
        (``FusedChannel.seed``): the ring's one or two live segments are
        sliced straight into the caller's right-aligned row storage,
        with no per-reading loop and no temporary concatenation.  (A
        compiled query plan reads its rings a slab at a time:
        :meth:`CacheSlab.copy_newest`.)  The destinations must be at least
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
            return CacheView(ts[start:end].copy(), val[start:end].copy())
        return CacheView(
            np.concatenate((ts[start:], ts[:head])),
            np.concatenate((val[start:], val[:head])),
        )

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
        for ts, val in self._ordered_slices():
            lo = int(np.searchsorted(ts, start_ts, side="left"))
            hi = int(np.searchsorted(ts, end_ts, side="right"))
            if lo < hi:
                out.append((ts[lo:hi], val[lo:hi]))
        if not out:
            return CacheView.empty()
        if len(out) == 1:
            ts, val = out[0]
            return CacheView(ts.copy(), val.copy())
        return CacheView(
            np.concatenate([ts for ts, _ in out]),
            np.concatenate([val for _, val in out]),
        )

    def _ordered_slices(self):
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
        """Size of this ring's value row in bytes (what a host has
        allocated is :func:`slab_memory_bytes` of its caches)."""
        return self._val.nbytes


def default_cache(interval_ns: int, window_seconds: float = 180.0) -> SensorCache:
    """The cache DCDB configures by default: 180 s of history."""
    return SensorCache.for_duration(
        int(window_seconds * NS_PER_SEC), interval_ns
    )
