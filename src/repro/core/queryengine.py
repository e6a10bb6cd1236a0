"""The Query Engine (Section V-B).

The Query Engine is the single component through which operator plugins
obtain sensor data, isolating them from *where* they are instantiated:
the same plugin code runs in a Pusher (local caches only) or a Collect
Agent (caches plus Storage Backend fallback).

Queries come in two modes matching the paper:

- :meth:`query_relative` — a nanosecond offset against each sensor's
  most recent reading; served from the cache in O(1) via index
  arithmetic on the ring buffer.
- :meth:`query_absolute` — absolute timestamp bounds; served via binary
  search in O(log N), falling back to the storage backend when the
  requested range extends past the cache's retention.

Both return :class:`~repro.dcdb.cache.CacheView` objects, so operators
receive zero-copy array windows regardless of the data's origin.

Operators ask for all their units' windows at once
(:meth:`query_relative_batch`), through a compiled :class:`QueryPlan`
in which every topic the host has a cache for is bound to its ring —
on a Pusher, where the sampling interval is known, and on a Collect
Agent, where only the observed arrival gap is.  The scalar
:meth:`query_relative` is the reference: row ``i`` of a batch is what it
returns for ``topics[i]`` at that instant, bit for bit.
"""

from __future__ import annotations

import time
from operator import attrgetter
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import ConfigError, QueryError, TopicError
from repro.dcdb.cache import CacheSlab, CacheView, SensorCache
from repro.dcdb.virtual import VirtualSensor, VirtualSensorRegistry
from repro.core.navigator import SensorNavigator
from repro.sanitizer import hooks
from repro.telemetry import MetricRegistry

#: Host callback returning the cache for a topic (or None).
CacheLookup = Callable[[str], Optional[SensorCache]]

#: Row kinds of a compiled plan (see :class:`QueryPlan`).
_ROW_CACHE = 0    # a cache the host holds: its ring, read directly
_ROW_SCALAR = 1   # another data source (virtual, storage): scalar query
_ROW_MISS = 2     # unresolvable at compile time: always empty

#: Most readings a time-window row gathers on speculation.  The observed
#: gap only ever shrinks, so one glitch — two readings 1 ns apart — would
#: otherwise size every later pass's matrix by ``window // 1``.  A row
#: that really holds more than this inside its window fails the check
#: and is re-read alone, at its exact length.
_MAX_SPECULATIVE_READ = 4096

#: ``QueryPlan.reach`` of a row whose window is a reading count: further
#: back than any timestamp, so the time cut keeps all it gathered.
_ANY_AGE = 1 << 62

#: Fewest ring rows of one slab and one count worth a slab gather; a
#: smaller group is read ring by ring with ``SensorCache.tail_into``.
#: The gather pays a fixed handful of array operations, the loop ~2 us a
#: row.  One ``_execute_plan`` over N hinted rings of one slab, count 11
#: (us, best of 7 x 3000 on the 2-core sandbox; loop / gather):
#:     1 row     5.6 /  13.2        16 rows    35.0 /  19.0
#:     4 rows   11.1 /  14.3        64 rows   120.4 /  30.4
#:     6 rows   14.9 /  14.9      1024 rows  1852   / 262
#:     8 rows   19.3 /  15.5
#: A tie at 6, so the first size that is ahead by more than the noise.
_SLAB_GATHER_MIN_ROWS = 8

_gap_of = attrgetter("gap_ns")
_head_of = attrgetter("_head")
_size_of = attrgetter("_size")


class BatchWindow:
    """Result of one batched relative query: U topics x W window slots.

    Rows are **right-aligned**: the newest reading of topic ``i`` sits in
    column ``W - 1`` and its ``counts[i]`` valid readings occupy the
    columns ``[W - counts[i], W)``.  Invalid slots hold NaN values and
    zero timestamps.  The arrays are freshly allocated per query, so a
    window is a snapshot in the same sense a :class:`CacheView` is.

    A row with ``counts[i] == 0`` means
    :meth:`QueryEngine.query_relative` would have raised
    :class:`QueryError` for that topic at the same instant.

    Consumers treat the arrays as **read-only**: a fused pipeline stage
    is served live channel matrices, not copies (the runtime sanitizer
    fingerprints every row, rule R007).
    """

    __slots__ = ("topics", "values", "timestamps", "counts", "width")

    def __init__(
        self,
        topics: Sequence[str],
        values: np.ndarray,
        timestamps: np.ndarray,
        counts: np.ndarray,
    ) -> None:
        self.topics = tuple(topics)
        self.values = values
        self.timestamps = timestamps
        self.counts = counts
        self.width = int(values.shape[1])

    def __len__(self) -> int:
        return len(self.topics)

    @property
    def mask(self) -> np.ndarray:
        """Boolean validity mask, True where a slot holds a reading."""
        return np.arange(self.width) >= (self.width - self.counts[:, None])

    def uniform_count(self) -> int:
        """The reading count every row shares, or 0 when rows differ,
        any is empty or there are none — the precondition for reducing
        ``values[:, width - n:]`` along axis 1 in one go."""
        counts = self.counts
        if not len(counts):
            return 0
        n = int(counts[0])
        return n if n and (counts == n).all() else 0

    def row_values(self, i: int) -> np.ndarray:
        """The valid value segment of row ``i``, oldest-first (a view)."""
        return self.values[i, self.width - int(self.counts[i]):]

    def row_timestamps(self, i: int) -> np.ndarray:
        """The valid timestamp segment of row ``i``, oldest-first."""
        return self.timestamps[i, self.width - int(self.counts[i]):]

    def rows(self, indices: Sequence[int]) -> List[tuple]:
        """``(topic, timestamps, values)`` of each row in ``indices``,
        valid segments only — what one unit's computation is handed."""
        out = []
        for i in indices:
            lo = self.width - int(self.counts[i])
            out.append((self.topics[i], self.timestamps[i, lo:], self.values[i, lo:]))
        return out

    def last_values(self) -> np.ndarray:
        """Newest value per row (NaN where a row is empty)."""
        return self.values[:, -1]

    def newest_timestamps(self) -> np.ndarray:
        """Newest timestamp per row (0 where a row is empty)."""
        return self.timestamps[:, -1]


def report_views(san, window: BatchWindow) -> None:
    """Hand every gathered row to the sanitizer as the view a relative
    query of its topic would have returned (zero-copy over the window,
    so a kernel writing into its window breaks the fingerprint)."""
    for i, topic in enumerate(window.topics):
        if window.counts[i]:
            san.on_query_view(
                topic,
                CacheView([(window.row_timestamps(i), window.row_values(i))]),
            )


def _longest(rows) -> int:
    """Length of the longest ``(timestamps, values)`` row (``None`` = 0)."""
    return max((len(row[0]) for row in rows if row), default=0)


class SlabGroup(NamedTuple):
    """Ring rows of a plan that one index operation gathers: rings of
    one :class:`CacheSlab` read at one ``count`` (0: a time window, read
    at the pass's ``k``)."""

    slab: CacheSlab
    epoch: int            # the slab's when grouped: it moves when a ring leaves
    count: int
    index: np.ndarray     # rows of the plan ...
    rows: np.ndarray      # ... and, as a column, the slab rows they read
    caches: Tuple[SensorCache, ...]


def _gather_slab(
    group: SlabGroup, k: int,
    timestamps: np.ndarray, values: np.ndarray, counts: np.ndarray,
) -> List[int]:
    """Copy the newest readings of every ring of ``group`` into their
    right-aligned rows of the result matrices — what ``tail_into`` does
    for one ring — and return the plan rows whose ring is empty.

    Heads and sizes are read from the rings themselves (one truth, no
    second copy of a head); the slot of reading ``j`` of a row, oldest
    first, is ``(head - c + j) mod cap``.
    """
    slab, _, count, index, rows, caches = group
    n = len(caches)
    cap = slab.ts.shape[1]
    c = count or min(k, cap)  # a ring holds no more than cap readings
    heads = np.fromiter(map(_head_of, caches), np.intp, n)
    held = np.minimum(np.fromiter(map(_size_of, caches), np.intp, n), c)
    cols = (heads[:, None] + np.arange(cap - c, cap)) % cap
    ts = slab.ts[rows, cols]
    val = slab.val[rows, cols]
    empty: List[int] = []
    if held.min() < c:
        unwritten = np.arange(c) < (c - held)[:, None]
        ts[unwritten] = 0
        val[unwritten] = np.nan
        empty = index[held == 0].tolist()
    lo = timestamps.shape[1] - c
    timestamps[index, lo:] = ts
    values[index, lo:] = val
    counts[index] = held
    return empty


def _cut_to_windows(
    timestamps: np.ndarray, values: np.ndarray, counts: np.ndarray,
    reach: np.ndarray,
) -> np.ndarray:
    """Cut right-aligned gathered rows to ``[newest - reach, newest]``.

    One comparison of the timestamp matrix against its last column, for
    every row at once; slots that fall out of their window go back to
    NaN / 0 in place and the surviving counts are returned.  The bound
    is inclusive, like ``view_absolute``'s.
    """
    width = timestamps.shape[1]
    keep = timestamps >= (timestamps[:, -1] - reach)[:, None]
    keep &= np.arange(width) >= (width - counts)[:, None]  # the filled slots
    drop = ~keep
    timestamps[drop] = 0
    values[drop] = np.nan
    return keep.sum(axis=1)


class QueryPlan:
    """A compiled batched query: topic -> data-source bindings.

    Built once per operator (at ``init_units``/tree-change time) and
    reused every tick until the sensor-space generation moves on.  A
    plan removes *all* per-tick name resolution: a row whose topic the
    host caches holds a direct reference to that ring, so executing a
    plan performs zero dict lookups and zero re-parsing.

    Rows come in three kinds, by **data source**:

    - *cache* (ring-bound): any topic the host has a cache for.  The
      tick path copies the ring's tail straight into the result matrix:
      rings that share a slab and a count, as one :class:`SlabGroup`
      with one index operation (``_gather_slab``); rings with fewer
      than ``_SLAB_GATHER_MIN_ROWS`` such neighbours, one at a time with
      :meth:`SensorCache.tail_into`.  How long that tail is depends on
      which of two window definitions the cache carries:

      - a **count** — ``window // interval + 1`` readings, the paper's
        O(1) relative arithmetic — when the cache has an interval hint
        (every Pusher cache) or the window is 0 (the latest reading);
        fixed at compile time, stored as the row's ``count``;
      - **timestamps** — everything within ``window`` of the newest
        reading — when it has none (every Collect Agent cache; the row's
        ``count`` is 0).  The host's observed arrival gap bounds how
        many readings that can be, ``window // gap + 2``, read when the
        plan *runs* so a faster cadence or a ``resize`` needs no
        recompile; the gathered rows are then cut to their windows in
        one vectorised step and every one of them is verified.

    - *scalar*: virtual sensors and topics only a storage backend can
      serve; executed through the scalar query path (correct, not fast).
    - *miss*: topics with neither cache nor storage when the plan was
      compiled; always empty.

    Scalar rows of a storage-only topic and miss rows are *unbound*:
    the host may yet get a cache for them, and a declared topic's cache
    appearing moves no generation (it is in the tree before its first
    store), so :meth:`QueryEngine.plan_for` looks for one on every pass
    and recompiles once when it is there.
    """

    __slots__ = (
        "topics", "window_ns", "width", "rows", "generation",
        "cache_rows", "scalar_rows", "miss_rows", "unbound",
        "timed", "timed_caches", "reach", "slab_groups", "ring_rows",
    )

    def __init__(
        self,
        topics: Tuple[str, ...],
        window_ns: int,
        width: int,
        rows: List[tuple],
        generation: int,
        unbound: List[int],
    ) -> None:
        self.topics = topics
        self.window_ns = window_ns
        self.width = width
        self.rows = rows
        self.generation = generation
        #: Rows no cache is bound to although the host may yet have one.
        self.unbound = unbound
        # Pre-split by kind so execution loops touch only the rows they
        # serve (the cache loop is the per-tick hot path and must not
        # branch over scalar/miss rows at 1000s of units).
        self.cache_rows: List[tuple] = []
        self.scalar_rows: List[tuple] = []
        self.miss_rows: List[int] = []
        timed: List[int] = []
        for i, (kind, payload, count) in enumerate(rows):
            if kind == _ROW_CACHE:
                self.cache_rows.append((i, payload, count))
                if not count:
                    timed.append(i)
            elif kind == _ROW_SCALAR:
                self.scalar_rows.append((i, payload))
            else:
                self.miss_rows.append(i)
        #: The time-window rows: their indices, their caches (whose
        #: ``gap_ns`` sizes the gather) and, per row of the plan, how
        #: far back from its newest reading the window reaches.
        self.timed = np.array(timed, dtype=np.intp)
        self.timed_caches = tuple(rows[i][1] for i in timed)
        self.reach = np.full(len(rows), _ANY_AGE, dtype=np.int64)
        self.reach[self.timed] = window_ns
        self.group_rings()

    def group_rings(self) -> None:
        """Split :attr:`cache_rows` by how a pass gathers them: into
        :attr:`slab_groups`, and :attr:`ring_rows` for the rest.  Run
        again when a grouped slab's epoch has moved — the ring that left
        it is then found on its new slab."""
        by_slab: Dict[tuple, List[tuple]] = {}
        for entry in self.cache_rows:
            _, cache, count = entry
            by_slab.setdefault((cache.slab, count), []).append(entry)
        self.slab_groups: List[SlabGroup] = []
        self.ring_rows: List[tuple] = []
        for (slab, count), entries in by_slab.items():
            if len(entries) < _SLAB_GATHER_MIN_ROWS:
                self.ring_rows += entries
                continue
            caches = tuple(cache for _, cache, _ in entries)
            rows = [cache.row for cache in caches]
            self.slab_groups.append(SlabGroup(
                slab, slab.epoch, count,
                np.array([i for i, _, _ in entries], dtype=np.intp),
                np.array(rows, dtype=np.intp)[:, None],
                caches,
            ))

    @property
    def n_cache_rows(self) -> int:
        """Ring-bound rows, of both window definitions (what
        ``qe_plan_rows{kind="ring"}`` sums)."""
        return len(self.cache_rows)


class QueryEngine:
    """Cache-first sensor data access for operator plugins.

    One engine exists per hosting component (Pusher or Collect Agent) —
    the "singleton" of the paper is per-process; here it is per-host so
    multiple simulated hosts coexist in one interpreter.

    Args:
        host: any object exposing ``cache_for(topic)``, ``storage``
            (may be ``None``) and ``sensor_topics()`` — both DCDB host
            classes qualify.
        navigator: optional pre-built navigator; by default one is
            constructed from the host's current sensor space.  Either
            way the engine keeps its one tree for life and grows it in
            place (:meth:`refresh_navigator`, :meth:`declare_topics`).
    """

    def __init__(self, host, navigator: Optional[SensorNavigator] = None) -> None:
        self._host = host
        self._navigator = navigator or SensorNavigator.from_topics(
            host.sensor_topics()
        )
        # Shares the host's metric registry when it has one (Pusher /
        # Collect Agent); standalone engines get a private registry so
        # instrumentation is unconditional.
        host_registry = getattr(host, "telemetry", None)
        self.telemetry: MetricRegistry = (
            host_registry if host_registry is not None else MetricRegistry()
        )
        self._m_hits = self.telemetry.counter("qe_cache_hits_total")
        self._m_fallbacks = self.telemetry.counter("qe_storage_fallbacks_total")
        self._m_misses = self.telemetry.counter("qe_misses_total")
        self._m_latency_rel = self.telemetry.histogram(
            "qe_query_latency_ns", mode="relative"
        )
        self._m_latency_abs = self.telemetry.histogram(
            "qe_query_latency_ns", mode="absolute"
        )
        self._m_latency_batch = self.telemetry.histogram(
            "qe_query_latency_ns", mode="batch"
        )
        self._m_plan_compiles = self.telemetry.counter("qe_plan_compiles_total")
        self._m_plan_hits = self.telemetry.counter("qe_plan_hits_total")
        self._m_plan_invalidations = self.telemetry.counter(
            "qe_plan_invalidations_total"
        )
        self._m_violations = self.telemetry.counter("qe_hint_violations_total")
        self._plans: Dict[object, QueryPlan] = {}
        # Which gather path the cached plans' rows are on, evaluated by
        # the /metrics scraper (nothing on the hot path).
        for kind, attr in (
            ("ring", "cache_rows"), ("scalar", "scalar_rows"), ("miss", "miss_rows")
        ):
            self.telemetry.gauge(
                "qe_plan_rows",
                fn=lambda a=attr: sum(
                    len(getattr(plan, a)) for plan in list(self._plans.values())
                ),
                kind=kind,
            )
        self.telemetry.gauge(
            "qe_plan_slab_rows",
            fn=lambda: sum(
                len(group.caches)
                for plan in list(self._plans.values())
                for group in plan.slab_groups
            ),
        )
        self.virtual = VirtualSensorRegistry()
        self._virtual_in_flight: set = set()

    # ------------------------------------------------------------------
    # Telemetry-backed counters (kept as attributes for compatibility)
    # ------------------------------------------------------------------

    @property
    def cache_hits(self) -> int:
        """Queries answered from a sensor cache."""
        return self._m_hits.value

    @property
    def storage_fallbacks(self) -> int:
        """Queries answered from the storage backend."""
        return self._m_fallbacks.value

    @property
    def misses(self) -> int:
        """Queries no data source could answer."""
        return self._m_misses.value

    # ------------------------------------------------------------------
    # Sensor space
    # ------------------------------------------------------------------

    @property
    def navigator(self) -> SensorNavigator:
        """The Sensor Navigator over the host's sensor space."""
        return self._navigator

    def refresh_navigator(self) -> None:
        """Add to the sensor tree what the host has gained since.

        Needed when new sensors appear after engine construction — e.g.
        upstream pipeline stages, or remote Pushers, starting to publish.
        A pull: the hosts never write the tree, it is brought up to date
        where something is about to be resolved against it.
        """
        self.declare_topics(self._host.sensor_topics())

    def declare_topics(self, topics) -> None:
        """Add topics to the sensor tree, ahead of their first reading
        if need be — the one way a topic enters a live tree:
        ``add_sensor`` on it, once per topic it does not hold.

        Pipeline stages resolve their units against the sensor tree at
        load time, before any upstream pass has lazily created the
        operator-output caches (and, on a Collect Agent, before any
        Pusher has published).  Declaring what is about to exist makes a
        downstream ``<bottomup>`` input expression match immediately, so
        whole pipelines load cold in one deployment build.

        Topics the tree refuses (the name is already a component) are
        reported in one :class:`TopicError` after the rest are in, and
        nothing of them is kept.
        """
        tree = self._navigator.tree
        refused = []
        for topic in topics:
            try:
                if not tree.has_sensor(topic):
                    tree.add_sensor(topic)
            except TopicError as exc:
                refused.append(str(exc))
        if refused:
            raise TopicError("; ".join(refused))

    def topics(self) -> List[str]:
        """All topics currently queryable on this host (incl. virtual)."""
        return sorted(set(self._host.sensor_topics()) | set(self.virtual.topics()))

    # ------------------------------------------------------------------
    # Virtual sensors
    # ------------------------------------------------------------------

    def define_virtual(
        self, topic: str, expression: str, interval_ns: int
    ) -> VirtualSensor:
        """Register a query-time-evaluated virtual sensor.

        Virtual sensors may reference other virtual sensors; cycles are
        rejected at evaluation time.
        """
        return self.virtual.define(topic, expression, interval_ns)

    def _fetch_for_virtual(self, topic: str, start: int, end: int):
        view = self.query_absolute(topic, start, end)
        return view.timestamps(), view.values()

    def _eval_virtual(
        self, sensor: VirtualSensor, start_ts: int, end_ts: int
    ) -> CacheView:
        if sensor.topic in self._virtual_in_flight:
            raise ConfigError(
                f"virtual sensor cycle through {sensor.topic}"
            )
        self._virtual_in_flight.add(sensor.topic)
        try:
            ts, values = sensor.evaluate(
                self._fetch_for_virtual, start_ts, end_ts
            )
        finally:
            self._virtual_in_flight.discard(sensor.topic)
        return CacheView([(ts, values)])

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def latest(self, topic: str) -> CacheView:
        """The most recent reading of ``topic``."""
        return self.query_relative(topic, 0)

    def query_relative(self, topic: str, offset_ns: int) -> CacheView:
        """Readings within ``offset_ns`` of the newest reading (O(1)).

        A zero offset returns only the most recent value, matching the
        query-interval-0 configuration of the Fig 5 study.
        """
        t0 = time.perf_counter_ns()
        try:
            view = self._query_relative(topic, offset_ns)
            san = hooks.CURRENT
            if san is not None:
                san.on_query_view(topic, view)
            return view
        finally:
            self._m_latency_rel.observe(time.perf_counter_ns() - t0)

    def _query_relative(self, topic: str, offset_ns: int) -> CacheView:
        virtual = self.virtual.get(topic)
        if virtual is not None:
            # Anchor at the newest reading among the expression's inputs.
            newest = max(
                self.query_relative(t, 0).last().timestamp
                for t in virtual.inputs
            )
            return self._eval_virtual(virtual, newest - offset_ns, newest)
        cache = self._host.cache_for(topic)
        if cache is not None and len(cache):
            self._m_hits.inc()
            return cache.view_relative(offset_ns)
        storage = self._host.storage
        if storage is not None:
            newest = storage.latest(topic)
            if newest is not None:
                self._m_fallbacks.inc()
                ts, val = storage.query(
                    topic, newest.timestamp - offset_ns, newest.timestamp
                )
                return CacheView([(ts, val)])
        self._m_misses.inc()
        raise QueryError(f"no data available for sensor {topic}")

    def query_absolute(self, topic: str, start_ts: int, end_ts: int) -> CacheView:
        """Readings with timestamps in ``[start_ts, end_ts]`` (O(log N)).

        Served from the cache when it covers the full range; otherwise
        from the storage backend (Collect Agents), otherwise whatever
        partial window the cache holds (Pushers, which have no backend).
        """
        t0 = time.perf_counter_ns()
        try:
            view = self._query_absolute(topic, start_ts, end_ts)
            san = hooks.CURRENT
            if san is not None:
                san.on_query_view(topic, view)
            return view
        finally:
            self._m_latency_abs.observe(time.perf_counter_ns() - t0)

    def _query_absolute(self, topic: str, start_ts: int, end_ts: int) -> CacheView:
        if start_ts > end_ts:
            raise QueryError(f"inverted range: {start_ts} > {end_ts}")
        virtual = self.virtual.get(topic)
        if virtual is not None:
            return self._eval_virtual(virtual, start_ts, end_ts)
        cache = self._host.cache_for(topic)
        if cache is not None and len(cache):
            oldest = cache.oldest()
            if oldest is not None and oldest.timestamp <= start_ts:
                self._m_hits.inc()
                return cache.view_absolute(start_ts, end_ts)
        storage = self._host.storage
        if storage is not None and topic in storage:
            self._m_fallbacks.inc()
            ts, val = storage.query(topic, start_ts, end_ts)
            return CacheView([(ts, val)])
        if cache is not None and len(cache):
            # Pusher with a partially covering cache: return what exists.
            self._m_hits.inc()
            return cache.view_absolute(start_ts, end_ts)
        self._m_misses.inc()
        raise QueryError(f"no data available for sensor {topic}")

    def query_many_relative(
        self, topics: List[str], offset_ns: int
    ) -> List[CacheView]:
        """Relative-mode query over several sensors at once."""
        return [self.query_relative(t, offset_ns) for t in topics]

    def query_many_absolute(
        self, topics: List[str], start_ts: int, end_ts: int
    ) -> List[CacheView]:
        """Absolute-mode query over several sensors at once."""
        return [self.query_absolute(t, start_ts, end_ts) for t in topics]

    # ------------------------------------------------------------------
    # Batched queries (compiled plans)
    # ------------------------------------------------------------------

    def compile_plan(
        self, topics: Sequence[str], window_ns: int
    ) -> QueryPlan:
        """Resolve ``topics`` into a :class:`QueryPlan` for ``window_ns``.

        Resolution order mirrors the scalar path exactly: virtual sensor,
        then local cache, then storage backend.  Every cache becomes a
        direct ring binding, its window a reading count where the cache
        has an interval hint and a time span where it has none; what is
        not a cache degrades to a scalar row, so batch results stay
        byte-identical to U scalar queries issued at the same instant.
        """
        if window_ns < 0:
            raise QueryError(f"negative relative offset: {window_ns}")
        gen = self._navigator.generation
        rows: List[tuple] = []
        unbound: List[int] = []
        width = 1
        has_storage = self._host.storage is not None
        for topic in topics:
            if self.virtual.get(topic) is not None:
                rows.append((_ROW_SCALAR, topic, 0))
                continue
            cache = self._host.cache_for(topic)
            if cache is None:
                unbound.append(len(rows))
                kind = _ROW_SCALAR if has_storage else _ROW_MISS
                rows.append((kind, topic, 0))
                continue
            if not window_ns:
                count = 1  # the latest reading, whatever the cadence
            elif cache.interval_ns > 0:
                count = min(int(window_ns // cache.interval_ns + 1), cache.capacity)
            else:
                count = 0  # no hint: a time window, sized when the plan runs
            rows.append((_ROW_CACHE, cache, count))
            width = max(width, count)
        self._m_plan_compiles.inc()
        return QueryPlan(tuple(topics), int(window_ns), width, rows, gen, unbound)

    def plan_for(
        self, key: object, topics: Sequence[str], window_ns: int
    ) -> QueryPlan:
        """Cached :meth:`compile_plan`, invalidated by sensor-space moves.

        A cached plan is reused only while the navigator generation, the
        topic tuple and the window all match and none of its unbound
        rows has gained a cache; anything else recompiles in place and
        counts as an invalidation.
        """
        topics = tuple(topics)
        plan = self._plans.get(key)
        if plan is not None:
            if (
                plan.generation == self._navigator.generation
                and plan.window_ns == window_ns
                and plan.topics == topics
                and not (plan.unbound and self._unbound_healed(plan))
            ):
                self._m_plan_hits.inc()
                return plan
            self._m_plan_invalidations.inc()
        plan = self.compile_plan(topics, window_ns)
        self._plans[key] = plan
        return plan

    def _unbound_healed(self, plan: QueryPlan) -> bool:
        """Whether the host now caches a topic ``plan`` bound to none:
        one ``cache_for`` per unbound row, nothing for a fully bound
        plan."""
        cache_for = self._host.cache_for
        return any(
            cache_for(plan.topics[i]) is not None for i in plan.unbound
        )

    def query_relative_batch(
        self,
        topics: Sequence[str],
        window_ns: int,
        key: object = None,
    ) -> BatchWindow:
        """Batched :meth:`query_relative` over ``topics`` (the hot path).

        Returns a :class:`BatchWindow` whose row ``i`` holds exactly the
        readings ``query_relative(topics[i], window_ns)`` would return;
        topics the scalar path would raise :class:`QueryError` for come
        back as empty rows (``counts[i] == 0``) instead.

        ``key`` names the plan-cache slot (operators pass a stable
        per-operator key); without one the slot is derived from the query
        itself.
        """
        t0 = time.perf_counter_ns()
        try:
            if key is None:
                key = ("auto", tuple(topics), int(window_ns))
            window = self._execute_plan(self.plan_for(key, topics, window_ns))
            san = hooks.CURRENT
            if san is not None:
                report_views(san, window)
            return window
        finally:
            self._m_latency_batch.observe(time.perf_counter_ns() - t0)

    def _read_row(self, topic: str, window_ns: int) -> Optional[tuple]:
        """One row through the scalar path: ``(timestamps, values)``, or
        ``None`` where :meth:`query_relative` raises."""
        try:
            view = self._query_relative(topic, window_ns)
        except QueryError:
            return None
        return view.timestamps(), view.values()

    def _execute_plan(self, plan: QueryPlan) -> BatchWindow:
        """Run a compiled plan: zero lookups on the ring-bound rows."""
        window_ns = plan.window_ns
        # Rows of another data source first — their exact length can
        # exceed the planned width (storage is not capacity-bounded).
        exact: Dict[int, Optional[tuple]] = {
            i: self._read_row(topic, window_ns) for i, topic in plan.scalar_rows
        }
        width = max(plan.width, _longest(exact.values()))
        k = 0
        if plan.timed_caches:
            # At most window // gap + 1 readings one gap or more apart
            # fit a window; one more shows where it ends.  The smallest
            # gap of the plan serves all its rows: gathering more than a
            # row needs is never wrong, the cut below drops the excess.
            gap = min(map(_gap_of, plan.timed_caches))
            k = min(window_ns // gap + 2, _MAX_SPECULATIVE_READ)
            width = max(width, k)
        if plan.miss_rows:
            self._m_misses.inc(len(plan.miss_rows))
        u = len(plan.rows)
        values = np.full((u, width), np.nan, dtype=np.float64)
        timestamps = np.zeros((u, width), dtype=np.int64)
        counts = np.zeros(u, dtype=np.int64)
        reread: List[int] = []
        if any(g.slab.epoch != g.epoch for g in plan.slab_groups):
            plan.group_rings()
        for group in plan.slab_groups:
            reread += _gather_slab(group, k, timestamps, values, counts)
        for i, cache, count in plan.ring_rows:
            # Direct ring read: the cache writes its tail slices into
            # the result row without intermediate view objects.
            n = cache.tail_into(timestamps[i], values[i], count or k)
            if n:
                counts[i] = n
            else:
                reread.append(i)  # emptied since compile time
        if k:
            counts = _cut_to_windows(timestamps, values, counts, plan.reach)
            # Checked on every pass, on data the pass already holds: a
            # time row is exact iff its oldest gathered reading fell
            # outside the window (it was cut: fewer than k are left) or
            # the ring holds nothing older.
            timed = plan.timed
            violations = [
                i for i in timed[counts[timed] == k].tolist()
                if plan.rows[i][1]._size > k
            ]
            if violations:
                self._m_violations.inc(len(violations))
                timestamps[violations] = 0
                values[violations] = np.nan
                reread += violations
        hits = len(plan.cache_rows) - len(reread)
        if hits:
            self._m_hits.inc(hits)
        if reread:
            # Whatever the scalar path finds (and counts) for each; a
            # row longer than the matrix widens it.
            for i in reread:
                exact[i] = self._read_row(plan.topics[i], window_ns)
            pad = _longest(exact.values()) - width
            if pad > 0:
                values = np.hstack([np.full((u, pad), np.nan), values])
                timestamps = np.hstack(
                    [np.zeros((u, pad), dtype=np.int64), timestamps]
                )
                width += pad
        for i, row in exact.items():
            n = len(row[0]) if row else 0
            if n:
                timestamps[i, width - n:], values[i, width - n:] = row
            counts[i] = n
        return BatchWindow(plan.topics, values, timestamps, counts)

    # ------------------------------------------------------------------
    # Derived conveniences used by several plugins
    # ------------------------------------------------------------------

    def window_values(
        self, topic: str, offset_ns: int, delta: bool = False
    ) -> np.ndarray:
        """Values of a relative window; with ``delta`` the per-interval
        differences of a monotonic counter (one element shorter)."""
        view = self.query_relative(topic, offset_ns)
        values = view.values()
        if delta:
            return np.diff(values)
        return values

    def rate(self, topic: str, offset_ns: int) -> float:
        """Average per-second rate of a monotonic counter over a window.

        Returns NaN when fewer than two readings are available.
        """
        view = self.query_relative(topic, offset_ns)
        if len(view) < 2:
            return float("nan")
        ts = view.timestamps()
        val = view.values()
        span_s = (int(ts[-1]) - int(ts[0])) / 1e9
        if span_s <= 0:
            return float("nan")
        return float((val[-1] - val[0]) / span_s)
