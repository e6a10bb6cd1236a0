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

A pass over a plan is three steps: the rows of another data source
through the scalar path; every ring row as a member of a
:class:`SlabGroup` — the rings of one cache slab, which advance in lock
step, copied in a few slices however many there are; then, through the
scalar path again, the rows that emptied or failed their window check.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

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


class BatchWindow:
    """Result of one batched relative query: U topics x W window slots.

    Rows are **right-aligned**: the newest reading of topic ``i`` sits in
    column ``W - 1`` and its ``counts[i]`` valid readings occupy the
    columns ``[W - counts[i], W)``.  A gathered window's invalid slots
    hold NaN values and zero timestamps (a fused channel's keep its older
    readings: kernels read valid segments only).  The arrays are freshly
    allocated per query, so a window is a snapshot in the same sense a
    :class:`CacheView` is.

    Row ``i``'s timestamps are the ``W``-slot vector ``times[group[i]]``
    (``times`` is per row when ``group`` is not given): a slab group
    gathered in lock step shares one, a scalar-path row has its own, an
    empty row the zero one.  The ``U x W`` :attr:`timestamps` matrix is
    built only when asked for; kernels read the stamps they need.

    A row with ``counts[i] == 0`` means
    :meth:`QueryEngine.query_relative` would have raised
    :class:`QueryError` for that topic at the same instant.

    Consumers treat the arrays as **read-only**: a fused pipeline stage
    is served live channel matrices, not copies (the runtime sanitizer
    fingerprints every row, time vectors included, rule R007).
    """

    __slots__ = ("topics", "values", "counts", "width", "_uniform", "_times", "_group")

    def __init__(
        self,
        topics: Sequence[str],
        values: np.ndarray,
        times: np.ndarray,
        counts: np.ndarray,
        uniform: Optional[int] = None,
        group: Optional[np.ndarray] = None,
    ) -> None:
        self.topics = tuple(topics)
        self.values = values
        self.counts = counts
        self.width = int(values.shape[1])
        #: :meth:`uniform_count`, when the source already knows it (a
        #: full fused channel does).
        self._uniform = uniform
        self._times = times
        self._group = np.arange(len(times)) if group is None else group

    def __len__(self) -> int:
        return len(self.topics)

    @property
    def timestamps(self) -> np.ndarray:
        """The timestamp matrix, laid out like :attr:`values` (a copy)."""
        return self._times[self._group]

    @property
    def mask(self) -> np.ndarray:
        """Boolean validity mask, True where a slot holds a reading."""
        return np.arange(self.width) >= (self.width - self.counts[:, None])

    def uniform_count(self) -> int:
        """The reading count every row shares, or 0 when rows differ,
        any is empty or there are none — the precondition for reducing
        ``values[:, width - n:]`` along axis 1 in one go.  Computed
        once per window."""
        n = self._uniform
        if n is None:
            counts = self.counts
            n = int(counts[0]) if len(counts) else 0
            if n and not (counts == n).all():
                n = 0
            self._uniform = n
        return n

    def row_values(self, i: int) -> np.ndarray:
        """The valid value segment of row ``i``, oldest-first (a view)."""
        return self.values[i, self.width - int(self.counts[i]):]

    def row_timestamps(self, i: int) -> np.ndarray:
        """The valid timestamp segment of row ``i``, oldest-first (a view
        of its group's time vector)."""
        return self._times[self._group[i], self.width - int(self.counts[i]):]

    def rows(self, indices: Sequence[int]) -> List[tuple]:
        """``(topic, timestamps, values)`` of each row in ``indices``,
        valid segments only — what one unit's computation is handed."""
        times, group = self._times, self._group
        out = []
        for i in indices:
            lo = self.width - int(self.counts[i])
            out.append((self.topics[i], times[group[i], lo:], self.values[i, lo:]))
        return out

    def last_values(self) -> np.ndarray:
        """Newest value per row (NaN where a row is empty)."""
        return self.values[:, -1]

    def newest_timestamps(self) -> np.ndarray:
        """Newest timestamp per row (0 where a row is empty)."""
        return self._times[self._group, -1]

    def spans(self, rows=slice(None)) -> np.ndarray:
        """Newest minus oldest valid timestamp of each of ``rows`` (each
        must hold a reading)."""
        times, group = self._times, self._group[rows]
        return times[group, -1] - times[group, self.width - self.counts[rows]]


def report_views(san, window: BatchWindow) -> None:
    """Hand every gathered row to the sanitizer as the view a relative
    query of its topic would have returned (zero-copy over the window,
    so a kernel writing into its window breaks the fingerprint)."""
    for i, topic in enumerate(window.topics):
        if window.counts[i]:
            san.on_query_view(
                topic,
                CacheView(window.row_timestamps(i), window.row_values(i)),
            )


def _longest(rows) -> int:
    """Length of the longest ``(timestamps, values)`` row (``None`` = 0)."""
    return max((len(row[0]) for row in rows if row), default=0)


class SlabGroup(NamedTuple):
    """Ring rows of a plan gathered together: rings of one
    :class:`CacheSlab` read at one ``count`` (0: a time window, read at
    the pass's ``k`` and cut once for all of them).  Every ring row of a
    plan is in one; a ring alone on its slab is a group of one."""

    slab: CacheSlab
    count: int
    dst: Union[slice, np.ndarray]   # rows of the plan ...
    rows: Union[slice, np.ndarray]  # ... and the slab rows they read
    plan_rows: List[int]


def _rows_index(rows: List[int]) -> Union[slice, np.ndarray]:
    """``rows`` as a slice when they are evenly spaced and ascending (so
    indexing by them is basic slicing), else as a 1-D index."""
    first, step = rows[0], rows[1] - rows[0] if len(rows) > 1 else 1
    if step > 0 and rows == list(range(first, rows[-1] + 1, step)):
        return slice(first, rows[-1] + 1, step)
    return np.array(rows, dtype=np.intp)


def _window_count(group: SlabGroup, k: int, window_ns: int) -> int:
    """How many of its newest readings every ring of ``group`` holds in
    its window (0: the rings are empty).

    A time window is cut once for the whole group: the rings of a slab
    share its one timestamp vector, so its newest ``k`` say for every
    row how many lie in ``[newest - window, newest]`` — the bound
    inclusive, like ``view_absolute``'s.
    """
    slab, count = group.slab, group.count
    cap = len(slab.ts)
    held = min(slab.size, count or k, cap)  # a ring holds no more than cap
    if count or not held:
        return held
    tail = slab.ts
    bound = slab.newest - window_ns
    return sum(
        b - a - int(tail[a:b].searchsorted(bound, side="left"))
        for a, b in slab.newest_spans(held)
    )


def _gather_slab(
    group: SlabGroup, n: int,
    times: np.ndarray, values: np.ndarray, counts: np.ndarray,
) -> None:
    """Copy the newest ``n`` readings of every ring of ``group`` into
    their right-aligned rows of the value matrix, and their timestamps
    once into the group's time vector ``times`` — what ``tail_into``
    does for one ring.

    The rings of a slab advance in lock step, so one head serves them
    all: the window is at most two slot spans of the slab
    (:meth:`CacheSlab.newest_spans`) — the slab's time vector copied
    once, its time-major values copied transposed — and the rows are a
    slice or one 1-D index on either side, so every copy is basic
    slicing on at least one axis.
    """
    group.slab.copy_newest(
        n, group.rows, times, values, group.dst, len(times) - n
    )
    counts[group.dst] = n


def _ring_count(cache: SensorCache, window_ns: int) -> int:
    """Readings a ring row reads: ``window // interval + 1``, up to the
    ring's capacity, where the cache has an interval hint; the latest
    for a 0 window; 0 (a time window, sized when the plan runs) where
    there is no hint."""
    if not window_ns:
        return 1  # the latest reading, whatever the cadence
    if cache.interval_ns > 0:
        return min(int(window_ns // cache.interval_ns + 1), cache.capacity)
    return 0


class QueryPlan:
    """A compiled batched query: topic -> data-source bindings.

    Built once per operator (at ``init_units``/tree-change time) and
    reused every tick until the sensor-space generation moves on.  A
    plan removes *all* per-tick name resolution: a row whose topic the
    host caches holds a direct reference to that ring, so executing a
    plan performs zero dict lookups and zero re-parsing.

    Rows come in three kinds, by **data source**:

    - *cache* (ring-bound): any topic the host has a cache for.  The
      tick path copies the ring's tail straight into the result matrix,
      a :class:`SlabGroup` at a time — the rings that share a slab and
      a count, copied by basic slicing (``_gather_slab``).  How long
      that tail is depends on which of two window definitions the cache
      carries:

      - a **count** — ``window // interval + 1`` readings, the paper's
        O(1) relative arithmetic — when the cache has an interval hint
        (every Pusher cache) or the window is 0 (the latest reading);
        fixed at compile time from the ring's capacity, derived again
        when the ring leaves its slab (a ``resize``), stored as the
        row's ``count``;
      - **timestamps** — everything within ``window`` of the newest
        reading — when it has none (every Collect Agent cache; the row's
        ``count`` is 0).  The observed arrival gap of the rings' slabs
        (one per slab) bounds how many readings that can be,
        ``window // gap + 2``, read when the plan *runs* so a faster
        cadence or a ``resize`` needs no recompile.  A slab group is cut
        to its window once, on the slab's one timestamp vector, and
        checked once.

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
        "epochs", "slab_groups", "timed_slabs", "group_of",
    )

    def __init__(
        self,
        topics: Tuple[str, ...],
        window_ns: int,
        rows: List[tuple],
        generation: int,
        unbound: List[int],
    ) -> None:
        self.topics = topics
        self.window_ns = window_ns
        self.width = 1  # widened to the longest count by group_rings
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
        for i, (kind, payload, count) in enumerate(rows):
            if kind == _ROW_CACHE:
                self.cache_rows.append((i, payload, count))
            elif kind == _ROW_SCALAR:
                self.scalar_rows.append((i, payload))
            else:
                self.miss_rows.append(i)
        self.group_rings()

    def group_rings(self) -> None:
        """Split :attr:`cache_rows` into :attr:`slab_groups`, one per
        slab and count.  Run again when the epoch of a slab the rows
        were on has moved — a ring that left it is then found on its new
        slab, its count derived again from its capacity there."""
        window_ns = self.window_ns
        self.cache_rows = [
            (i, cache, _ring_count(cache, window_ns))
            for i, cache, _ in self.cache_rows
        ]
        self.width = max(
            [self.width] + [count for _, _, count in self.cache_rows]
        )
        by_slab: Dict[tuple, List[tuple]] = {}
        for entry in self.cache_rows:
            _, cache, count = entry
            by_slab.setdefault((cache.slab, count), []).append(entry)
        self.slab_groups: List[SlabGroup] = []
        #: Each row's time vector in a window: slab group ``g``'s is g + 1.
        self.group_of = np.zeros(len(self.rows), dtype=np.intp)
        for (slab, count), entries in by_slab.items():
            caches = tuple(cache for _, cache, _ in entries)
            rows = [cache.row for cache in caches]
            plan_rows = [i for i, _, _ in entries]
            self.slab_groups.append(SlabGroup(
                slab, count, _rows_index(plan_rows), _rows_index(rows),
                plan_rows,
            ))
            self.group_of[plan_rows] = len(self.slab_groups)
        #: The slabs whose observed gap sizes a pass's time windows.
        self.timed_slabs = tuple(
            dict.fromkeys(slab for slab, count in by_slab if not count)
        )
        #: Every slab a ring row is on, with its epoch when grouped.
        self.epochs = [(slab, slab.epoch) for slab, _ in by_slab]

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
        # Collect Agent); an engine over any other host gets a private
        # registry, so instrumentation is unconditional.
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
        return CacheView(ts, values)

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
                # storage.query is zero-copy over chunks a flush or an
                # expiry reuses; what the engine hands out is private.
                return CacheView(ts.copy(), val.copy())
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
            return CacheView(ts.copy(), val.copy())
        if cache is not None and len(cache):
            # Pusher with a partially covering cache: return what exists.
            self._m_hits.inc()
            return cache.view_absolute(start_ts, end_ts)
        self._m_misses.inc()
        raise QueryError(f"no data available for sensor {topic}")

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
            rows.append((_ROW_CACHE, cache, _ring_count(cache, window_ns)))
        self._m_plan_compiles.inc()
        return QueryPlan(tuple(topics), int(window_ns), rows, gen, unbound)

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

    def forget_plan(self, key: object) -> None:
        """Drop the cached plan under ``key``, if any: an unloaded
        operator's or a dissolved fused group's, which would otherwise
        keep its rings (and their slabs) alive and count in
        ``qe_plan_rows``."""
        self._plans.pop(key, None)

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
        # Rows of another data source, and below the rows re-read, go
        # through the scalar path, each with stamps of its own.
        exact: Dict[int, Optional[tuple]] = {
            i: self._read_row(topic, window_ns) for i, topic in plan.scalar_rows
        }
        if any(slab.epoch != epoch for slab, epoch in plan.epochs):
            plan.group_rings()
        width, k = plan.width, 0
        if plan.timed_slabs:
            # At most window // gap + 1 readings one gap or more apart
            # fit a window; one more shows where it ends.  The smallest
            # gap of the plan's slabs serves all its rows: gathering
            # more than a row needs is never wrong, the cut drops the
            # excess.
            gap = min([slab.gap for slab in plan.timed_slabs])
            k = min(window_ns // gap + 2, _MAX_SPECULATIVE_READ)
            width = max(width, k)
        if plan.miss_rows:
            self._m_misses.inc(len(plan.miss_rows))
        gathered: List[tuple] = []
        reread: List[int] = []
        violations: List[int] = []
        for g, group in enumerate(plan.slab_groups, 1):
            n = _window_count(group, k, window_ns)
            if not n:
                reread += group.plan_rows  # emptied since compile time
            elif not group.count and n == k and group.slab.size > k:
                # Exact iff its oldest gathered reading fell outside the
                # window (fewer than k are left) or the rings hold
                # nothing older: here neither, so every row is re-read.
                violations += group.plan_rows
            else:
                gathered.append((g, group, n))
        if violations:
            self._m_violations.inc(len(violations))
            reread += violations
        hits = len(plan.cache_rows) - len(reread)
        if hits:
            self._m_hits.inc(hits)
        for i in reread:  # whatever the scalar path finds (and counts)
            exact[i] = self._read_row(plan.topics[i], window_ns)
        group_of = plan.group_of
        if exact:
            # A scalar row can be longer than the plan is wide (storage
            # is not capacity-bounded), and it has stamps of its own.
            width = max(width, _longest(exact.values()))
            group_of = group_of.copy()
        u, own = len(plan.rows), len(plan.slab_groups) + 1
        values = np.full((u, width), np.nan, dtype=np.float64)
        times = np.zeros((own + len(exact), width), dtype=np.int64)
        counts = np.zeros(u, dtype=np.int64)
        for g, group, n in gathered:
            _gather_slab(group, n, times[g], values, counts)
        for j, (i, row) in enumerate(exact.items(), own):
            group_of[i] = j
            n = len(row[0]) if row else 0
            if n:
                times[j, width - n:], values[i, width - n:] = row
            counts[i] = n
        return BatchWindow(plan.topics, values, times, counts, group=group_of)
