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
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import ConfigError, QueryError, TopicError
from repro.dcdb.cache import CacheView, SensorCache
from repro.dcdb.virtual import VirtualSensor, VirtualSensorRegistry
from repro.core.navigator import SensorNavigator
from repro.sanitizer import hooks
from repro.telemetry import MetricRegistry

#: Host callback returning the cache for a topic (or None).
CacheLookup = Callable[[str], Optional[SensorCache]]

#: Row kinds of a compiled plan (see :class:`QueryPlan`).
_ROW_CACHE = 0    # direct ring-buffer binding, O(1) tail copy per tick
_ROW_SCALAR = 1   # storage/virtual/interval-less cache: scalar query
_ROW_MISS = 2     # unresolvable at compile time: always empty


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


class QueryPlan:
    """A compiled batched query: topic -> data-source bindings.

    Built once per operator (at ``init_units``/tree-change time) and
    reused every tick until the sensor-space generation moves on.  A
    plan removes *all* per-tick name resolution: cache rows hold direct
    references to the ring buffers plus the precomputed window length
    (``offset // interval + 1``, the paper's O(1) relative arithmetic),
    so executing a plan performs zero dict lookups and zero re-parsing.

    Rows come in three kinds:

    - *cache*: an interval-hinted local cache; the tick path copies the
      ring tail straight into the result matrix.
    - *scalar*: virtual sensors, interval-less caches and topics only a
      storage backend can serve; executed through the scalar query path
      (correct, not fast).
    - *miss*: topics with neither cache nor storage when the plan was
      compiled.  They stay empty until the sensor-space generation moves
      or the host has a cache for one of them — a declared operator
      output is in the tree before its first store, so its cache
      appearing moves no generation; :meth:`QueryEngine.plan_for` looks.
    """

    __slots__ = (
        "topics", "window_ns", "width", "rows", "generation",
        "cache_rows", "scalar_rows", "miss_rows",
    )

    def __init__(
        self,
        topics: Tuple[str, ...],
        window_ns: int,
        width: int,
        rows: List[tuple],
        generation: int,
    ) -> None:
        self.topics = topics
        self.window_ns = window_ns
        self.width = width
        self.rows = rows
        self.generation = generation
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

    @property
    def n_cache_rows(self) -> int:
        """Rows served by direct ring-buffer bindings."""
        return sum(1 for kind, _, _ in self.rows if kind == _ROW_CACHE)


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
        self._plans: Dict[object, QueryPlan] = {}
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
        then local cache, then storage backend.  Interval-hinted caches
        become direct ring-buffer bindings; everything else degrades to a
        scalar row so batch results stay byte-identical to U scalar
        queries issued at the same instant.
        """
        if window_ns < 0:
            raise QueryError(f"negative relative offset: {window_ns}")
        gen = self._navigator.generation
        rows: List[tuple] = []
        width = 1
        has_storage = self._host.storage is not None
        for topic in topics:
            if self.virtual.get(topic) is not None:
                rows.append((_ROW_SCALAR, topic, 0))
                continue
            cache = self._host.cache_for(topic)
            if cache is None:
                kind = _ROW_SCALAR if has_storage else _ROW_MISS
                rows.append((kind, topic, 0))
                continue
            if cache.interval_ns <= 0:
                # No sampling interval hint: the relative window needs a
                # binary search per tick, which the scalar path provides.
                rows.append((_ROW_SCALAR, topic, 0))
                continue
            count = window_ns // cache.interval_ns + 1 if window_ns else 1
            count = min(int(count), cache.capacity)
            rows.append((_ROW_CACHE, cache, count))
            width = max(width, count)
        self._m_plan_compiles.inc()
        return QueryPlan(tuple(topics), int(window_ns), width, rows, gen)

    def plan_for(
        self, key: object, topics: Sequence[str], window_ns: int
    ) -> QueryPlan:
        """Cached :meth:`compile_plan`, invalidated by sensor-space moves.

        A cached plan is reused only while the navigator generation, the
        topic tuple and the window all match and none of its miss rows
        has gained a cache; anything else recompiles in place and counts
        as an invalidation.
        """
        topics = tuple(topics)
        plan = self._plans.get(key)
        if plan is not None:
            if (
                plan.generation == self._navigator.generation
                and plan.window_ns == window_ns
                and plan.topics == topics
                and not (plan.miss_rows and self._miss_healed(plan))
            ):
                self._m_plan_hits.inc()
                return plan
            self._m_plan_invalidations.inc()
        plan = self.compile_plan(topics, window_ns)
        self._plans[key] = plan
        return plan

    def _miss_healed(self, plan: QueryPlan) -> bool:
        """Whether the host now caches a topic ``plan`` bound as a miss."""
        cache_for = self._host.cache_for
        return any(
            cache_for(plan.topics[i]) is not None for i in plan.miss_rows
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

    def _execute_plan(self, plan: QueryPlan) -> BatchWindow:
        """Run a compiled plan: zero lookups on the cache-bound rows."""
        width = plan.width
        # Scalar rows first — their result length can exceed the planned
        # width (storage backends are not capacity-bounded).  Cache-bound
        # rows whose ring emptied since compile time degrade the same way.
        scalar: Dict[int, tuple] = {}
        for i, topic in plan.scalar_rows:
            try:
                view = self._query_relative(topic, plan.window_ns)
                ts, val = view.timestamps(), view.values()
                scalar[i] = (ts, val)
                width = max(width, len(ts))
            except QueryError:
                scalar[i] = (None, None)
        for i, cache, _count in plan.cache_rows:
            if cache._size:
                continue
            try:
                view = self._query_relative(plan.topics[i], plan.window_ns)
                ts, val = view.timestamps(), view.values()
                scalar[i] = (ts, val)
                width = max(width, len(ts))
            except QueryError:
                scalar[i] = (None, None)
        if plan.miss_rows:
            self._m_misses.inc(len(plan.miss_rows))
        u = len(plan.rows)
        values = np.full((u, width), np.nan, dtype=np.float64)
        timestamps = np.zeros((u, width), dtype=np.int64)
        counts = np.zeros(u, dtype=np.int64)
        hits = 0
        for i, cache, count in plan.cache_rows:
            if not cache._size:
                continue  # filled from the scalar dict below
            # Direct ring read: the cache writes its tail slices into
            # the result row without intermediate view objects.
            counts[i] = cache.tail_into(timestamps[i], values[i], count)
            hits += 1
        for i, (ts, val) in scalar.items():
            if ts is not None and len(ts):
                n = len(ts)
                timestamps[i, width - n:] = ts
                values[i, width - n:] = val
                counts[i] = n
        if hits:
            self._m_hits.inc(hits)
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
