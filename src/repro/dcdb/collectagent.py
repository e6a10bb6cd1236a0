"""The DCDB Collect Agent.

Collect Agents are the data brokers of DCDB: they receive all sensor
traffic the Pushers publish over MQTT, keep their own sensor caches for
fast in-memory access, and forward readings to the storage backend.
Wintermute operators hosted in a Collect Agent see the *entire* system's
sensor space — data comes from the local caches when possible and from
the storage backend otherwise (Section IV-a), which is exactly the
lookup order the Query Engine implements.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from repro.common.timeutil import NS_PER_SEC
from repro.dcdb.cache import CacheSlab, SensorCache, slab_memory_bytes
from repro.dcdb.mqtt import Broker, QueuedSubscriber, ReadingBatch
from repro.dcdb.restapi import RestApi, RestResponse
from repro.dcdb.sensor import Sensor
from repro.dcdb.storage import StorageBackend
from repro.simulator.clock import TaskScheduler
from repro.telemetry import MetricRegistry, register_metrics_route


class CollectAgent:
    """System-level data broker and analytics host.

    Args:
        name: host identifier.
        broker: MQTT broker to subscribe on.
        scheduler: shared task scheduler (drives queue drains).
        storage: storage backend readings are persisted to.
        cache_window_ns: retention of the agent-side sensor caches.
        drain_interval_ns: how often the subscription queue is flushed
            to caches and storage.
        subscribe_pattern: topic filter; ``/#`` (everything) by default.
        republish_outputs: whether operator outputs written on this agent
            are also published over MQTT.  Off by default: in a Collect
            Agent, outputs are "written to the Storage Backend" directly
            (Section IV-a) — and with a catch-all subscription a
            republish would loop straight back into the agent's own
            ingest queue, duplicating every stored reading.
        ingest_queue_capacity: bound of the MQTT ingest queue (``None``
            keeps it unbounded).  A bounded queue applies backpressure
            instead of growing without limit under bursty ingest.
        ingest_policy: what a full ingest queue does with an arrival —
            ``drop-oldest`` (default) or ``drop-newest``; either way the
            loss is exported as ``ingest_dropped_total``.
    """

    def __init__(
        self,
        name: str,
        broker: Broker,
        scheduler: TaskScheduler,
        storage: Optional[StorageBackend] = None,
        cache_window_ns: int = 180 * NS_PER_SEC,
        drain_interval_ns: int = NS_PER_SEC,
        subscribe_pattern: str = "/#",
        republish_outputs: bool = False,
        ingest_queue_capacity: Optional[int] = None,
        ingest_policy: str = "drop-oldest",
    ) -> None:
        self.republish_outputs = republish_outputs
        self.name = name
        self.broker = broker
        self.scheduler = scheduler
        self._storage = storage if storage is not None else StorageBackend()
        self.cache_window_ns = int(cache_window_ns)
        self.caches: Dict[str, SensorCache] = {}
        self.rest = RestApi()
        self.telemetry = MetricRegistry()
        self._m_forwarded = self.telemetry.counter("forwarded_readings_total")
        self._m_drain_latency = self.telemetry.histogram("drain_latency_ns")
        self._m_ingest_dropped = self.telemetry.counter("ingest_dropped_total")
        self._register_gauges()
        self.analytics: Optional[object] = None
        self._queue = QueuedSubscriber(
            maxlen=ingest_queue_capacity, policy=ingest_policy
        )
        self._queue.attach(broker, subscribe_pattern)
        self._drain_task = scheduler.add_callback(
            f"{name}:drain", self._drain, int(drain_interval_ns)
        )
        # Storage TTL maintenance: Cassandra expires rows server-side;
        # the in-memory backend needs a periodic sweep instead.
        if self._storage.ttl_ns > 0:
            self._ttl_task = scheduler.add_callback(
                f"{name}:ttl",
                lambda ts: self._storage.expire(ts),
                max(NS_PER_SEC, self._storage.ttl_ns // 10),
            )
        # Tiered backends additionally run flush/rollup/retention sweeps
        # (the Cassandra-compaction equivalent) on their own cadence.
        maintain = getattr(self._storage, "maintain", None)
        if callable(maintain):
            self._maintenance_task = scheduler.add_callback(
                f"{name}:storage-maintenance",
                maintain,
                int(
                    getattr(
                        self._storage,
                        "maintenance_interval_ns",
                        30 * NS_PER_SEC,
                    )
                ),
            )
        self._register_routes()

    def _register_gauges(self) -> None:
        """Collection-time gauges: queue depth, cache occupancy, storage
        footprint.  Evaluated by the /metrics scraper, not the hot path."""
        self.telemetry.gauge("ingest_queue_depth", fn=lambda: len(self._queue))
        self.telemetry.gauge(
            "cache_sensor_count", fn=lambda: len(self.caches)
        )
        self.telemetry.gauge(
            "cache_occupancy_readings",
            fn=lambda: sum(len(c) for c in self.caches.values()),
        )
        self.telemetry.gauge(
            "cache_capacity_readings",
            fn=lambda: sum(c.capacity for c in self.caches.values()),
        )
        # What is allocated, each slab once: the row a ring left when
        # it was resized stays counted while its slab has a live ring.
        self.telemetry.gauge(
            "cache_memory_bytes",
            fn=lambda: slab_memory_bytes(self.caches.values()),
        )
        self.telemetry.gauge(
            "cache_stale_drops",
            fn=lambda: sum(c.stale_drops for c in self.caches.values()),
        )
        self.telemetry.gauge(
            "storage_stored_readings",
            fn=lambda: self._storage.total_readings(),
        )
        if hasattr(self._storage, "tier_stats"):
            storage = self._storage  # tiered backend: per-tier visibility
            self.telemetry.gauge(
                "storage_disk_bytes", fn=lambda: storage.disk_bytes()
            )
            self.telemetry.gauge(
                "storage_segments",
                fn=lambda: len(storage.store.segments),
            )
            self.telemetry.gauge(
                "storage_flushes", fn=lambda: storage.flush_count
            )
            self.telemetry.gauge(
                "storage_rollup_compactions",
                fn=lambda: storage.rollup_compactions,
            )
            self.telemetry.gauge(
                "storage_segments_quarantined",
                fn=lambda: storage.store.quarantined,
            )
            for tier in ("memory", "segment", "rollup"):
                self.telemetry.gauge(
                    "storage_tier_hits",
                    fn=lambda t=tier: storage.tier_hits[t],
                    tier=tier,
                )

    @property
    def forwarded_count(self) -> int:
        """Readings drained from MQTT into caches + storage."""
        return self._m_forwarded.value

    @property
    def ingest_dropped(self) -> int:
        """Messages lost to ingest-queue backpressure (telemetry view)."""
        return self._sync_ingest_dropped()

    def _sync_ingest_dropped(self) -> int:
        # Telemetry follows the queue's own drop count on every drain and
        # on demand (callers between drains see the live number); when
        # two threads sync at once and over-count, the next sync waits.
        counter = self._m_ingest_dropped
        counter.inc(max(0, self._queue.dropped - counter.value))
        return counter.value

    # ------------------------------------------------------------------
    # Ingest path
    # ------------------------------------------------------------------

    #: Sizing slack mirroring ``SensorCache.for_duration`` (20%).
    _SIZING_SLACK_NUM, _SIZING_SLACK_DEN = 12, 10
    #: Per-topic growth ceiling: two adjacent timestamps 1 ns apart must
    #: not balloon one cache to the whole window divided by a nanosecond.
    _MAX_INGEST_CAPACITY = 1_000_000

    def _ingest_capacity(self, gap_ns: int) -> int:
        """Readings ``cache_window_ns`` holds at one per ``gap_ns``."""
        needed = (
            self.cache_window_ns * self._SIZING_SLACK_NUM
        ) // (gap_ns * self._SIZING_SLACK_DEN) + 2
        return min(max(2, needed), self._MAX_INGEST_CAPACITY)

    def _ingest(self, batch: ReadingBatch) -> None:
        """Scatter a batch into caches and storage: the agent's one
        write loop, for MQTT traffic and operator outputs alike.

        Interval is unknown for remote sensors, so an ingest cache
        carries no ``interval_ns`` and a relative window over it is a
        matter of timestamps.  What the loop can do is measure: the
        smallest gap between two successive distinct timestamps of a
        topic is kept on its cache (``gap_ns``) and used twice.  Here it
        sizes the ring — the retention window is a time contract, the
        ring is sized in readings, so the cache starts at the 1 Hz guess
        and whenever a smaller gap is observed it is grown in place to
        the reading count the window implies (a 10 Hz sensor must still
        retain its whole window, not a tenth of it).  In the Query
        Engine it bounds how many readings a time window can hold, which
        is what lets a compiled plan read these rings directly (see
        ``core.queryengine``); it is never published as the interval.

        Topics a batch is the first to bring arrived together and will
        be read together: their rings share one slab, allocated at the
        batch's first miss (a ring that later outgrows it moves out).
        """
        caches = self.caches
        insert = self._storage.insert
        for topic, ts, value in zip(batch.topics, batch.timestamps, batch.values):
            cache = caches.get(topic)
            if cache is None:
                new = [t for t in dict.fromkeys(batch.topics) if t not in caches]
                slab = CacheSlab(len(new), self._ingest_capacity(NS_PER_SEC))
                caches.update(zip(new, slab.rings()))
                cache = caches[topic]
            newest = cache.newest_ts
            # (First, duplicate or stale arrivals say nothing of cadence.)
            if newest is not None and ts > newest and ts - newest < cache.gap_ns:
                gap = cache.gap_ns = ts - newest
                needed = self._ingest_capacity(gap)
                if needed > cache.capacity:
                    cache.resize(needed)
            cache.store(ts, value)
            insert(topic, ts, value)

    def _drain(self, ts: int) -> None:
        """Flush queued MQTT readings into caches and storage."""
        t0 = time.perf_counter_ns()
        batch = self._queue.drain()
        self._ingest(batch)
        self._m_forwarded.inc(len(batch))
        self._sync_ingest_dropped()
        self._m_drain_latency.observe(time.perf_counter_ns() - t0)

    def flush(self, ts: Optional[int] = None) -> None:
        """Drain immediately (used by on-demand REST handlers/tests)."""
        self._drain(ts if ts is not None else self.scheduler.clock.now)

    # ------------------------------------------------------------------
    # Host interface for Wintermute
    # ------------------------------------------------------------------

    def store_reading(self, sensor: Sensor, ts: int, value: float) -> None:
        """Store one operator output: a pass of one."""
        self.store_readings_batch(ts, ((sensor, value),))

    def store_readings_batch(self, ts, readings) -> None:
        """Store a whole pass's operator outputs in one call.

        ``readings`` is a sequence of ``(sensor, value)`` pairs sharing
        one timestamp.  In a Collect Agent they go to the cache and are
        also written to the Storage Backend (Section IV-a); MQTT
        republishes (when enabled) leave as one broker batch.
        """
        batch = ReadingBatch(
            [sensor.topic for sensor, _ in readings],
            [ts] * len(readings),
            [value for _, value in readings],
        )
        self._ingest(batch)
        if self.republish_outputs:
            published = [i for i, (s, _) in enumerate(readings) if s.publish]
            if published:
                self.broker.publish_batch(batch.take(published))

    def cache_for(self, topic: str) -> Optional[SensorCache]:
        """The agent-side cache for ``topic``, if any traffic was seen."""
        return self.caches.get(topic)

    def sensor_topics(self) -> List[str]:
        """All topics known to this agent (cached or stored)."""
        topics = set(self.caches.keys())
        topics.update(self._storage.topics())
        return sorted(topics)

    @property
    def storage(self) -> StorageBackend:
        """The storage backend; the Query Engine's fallback source."""
        return self._storage

    def attach_analytics(self, manager) -> None:
        """Attach a Wintermute OperatorManager to this host."""
        self.analytics = manager
        manager.bind_host(self)

    # ------------------------------------------------------------------
    # REST API
    # ------------------------------------------------------------------

    def _register_routes(self) -> None:
        self.rest.register("GET", "/sensors", self._route_sensors)
        self.rest.register("GET", "/stats", self._route_stats)
        register_metrics_route(self.rest, self.telemetry)

    def _route_sensors(self, request) -> RestResponse:
        return RestResponse.json({"sensors": self.sensor_topics()})

    def _route_stats(self, request) -> RestResponse:
        return RestResponse.json(
            {
                "forwarded": self.forwarded_count,
                "queued": len(self._queue),
                "ingest_dropped": self.ingest_dropped,
                "stored_readings": self._storage.total_readings(),
            }
        )
