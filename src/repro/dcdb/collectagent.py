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
from itertools import chain, groupby
from operator import attrgetter
from typing import Dict, List, Optional

import numpy as np

from repro.common.timeutil import NS_PER_SEC
from repro.dcdb.cache import (
    CacheSlab,
    PlanMemo,
    SensorCache,
    WritePlan,
    element_ids,
    first_arrivals,
    plan_columns,
    plan_write,
    register_cache_gauges,
    register_memo_gauges,
    write_columns,
    write_columns_at,
)
from repro.dcdb.mqtt import Broker, QueuedSubscriber, ReadingBatch
from repro.dcdb.restapi import RestApi, RestResponse
from repro.dcdb.sensor import SensorColumns
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
        ingest_queue_capacity: bound, in readings, of the MQTT ingest
            queue (``None`` keeps it unbounded).  A bounded queue applies
            backpressure instead of growing without limit under bursty
            ingest.
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
        ingest_queue_capacity: Optional[int] = None,
        ingest_policy: str = "drop-oldest",
    ) -> None:
        self.name = name
        self.broker = broker
        self.scheduler = scheduler
        self._storage = storage if storage is not None else StorageBackend()
        self.cache_window_ns = int(cache_window_ns)
        self.caches: Dict[str, SensorCache] = {}
        #: Write plans by topic sequence (see ``_ingest``) ...
        self._plans = PlanMemo()
        #: ... and in front of them, by the sequence a producer hands
        #: over (a drain's topics tuples, an operator's outputs): apart,
        #: so that passes cut anew every time (by a link, or a
        #: subscriber on part of the topics) churn only these.
        self._passes = PlanMemo(element_ids)
        self.rest = RestApi()
        self.telemetry = MetricRegistry()
        self._m_forwarded = self.telemetry.counter("forwarded_readings_total")
        self._m_drain_latency = self.telemetry.histogram("drain_latency_ns")
        self._m_ingest_dropped = self.telemetry.counter("ingest_dropped_total")
        self._register_gauges()
        self.analytics: Optional[object] = None
        self._queue = QueuedSubscriber(ingest_queue_capacity, ingest_policy)
        self._queue.attach(broker, subscribe_pattern)
        self._drain_task = scheduler.add_callback(
            f"{name}:drain", self._drain, int(drain_interval_ns)
        )
        # Storage TTL: Cassandra expires rows server-side; here a sweep
        # does.  A tiered backend's maintenance sweep (flush, rollups,
        # retention: the Cassandra-compaction equivalent) runs it; the
        # in-memory backend gets a task of its own.
        if hasattr(self._storage, "maintain"):
            self._maintenance_task = scheduler.add_callback(
                f"{name}:storage-maintenance",
                self._storage.maintain,
                self._storage.maintenance_interval_ns,
            )
        elif self._storage.ttl_ns > 0:
            self._ttl_task = scheduler.add_callback(
                f"{name}:ttl",
                lambda ts: self._storage.expire(ts),
                max(NS_PER_SEC, self._storage.ttl_ns // 10),
            )
        self._register_routes()

    def _register_gauges(self) -> None:
        """Collection-time gauges: queue depth, cache occupancy, storage
        footprint.  Evaluated by the /metrics scraper, not the hot path."""
        self.telemetry.gauge("ingest_queue_depth", fn=lambda: len(self._queue))
        register_cache_gauges(self.telemetry, self.caches)
        register_memo_gauges(self.telemetry, {
            "ingest": self._plans, "pass": self._passes,
            "storage": self._storage.plans, "broker": self.broker.run_plans,
        })
        self.telemetry.gauge(
            "storage_stored_readings",
            fn=lambda: self._storage.total_readings(),
        )
        if hasattr(self._storage, "tier_stats"):
            storage = self._storage  # tiered backend: per-tier visibility
            for name, fn in (
                ("storage_disk_bytes", storage.disk_bytes),
                ("storage_segments", lambda: len(storage.store.segments)),
                ("storage_flushes", lambda: storage.flush_count),
                ("storage_rollup_compactions", lambda: storage.rollup_compactions),
                ("storage_segments_quarantined", lambda: storage.store.quarantined),
                ("storage_maintenance_errors", lambda: storage.maintenance_errors),
            ):
                self.telemetry.gauge(name, fn=fn)
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

    def _ingest(self, topics, timestamps, values) -> None:
        """Scatter readings given as three parallel columns (``values``
        float64) into caches and storage: the agent's write path in its
        per-reading form (a drain writes each run of one timestamp at
        it instead, :meth:`_drain`).

        They land as columns — one per slab and timestamp, two NumPy
        writes each — by the write plan kept for their topic sequence
        (:func:`plan_write`, compiled by :meth:`_write_plan`).  Storage
        takes the plan's topics tuple the same way, by a plan of its own
        over its blocks (``insert_columns``): found by that tuple's
        identity, as steady as the agent's plan.

        Interval is unknown for remote sensors, so an ingest cache
        carries no ``interval_ns`` and a relative window over it is a
        matter of timestamps.  What the agent can do is measure: the
        smallest gap between two successive distinct timestamps of a
        slab is kept on it (``gap``).  In the Query Engine it bounds how
        many readings a time window can hold, which is what lets a
        compiled plan read these rings directly (see
        ``core.queryengine``); it is never published as the interval.
        Here it sizes the rings (:meth:`_advance`).
        """
        if not len(topics):
            return
        topics = tuple(topics)
        plan = plan_write(self._plans, self._write_plan, topics, timestamps)
        write_columns(plan.columns, timestamps, values, self._advance)
        self._storage.insert_columns(plan.topics, timestamps, values)

    def _drain_plan(self, parts: tuple, timestamps=None) -> WritePlan:
        """The plan of a drain's joined topic sequence, however cut."""
        topics = tuple(chain.from_iterable(parts))
        return plan_write(self._plans, self._write_plan, topics, timestamps)

    def _output_plan(self, sensors: tuple, timestamps=None) -> WritePlan:
        """The plan of an operator pass's topic sequence."""
        topics = tuple(sensor.topic for sensor in sensors)
        return plan_write(self._plans, self._write_plan, topics, timestamps)

    def _write_plan(self, topics: tuple, timestamps) -> WritePlan:
        """The columns of a batch (:func:`plan_columns`), once the topics
        it is the first to bring have rings: one slab per first-arrival
        timestamp (:func:`first_arrivals`)."""
        caches = self.caches
        for group in first_arrivals(caches, topics, timestamps).values():
            slab = CacheSlab(len(group), self._ingest_capacity(NS_PER_SEC))
            caches.update(zip(group, slab.rings()))
        return WritePlan(
            topics, plan_columns([caches[topic] for topic in topics], timestamps)
        )

    def _advance(self, slab: CacheSlab, ts: int) -> None:
        """Track the cadence of ``slab`` and size it for a column at
        ``ts``.

        The retention window is a time contract and a ring is sized in
        readings, so a ring starts at the 1 Hz guess and grows to what
        the window implies at the smallest gap seen (a 10 Hz sensor must
        still retain its whole window, not a tenth of it) — but only
        while everything it holds is still inside the window.  Once a
        ring spans its window it loses nothing by staying as it is, and
        one early or late arrival (a gap of a millisecond at 1 Hz) is no
        reason to grow it a thousandfold; it grows again when the
        reading a store would evict is still inside the window.
        """
        if slab.stale(ts):
            return  # a stale column is dropped: it says nothing
        # (Nor does a duplicate, or the first arrival, of cadence.)
        newest = slab.newest
        if newest is not None and 0 < ts - newest < slab.gap:
            slab.gap = ts - newest
        needed = self._ingest_capacity(slab.gap)
        if needed > slab.capacity:
            oldest = slab.oldest()
            if oldest is None or ts - oldest <= self.cache_window_ns:
                slab.grow(needed)

    def _drain(self, ts: int) -> None:
        """Flush queued MQTT passes into caches and storage, each run of
        consecutive passes at one timestamp joined into one write at it.

        A run is written by the plan of the tuple of its passes' topics
        tuples — each the one a Pusher's write plan publishes every pass
        — found by content, the tuples' identities (:func:`element_ids`):
        a steady drain flattens and hashes no topic, and hands storage
        the same topics tuple every time.  The steady drain is one run
        (the samples of one instant) or two (an in-band host's operator
        outputs, published after the last drain, ahead of this instant's
        samples); a spill replay or a slow link makes more.  Runs are
        written in queue order, so each topic sees its readings in the
        order it would one at a time: the same stale and out-of-order
        drops."""
        t0 = time.perf_counter_ns()
        passes = self._queue.drain()
        if passes:
            stamps = [batch.timestamp for batch in passes]
            if stamps.count(stamps[0]) == len(stamps):
                self._write_run(passes, stamps[0])
            else:
                for stamp, run in groupby(passes, key=attrgetter("timestamp")):
                    self._write_run(list(run), stamp)
        self._sync_ingest_dropped()
        self._m_drain_latency.observe(time.perf_counter_ns() - t0)

    def _write_run(self, passes: List[ReadingBatch], ts: int) -> None:
        """Write ``passes``, all at ``ts``, as one run of columns."""
        parts = tuple([batch.topics for batch in passes])
        values = np.concatenate([batch.values for batch in passes])
        plan = plan_write(self._passes, self._drain_plan, parts)
        write_columns_at(plan.columns, ts, values, self._advance)
        self._storage.insert_columns_at(plan.topics, ts, values)
        self._m_forwarded.inc(len(values))

    def flush(self, ts: Optional[int] = None) -> None:
        """Drain immediately (used by on-demand REST handlers/tests)."""
        self._drain(ts if ts is not None else self.scheduler.clock.now)

    # ------------------------------------------------------------------
    # Host interface for Wintermute
    # ------------------------------------------------------------------

    def store_readings_batch(self, ts, readings: SensorColumns) -> None:
        """Store a whole pass's operator outputs in one call.

        ``readings`` are :class:`SensorColumns`, all at one timestamp.
        In a Collect Agent they go to the cache and are written to the
        Storage Backend directly (Section IV-a), never published: with a
        catch-all subscription they would loop back into the agent's own
        ingest queue and be stored twice.  They are written as a drain
        is, by the plan of the output sensors tuple.
        """
        sensors = readings.sensors
        if sensors:
            plan = plan_write(self._passes, self._output_plan, sensors)
            write_columns_at(plan.columns, ts, readings.values, self._advance)
            self._storage.insert_columns_at(plan.topics, ts, readings.values)

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
