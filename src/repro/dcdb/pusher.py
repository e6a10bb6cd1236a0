"""The DCDB Pusher.

A Pusher runs on every monitored component (typically a compute node),
hosts monitoring plugins that sample sensors at fixed intervals, keeps
recent readings in per-sensor caches, and publishes readings over MQTT
to a Collect Agent.  Wintermute operators can be co-located in a Pusher
for in-band, low-latency analysis (Section IV-a): the
:class:`~repro.core.manager.OperatorManager` attaches through
:meth:`attach_analytics` and reuses the Pusher's caches, scheduler,
publishing path and REST API.

Sampling-time accounting lives in the host's metric registry
(:mod:`repro.telemetry`): per-plugin sampling latency histograms, busy
and error counters, and collection-time cache gauges, all exposed over
``GET /metrics``.  The Fig 5 overhead benchmark derives its percentages
from these counters.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Dict, List, Optional

import numpy as np

from repro.common.errors import ConfigError, LinkDownError, PluginError
from repro.common.timeutil import NS_PER_SEC
from repro.dcdb.cache import (
    CacheSlab,
    PlanMemo,
    SensorCache,
    WritePlan,
    first_and_length,
    plan_columns,
    plan_write,
    register_cache_gauges,
    register_memo_gauges,
    write_columns_at,
)
from repro.dcdb.mqtt import Broker, PassQueue, ReadingBatch
from repro.dcdb.plugins.base import MonitoringPlugin
from repro.dcdb.resilience import ExponentialBackoff
from repro.dcdb.restapi import RestApi, RestResponse
from repro.dcdb.sensor import Sensor, SensorColumns
from repro.sanitizer import hooks
from repro.simulator.clock import TaskScheduler
from repro.telemetry import Histogram, MetricRegistry, register_metrics_route


class Pusher:
    """Sampling host for one monitored component.

    Args:
        name: host identifier (conventionally the node path it runs on).
        broker: MQTT broker readings are published to (possibly behind a
            :class:`~repro.dcdb.network.NetworkConditions` link).
        scheduler: shared task scheduler driving periodic sampling.
        cache_window_ns: retention of the per-sensor caches (the paper's
            experiments use 180 s).
        spill_capacity: bound, in readings, of the store-and-forward
            queue holding passes refused by a down link.
        spill_policy: overflow policy of that queue (``drop-oldest``
            default, or ``drop-newest``).
        retry_base_ns / retry_max_ns: exponential reconnect backoff
            bounds for re-publishing spilled readings.
        retry_seed: deterministic jitter seed for the retry backoff.
    """

    def __init__(
        self,
        name: str,
        broker: Broker,
        scheduler: TaskScheduler,
        cache_window_ns: int = 180 * NS_PER_SEC,
        spill_capacity: int = 8192,
        spill_policy: str = "drop-oldest",
        retry_base_ns: int = NS_PER_SEC // 2,
        retry_max_ns: int = 30 * NS_PER_SEC,
        retry_seed: int = 0,
    ) -> None:
        self.name = name
        self.broker = broker
        self.scheduler = scheduler
        self.cache_window_ns = int(cache_window_ns)
        # Store-and-forward state: refused passes land in the spill
        # queue and are replayed on reconnect.  Guarded by a sanitizer
        # seam lock — sampling tasks and retry tasks may run on
        # different threads under a WallClockDriver.
        self._spill = PassQueue(spill_capacity, spill_policy)
        self._spill_lock = hooks.make_lock("Pusher.spill")
        self._backoff = ExponentialBackoff(
            retry_base_ns, retry_max_ns, seed=retry_seed
        )
        self._retry_pending = False
        self._replaying = False
        self.caches: Dict[str, SensorCache] = {}
        self.sensors: Dict[str, Sensor] = {}
        #: Write plans by the sensors tuple they were planned for (see
        #: ``_store_pass``).
        self._plans = PlanMemo(first_and_length)
        self._plugins: Dict[str, MonitoringPlugin] = {}
        self._tasks: Dict[str, object] = {}
        self.rest = RestApi()
        self.telemetry = MetricRegistry()
        self._m_sampling_busy = self.telemetry.counter("sampling_busy_ns_total")
        self._m_sampling_errors = self.telemetry.counter(
            "sampling_errors_total"
        )
        self._m_plugin_latency: Dict[str, Histogram] = {}
        self._m_spill_buffered = self.telemetry.counter("spill_buffered_total")
        self._m_spill_replayed = self.telemetry.counter("spill_replayed_total")
        self._m_spill_dropped = self.telemetry.counter("spill_dropped_total")
        self._m_link_refusals = self.telemetry.counter("link_refusals_total")
        self.telemetry.gauge("spill_queue_depth", fn=lambda: len(self._spill))
        register_cache_gauges(self.telemetry, self.caches)
        register_memo_gauges(self.telemetry, {"pass": self._plans})
        self.last_sampling_errors: List[str] = []
        self.analytics: Optional[object] = None  # OperatorManager, if attached
        self._register_routes()

    # ------------------------------------------------------------------
    # Telemetry-backed counters (kept as attributes for compatibility)
    # ------------------------------------------------------------------

    @property
    def sampling_busy_ns(self) -> int:
        """Cumulative wall-clock ns spent inside plugin sampling."""
        return self._m_sampling_busy.value

    @property
    def sampling_errors(self) -> int:
        """Sampling passes that raised (the loop kept running)."""
        return self._m_sampling_errors.value

    # ------------------------------------------------------------------
    # Plugin management
    # ------------------------------------------------------------------

    def add_plugin(self, plugin: MonitoringPlugin) -> None:
        """Install a monitoring plugin: create caches, schedule sampling.

        The plugin's sensors are one sampling group — one interval, one
        read — and their rings share one slab.  Every topic is checked
        before anything is installed: a refused plugin leaves the host
        as it found it.
        """
        if plugin.name in self._plugins:
            raise ConfigError(f"duplicate monitoring plugin {plugin.name!r}")
        group = tuple(plugin.sensors())
        sensors = {}
        for sensor in group:
            if sensor.topic in self.sensors or sensor.topic in sensors:
                raise ConfigError(f"duplicate sensor topic {sensor.topic}")
            sensors[sensor.topic] = sensor
        self._allocate_caches(sensors, plugin.interval_ns)
        self._plugins[plugin.name] = plugin
        self._m_plugin_latency[plugin.name] = self.telemetry.histogram(
            "sampling_latency_ns", plugin=plugin.name
        )
        task = self.scheduler.add_callback(
            f"{self.name}:{plugin.name}",
            partial(self._sample_plugin, plugin, group),
            plugin.interval_ns,
        )
        self._tasks[plugin.name] = task

    def plugin(self, name: str) -> MonitoringPlugin:
        """Look up an installed plugin."""
        try:
            return self._plugins[name]
        except KeyError:
            raise PluginError(f"no monitoring plugin {name!r} on {self.name}") from None

    def plugins(self) -> List[str]:
        """Names of installed monitoring plugins."""
        return list(self._plugins)

    def set_plugin_enabled(self, name: str, enabled: bool) -> None:
        """Start or stop a plugin's sampling task."""
        if name not in self._plugins:
            raise PluginError(f"no monitoring plugin {name!r} on {self.name}")
        self._tasks[name].enabled = enabled

    def _sample_plugin(
        self, plugin: MonitoringPlugin, sensors: tuple, ts: int
    ) -> None:
        """One sampling pass: the plugin's array, stored whole or —
        when the plugin raises or returns the wrong length — not at all."""
        t0 = time.perf_counter_ns()
        try:
            values = plugin.sample(ts)
            if len(values) != len(sensors):
                raise PluginError(
                    f"sampled {len(values)} values for {len(sensors)} sensors"
                )
            self._store_pass(ts, sensors, np.asarray(values, dtype=np.float64))
        except Exception as exc:
            # A faulty plugin must not take down the sampling loop (or
            # the other plugins sharing it): count and continue.
            self._m_sampling_errors.inc()
            self.last_sampling_errors = (
                self.last_sampling_errors + [f"{plugin.name}@{ts}: {exc}"]
            )[-16:]
        elapsed = time.perf_counter_ns() - t0
        self._m_sampling_busy.inc(elapsed)
        self._m_plugin_latency[plugin.name].observe(elapsed)

    # ------------------------------------------------------------------
    # Data path (also used by Wintermute operator outputs)
    # ------------------------------------------------------------------

    def _allocate_caches(
        self, sensors: Dict[str, Sensor], interval_ns: int
    ) -> None:
        """Register ``sensors`` (by topic) on rings of one fresh slab."""
        slab = CacheSlab.sized_for(
            len(sensors), self.cache_window_ns, interval_ns
        )
        self.caches.update(zip(sensors, slab.rings(interval_ns)))
        self.sensors.update(sensors)

    def store_readings_batch(self, ts, readings: SensorColumns) -> None:
        """Store one pass — sampled readings or operator outputs.

        ``readings`` are :class:`SensorColumns`, all at one timestamp: an
        operator's outputs.  A monitoring plugin's sampling pass takes
        the same path without the wrapper (:meth:`_store_pass`).
        Operator outputs flow through the same code, which is what makes
        them "identical to all other sensor data" (Section IV-d) and
        thus usable as pipeline inputs downstream.
        """
        self._store_pass(ts, readings.sensors, readings.values)

    def _store_pass(self, ts: int, sensors: tuple, values: np.ndarray) -> None:
        """Store ``values`` (float64) of ``sensors``, all at ``ts``.

        The pass lands as one column per slab and its publishable
        readings leave as one :class:`ReadingBatch` — the plan's topics,
        ``ts`` and their values — both by the write plan of this sensors
        tuple (:meth:`_write_plan`): a plugin's group and an operator's
        outputs are one tuple every pass, found by identity; a new tuple
        by its first sensor and length, then compared.
        """
        if not sensors:
            return
        plan = plan_write(self._plans, self._write_plan, sensors)
        write_columns_at(plan.columns, ts, values)
        if plan.topics:
            if plan.published is not None:
                values = values[plan.published]
            self._publish_batch(ReadingBatch(plan.topics, ts, values))

    def _write_plan(self, sensors: tuple) -> WritePlan:
        """Where a pass of ``sensors`` lands: caches for the sensors that
        have none yet — operator outputs, registered with the host cache
        window the first time they are written, one slab per interval
        hint — then the columns (:func:`plan_columns`) and what is
        published."""
        new: Dict[int, Dict[str, Sensor]] = {}
        for sensor in sensors:
            if sensor.topic not in self.caches:
                interval = getattr(sensor, "interval_hint_ns", 0) or NS_PER_SEC
                new.setdefault(interval, {})[sensor.topic] = sensor
        for interval, group in new.items():
            self._allocate_caches(group, interval)
        caches = self.caches
        columns = plan_columns([caches[sensor.topic] for sensor in sensors])
        published = [i for i, sensor in enumerate(sensors) if sensor.publish]
        return WritePlan(
            tuple(sensors[i].topic for i in published), columns,
            None if len(published) == len(sensors) else np.array(published, dtype=np.intp),
        )

    # ------------------------------------------------------------------
    # Store-and-forward publish path
    # ------------------------------------------------------------------

    @property
    def spill_depth(self) -> int:
        """Readings buffered for re-publication on reconnect."""
        with self._spill_lock:
            return len(self._spill)

    def _publish_batch(self, batch: ReadingBatch) -> None:
        # While spilled readings await replay, new publishes must line
        # up behind them — bypassing the queue would reorder the stream
        # and the agent's caches would drop the late replays as stale.
        with self._spill_lock:
            refused = batch if self._replaying or len(self._spill) else None
        if refused is None:
            try:
                self.broker.publish_batch(batch)
                return
            except LinkDownError as exc:
                refused = exc.refused or batch
                self._m_link_refusals.inc(len(refused))
        self._spill_batch(refused)
        self._schedule_retry()

    def _spill_batch(self, batch: ReadingBatch) -> None:
        """Spill a refused pass whole; the bound sheds per reading."""
        with self._spill_lock:
            shed = self._spill.push(batch)
            # drop-oldest takes in every reading (each evicts an older one)
            kept_out = shed if self._spill.policy == "drop-newest" else 0
        self._m_spill_dropped.inc(shed)
        self._m_spill_buffered.inc(len(batch) - kept_out)

    def _schedule_retry(self) -> None:
        with self._spill_lock:
            if self._retry_pending or not len(self._spill):
                return
            self._retry_pending = True
            delay = self._backoff.next_delay()
        self.scheduler.add_once(
            f"{self.name}:spill-retry",
            self._replay_spill,
            self.scheduler.clock.now + delay,
        )

    def _replay_spill(self, ts: int) -> None:
        """Re-publish spilled passes in order, one ``publish_batch`` per
        pass; on refusal, put back at the head what the link refused
        (what it accepted is delivered, as on the live path) and back
        off.

        At most one replay may drain the queue at a time: a scheduled
        retry racing a ``flush_spill()`` from another thread would
        interleave their ``popleft``/publish pairs and break the
        in-order replay guarantee, so late-comers yield to the owner.
        """
        with self._spill_lock:
            self._retry_pending = False
            if self._replaying:
                return  # a concurrent replay already owns the queue
            self._replaying = True
        try:
            while True:
                with self._spill_lock:
                    head = self._spill.pop()
                    if head is None:
                        self._backoff.reset()
                        return
                try:
                    self.broker.publish_batch(head)
                except LinkDownError as exc:
                    refused = exc.refused or head
                    self._m_link_refusals.inc(len(refused))
                    self._m_spill_replayed.inc(len(head) - len(refused))
                    with self._spill_lock:
                        self._spill.push_front(refused)
                    self._schedule_retry()
                    return
                self._m_spill_replayed.inc(len(head))
        finally:
            with self._spill_lock:
                self._replaying = False

    def flush_spill(self) -> int:
        """Attempt an immediate replay; returns the remaining depth."""
        self._replay_spill(self.scheduler.clock.now)
        return self.spill_depth

    def cache_for(self, topic: str) -> Optional[SensorCache]:
        """The cache holding ``topic``'s readings, if locally present."""
        return self.caches.get(topic)

    def sensor_topics(self) -> List[str]:
        """All topics visible on this host (sampled + operator outputs)."""
        return list(self.caches.keys())

    @property
    def storage(self):
        """Pushers have no storage backend; operators fall back to None."""
        return None

    # ------------------------------------------------------------------
    # Analytics integration
    # ------------------------------------------------------------------

    def attach_analytics(self, manager) -> None:
        """Attach a Wintermute OperatorManager to this host."""
        self.analytics = manager
        manager.bind_host(self)

    # ------------------------------------------------------------------
    # REST API
    # ------------------------------------------------------------------

    def _register_routes(self) -> None:
        self.rest.register("GET", "/plugins", self._route_plugins)
        self.rest.register("GET", "/sensors", self._route_sensors)
        self.rest.register("PUT", "/plugins", self._route_plugin_action)
        register_metrics_route(self.rest, self.telemetry)

    def _route_plugins(self, request) -> RestResponse:
        return RestResponse.json({"plugins": self.plugins()})

    def _route_sensors(self, request) -> RestResponse:
        return RestResponse.json({"sensors": sorted(self.sensor_topics())})

    def _route_plugin_action(self, request) -> RestResponse:
        parts = request.path.strip("/").split("/")
        if len(parts) != 3 or parts[2] not in ("start", "stop"):
            return RestResponse.error(
                "expected /plugins/<name>/{start|stop}", 400
            )
        name, action = parts[1], parts[2]
        try:
            self.set_plugin_enabled(name, action == "start")
        except PluginError as exc:
            return RestResponse.error(str(exc), 404)
        return RestResponse.json({"plugin": name, "action": action})
