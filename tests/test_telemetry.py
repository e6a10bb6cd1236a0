"""Tests for the telemetry subsystem: registry semantics, Prometheus
exposition, the ``GET /metrics`` REST route, and end-to-end agreement
between component-level statistics and the registry they are backed by."""

import math
import re

import pytest

from repro.common.timeutil import NS_PER_SEC
from repro.core.manager import OperatorManager
from repro.core.operator import OperatorConfig
from repro.core.units import Unit
from repro.core.queryengine import QueryEngine
from repro.dcdb import Broker, CollectAgent, Pusher
from repro.dcdb.cache import SensorCache
from repro.dcdb.plugins import TesterMonitoringPlugin
from repro.dcdb.restapi import RestApi
from repro.dcdb.storage import StorageBackend
from repro.plugins.tester import TesterOperator
from repro.simulator.clock import TaskScheduler
from repro.telemetry import (
    LATENCY_BUCKETS_NS,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    overhead_report,
    register_metrics_route,
    render_prometheus,
    time_histogram,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("events_total", {})
        assert c.value == 0
        c.inc()
        c.inc(41)
        assert c.value == 42

    def test_negative_increment_rejected(self):
        c = Counter("events_total", {})
        with pytest.raises(ValueError):
            c.inc(-1)
        assert c.value == 0  # monotonicity preserved after the error

    def test_sample_shape(self):
        c = Counter("events_total", {"op": "x"})
        c.inc(3)
        assert c.sample() == {
            "name": "events_total",
            "type": "counter",
            "labels": {"op": "x"},
            "value": 3,
        }


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("depth", {})
        g.set(10.0)
        g.inc(5.0)
        g.dec(2.0)
        assert g.value == 13.0

    def test_callback_gauge_evaluates_lazily(self):
        box = {"v": 1}
        g = Gauge("depth", {}, fn=lambda: box["v"])
        assert g.value == 1.0
        box["v"] = 7
        assert g.value == 7.0

    def test_callback_gauge_rejects_set(self):
        g = Gauge("depth", {}, fn=lambda: 0)
        with pytest.raises(ValueError):
            g.set(1.0)


class TestHistogram:
    def test_bucket_boundaries_are_inclusive_upper_edges(self):
        h = Histogram("lat", {}, buckets=(10, 100))
        h.observe(10)    # on the first edge -> first bucket
        h.observe(11)    # just past it -> second bucket
        h.observe(100)   # on the second edge -> second bucket
        h.observe(101)   # past every edge -> overflow
        assert h.bucket_counts() == [1, 2, 1]
        assert h.cumulative_buckets() == [
            (10.0, 1), (100.0, 3), (float("inf"), 4)
        ]

    def test_count_sum_mean_min_max(self):
        h = Histogram("lat", {}, buckets=(1_000,))
        for v in (100, 200, 300):
            h.observe(v)
        assert h.count == 3
        assert h.sum == 600
        assert h.mean == 200
        assert math.isnan(Histogram("e", {}, buckets=(1,)).mean)

    def test_default_latency_ladder(self):
        h = Histogram("lat", {})
        assert h.bounds == [float(b) for b in LATENCY_BUCKETS_NS]

    def test_quantile_upper_edge(self):
        h = Histogram("lat", {}, buckets=(10, 100, 1000))
        for _ in range(9):
            h.observe(5)
        h.observe(500)
        assert h.quantile(0.5) == 10.0
        assert h.quantile(1.0) == 1000.0

    def test_merge_requires_same_layout(self):
        a = Histogram("lat", {}, buckets=(10,))
        b = Histogram("lat", {}, buckets=(10, 100))
        with pytest.raises(ValueError):
            a.merge(b)

    def test_timer_context_observes_once(self):
        h = Histogram("lat", {})
        with time_histogram(h):
            pass
        assert h.count == 1
        assert h.sum > 0


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricRegistry()
        assert reg.counter("c") is reg.counter("c")
        assert reg.counter("c", op="x") is not reg.counter("c", op="y")
        assert reg.histogram("h", mode="a") is reg.histogram("h", mode="a")

    def test_label_order_is_irrelevant(self):
        reg = MetricRegistry()
        a = reg.counter("c", x="1", y="2")
        b = reg.counter("c", y="2", x="1")
        assert a is b

    def test_type_conflict_rejected(self):
        reg = MetricRegistry()
        reg.counter("m")
        with pytest.raises(ValueError):
            reg.gauge("m")

    def test_contains_and_len(self):
        reg = MetricRegistry()
        reg.counter("a")
        reg.counter("a", op="x")
        reg.gauge("b")
        assert len(reg) == 3
        assert "a" in reg and "b" in reg and "z" not in reg

    def test_absorb_folds_counters_and_histograms(self):
        private, shared = MetricRegistry(), MetricRegistry()
        private.counter("c", op="x").inc(5)
        private.histogram("h").observe(123)
        shared.counter("c", op="x").inc(1)
        shared.absorb(private)
        assert shared.counter("c", op="x").value == 6
        assert shared.histogram("h").count == 1
        assert shared.histogram("h").sum == 123


class TestPrometheusExposition:
    def make_registry(self):
        reg = MetricRegistry()
        reg.counter("events_total", op="a\\b\"c\nd").inc(2)
        reg.gauge("depth", fn=lambda: 4)
        reg.histogram("lat_ns", buckets=(10, 100)).observe(50)
        return reg

    def test_type_lines_and_series(self):
        page = render_prometheus(self.make_registry())
        assert "# TYPE events_total counter" in page
        assert "# TYPE depth gauge" in page
        assert "# TYPE lat_ns histogram" in page
        assert 'lat_ns_bucket{le="10"} 0' in page
        assert 'lat_ns_bucket{le="100"} 1' in page
        assert 'lat_ns_bucket{le="+Inf"} 1' in page
        assert "lat_ns_sum 50" in page
        assert "lat_ns_count 1" in page
        assert page.endswith("\n")

    def test_label_escaping(self):
        page = render_prometheus(self.make_registry())
        assert 'op="a\\\\b\\"c\\nd"' in page

    def test_match_filters_by_name(self):
        page = render_prometheus(self.make_registry(), match="^lat")
        assert "lat_ns_count" in page
        assert "events_total" not in page


class TestMetricsRoute:
    def make_api(self):
        reg = MetricRegistry()
        reg.counter("events_total").inc(7)
        reg.histogram("lat_ns", buckets=(10,)).observe(3)
        rest = RestApi()
        register_metrics_route(rest, reg)
        return rest

    def test_json_round_trip(self):
        resp = self.make_api().get("/metrics")
        assert resp.ok
        by_name = {m["name"]: m for m in resp.body["metrics"]}
        assert by_name["events_total"]["value"] == 7
        assert by_name["lat_ns"]["count"] == 1

    def test_prometheus_format(self):
        resp = self.make_api().get("/metrics", format="prometheus")
        assert resp.ok
        assert resp.body["content_type"].startswith("text/plain")
        assert "events_total 7" in resp.body["exposition"]

    def test_match_filter(self):
        resp = self.make_api().get("/metrics", match="^lat")
        assert [m["name"] for m in resp.body["metrics"]] == ["lat_ns"]

    def test_bad_match_is_400(self):
        resp = self.make_api().get("/metrics", match="(")
        assert resp.status == 400

    def test_bad_format_is_400(self):
        resp = self.make_api().get("/metrics", format="xml")
        assert resp.status == 400


class FakeHost:
    """Minimal Query Engine host without a telemetry attribute."""

    def __init__(self, storage=None):
        self.caches = {}
        self._storage = storage

    def cache_for(self, topic):
        return self.caches.get(topic)

    @property
    def storage(self):
        return self._storage

    def sensor_topics(self):
        return sorted(self.caches)


def filled_cache(n=10):
    c = SensorCache(64, interval_ns=NS_PER_SEC)
    for i in range(n):
        c.store(i * NS_PER_SEC, float(i))
    return c


class TestQueryEngineTelemetry:
    def test_counters_match_attributes(self):
        """The public cache_hits/storage_fallbacks/misses attributes are
        views over the registry counters — they must agree exactly."""
        storage = StorageBackend()
        for i in range(5):
            storage.insert("/stored", i * NS_PER_SEC, float(i))
        host = FakeHost(storage)
        host.caches["/a"] = filled_cache()
        qe = QueryEngine(host)

        qe.query_relative("/a", 3 * NS_PER_SEC)          # cache hit
        qe.query_relative("/stored", 3 * NS_PER_SEC)     # storage fallback
        with pytest.raises(Exception):
            qe.query_relative("/absent", NS_PER_SEC)     # miss

        reg = qe.telemetry
        assert qe.cache_hits == reg.counter("qe_cache_hits_total").value == 1
        assert (qe.storage_fallbacks
                == reg.counter("qe_storage_fallbacks_total").value == 1)
        assert qe.misses == reg.counter("qe_misses_total").value == 1

    def test_query_latency_histograms_per_mode(self):
        host = FakeHost()
        host.caches["/a"] = filled_cache()
        qe = QueryEngine(host)
        qe.query_relative("/a", 3 * NS_PER_SEC)
        qe.query_relative("/a", 3 * NS_PER_SEC)
        qe.query_absolute("/a", 0, 3 * NS_PER_SEC)
        reg = qe.telemetry
        assert reg.histogram("qe_query_latency_ns", mode="relative").count == 2
        assert reg.histogram("qe_query_latency_ns", mode="absolute").count == 1

    def test_gather_path_is_visible_on_the_metrics_page(self):
        """"Is my operator on the fast path" without a tracer: the rows
        of the cached plans by kind, and the rows that failed their
        per-pass check."""
        agent = CollectAgent("agent", Broker(), TaskScheduler())
        for i in range(6):
            agent.broker.publish("/n/a", float(i), i * NS_PER_SEC)
        agent.flush()
        agent.storage.insert("/n/stored", 0, 1.0)  # no cache: another source
        qe = QueryEngine(agent)
        assert qe.telemetry is agent.telemetry

        def page():
            metrics = agent.rest.get("/metrics", match="qe_").body["metrics"]
            rows = {
                m["labels"]["kind"]: m["value"]
                for m in metrics if m["name"] == "qe_plan_rows"
            }
            violations = [
                m["value"] for m in metrics
                if m["name"] == "qe_hint_violations_total"
            ]
            return rows, violations

        assert page() == ({"ring": 0, "scalar": 0, "miss": 0}, [0])
        qe.query_relative_batch(["/n/a", "/n/stored"], 3 * NS_PER_SEC, key="op")
        qe.query_relative_batch(["/n/a"], 0, key="latest")
        assert page() == ({"ring": 2, "scalar": 1, "miss": 0}, [0])
        assert qe._plans["op"].n_cache_rows == 1

        # A ring nobody measured the arrival gap of is gathered short,
        # caught by the check, re-read — and counted.
        raw = agent.caches["/n/raw"] = SensorCache(64)
        for i in range(10):
            raw.store(i * NS_PER_SEC, float(i))
        win = qe.query_relative_batch(["/n/raw"], 3 * NS_PER_SEC, key="raw")
        assert win.counts.tolist() == [4]
        assert page() == ({"ring": 3, "scalar": 1, "miss": 0}, [1])

        host = FakeHost()  # no storage: an absent topic is a miss row
        host.caches["/a"] = filled_cache()
        qe = QueryEngine(host)
        qe.query_relative_batch(["/a", "/absent"], NS_PER_SEC, key="op")
        assert qe.telemetry.gauge("qe_plan_rows", kind="miss").value == 1
        assert qe.telemetry.gauge("qe_plan_rows", kind="ring").value == 1

    def test_host_registry_shared_when_available(self):
        host = FakeHost()
        host.caches["/a"] = filled_cache()
        host.telemetry = MetricRegistry()
        qe = QueryEngine(host)
        assert qe.telemetry is host.telemetry
        qe.query_relative("/a", 3 * NS_PER_SEC)
        assert host.telemetry.counter("qe_cache_hits_total").value == 1


class TestEndToEnd:
    """A live Pusher + Collect Agent expose coherent /metrics pages."""

    @pytest.fixture()
    def stack(self):
        scheduler = TaskScheduler()
        broker = Broker()
        pusher = Pusher("/r0/c0/n0", broker, scheduler)
        pusher.add_plugin(
            TesterMonitoringPlugin("/r0/c0/n0", n_sensors=5, publish=True)
        )
        agent = CollectAgent("agent", broker, scheduler)
        manager = OperatorManager()
        pusher.attach_analytics(manager)
        cfg = OperatorConfig(
            name="t0",
            params={"queries": 3, "query_mode": "relative",
                    "range_ms": 2_000},
            publish_outputs=False,
        )
        op = TesterOperator(cfg)
        op.bind(pusher, pusher.analytics.engine)
        op.set_units([
            Unit(
                name="/r0/c0/n0",
                level=0,
                inputs=sorted(pusher.sensor_topics()),
                outputs=[],
            )
        ])
        scheduler.run_until(10 * NS_PER_SEC)
        return pusher, agent, manager, op, scheduler

    def test_pusher_metrics_page(self, stack):
        pusher, agent, manager, op, scheduler = stack
        resp = pusher.rest.get("/metrics")
        assert resp.ok
        names = {m["name"] for m in resp.body["metrics"]}
        assert "sampling_busy_ns_total" in names
        assert "sampling_latency_ns" in names
        assert "cache_occupancy_readings" in names
        by_name = {m["name"]: m for m in resp.body["metrics"]}
        assert by_name["cache_sensor_count"]["value"] == 5
        assert by_name["sampling_busy_ns_total"]["value"] > 0

    def test_operator_latency_on_pusher_page(self, stack):
        pusher, agent, manager, op, scheduler = stack
        op.start()
        op.compute(scheduler.clock.now)
        resp = pusher.rest.get("/metrics", match="operator_")
        series = {
            (m["name"], m["labels"].get("operator"))
            for m in resp.body["metrics"]
        }
        assert ("operator_compute_latency_ns", "t0") in series
        assert ("operator_computes_total", "t0") in series
        hist = pusher.telemetry.histogram(
            "operator_compute_latency_ns", operator="t0"
        )
        assert hist.count == op.compute_count == 1
        assert op.busy_ns == hist.sum

    def test_agent_metrics_page(self, stack):
        pusher, agent, manager, op, scheduler = stack
        agent.flush()
        resp = agent.rest.get("/metrics")
        assert resp.ok
        by_name = {m["name"]: m for m in resp.body["metrics"]}
        assert by_name["forwarded_readings_total"]["value"] > 0
        assert by_name["forwarded_readings_total"]["value"] == \
            agent.forwarded_count
        assert by_name["drain_latency_ns"]["count"] > 0
        assert by_name["storage_stored_readings"]["value"] > 0

    def test_overhead_report_from_live_registry(self, stack):
        pusher, agent, manager, op, scheduler = stack
        report = overhead_report(
            pusher.telemetry, elapsed_ns=10 * NS_PER_SEC
        )
        assert report["sampling_busy_ns"] > 0
        assert 0 < report["sampling_overhead_pct"] < 100
        assert report["gauges"]["cache_sensor_count"] == 5
