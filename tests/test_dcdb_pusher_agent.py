"""Tests for the Pusher and Collect Agent data paths."""

import sys
from collections import Counter

import numpy as np
import pytest

from repro.common.errors import ConfigError, PluginError
from repro.common.timeutil import NS_PER_SEC
from repro.dcdb import Broker, CollectAgent, Pusher
from repro.dcdb.plugins import TesterMonitoringPlugin
from repro.dcdb.plugins.base import MonitoringPlugin
from repro.dcdb.sensor import Sensor, SensorColumns
from repro.simulator.clock import TaskScheduler
from tests.hosts import store_one


@pytest.fixture
def rig():
    class NS:
        pass

    ns = NS()
    ns.scheduler = TaskScheduler()
    ns.broker = Broker()
    ns.pusher = Pusher("/r0/c0/n0", ns.broker, ns.scheduler)
    ns.agent = CollectAgent("agent", ns.broker, ns.scheduler)
    return ns


class TestPusherSampling:
    def test_plugin_sensors_get_caches(self, rig):
        plugin = TesterMonitoringPlugin("/r0/c0/n0", n_sensors=5)
        rig.pusher.add_plugin(plugin)
        assert len(rig.pusher.sensor_topics()) == 5
        for topic in rig.pusher.sensor_topics():
            assert rig.pusher.cache_for(topic) is not None

    def test_sampling_fills_caches(self, rig):
        rig.pusher.add_plugin(TesterMonitoringPlugin("/r0/c0/n0", n_sensors=3))
        rig.scheduler.run_until(5 * NS_PER_SEC)
        cache = rig.pusher.cache_for("/r0/c0/n0/tester0000")
        assert len(cache) == 6  # t=0..5 inclusive
        assert cache.latest().value == 6.0  # monotonic counter

    def test_duplicate_plugin_rejected(self, rig):
        rig.pusher.add_plugin(TesterMonitoringPlugin("/r0/c0/n0", n_sensors=1))
        with pytest.raises(ConfigError):
            rig.pusher.add_plugin(
                TesterMonitoringPlugin("/r0/c0/n1", n_sensors=1)
            )

    def test_duplicate_sensor_rejected(self, rig):
        rig.pusher.add_plugin(TesterMonitoringPlugin("/r0/c0/n0", n_sensors=1))
        p2 = TesterMonitoringPlugin("/r0/c0/n0", n_sensors=1)
        p2.name = "tester2"
        with pytest.raises(ConfigError):
            rig.pusher.add_plugin(p2)

    def test_refused_plugin_leaves_the_host_as_it_found_it(self, rig):
        """The third sensor collides: nothing of the first two may stay
        (they used to, cached and listed, and a corrected retry then
        failed on its own first sensor)."""
        pusher = rig.pusher
        pusher.add_plugin(TesterMonitoringPlugin("/r0/c0/n0", n_sensors=1))

        def state():
            return (
                pusher.plugins(), sorted(pusher.sensor_topics()),
                sorted(pusher.sensors), sorted(pusher.caches),
                pusher.rest.get("/sensors").body, sorted(pusher._tasks),
            )

        class Extra(MonitoringPlugin):
            def __init__(self, names):
                super().__init__("extra")
                for name in names:
                    self._register(Sensor(f"/r0/c0/n0/{name}"))

            def sample(self, ts):
                return np.ones(len(self.sensors()))

        before = state()
        with pytest.raises(ConfigError, match="duplicate sensor topic"):
            pusher.add_plugin(Extra(["x0", "x1", "tester0000"]))
        assert state() == before
        # ... so the corrected plugin installs, and samples.
        pusher.add_plugin(Extra(["x0", "x1", "x2"]))
        assert pusher.plugins() == ["tester", "extra"]
        rig.scheduler.run_until(2 * NS_PER_SEC)
        assert len(pusher.cache_for("/r0/c0/n0/x0")) == 3

        class Twice(Extra):
            def __init__(self):
                super().__init__(["y0", "y1", "y0"])
                self.name = "twice"

        before = state()
        with pytest.raises(ConfigError, match="duplicate sensor topic"):
            pusher.add_plugin(Twice())
        assert state() == before

    def test_plugin_sensors_share_one_slab(self, rig):
        """Storage follows the sampling group: one plugin, one slab;
        another plugin, another; lazily registered outputs of one pass,
        a third — which a sensor brought twice in one pass leaves."""
        pusher = rig.pusher
        pusher.add_plugin(TesterMonitoringPlugin("/r0/c0/n0", n_sensors=5))
        slabs = {pusher.cache_for(t).slab for t in pusher.sensor_topics()}
        assert len(slabs) == 1
        assert sorted(
            pusher.cache_for(t).row for t in pusher.sensor_topics()
        ) == list(range(5))
        outs = [Sensor(f"/r0/c0/n0/out{i}", is_operator_output=True) for i in range(3)]
        pusher.store_readings_batch(0, SensorColumns(tuple(outs), [1.0] * 3))
        out_slabs = {pusher.cache_for(s.topic).slab for s in outs}
        assert len(out_slabs) == 1 and not out_slabs & slabs
        assert pusher.sensors[outs[1].topic] is outs[1]
        pusher.store_readings_batch(
            1, SensorColumns((*outs, outs[0]), [2.0, 2.0, 2.0, 3.0])
        )
        twice = pusher.cache_for(outs[0].topic)
        assert len(twice) == 3 and twice.slab not in out_slabs
        assert twice.view_absolute(0, 1).values().tolist() == [1.0, 2.0, 3.0]
        assert {pusher.cache_for(s.topic).slab for s in outs[1:]} == out_slabs
        # A later pass brings one more output: its own slab.
        late = Sensor("/r0/c0/n0/late", is_operator_output=True)
        pusher.store_readings_batch(
            NS_PER_SEC, SensorColumns((outs[0], late), [3.0, 1.0])
        )
        assert pusher.cache_for(late.topic).slab not in out_slabs | slabs

    def test_cache_memory_counts_every_slab_once(self, rig):
        pusher = rig.pusher
        pusher.add_plugin(TesterMonitoringPlugin("/r0/c0/n0", n_sensors=4))
        gauge = pusher.telemetry.gauge("cache_memory_bytes")
        cache = pusher.cache_for("/r0/c0/n0/tester0000")
        slab = cache.slab
        # One timestamp vector and four value rows.
        assert gauge.value == slab.memory_bytes() == (1 + 4) * cache.memory_bytes()
        # A resized ring moves out; the row it left is still allocated.
        cache.resize(cache.capacity * 2)
        assert cache.slab is not slab and slab.epoch == 1
        assert gauge.value == slab.memory_bytes() + cache.slab.memory_bytes()

    def test_stop_start_plugin(self, rig):
        rig.pusher.add_plugin(TesterMonitoringPlugin("/r0/c0/n0", n_sensors=1))
        rig.scheduler.run_until(2 * NS_PER_SEC)
        rig.pusher.set_plugin_enabled("tester", False)
        before = len(rig.pusher.cache_for("/r0/c0/n0/tester0000"))
        rig.scheduler.run_until(5 * NS_PER_SEC)
        assert len(rig.pusher.cache_for("/r0/c0/n0/tester0000")) == before
        rig.pusher.set_plugin_enabled("tester", True)
        rig.scheduler.run_until(7 * NS_PER_SEC)
        assert len(rig.pusher.cache_for("/r0/c0/n0/tester0000")) > before

    def test_unknown_plugin_errors(self, rig):
        with pytest.raises(PluginError):
            rig.pusher.plugin("nope")
        with pytest.raises(PluginError):
            rig.pusher.set_plugin_enabled("nope", True)

    def test_sampling_busy_time_recorded(self, rig):
        rig.pusher.add_plugin(TesterMonitoringPlugin("/r0/c0/n0", n_sensors=10))
        rig.scheduler.run_until(3 * NS_PER_SEC)
        assert rig.pusher.sampling_busy_ns > 0


class TestOperatorOutputPath:
    def test_store_reading_creates_lazy_cache(self, rig):
        sensor = Sensor("/r0/c0/n0/derived", is_operator_output=True)
        store_one(rig.pusher, sensor, 10, 3.5)
        cache = rig.pusher.cache_for("/r0/c0/n0/derived")
        assert cache is not None
        assert cache.latest().value == 3.5

    def test_unpublished_sensor_stays_local(self, rig):
        sensor = Sensor("/r0/c0/n0/local", publish=False)
        store_one(rig.pusher, sensor, 10, 1.0)
        rig.agent.flush()
        assert rig.agent.storage.count("/r0/c0/n0/local") == 0

    def test_published_sensor_reaches_agent(self, rig):
        sensor = Sensor("/r0/c0/n0/remote", publish=True)
        store_one(rig.pusher, sensor, 10, 1.0)
        rig.agent.flush()
        assert rig.agent.storage.count("/r0/c0/n0/remote") == 1


    def test_the_wire_owns_its_values(self, rig):
        # The producer overwrites its array after the call returns and
        # before the agent drains: the agent keeps what was sent.
        sensors = (Sensor("/r0/c0/n0/a"), Sensor("/r0/c0/n0/b"))
        values = np.array([1.0, 2.0])
        rig.pusher.store_readings_batch(10, SensorColumns(sensors, values))
        values[:] = -1.0
        rig.agent.flush()
        for sensor, value in zip(sensors, (1.0, 2.0)):
            assert rig.agent.cache_for(sensor.topic).latest().value == value
            _, stored = rig.agent.storage.query(sensor.topic, 0, 20)
            assert stored.tolist() == [value]


class TestCollectAgent:
    def test_forwarding_to_storage(self, rig):
        rig.pusher.add_plugin(TesterMonitoringPlugin("/r0/c0/n0", n_sensors=2))
        rig.scheduler.run_until(5 * NS_PER_SEC)
        # One drain may lag a tick; flush to settle.
        rig.agent.flush()
        assert rig.agent.storage.count("/r0/c0/n0/tester0000") >= 5
        assert rig.agent.forwarded_count >= 10

    def test_agent_caches_mirror_traffic(self, rig):
        rig.pusher.add_plugin(TesterMonitoringPlugin("/r0/c0/n0", n_sensors=1))
        rig.scheduler.run_until(3 * NS_PER_SEC)
        rig.agent.flush()
        cache = rig.agent.cache_for("/r0/c0/n0/tester0000")
        assert cache is not None and len(cache) >= 3

    def test_agent_storage_fallback_has_everything(self, rig):
        rig.pusher.add_plugin(TesterMonitoringPlugin("/r0/c0/n0", n_sensors=1))
        rig.scheduler.run_until(3 * NS_PER_SEC)
        rig.agent.flush()
        assert "/r0/c0/n0/tester0000" in rig.agent.sensor_topics()

    def test_subscribe_pattern_scopes_agent(self):
        scheduler = TaskScheduler()
        broker = Broker()
        pusher = Pusher("/r0/c0/n0", broker, scheduler)
        agent = CollectAgent(
            "agent", broker, scheduler, subscribe_pattern="/r1/#"
        )
        pusher.add_plugin(TesterMonitoringPlugin("/r0/c0/n0", n_sensors=1))
        scheduler.run_until(3 * NS_PER_SEC)
        agent.flush()
        assert agent.storage.total_readings() == 0

    def test_rest_stats(self, rig):
        rig.pusher.add_plugin(TesterMonitoringPlugin("/r0/c0/n0", n_sensors=1))
        rig.scheduler.run_until(2 * NS_PER_SEC)
        rig.agent.flush()
        resp = rig.agent.rest.get("/stats")
        assert resp.ok
        assert resp.body["forwarded"] >= 2


class TestPusherRest:
    def test_plugin_listing(self, rig):
        rig.pusher.add_plugin(TesterMonitoringPlugin("/r0/c0/n0", n_sensors=1))
        assert rig.pusher.rest.get("/plugins").body == {"plugins": ["tester"]}

    def test_sensor_listing(self, rig):
        rig.pusher.add_plugin(TesterMonitoringPlugin("/r0/c0/n0", n_sensors=2))
        body = rig.pusher.rest.get("/sensors").body
        assert len(body["sensors"]) == 2

    def test_stop_via_rest(self, rig):
        rig.pusher.add_plugin(TesterMonitoringPlugin("/r0/c0/n0", n_sensors=1))
        resp = rig.pusher.rest.put("/plugins/tester/stop")
        assert resp.ok
        rig.scheduler.run_until(3 * NS_PER_SEC)
        assert len(rig.pusher.cache_for("/r0/c0/n0/tester0000")) == 0

    def test_bad_plugin_action_404(self, rig):
        assert rig.pusher.rest.put("/plugins/nope/start").status == 404

    def test_malformed_action_400(self, rig):
        assert rig.pusher.rest.put("/plugins/tester/explode").status == 400


class TestConstantWorkPerPass:
    """A steady hop costs the same Python work whatever its width: the
    calls a sampled pass and a drain make, counted by ``sys.setprofile``
    (no timing), are equal at 40 and at 400 sensors per Pusher."""

    PUSHERS = 3

    @staticmethod
    def calls_of(fn, *args):
        """Python and C function calls ``fn(*args)`` makes."""
        counts = Counter()

        def profile(frame, event, arg):
            if event in ("call", "c_call"):
                counts[event] += 1

        sys.setprofile(profile)
        try:
            fn(*args)
        finally:
            sys.setprofile(None)
        return dict(counts)

    def steady_hops(self, sensors):
        scheduler = TaskScheduler()
        broker = Broker()
        agent = CollectAgent("agent", broker, scheduler)
        pushers = []
        for i in range(self.PUSHERS):
            pusher = Pusher(f"/r0/c0/n{i}", broker, scheduler)
            pusher.add_plugin(
                TesterMonitoringPlugin(f"/r0/c0/n{i}", n_sensors=sensors)
            )
            pushers.append(pusher)
        scheduler.run_until(5 * NS_PER_SEC)  # plans, routes, rings exist
        agent.flush()
        agent._drain_task.enabled = False
        for pusher in pushers:
            pusher._tasks["tester"].enabled = False
        ts = 6 * NS_PER_SEC
        scheduler.run_until(ts)
        plugin = pushers[0].plugin("tester")
        group = tuple(plugin.sensors())
        sampled = self.calls_of(pushers[0]._sample_plugin, plugin, group, ts)
        for pusher in pushers[1:]:
            pusher._sample_plugin(pusher.plugin("tester"), tuple(
                pusher.plugin("tester").sensors()), ts)
        stored = agent.storage.insert_count
        drained = self.calls_of(agent.flush, ts)
        assert agent.storage.insert_count - stored == self.PUSHERS * sensors
        assert pushers[0].sampling_errors == 0
        return sampled, drained

    def test_a_steady_pass_and_drain_cost_the_same_at_any_width(self):
        narrow, wide = self.steady_hops(40), self.steady_hops(400)
        assert narrow == wide

    def two_instant_drain(self, sensors, monkeypatch):
        """The calls of a drain whose queue holds every Pusher's operator
        outputs at t - 1 ahead of its samples at t — an in-band host's
        steady drain — and the pass-plan compiles it made."""
        scheduler = TaskScheduler()
        broker = Broker()
        agent = CollectAgent("agent", broker, scheduler)
        agent._drain_task.enabled = False
        pushers = []
        for i in range(self.PUSHERS):
            pusher = Pusher(f"/r0/c0/n{i}", broker, scheduler)
            pusher.add_plugin(
                TesterMonitoringPlugin(f"/r0/c0/n{i}", n_sensors=sensors)
            )
            pusher._tasks["tester"].enabled = False
            outputs = tuple(
                Sensor(f"/r0/c0/n{i}/out{k:04d}") for k in range(sensors)
            )
            pushers.append((pusher, tuple(pusher.plugin("tester").sensors()),
                            outputs))

        def queue(ts):
            for pusher, group, outputs in pushers:
                pusher.store_readings_batch(ts - NS_PER_SEC, SensorColumns(
                    outputs, np.full(len(outputs), float(ts))
                ))
            for pusher, group, _ in pushers:
                pusher._sample_plugin(pusher.plugin("tester"), group, ts)

        def refused(*args):
            raise AssertionError("a drain took the per-reading path")

        monkeypatch.setattr(CollectAgent, "_ingest", refused)
        compiles = agent.telemetry.get("plan_memo_compiles", memo="pass")
        for second in (5, 6):  # plans, routes, rings exist
            queue(second * NS_PER_SEC)
            agent.flush(second * NS_PER_SEC)
        warm = compiles.value
        queue(7 * NS_PER_SEC)
        stored = agent.storage.insert_count
        drained = self.calls_of(agent.flush, 7 * NS_PER_SEC)
        assert agent.storage.insert_count - stored == 2 * self.PUSHERS * sensors
        assert compiles.value == warm
        assert agent.storage.ooo_dropped == 0
        return drained

    def test_a_drain_of_two_instants_costs_the_same_at_any_width(self, monkeypatch):
        narrow = self.two_instant_drain(40, monkeypatch)
        wide = self.two_instant_drain(400, monkeypatch)
        assert narrow == wide

    def test_passes_cut_anew_every_pass_compile_no_plan(self, monkeypatch):
        """A subscriber on one topic cuts every pass of its Pusher into
        runs, new tuples each pass: the drain then finds its columns by
        content, and neither the agent nor storage compiles a plan."""
        scheduler = TaskScheduler()
        broker = Broker()
        agent = CollectAgent("agent", broker, scheduler)
        for i in range(2):
            Pusher(f"/r0/c0/n{i}", broker, scheduler).add_plugin(
                TesterMonitoringPlugin(f"/r0/c0/n{i}", n_sensors=10)
            )
        broker.subscribe_batch("/r0/c0/n0/tester0003", lambda batch: None)
        scheduler.run_until(5 * NS_PER_SEC)
        compiles = []
        for host in (CollectAgent, type(agent.storage)):
            compile = host._write_plan

            def counting(self, *args, compile=compile):
                compiles.append(self)
                return compile(self, *args)

            monkeypatch.setattr(host, "_write_plan", counting)
        stored = agent.storage.insert_count
        scheduler.run_until(15 * NS_PER_SEC)
        assert agent.storage.insert_count - stored == 10 * 2 * 10
        assert compiles == []
