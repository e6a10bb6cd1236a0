"""Tests for the Pusher and Collect Agent data paths."""

import numpy as np
import pytest

from repro.common.errors import ConfigError, PluginError
from repro.common.timeutil import NS_PER_SEC
from repro.dcdb import Broker, CollectAgent, Pusher
from repro.dcdb.plugins import TesterMonitoringPlugin
from repro.dcdb.plugins.base import MonitoringPlugin
from repro.dcdb.sensor import Sensor, SensorColumns
from repro.simulator.clock import TaskScheduler


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
        assert gauge.value == slab.memory_bytes() == 4 * cache.memory_bytes()
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
        rig.pusher.store_reading(sensor, 10, 3.5)
        cache = rig.pusher.cache_for("/r0/c0/n0/derived")
        assert cache is not None
        assert cache.latest().value == 3.5

    def test_unpublished_sensor_stays_local(self, rig):
        sensor = Sensor("/r0/c0/n0/local", publish=False)
        rig.pusher.store_reading(sensor, 10, 1.0)
        rig.agent.flush()
        assert rig.agent.storage.count("/r0/c0/n0/local") == 0

    def test_published_sensor_reaches_agent(self, rig):
        sensor = Sensor("/r0/c0/n0/remote", publish=True)
        rig.pusher.store_reading(sensor, 10, 1.0)
        rig.agent.flush()
        assert rig.agent.storage.count("/r0/c0/n0/remote") == 1


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
