"""Failure-injection tests: faulty components must not poison the
data plane or the analysis loop."""


from repro.common.timeutil import NS_PER_SEC
from repro.dcdb import Broker, CollectAgent, Pusher
from repro.dcdb.plugins import TesterMonitoringPlugin
from repro.dcdb.plugins.base import MonitoringPlugin, PluginSample
from repro.dcdb.sensor import Sensor
from repro.simulator.clock import TaskScheduler


class FlakyPlugin(MonitoringPlugin):
    """Monitoring plugin that raises on every other sample."""

    def __init__(self, component: str):
        super().__init__("flaky", NS_PER_SEC)
        self._sensor = self._register(Sensor(f"{component}/flaky-sensor"))
        self.calls = 0

    def sample(self, ts):
        self.calls += 1
        if self.calls % 2 == 0:
            raise RuntimeError("sensor bus timeout")
        yield PluginSample(self._sensor, float(self.calls))


class MidwayFailer(MonitoringPlugin):
    """Fails after producing part of its samples."""

    def __init__(self, component: str):
        super().__init__("midway", NS_PER_SEC)
        self._a = self._register(Sensor(f"{component}/ok-sensor"))
        self._b = self._register(Sensor(f"{component}/never-sensor"))

    def sample(self, ts):
        yield PluginSample(self._a, 1.0)
        raise RuntimeError("died mid-iteration")


class TestPusherFaultIsolation:
    def test_flaky_plugin_counted_and_survives(self):
        scheduler = TaskScheduler()
        pusher = Pusher("/n0", Broker(), scheduler)
        pusher.add_plugin(FlakyPlugin("/n0"))
        pusher.add_plugin(TesterMonitoringPlugin("/n0", n_sensors=1))
        scheduler.run_until(9 * NS_PER_SEC)
        # Scheduler is still alive and the healthy plugin kept sampling.
        assert len(pusher.cache_for("/n0/tester0000")) == 10
        # Half of the flaky samples made it, the rest were counted.
        assert pusher.sampling_errors == 5
        assert len(pusher.cache_for("/n0/flaky-sensor")) == 5
        assert "sensor bus timeout" in pusher.last_sampling_errors[-1]

    def test_partial_samples_before_failure_are_kept(self):
        scheduler = TaskScheduler()
        broker = Broker()
        pusher = Pusher("/n0", broker, scheduler)
        pusher.add_plugin(MidwayFailer("/n0"))
        agent = CollectAgent("agent", broker, scheduler)
        scheduler.run_until(3 * NS_PER_SEC)
        agent.flush()
        assert len(pusher.cache_for("/n0/ok-sensor")) == 4
        assert len(pusher.cache_for("/n0/never-sensor") or []) == 0
        assert pusher.sampling_errors == 4
        # What was yielded before the plugin raised also left the
        # Pusher: published and stored, once each, the pass still
        # counted as failed.
        assert broker.published_count == 4
        ts, val = agent.storage.query("/n0/ok-sensor", 0, 10 * NS_PER_SEC)
        assert list(ts) == [s * NS_PER_SEC for s in range(4)]
        assert list(val) == [1.0] * 4
        assert len(agent.cache_for("/n0/ok-sensor")) == 4
        assert "/n0/never-sensor" not in agent.storage


class TestBrokerFaultIsolation:
    def test_throwing_subscriber_does_not_break_publish(self):
        broker = Broker()
        received = []

        def bad(topic, value, ts):
            raise ValueError("subscriber bug")

        broker.subscribe("/a", bad)
        broker.subscribe("/a", lambda t, v, ts: received.append(v))
        n = broker.publish("/a", 1.0, 1)
        assert n == 2
        assert received == [1.0]
        assert broker.handler_errors == 1

    def test_throwing_subscriber_on_retained_replay(self):
        broker = Broker()
        broker.publish("/a", 1.0, 1, retain=True)

        def bad(topic, value, ts):
            raise ValueError("boom")

        broker.subscribe("/a", bad, replay_retained=True)
        assert broker.handler_errors == 1

    def test_agent_survives_peer_subscriber_crash(self):
        scheduler = TaskScheduler()
        broker = Broker()
        pusher = Pusher("/n0", broker, scheduler)
        pusher.add_plugin(TesterMonitoringPlugin("/n0", n_sensors=1))

        def bad(topic, value, ts):
            raise RuntimeError("third-party consumer bug")

        broker.subscribe("/#", bad)
        agent = CollectAgent("agent", broker, scheduler)
        scheduler.run_until(5 * NS_PER_SEC)
        agent.flush()
        assert agent.storage.count("/n0/tester0000") >= 5
        assert broker.handler_errors >= 5
