"""Failure-injection tests: faulty components must not poison the
data plane or the analysis loop."""

import numpy as np
import pytest

from repro.common.timeutil import NS_PER_SEC
from repro.dcdb import Broker, CollectAgent, Pusher
from repro.dcdb.plugins import TesterMonitoringPlugin
from repro.dcdb.plugins.base import MonitoringPlugin
from repro.dcdb.sensor import Sensor
from repro.simulator.clock import TaskScheduler
from tests.hosts import one


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
        return np.array([float(self.calls)])


class MidwayFailer(MonitoringPlugin):
    """Reads its first sensor, then — on the passes numbered in
    ``failing``, counted from 1 — dies before the second."""

    def __init__(self, component: str, failing=(2, 3)):
        super().__init__("midway", NS_PER_SEC)
        self._register(Sensor(f"{component}/first-sensor"))
        self._register(Sensor(f"{component}/second-sensor"))
        self.failing = failing
        self.calls = 0

    def sample(self, ts):
        self.calls += 1
        values = np.empty(2)
        values[0] = float(self.calls)
        if self.calls in self.failing:
            raise RuntimeError("died mid-read")
        values[1] = 2.0 * self.calls
        return values


class WrongLength(MonitoringPlugin):
    """Two sensors, ``n`` values a pass."""

    def __init__(self, component: str, n: int):
        super().__init__("wrong-length", NS_PER_SEC)
        self._register(Sensor(f"{component}/a"))
        self._register(Sensor(f"{component}/b"))
        self.n = n

    def sample(self, ts):
        return np.ones(self.n)


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

    def test_a_pass_that_raises_stores_nothing(self):
        scheduler = TaskScheduler()
        broker = Broker()
        pusher = Pusher("/n0", broker, scheduler)
        pusher.add_plugin(MidwayFailer("/n0"))
        agent = CollectAgent("agent", broker, scheduler)
        topics = ("/n0/first-sensor", "/n0/second-sensor")

        def stored():
            agent.flush()
            return [
                (
                    pusher.cache_for(topic).view_absolute(0, 10 * NS_PER_SEC)
                    .timestamps().tolist(),
                    agent.storage.query(topic, 0, 10 * NS_PER_SEC)[0].tolist(),
                )
                for topic in topics
            ]

        scheduler.run_until(0)
        assert stored() == [([0], [0])] * 2
        assert broker.published_count == 2
        # Passes 2 and 3 raise after reading the first sensor: neither
        # sensor gets a cache row, a publish or a storage row, and each
        # failed pass counts once.
        scheduler.run_until(2 * NS_PER_SEC)
        assert stored() == [([0], [0])] * 2
        assert broker.published_count == 2
        assert pusher.sampling_errors == 2
        assert pusher.last_sampling_errors == [
            f"midway@{s * NS_PER_SEC}: died mid-read" for s in (1, 2)
        ]
        # The next good pass stores normally.
        scheduler.run_until(3 * NS_PER_SEC)
        assert stored() == [([0, 3 * NS_PER_SEC], [0, 3 * NS_PER_SEC])] * 2
        assert broker.published_count == 4
        assert pusher.sampling_errors == 2
        for topic, scale in zip(topics, (1.0, 2.0)):
            values = agent.storage.query(topic, 0, 10 * NS_PER_SEC)[1]
            assert values.tolist() == [scale * 1, scale * 4]

    @pytest.mark.parametrize("n", [1, 3], ids=["short", "long"])
    def test_a_pass_of_the_wrong_length_stores_nothing(self, n):
        scheduler = TaskScheduler()
        broker = Broker()
        pusher = Pusher("/n0", broker, scheduler)
        pusher.add_plugin(WrongLength("/n0", n))
        scheduler.run_until(2 * NS_PER_SEC)
        assert pusher.sampling_errors == 3
        assert pusher.last_sampling_errors == [
            f"wrong-length@{s * NS_PER_SEC}: sampled {n} values for 2 sensors"
            for s in range(3)
        ]
        assert len(pusher.cache_for("/n0/a")) == 0
        assert len(pusher.cache_for("/n0/b")) == 0
        assert broker.published_count == 0


class TestBrokerFaultIsolation:
    def test_throwing_subscriber_does_not_break_publish(self):
        broker = Broker()
        received = []

        def bad(batch):
            raise ValueError("subscriber bug")

        broker.subscribe_batch("/a", bad)
        broker.subscribe_batch("/a", lambda batch: received.extend(batch.values.tolist()))
        n = broker.publish_batch(one("/a", 1.0, 1))
        assert n == 2
        assert received == [1.0]
        assert broker.handler_errors == 1

    def test_agent_survives_peer_subscriber_crash(self):
        scheduler = TaskScheduler()
        broker = Broker()
        pusher = Pusher("/n0", broker, scheduler)
        pusher.add_plugin(TesterMonitoringPlugin("/n0", n_sensors=1))

        def bad(batch):
            raise RuntimeError("third-party consumer bug")

        broker.subscribe_batch("/#", bad)
        agent = CollectAgent("agent", broker, scheduler)
        scheduler.run_until(5 * NS_PER_SEC)
        agent.flush()
        assert agent.storage.count("/n0/tester0000") >= 5
        assert broker.handler_errors >= 5
