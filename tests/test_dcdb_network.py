"""Tests for one-shot scheduling and the network-conditions link."""

import pytest

from repro.common.errors import ConfigError
from repro.common.timeutil import NS_PER_MS, NS_PER_SEC
from repro.dcdb import Broker, CollectAgent, Pusher
from repro.dcdb.network import NetworkConditions
from repro.dcdb.plugins import TesterMonitoringPlugin
from repro.simulator.clock import TaskScheduler


class TestOneShotTasks:
    def test_fires_once_at_due_time(self):
        scheduler = TaskScheduler()
        calls = []
        scheduler.add_once("once", calls.append, 5 * NS_PER_SEC)
        scheduler.run_until(10 * NS_PER_SEC)
        assert calls == [5 * NS_PER_SEC]

    def test_not_listed_in_registry(self):
        scheduler = TaskScheduler()
        scheduler.add_once("once", lambda ts: None, NS_PER_SEC)
        assert scheduler.tasks() == []

    def test_past_due_clamped_to_now(self):
        scheduler = TaskScheduler()
        scheduler.run_until(10 * NS_PER_SEC)
        calls = []
        scheduler.add_once("late", calls.append, 0)
        scheduler.run_until(11 * NS_PER_SEC)
        assert calls == [10 * NS_PER_SEC]

    def test_interleaves_with_periodic(self):
        scheduler = TaskScheduler()
        order = []
        scheduler.add_callback("p", lambda ts: order.append(("p", ts)),
                               NS_PER_SEC)
        scheduler.add_once("o", lambda ts: order.append(("o", ts)),
                           int(1.5 * NS_PER_SEC))
        scheduler.run_until(2 * NS_PER_SEC)
        assert ("o", int(1.5 * NS_PER_SEC)) in order
        times = [ts for _, ts in order]
        assert times == sorted(times)


class TestNetworkConditions:
    def rig(self, **kwargs):
        scheduler = TaskScheduler()
        broker = Broker()
        received = []
        broker.subscribe("/#", lambda t, v, ts: received.append((t, v, ts)))
        link = NetworkConditions(broker, scheduler, **kwargs)
        return scheduler, broker, link, received

    def test_zero_latency_is_synchronous(self):
        _, _, link, received = self.rig()
        link.publish("/a", 1.0, 7)
        assert received == [("/a", 1.0, 7)]
        assert link.delivered == 1

    def test_latency_defers_delivery(self):
        scheduler, _, link, received = self.rig(latency_ns=100 * NS_PER_MS)
        scheduler.run_until(NS_PER_SEC)
        link.publish("/a", 1.0, NS_PER_SEC)
        assert received == []
        assert link.in_flight == 1
        scheduler.run_until(2 * NS_PER_SEC)
        # Message arrives with its ORIGINAL timestamp.
        assert received == [("/a", 1.0, NS_PER_SEC)]
        assert link.in_flight == 0

    def test_jitter_spreads_arrivals(self):
        scheduler, _, link, received = self.rig(
            latency_ns=100 * NS_PER_MS, jitter_ns=50 * NS_PER_MS, seed=1
        )
        for i in range(20):
            link.publish("/a", float(i), 0)
        scheduler.run_until(NS_PER_SEC)
        assert len(received) == 20

    @pytest.mark.parametrize("jitter_ms", [0, 50])
    def test_batch_draws_and_arrives_like_its_messages_one_by_one(
        self, jitter_ms
    ):
        # Same seed, same messages: once as one batch, once one by one.
        # Drops, latency draws and broker arrival order must be equal —
        # on the jitter-free link too, where the batch travels whole.
        from repro.dcdb.mqtt import ReadingBatch

        arrivals = []
        for batched in (True, False):
            scheduler, _, link, received = self.rig(
                latency_ns=100 * NS_PER_MS, jitter_ns=jitter_ms * NS_PER_MS,
                drop_probability=0.2, seed=5,
            )
            messages = ReadingBatch(
                [f"/t{i % 3}" for i in range(30)], list(range(30)),
                [float(i) for i in range(30)],
            )
            if batched:
                link.publish_batch(messages)
            else:
                for m in messages:
                    link.publish(m.topic, m.value, m.timestamp)
            assert link.in_flight == 30 - link.dropped
            scheduler.run_until(NS_PER_SEC)
            assert link.in_flight == 0 and 0 < link.dropped < 30
            arrivals.append(received)
        assert arrivals[0] == arrivals[1]
        if not jitter_ms:
            assert [v for _, v, _ in arrivals[0]] == sorted(
                v for _, v, _ in arrivals[0]
            )

    def test_drops_are_deterministic_and_counted(self):
        scheduler, _, link, received = self.rig(
            drop_probability=0.5, seed=42
        )
        for i in range(200):
            link.publish("/a", float(i), i)
        assert link.dropped + link.delivered == 200
        assert 0.3 < link.loss_rate() < 0.7
        assert len(received) == link.delivered

    def test_validation(self):
        scheduler = TaskScheduler()
        broker = Broker()
        with pytest.raises(ConfigError):
            NetworkConditions(broker, scheduler, latency_ns=-1)
        with pytest.raises(ConfigError):
            NetworkConditions(broker, scheduler, drop_probability=1.0)
        with pytest.raises(ConfigError):
            NetworkConditions(
                broker, scheduler, latency_ns=10, jitter_ns=20
            )

    def test_subscribe_passthrough(self):
        scheduler, broker, link, _ = self.rig()
        hits = []
        sid = link.subscribe("/x", lambda t, v, ts: hits.append(v))
        broker.publish("/x", 1.0, 1)
        assert hits == [1.0]
        assert link.unsubscribe(sid)


class TestLossyDeployment:
    def test_pipeline_survives_lossy_link(self):
        """A pusher publishing through a 10%-loss, 200ms-latency link
        still fills the collect agent's storage (gappy but usable)."""
        scheduler = TaskScheduler()
        broker = Broker()
        link = NetworkConditions(
            broker,
            scheduler,
            latency_ns=200 * NS_PER_MS,
            jitter_ns=100 * NS_PER_MS,
            drop_probability=0.1,
            seed=3,
        )
        # The pusher publishes through the lossy link.
        pusher = Pusher("/n0", link, scheduler)
        pusher.add_plugin(TesterMonitoringPlugin("/n0", n_sensors=2))
        agent = CollectAgent("agent", broker, scheduler)
        scheduler.run_until(30 * NS_PER_SEC)
        agent.flush()
        stored = agent.storage.count("/n0/tester0000")
        assert 20 <= stored <= 31
        assert link.dropped > 0
        # Local cache is complete regardless of the network (in-band
        # analytics see everything).
        assert len(pusher.cache_for("/n0/tester0000")) == 31
