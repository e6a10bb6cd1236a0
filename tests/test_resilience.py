"""Tests for the resilient data plane: outages, store-and-forward,
bounded ingest, and operator circuit breakers."""

import threading

import pytest

from repro.common.errors import ConfigError, LinkDownError
from repro.common.timeutil import NS_PER_MS, NS_PER_SEC
from repro.core.breaker import CLOSED, HALF_OPEN, OPEN, UnitBreaker
from repro.analysis.diagnostics import DiagnosticCollector
from repro.core.configurator import parse_operator_config
from repro.core.manager import OperatorManager
from repro.dcdb import Broker, CollectAgent, Pusher
from repro.dcdb.mqtt import QueuedSubscriber, ReadingBatch
from repro.dcdb.network import NetworkConditions, Outage
from repro.dcdb.plugins import TesterMonitoringPlugin
from repro.dcdb.resilience import ExponentialBackoff, SpillQueue
from repro.dcdb.sensor import Sensor, SensorColumns
from repro.deploy import build_deployment
from repro.simulator.clock import TaskScheduler
from repro.spec import OPERATOR


def metric_value(rest, name, **labels):
    """One series' value from a host's JSON ``GET /metrics`` body."""
    for sample in rest.get("/metrics").body["metrics"]:
        if sample["name"] == name and sample["labels"] == labels:
            return sample["value"]
    return None


def link_rig(**kwargs):
    scheduler = TaskScheduler()
    broker = Broker()
    received = []
    broker.subscribe("/#", lambda t, v, ts: received.append((t, v, ts)))
    link = NetworkConditions(broker, scheduler, **kwargs)
    return scheduler, broker, link, received


class TestOutages:
    def test_publish_refused_during_outage(self):
        scheduler, _, link, received = link_rig()
        link.schedule_outage(5 * NS_PER_SEC, 10 * NS_PER_SEC)
        scheduler.run_until(6 * NS_PER_SEC)
        with pytest.raises(LinkDownError) as exc:
            link.publish("/a", 1.0, scheduler.clock.now)
        assert exc.value.until_ns == 10 * NS_PER_SEC
        assert received == []
        assert link.refused == 1
        assert link.sent == 0  # refused messages never entered the wire

    def test_link_recovers_after_outage(self):
        scheduler, _, link, received = link_rig()
        link.schedule_outage(5 * NS_PER_SEC, 10 * NS_PER_SEC)
        scheduler.run_until(10 * NS_PER_SEC)
        link.publish("/a", 1.0, scheduler.clock.now)
        assert len(received) == 1

    def test_partition_refuses_only_matching_destinations(self):
        scheduler, _, link, received = link_rig()
        link.schedule_outage(
            0, 10 * NS_PER_SEC, destinations=["/rack00/chassis01"]
        )
        link.publish("/rack00/chassis00/node00/power", 1.0, 0)
        assert len(received) == 1
        with pytest.raises(LinkDownError):
            link.publish("/rack00/chassis01/node00/power", 1.0, 0)

    def test_is_up_and_link_state(self):
        scheduler, _, link, _ = link_rig()
        link.schedule_outage(5 * NS_PER_SEC, 10 * NS_PER_SEC)
        assert link.is_up()
        state = link.link_state()
        assert state["up"] and state["next_outage_ns"] == 5 * NS_PER_SEC
        scheduler.run_until(7 * NS_PER_SEC)
        assert not link.is_up()
        state = link.link_state()
        assert not state["up"]
        assert state["down_until_ns"] == 10 * NS_PER_SEC

    def test_per_destination_is_up(self):
        _, _, link, _ = link_rig()
        link.schedule_outage(0, NS_PER_SEC, destinations=["/r1"])
        assert link.is_up("/r0/n0")
        assert not link.is_up("/r1/n0")
        # Whole-link queries only reflect whole-link outages.
        assert link.is_up()

    def test_in_flight_messages_survive_outage_start(self):
        scheduler, _, link, received = link_rig(latency_ns=2 * NS_PER_SEC)
        link.schedule_outage(NS_PER_SEC, 10 * NS_PER_SEC)
        link.publish("/a", 1.0, 0)  # on the wire before the outage
        scheduler.run_until(5 * NS_PER_SEC)
        assert len(received) == 1

    def test_publish_batch_refuses_partitioned_subset(self):
        scheduler, _, link, received = link_rig()
        link.schedule_outage(0, 10 * NS_PER_SEC, destinations=["/down"])
        batch = ReadingBatch(["/up/a", "/down/b", "/up/c"], [0, 0, 0], [1.0, 2.0, 3.0])
        with pytest.raises(LinkDownError) as exc:
            link.publish_batch(batch)
        assert [m.topic for m in exc.value.refused] == ["/down/b"]
        assert [t for t, _, _ in received] == ["/up/a", "/up/c"]

    def test_outage_validation(self):
        _, _, link, _ = link_rig()
        with pytest.raises(ConfigError):
            link.schedule_outage(5, 5)
        with pytest.raises(ConfigError):
            link.schedule_outage(0, 5, destinations=[])

    def test_random_outages_deterministic(self):
        def schedule(seed):
            _, _, link, _ = link_rig(seed=seed)
            return link.schedule_random_outages(
                3, 100 * NS_PER_SEC, 5 * NS_PER_SEC
            )

        a, b = schedule(7), schedule(7)
        assert a == b
        assert all(isinstance(o, Outage) for o in a)
        assert schedule(8) != a


class TestSpillQueue:
    def test_fifo(self):
        q = SpillQueue(4)
        for i in range(3):
            assert q.append(i) is None
        assert q.popleft() == 0
        assert q.peek() == 1
        assert len(q) == 2

    def test_drop_oldest_evicts_head(self):
        q = SpillQueue(2, policy="drop-oldest")
        q.append("a")
        q.append("b")
        assert q.append("c") == "a"
        assert q.popleft() == "b"
        assert q.popleft() == "c"

    def test_drop_newest_refuses_arrival(self):
        q = SpillQueue(2, policy="drop-newest")
        q.append("a")
        q.append("b")
        assert q.append("c") == "c"
        assert q.popleft() == "a"

    def test_appendleft_restores_order(self):
        q = SpillQueue(4)
        q.append("b")
        q.appendleft("a")
        assert q.popleft() == "a"

    def test_empty_popleft_returns_none(self):
        assert SpillQueue(2).popleft() is None

    def test_validation(self):
        with pytest.raises(ConfigError):
            SpillQueue(0)
        with pytest.raises(ConfigError):
            SpillQueue(4, policy="bogus")


class TestExponentialBackoff:
    def test_growth_and_cap(self):
        b = ExponentialBackoff(100, 1000, jitter=0.0)
        delays = [b.next_delay() for _ in range(6)]
        assert delays == [100, 200, 400, 800, 1000, 1000]

    def test_jitter_stays_bounded_and_deterministic(self):
        mk = lambda: ExponentialBackoff(1000, 100000, jitter=0.2, seed=3)
        a = [mk().next_delay() for _ in range(3)]
        assert len(set(a)) == 1  # same seed, same sequence
        assert 800 <= a[0] <= 1200

    def test_reset(self):
        b = ExponentialBackoff(100, 1000, jitter=0.0)
        b.next_delay()
        b.next_delay()
        b.reset()
        assert b.next_delay() == 100

    def test_validation(self):
        with pytest.raises(ConfigError):
            ExponentialBackoff(0, 100)
        with pytest.raises(ConfigError):
            ExponentialBackoff(200, 100)
        with pytest.raises(ConfigError):
            ExponentialBackoff(100, 200, factor=0.5)
        with pytest.raises(ConfigError):
            ExponentialBackoff(100, 200, jitter=1.0)


def pusher_rig(outage=(2, 6), **pusher_kwargs):
    scheduler = TaskScheduler()
    broker = Broker()
    received = []
    broker.subscribe("/#", lambda t, v, ts: received.append((t, v, ts)))
    link = NetworkConditions(broker, scheduler)
    if outage is not None:
        link.schedule_outage(
            outage[0] * NS_PER_SEC, outage[1] * NS_PER_SEC
        )
    pusher = Pusher(
        "/n0", link, scheduler,
        retry_base_ns=200 * NS_PER_MS,
        retry_max_ns=NS_PER_SEC,
        **pusher_kwargs,
    )
    sensor = Sensor("/n0/power")
    return scheduler, pusher, sensor, received, link


class TestStoreAndForward:
    def test_refused_publish_spills_and_replays_in_order(self):
        scheduler, pusher, sensor, received, _ = pusher_rig()
        for s in range(10):
            scheduler.run_until(s * NS_PER_SEC)
            pusher.store_reading(sensor, scheduler.clock.now, float(s))
        scheduler.run_until(10 * NS_PER_SEC)
        assert pusher.spill_depth == 0
        timestamps = [ts for _, _, ts in received]
        assert len(received) == 10  # zero loss
        assert timestamps == sorted(timestamps)  # in order
        # t=2..5 refused by the link; publishes issued while the spill
        # was still draining queued behind it as well.
        assert pusher._m_spill_buffered.value >= 4
        assert (
            pusher._m_spill_replayed.value == pusher._m_spill_buffered.value
        )
        assert pusher._m_spill_dropped.value == 0
        assert pusher._m_link_refusals.value >= 1

    def test_local_cache_unaffected_by_outage(self):
        scheduler, pusher, sensor, _, _ = pusher_rig()
        for s in range(8):
            scheduler.run_until(s * NS_PER_SEC)
            pusher.store_reading(sensor, scheduler.clock.now, float(s))
        assert len(pusher.cache_for("/n0/power")) == 8

    def test_overflow_drop_oldest(self):
        scheduler, pusher, sensor, received, _ = pusher_rig(
            outage=(0, 5), spill_capacity=2
        )
        for s in range(4):
            scheduler.run_until(s * NS_PER_SEC)
            pusher.store_reading(sensor, scheduler.clock.now, float(s))
        scheduler.run_until(8 * NS_PER_SEC)
        # Capacity 2: of 4 refused readings the oldest 2 were evicted.
        assert pusher._m_spill_dropped.value == 2
        assert [v for _, v, _ in received] == [2.0, 3.0]

    def test_overflow_drop_newest(self):
        scheduler, pusher, sensor, received, _ = pusher_rig(
            outage=(0, 5), spill_capacity=2, spill_policy="drop-newest"
        )
        for s in range(4):
            scheduler.run_until(s * NS_PER_SEC)
            pusher.store_reading(sensor, scheduler.clock.now, float(s))
        scheduler.run_until(8 * NS_PER_SEC)
        assert pusher._m_spill_dropped.value == 2
        assert [v for _, v, _ in received] == [0.0, 1.0]

    def test_new_publishes_queue_behind_pending_spill(self):
        scheduler, pusher, sensor, received, link = pusher_rig(outage=(0, 2))
        pusher.store_reading(sensor, 0, 0.0)  # refused, spilled
        assert pusher.spill_depth == 1
        # Publish while the spill is non-empty but before any replay:
        # must line up behind the spilled reading, not overtake it.
        pusher.store_reading(sensor, 1, 1.0)
        assert pusher.spill_depth == 2
        scheduler.run_until(5 * NS_PER_SEC)
        assert [v for _, v, _ in received] == [0.0, 1.0]
        assert pusher.spill_depth == 0

    def test_batch_store_spills_refused_subset(self):
        scheduler = TaskScheduler()
        broker = Broker()
        received = []
        broker.subscribe("/#", lambda t, v, ts: received.append(t))
        link = NetworkConditions(broker, scheduler)
        link.schedule_outage(0, 2 * NS_PER_SEC, destinations=["/n0/b"])
        pusher = Pusher("/n0", link, scheduler, retry_base_ns=100 * NS_PER_MS)
        readings = SensorColumns((Sensor("/n0/a"), Sensor("/n0/b")), [1.0, 2.0])
        pusher.store_readings_batch(0, readings)
        assert received == ["/n0/a"]
        assert pusher.spill_depth == 1
        scheduler.run_until(4 * NS_PER_SEC)
        assert received == ["/n0/a", "/n0/b"]

    def test_flush_spill_replays_immediately(self):
        scheduler, pusher, sensor, received, _ = pusher_rig(outage=(0, 2))
        pusher.store_reading(sensor, 0, 1.0)
        assert pusher.flush_spill() == 1  # still down: nothing replayed
        scheduler.run_until(3 * NS_PER_SEC)
        pusher.store_reading(sensor, scheduler.clock.now, 2.0)
        assert pusher.spill_depth == 0
        assert len(received) == 2

    def test_spill_knob_validation(self):
        scheduler = TaskScheduler()
        with pytest.raises(ConfigError):
            Pusher("/n0", Broker(), scheduler, spill_capacity=0)
        with pytest.raises(ConfigError):
            Pusher("/n0", Broker(), scheduler, spill_policy="bogus")


class TestBoundedIngestQueue:
    def test_unbounded_by_default(self):
        q = QueuedSubscriber()
        for i in range(100):
            q.handler(f"/t{i}", float(i), i)
        assert len(q) == 100 and q.dropped == 0

    def test_drop_oldest_keeps_newest(self):
        q = QueuedSubscriber(maxlen=2)
        for i in range(4):
            q.handler("/t", float(i), i)
        assert q.dropped == 2
        assert [m.value for m in q.drain()] == [2.0, 3.0]

    def test_drop_newest_keeps_oldest(self):
        q = QueuedSubscriber(maxlen=2, policy="drop-newest")
        for i in range(4):
            q.handler("/t", float(i), i)
        assert q.dropped == 2
        assert [m.value for m in q.drain()] == [0.0, 1.0]

    def test_validation(self):
        with pytest.raises(ConfigError):
            QueuedSubscriber(maxlen=0)
        with pytest.raises(ConfigError):
            QueuedSubscriber(policy="bogus")

    def test_agent_exports_ingest_dropped_total(self):
        scheduler = TaskScheduler()
        broker = Broker()
        agent = CollectAgent(
            "agent", broker, scheduler, ingest_queue_capacity=5
        )
        for i in range(12):
            broker.publish("/n0/s", float(i), i)
        agent.flush()
        assert agent.ingest_dropped == 7
        body = agent.rest.get("/stats").body
        assert body["ingest_dropped"] == 7
        assert metric_value(agent.rest, "ingest_dropped_total") == 7

    def test_drop_accounting_survives_concurrent_publishes(self):
        # Satellite regression: the unguarded queue lost drop counts
        # under concurrent handler calls.  With the lock seam the
        # invariant (kept + dropped == published) must hold exactly.
        q = QueuedSubscriber(maxlen=64)
        n_threads, per_thread = 8, 500
        barrier = threading.Barrier(n_threads)

        def blast(tid):
            barrier.wait()
            for i in range(per_thread):
                q.handler(f"/t{tid}", float(i), i)

        threads = [
            threading.Thread(target=blast, args=(t,))
            for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(q) + q.dropped == n_threads * per_thread
        assert len(q) == 64


class TestUnitBreaker:
    def test_trips_after_threshold(self):
        b = UnitBreaker(3, cooldown_passes=2)
        b.record_failure()
        b.record_failure()
        assert b.state == CLOSED
        b.record_failure()
        assert b.state == OPEN and b.trips == 1 and b.quarantined

    def test_success_resets_consecutive_count(self):
        b = UnitBreaker(2)
        b.record_failure()
        b.record_success()
        b.record_failure()
        assert b.state == CLOSED  # not consecutive

    def test_cooldown_then_half_open_probe(self):
        b = UnitBreaker(1, cooldown_passes=2)
        b.record_failure()
        assert not b.allow()  # pass 1 of cooldown
        assert b.allow()  # pass 2: probe granted
        assert b.state == HALF_OPEN and b.probes == 1

    def test_failed_probe_doubles_cooldown_capped(self):
        b = UnitBreaker(1, cooldown_passes=2, max_cooldown_passes=4)
        b.record_failure()  # open, cooldown 2
        assert not b.allow()
        assert b.allow()
        b.record_failure()  # failed probe -> cooldown 4
        assert b.snapshot()["cooldown_passes"] == 4
        for _ in range(3):
            assert not b.allow()
        assert b.allow()
        b.record_failure()  # capped at 4
        assert b.snapshot()["cooldown_passes"] == 4

    def test_probe_success_closes_and_counts_recovery(self):
        b = UnitBreaker(1, cooldown_passes=1)
        b.record_failure()
        assert b.allow()
        b.record_success()
        assert b.state == CLOSED and b.recoveries == 1
        assert b.snapshot()["cooldown_passes"] == 1  # backoff reset

    def test_manual_trip_and_reset(self):
        b = UnitBreaker(0)  # threshold 0: no automatic tripping
        for _ in range(10):
            b.record_failure()
        assert b.state == CLOSED
        b.trip()
        assert b.state == OPEN
        b.reset()
        assert b.state == CLOSED and b.recoveries == 0

    def test_validation(self):
        with pytest.raises(ConfigError):
            UnitBreaker(-1)
        with pytest.raises(ConfigError):
            UnitBreaker(1, cooldown_passes=0)


TESTER_BREAKER_CONFIG = {
    "plugin": "tester",
    "operators": {
        "t0": {
            "interval_s": 1,
            "inputs": ["<bottomup>tester0000"],
            "outputs": ["<bottomup>probe"],
            "breaker_threshold": 2,
            "breaker_cooldown": 2,
            "breaker_max_cooldown": 4,
            "params": {
                "queries": 1,
                "fail_filter": "n0",
                "fail_passes": 4,
            },
        }
    },
}


@pytest.fixture
def breaker_rig():
    class NS:
        pass

    ns = NS()
    ns.scheduler = TaskScheduler()
    ns.broker = Broker()
    ns.pusher = Pusher("/r0/c0/n0", ns.broker, ns.scheduler)
    ns.pusher.add_plugin(TesterMonitoringPlugin("/r0/c0/n0", n_sensors=3))
    ns.manager = OperatorManager()
    ns.pusher.attach_analytics(ns.manager)
    return ns


class TestOperatorBreaker:
    def test_failing_unit_quarantined_then_recovers(self, breaker_rig):
        rig = breaker_rig
        rig.manager.load_plugin(TESTER_BREAKER_CONFIG)
        op = rig.manager.operator("t0")
        saw_quarantine = False
        for s in range(1, 20):
            rig.scheduler.run_until(s * NS_PER_SEC)
            if op.quarantined_units():
                saw_quarantine = True
        assert saw_quarantine
        # fail_passes=4 exhausted: the probe succeeded and closed it.
        assert op.quarantined_units() == []
        snap = op.breaker_state("/r0/c0/n0")
        assert snap["state"] == CLOSED
        assert snap["trips"] >= 1 and snap["recoveries"] == 1
        # Quarantine skipped compute passes: fewer errors than passes.
        assert op.error_count == 4
        assert op.error_count < op.compute_count

    def test_quarantined_unit_consumes_no_compute(self, breaker_rig):
        rig = breaker_rig
        rig.manager.load_plugin(TESTER_BREAKER_CONFIG)
        op = rig.manager.operator("t0")
        rig.scheduler.run_until(3 * NS_PER_SEC)  # 2 failures -> open
        assert op.quarantined_units() == ["/r0/c0/n0"]
        attempts = op._fail_counts.get("/r0/c0/n0", 0)
        rig.scheduler.run_until(4 * NS_PER_SEC)  # cooldown pass: skipped
        assert op._fail_counts.get("/r0/c0/n0", 0) == attempts

    def test_stats_and_metrics_expose_quarantine(self, breaker_rig):
        rig = breaker_rig
        rig.manager.load_plugin(TESTER_BREAKER_CONFIG)
        op = rig.manager.operator("t0")
        rig.scheduler.run_until(3 * NS_PER_SEC)
        assert op.stats()["quarantined"] == 1
        rest = rig.pusher.rest
        assert (
            metric_value(rest, "operator_quarantined_units", operator="t0")
            == 1
        )
        # Initial trip at pass 2, plus a failed half-open probe re-trip.
        assert metric_value(rest, "breaker_trips_total", operator="t0") == 2

    def test_breaker_disabled_by_default(self, breaker_rig):
        rig = breaker_rig
        config = {
            "plugin": "tester",
            "operators": {
                "t1": {
                    "interval_s": 1,
                    "inputs": ["<bottomup>tester0000"],
                    "outputs": ["<bottomup>probe"],
                    "params": {"queries": 1, "fail_filter": "n0"},
                }
            },
        }
        rig.manager.load_plugin(config)
        op = rig.manager.operator("t1")
        rig.scheduler.run_until(10 * NS_PER_SEC)
        assert op.quarantined_units() == []
        # Passes fire at t=0..10 inclusive and every one is attempted.
        assert op.error_count == 11

    def test_rest_get_and_put_breaker(self, breaker_rig):
        rig = breaker_rig
        rig.manager.load_plugin(TESTER_BREAKER_CONFIG)
        resp = rig.pusher.rest.get("/analytics/units/t0/r0/c0/n0/breaker")
        assert resp.ok
        assert resp.body["unit"] == "/r0/c0/n0"
        assert resp.body["state"] == CLOSED
        tripped = rig.pusher.rest.put(
            "/analytics/units/t0/r0/c0/n0/breaker", action="trip"
        )
        assert tripped.ok and tripped.body["state"] == OPEN
        rig.scheduler.run_until(NS_PER_SEC)
        assert rig.manager.operator("t0").quarantined_units() == [
            "/r0/c0/n0"
        ]
        reset = rig.pusher.rest.put(
            "/analytics/units/t0/r0/c0/n0/breaker", action="reset"
        )
        assert reset.ok and reset.body["state"] == CLOSED

    def test_rest_manual_trip_with_breaker_disabled(self, breaker_rig):
        # Manual REST control works even with automatic tripping off.
        rig = breaker_rig
        config = {
            "plugin": "tester",
            "operators": {
                "t2": {
                    "interval_s": 1,
                    "inputs": ["<bottomup>tester0000"],
                    "outputs": ["<bottomup>probe"],
                    "params": {"queries": 1},
                }
            },
        }
        rig.manager.load_plugin(config)
        op = rig.manager.operator("t2")
        resp = rig.pusher.rest.put(
            "/analytics/units/t2/r0/c0/n0/breaker", action="trip"
        )
        assert resp.ok
        assert op.quarantined_units() == ["/r0/c0/n0"]
        assert op.breaker_state("/r0/c0/n0")["state"] == OPEN
        # The quarantined unit skips passes until a half-open probe
        # succeeds (computes are healthy here), after which it heals.
        rig.scheduler.run_until(5 * NS_PER_SEC)
        assert op.quarantined_units() == []
        assert op.breaker_state("/r0/c0/n0")["state"] == CLOSED
        assert 0 < op.unit_results_count < 6

    def test_rest_errors(self, breaker_rig):
        rig = breaker_rig
        rig.manager.load_plugin(TESTER_BREAKER_CONFIG)
        rest = rig.pusher.rest
        assert rest.get("/analytics/units/zzz/r0/c0/n0/breaker").status == 404
        assert rest.get("/analytics/units/t0/r9/c9/n9/breaker").status == 404
        assert rest.get("/analytics/units/t0/breaker").status == 400
        assert (
            rest.put("/analytics/units/t0/r0/c0/n0/breaker").status == 400
        )
        assert (
            rest.put(
                "/analytics/units/t0/r0/c0/n0/breaker", action="zap"
            ).status
            == 400
        )

    def test_breaker_config_validation(self):
        out = DiagnosticCollector()
        OPERATOR.read(
            {
                "breaker_threshold": -1,
                "breaker_cooldown": 0,
                "breaker_max_cooldown": True,
            },
            out,
        )
        diags = out.sink
        codes = sorted(d.code for d in diags)
        assert codes == ["W005", "W005", "W005"]
        cfg = parse_operator_config(
            "x",
            {
                "outputs": ["<bottomup>y"],
                "breaker_threshold": 3,
                "breaker_cooldown": 2,
                "breaker_max_cooldown": 1,
            },
        )
        assert cfg.breaker_threshold == 3
        # Ceiling never below the base cooldown.
        assert cfg.breaker_max_cooldown == 2

    def test_unknown_breaker_key_warns(self):
        diags = DiagnosticCollector()
        OPERATOR.read({"breaker_treshold": 1}, diags)
        diags = diags.sink
        assert any(d.code == "W003" for d in diags)


class TestDeploymentNetworkSection:
    SPEC = {
        "cluster": {"nodes": 2, "cpus": 2, "seed": 1},
        "monitoring": {"plugins": ["sysfs"], "interval_ms": 1000},
        "network": {
            "latency_ms": 5,
            "seed": 3,
            "outages": [{"start_s": 3, "end_s": 6}],
            "spill": {"capacity": 777, "retry_base_ms": 100,
                      "retry_max_ms": 1000},
            "ingest": {"queue_capacity": 50000},
        },
    }

    def test_network_section_builds_link_and_spill(self):
        dep = build_deployment(self.SPEC)
        assert isinstance(dep.link, NetworkConditions)
        pusher = next(iter(dep.pushers.values()))
        assert pusher.broker is dep.link
        assert pusher._spill.capacity == 777
        assert dep.agent._queue._maxlen == 50000

    def test_outage_recovery_is_lossless(self):
        dep = build_deployment(self.SPEC)
        dep.run(12)
        dep.run(2)  # drain margin for in-flight deliveries
        dep.agent.flush()
        node = dep.sim.node_paths[0]
        ts, _ = dep.agent.storage.query(
            f"{node}/power", 0, 12 * NS_PER_SEC
        )
        local = dep.pushers[node].cache_for(f"{node}/power")
        assert len(ts) == len(local.view_absolute(0, 12 * NS_PER_SEC))
        assert dep.link.refused > 0
        assert dep.agent.ingest_dropped == 0

    def test_no_network_section_keeps_plain_broker(self):
        dep = build_deployment(
            {"cluster": {"nodes": 1, "cpus": 2, "seed": 1}}
        )
        assert dep.link is None
        assert next(iter(dep.pushers.values())).broker is dep.broker
