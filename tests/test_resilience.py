"""Tests for the resilient data plane: outages, store-and-forward,
bounded ingest, and operator circuit breakers."""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigError, LinkDownError
from repro.common.timeutil import NS_PER_MS, NS_PER_SEC
from repro.core.breaker import CLOSED, HALF_OPEN, OPEN, UnitBreaker
from repro.analysis.diagnostics import DiagnosticCollector
from repro.core.configurator import parse_operator_config
from repro.core.manager import OperatorManager
from repro.dcdb import Broker, CollectAgent, Pusher
from repro.dcdb.mqtt import PassQueue, QueuedSubscriber, ReadingBatch
from repro.dcdb.network import NetworkConditions, Outage
from repro.dcdb.plugins import TesterMonitoringPlugin
from repro.dcdb.resilience import ExponentialBackoff
from repro.dcdb.sensor import Sensor, SensorColumns
from repro.deploy import build_deployment
from repro.simulator.clock import TaskScheduler
from repro.spec import OPERATOR
from tests.hosts import Recorder, one, store_one


def metric_value(rest, name, **labels):
    """One series' value from a host's JSON ``GET /metrics`` body."""
    for sample in rest.get("/metrics").body["metrics"]:
        if sample["name"] == name and sample["labels"] == labels:
            return sample["value"]
    return None


def link_rig(**kwargs):
    scheduler = TaskScheduler()
    broker = Broker()
    received = Recorder()
    broker.subscribe_batch("/#", received)
    link = NetworkConditions(broker, scheduler, **kwargs)
    return scheduler, broker, link, received.messages


class TestOutages:
    def test_publish_refused_during_outage(self):
        scheduler, _, link, received = link_rig()
        link.schedule_outage(5 * NS_PER_SEC, 10 * NS_PER_SEC)
        scheduler.run_until(6 * NS_PER_SEC)
        with pytest.raises(LinkDownError) as exc:
            link.publish_batch(one("/a", 1.0, scheduler.clock.now))
        assert exc.value.until_ns == 10 * NS_PER_SEC
        assert received == []
        assert link.refused == 1
        assert link.sent == 0  # refused messages never entered the wire

    def test_link_recovers_after_outage(self):
        scheduler, _, link, received = link_rig()
        link.schedule_outage(5 * NS_PER_SEC, 10 * NS_PER_SEC)
        scheduler.run_until(10 * NS_PER_SEC)
        link.publish_batch(one("/a", 1.0, scheduler.clock.now))
        assert len(received) == 1

    def test_partition_refuses_only_matching_destinations(self):
        scheduler, _, link, received = link_rig()
        link.schedule_outage(
            0, 10 * NS_PER_SEC, destinations=["/rack00/chassis01"]
        )
        link.publish_batch(one("/rack00/chassis00/node00/power", 1.0, 0))
        assert len(received) == 1
        with pytest.raises(LinkDownError):
            link.publish_batch(one("/rack00/chassis01/node00/power", 1.0, 0))

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
        link.publish_batch(one("/a", 1.0, 0))  # on the wire before the outage
        scheduler.run_until(5 * NS_PER_SEC)
        assert len(received) == 1

    def test_publish_batch_refuses_partitioned_subset(self):
        scheduler, _, link, received = link_rig()
        link.schedule_outage(0, 10 * NS_PER_SEC, destinations=["/down"])
        batch = ReadingBatch(["/up/a", "/down/b", "/up/c"], 0, [1.0, 2.0, 3.0])
        with pytest.raises(LinkDownError) as exc:
            link.publish_batch(batch)
        assert list(exc.value.refused.topics) == ["/down/b"]
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


def spilled(topic, ts=0):
    """A pass of one reading, valued ``ts``."""
    return ReadingBatch((topic,), ts, (float(ts),))


def topics(passes):
    return [t for batch in passes for t in batch.topics]


class TestSpillQueue:
    """The :class:`PassQueue` in its spill role: bounded, passes of one."""

    def test_fifo(self):
        q = PassQueue(4)
        for i in range(3):
            assert q.push(spilled(f"/{i}")) == 0
        assert q.pop().topics == ("/0",)
        assert topics(q.pop_all()) == ["/1", "/2"]
        assert len(q) == 0

    def test_drop_oldest_evicts_head(self):
        q = PassQueue(2, policy="drop-oldest")
        q.push(spilled("a"))
        q.push(spilled("b"))
        assert q.push(spilled("c")) == 1 and q.dropped == 1
        assert q.pop().topics == ("b",)
        assert q.pop().topics == ("c",)

    def test_drop_newest_refuses_arrival(self):
        q = PassQueue(2, policy="drop-newest")
        q.push(spilled("a"))
        q.push(spilled("b"))
        assert q.push(spilled("c")) == 1 and q.dropped == 1
        assert topics(q.pop_all()) == ["a", "b"]

    def test_push_front_restores_order(self):
        q = PassQueue(4)
        q.push(spilled("b"))
        q.push_front(spilled("a"))
        assert q.pop().topics == ("a",)

    def test_empty_pop_returns_none(self):
        assert PassQueue(2).pop() is None

    def test_validation(self):
        with pytest.raises(ConfigError):
            PassQueue(0)
        with pytest.raises(ConfigError):
            PassQueue(4, policy="bogus")


_ops = st.lists(st.one_of(
    st.tuples(st.just("push"), st.integers(0, 5)),
    st.tuples(st.just("push_front"), st.integers(0, 5)),
    st.tuples(st.just("pop"), st.just(0)),
    st.tuples(st.just("pop_all"), st.just(0)),
), max_size=40)


@settings(max_examples=300, deadline=None)
@given(
    capacity=st.one_of(st.none(), st.integers(1, 6)),
    policy=st.sampled_from(["drop-oldest", "drop-newest"]),
    ops=_ops,
)
def test_pass_queue_matches_readings_one_at_a_time(capacity, policy, ops):
    """Whole passes in, whole passes out: the lengths, shed counts and
    contents of a list handling one reading at a time, the way the
    spill queue did (an arrival at capacity sheds the head or itself;
    a push to the front is never refused)."""
    q, model, dropped, serial = PassQueue(capacity, policy), [], 0, 0

    def contents(passes):
        out = []
        for batch in passes:
            values = batch.values.tolist()
            assert list(batch.topics) == [f"/t{v:g}" for v in values]
            out += values
        return out

    for op, n in ops:
        if op in ("push", "push_front"):
            values = list(range(serial, serial + n))
            serial += n
            batch = ReadingBatch([f"/t{v}" for v in values], len(ops), values)
            if op == "push_front":
                q.push_front(batch)
                model[:0] = values
                continue
            shed = 0
            for value in values:
                if capacity is not None and len(model) >= capacity:
                    shed += 1
                    if policy == "drop-newest":
                        continue
                    model.pop(0)
                model.append(value)
            assert q.push(batch) == shed
            dropped += shed
        elif op == "pop":
            head = q.pop()
            taken = [] if head is None else contents([head])
            assert taken == model[: len(taken)] and (head is None) == (not model)
            del model[: len(taken)]
        else:
            assert contents(q.pop_all()) == model
            model = []
        assert len(q) == len(model) and q.dropped == dropped
    assert contents(q.pop_all()) == model


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
    received = Recorder()
    broker.subscribe_batch("/#", received)
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
    return scheduler, pusher, sensor, received.messages, link


class TestStoreAndForward:
    def test_refused_publish_spills_and_replays_in_order(self):
        scheduler, pusher, sensor, received, _ = pusher_rig()
        for s in range(10):
            scheduler.run_until(s * NS_PER_SEC)
            store_one(pusher, sensor, scheduler.clock.now, float(s))
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
            store_one(pusher, sensor, scheduler.clock.now, float(s))
        assert len(pusher.cache_for("/n0/power")) == 8

    def test_overflow_drop_oldest(self):
        scheduler, pusher, sensor, received, _ = pusher_rig(
            outage=(0, 5), spill_capacity=2
        )
        for s in range(4):
            scheduler.run_until(s * NS_PER_SEC)
            store_one(pusher, sensor, scheduler.clock.now, float(s))
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
            store_one(pusher, sensor, scheduler.clock.now, float(s))
        scheduler.run_until(8 * NS_PER_SEC)
        assert pusher._m_spill_dropped.value == 2
        assert [v for _, v, _ in received] == [0.0, 1.0]

    def test_new_publishes_queue_behind_pending_spill(self):
        scheduler, pusher, sensor, received, link = pusher_rig(outage=(0, 2))
        store_one(pusher, sensor, 0, 0.0)  # refused, spilled
        assert pusher.spill_depth == 1
        # Publish while the spill is non-empty but before any replay:
        # must line up behind the spilled reading, not overtake it.
        store_one(pusher, sensor, 1, 1.0)
        assert pusher.spill_depth == 2
        scheduler.run_until(5 * NS_PER_SEC)
        assert [v for _, v, _ in received] == [0.0, 1.0]
        assert pusher.spill_depth == 0

    def test_batch_store_spills_refused_subset(self):
        scheduler = TaskScheduler()
        broker = Broker()
        received = []
        broker.subscribe_batch("/#", lambda batch: received.extend(batch.topics))
        link = NetworkConditions(broker, scheduler)
        link.schedule_outage(0, 2 * NS_PER_SEC, destinations=["/n0/b"])
        pusher = Pusher("/n0", link, scheduler, retry_base_ns=100 * NS_PER_MS)
        readings = SensorColumns((Sensor("/n0/a"), Sensor("/n0/b")), [1.0, 2.0])
        pusher.store_readings_batch(0, readings)
        assert received == ["/n0/a"]
        assert pusher.spill_depth == 1
        scheduler.run_until(4 * NS_PER_SEC)
        assert received == ["/n0/a", "/n0/b"]

    def test_replay_delivers_what_a_partition_does_not_refuse(self):
        # A replayed pass meets the link whole, as a live publish does:
        # the readings whose destination is up are delivered, and only
        # the refused ones go back to the head of the spill.
        scheduler = TaskScheduler()
        broker = Broker()
        received = []
        broker.subscribe_batch("/#", lambda batch: received.extend(batch.topics))
        link = NetworkConditions(broker, scheduler)
        link.schedule_outage(0, NS_PER_SEC)
        link.schedule_outage(0, 10 * NS_PER_SEC, destinations=["/n0/b"])
        pusher = Pusher(
            "/n0", link, scheduler,
            retry_base_ns=NS_PER_SEC, retry_max_ns=NS_PER_SEC,
        )
        sensors = (Sensor("/n0/a"), Sensor("/n0/b"), Sensor("/n0/c"))
        pusher.store_readings_batch(0, SensorColumns(sensors, [1.0, 2.0, 3.0]))
        assert received == [] and pusher.spill_depth == 3
        scheduler.run_until(3 * NS_PER_SEC)
        assert received == ["/n0/a", "/n0/c"]
        assert pusher.spill_depth == 1
        assert metric_value(pusher.rest, "spill_replayed_total") == 2

    def test_flush_spill_replays_immediately(self):
        scheduler, pusher, sensor, received, _ = pusher_rig(outage=(0, 2))
        store_one(pusher, sensor, 0, 1.0)
        assert pusher.flush_spill() == 1  # still down: nothing replayed
        scheduler.run_until(3 * NS_PER_SEC)
        store_one(pusher, sensor, scheduler.clock.now, 2.0)
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
            q.handle_batch(one(f"/t{i}", float(i), i))
        assert len(q) == 100 and q.dropped == 0

    def test_drop_oldest_keeps_newest(self):
        q = QueuedSubscriber(2)
        for i in range(4):
            q.handle_batch(one("/t", float(i), i))
        assert q.dropped == 2
        assert [v for b in q.drain() for v in b.values.tolist()] == [2.0, 3.0]

    def test_drop_newest_keeps_oldest(self):
        q = QueuedSubscriber(2, policy="drop-newest")
        for i in range(4):
            q.handle_batch(one("/t", float(i), i))
        assert q.dropped == 2
        assert [v for b in q.drain() for v in b.values.tolist()] == [0.0, 1.0]

    def test_drop_oldest_eviction_splits_the_head_pass(self):
        q = QueuedSubscriber(5)
        q.handle_batch(ReadingBatch(("/a", "/b", "/c", "/d"), 1, [1, 2, 3, 4]))
        q.handle_batch(ReadingBatch(("/e", "/f", "/g"), 2, [5, 6, 7]))
        assert len(q) == 5 and q.dropped == 2
        head, tail = q.drain()
        assert (head.topics, head.timestamp) == (("/c", "/d"), 1)
        assert head.values.tolist() == [3.0, 4.0]
        assert (tail.topics, tail.timestamp) == (("/e", "/f", "/g"), 2)
        assert len(q) == 0

    def test_validation(self):
        with pytest.raises(ConfigError):
            QueuedSubscriber(0)
        with pytest.raises(ConfigError):
            QueuedSubscriber(policy="bogus")

    def test_agent_exports_ingest_dropped_total(self):
        scheduler = TaskScheduler()
        broker = Broker()
        agent = CollectAgent(
            "agent", broker, scheduler, ingest_queue_capacity=5
        )
        for i in range(12):
            broker.publish_batch(one("/n0/s", float(i), i))
        agent.flush()
        assert agent.ingest_dropped == 7
        body = agent.rest.get("/stats").body
        assert body["ingest_dropped"] == 7
        assert metric_value(agent.rest, "ingest_dropped_total") == 7

    def test_drop_accounting_survives_concurrent_publishes(self):
        # Satellite regression: the unguarded queue lost drop counts
        # under concurrent handler calls.  With the lock seam the
        # invariant (kept + dropped == published) must hold exactly.
        q = QueuedSubscriber(64)
        n_threads, per_thread = 8, 500
        barrier = threading.Barrier(n_threads)

        def blast(tid):
            barrier.wait()
            for i in range(per_thread):
                q.handle_batch(one(f"/t{tid}", float(i), i))

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
        assert dep.agent._queue.passes.capacity == 50000

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
