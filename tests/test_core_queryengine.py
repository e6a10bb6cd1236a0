"""Tests for the Query Engine (Section V-B)."""

import pytest

from repro.common.errors import QueryError
from repro.common.timeutil import NS_PER_SEC
from repro.core.queryengine import QueryEngine
from repro.dcdb import Broker, CollectAgent
from repro.dcdb.cache import CacheSlab, SensorCache
from repro.dcdb.segments import TieredStorageBackend
from repro.dcdb.storage import StorageBackend
from repro.simulator.clock import TaskScheduler
from tests.hosts import insert_passes, one, store


class FakeHost:
    """Minimal host: caches dict + optional storage backend."""

    def __init__(self, storage=None):
        self.caches = {}
        self._storage = storage

    def cache_for(self, topic):
        return self.caches.get(topic)

    @property
    def storage(self):
        return self._storage

    def sensor_topics(self):
        topics = set(self.caches)
        if self._storage is not None:
            topics.update(self._storage.topics())
        return sorted(topics)


def filled_cache(n=10, interval=NS_PER_SEC):
    c = SensorCache(64, interval_ns=interval)
    for i in range(n):
        store(c, i * interval, float(i))
    return c


class TestRelativeQueries:
    def test_cache_hit(self):
        host = FakeHost()
        host.caches["/a"] = filled_cache()
        qe = QueryEngine(host)
        view = qe.query_relative("/a", 3 * NS_PER_SEC)
        assert list(view.values()) == [6.0, 7.0, 8.0, 9.0]
        assert qe.cache_hits == 1

    def test_zero_offset_latest_only(self):
        host = FakeHost()
        host.caches["/a"] = filled_cache()
        qe = QueryEngine(host)
        assert len(qe.latest("/a")) == 1

    def test_storage_fallback_when_no_cache(self):
        storage = StorageBackend()
        for i in range(5):
            insert_passes(storage, [("/a", i * NS_PER_SEC, float(i))])
        qe = QueryEngine(FakeHost(storage))
        view = qe.query_relative("/a", 2 * NS_PER_SEC)
        assert list(view.values()) == [2.0, 3.0, 4.0]
        assert qe.storage_fallbacks == 1

    def test_miss_raises(self):
        qe = QueryEngine(FakeHost())
        with pytest.raises(QueryError):
            qe.query_relative("/nope", 0)
        assert qe.misses == 1


class TestBatchedQueries:
    def test_a_resized_hinted_ring_is_read_at_its_new_capacity(self):
        """Failing-before: a plan compiled while a hinted ring held 5
        readings kept reading 5 after the ring was resized to 20, where
        ``query_relative`` returns the 11 of its 10 s window."""
        slab = CacheSlab(8, 5)
        rings = slab.rings(interval_ns=NS_PER_SEC)
        host = FakeHost()
        topics = [f"/s/r{j}" for j in range(8)]
        host.caches.update(zip(topics, rings))
        qe = QueryEngine(host)
        window_ns = 10 * NS_PER_SEC
        win = qe.query_relative_batch(topics, window_ns, key="op")
        assert win.width == 5 and not win.counts.any()
        for s in range(1, 6):
            slab.store_column(s * NS_PER_SEC, [float(s)] * 8)
        rings[0].resize(20)
        assert rings[0].slab is not slab
        for s in range(6, 21):
            slab.store_column(s * NS_PER_SEC, [float(s)] * 8)
            store(rings[0], s * NS_PER_SEC, float(s))
        win = qe.query_relative_batch(topics, window_ns, key="op")
        assert win.counts.tolist() == [11] + [5] * 7 and win.width == 11
        for i, topic in enumerate(topics):
            view = qe.query_relative(topic, window_ns)
            assert win.row_timestamps(i).tobytes() == view.timestamps().tobytes()
            assert win.row_values(i).tobytes() == view.values().tobytes()
        assert qe.telemetry.counter("qe_plan_compiles_total").value == 1


class TestAbsoluteQueries:
    def test_cache_serves_covered_range(self):
        host = FakeHost()
        host.caches["/a"] = filled_cache()
        qe = QueryEngine(host)
        view = qe.query_absolute("/a", NS_PER_SEC, 3 * NS_PER_SEC)
        assert list(view.values()) == [1.0, 2.0, 3.0]
        assert qe.cache_hits == 1
        assert qe.storage_fallbacks == 0

    def test_storage_serves_uncovered_range(self):
        storage = StorageBackend()
        for i in range(100):
            insert_passes(storage, [("/a", i * NS_PER_SEC, float(i))])
        host = FakeHost(storage)
        # Cache only holds the newest 5 readings.
        cache = SensorCache(5, interval_ns=NS_PER_SEC)
        for i in range(95, 100):
            store(cache, i * NS_PER_SEC, float(i))
        host.caches["/a"] = cache
        qe = QueryEngine(host)
        view = qe.query_absolute("/a", 0, 10 * NS_PER_SEC)
        assert len(view) == 11
        assert qe.storage_fallbacks == 1

    def test_pusher_partial_cache_still_answers(self):
        # No storage: engine returns whatever the cache window covers.
        host = FakeHost()
        cache = SensorCache(5, interval_ns=NS_PER_SEC)
        for i in range(95, 100):
            store(cache, i * NS_PER_SEC, float(i))
        host.caches["/a"] = cache
        qe = QueryEngine(host)
        view = qe.query_absolute("/a", 0, 97 * NS_PER_SEC)
        assert list(view.values()) == [95.0, 96.0, 97.0]

    def test_inverted_range_rejected(self):
        qe = QueryEngine(FakeHost())
        with pytest.raises(QueryError):
            qe.query_absolute("/a", 10, 5)

    def test_unknown_topic_raises(self):
        qe = QueryEngine(FakeHost(StorageBackend()))
        with pytest.raises(QueryError):
            qe.query_absolute("/nope", 0, 10)


class TestNavigatorIntegration:
    def test_navigator_built_from_host_topics(self):
        host = FakeHost()
        host.caches["/r0/n0/power"] = filled_cache()
        qe = QueryEngine(host)
        assert qe.navigator.has_sensor("/r0/n0/power")

    def test_refresh_picks_up_new_sensors(self):
        host = FakeHost()
        host.caches["/r0/n0/power"] = filled_cache()
        qe = QueryEngine(host)
        host.caches["/r0/n0/derived"] = filled_cache()
        assert not qe.navigator.has_sensor("/r0/n0/derived")
        qe.refresh_navigator()
        assert qe.navigator.has_sensor("/r0/n0/derived")

    def test_topics_lists_host_view(self):
        host = FakeHost()
        host.caches["/a"] = filled_cache()
        assert QueryEngine(host).topics() == ["/a"]


class TestStorageViewsArePrivate:
    """What the engine serves from storage is its own copy: a later
    expiry, flush or write in the backend never rewrites a view."""

    @staticmethod
    def agent_with(storage, seconds):
        """An agent whose 5 s cache leaves ``/n0/a`` at ``seconds``
        (1 Hz) to storage for anything older."""
        broker = Broker()
        agent = CollectAgent(
            "agent", broker, TaskScheduler(), storage=storage,
            cache_window_ns=5 * NS_PER_SEC,
        )
        publish_seconds(broker, agent, seconds)
        return broker, agent

    @staticmethod
    def read(agent):
        view = QueryEngine(agent).query_absolute(
            "/n0/a", 16 * NS_PER_SEC, 30 * NS_PER_SEC
        )
        assert view.values().tolist() == [float(s) for s in range(16, 31)]
        return view

    def test_expiry_leaves_a_storage_view_as_it_was(self):
        _, agent = self.agent_with(
            StorageBackend(ttl_ns=25 * NS_PER_SEC), range(40)
        )
        view = self.read(agent)
        agent.storage.expire(40 * NS_PER_SEC)
        assert view.values().tolist() == [float(s) for s in range(16, 31)]
        assert view.first().timestamp == 16 * NS_PER_SEC

    def test_flush_and_writes_leave_a_tiered_view_as_it_was(self, tmp_path):
        broker, agent = self.agent_with(
            TieredStorageBackend(tmp_path / "seg"), range(40)
        )
        view = self.read(agent)
        agent.storage.flush()
        publish_seconds(broker, agent, range(40, 80))
        assert view.values().tolist() == [float(s) for s in range(16, 31)]
        assert view.timestamps().tolist() == [
            s * NS_PER_SEC for s in range(16, 31)
        ]


def publish_seconds(broker, agent, seconds):
    """One reading of ``/n0/a`` per second in ``seconds``, drained."""
    for s in seconds:
        broker.publish_batch(one("/n0/a", float(s), s * NS_PER_SEC))
    agent.flush()
