"""Tests for the sensor cache ring buffer and its views."""

import numpy as np
import pytest

from repro.common.errors import QueryError
from repro.common.timeutil import NS_PER_SEC
from repro.dcdb.cache import CacheView, SensorCache, default_cache
from repro.dcdb.sensor import SensorReading


def fill(cache: SensorCache, n: int, start: int = 0, step: int = NS_PER_SEC):
    for i in range(n):
        cache.store(start + i * step, float(i))


class TestStore:
    def test_empty(self):
        c = SensorCache(4)
        assert len(c) == 0
        assert c.latest() is None
        assert c.oldest() is None

    def test_basic_append(self):
        c = SensorCache(4)
        fill(c, 3)
        assert len(c) == 3
        assert c.latest() == SensorReading(2 * NS_PER_SEC, 2.0)
        assert c.oldest() == SensorReading(0, 0.0)

    def test_wraparound_evicts_oldest(self):
        c = SensorCache(4)
        fill(c, 6)
        assert len(c) == 4
        assert c.oldest().value == 2.0
        assert c.latest().value == 5.0

    def test_out_of_order_dropped(self):
        c = SensorCache(4)
        c.store(100, 1.0)
        c.store(50, 2.0)  # stale, dropped
        assert len(c) == 1
        assert c.latest().value == 1.0

    def test_equal_timestamp_kept(self):
        c = SensorCache(4)
        c.store(100, 1.0)
        c.store(100, 2.0)
        assert len(c) == 2

    def test_store_reading(self):
        c = SensorCache(2)
        c.store_reading(SensorReading(5, 7.0))
        assert c.latest() == SensorReading(5, 7.0)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            SensorCache(0)

    def test_clear(self):
        c = SensorCache(4)
        fill(c, 3)
        c.clear()
        assert len(c) == 0
        assert c.latest() is None


class TestStoreBatch:
    def test_simple_batch(self):
        c = SensorCache(8)
        ts = np.arange(5, dtype=np.int64)
        c.store_batch(ts, ts.astype(float))
        assert len(c) == 5
        assert c.latest().value == 4.0

    def test_batch_wrap(self):
        c = SensorCache(4)
        fill(c, 3)
        ts = np.array([10, 11, 12], dtype=np.int64) * NS_PER_SEC
        c.store_batch(ts, np.array([10.0, 11.0, 12.0]))
        assert len(c) == 4
        assert c.latest().value == 12.0

    def test_batch_larger_than_capacity(self):
        c = SensorCache(3)
        ts = np.arange(10, dtype=np.int64)
        c.store_batch(ts, ts.astype(float))
        assert len(c) == 3
        assert list(c.view_relative(10**9).values()) == [7.0, 8.0, 9.0]

    def test_empty_batch(self):
        c = SensorCache(3)
        c.store_batch(np.empty(0, dtype=np.int64), np.empty(0))
        assert len(c) == 0


class TestRelativeViews:
    def test_zero_offset_is_latest_only(self):
        c = SensorCache(8, interval_ns=NS_PER_SEC)
        fill(c, 5)
        v = c.view_relative(0)
        assert len(v) == 1
        assert v.last().value == 4.0

    def test_offset_counts_by_interval(self):
        c = SensorCache(8, interval_ns=NS_PER_SEC)
        fill(c, 5)
        v = c.view_relative(2 * NS_PER_SEC)
        assert len(v) == 3  # offset/interval + 1
        assert list(v.values()) == [2.0, 3.0, 4.0]

    def test_offset_clamped_to_contents(self):
        c = SensorCache(8, interval_ns=NS_PER_SEC)
        fill(c, 3)
        v = c.view_relative(100 * NS_PER_SEC)
        assert len(v) == 3

    def test_negative_offset_rejected(self):
        c = SensorCache(4, interval_ns=1)
        fill(c, 2)
        with pytest.raises(QueryError):
            c.view_relative(-1)

    def test_empty_cache_empty_view(self):
        c = SensorCache(4, interval_ns=1)
        assert len(c.view_relative(100)) == 0

    def test_no_interval_hint_falls_back_to_search(self):
        c = SensorCache(8)  # no interval hint
        fill(c, 5)
        v = c.view_relative(2 * NS_PER_SEC)
        assert list(v.values()) == [2.0, 3.0, 4.0]

    def test_view_spanning_wrap_is_correct(self):
        c = SensorCache(4, interval_ns=NS_PER_SEC)
        fill(c, 6)  # buffer holds 2..5, physically wrapped
        v = c.view_relative(3 * NS_PER_SEC)
        assert list(v.values()) == [2.0, 3.0, 4.0, 5.0]
        # timestamps must be sorted even across the wrap point
        ts = v.timestamps()
        assert (np.diff(ts) >= 0).all()


class TestAbsoluteViews:
    def test_inclusive_bounds(self):
        c = SensorCache(8)
        fill(c, 5)
        v = c.view_absolute(1 * NS_PER_SEC, 3 * NS_PER_SEC)
        assert list(v.values()) == [1.0, 2.0, 3.0]

    def test_partial_range(self):
        c = SensorCache(8)
        fill(c, 5)
        v = c.view_absolute(-5, NS_PER_SEC // 2)
        assert list(v.values()) == [0.0]

    def test_empty_range(self):
        c = SensorCache(8)
        fill(c, 5)
        v = c.view_absolute(10 * NS_PER_SEC, 20 * NS_PER_SEC)
        assert len(v) == 0

    def test_inverted_range_rejected(self):
        c = SensorCache(8)
        fill(c, 2)
        with pytest.raises(QueryError):
            c.view_absolute(100, 50)

    def test_absolute_across_wrap(self):
        c = SensorCache(4)
        fill(c, 7)  # holds 3..6
        v = c.view_absolute(3 * NS_PER_SEC, 6 * NS_PER_SEC)
        assert list(v.values()) == [3.0, 4.0, 5.0, 6.0]


class TestCacheView:
    def test_iteration_yields_readings(self):
        c = SensorCache(4)
        fill(c, 3)
        readings = list(c.view_relative(10 * NS_PER_SEC))
        assert readings[0] == SensorReading(0, 0.0)
        assert readings[-1].value == 2.0

    def test_first_last(self):
        c = SensorCache(4)
        fill(c, 3)
        v = c.view_absolute(0, 10 * NS_PER_SEC)
        assert v.first().value == 0.0
        assert v.last().value == 2.0

    def test_empty_view_raises_on_first(self):
        with pytest.raises(QueryError):
            CacheView.empty().first()

    def test_bool(self):
        assert not CacheView.empty()

    def test_values_cached_and_consistent(self):
        c = SensorCache(4)
        fill(c, 6)
        v = c.view_relative(10 * NS_PER_SEC)
        assert v.values() is v.values()  # lazily concatenated once
        assert len(v.values()) == len(v.timestamps()) == len(v)


class TestSizing:
    def test_for_duration(self):
        c = SensorCache.for_duration(180 * NS_PER_SEC, NS_PER_SEC)
        assert c.capacity >= 180
        assert c.interval_ns == NS_PER_SEC

    def test_for_duration_bad_interval(self):
        with pytest.raises(ValueError):
            SensorCache.for_duration(10, 0)

    def test_default_cache_footprint_is_small(self):
        # 1000 sensors at 1 s / 180 s retention must stay well under the
        # paper's 25 MB pusher budget.
        per_sensor = default_cache(NS_PER_SEC).memory_bytes()
        assert per_sensor * 1000 < 25 * 1024 * 1024

    def test_memory_bytes_counts_both_arrays(self):
        c = SensorCache(100)
        assert c.memory_bytes() == 100 * (8 + 8)


class TestViewSnapshotSemantics:
    """Views must be immutable snapshots: later stores — including ring
    wrap-around that overwrites the very slots a view was built from —
    must not alter data already handed out (regression: views used to
    alias the live ring-buffer arrays)."""

    def test_view_survives_wraparound_overwrite(self):
        c = SensorCache(4)
        fill(c, 4)  # values 0..3 fill the ring exactly
        view = c.view_relative(10 * NS_PER_SEC)
        before_ts = view.timestamps().copy()
        before_val = view.values().copy()
        # Four more stores overwrite every slot the view came from.
        fill(c, 4, start=4 * NS_PER_SEC)
        np.testing.assert_array_equal(view.timestamps(), before_ts)
        np.testing.assert_array_equal(view.values(), before_val)
        assert list(view.values()) == [0.0, 1.0, 2.0, 3.0]

    def test_absolute_view_survives_wraparound(self):
        c = SensorCache(4)
        fill(c, 4)
        view = c.view_absolute(0, 3 * NS_PER_SEC)
        fill(c, 4, start=4 * NS_PER_SEC)
        assert list(view.values()) == [0.0, 1.0, 2.0, 3.0]

    def test_wrapped_view_survives_further_stores(self):
        c = SensorCache(4)
        fill(c, 6)  # head mid-ring: view spans the wrap seam
        view = c.view_relative(10 * NS_PER_SEC)
        assert list(view.values()) == [2.0, 3.0, 4.0, 5.0]
        fill(c, 4, start=6 * NS_PER_SEC)
        assert list(view.values()) == [2.0, 3.0, 4.0, 5.0]

    def test_mutating_returned_array_does_not_corrupt_cache(self):
        c = SensorCache(4)
        fill(c, 3)
        view = c.view_relative(10 * NS_PER_SEC)
        view.values()[:] = -1.0
        fresh = c.view_relative(10 * NS_PER_SEC)
        assert list(fresh.values()) == [0.0, 1.0, 2.0]


class TestStoreBatchOrdering:
    """store_batch must enforce the same non-decreasing-timestamp
    invariant as store() (regression: it used to append stale batches
    wholesale, leaving timestamps unsorted and breaking binary search)."""

    def test_stale_batch_prefix_dropped(self):
        c = SensorCache(8)
        c.store(5 * NS_PER_SEC, 5.0)
        ts = np.array([3, 4, 5, 6]) * NS_PER_SEC
        c.store_batch(ts, np.array([3.0, 4.0, 5.0, 6.0]))
        # 3 and 4 predate the newest reading and are dropped; 5 (equal
        # timestamp) and 6 are kept, matching store()'s guard.
        assert list(c.view_relative(100 * NS_PER_SEC).values()) == \
            [5.0, 5.0, 6.0]
        assert c.stale_drops == 2

    def test_fully_stale_batch_dropped(self):
        c = SensorCache(8)
        c.store(10 * NS_PER_SEC, 1.0)
        c.store_batch(
            np.array([1, 2]) * NS_PER_SEC, np.array([9.0, 9.0])
        )
        assert len(c) == 1
        assert c.stale_drops == 2

    def test_mixed_store_and_batch_stays_sorted(self):
        c = SensorCache(16)
        c.store(2 * NS_PER_SEC, 2.0)
        c.store_batch(
            np.array([1, 3, 4]) * NS_PER_SEC, np.array([1.0, 3.0, 4.0])
        )
        c.store(5 * NS_PER_SEC, 5.0)
        c.store_batch(np.array([4, 6]) * NS_PER_SEC, np.array([9.0, 6.0]))
        ts = c.view_relative(100 * NS_PER_SEC).timestamps()
        assert list(ts) == sorted(ts)
        # Absolute views rely on sorted timestamps for binary search.
        v = c.view_absolute(3 * NS_PER_SEC, 5 * NS_PER_SEC)
        assert list(v.values()) == [3.0, 4.0, 5.0]

    def test_stale_drop_counter_shared_with_store(self):
        c = SensorCache(8)
        c.store(100, 1.0)
        c.store(50, 2.0)  # stale single store
        c.store_batch(np.array([10, 20]), np.array([0.0, 0.0]))
        assert c.stale_drops == 3


class TestResize:
    def test_grow_preserves_contents(self):
        c = SensorCache(4)
        for i in range(4):
            c.store(i * NS_PER_SEC, float(i))
        c.resize(16)
        assert c.capacity == 16
        v = c.view_relative(100 * NS_PER_SEC)
        assert list(v.values()) == [0.0, 1.0, 2.0, 3.0]
        # Newly freed slots are writable and ordering survives.
        c.store(4 * NS_PER_SEC, 4.0)
        assert len(c) == 5
        assert c.latest().value == 4.0

    def test_grow_preserves_wrapped_ring(self):
        c = SensorCache(4)
        for i in range(7):  # wraps: slots hold 3,4,5,6
            c.store(i * NS_PER_SEC, float(i))
        c.resize(8)
        v = c.view_relative(100 * NS_PER_SEC)
        assert list(v.values()) == [3.0, 4.0, 5.0, 6.0]
        ts = v.timestamps()
        assert list(ts) == sorted(ts)

    def test_shrink_keeps_newest(self):
        c = SensorCache(8)
        for i in range(8):
            c.store(i * NS_PER_SEC, float(i))
        c.resize(3)
        assert c.capacity == 3
        v = c.view_relative(100 * NS_PER_SEC)
        assert list(v.values()) == [5.0, 6.0, 7.0]

    def test_same_capacity_is_noop(self):
        c = SensorCache(4)
        c.store(NS_PER_SEC, 1.0)
        c.resize(4)
        assert len(c) == 1

    def test_invalid_capacity_rejected(self):
        c = SensorCache(4)
        with pytest.raises(ValueError):
            c.resize(0)
        with pytest.raises(ValueError):
            c.resize(-3)


class TestIngestCacheSizing:
    """Regression: the Collect Agent used to size ingest caches with a
    hard-wired 1 Hz assumption (window seconds + 1 readings), so a
    faster remote sensor silently retained only a fraction of the
    configured cache window.  Sizing must follow the observed
    inter-arrival gap instead."""

    def test_fast_sensor_retains_full_window(self):
        from repro.dcdb import Broker, CollectAgent
        from repro.simulator.clock import TaskScheduler

        scheduler = TaskScheduler()
        broker = Broker()
        agent = CollectAgent("agent", broker, scheduler)  # 180 s window
        topic = "/r0/c0/n0/power"
        gap = NS_PER_SEC // 10  # 10 Hz
        n = 400  # 40 s of traffic: all inside the 180 s window
        for i in range(n):
            scheduler.run_until(i * gap)
            broker.publish(topic, float(i), i * gap)
        agent.flush()
        cache = agent.caches[topic]
        # Pre-fix the cache was pinned at 181 slots and dropped the
        # oldest 219 readings despite the window covering all of them.
        v = cache.view_relative(180 * NS_PER_SEC)
        assert len(v.timestamps()) == n
        assert cache.capacity >= n

    def test_steady_1hz_topic_never_resizes(self, monkeypatch):
        # Regression: the first guess (window // 1 s + 1) was smaller
        # than what the first observed 1 s gap asks for (window * 1.2 +
        # 2), so the second arrival of every 1 Hz topic reallocated its
        # ring.
        from repro.dcdb import Broker, CollectAgent
        from repro.simulator.clock import TaskScheduler

        resizes = []
        resize = SensorCache.resize

        def counting_resize(cache, capacity):
            resizes.append(capacity)
            resize(cache, capacity)

        monkeypatch.setattr(SensorCache, "resize", counting_resize)
        scheduler = TaskScheduler()
        broker = Broker()
        agent = CollectAgent(
            "agent", broker, scheduler, cache_window_ns=30 * NS_PER_SEC
        )
        topic = "/r0/c0/n0/power"
        for i in range(10):
            scheduler.run_until(i * NS_PER_SEC)
            broker.publish(topic, float(i), i * NS_PER_SEC)
        agent.flush()
        assert resizes == []
        assert len(agent.caches[topic]) == 10

    def test_adjacent_timestamps_stop_at_the_ceiling(self):
        from repro.dcdb import Broker, CollectAgent
        from repro.simulator.clock import TaskScheduler

        broker = Broker()
        agent = CollectAgent("agent", broker, TaskScheduler())
        topic = "/r0/c0/n0/burst"
        broker.publish(topic, 1.0, 1000)
        broker.publish(topic, 2.0, 1001)  # 1 ns apart
        agent.flush()
        cache = agent.caches[topic]
        assert cache.capacity == CollectAgent._MAX_INGEST_CAPACITY
        assert len(cache) == 2

    def test_slow_sensor_does_not_balloon(self):
        from repro.dcdb import Broker, CollectAgent
        from repro.simulator.clock import TaskScheduler

        scheduler = TaskScheduler()
        broker = Broker()
        agent = CollectAgent("agent", broker, scheduler)
        topic = "/r0/c0/n0/temp"
        for i in range(5):  # 10 s cadence: slower than the 1 Hz guess
            scheduler.run_until(i * 10 * NS_PER_SEC)
            broker.publish(topic, float(i), i * 10 * NS_PER_SEC)
        agent.flush()
        # The initial 1 Hz guess (180 s of readings plus the 20% slack
        # every later observation applies too) stays an upper bound; a
        # slower cadence must not grow the ring.
        assert agent.caches[topic].capacity == 218
