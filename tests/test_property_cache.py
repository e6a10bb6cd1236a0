"""Property-based tests: the sensor cache against a list reference model."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.dcdb.cache import SensorCache
from tests.hosts import store, store_series

# Monotone-ish timestamp deltas (>= 0) and arbitrary float values.
reading_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=10_000),
        st.floats(allow_nan=False, allow_infinity=False, width=32),
    ),
    max_size=120,
)


def build(readings, capacity, interval=0):
    """Apply readings (cumulative timestamps) to a cache and a reference."""
    cache = SensorCache(capacity, interval_ns=interval)
    reference = []
    ts = 0
    for delta, value in readings:
        ts += delta
        store(cache, ts, value)
        reference.append((ts, value))
        reference = reference[-capacity:]
    return cache, reference


class TestCacheModel:
    @given(readings=reading_lists, capacity=st.integers(1, 32))
    def test_size_and_order_match_reference(self, readings, capacity):
        cache, ref = build(readings, capacity)
        assert len(cache) == len(ref)
        got = list(cache.view_absolute(0, 10**18))
        assert [(r.timestamp, r.value) for r in got] == [
            (t, v) for t, v in ref
        ]

    @given(readings=reading_lists, capacity=st.integers(1, 32))
    def test_latest_and_oldest(self, readings, capacity):
        cache, ref = build(readings, capacity)
        if not ref:
            assert cache.latest() is None
            assert cache.oldest() is None
        else:
            assert (cache.latest().timestamp, cache.latest().value) == ref[-1]
            assert (cache.oldest().timestamp, cache.oldest().value) == ref[0]

    @given(
        readings=reading_lists,
        capacity=st.integers(1, 32),
        lo=st.integers(0, 12_000 * 120),
        span=st.integers(0, 12_000 * 120),
    )
    def test_absolute_view_equals_filtered_reference(
        self, readings, capacity, lo, span
    ):
        cache, ref = build(readings, capacity)
        hi = lo + span
        got = [(r.timestamp, r.value) for r in cache.view_absolute(lo, hi)]
        expected = [(t, v) for t, v in ref if lo <= t <= hi]
        assert got == expected

    @given(
        readings=reading_lists,
        capacity=st.integers(1, 32),
        offset=st.integers(0, 2_000_000),
    )
    def test_relative_view_without_hint_equals_time_filter(
        self, readings, capacity, offset
    ):
        cache, ref = build(readings, capacity, interval=0)
        if not ref:
            assert len(cache.view_relative(offset)) == 0
            return
        newest = ref[-1][0]
        got = [(r.timestamp, r.value) for r in cache.view_relative(offset)]
        if offset == 0:
            assert got == [ref[-1]]
        else:
            expected = [(t, v) for t, v in ref if t >= newest - offset]
            assert got == expected

    @given(readings=reading_lists, capacity=st.integers(1, 32))
    def test_timestamps_always_sorted(self, readings, capacity):
        cache, _ = build(readings, capacity)
        view = cache.view_absolute(0, 10**18)
        ts = view.timestamps()
        assert (np.diff(ts) >= 0).all()

    @given(
        readings=reading_lists,
        capacity=st.integers(2, 32),
        k=st.integers(1, 200),
    )
    def test_relative_with_hint_is_clamped_tail(self, readings, capacity, k):
        # With an interval hint, a relative view is always a suffix of
        # the cache contents, never longer than offset//interval + 1.
        interval = 100
        cache, ref = build(readings, capacity, interval=interval)
        view = cache.view_relative(k * interval)
        assert len(view) <= min(len(ref), k + 1)
        got = [(r.timestamp, r.value) for r in view]
        assert got == ref[len(ref) - len(got):] if ref else got == []


class TestBatchEquivalence:
    """A sequence written as its passes (``store_series``: a run of one
    timestamp is one pass) stores and drops what one pass per reading
    does."""

    @given(
        n=st.integers(0, 200),
        capacity=st.integers(1, 64),
    )
    def test_store_batch_equals_store_loop(self, n, capacity):
        ts = np.arange(n, dtype=np.int64) * 7
        values = np.arange(n, dtype=np.float64)
        a = SensorCache(capacity)
        store_series(a, ts, values)
        b = SensorCache(capacity)
        for t, v in zip(ts, values):
            store(b, int(t), float(v))
        va = list(a.view_absolute(0, 10**18))
        vb = list(b.view_absolute(0, 10**18))
        assert va == vb

    @given(
        before=st.lists(st.integers(0, 50), max_size=10),
        batch=st.lists(st.integers(0, 60), max_size=40),
        capacity=st.integers(1, 16),
    )
    def test_unsorted_store_batch_equals_store_loop(self, before, batch, capacity):
        """Failing before: the batch was trusted to be sorted — after a
        reading at 5, ``[6, 4]`` lost the 6 and counted two drops, and
        ``[10, 5, 20]`` into an empty ring was stored as it came."""
        a, b = SensorCache(capacity), SensorCache(capacity)
        for cache in (a, b):
            for t in before:
                store(cache, t, float(t))
        values = [float(-i) for i in range(len(batch))]
        store_series(a, np.array(batch, dtype=np.int64), np.array(values))
        for t, v in zip(batch, values):
            store(b, t, v)
        assert list(a.view_absolute(0, 10**18)) == list(b.view_absolute(0, 10**18))
        assert a.stale_drops == b.stale_drops
        assert len(a) == len(b) and a.newest_ts == b.newest_ts


class TestNewestSpans:
    @given(
        readings=reading_lists,
        capacity=st.integers(1, 32),
        data=st.data(),
    )
    def test_spans_are_the_newest_readings(self, readings, capacity, data):
        """The newest ``n`` readings of a ring are one column span of its
        slab, or two where they wrap the end — oldest first, none empty."""
        cache, ref = build(readings, capacity)
        if not ref:
            return
        n = data.draw(st.integers(1, len(ref)))
        spans = cache.slab.newest_spans(n)
        assert 1 <= len(spans) <= 2
        assert all(0 <= a < b <= capacity for a, b in spans)
        got = np.concatenate([cache.slab.ts[a:b] for a, b in spans])
        assert got.tolist() == [t for t, _ in ref[-n:]]
        dst_ts = np.zeros((1, n + 2), dtype=np.int64)
        dst_val = np.full((1, n + 2), np.nan)
        cache.slab.copy_newest(n, slice(None), dst_ts, dst_val, slice(None), 2)
        assert dst_ts[0, 2:].tolist() == [t for t, _ in ref[-n:]]
        assert dst_val[0, 2:].tolist() == [v for _, v in ref[-n:]]
        assert not dst_ts[0, :2].any() and np.isnan(dst_val[0, :2]).all()
