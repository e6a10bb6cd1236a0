"""Property-based tests: streaming stats, quantiles, broker and storage."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.timeutil import NS_PER_SEC
from repro.common.topics import join_topic, normalize_topic, split_topic
from repro.core.operator import OperatorConfig
from repro.core.queryengine import QueryEngine
from repro.core.units import Unit
from repro.dcdb.sensor import Sensor
from repro.dcdb.mqtt import Broker
from repro.dcdb.storage import StorageBackend
from repro.ml.stats import StreamingStats, deciles, window_features
from repro.plugins.aggregator import AggregatorOperator
from tests.hosts import RecordingHost, one
from tests.test_pipeline_fusion import Host, final_series, run_both

finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e9, max_value=1e9
)
segments = st.lists(
    st.from_regex(r"[a-z][a-z0-9-]{0,6}", fullmatch=True), min_size=1, max_size=5
)


class TestTopicsRoundtrip:
    @given(parts=segments)
    def test_join_split_roundtrip(self, parts):
        assert split_topic(join_topic(parts)) == parts

    @given(parts=segments)
    def test_normalize_idempotent(self, parts):
        t = join_topic(parts)
        assert normalize_topic(normalize_topic(t)) == normalize_topic(t)


class TestStreamingStatsProperties:
    @given(data=st.lists(finite_floats, min_size=1, max_size=200))
    def test_matches_numpy(self, data):
        s = StreamingStats()
        s.push_many(np.asarray(data))
        arr = np.asarray(data)
        assert math.isclose(s.mean, arr.mean(), rel_tol=1e-9, abs_tol=1e-6)
        assert s.minimum == arr.min()
        assert s.maximum == arr.max()
        assert s.count == len(data)

    @given(
        a=st.lists(finite_floats, max_size=100),
        b=st.lists(finite_floats, max_size=100),
    )
    def test_merge_associates_with_concatenation(self, a, b):
        sa, sb, sc = StreamingStats(), StreamingStats(), StreamingStats()
        sa.push_many(np.asarray(a))
        sb.push_many(np.asarray(b))
        sc.push_many(np.asarray(a + b))
        merged = sa.merge(sb)
        assert merged.count == sc.count
        if merged.count:
            assert math.isclose(
                merged.mean, sc.mean, rel_tol=1e-9, abs_tol=1e-6
            )
            assert math.isclose(
                merged.variance, sc.variance, rel_tol=1e-6, abs_tol=1e-5
            )


class TestQuantileProperties:
    @given(data=st.lists(finite_floats, min_size=1, max_size=200))
    def test_deciles_are_monotone_and_bounded(self, data):
        arr = np.asarray(data)
        d = deciles(arr)
        assert (np.diff(d) >= -1e-9).all()
        assert d[0] == arr.min()
        assert d[-1] == arr.max()

    @given(data=st.lists(finite_floats, min_size=1, max_size=50))
    def test_window_features_bounded_by_extremes(self, data):
        arr = np.asarray(data)
        f = window_features(arr)
        # Mean/median stay within the extremes up to accumulation ulps.
        slack = 8 * np.spacing(np.abs(arr).max() + 1.0)
        assert arr.min() - slack <= f[0] <= arr.max() + slack  # mean
        assert f[2] == arr.min()
        assert f[3] == arr.max()
        assert arr.min() - slack <= f[5] <= arr.max() + slack  # median


class TestBrokerProperties:
    @given(parts=segments, value=finite_floats)
    def test_exact_subscription_always_delivered(self, parts, value):
        broker = Broker()
        topic = join_topic(parts)
        got = []
        broker.subscribe_batch(topic, lambda batch: got.extend(
            zip(batch.topics, batch.values.tolist())))
        broker.subscribe_batch("/#", lambda batch: got.extend(
            ("wild", v) for v in batch.values.tolist()))
        n = broker.publish_batch(one(topic, value, 1))
        assert n == 2
        assert (topic, value) in got

    @given(parts=segments)
    def test_plus_wildcard_matches_same_depth_only(self, parts):
        broker = Broker()
        pattern = join_topic(["+"] * len(parts))
        hits = []
        broker.subscribe_batch(pattern, lambda batch: hits.extend(batch.topics))
        topic = join_topic(parts)
        broker.publish_batch(one(topic, 1.0, 1))
        broker.publish_batch(one(join_topic(parts + ["extra"]), 1.0, 1))
        assert hits == [topic]


class TestStorageProperties:
    @given(
        deltas=st.lists(st.integers(0, 1000), min_size=1, max_size=100),
        lo=st.integers(0, 50_000),
        span=st.integers(0, 50_000),
    )
    def test_range_query_equals_filter(self, deltas, lo, span):
        storage = StorageBackend()
        ts, ref = 0, []
        for i, d in enumerate(deltas):
            ts += d
            storage.insert("/t", ts, float(i))
            ref.append((ts, float(i)))
        hi = lo + span
        got_ts, got_val = storage.query("/t", lo, hi)
        expected = [(t, v) for t, v in ref if lo <= t <= hi]
        assert list(got_ts) == [t for t, _ in expected]
        assert list(got_val) == [v for _, v in expected]


class TestSchedulerProperties:
    @given(
        intervals=st.lists(st.integers(1, 20), min_size=1, max_size=6),
        horizon=st.integers(0, 200),
    )
    def test_fire_counts_match_arithmetic(self, intervals, horizon):
        from repro.simulator.clock import TaskScheduler

        scheduler = TaskScheduler()
        tasks = [
            scheduler.add_callback(f"t{i}", lambda ts: None, iv)
            for i, iv in enumerate(intervals)
        ]
        scheduler.run_until(horizon)
        for task, iv in zip(tasks, intervals):
            # Fires at 0, iv, 2iv, ... <= horizon.
            assert task.fire_count == horizon // iv + 1

    @given(
        dues=st.lists(st.integers(0, 100), min_size=1, max_size=20),
        horizon=st.integers(0, 120),
    )
    def test_one_shots_fire_exactly_when_due(self, dues, horizon):
        from repro.simulator.clock import TaskScheduler

        scheduler = TaskScheduler()
        fired = []
        for due in dues:
            scheduler.add_once("o", fired.append, due)
        scheduler.run_until(horizon)
        assert sorted(fired) == sorted(d for d in dues if d <= horizon)


class TestUnitCadenceProperty:
    @given(
        n_units=st.integers(1, 12),
        cadence=st.integers(1, 5),
    )
    def test_full_cycle_covers_every_unit_once(self, n_units, cadence):
        from repro.core.operator import OperatorBase, OperatorConfig
        from repro.core.queryengine import QueryEngine
        from repro.core.units import Unit
        from repro.dcdb.sensor import Sensor

        class Echo(OperatorBase):
            def compute_unit(self, unit, ts):
                return {s.name: 1.0 for s in unit.outputs}

        host = RecordingHost()
        op = Echo(OperatorConfig(name="e", unit_cadence=cadence))
        op.bind(host, QueryEngine(host))
        op.set_units(
            [
                Unit(
                    name=f"/u{i}",
                    level=0,
                    inputs=[],
                    outputs=[Sensor(f"/u{i}/o", is_operator_output=True)],
                )
                for i in range(n_units)
            ]
        )
        op.start()
        seen = []
        for tick in range(cadence):
            seen.extend(r.unit.name for r in op.compute(tick))
        assert sorted(seen) == sorted(f"/u{i}" for i in range(n_units))


#: Readings whose extreme depends on the order a reduction meets them
#: in, when it keeps the wrong one of two equal values: ±0.0 and NaN.
extreme_readings = st.one_of(
    st.sampled_from([0.0, -0.0, np.nan, -np.nan]),
    st.floats(-1e6, 1e6),
)


@st.composite
def pass_shapes(draw):
    """``(units, readings)``: tall (more units than readings, the
    transposed reduction) or not, ``readings`` 1 included."""
    n = draw(st.integers(1, 12))
    if draw(st.booleans()):
        return draw(st.integers(n + 1, n + 24)), n
    return draw(st.integers(1, n)), n


def bits(value) -> bytes:
    return np.float64(value).tobytes()


class TestExtremeKernels:
    """``min`` and ``max`` reduce a tall pass along the other axis: a
    unit's value is the bits of its window reduced alone."""

    @settings(max_examples=120, deadline=None)
    @given(shape=pass_shapes(), data=st.data())
    def test_a_pass_is_each_units_window_alone(self, shape, data):
        units, n = shape
        topics = [f"/n{i}/p" for i in range(units)]
        host = Host(topics)
        op = AggregatorOperator(OperatorConfig(
            name="ext", window_ns=(n - 1) * NS_PER_SEC,
            params={"ops": {"lo": "min", "hi": "max"}},
        ))
        op.bind(host, QueryEngine(host))
        op.set_units([
            Unit(name=f"/n{i}", level=0, inputs=[topic],
                 outputs=[Sensor(f"/n{i}/lo"), Sensor(f"/n{i}/hi")])
            for i, topic in enumerate(topics)
        ])
        values = data.draw(st.lists(
            extreme_readings, min_size=units * n, max_size=units * n))
        for k in range(n):
            for i, topic in enumerate(topics):
                host.feed((k + 1) * NS_PER_SEC, topic, values[i * n + k])
        window, slices, uniform = op.batch_window(op.units)
        assert uniform == n
        result = op.compute_batch(op.units, window, slices)
        for j, unit in enumerate(op.units):
            alone = op.compute_window(unit, window.rows(slices[j]))
            for name in ("lo", "hi"):
                assert bits(result.column_of(name)[j]) == bits(alone[name])

    @settings(max_examples=15, deadline=None)
    @given(units=st.sampled_from([6, 30]), data=st.data())
    def test_staged_is_fused(self, units, data):
        """The chain's final max reads 21 readings a unit: 30 units are
        a tall pass, 6 a wide one."""
        ticks = 24
        values = data.draw(st.lists(
            extreme_readings, min_size=ticks * units, max_size=ticks * units))
        staged, fused, *_ = run_both(
            ticks, feed=lambda tick, i: values[(tick - 1) * units + i],
            n_units=units,
        )

        def series(host):
            return {
                topic: [(ts, bits(v)) for ts, v in readings or ()]
                for topic, readings in final_series(host, units).items()
            }

        assert series(staged) == series(fused)
