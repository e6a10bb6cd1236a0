"""The one operator execution path: compiled plans, window kernels,
on-demand triggers, failure isolation, batched sinks.

Kernel plugins (aggregator, smoother, health, persyst) write their
arithmetic once, along axis 1 of a 2-D array.  Every parity test here
checks what a pass computes, stores and counts against a **plain-NumPy
per-unit reference written in this module** under the window rule of
``benchmarks/e2e/README.md``: an input's window holds its readings with
timestamp in ``[newest - W, newest]``, a unit's inputs are pooled in
unit order, each oldest first.  Values are compared bit for bit
(NaN-aware), together with emission order, stored readings and
``error_count``.
"""

import math

import numpy as np
import pytest

from repro.common.errors import QueryError, TopicError
from repro.common.timeutil import NS_PER_SEC
from repro.analysis.diagnostics import DiagnosticCollector
from repro.core import operator, units as units_module
from repro.core.operator import OperatorBase, OperatorConfig
from repro.core.queryengine import QueryEngine
from repro.core.tree import SensorTree
from repro.dcdb.cache import SensorCache
from repro.dcdb.mqtt import Broker, ReadingBatch
from repro.dcdb.pusher import Pusher
from repro.dcdb.sensor import Sensor, SensorColumns
from repro.core.units import Unit
from repro.spec import OPERATOR
from repro.plugins.aggregator import AggregatorOperator
from repro.plugins.health import HealthOperator
from repro.plugins.persyst import PerSystOperator
from repro.plugins.smoother import SmootherOperator
from repro.sanitizer import hooks
from repro.sanitizer.core import Sanitizer
from repro.simulator.clock import TaskScheduler
from tests.hosts import RecordingHost, store, triples

WINDOW = 5 * NS_PER_SEC
NOW = 100 * NS_PER_SEC


class Host(RecordingHost):
    """Minimal query/store host over hand-built caches."""

    def __init__(self, topic_readings):
        super().__init__()
        for topic, readings in topic_readings.items():
            for ts, value in readings:
                self.push(topic, ts, value)


def series(n, scale=1.0, start_ts=0):
    """n noisy-but-deterministic readings, one per second."""
    return [
        (start_ts + i * NS_PER_SEC, math.sin(i * 0.7) * scale + i * 0.01)
        for i in range(n)
    ]


def make_unit(name, inputs, out_names):
    return Unit(
        name=name,
        level=0,
        inputs=list(inputs),
        outputs=[
            Sensor(f"{name}/{o}", is_operator_output=True) for o in out_names
        ],
    )


def bound(op_cls, config, host, **kwargs):
    op = op_cls(config, **kwargs)
    op.bind(host, QueryEngine(host))
    return op


def same_value(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


# ----------------------------------------------------------------------
# The reference: plain NumPy, one unit at a time, 1-D arrays only
# ----------------------------------------------------------------------

#: What a reference returns for a unit whose computation must fail
#: (counted in ``error_count``, nothing emitted).
FAILS = object()


def window_of(readings, window_ns):
    """The window rule for one input: (timestamps, values) of the
    readings in ``[newest - W, newest]``, oldest first; None when the
    input holds no data."""
    if not readings:
        return None
    ts = np.array([t for t, _ in readings], dtype=np.int64)
    val = np.array([v for _, v in readings], dtype=np.float64)
    keep = ts >= ts[-1] - window_ns
    return ts[keep], val[keep]


REF_REDUCTIONS = {
    "mean": lambda v: v.mean(),
    "std": lambda v: v.std(),
    "min": lambda v: v.min(),
    "max": lambda v: v.max(),
    "sum": lambda v: v.sum(),
    "median": lambda v: np.median(v),
    "count": lambda v: len(v),
    "last": lambda v: v[-1],
    "q90": lambda v: np.percentile(v, 90),
}


def ref_aggregator(ops):
    def reference(unit, windows):
        if any(w is None for w in windows):
            return FAILS
        pooled = (
            np.concatenate([val for _, val in windows])
            if windows else np.empty(0)
        )
        out = {}
        for sensor in unit.outputs:
            op = ops.get(sensor.name) or ops["*"]
            if op in ("delta", "rate"):
                value = float("nan")
                if windows and len(windows[0][1]) >= 2:
                    ts, val = windows[0]
                    value = val[-1] - val[0]
                    if op == "rate":
                        span_s = (int(ts[-1]) - int(ts[0])) / 1e9
                        value = value / span_s if span_s > 0 else float("nan")
            elif pooled.size == 0:
                value = float("nan")
            else:
                value = REF_REDUCTIONS[op](pooled)
            out[sensor.name] = float(value)
        return out

    return reference


def ref_smoother(alpha):
    def reference(unit, windows):
        if not windows:
            return {}
        if windows[0] is None:
            return FAILS
        values = windows[0][1]
        if alpha is None:
            smoothed = float(values.mean())
        else:
            weights = (1.0 - alpha) ** np.arange(len(values) - 1, -1, -1)
            smoothed = float((values * weights).sum() / weights.sum())
        return {sensor.name: smoothed for sensor in unit.outputs}

    return reference


def ref_persyst(quantiles, statistics=()):
    from repro.plugins.persyst import quantile_output_name

    def reference(unit, windows):
        samples = np.array([w[1][-1] for w in windows if w is not None])
        if not samples.size:
            return {}
        finite = samples[np.isfinite(samples)]
        out = {
            quantile_output_name(q): (
                float(np.percentile(finite, q * 100.0))
                if finite.size else float("nan")
            )
            for q in quantiles
        }
        if "mean" in statistics:
            out["mean"] = float(samples.mean())
        if "std" in statistics:
            out["std"] = float(samples.std())
        return out

    return reference


def ref_health(bounds, trip_count):
    """Stateful across passes: the hysteresis counters live here."""
    violations = {}

    def reference(unit, windows):
        if any(w is None for w in windows):
            return FAILS
        violated = False
        for topic, (_, values) in zip(bounded_inputs(bounds)(unit), windows):
            lo, hi = bounds[topic.rsplit("/", 1)[-1]]
            mean = float(values.mean())
            if (lo is not None and mean < lo) or (hi is not None and mean > hi):
                violated = True
        count = violations[unit.name] = (
            violations.get(unit.name, 0) + 1 if violated else 0
        )
        healthy = 1.0 if count < trip_count else 0.0
        return {sensor.name: healthy for sensor in unit.outputs}

    return reference


def all_inputs(unit):
    return unit.inputs


def first_input(unit):
    return unit.inputs[:1]


def bounded_inputs(bounds):
    return lambda unit: [
        t for t in unit.inputs if t.rsplit("/", 1)[-1] in bounds
    ]


def run_and_check(
    op_cls, cfg_kwargs, units, topic_readings, reference,
    inputs_of=all_inputs, passes=1, **op_kwargs
):
    """Run ``passes`` passes and hold each against the reference:
    values bit for bit (NaN-aware), emission order, stored readings,
    ``error_count``.  Returns (operator, last pass's results)."""
    host = Host(topic_readings)
    op = bound(op_cls, OperatorConfig(**cfg_kwargs), host, **op_kwargs)
    op.set_units(units)
    op.start()
    window_ns = op.config.window_ns
    want_stored, want_errors, results = [], 0, None
    for i in range(passes):
        ts = NOW + i * NS_PER_SEC
        results = op.compute(ts)
        want = []
        for unit in units:
            windows = [
                window_of(topic_readings.get(t), window_ns)
                for t in inputs_of(unit)
            ]
            values = reference(unit, windows)
            if values is FAILS:
                want_errors += 1
            elif values:
                want.append((unit, values))
        assert [r.unit.name for r in results] == [u.name for u, _ in want]
        for result, (unit, values) in zip(results, want):
            assert set(result.values) == set(values)
            for key, value in values.items():
                assert same_value(result.values[key], value), (
                    unit.name, key, result.values[key], value
                )
            want_stored += [
                (s.topic, ts, values[s.name])
                for s in unit.outputs if s.name in values
            ]
    assert len(host.stored) == len(want_stored)
    for (topic, ts, value), (w_topic, w_ts, w_value) in zip(
        host.stored, want_stored
    ):
        assert (topic, ts) == (w_topic, w_ts)
        assert same_value(value, w_value), (topic, value, w_value)
    assert op.error_count == want_errors
    return op, results


# ----------------------------------------------------------------------
# Engine-level batch queries
# ----------------------------------------------------------------------


class TestQueryRelativeBatch:
    def test_rows_match_scalar_queries(self):
        host = Host({
            "/n0/power": series(10),
            "/n1/power": series(3, scale=2.0),
        })
        engine = QueryEngine(host)
        win = engine.query_relative_batch(
            ["/n0/power", "/n1/power", "/n2/missing"], WINDOW
        )
        assert win.width == 6  # 5 s window at 1 s sampling -> 6 readings
        v0 = engine.query_relative("/n0/power", WINDOW)
        assert np.array_equal(win.row_values(0), v0.values())
        assert np.array_equal(win.row_timestamps(0), v0.timestamps())
        v1 = engine.query_relative("/n1/power", WINDOW)
        assert int(win.counts[1]) == 3  # short window: right-aligned
        assert np.array_equal(win.row_values(1), v1.values())
        assert int(win.counts[2]) == 0  # a relative query would raise
        assert win.uniform_count() == 0  # ragged

    def test_mask_and_padding(self):
        host = Host({"/a/x": series(2), "/a/y": series(6)})
        engine = QueryEngine(host)
        win = engine.query_relative_batch(["/a/x", "/a/y"], WINDOW)
        mask = win.mask
        assert mask.shape == (2, 6)
        assert mask[0].tolist() == [False] * 4 + [True] * 2
        assert mask[1].all()
        assert np.isnan(win.values[0, :4]).all()
        assert (win.timestamps[0, :4] == 0).all()

    def test_window_zero_returns_latest(self):
        host = Host({"/a/x": series(5)})
        engine = QueryEngine(host)
        win = engine.query_relative_batch(["/a/x"], 0)
        assert win.width == 1 and win.uniform_count() == 1
        latest = engine.latest("/a/x")
        assert win.last_values()[0] == latest.values()[-1]
        assert win.newest_timestamps()[0] == latest.timestamps()[-1]

    def test_ring_wraparound_rows(self):
        cache = SensorCache(8, interval_ns=NS_PER_SEC)
        host = Host({})
        host.caches["/a/x"] = cache
        for ts, v in series(20):  # wraps the 8-slot ring twice
            store(cache, ts, v)
        engine = QueryEngine(host)
        win = engine.query_relative_batch(["/a/x"], WINDOW)
        view = engine.query_relative("/a/x", WINDOW)
        assert np.array_equal(win.row_values(0), view.values())
        assert np.array_equal(win.row_timestamps(0), view.timestamps())


class TestQueryPlans:
    def test_plan_cached_and_hit_counted(self):
        host = Host({"/a/x": series(10)})
        engine = QueryEngine(host)
        engine.query_relative_batch(["/a/x"], WINDOW, key="op")
        engine.query_relative_batch(["/a/x"], WINDOW, key="op")
        engine.query_relative_batch(["/a/x"], WINDOW, key="op")
        reg = engine.telemetry
        assert reg.counter("qe_plan_compiles_total").value == 1
        assert reg.counter("qe_plan_hits_total").value == 2
        assert reg.counter("qe_plan_invalidations_total").value == 0

    def test_hot_plugged_topic_invalidates_plan(self):
        """Regression: a topic appearing after compile time must be
        picked up once the sensor space is refreshed.  Fails without the
        navigator/tree generation counter (the stale plan would keep
        returning the empty miss row forever)."""
        host = Host({"/a/x": series(10)})
        engine = QueryEngine(host)
        win = engine.query_relative_batch(["/a/x", "/a/new"], WINDOW, key="op")
        assert int(win.counts[1]) == 0
        # Hot-plug the sensor on the host, then refresh the sensor space.
        cache = SensorCache(64, interval_ns=NS_PER_SEC)
        for ts, v in series(10):
            store(cache, ts, v)
        host.caches["/a/new"] = cache
        engine.refresh_navigator()
        win = engine.query_relative_batch(["/a/x", "/a/new"], WINDOW, key="op")
        assert int(win.counts[1]) == 6
        assert np.array_equal(
            win.row_values(1), engine.query_relative("/a/new", WINDOW).values()
        )
        assert engine.telemetry.counter("qe_plan_invalidations_total").value == 1
        assert engine.telemetry.counter("qe_plan_compiles_total").value == 2

    def test_in_place_tree_mutation_invalidates_plan(self):
        host = Host({"/a/x": series(10)})
        engine = QueryEngine(host)
        engine.query_relative_batch(["/a/x"], WINDOW, key="op")
        gen_before = engine.navigator.generation
        engine.navigator.tree.add_sensor("/a/hotplug")
        assert engine.navigator.generation != gen_before
        engine.query_relative_batch(["/a/x"], WINDOW, key="op")
        assert engine.telemetry.counter("qe_plan_invalidations_total").value == 1

    def test_changed_topics_or_window_recompile(self):
        host = Host({"/a/x": series(10), "/a/y": series(10)})
        engine = QueryEngine(host)
        engine.query_relative_batch(["/a/x"], WINDOW, key="op")
        engine.query_relative_batch(["/a/y"], WINDOW, key="op")
        engine.query_relative_batch(["/a/y"], 2 * WINDOW, key="op")
        assert engine.telemetry.counter("qe_plan_compiles_total").value == 3
        assert engine.telemetry.counter("qe_plan_invalidations_total").value == 2

    def test_sanitizer_sees_each_gathered_row_of_the_planned_path(
        self, monkeypatch
    ):
        host = Host({"/a/x": series(10), "/a/y": series(3)})
        engine = QueryEngine(host)
        seen = []

        class _San:
            def on_query_view(self, topic, view):
                seen.append((topic, view.values().copy()))

        monkeypatch.setattr(hooks, "CURRENT", _San())
        win = engine.query_relative_batch(["/a/x", "/a/y", "/a/gone"], WINDOW)
        # Same compiled-plan gather as without a sanitizer ...
        assert engine.telemetry.counter("qe_plan_compiles_total").value == 1
        assert win.counts.tolist() == [6, 3, 0]
        # ... one view per row that holds data, over that row.
        assert [topic for topic, _ in seen] == ["/a/x", "/a/y"]
        assert np.array_equal(seen[0][1], win.row_values(0))
        assert np.array_equal(seen[1][1], win.row_values(1))


# ----------------------------------------------------------------------
# Kernel vs NumPy reference, per plugin
# ----------------------------------------------------------------------


AGG_OPS = {
    "out_mean": "mean", "out_std": "std", "out_min": "min", "out_max": "max",
    "out_sum": "sum", "out_median": "median", "out_count": "count",
    "out_last": "last", "out_q90": "q90", "out_delta": "delta",
    "out_rate": "rate",
}
AGG_CFG = dict(name="agg", window_ns=WINDOW, params={"ops": AGG_OPS})


class TestAggregatorParity:
    def unit_for(self, name, inputs):
        return make_unit(name, inputs, list(AGG_OPS))

    def check(self, units, topics, **cfg):
        return run_and_check(
            AggregatorOperator, {**AGG_CFG, **cfg}, units, topics,
            ref_aggregator(AGG_OPS),
        )

    def test_uniform_single_input(self):
        topics = {f"/n{i}/power": series(10, scale=1.0 + i) for i in range(4)}
        units = [self.unit_for(f"/n{i}", [f"/n{i}/power"]) for i in range(4)]
        self.check(units, topics)

    def test_multi_input_pooled(self):
        topics = {f"/n0/c{i}/load": series(10, scale=0.5 * i) for i in range(3)}
        units = [self.unit_for("/n0", sorted(topics))]
        self.check(units, topics)

    def test_short_and_ragged_windows(self):
        topics = {
            "/n0/power": series(10),
            "/n1/power": series(2),   # shorter than the window
            "/n2/power": series(1),   # single reading: delta/rate are NaN
        }
        units = [
            self.unit_for(f"/n{i}", [f"/n{i}/power"]) for i in range(3)
        ]
        self.check(units, topics)

    def test_all_missing_unit_errors_match(self):
        topics = {"/n0/power": series(10)}
        units = [
            self.unit_for("/n0", ["/n0/power"]),
            self.unit_for("/gone", ["/gone/power"]),
        ]
        op, results = self.check(units, topics)
        assert [r.unit.name for r in results] == ["/n0"]
        assert op.error_count == 1

    def test_window_zero_latest_only(self):
        topics = {f"/n{i}/power": series(10) for i in range(2)}
        units = [self.unit_for(f"/n{i}", [f"/n{i}/power"]) for i in range(2)]
        self.check(units, topics, window_ns=0)

    def test_nan_readings_propagate(self):
        readings = series(10)
        readings[7] = (readings[7][0], float("nan"))
        topics = {"/n0/power": readings, "/n1/power": series(10)}
        units = [self.unit_for(f"/n{i}", [f"/n{i}/power"]) for i in range(2)]
        op, results = self.check(units, topics)
        assert math.isnan(results[0].values["out_mean"])
        assert not math.isnan(results[1].values["out_mean"])


class TestSmootherParity:
    def check(self, alpha, units, topics):
        params = {} if alpha is None else {"alpha": alpha}
        return run_and_check(
            SmootherOperator,
            dict(name="sm", window_ns=WINDOW, params=params),
            units, topics, ref_smoother(alpha), inputs_of=first_input,
        )

    @pytest.mark.parametrize("alpha", [None, 0.3])
    def test_uniform(self, alpha):
        topics = {f"/n{i}/temp": series(10, scale=3.0) for i in range(4)}
        units = [
            make_unit(f"/n{i}", [f"/n{i}/temp"], ["smooth"]) for i in range(4)
        ]
        self.check(alpha, units, topics)

    @pytest.mark.parametrize("alpha", [None, 0.5])
    def test_ragged_missing_and_inputless(self, alpha):
        topics = {"/n0/temp": series(10), "/n1/temp": series(3)}
        units = [
            make_unit("/n0", ["/n0/temp"], ["smooth"]),
            make_unit("/n1", ["/n1/temp"], ["smooth"]),
            make_unit("/gone", ["/gone/temp"], ["smooth"]),
            make_unit("/empty", [], ["smooth"]),
        ]
        op, results = self.check(alpha, units, topics)
        assert [r.unit.name for r in results] == ["/n0", "/n1"]
        assert op.error_count == 1  # /gone; the input-less unit is silent


class TestPerSystParity:
    def test_decile_reduction(self):
        topics = {
            f"/n{i}/cpu{c}/cpi": series(10, scale=0.1 + 0.2 * c)
            for i in range(2) for c in range(8)
        }
        params = {"statistics": ["mean", "std"]}
        tmp = PerSystOperator(OperatorConfig(name="tmp", params=params))
        units = [
            make_unit(
                f"/job{i}",
                sorted(t for t in topics if t.startswith(f"/n{i}/")),
                tmp.job_output_names(),
            )
            for i in range(2)
        ]
        run_and_check(
            PerSystOperator,
            dict(name="ps", window_ns=WINDOW, params=params),
            units, topics, ref_persyst(tmp.quantiles, ["mean", "std"]),
        )

    def test_partially_missing_cores_skipped(self):
        topics = {"/n0/cpu0/cpi": series(10), "/n0/cpu1/cpi": series(4)}
        tmp = PerSystOperator(OperatorConfig(name="t"))
        out_names = tmp.job_output_names()
        units = [
            make_unit(
                "/job0",
                ["/n0/cpu0/cpi", "/n0/cpu1/cpi", "/n0/cpu2/cpi"],
                out_names,
            ),
            make_unit("/job1", ["/gone/cpu0/cpi"], out_names),
        ]
        op, results = run_and_check(
            PerSystOperator, dict(name="ps", window_ns=WINDOW),
            units, topics, ref_persyst(tmp.quantiles),
        )
        # job1 has no data at all: silently skipped, not an error.
        assert [r.unit.name for r in results] == ["/job0"]
        assert op.error_count == 0


class TestHealthParity:
    BOUNDS = {"temp": [-1.0, 1.0]}
    CFG = dict(
        name="hp", window_ns=WINDOW,
        params={"bounds": BOUNDS, "trip_count": 2},
    )

    def check(self, units, topics, passes=1):
        return run_and_check(
            HealthOperator, self.CFG, units, topics,
            ref_health(self.BOUNDS, 2),
            inputs_of=bounded_inputs(self.BOUNDS), passes=passes,
        )

    def test_hysteresis_over_passes(self):
        topics = {
            "/n0/temp": series(10, scale=0.5),   # in bounds
            "/n1/temp": series(10, scale=50.0),  # violates repeatedly
            "/n0/other": series(10),             # unbounded: never queried
        }
        units = [
            make_unit("/n0", ["/n0/temp", "/n0/other"], ["healthy"]),
            make_unit("/n1", ["/n1/temp"], ["healthy"]),
        ]
        op, results = self.check(units, topics, passes=3)
        by_name = {r.unit.name: r.values for r in results}
        assert by_name["/n0"]["healthy"] == 1.0
        assert by_name["/n1"]["healthy"] == 0.0  # tripped after 2 passes

    def test_missing_bounded_topic_errors(self):
        topics = {"/n0/temp": series(10, scale=0.5)}
        units = [
            make_unit("/n0", ["/n0/temp"], ["healthy"]),
            make_unit("/n1", ["/n1/temp"], ["healthy"]),
        ]
        op, results = self.check(units, topics)
        assert [r.unit.name for r in results] == ["/n0"]
        assert op.error_count == 1

    def test_ragged_windows(self):
        topics = {"/n0/temp": series(10, scale=0.5), "/n1/temp": series(2, scale=0.5)}
        units = [
            make_unit("/n0", ["/n0/temp"], ["healthy"]),
            make_unit("/n1", ["/n1/temp"], ["healthy"]),
        ]
        self.check(units, topics)

    def test_several_bounded_inputs_per_unit(self):
        bounds = {"temp": [None, 0.9], "power": [0.0, None]}
        topics = {
            "/n0/temp": series(10, scale=0.5), "/n0/power": series(10, scale=4.0),
            "/n1/temp": series(10, scale=5.0), "/n1/power": series(10),
        }
        units = [
            make_unit(f"/n{i}", [f"/n{i}/temp", f"/n{i}/power"], ["healthy"])
            for i in range(2)
        ]
        run_and_check(
            HealthOperator,
            dict(name="hp", window_ns=WINDOW, params={"bounds": bounds}),
            units, topics, ref_health(bounds, 1),
            inputs_of=bounded_inputs(bounds), passes=2,
        )


# ----------------------------------------------------------------------
# On-demand triggers reach the same kernel
# ----------------------------------------------------------------------

CPUS = 16
TREE_TOPICS = {
    # node n0: 16 full windows; node n1: ragged; node n2: one cpu dark.
    **{f"/r0/n0/cpu{c:02d}/load": series(10, scale=0.3 + c) for c in range(CPUS)},
    **{f"/r0/n1/cpu{c:02d}/load": series(2 + c % 5, scale=1.0 + c) for c in range(CPUS)},
    **{f"/r0/n2/cpu{c:02d}/load": series(10) for c in range(1, CPUS)},
}
DARK = "/r0/n2/cpu00/load"

KERNEL_PLUGINS = {
    "aggregator": (
        AggregatorOperator,
        {"ops": {"o-mean": "mean", "o-q90": "q90", "o-rate": "rate", "*": "std"}},
        ["o-mean", "o-q90", "o-rate", "o-std"],
    ),
    "smoother": (SmootherOperator, {"alpha": 0.4}, ["o-smooth"]),
    "health": (
        HealthOperator, {"bounds": {"load": [None, 6.0]}, "trip_count": 1},
        ["o-ok"],
    ),
    "persyst": (
        PerSystOperator, {"quantiles": [0.0, 0.5, 1.0], "statistics": ["mean"]},
        ["decile0", "decile5", "decile10", "mean"],
    ),
}


def tree_rig(plugin, level, with_units):
    """A kernel-plugin operator over TREE_TOPICS: per-cpu units
    (``level`` "cpu", single input) or per-node units ("node", 16
    inputs), resolved from the pattern or left to be built on the fly."""
    cls, params, out_names = KERNEL_PLUGINS[plugin]
    topics = dict(TREE_TOPICS)
    host = Host(topics)
    host.caches[DARK] = SensorCache(64, interval_ns=NS_PER_SEC)  # no data
    anchor = "<bottomup>" if level == "cpu" else "<bottomup-1>"
    config = OperatorConfig(
        name="k", window_ns=WINDOW, params=params,
        inputs=["<bottomup>load"],
        outputs=[f"{anchor}{name}" for name in out_names],
    )
    op = bound(cls, config, host)
    tree = SensorTree.from_topics(sorted(host.caches))
    units = op.make_resolver().resolve(tree)
    op.set_units(units if with_units else [])
    op.start()
    return op, tree, units


@pytest.mark.parametrize("with_units", [True, False], ids=["resolved", "on-the-fly"])
@pytest.mark.parametrize("level", ["cpu", "node"])
@pytest.mark.parametrize("plugin", sorted(KERNEL_PLUGINS))
def test_trigger_equals_the_units_pass_values(plugin, level, with_units):
    """Single-input uniform (n0 cpus), multi-input (16-input node
    units), ragged (n1) and empty-window (n2/cpu00) units, whether the
    unit is in ``op.units`` or resolved on the fly."""
    # The twin's pass fixes the expectation at the same instant.
    twin, _, units = tree_rig(plugin, level, with_units=True)
    passed = {r.unit.name: r.values for r in twin.compute(NOW)}
    assert len(units) == (3 * CPUS if level == "cpu" else 3)
    assert 0 < len(passed) <= len(units)

    op, tree, _ = tree_rig(plugin, level, with_units)
    for unit in units:
        try:
            got = op.trigger(unit.name, NOW, tree)
        except QueryError:
            got = {}  # the pass counted this unit as failed
        want = passed.get(unit.name, {})
        assert set(got) == set(want), unit.name
        for key in want:
            assert same_value(got[key], want[key]), (unit.name, key)
    assert op.host.stored == []  # on demand: returned, never stored
    # The dark cpu fails where the plugin needs every window, and is
    # skipped where cores may be missing (persyst).
    dark_unit = "/r0/n2/cpu00" if level == "cpu" else "/r0/n2"
    if plugin == "persyst" and level == "node":
        assert dark_unit in passed
    elif plugin == "persyst":
        assert dark_unit not in passed and twin.error_count == 0
    else:
        assert dark_unit not in passed and twin.error_count == 1


def test_trigger_leaves_the_plan_cache_alone():
    """A trigger gathers without a plan: no compile, no invalidation,
    and the operator's next pass still hits its compiled plan."""
    op, tree, units = tree_rig("aggregator", "cpu", with_units=True)
    counter = op.engine.telemetry.counter
    op.compute(NOW)
    op.compute(NOW + NS_PER_SEC)
    before = {
        name: counter(name).value
        for name in ("qe_plan_compiles_total", "qe_plan_invalidations_total",
                     "qe_plan_hits_total")
    }
    assert before["qe_plan_compiles_total"] == 1
    for unit in units[:CPUS]:
        op.trigger(unit.name, NOW, tree)
    op.trigger("/r0/n0/cpu03", NOW, tree)
    assert counter("qe_plan_compiles_total").value == 1
    assert counter("qe_plan_invalidations_total").value == 0
    assert counter("qe_plan_hits_total").value == before["qe_plan_hits_total"]
    op.compute(NOW + 2 * NS_PER_SEC)
    assert counter("qe_plan_compiles_total").value == 1
    assert counter("qe_plan_hits_total").value == before["qe_plan_hits_total"] + 1


# ----------------------------------------------------------------------
# Failure isolation and the unit bookkeeping under the pass
# ----------------------------------------------------------------------


class PoisonableAggregator(AggregatorOperator):
    """The aggregator's kernel, refusing any window holding 666."""

    def _check(self, values):
        if (values == 666.0).any():
            raise ValueError("poisoned window")

    def compute_batch(self, units, window, slices):
        self._check(window.values)
        return super().compute_batch(units, window, slices)

    def compute_window(self, unit, rows):
        for _, _, values in rows:
            self._check(values)
        return super().compute_window(unit, rows)


class TestPoisonedRow:
    CFG = dict(
        name="agg", window_ns=WINDOW, breaker_threshold=2,
        params={"ops": {"*": "mean"}},
    )

    def rig(self, poisoned):
        topics = {f"/n{i}/power": series(10, scale=1.0 + i) for i in range(4)}
        if poisoned:
            ts = topics["/n2/power"][8][0]
            topics["/n2/power"][8] = (ts, 666.0)
        host = Host(topics)
        op = bound(PoisonableAggregator, OperatorConfig(**self.CFG), host)
        op.set_units(
            [make_unit(f"/n{i}", [f"/n{i}/power"], ["m"]) for i in range(4)]
        )
        op.start()
        return op

    def test_kernel_failure_costs_only_the_poisoned_unit(self):
        clean = {r.unit.name: r.values for r in self.rig(False).compute(NOW)}
        op = self.rig(True)
        results = op.compute(NOW)
        assert [r.unit.name for r in results] == ["/n0", "/n1", "/n3"]
        for r in results:
            assert r.values == clean[r.unit.name]
        # Counted once, under the unit's name — no batch-wide entry.
        assert op.error_count == 1
        assert len(op.last_errors) == 1
        assert op.last_errors[0].startswith("/n2: ")
        assert op.breaker_state("/n2")["failures"] == 1
        # The second failing pass trips the unit's breaker.
        op.compute(NOW + NS_PER_SEC)
        assert op.quarantined_units() == ["/n2"]
        assert op.error_count == 2
        # Quarantined: the stacked kernel no longer sees the row.
        results = op.compute(NOW + 2 * NS_PER_SEC)
        assert [r.unit.name for r in results] == ["/n0", "/n1", "/n3"]
        assert op.error_count == 2

    def test_a_failed_pass_reruns_on_its_one_gather(self):
        """The unit-by-unit re-run reads the window the kernel was
        handed: one batched query for the pass, no relative query."""
        op = self.rig(True)
        latency = op.engine.telemetry.histogram
        queries = {
            mode: latency("qe_query_latency_ns", mode=mode)
            for mode in ("batch", "relative")
        }
        before = {mode: h.count for mode, h in queries.items()}
        results = op.compute(NOW)
        assert [r.unit.name for r in results] == ["/n0", "/n1", "/n3"]
        assert op.error_count == 1
        assert queries["batch"].count - before["batch"] == 1
        assert queries["relative"].count - before["relative"] == 0

    def test_unit_cadence_phases(self):
        topics = {f"/n{i}/power": series(10, scale=1.0 + i) for i in range(5)}
        units = [make_unit(f"/n{i}", [f"/n{i}/power"], ["m"]) for i in range(5)]
        host = Host(topics)
        op = bound(
            AggregatorOperator,
            OperatorConfig(
                name="agg", window_ns=WINDOW, unit_cadence=2,
                params={"ops": {"*": "mean"}},
            ),
            host,
        )
        op.set_units(units)
        op.start()
        reference = ref_aggregator({"*": "mean"})
        for i, phase in enumerate([0, 1, 0]):
            results = op.compute(NOW + i * NS_PER_SEC)
            due = [u for j, u in enumerate(units) if j % 2 == phase]
            assert [r.unit.name for r in results] == [u.name for u in due]
            for r, unit in zip(results, due):
                want = reference(
                    unit, [window_of(topics[unit.inputs[0]], WINDOW)]
                )
                assert r.values == want


class TestUnitBookkeeping:
    def test_layout_memo_survives_a_recycled_unit_address(self):
        """Regression: the batch layout memo was keyed on bare id()s
        and outlived ``set_units``, so a unit allocated at a freed
        unit's address was served the freed unit's topics."""
        host = Host({"/a": series(10), "/b": series(10, scale=5.0)})
        op = bound(
            AggregatorOperator,
            OperatorConfig(name="agg", window_ns=WINDOW, params={"op": "mean"}),
            host,
        )
        op.start()
        reference = ref_aggregator({"*": "mean"})
        want_b = reference(
            make_unit("/u", ["/b"], ["m"]), [window_of(series(10, scale=5.0), WINDOW)]
        )
        for _ in range(20):  # CPython hands a freed block straight back
            op.set_units([make_unit("/u", ["/a"], ["m"])])
            op.compute(NOW)
            op.set_units([])
            op.set_units([make_unit("/u", ["/b"], ["m"])])
            (result,) = op.compute(NOW)
            assert result.values == want_b

    def test_units_are_found_by_name(self):
        host = Host({f"/n{i}/x": series(5) for i in range(3)})
        op = bound(
            AggregatorOperator,
            OperatorConfig(name="agg", params={"op": "mean"}), host,
        )
        units = [make_unit(f"/n{i}", [f"/n{i}/x"], ["m"]) for i in range(3)]
        op.set_units(units)
        assert op.unit_named("/n1") is units[1]
        assert op.unit_named("/n9") is None
        op.set_units(units[:1])
        assert op.unit_named("/n1") is None
        assert op.breaker_state("/n0")["state"] == "closed"


# ----------------------------------------------------------------------
# The sanitizer instruments the one path
# ----------------------------------------------------------------------


class ScribblingSmoother(SmootherOperator):
    """Breaks the read-only window contract on purpose."""

    def compute_batch(self, units, window, slices):
        window.values[:, -1] += 1.0
        return super().compute_batch(units, window, slices)


class TestSanitizedPass:
    def topics(self):
        return {f"/n{i}/temp": series(10, scale=2.0 + i) for i in range(4)}

    def units(self):
        return [
            make_unit(f"/n{i}", [f"/n{i}/temp"], ["smooth"]) for i in range(4)
        ]

    def test_same_kernel_same_bits_one_view_per_row(self):
        plain = bound(
            SmootherOperator, OperatorConfig(name="sm", window_ns=WINDOW),
            Host(self.topics()),
        )
        watched = bound(
            SmootherOperator, OperatorConfig(name="sm", window_ns=WINDOW),
            Host(self.topics()),
        )
        for op in (plain, watched):
            op.set_units(self.units())
            op.start()
        want = plain.compute(NOW)
        san = Sanitizer(track_wall_clock=False)
        with san.activate():
            got = watched.compute(NOW)
        assert [(r.unit.name, r.values) for r in got] == [
            (r.unit.name, r.values) for r in want
        ]
        assert watched.host.stored == plain.host.stored
        # The compiled-plan gather ran (no detour), one view per row.
        assert (
            watched.engine.telemetry.counter("qe_plan_compiles_total").value == 1
        )
        assert san.event_summary()["views_tracked"] == 4
        assert san.event_summary()["compute_passes"] == 1
        assert san.finish() == []

    def test_kernel_writing_into_its_window_is_r007(self):
        op = bound(
            ScribblingSmoother, OperatorConfig(name="sm", window_ns=WINDOW),
            Host(self.topics()),
        )
        op.set_units(self.units())
        op.start()
        san = Sanitizer(track_wall_clock=False)
        with san.activate():
            op.compute(NOW)
        diags = san.finish()
        assert {d.code for d in diags} == {"R007"}
        assert {d.path for d in diags} == {
            f"views./n{i}/temp" for i in range(4)
        }


# ----------------------------------------------------------------------
# Operator-level plumbing
# ----------------------------------------------------------------------


class TestNoBatchKnob:
    def test_config_has_no_batch_field(self):
        with pytest.raises(TypeError):
            OperatorConfig(name="x", batch=True)

    def test_batch_key_is_an_unknown_key(self):
        out = DiagnosticCollector()
        OPERATOR.read({"outputs": ["<bottomup>y"], "batch": False}, out)
        diags = out.sink
        assert [(d.code, d.severity) for d in diags] == [("W003", "error")]
        assert "'batch'" in diags[0].message

    def test_per_unit_plugin_inherits_the_loop(self):
        class Doubler(OperatorBase):
            def compute_unit(self, unit, ts):
                view = self.engine.latest(unit.inputs[0])
                return {s.name: 2.0 * view.values()[-1] for s in unit.outputs}

        host = Host({"/n0/x": series(10)})
        op = bound(Doubler, OperatorConfig(name="d"), host)
        op.set_units([make_unit("/n0", ["/n0/x"], ["twice"])])
        op.start()
        results = op.compute(NOW)
        assert len(results) == 1
        view = op.engine.latest("/n0/x")
        assert results[0].values == {"twice": 2.0 * view.values()[-1]}
        assert host.stored == [("/n0/twice", NOW, 2.0 * view.values()[-1])]


class TestPersistentPool:
    def make_op(self):
        class Noop(OperatorBase):
            def compute_unit(self, unit, ts):
                return {s.name: 1.0 for s in unit.outputs}

        host = Host({"/n0/x": series(5), "/n1/x": series(5)})
        op = bound(
            Noop,
            OperatorConfig(name="p", unit_mode="parallel", max_workers=2),
            host,
        )
        op.set_units([
            make_unit("/n0", ["/n0/x"], ["o"]),
            make_unit("/n1", ["/n1/x"], ["o"]),
        ])
        return op

    def test_pool_persists_across_passes(self):
        op = self.make_op()
        op.start()
        pool = op._pool
        assert pool is not None
        op.compute(NOW)
        op.compute(NOW + NS_PER_SEC)
        assert op._pool is pool  # not rebuilt per pass
        op.stop()
        assert op._pool is None

    def test_chunked_results_preserve_unit_order(self):
        op = self.make_op()
        op.start()
        results = op.compute(NOW)
        assert [r.unit.name for r in results] == ["/n0", "/n1"]
        op.stop()

    def test_sequential_operator_never_builds_pool(self):
        class Noop(OperatorBase):
            def compute_unit(self, unit, ts):
                return {}

        host = Host({})
        op = bound(Noop, OperatorConfig(name="s"), host)
        op.start()
        assert op._pool is None
        op.stop()


class TestBatchedSinks:
    def test_broker_publish_batch_matches_sequential(self):
        seen = []
        broker = Broker()
        broker.subscribe_batch("/a/#", lambda batch: seen.extend(triples(batch)))
        n = broker.publish_batch(ReadingBatch(
            ["/a/x", "/a/y", "/b/z"],  # no subscriber on /b/z
            10,
            [1.0, 2.0, 3.0],
        ))
        assert n == 2
        assert seen == [("/a/x", 1.0, 10), ("/a/y", 2.0, 10)]
        assert broker.published_count == 3
        assert broker.delivered_count == 2

    def test_publish_batch_rejects_wildcards(self):
        broker = Broker()
        with pytest.raises(TopicError):
            broker.publish_batch(ReadingBatch(["/a/+"], 0, [1.0]))

    def test_pusher_store_readings_batch(self):
        broker = Broker()
        pusher = Pusher("/n0", broker, TaskScheduler())
        seen = []
        broker.subscribe_batch("/#", lambda batch: seen.extend(
            zip(batch.topics, batch.values.tolist())))
        outs = [
            Sensor("/n0/out_a", is_operator_output=True),
            Sensor("/n0/out_b", publish=False, is_operator_output=True),
        ]
        pusher.store_readings_batch(NOW, SensorColumns(tuple(outs), [1.5, 2.5]))
        # Operator outputs get their caches on first write.
        assert pusher.cache_for("/n0/out_a").latest().value == 1.5
        assert pusher.cache_for("/n0/out_b").latest().value == 2.5
        # Only publishable sensors hit the broker, in order.
        assert seen == [("/n0/out_a", 1.5)]

    @pytest.mark.parametrize("kernel", [True, False], ids=["kernel", "per-unit"])
    def test_every_pass_uses_the_batched_sink(self, kernel):
        calls = []

        class SinkHost(Host):
            def store_readings_batch(self, ts, readings):
                calls.append(ts)
                super().store_readings_batch(ts, readings)

        class Ones(OperatorBase):
            def compute_unit(self, unit, ts):
                return {s.name: 1.0 for s in unit.outputs}

        host = SinkHost({"/n0/x": series(10), "/n1/x": series(10)})
        if kernel:
            op = bound(
                AggregatorOperator,
                OperatorConfig(
                    name="a", window_ns=WINDOW, params={"ops": {"*": "mean"}}
                ),
                host,
            )
        else:
            op = bound(Ones, OperatorConfig(name="o"), host)
        op.set_units([
            make_unit("/n0", ["/n0/x"], ["m"]),
            make_unit("/n1", ["/n1/x"], ["m"]),
        ])
        op.start()
        op.compute(NOW)
        assert len(calls) == 1 and len(host.stored) == 2


class TestCacheViewReadings:
    def test_readings_fast_path_and_iter(self):
        cache = SensorCache(8, interval_ns=NS_PER_SEC)
        for ts, v in series(5):
            store(cache, ts, v)
        view = cache.view_relative(WINDOW)
        readings = view.readings()
        assert readings == list(view)
        assert all(
            isinstance(r.timestamp, int) and isinstance(r.value, float)
            for r in readings
        )
        assert [r.value for r in readings] == view.values().tolist()


# ----------------------------------------------------------------------
# Identity-checked memos: a steady pass compares no units
# ----------------------------------------------------------------------


def same_units_refused(a, b):
    raise AssertionError("same_units compared units on a steady pass")


class RunningJobs:
    """A job source: ``jobs`` maps job id -> node paths, all running."""

    class Job:
        def __init__(self, job_id, node_paths):
            self.job_id, self.node_paths = job_id, node_paths

    def __init__(self, jobs):
        self.jobs = dict(jobs)

    def running_jobs(self, ts):
        return [self.Job(j, nodes) for j, nodes in self.jobs.items()]


class TestIdentityMemos:
    TOPICS = {
        f"/n{i}/{x}": series(10, scale=1.0 + i + 10 * (x == "b"))
        for i in range(4) for x in "ab"
    }

    def rig(self, **cfg):
        host = Host(self.TOPICS)
        op = bound(
            AggregatorOperator,
            OperatorConfig(
                name="agg", window_ns=WINDOW, params={"op": "mean"}, **cfg
            ),
            host,
        )
        op.start()
        return host, op

    def want(self, units):
        reference = ref_aggregator({"*": "mean"})
        return [
            (u.name, reference(u, [window_of(self.TOPICS[u.inputs[0]], WINDOW)]))
            for u in units
        ]

    def test_new_units_of_the_same_length_recompile_both_layouts(self):
        host, op = self.rig()
        op.set_units([make_unit(f"/n{i}", [f"/n{i}/a"], ["m"]) for i in range(4)])
        op.compute(NOW)
        second = [make_unit(f"/n{i}", [f"/n{i}/b"], ["m"]) for i in range(4)]
        op.set_units(second)
        results = op.compute(NOW + NS_PER_SEC)
        assert [(r.unit.name, r.values) for r in results] == self.want(second)
        assert op._batch_layout[0] is op.units
        assert op._batch_layout[1] == tuple(f"/n{i}/b" for i in range(4))
        assert op._output_layout[0] is op.units
        assert op._output_layout[1] == tuple(u.outputs[0] for u in second)
        assert [t for t, _, _ in host.stored[-4:]] == [
            u.outputs[0].topic for u in second
        ]

    def test_steady_staged_passes_never_compare_units(self, monkeypatch):
        host, op = self.rig()
        units = [make_unit(f"/n{i}", [f"/n{i}/a"], ["m"]) for i in range(4)]
        op.set_units(units)
        op.compute(NOW)
        monkeypatch.setattr(units_module, "same_units", same_units_refused)
        monkeypatch.setattr(operator, "same_units", same_units_refused)
        for k in range(1, 21):
            results = op.compute(NOW + k * NS_PER_SEC)
            assert [(r.unit.name, r.values) for r in results] == self.want(units)
        assert op.error_count == 0 and len(host.stored) == 21 * 4

    def test_a_steady_job_set_keeps_its_units_list(self):
        topics = {
            f"/r0/n{i}/cpu{c}/cpi": series(10, scale=0.1 + c)
            for i in range(3) for c in range(2)
        }
        host = Host(topics)
        op = bound(
            PerSystOperator,
            OperatorConfig(
                name="ps", window_ns=WINDOW,
                inputs=["<bottomup, filter cpu>cpi"],
            ),
            host,
            job_source=RunningJobs({"j1": ["/r0/n0"], "j2": ["/r0/n1"]}),
        )
        op.init_units(SensorTree.from_topics(list(topics)))
        op.start()
        op.compute(NOW)
        units = op.units
        assert [u.tag for u in units] == ["j1", "j2"]
        for k in range(1, 4):
            assert len(op.compute(NOW + k * NS_PER_SEC)) == 2
            assert op.units is units and op._batch_layout[0] is units
        op.job_source.jobs["j3"] = ["/r0/n2"]
        assert len(op.compute(NOW + 4 * NS_PER_SEC)) == 3
        assert op.units is not units and op._batch_layout[0] is op.units
        assert [u.tag for u in op.units] == ["j1", "j2", "j3"]
        assert [u.tag for u in units] == ["j1", "j2"]  # replaced, not mutated

    def test_installed_unit_lists_are_never_mutated_in_place(self):
        """The memos trust a list they hold to still hold the same
        units: nothing may change one after it is installed."""
        host, op = self.rig(unit_cadence=2, breaker_threshold=1)
        units = [make_unit(f"/n{i}", [f"/n{i}/a"], ["m"]) for i in range(4)]
        op.set_units(units)
        installed = op.units
        assert installed is not units  # the caller keeps its own list
        units.pop()
        held = list(installed)
        op.set_breaker("/n1", "trip")
        for k in range(6):
            op.compute(NOW + k * NS_PER_SEC)
        assert op.units is installed
        assert len(installed) == 4
        assert all(a is b for a, b in zip(installed, held))
        op.set_units(units)
        assert op.units is not installed
        assert all(a is b for a, b in zip(installed, held))

    def test_mid_run_quarantine_gets_its_layout_and_recovers(self):
        host, op = self.rig(breaker_threshold=1, breaker_cooldown=2)
        units = [make_unit(f"/n{i}", [f"/n{i}/a"], ["m"]) for i in range(4)]
        op.set_units(units)
        op.compute(NOW)
        op.set_breaker("/n2", "trip")
        passes = []
        for k in range(1, 8):
            results = op.compute(NOW + k * NS_PER_SEC)
            due = [u for u in units if u.name in {r.unit.name for r in results}]
            assert [(r.unit.name, r.values) for r in results] == self.want(due)
            assert op._batch_layout[1] == tuple(u.inputs[0] for u in due)
            passes.append(len(results))
        # Quarantined, probed, closed: the full list again, by identity.
        assert passes[0] == 3 and passes[-1] == 4
        assert op.quarantined_units() == []
        assert op._batch_layout[0] is op.units
