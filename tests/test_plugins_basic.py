"""Tests for the tester, aggregator, smoother and health plugins."""

import numpy as np
import pytest

from repro.common.errors import ConfigError
from repro.common.timeutil import NS_PER_SEC
from repro.core.operator import OperatorConfig
from repro.core.queryengine import QueryEngine
from repro.core.units import Unit
from repro.dcdb.sensor import Sensor
from repro.plugins.aggregator import AggregatorOperator
from repro.plugins.health import HealthOperator
from repro.plugins.smoother import SmootherOperator
from repro.plugins.tester import TesterOperator
from tests.hosts import RecordingHost


class Host(RecordingHost):
    capacity = 256


def unit_for(name, inputs, out_names):
    return Unit(
        name=name,
        level=0,
        inputs=list(inputs),
        outputs=[Sensor(f"{name}/{o}", is_operator_output=True) for o in out_names],
    )


def bind(op, host):
    op.bind(host, QueryEngine(host))
    op.start()
    return op


class TestTesterOperator:
    def make(self, host, **params):
        cfg = OperatorConfig(name="t", params=params)
        return bind(TesterOperator(cfg), host)

    def test_counts_retrieved_readings(self):
        host = Host()
        host.add_series("/n/x", range(10))
        op = self.make(host, queries=4, query_mode="relative", range_ms=0)
        unit = unit_for("/n", ["/n/x"], ["result"])
        assert op.compute_unit(unit, 9 * NS_PER_SEC) == {"result": 4.0}

    def test_relative_and_absolute_agree(self):
        host = Host()
        host.add_series("/n/x", range(10))
        rel = self.make(host, queries=1, query_mode="relative", range_ms=3000)
        cfg = OperatorConfig(
            name="t2", params={"queries": 1, "query_mode": "absolute",
                               "range_ms": 3000},
        )
        ab = bind(TesterOperator(cfg), host)
        unit = unit_for("/n", ["/n/x"], ["result"])
        ts = 9 * NS_PER_SEC
        assert rel.compute_unit(unit, ts) == ab.compute_unit(unit, ts)

    def test_queries_cycle_over_inputs(self):
        host = Host()
        host.add_series("/n/x", range(5))
        host.add_series("/n/y", range(5))
        op = self.make(host, queries=3, range_ms=0)
        unit = unit_for("/n", ["/n/x", "/n/y"], ["result"])
        assert op.compute_unit(unit, 4 * NS_PER_SEC)["result"] == 3.0

    def test_no_inputs_returns_nothing(self):
        host = Host()
        op = self.make(host, queries=2)
        assert op.compute_unit(unit_for("/n", [], ["result"]), 0) == {}

    @pytest.mark.parametrize(
        "params",
        [
            {"queries": 0},
            {"query_mode": "sideways"},
            {"range_ms": -1},
        ],
    )
    def test_validation(self, params):
        with pytest.raises(ConfigError):
            TesterOperator(OperatorConfig(name="t", params=params))


class TestAggregatorOperator:
    def make(self, host, window_s=10, **params):
        cfg = OperatorConfig(
            name="agg", window_ns=window_s * NS_PER_SEC, params=params
        )
        return bind(AggregatorOperator(cfg), host)

    def test_mean_pools_all_inputs(self):
        host = Host()
        host.add_series("/n/a", [1, 2, 3])
        host.add_series("/n/b", [10, 20, 30])
        op = self.make(host, ops={"m": "mean"})
        unit = unit_for("/n", ["/n/a", "/n/b"], ["m"])
        assert op.compute_unit(unit, 0)["m"] == pytest.approx(11.0)

    @pytest.mark.parametrize(
        "agg,expected",
        [
            ("min", 1.0),
            ("max", 5.0),
            ("sum", 15.0),
            ("median", 3.0),
            ("count", 5.0),
            ("last", 5.0),
            ("q50", 3.0),
            ("q100", 5.0),
        ],
    )
    def test_simple_aggregates(self, agg, expected):
        host = Host()
        host.add_series("/n/a", [1, 2, 3, 4, 5])
        op = self.make(host, ops={"o": agg})
        unit = unit_for("/n", ["/n/a"], ["o"])
        assert op.compute_unit(unit, 0)["o"] == pytest.approx(expected)

    def test_delta_and_rate_use_first_input(self):
        host = Host()
        host.add_series("/n/ctr", [0, 5, 10, 15])
        op = self.make(host, ops={"d": "delta", "r": "rate"})
        unit = unit_for("/n", ["/n/ctr"], ["d", "r"])
        out = op.compute_unit(unit, 0)
        assert out["d"] == pytest.approx(15.0)
        assert out["r"] == pytest.approx(5.0)

    def test_shorthand_single_op(self):
        host = Host()
        host.add_series("/n/a", [2, 4])
        cfg = OperatorConfig(
            name="agg",
            window_ns=10 * NS_PER_SEC,
            outputs=["<bottomup>m"],
            params={"op": "mean"},
        )
        op = bind(AggregatorOperator(cfg), host)
        unit = unit_for("/n", ["/n/a"], ["m"])
        assert op.compute_unit(unit, 0)["m"] == pytest.approx(3.0)

    def test_missing_ops_config_rejected(self):
        with pytest.raises(ConfigError):
            AggregatorOperator(OperatorConfig(name="agg"))

    def test_unknown_aggregate_rejected(self):
        with pytest.raises(ConfigError):
            AggregatorOperator(
                OperatorConfig(name="agg", params={"ops": {"o": "zzz"}})
            )

    def test_unconfigured_output_raises(self):
        host = Host()
        host.add_series("/n/a", [1])
        op = self.make(host, ops={"other": "mean"})
        unit = unit_for("/n", ["/n/a"], ["o"])
        with pytest.raises(ConfigError):
            op.compute_unit(unit, 0)

    def test_delta_with_single_reading_is_nan(self):
        host = Host()
        host.add_series("/n/a", [1])
        op = self.make(host, ops={"d": "delta"})
        out = op.compute_unit(unit_for("/n", ["/n/a"], ["d"]), 0)
        assert np.isnan(out["d"])


class TestSmootherOperator:
    def test_window_mean(self):
        host = Host()
        host.add_series("/n/x", [0, 10, 20])
        cfg = OperatorConfig(name="s", window_ns=10 * NS_PER_SEC)
        op = bind(SmootherOperator(cfg), host)
        out = op.compute_unit(unit_for("/n", ["/n/x"], ["sx"]), 0)
        assert out["sx"] == pytest.approx(10.0)

    def test_ewma_weights_recent_higher(self):
        host = Host()
        host.add_series("/n/x", [0, 0, 0, 100])
        cfg = OperatorConfig(
            name="s", window_ns=10 * NS_PER_SEC, params={"alpha": 0.5}
        )
        op = bind(SmootherOperator(cfg), host)
        out = op.compute_unit(unit_for("/n", ["/n/x"], ["sx"]), 0)
        assert out["sx"] > 25.0  # plain mean

    def test_bad_alpha(self):
        with pytest.raises(ConfigError):
            SmootherOperator(OperatorConfig(name="s", params={"alpha": 2.0}))

    def test_no_inputs_silent(self):
        host = Host()
        cfg = OperatorConfig(name="s", window_ns=NS_PER_SEC)
        op = bind(SmootherOperator(cfg), host)
        assert op.compute_unit(unit_for("/n", [], ["sx"]), 0) == {}


class TestHealthOperator:
    def make(self, host, bounds, trip_count=1):
        cfg = OperatorConfig(
            name="h",
            window_ns=10 * NS_PER_SEC,
            params={"bounds": bounds, "trip_count": trip_count},
        )
        return bind(HealthOperator(cfg), host)

    def test_in_bounds_healthy(self):
        host = Host()
        host.add_series("/n/temp", [50, 51, 52])
        op = self.make(host, {"temp": [40, 60]})
        out = op.compute_unit(unit_for("/n", ["/n/temp"], ["healthy"]), 0)
        assert out == {"healthy": 1.0}

    def test_violation_trips(self):
        host = Host()
        host.add_series("/n/temp", [90, 91])
        op = self.make(host, {"temp": [40, 60]})
        out = op.compute_unit(unit_for("/n", ["/n/temp"], ["healthy"]), 0)
        assert out == {"healthy": 0.0}

    def test_one_sided_bounds(self):
        host = Host()
        host.add_series("/n/x", [5])
        op = self.make(host, {"x": [None, 10]})
        unit = unit_for("/n", ["/n/x"], ["healthy"])
        assert op.compute_unit(unit, 0)["healthy"] == 1.0

    def test_hysteresis_requires_consecutive_trips(self):
        host = Host()
        host.add_series("/n/temp", [90])
        op = self.make(host, {"temp": [40, 60]}, trip_count=2)
        unit = unit_for("/n", ["/n/temp"], ["healthy"])
        assert op.compute_unit(unit, 0)["healthy"] == 1.0  # first strike
        assert op.compute_unit(unit, 1)["healthy"] == 0.0  # second strike

    def test_recovery_resets_counter(self):
        host = Host()
        host.add_series("/n/temp", [90])
        op = self.make(host, {"temp": [40, 60]}, trip_count=2)
        unit = unit_for("/n", ["/n/temp"], ["healthy"])
        op.compute_unit(unit, 0)
        host.caches.clear()
        host.add_series("/n/temp", [50])
        op.compute_unit(unit, 1)  # back in bounds
        host.caches.clear()
        host.add_series("/n/temp", [90])
        assert op.compute_unit(unit, 2)["healthy"] == 1.0  # counter reset

    def test_unbounded_inputs_ignored(self):
        host = Host()
        host.add_series("/n/temp", [50])
        host.add_series("/n/other", [9999])
        op = self.make(host, {"temp": [40, 60]})
        unit = unit_for("/n", ["/n/temp", "/n/other"], ["healthy"])
        assert op.compute_unit(unit, 0)["healthy"] == 1.0

    @pytest.mark.parametrize(
        "params",
        [
            {"bounds": {}},
            {"bounds": {"t": [1]}},
            {"bounds": {"t": [10, 5]}},
            {"bounds": {"t": [0, 1]}, "trip_count": 0},
        ],
    )
    def test_validation(self, params):
        with pytest.raises(ConfigError):
            HealthOperator(OperatorConfig(name="h", params=params))
