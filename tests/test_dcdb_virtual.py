"""Tests for virtual sensors (expression-defined, query-time evaluated)."""

import numpy as np
import pytest

from repro.common.errors import ConfigError, QueryError
from repro.common.timeutil import NS_PER_SEC
from repro.core.queryengine import QueryEngine
from repro.dcdb.virtual import (
    VirtualSensor,
    VirtualSensorRegistry,
    parse_expression,
)
from tests.hosts import RecordingHost


class TestExpressionParser:
    def test_constant(self):
        assert parse_expression("4.5").eval({}) == 4.5

    def test_reference(self):
        node = parse_expression("</a/b/power>")
        assert node.topics() == ["/a/b/power"]
        assert node.eval({"/a/b/power": np.float64(7.0)}) == 7.0

    def test_precedence(self):
        node = parse_expression("2 + 3 * 4")
        assert node.eval({}) == 14.0

    def test_parentheses(self):
        assert parse_expression("(2 + 3) * 4").eval({}) == 20.0

    def test_unary_minus(self):
        assert parse_expression("-3 + 5").eval({}) == 2.0
        assert parse_expression("2 * -3").eval({}) == -6.0

    def test_division_by_zero_is_nan_or_inf(self):
        out = parse_expression("</a> / </b>").eval(
            {"/a": np.array([1.0]), "/b": np.array([0.0])}
        )
        assert not np.isfinite(out[0])

    def test_vectorised_eval(self):
        node = parse_expression("(</a> + </b>) / 2")
        out = node.eval(
            {"/a": np.array([1.0, 3.0]), "/b": np.array([3.0, 5.0])}
        )
        assert list(out) == [2.0, 4.0]

    def test_scientific_notation(self):
        assert parse_expression("1e3 * 2").eval({}) == 2000.0

    @pytest.mark.parametrize(
        "bad",
        ["", "2 +", "(2", "2 ) ", "</a> </b>", "2 ** 3", "<>", "foo"],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ConfigError):
            parse_expression(bad)


def fake_fetch(series):
    """fetch(topic, start, end) over dict topic -> (ts, values)."""

    def fetch(topic, start, end):
        ts, values = series[topic]
        ts = np.asarray(ts, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        mask = (ts >= start) & (ts <= end)
        return ts[mask], values[mask]

    return fetch


class TestVirtualSensor:
    def test_sum_of_two_sensors(self):
        vs = VirtualSensor(
            "/rack/total-power", "</n0/power> + </n1/power>", NS_PER_SEC
        )
        series = {
            "/n0/power": ([0, NS_PER_SEC, 2 * NS_PER_SEC], [10.0, 20.0, 30.0]),
            "/n1/power": ([0, NS_PER_SEC, 2 * NS_PER_SEC], [1.0, 2.0, 3.0]),
        }
        ts, values = vs.evaluate(fake_fetch(series), 0, 2 * NS_PER_SEC)
        assert list(values) == [11.0, 22.0, 33.0]
        assert list(ts) == [0, NS_PER_SEC, 2 * NS_PER_SEC]

    def test_sample_and_hold_alignment(self):
        # /b updates at half the rate of /a: its value holds between
        # grid points.
        vs = VirtualSensor("/v", "</a> + </b>", NS_PER_SEC)
        series = {
            "/a": ([0, NS_PER_SEC, 2 * NS_PER_SEC], [1.0, 2.0, 3.0]),
            "/b": ([0, 2 * NS_PER_SEC], [10.0, 30.0]),
        }
        _, values = vs.evaluate(fake_fetch(series), 0, 2 * NS_PER_SEC)
        assert list(values) == [11.0, 12.0, 33.0]

    def test_missing_early_data_is_nan(self):
        vs = VirtualSensor("/v", "</a> * 2", NS_PER_SEC)
        series = {"/a": ([2 * NS_PER_SEC], [5.0])}
        _, values = vs.evaluate(fake_fetch(series), 0, 2 * NS_PER_SEC)
        assert np.isnan(values[0]) and np.isnan(values[1])
        assert values[2] == 10.0

    def test_inverted_range_rejected(self):
        vs = VirtualSensor("/v", "</a>", NS_PER_SEC)
        with pytest.raises(QueryError):
            vs.evaluate(fake_fetch({"/a": ([], [])}), 10, 5)

    def test_requires_sensor_reference(self):
        with pytest.raises(ConfigError):
            VirtualSensor("/v", "1 + 2", NS_PER_SEC)

    def test_requires_positive_interval(self):
        with pytest.raises(ConfigError):
            VirtualSensor("/v", "</a>", 0)


class TestRegistry:
    def test_define_and_lookup(self):
        reg = VirtualSensorRegistry()
        vs = reg.define("/v", "</a> + 1", NS_PER_SEC)
        assert reg.get("/v") is vs
        assert "/v" in reg
        assert reg.topics() == ["/v"]
        assert len(reg) == 1

    def test_duplicate_rejected(self):
        reg = VirtualSensorRegistry()
        reg.define("/v", "</a>", NS_PER_SEC)
        with pytest.raises(ConfigError):
            reg.define("/v", "</b>", NS_PER_SEC)


class TestQueryEngineIntegration:
    def make_engine(self):
        host = RecordingHost()
        host.add_series("/n0/power", [100, 110, 120, 130])
        host.add_series("/n1/power", [50, 51, 52, 53])
        engine = QueryEngine(host)
        engine.define_virtual(
            "/total-power", "</n0/power> + </n1/power>", NS_PER_SEC
        )
        return engine

    def test_absolute_query_evaluates(self):
        engine = self.make_engine()
        view = engine.query_absolute("/total-power", 0, 3 * NS_PER_SEC)
        assert list(view.values()) == [150.0, 161.0, 172.0, 183.0]

    def test_relative_query_anchors_at_newest(self):
        engine = self.make_engine()
        view = engine.query_relative("/total-power", NS_PER_SEC)
        assert list(view.values()) == [172.0, 183.0]

    def test_virtual_listed_in_topics(self):
        engine = self.make_engine()
        assert "/total-power" in engine.topics()

    def test_virtual_over_virtual(self):
        engine = self.make_engine()
        engine.define_virtual(
            "/total-kw", "</total-power> / 1000", NS_PER_SEC
        )
        view = engine.query_absolute("/total-kw", 0, NS_PER_SEC)
        assert view.values()[0] == pytest.approx(0.150)

    def test_cycle_detected(self):
        engine = self.make_engine()
        engine.define_virtual("/v1", "</v2> + 1", NS_PER_SEC)
        engine.define_virtual("/v2", "</v1> + 1", NS_PER_SEC)
        with pytest.raises(ConfigError):
            engine.query_absolute("/v1", 0, NS_PER_SEC)

    def test_operator_can_consume_virtual_sensor(self):
        """Virtual sensors feed operators like physical ones."""
        from repro.core.operator import OperatorConfig
        from repro.core.units import Unit
        from repro.dcdb.sensor import Sensor
        from repro.plugins.aggregator import AggregatorOperator

        engine = self.make_engine()
        host = engine._host
        cfg = OperatorConfig(
            name="agg",
            window_ns=3 * NS_PER_SEC,
            params={"ops": {"avg": "mean"}},
        )
        op = AggregatorOperator(cfg)
        op.bind(host, engine)
        op.start()
        unit = Unit(
            name="/",
            level=-1,
            inputs=["/total-power"],
            outputs=[Sensor("/avg", is_operator_output=True)],
        )
        out = op.compute_unit(unit, 3 * NS_PER_SEC)
        assert out["avg"] == pytest.approx((150 + 161 + 172 + 183) / 4)
