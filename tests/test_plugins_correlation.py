"""Tests for the correlation-signature plugin."""

import numpy as np
import pytest

from repro.common.errors import ConfigError
from repro.common.timeutil import NS_PER_SEC
from repro.core.operator import OperatorConfig
from repro.core.queryengine import QueryEngine
from repro.core.units import Unit
from repro.dcdb.sensor import Sensor
from repro.plugins.correlation import CorrelationOperator
from tests.hosts import RecordingHost


class Host(RecordingHost):
    capacity = 128


def unit_for(inputs, out_names):
    return Unit(
        name="/n",
        level=0,
        inputs=list(inputs),
        outputs=[Sensor(f"/n/{o}", is_operator_output=True) for o in out_names],
    )


def make_op(host, window_s=30, **params):
    cfg = OperatorConfig(
        name="corr", window_ns=window_s * NS_PER_SEC, params=params
    )
    op = CorrelationOperator(cfg)
    op.bind(host, QueryEngine(host))
    op.start()
    return op


class TestCorrelation:
    def test_perfectly_correlated_pair(self):
        host = Host()
        x = np.arange(20.0)
        host.add_series("/n/a", x)
        host.add_series("/n/b", 2 * x + 1)
        op = make_op(host)
        out = op.compute_unit(unit_for(["/n/a", "/n/b"], ["corr-0-1"]), 0)
        assert out["corr-0-1"] == pytest.approx(1.0)

    def test_anticorrelated_pair(self):
        host = Host()
        x = np.arange(20.0)
        host.add_series("/n/a", x)
        host.add_series("/n/b", -x)
        op = make_op(host)
        out = op.compute_unit(unit_for(["/n/a", "/n/b"], ["corr-min"]), 0)
        assert out["corr-min"] == pytest.approx(-1.0)

    def test_mean_over_three_inputs(self):
        host = Host()
        rng = np.random.default_rng(0)
        x = np.arange(40.0)
        host.add_series("/n/a", x)
        host.add_series("/n/b", x + rng.normal(0, 0.01, 40))
        host.add_series("/n/c", rng.normal(0, 1, 40))
        op = make_op(host)
        out = op.compute_unit(
            unit_for(["/n/a", "/n/b", "/n/c"], ["corr-mean", "corr-0-1"]), 0
        )
        assert out["corr-0-1"] > 0.99
        # mean over 3 pairs: one ~1, two ~0.
        assert 0.15 < out["corr-mean"] < 0.6

    def test_constant_window_yields_zero(self):
        host = Host()
        host.add_series("/n/a", np.full(20, 3.0))
        host.add_series("/n/b", np.arange(20.0))
        op = make_op(host)
        out = op.compute_unit(unit_for(["/n/a", "/n/b"], ["corr-0-1"]), 0)
        assert out["corr-0-1"] == 0.0

    def test_insufficient_samples_silent(self):
        host = Host()
        host.add_series("/n/a", [1.0, 2.0])
        host.add_series("/n/b", [2.0, 3.0])
        op = make_op(host, min_samples=8)
        assert op.compute_unit(unit_for(["/n/a", "/n/b"], ["corr-0-1"]), 0) == {}

    def test_mismatched_window_lengths_truncated(self):
        host = Host()
        host.add_series("/n/a", np.arange(30.0))
        host.add_series("/n/b", np.arange(12.0))
        op = make_op(host)
        out = op.compute_unit(unit_for(["/n/a", "/n/b"], ["corr-0-1"]), 0)
        assert out["corr-0-1"] == pytest.approx(1.0)

    def test_single_input_rejected(self):
        host = Host()
        host.add_series("/n/a", np.arange(20.0))
        op = make_op(host)
        with pytest.raises(ConfigError):
            op.compute_unit(unit_for(["/n/a"], ["corr-mean"]), 0)

    def test_bad_output_names(self):
        host = Host()
        host.add_series("/n/a", np.arange(20.0))
        host.add_series("/n/b", np.arange(20.0))
        op = make_op(host)
        with pytest.raises(ConfigError):
            op.compute_unit(unit_for(["/n/a", "/n/b"], ["corr-9-1"]), 0)
        with pytest.raises(ConfigError):
            op.compute_unit(unit_for(["/n/a", "/n/b"], ["bogus"]), 0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            CorrelationOperator(OperatorConfig(name="c"))
        with pytest.raises(ConfigError):
            CorrelationOperator(
                OperatorConfig(
                    name="c", window_ns=NS_PER_SEC, params={"min_samples": 1}
                )
            )

    def test_registered(self):
        from repro.core.registry import available_plugins

        assert "correlation" in available_plugins()

    def test_fault_signature_drop(self):
        """Power/temp decorrelation is visible in the signature."""
        host = Host()
        rng = np.random.default_rng(1)
        power = 100 + 50 * np.sin(np.arange(40.0) / 5)
        healthy_temp = 40 + 0.06 * power + rng.normal(0, 0.05, 40)
        broken_temp = np.full(40, 46.0) + rng.normal(0, 0.05, 40)
        op = make_op(host)
        host.add_series("/n/power", power)
        host.add_series("/n/temp", healthy_temp)
        ok = op.compute_unit(unit_for(["/n/power", "/n/temp"], ["corr-0-1"]), 0)
        host.caches.clear()
        host.add_series("/n/power", power)
        host.add_series("/n/temp", broken_temp)
        bad = op.compute_unit(unit_for(["/n/power", "/n/temp"], ["corr-0-1"]), 0)
        assert ok["corr-0-1"] > 0.95
        assert abs(bad["corr-0-1"]) < 0.4
