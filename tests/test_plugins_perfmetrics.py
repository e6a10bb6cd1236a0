"""Tests for the perfmetrics plugin (derived CPU metrics)."""

import pytest

from repro.common.errors import ConfigError
from repro.common.timeutil import NS_PER_SEC
from repro.core.manager import OperatorManager
from repro.core.operator import OperatorConfig
from repro.core.queryengine import QueryEngine
from repro.core.units import Unit
from repro.dcdb.sensor import Sensor
from repro.plugins.perfmetrics import PerfMetricsOperator
from tests.hosts import RecordingHost


class Host(RecordingHost):
    def add_counter(self, topic, rate_per_s, n=10):
        self.add_series(topic, [i * rate_per_s for i in range(n)])


def make_unit(outputs):
    return Unit(
        name="/n/cpu0",
        level=0,
        inputs=[
            "/n/cpu0/cpu-cycles",
            "/n/cpu0/instructions",
            "/n/cpu0/cache-misses",
            "/n/cpu0/cache-references",
            "/n/cpu0/flops",
            "/n/cpu0/vector-ops",
        ],
        outputs=[
            Sensor(f"/n/cpu0/{o}", is_operator_output=True) for o in outputs
        ],
    )


@pytest.fixture
def host():
    h = Host()
    h.add_counter("/n/cpu0/cpu-cycles", 2.0e9)
    h.add_counter("/n/cpu0/instructions", 1.0e9)
    h.add_counter("/n/cpu0/cache-misses", 1.0e7)
    h.add_counter("/n/cpu0/cache-references", 2.0e8)
    h.add_counter("/n/cpu0/flops", 5.0e8)
    h.add_counter("/n/cpu0/vector-ops", 2.5e8)
    return h


def make_op(host, window_s=5):
    cfg = OperatorConfig(name="pm", window_ns=window_s * NS_PER_SEC)
    op = PerfMetricsOperator(cfg)
    op.bind(host, QueryEngine(host))
    op.start()
    return op


class TestDerivedMetrics:
    def test_cpi(self, host):
        op = make_op(host)
        out = op.compute_unit(make_unit(["cpi"]), 9 * NS_PER_SEC)
        assert out["cpi"] == pytest.approx(2.0)

    def test_ipc_is_inverse(self, host):
        op = make_op(host)
        out = op.compute_unit(make_unit(["ipc"]), 9 * NS_PER_SEC)
        assert out["ipc"] == pytest.approx(0.5)

    def test_rates_are_per_second(self, host):
        op = make_op(host)
        out = op.compute_unit(
            make_unit(["instr-rate", "flops-rate"]), 9 * NS_PER_SEC
        )
        assert out["instr-rate"] == pytest.approx(1.0e9)
        assert out["flops-rate"] == pytest.approx(5.0e8)

    def test_ratios(self, host):
        op = make_op(host)
        out = op.compute_unit(
            make_unit(["vector-ratio", "miss-ratio"]), 9 * NS_PER_SEC
        )
        assert out["vector-ratio"] == pytest.approx(0.25)
        assert out["miss-ratio"] == pytest.approx(0.05)

    def test_unknown_metric_raises(self, host):
        op = make_op(host)
        with pytest.raises(ConfigError):
            op.compute_unit(make_unit(["bogus"]), 9 * NS_PER_SEC)

    def test_single_reading_yields_nothing(self):
        host = Host()
        host.add_counter("/n/cpu0/cpu-cycles", 1e9, n=1)
        host.add_counter("/n/cpu0/instructions", 1e9, n=1)
        op = make_op(host)
        assert op.compute_unit(make_unit(["cpi"]), 0) == {}

    def test_zero_denominator_yields_nothing(self):
        host = Host()
        host.add_counter("/n/cpu0/cpu-cycles", 1e9)
        host.add_counter("/n/cpu0/instructions", 0.0)
        op = make_op(host)
        assert op.compute_unit(make_unit(["cpi"]), 9 * NS_PER_SEC) == {}

    def test_requires_window(self):
        with pytest.raises(ConfigError):
            PerfMetricsOperator(OperatorConfig(name="pm", window_ns=0))


class TestEndToEnd:
    def test_cpi_tracks_simulated_workload(self, wired_host):
        """perfmetrics on the live simulator produces plausible idle CPI."""
        manager = OperatorManager()
        wired_host.pusher.attach_analytics(manager)
        manager.load_plugin(
            {
                "plugin": "perfmetrics",
                "operators": {
                    "cpi": {
                        "interval_s": 1,
                        "window_s": 3,
                        "delay_s": 2,
                        "inputs": [
                            "<bottomup>cpu-cycles",
                            "<bottomup>instructions",
                        ],
                        "outputs": ["<bottomup>cpi"],
                    }
                },
            }
        )
        wired_host.run(10)
        cache = wired_host.pusher.cache_for(
            wired_host.node + "/cpu00/cpi"
        )
        assert cache is not None and len(cache) > 0
        cpi = cache.latest().value
        assert 1.0 < cpi < 2.5  # idle profile CPI ~1.5
