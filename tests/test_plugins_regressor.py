"""Tests for the regressor plugin (online RF prediction, Fig 6)."""

import numpy as np
import pytest

from repro.common.errors import ConfigError
from repro.common.timeutil import NS_PER_SEC
from repro.core.operator import OperatorConfig
from repro.core.queryengine import QueryEngine
from repro.core.units import Unit
from repro.dcdb.sensor import Sensor
from repro.plugins.regressor import OnlineRegressionModel, RegressorOperator
from tests.hosts import RecordingHost


class Host(RecordingHost):
    def __init__(self, topics):
        super().__init__((t, self.ring()) for t in topics)


def make_unit(with_error=False):
    outputs = [Sensor("/n/pred-power", is_operator_output=True)]
    if with_error:
        outputs.append(Sensor("/n/pred-error", is_operator_output=True))
    return Unit(
        name="/n",
        level=0,
        inputs=["/n/x", "/n/power"],
        outputs=outputs,
    )


def make_op(training_samples=60, **extra):
    params = {
        "target": "power",
        "training_samples": training_samples,
        "n_estimators": 8,
        "max_depth": 8,
        "seed": 1,
        **extra,
    }
    cfg = OperatorConfig(
        name="reg",
        window_ns=4 * NS_PER_SEC,
        operator_outputs=["avg-error"],
        params=params,
    )
    return RegressorOperator(cfg)


def drive(op, host, unit, steps, signal, start=0):
    """Push one (x, power) pair per second and run the operator."""
    results = []
    for i in range(start, start + steps):
        ts = i * NS_PER_SEC
        x, p = signal(i)
        host.push("/n/x", ts, x)
        host.push("/n/power", ts, p)
        out = op.compute_unit(unit, ts)
        results.append((ts, out))
    return results


class TestOnlineTraining:
    def test_trains_after_threshold_and_predicts(self):
        host = Host(["/n/x", "/n/power"])
        op = make_op(training_samples=60)
        op.bind(host, QueryEngine(host))
        op.start()
        unit = make_unit()
        model = op.model_for(unit)

        # power(t) follows x's recent mean: learnable from window stats.
        def signal(i):
            x = 100.0 + 50.0 * np.sin(i / 6.0)
            return x, x * 2.0

        drive(op, host, unit, steps=75, signal=signal)
        assert model.trained
        # After training, predictions exist and are accurate.
        results = drive(op, host, unit, steps=30, signal=signal, start=75)
        preds = [
            (ts, out["pred-power"]) for ts, out in results if "pred-power" in out
        ]
        assert len(preds) >= 25
        errs = []
        for ts, pred in preds:
            i = ts // NS_PER_SEC + 1  # prediction targets the next step
            _, actual = signal(i)
            errs.append(abs(pred - actual) / actual)
        assert np.mean(errs) < 0.08

    def test_no_prediction_before_training(self):
        host = Host(["/n/x", "/n/power"])
        op = make_op(training_samples=1000)
        op.bind(host, QueryEngine(host))
        op.start()
        unit = make_unit()
        results = drive(op, host, unit, 20, lambda i: (float(i), float(i)))
        assert all("pred-power" not in out for _, out in results)

    def test_causal_pairing(self):
        """The feature vector at step t pairs with the target at t+1."""
        model = OnlineRegressionModel(3, 2, 4, 1, seed=0)
        host = Host(["/n/x", "/n/power"])
        op = make_op(training_samples=3)
        op.bind(host, QueryEngine(host))
        op.start()
        unit = make_unit()
        # Step 0 builds features only; pair count stays 0.
        host.push("/n/x", 0, 1.0)
        host.push("/n/power", 0, 10.0)
        op.compute_unit(unit, 0)
        m = op.model_for(unit)
        assert m.buffered == 0
        # Step 1 closes the (features@0, power@1) pair.
        host.push("/n/x", NS_PER_SEC, 2.0)
        host.push("/n/power", NS_PER_SEC, 20.0)
        op.compute_unit(unit, NS_PER_SEC)
        assert m.buffered == 1

    def test_error_output_after_training(self):
        host = Host(["/n/x", "/n/power"])
        op = make_op(training_samples=40)
        op.bind(host, QueryEngine(host))
        op.start()
        unit = make_unit(with_error=True)

        def signal(i):
            return float(i % 7), 50.0 + (i % 7)

        drive(op, host, unit, 50, signal)
        results = drive(op, host, unit, 10, signal, start=50)
        errors = [out["pred-error"] for _, out in results if "pred-error" in out]
        assert errors, "relative error output expected once predicting"
        assert all(e >= 0 for e in errors)

    def test_operator_level_avg_error(self):
        host = Host(["/n/x", "/n/power"])
        op = make_op(training_samples=30)
        op.bind(host, QueryEngine(host))
        op.set_units([make_unit(with_error=True)])
        op.start()
        for i in range(50):
            ts = i * NS_PER_SEC
            host.push("/n/x", ts, float(i % 5))
            host.push("/n/power", ts, 100.0 + (i % 5))
            op.compute(ts)
        agg = [v for t, _, v in host.stored if t == "/analytics/reg/avg-error"]
        assert agg, "operator-level avg-error should be stored"

    def test_delta_inputs_differenced(self):
        host = Host(["/n/x", "/n/power"])
        op = make_op(training_samples=5, delta_inputs=["x"])
        op.bind(host, QueryEngine(host))
        op.start()
        unit = make_unit()
        # Single reading of a delta input -> no features yet.
        host.push("/n/x", 0, 5.0)
        host.push("/n/power", 0, 1.0)
        op.compute_unit(unit, 0)
        assert op.model_for(unit).buffered == 0

    def test_missing_target_sensor_raises(self):
        host = Host(["/n/x"])
        op = make_op()
        op.bind(host, QueryEngine(host))
        op.start()
        unit = Unit(
            name="/n", level=0, inputs=["/n/x"],
            outputs=[Sensor("/n/pred", is_operator_output=True)],
        )
        with pytest.raises(ConfigError):
            op.compute_unit(unit, 0)

    @pytest.mark.parametrize(
        "params",
        [
            {},
            {"target": "power", "training_samples": 0},
        ],
    )
    def test_validation(self, params):
        cfg = OperatorConfig(name="r", window_ns=NS_PER_SEC, params=params)
        with pytest.raises(ConfigError):
            RegressorOperator(cfg)

    def test_requires_window(self):
        cfg = OperatorConfig(name="r", params={"target": "power"})
        with pytest.raises(ConfigError):
            RegressorOperator(cfg)

    def test_training_progress_diagnostic(self):
        host = Host(["/n/x", "/n/power"])
        op = make_op(training_samples=100)
        op.bind(host, QueryEngine(host))
        op.set_units([make_unit()])
        op.start()
        for i in range(10):
            ts = i * NS_PER_SEC
            host.push("/n/x", ts, 1.0)
            host.push("/n/power", ts, 2.0)
            op.compute(ts)
        assert op.training_progress()["<shared>"] == 9
