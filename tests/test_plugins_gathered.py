"""The converted plugins against the code they replaced.

perfmetrics, regressor, classifier, correlation and clustering used to
read their own windows (``self.engine.query_relative`` / ``latest`` per
input, per unit); they are now handed them by the framework's one gather
(``OperatorBase.compute_batch`` -> ``batch_window`` ->
``compute_window``).  The reference here is not today's code run another
way: it is the parent commit's ``compute_unit`` bodies, with their
``_delta`` / ``_features`` / ``_windows`` / ``_unit_features`` helpers,
frozen below as subclasses.  Overriding ``compute_unit`` puts them on the
per-unit loop, so they issue exactly the scalar queries the parent did.

Same answers means byte-equal stored series, equal error and result
counts and equal model state — over a deployment with an outage, spill
replay and jitter, on both kinds of host and in both unit modes — and,
on a scripted feed, for the windows that are awkward: an input that
never arrives, one that starts late, a single reading, a counter that
does not advance.
"""

import copy

import numpy as np
import pytest

from repro.common.errors import ConfigError, QueryError
from repro.common.timeutil import NS_PER_SEC
from repro.core import registry
from repro.core.operator import OperatorBase, OperatorConfig
from repro.core.queryengine import QueryEngine
from repro.core.units import Unit
from repro.dcdb.sensor import Sensor
from repro.deploy import build_deployment
from repro.ml.stats import window_features
from repro.plugins.classifier import ClassifierOperator
from repro.plugins.clustering import ClusteringOperator
from repro.plugins.correlation import _PAIR_RE, CorrelationOperator
from repro.plugins.perfmetrics import _METRICS, PerfMetricsOperator
from repro.plugins.regressor import RegressorOperator
from tests.hosts import RecordingHost

# ---------------------------------------------------------------------
# The parent's code (commit b77bc61), frozen.  Do not tidy: it is the
# reference, bugs and double reads included.
# ---------------------------------------------------------------------


class ParentPerfMetrics(PerfMetricsOperator):
    def _delta(self, unit, counter, ts):
        topics = unit.inputs_named(counter)
        if not topics:
            return None
        view = self.engine.query_relative(topics[0], self.config.window_ns)
        if len(view) < 2:
            return None
        values = view.values()
        return float(values[-1] - values[0])

    def _span_seconds(self, unit, counter):
        topics = unit.inputs_named(counter)
        if not topics:
            return None
        view = self.engine.query_relative(topics[0], self.config.window_ns)
        if len(view) < 2:
            return None
        ts = view.timestamps()
        span = (int(ts[-1]) - int(ts[0])) / 1e9
        return span if span > 0 else None

    def compute_unit(self, unit, ts):
        out = {}
        for sensor in unit.outputs:
            spec = _METRICS.get(sensor.name)
            if spec is None:
                raise ConfigError(f"unknown derived metric {sensor.name!r}")
            num_counter, den_counter = spec
            num = self._delta(unit, num_counter, ts)
            if num is None:
                continue
            if den_counter is None:
                span = self._span_seconds(unit, num_counter)
                if span is None:
                    continue
                out[sensor.name] = num / span
            else:
                den = self._delta(unit, den_counter, ts)
                if den is None or den <= 0:
                    continue
                out[sensor.name] = num / den
        return out


class ParentRegressor(RegressorOperator):
    def _features(self, unit):
        parts = []
        for topic in unit.inputs:
            view = self.engine.query_relative(topic, self.config.window_ns)
            values = view.values()
            name = topic.rsplit("/", 1)[-1]
            if name in self.delta_inputs:
                if len(values) < 2:
                    return None
                values = np.diff(values)
            if values.size == 0:
                return None
            parts.append(window_features(values))
        if not parts:
            return None
        features = np.concatenate(parts)
        if not np.all(np.isfinite(features)):
            return None
        return features

    def _target_value(self, unit):
        topics = unit.inputs_named(self.target)
        if not topics:
            raise ConfigError(f"no input sensor named {self.target!r}")
        view = self.engine.latest(topics[0])
        return float(view.values()[-1]) if len(view) else None

    def compute_unit(self, unit, ts):
        model = self.model_for(unit)
        current = self._target_value(unit)
        out = {}
        if current is not None:
            prev_features = model.pending_features.pop(unit.name, None)
            if prev_features is not None:
                model.add_pair(prev_features, current)
            prev_pred = model.pending_prediction.pop(unit.name, None)
            if prev_pred is not None and current != 0.0:
                rel_err = abs(prev_pred - current) / abs(current)
                for sensor in unit.outputs:
                    if "error" in sensor.name:
                        out[sensor.name] = rel_err
        features = self._features(unit)
        if features is None:
            return out
        model.pending_features[unit.name] = features
        if model.trained:
            pred = model.predict(features)
            model.pending_prediction[unit.name] = pred
            for sensor in unit.outputs:
                if "error" not in sensor.name:
                    out[sensor.name] = pred
        return out


class ParentClassifier(ClassifierOperator):
    def _features(self, unit):
        parts = []
        for topic in unit.inputs:
            name = topic.rsplit("/", 1)[-1]
            if name == self.label:
                continue
            view = self.engine.query_relative(topic, self.config.window_ns)
            values = view.values()
            if name in self.delta_inputs:
                if len(values) < 2:
                    return None
                values = np.diff(values)
            if values.size == 0:
                return None
            parts.append(window_features(values))
        if not parts:
            return None
        features = np.concatenate(parts)
        if not np.all(np.isfinite(features)):
            return None
        return features

    def _label_value(self, unit):
        topics = unit.inputs_named(self.label)
        if not topics:
            raise ConfigError(f"no input sensor named {self.label!r}")
        view = self.engine.latest(topics[0])
        if not len(view):
            return None
        label = int(round(view.values()[-1]))
        if not (0 <= label < self.n_classes):
            return None
        return label

    def compute_unit(self, unit, ts):
        model = self.model_for(unit)
        features = self._features(unit)
        if features is None:
            return {}
        if not model.trained:
            label = self._label_value(unit)
            if label is not None:
                model.add_pair(features, label)
            return {}
        predicted = model.predict(features)
        return {sensor.name: float(predicted) for sensor in unit.outputs}


class ParentCorrelation(CorrelationOperator):
    def _windows(self, unit):
        columns = []
        for topic in unit.inputs:
            view = self.engine.query_relative(topic, self.config.window_ns)
            values = view.values()
            if len(values) < self.min_samples:
                return None
            columns.append(values)
        n = min(len(c) for c in columns)
        return np.vstack([c[-n:] for c in columns])

    def compute_unit(self, unit, ts):
        if len(unit.inputs) < 2:
            raise ConfigError("needs >= 2 inputs")
        data = self._windows(unit)
        if data is None:
            return {}
        with np.errstate(invalid="ignore"):
            corr = np.corrcoef(data)
        k = len(unit.inputs)
        iu = np.triu_indices(k, 1)
        pairs = corr[iu]
        pairs = np.nan_to_num(pairs, nan=0.0)
        out = {}
        for sensor in unit.outputs:
            name = sensor.name
            if name == "corr-mean":
                out[name] = float(pairs.mean())
            elif name == "corr-min":
                out[name] = float(pairs.min())
            else:
                match = _PAIR_RE.match(name)
                if match is None:
                    raise ConfigError(f"unknown correlation output {name!r}")
                i, j = int(match.group(1)), int(match.group(2))
                if not (0 <= i < k and 0 <= j < k and i != j):
                    raise ConfigError(f"pair ({i},{j}) outside the unit")
                value = corr[i, j]
                out[name] = float(0.0 if np.isnan(value) else value)
        return out


def parent_unit_features(self, inputs):
    """The parent's ``ClusteringOperator._unit_features(unit)``; it read
    nothing of the unit but ``unit.inputs``."""
    feats = []
    for topic in inputs:
        name = topic.rsplit("/", 1)[-1]
        transform = self.transforms.get(name, "mean")
        try:
            view = self.engine.query_relative(topic, self.config.window_ns)
        except Exception:
            return None
        values = view.values()
        if values.size == 0:
            return None
        if transform == "mean":
            feats.append(float(values.mean()))
        elif transform == "delta":
            if values.size < 2:
                return None
            feats.append(float(values[-1] - values[0]))
        else:  # rate
            if len(view) < 2:
                return None
            ts_arr = view.timestamps()
            span = (int(ts_arr[-1]) - int(ts_arr[0])) / 1e9
            if span <= 0:
                return None
            feats.append(float((values[-1] - values[0]) / span))
    vec = np.asarray(feats)
    if not np.all(np.isfinite(vec)):
        return None
    return vec


class ParentClustering(ClusteringOperator):
    """Today's fit over the parent's feature vectors: the rows it is
    handed only tell it which inputs to read the parent's way."""

    def _unit_features(self, rows):
        return parent_unit_features(self, [topic for topic, _ts, _v in rows])


PARENTS = {
    "perfmetrics": ParentPerfMetrics,
    "regressor": ParentRegressor,
    "classifier": ParentClassifier,
    "correlation": ParentCorrelation,
    "clustering": ParentClustering,
}


def test_the_references_stay_off_the_gather():
    """What makes them a reference: the four ``compute_unit`` ones run
    the per-unit loop, and nothing under test is what they call."""
    for name, cls in PARENTS.items():
        if name != "clustering":
            assert cls.compute_unit is not OperatorBase.compute_unit
            assert cls.compute_batch is OperatorBase.compute_batch


# ---------------------------------------------------------------------
# Model state, comparable
# ---------------------------------------------------------------------


def model_state(op):
    """Every model of ``op`` (shared or per unit) as plain data."""
    models = dict(op._unit_models)
    if op._shared_model is not None:
        models["<shared>"] = op._shared_model
    state = {}
    for name, model in sorted(models.items()):
        entry = {
            "trained": model.trained,
            "X": [x.tobytes() for x in model._X],
            "y": list(model._y),
        }
        if hasattr(model, "pending_features"):
            entry["pending_features"] = {
                unit: vec.tobytes()
                for unit, vec in sorted(model.pending_features.items())
            }
            entry["pending_prediction"] = dict(model.pending_prediction)
        state[name] = entry
    return state


# ---------------------------------------------------------------------
# A deployment: 30 s, a 5 s outage, spill replay, jitter
# ---------------------------------------------------------------------


def _block(plugin, name, **fields):
    return {"plugin": plugin, "operators": {name: dict(interval_s=1, **fields)}}


def analytics_blocks(unit_mode):
    """All five analyses (and ``health``, the classifier's label source)
    over sensors every host of the deployment has."""
    mode = dict(unit_mode=unit_mode, max_workers=3)
    return [
        _block(
            "perfmetrics", "pm", window_s=5, **mode,
            inputs=["<bottomup>cpu-cycles", "<bottomup>instructions"],
            outputs=["<bottomup>cpi", "<bottomup>ipc", "<bottomup>instr-rate"],
        ),
        _block(
            "correlation", "corr", window_s=10, **mode,
            inputs=["<bottomup-1>power", "<bottomup-1>temp", "<bottomup-1>freq"],
            outputs=["<bottomup-1>corr-mean", "<bottomup-1>corr-min",
                     "<bottomup-1>corr-0-1"],
            params={"min_samples": 4},
        ),
        _block(
            "regressor", "pred", window_s=4, **mode,
            inputs=["<bottomup-1>power", "<bottomup-1>temp",
                    "<bottomup, filter cpu00>instructions"],
            outputs=["<bottomup-1>pred-power", "<bottomup-1>pred-error"],
            operator_outputs=["avg-error"],
            params={"target": "power", "training_samples": 6,
                    "n_estimators": 3, "max_depth": 4,
                    "delta_inputs": ["instructions"], "seed": 5},
        ),
        _block(
            "health", "hl", window_s=2,
            inputs=["<bottomup-1>power"], outputs=["<bottomup-1>healthy"],
            params={"bounds": {"power": [None, 150.0]}},
        ),
        _block(
            "classifier", "cls", window_s=4, **mode,
            inputs=["<bottomup-1>power", "<bottomup-1>temp",
                    "<bottomup-1>healthy"],
            outputs=["<bottomup-1>load-class"],
            params={"label": "healthy", "n_classes": 2, "training_samples": 5,
                    "n_estimators": 3, "max_depth": 4, "seed": 6},
        ),
        _block(
            "clustering", "states", window_s=6, **mode,
            inputs=["<bottomup>cpu-cycles", "<bottomup>instructions"],
            outputs=["<bottomup>cluster", "<bottomup>outlier"],
            operator_outputs=["n-clusters", "n-outliers"],
            params={"transforms": {"cpu-cycles": "rate",
                                   "instructions": "delta"},
                    "n_components": 2, "min_units": 2, "seed": 4},
        ),
    ]


def deployment_spec(host, unit_mode):
    blocks = analytics_blocks(unit_mode)
    return {
        "cluster": {
            "racks": 2, "chassis_per_rack": 1, "nodes_per_chassis": 2,
            "cpus": 4, "seed": 11,
        },
        "monitoring": {
            "plugins": ["sysfs", "perfevent"],
            "perfevent_counters": ["cpu-cycles", "instructions"],
            "interval_ms": 1000, "cache_window_s": 30,
        },
        "jobs": [
            {"id": "job0", "app": "hpl", "nodes": 2, "start_s": 3, "end_s": 21},
            {"id": "job1", "app": "lammps", "nodes": 1, "start_s": 8,
             "end_s": 10**6},
        ],
        # Irregular arrival at the agent: five seconds of nothing, then
        # the spill replayed in one burst; jitter reorders in flight.
        "network": {
            "latency_ms": 5, "jitter_ms": 4, "seed": 3,
            "outages": [{"start_s": 12, "end_s": 17}],
            "spill": {"retry_base_ms": 400},
        },
        "analytics": {
            "pushers": blocks if host == "pushers" else [],
            "agent": blocks if host == "agent" else [],
        },
    }


def build_with_parent_twin(spec, monkeypatch):
    """The deployment as shipped, and the same spec built while the
    registry names the frozen parent classes."""
    dep = build_deployment(copy.deepcopy(spec))
    with monkeypatch.context() as patch:
        for name, cls in PARENTS.items():
            patch.setitem(registry._REGISTRY, name, cls)
        twin = build_deployment(copy.deepcopy(spec))
    return dep, twin


def managers_of(dep):
    return [*dep.managers.values(), dep.agent_manager]


HORIZON = 10**18


def assert_same_outcome(dep, twin):
    storage, reference = dep.agent.storage, twin.agent.storage
    assert sorted(storage.topics()) == sorted(reference.topics())
    for topic in storage.topics():
        got_ts, got = storage.query(topic, 0, HORIZON)
        want_ts, want = reference.query(topic, 0, HORIZON)
        assert got_ts.tobytes() == want_ts.tobytes(), topic
        assert got.tobytes() == want.tobytes(), topic
    produced = set()
    for mine, theirs in zip(managers_of(dep), managers_of(twin)):
        for a, b in zip(mine.operators(), theirs.operators()):
            # Every operator but health (the label source) has a parent.
            assert (type(b) in PARENTS.values()) == (a.name != "hl")
            assert isinstance(b, type(a))
            assert a.stats()["errors"] == b.stats()["errors"], a.name
            assert a.stats()["unit_results"] == b.stats()["unit_results"], a.name
            if a.config.unit_mode == "sequential":  # a pool logs in any order
                assert a.last_errors == b.last_errors, a.name
            if a.name in ("pred", "cls"):
                assert model_state(a) == model_state(b), a.name
            if a.stats()["unit_results"]:
                produced.add(a.name)
    assert produced == {"pm", "corr", "pred", "hl", "cls", "states"}


@pytest.mark.parametrize("unit_mode", ["sequential", "parallel"])
@pytest.mark.parametrize("host", ["pushers", "agent"])
def test_deployment_through_an_outage_matches_the_parent(
    host, unit_mode, monkeypatch
):
    dep, twin = build_with_parent_twin(
        deployment_spec(host, unit_mode), monkeypatch
    )
    dep.run(30)
    twin.run(30)
    replayed = sum(
        pusher.telemetry.get("spill_replayed_total").value
        for pusher in dep.pushers.values()
    )
    assert replayed > 0  # the outage really made arrival irregular
    assert_same_outcome(dep, twin)
    # Both models got past training, so predictions were compared too.
    for manager in managers_of(dep):
        for op in manager.operators():
            if op.name in ("pred", "cls"):
                assert any(m["trained"] for m in model_state(op).values())


def relative_queries(engine):
    return engine.telemetry.get("qe_query_latency_ns", mode="relative").count


def test_a_perfmetrics_pass_issues_no_scalar_query_and_compiles_one_plan(
    monkeypatch,
):
    """Stated beforehand, exact: 0 relative queries per pass (the parent
    issued 2 per unit per pass for one ratio output), 1 plan compile per
    operator for the run."""
    spec = deployment_spec("pushers", "sequential")
    spec["analytics"]["pushers"] = [
        _block(
            "perfmetrics", "cpi", window_s=5,
            inputs=["<bottomup>cpu-cycles", "<bottomup>instructions"],
            outputs=["<bottomup>cpi"],
        ),
        _block(
            "correlation", "corr", window_s=10,
            inputs=["<bottomup-1>power", "<bottomup-1>temp"],
            outputs=["<bottomup-1>corr-0-1"], params={"min_samples": 4},
        ),
    ]
    dep, twin = build_with_parent_twin(spec, monkeypatch)
    dep.run(10)
    twin.run(10)  # every window has its two readings by now
    warm = [relative_queries(m.engine) for m in twin.managers.values()]
    dep.run(20)
    twin.run(20)
    for mine, theirs, before in zip(
        dep.managers.values(), twin.managers.values(), warm
    ):
        assert relative_queries(mine.engine) == 0
        compiles = mine.engine.telemetry.get("qe_plan_compiles_total")
        assert compiles.value == len(mine.operators()) == 2
        cpi, corr = theirs.operators()
        assert relative_queries(theirs.engine) - before == 20 * (
            2 * len(cpi.units) + 2 * len(corr.units)
        )
        assert theirs.engine.telemetry.get("qe_plan_compiles_total").value == 0


# ---------------------------------------------------------------------
# A scripted feed: the awkward windows
# ---------------------------------------------------------------------


class FeedHost(RecordingHost):
    """A bare host whose caches the test fills: with an interval hint
    (a Pusher's caches, count windows) or without (a Collect Agent's,
    time windows)."""

    def __init__(self, hinted):
        super().__init__()
        self.interval_ns = NS_PER_SEC if hinted else 0


UNITS = ("/n/u0", "/n/u1", "/n/u2", "/n/u3")
STEPS = 14


def feed(host, step):
    """One second of readings.  ``u0`` is ordinary.  ``u1``'s
    ``instructions`` and ``temp`` never arrive.  ``u2``'s ``cpu-cycles``
    and ``power`` start at step 6.  ``u3``'s counters do not advance and
    its gauges are constant.  At step 0 every window holds one reading."""
    ts = step * NS_PER_SEC
    for k, unit in enumerate(UNITS):
        wave = np.sin(0.9 * step + k)
        series = {
            "power": 120.0 + 40.0 * wave + 3.0 * k,
            "temp": 50.0 + 5.0 * np.cos(0.7 * step) + k,
            "cpu-cycles": 2.0e9 * step * (1.0 + 0.1 * k) + 1e8 * wave,
            "instructions": 1.1e9 * step + 5e7 * np.cos(step + k),
            "label": float((step + k) % 3 == 0),
        }
        if unit == "/n/u1":
            del series["instructions"], series["temp"]
        if unit == "/n/u2" and step < 6:
            del series["cpu-cycles"], series["power"]
        if unit == "/n/u3":
            series.update({"power": 99.0, "temp": 41.0, "cpu-cycles": 7.0e9,
                           "instructions": 3.0e9})
        for name, value in series.items():
            host.push(f"{unit}/{name}", ts, value)


def units_for(inputs, outputs):
    return [
        Unit(
            name=unit, level=0,
            inputs=[f"{unit}/{name}" for name in inputs],
            outputs=[
                Sensor(f"{unit}/{name}", is_operator_output=True)
                for name in outputs
            ],
        )
        for unit in UNITS
    ]


CASES = {
    "perfmetrics": dict(
        inputs=["cpu-cycles", "instructions"],
        outputs=["cpi", "ipc", "instr-rate", "flops-rate"], window_s=5,
    ),
    "regressor": dict(
        inputs=["cpu-cycles", "power", "temp"],
        outputs=["pred", "pred-error"], window_s=4,
        params={"target": "power", "training_samples": 5, "n_estimators": 3,
                "max_depth": 4, "delta_inputs": ["cpu-cycles"], "seed": 2},
    ),
    "classifier": dict(
        inputs=["power", "label", "cpu-cycles"],
        outputs=["class"], window_s=4,
        params={"label": "label", "n_classes": 2, "training_samples": 4,
                "n_estimators": 3, "max_depth": 4,
                "delta_inputs": ["cpu-cycles"], "seed": 2},
    ),
    "correlation": dict(
        inputs=["power", "temp", "cpu-cycles"],
        outputs=["corr-mean", "corr-min", "corr-0-2", "corr-2-1"], window_s=8,
        params={"min_samples": 3},
    ),
    "clustering": dict(
        inputs=["power", "cpu-cycles", "instructions"],
        outputs=["cluster", "outlier"], window_s=6,
        params={"transforms": {"cpu-cycles": "rate", "instructions": "delta"},
                "n_components": 2, "min_units": 2, "seed": 1},
    ),
}


def make_pair(plugin, hinted, unit_mode):
    """The shipped operator and the parent's, each on its own host fed
    the same readings."""
    case = CASES[plugin]
    pair = []
    for cls in (registry.get_plugin_class(plugin), PARENTS[plugin]):
        host = FeedHost(hinted)
        op = cls(OperatorConfig(
            name=plugin, window_ns=case["window_s"] * NS_PER_SEC,
            unit_mode=unit_mode, max_workers=2,
            params=dict(case.get("params", {})),
        ))
        op.bind(host, QueryEngine(host))
        op.set_units(units_for(case["inputs"], case["outputs"]))
        op.start()
        pair.append((host, op))
    return pair


def plain(results):
    return [(unit.name, values) for unit, values in results]


@pytest.mark.parametrize("unit_mode", ["sequential", "parallel"])
@pytest.mark.parametrize("hinted", [True, False], ids=["pusher", "agent"])
@pytest.mark.parametrize("plugin", sorted(CASES))
def test_awkward_windows_match_the_parent(plugin, hinted, unit_mode):
    (host, op), (parent_host, parent) = make_pair(plugin, hinted, unit_mode)
    seen = set()
    for step in range(STEPS):
        feed(host, step)
        feed(parent_host, step)
        ts = step * NS_PER_SEC
        got, want = plain(op.compute(ts)), plain(parent.compute(ts))
        assert repr(got) == repr(want), step  # repr: NaN-safe, bit-exact
        assert op.error_count == parent.error_count, step
        if unit_mode == "sequential":  # pool workers log in any order
            assert op.last_errors == parent.last_errors, step
        if plugin in ("regressor", "classifier"):
            assert model_state(op) == model_state(parent), step
        seen.update(name for name, _values in got)
    op.stop()
    parent.stop()
    # The feed did what its docstring says it does.
    assert "/n/u0" in seen and "/n/u2" in seen
    starved = {"instructions", "temp"} & set(CASES[plugin]["inputs"])
    assert ("/n/u1" in seen) == (not starved)
    if plugin != "clustering":  # which skips silently
        assert op.error_count > 0


@pytest.mark.parametrize("hinted", [True, False], ids=["pusher", "agent"])
def test_clustering_feature_vectors_match_the_parent(hinted):
    """The vector itself, not only the labels fitted over it."""
    (host, op), _ = make_pair("clustering", hinted, "sequential")
    complete = 0
    for step in range(STEPS):
        feed(host, step)
        window, slices, _n = op.batch_window(op.units)
        for unit, rows in zip(op.units, slices):
            got = op._unit_features(window.rows(rows))
            want = parent_unit_features(op, unit.inputs)
            assert (got is None) == (want is None), (step, unit.name)
            if got is not None:
                assert got.tobytes() == want.tobytes(), (step, unit.name)
                complete += 1
    assert complete  # and None was seen too: u1 never completes
    assert op._unit_features(window.rows(slices[1])) is None


@pytest.mark.parametrize("hinted", [True, False], ids=["pusher", "agent"])
@pytest.mark.parametrize("plugin", sorted(CASES))
def test_trigger_returns_what_the_online_pass_stores(plugin, hinted):
    """``trigger`` runs the default ``compute_unit`` — scalar queries
    feeding ``compute_window`` — and the online pass the plan: at the
    same instant, over the same history, the same values."""
    (host, online), _ = make_pair(plugin, hinted, "sequential")
    (other_host, ondemand), _ = make_pair(plugin, hinted, "sequential")
    compared = 0
    for step in range(STEPS):
        feed(host, step)
        feed(other_host, step)
        ts = step * NS_PER_SEC
        stored = dict(plain(online.compute(ts)))
        if plugin == "clustering":
            ondemand.compute(ts)  # its trigger reports the last fit
        for unit in ondemand.units:
            try:
                values = ondemand.trigger(unit.name, ts, None)
            except QueryError:  # what the pass isolates, a trigger raises
                values = {}
            assert repr(values) == repr(stored.get(unit.name, {})), (step, unit)
            compared += bool(values)
    assert compared
    if plugin in ("regressor", "classifier"):
        assert model_state(online) == model_state(ondemand)
    before = relative_queries(online.engine)
    online.compute(STEPS * NS_PER_SEC)
    assert relative_queries(online.engine) == before  # the pass: no scalar query


# ---------------------------------------------------------------------
# A unit the plugin cannot compute is refused where it is installed
# ---------------------------------------------------------------------

BUG_SPEC = {
    "cluster": {"nodes": 2, "cpus": 2, "seed": 3},
    "monitoring": {
        "plugins": ["sysfs", "perfevent"],
        "perfevent_counters": ["cpu-cycles", "instructions"],
        "interval_ms": 1000,
    },
    "analytics": {"pushers": [], "agent": []},
}

NODE = ["<bottomup-1>power", "<bottomup-1>temp"]

REFUSED = {
    "perfmetrics: unknown metric": (
        _block("perfmetrics", "cpi", window_s=5,
               inputs=["<bottomup>cpu-cycles", "<bottomup>instructions"],
               outputs=["<bottomup>cpii"]),
        "cpi: unit /rack00/chassis00/node00/cpu00: unknown derived metric 'cpii'",
    ),
    "correlation: one input": (
        _block("correlation", "sig", window_s=5, inputs=NODE[:1],
               outputs=["<bottomup-1>corr-mean"]),
        "sig: unit /rack00/chassis00/node00 needs >= 2 inputs",
    ),
    "correlation: unknown output": (
        _block("correlation", "sig", window_s=5, inputs=NODE,
               outputs=["<bottomup-1>corr-avg"]),
        "sig: unit /rack00/chassis00/node00: unknown correlation output 'corr-avg'",
    ),
    "correlation: pair outside the unit": (
        _block("correlation", "sig", window_s=5, inputs=NODE,
               outputs=["<bottomup-1>corr-0-2"]),
        "sig: unit /rack00/chassis00/node00: pair (0,2) outside the unit's 2 inputs",
    ),
    "correlation: pair with itself": (
        _block("correlation", "sig", window_s=5, inputs=NODE,
               outputs=["<bottomup-1>corr-1-1"]),
        "sig: unit /rack00/chassis00/node00: pair (1,1) outside",
    ),
    "regressor: no target input": (
        _block("regressor", "pred", window_s=5, inputs=NODE,
               outputs=["<bottomup-1>pred"], params={"target": "energy"}),
        "pred: unit /rack00/chassis00/node00 has no input sensor named 'energy'",
    ),
    "classifier: no label input": (
        _block("classifier", "cls", window_s=5, inputs=NODE,
               outputs=["<bottomup-1>class"],
               params={"label": "app-id", "n_classes": 2}),
        "cls: unit /rack00/chassis00/node00 has no input sensor named 'app-id'",
    ),
    "aggregator: output without an aggregate": (
        _block("aggregator", "agg", window_s=5, inputs=NODE,
               outputs=["<bottomup-1>avg-power"],
               params={"ops": {"mean-power": "mean"}}),
        "agg: no aggregate configured for output 'avg-power'",
    ),
}


@pytest.mark.parametrize("host", ["pushers", "agent"])
@pytest.mark.parametrize("rule", sorted(REFUSED))
def test_build_refuses_a_unit_the_plugin_cannot_compute(rule, host):
    """Failing-before: each of these built, and the ``ConfigError`` left
    ``run_pass`` at the operator's first pass, through the scheduler,
    taking every other operator and every sampler with it."""
    block, message = REFUSED[rule]
    spec = copy.deepcopy(BUG_SPEC)
    spec["analytics"][host] = [block]
    with pytest.raises(ConfigError) as refusal:
        build_deployment(spec)
    assert message in str(refusal.value)


def test_the_same_blocks_spelled_right_build_and_run():
    fixes = {
        "cpi": {"outputs": ["<bottomup>cpi"]},
        "sig": {"inputs": NODE, "outputs": ["<bottomup-1>corr-0-1"]},
        "pred": {"params": {"target": "power"}},
        "cls": {"params": {"label": "temp", "n_classes": 2}},
        "agg": {"params": {"op": "mean"}},
    }
    blocks = {}
    for block, _message in REFUSED.values():
        block = copy.deepcopy(block)
        (name, fields), = block["operators"].items()
        fields.update(fixes[name])
        blocks[name] = block  # one per operator name
    spec = copy.deepcopy(BUG_SPEC)
    spec["analytics"]["pushers"] = list(blocks.values())
    dep = build_deployment(spec)
    dep.run(5)
    for manager in dep.managers.values():
        assert {op.name for op in manager.operators()} == set(fixes)
        assert all(op.compute_count >= 5 for op in manager.operators())


def test_set_units_and_on_the_fly_units_go_through_the_same_check():
    op = PerfMetricsOperator(OperatorConfig(name="pm", window_ns=NS_PER_SEC))
    host = FeedHost(True)
    op.bind(host, QueryEngine(host))
    bad = Unit(
        name="/n/u0", level=0, inputs=["/n/u0/cpu-cycles"],
        outputs=[Sensor("/n/u0/cpii", is_operator_output=True)],
    )
    with pytest.raises(ConfigError, match="pm: unit /n/u0: unknown derived"):
        op.set_units([bad])
    assert op.units == []  # refused whole, nothing half-installed
    with pytest.raises(ConfigError, match="pm: unit /n/u0: unknown derived"):
        op.compute_unit(bad, 0)  # what trigger does with a unit it built
