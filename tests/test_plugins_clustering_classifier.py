"""Tests for the clustering and classifier plugins."""

import numpy as np
import pytest

from repro.common.errors import ConfigError
from repro.common.timeutil import NS_PER_SEC
from repro.core.operator import OperatorConfig
from repro.core.queryengine import QueryEngine
from repro.core.units import Unit
from repro.dcdb.sensor import Sensor
from repro.plugins.classifier import ClassifierOperator
from repro.plugins.clustering import ClusteringOperator
from tests.hosts import RecordingHost


class Host(RecordingHost):
    capacity = 256


def node_unit(name):
    return Unit(
        name=name,
        level=0,
        inputs=[f"{name}/power", f"{name}/temp", f"{name}/idle-time"],
        outputs=[
            Sensor(f"{name}/cluster", is_operator_output=True),
            Sensor(f"{name}/outlier", is_operator_output=True),
        ],
    )


def populate_cluster_host(rng, n_idle=10, n_busy=10, n_outlier=1):
    """Idle nodes (~80 W), busy nodes (~190 W), plus wild outliers."""
    host = Host()
    units = []
    idx = 0

    def add_node(power, temp, idle_rate):
        nonlocal idx
        name = f"/r0/n{idx:02d}"
        idx += 1
        host.add_series(
            f"{name}/power", power + rng.normal(0, 2, 30)
        )
        host.add_series(f"{name}/temp", temp + rng.normal(0, 0.3, 30))
        # idle-time counter accumulating at idle_rate per second
        host.add_series(
            f"{name}/idle-time", np.cumsum(np.full(30, idle_rate))
        )
        units.append(node_unit(name))

    for _ in range(n_idle):
        add_node(80.0, 45.0, 60.0)
    for _ in range(n_busy):
        add_node(190.0, 53.0, 2.0)
    for _ in range(n_outlier):
        add_node(260.0, 60.0, 55.0)  # busy-level power at idle-level idle
    return host, units


def make_clustering_op(**params):
    defaults = {
        "transforms": {"power": "mean", "temp": "mean", "idle-time": "delta"},
        "n_components": 6,
        "min_units": 5,
        "seed": 3,
    }
    defaults.update(params)
    cfg = OperatorConfig(
        name="cl",
        window_ns=30 * NS_PER_SEC,
        operator_outputs=["n-clusters", "n-outliers"],
        params=defaults,
    )
    return ClusteringOperator(cfg)


class TestClustering:
    def test_separates_idle_and_busy(self):
        rng = np.random.default_rng(0)
        host, units = populate_cluster_host(rng, n_outlier=0)
        op = make_clustering_op()
        op.bind(host, QueryEngine(host))
        op.set_units(units)
        op.start()
        results = op.compute(29 * NS_PER_SEC)
        assert len(results) == 20
        labels = {r.unit.name: r.values["cluster"] for r in results}
        idle_labels = {labels[f"/r0/n{i:02d}"] for i in range(10)}
        busy_labels = {labels[f"/r0/n{i:02d}"] for i in range(10, 20)}
        assert len(idle_labels) == 1
        assert len(busy_labels) == 1
        assert idle_labels != busy_labels
        assert op.last_n_clusters >= 2

    def test_flags_planted_outlier(self):
        rng = np.random.default_rng(1)
        host, units = populate_cluster_host(rng, n_idle=12, n_busy=12,
                                            n_outlier=1)
        op = make_clustering_op(pdf_threshold=5e-2)
        op.bind(host, QueryEngine(host))
        op.set_units(units)
        op.start()
        op.compute(29 * NS_PER_SEC)
        assert "/r0/n24" in op.last_outliers
        # Normal nodes are not flagged wholesale.
        assert len(op.last_outliers) <= 3

    def test_operator_outputs_stored(self):
        rng = np.random.default_rng(2)
        host, units = populate_cluster_host(rng, n_outlier=0)
        op = make_clustering_op()
        op.bind(host, QueryEngine(host))
        op.set_units(units)
        op.start()
        op.compute(29 * NS_PER_SEC)
        topics = {t for t, _, _ in host.stored}
        assert "/analytics/cl/n-clusters" in topics
        assert "/analytics/cl/n-outliers" in topics

    def test_below_min_units_skips_pass(self):
        rng = np.random.default_rng(3)
        host, units = populate_cluster_host(rng, n_idle=2, n_busy=1,
                                            n_outlier=0)
        op = make_clustering_op(min_units=10)
        op.bind(host, QueryEngine(host))
        op.set_units(units)
        op.start()
        assert op.compute(29 * NS_PER_SEC) == []

    def fitted_rows(self, monkeypatch):
        """The row count of every mixture fit, in order."""
        import repro.plugins.clustering as clustering

        rows = []

        class Recording(clustering.BayesianGaussianMixture):
            def fit(self, X):
                rows.append(len(X))
                return super().fit(X)

        monkeypatch.setattr(clustering, "BayesianGaussianMixture", Recording)
        return rows

    def test_a_tripped_unit_is_left_out_of_the_fit(self, monkeypatch):
        """Failing-before: the fit ran over every unit, breaker or not,
        and the labelled tripped unit read as recovered."""
        rows = self.fitted_rows(monkeypatch)
        rng = np.random.default_rng(5)
        host, units = populate_cluster_host(rng, n_outlier=0)
        op = make_clustering_op()
        op.bind(host, QueryEngine(host))
        op.set_units(units)
        op.start()
        tripped = units[3].name
        op.set_breaker(tripped, "trip")
        results = op.compute(29 * NS_PER_SEC)
        assert tripped not in {r.unit.name for r in results}
        assert tripped not in op.last_labels
        assert len(results) == len(op.last_labels) == 19
        assert rows == [19]
        state = op.breaker_state(tripped)
        assert state["state"] == "open" and state["recoveries"] == 0
        assert op.quarantined_units() == [tripped]

    def test_unit_cadence_fits_the_due_units(self, monkeypatch):
        rows = self.fitted_rows(monkeypatch)
        rng = np.random.default_rng(6)
        host, units = populate_cluster_host(rng, n_outlier=0)
        op = make_clustering_op()
        op.config.unit_cadence = 2
        op.bind(host, QueryEngine(host))
        op.set_units(units)
        op.start()
        results = op.compute(29 * NS_PER_SEC)
        assert [r.unit.name for r in results] == [u.name for u in units[::2]]
        assert rows == [10]

    def test_on_demand_returns_last_labels(self):
        rng = np.random.default_rng(4)
        host, units = populate_cluster_host(rng, n_outlier=0)
        op = make_clustering_op()
        op.bind(host, QueryEngine(host))
        op.set_units(units)
        op.start()
        op.compute(29 * NS_PER_SEC)
        values = op.compute_unit(units[0], 0)
        assert "cluster" in values and "outlier" in values

    def test_labels_ordered_by_cluster_size(self):
        # Cluster 0 must be the most populous (weights descending).
        rng = np.random.default_rng(5)
        host, units = populate_cluster_host(rng, n_idle=15, n_busy=5,
                                            n_outlier=0)
        op = make_clustering_op()
        op.bind(host, QueryEngine(host))
        op.set_units(units)
        op.start()
        results = op.compute(29 * NS_PER_SEC)
        label_counts = {}
        for r in results:
            label_counts[r.values["cluster"]] = (
                label_counts.get(r.values["cluster"], 0) + 1
            )
        best = max(label_counts, key=label_counts.get)
        assert best == 0.0

    @pytest.mark.parametrize(
        "params",
        [
            {"transforms": {"power": "integral"}},
        ],
    )
    def test_validation(self, params):
        cfg = OperatorConfig(name="cl", window_ns=NS_PER_SEC, params=params)
        with pytest.raises(ConfigError):
            ClusteringOperator(cfg)

    def test_requires_window(self):
        with pytest.raises(ConfigError):
            ClusteringOperator(OperatorConfig(name="cl"))


class TestClassifier:
    def make_op(self, training_samples=80):
        cfg = OperatorConfig(
            name="cf",
            window_ns=4 * NS_PER_SEC,
            params={
                "label": "app-id",
                "n_classes": 2,
                "training_samples": training_samples,
                "seed": 2,
            },
        )
        return ClassifierOperator(cfg)

    def unit(self):
        return Unit(
            name="/n",
            level=0,
            inputs=["/n/x", "/n/app-id"],
            outputs=[Sensor("/n/predicted-app", is_operator_output=True)],
        )

    def test_learns_two_regimes(self):
        host = Host()
        op = self.make_op(training_samples=80)
        op.bind(host, QueryEngine(host))
        op.start()
        unit = self.unit()
        rng = np.random.default_rng(0)

        def step(i, label):
            ts = i * NS_PER_SEC
            base = 10.0 if label == 0 else 50.0
            host.push("/n/x", ts, base + rng.normal(0, 1.0))
            host.push("/n/app-id", ts, float(label))
            return op.compute_unit(unit, ts)

        i = 0
        for _ in range(50):
            step(i, 0)
            i += 1
        for _ in range(50):
            step(i, 1)
            i += 1
        # Trained by now; evaluate both regimes.
        preds0 = [step(i + k, 0) for k in range(6)]
        i += 6
        preds1 = [step(i + k, 1) for k in range(6)]
        # Skip the first post-switch windows (mixed windows).
        assert preds0[-1]["predicted-app"] == 0.0
        assert preds1[-1]["predicted-app"] == 1.0

    def test_no_output_until_trained(self):
        host = Host()
        op = self.make_op(training_samples=1000)
        op.bind(host, QueryEngine(host))
        op.start()
        unit = self.unit()
        for i in range(10):
            ts = i * NS_PER_SEC
            host.push("/n/x", ts, float(i))
            host.push("/n/app-id", ts, 0.0)
            assert op.compute_unit(unit, ts) == {}

    def test_out_of_range_labels_ignored(self):
        host = Host()
        op = self.make_op(training_samples=5)
        op.bind(host, QueryEngine(host))
        op.start()
        unit = self.unit()
        model = op.model_for(unit)
        for i in range(8):
            ts = i * NS_PER_SEC
            host.push("/n/x", ts, float(i))
            host.push("/n/app-id", ts, 9.0)  # invalid label
            op.compute_unit(unit, ts)
        assert not model.trained

    @pytest.mark.parametrize(
        "params",
        [
            {"n_classes": 2},
            {"label": "y"},
            {"label": "y", "n_classes": 1},
        ],
    )
    def test_validation(self, params):
        cfg = OperatorConfig(name="cf", window_ns=NS_PER_SEC, params=params)
        with pytest.raises(ConfigError):
            ClassifierOperator(cfg)
