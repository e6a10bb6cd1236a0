"""Clustering operator plugin (Fig 8).

Reproduces the performance-anomaly case study of Section VI-D: one
operator with one unit per compute node, each unit contributing the
long-window averages of its input sensors (power, temperature, CPU idle
time in the paper) as a point in feature space.  At every computation
interval the operator fits a Bayesian Gaussian mixture over all units'
points, assigns each node its cluster label and flags outliers whose
probability falls below a threshold under all fitted components.

This is inherently a *cross-unit* computation, so the plugin overrides
the unit-iteration step rather than :meth:`compute_unit` — each unit's
result still flows through the ordinary output-sensor path.

Params:
    ``transforms`` (dict): input-sensor-name -> ``mean`` | ``delta`` |
        ``rate``; how each input's window becomes a feature (gauges
        average, monotonic counters difference).  Default ``mean``.
    ``n_components`` (int): mixture component bound (default 8).
    ``pdf_threshold`` (float): the outlier probability threshold; the
        paper uses 0.001.
    ``weight_threshold`` (float): minimum posterior weight for a
        component to count as a cluster (default 0.02).
    ``standardize`` (bool): z-score features before fitting (default
        True — the three paper metrics live on wildly different scales).
    ``min_units`` (int): skip the pass when fewer units have complete
        features (default 8).
    ``seed`` (int): initialisation randomness.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import ConfigError
from repro.core.operator import OperatorBase, OperatorConfig, UnitResult, WindowRow
from repro.core.registry import operator_plugin
from repro.core.units import Unit
from repro.ml.bgmm import BayesianGaussianMixture

_TRANSFORMS = ("mean", "delta", "rate")


@operator_plugin("clustering")
class ClusteringOperator(OperatorBase):
    """Bayesian-GMM clustering of per-unit feature averages."""

    @classmethod
    def flow_transforms(cls, params: dict) -> Dict[str, object]:
        # Cluster ids and outlier scores are pure numbers.
        return {"*": "dimensionless"}

    def __init__(self, config: OperatorConfig) -> None:
        super().__init__(config)
        params = config.params
        transforms = params.get("transforms", {})
        bad = {k: v for k, v in transforms.items() if v not in _TRANSFORMS}
        if bad:
            raise ConfigError(
                f"{config.name}: bad transforms {bad}; allowed {_TRANSFORMS}"
            )
        self.transforms: Dict[str, str] = dict(transforms)
        self.n_components = int(params.get("n_components", 8))
        self.pdf_threshold = float(params.get("pdf_threshold", 1e-3))
        self.weight_threshold = float(params.get("weight_threshold", 0.02))
        self.standardize = bool(params.get("standardize", True))
        self.min_units = int(params.get("min_units", 8))
        self.seed = int(params.get("seed", 0))
        if config.window_ns <= 0:
            raise ConfigError(
                f"{config.name}: clustering needs a positive feature window"
            )
        self.last_labels: Dict[str, int] = {}
        self.last_outliers: List[str] = []
        self.last_n_clusters = 0

    # ------------------------------------------------------------------
    # Feature extraction
    # ------------------------------------------------------------------

    def _unit_features(self, rows: Sequence[WindowRow]) -> Optional[np.ndarray]:
        """One feature per input window, in input order; ``None`` while
        any of them is too short for its transform."""
        feats: List[float] = []
        for topic, timestamps, values in rows:
            transform = self.transforms.get(topic.rsplit("/", 1)[-1], "mean")
            if len(values) < (1 if transform == "mean" else 2):
                return None
            if transform == "mean":
                feats.append(float(values.mean()))
                continue
            delta = values[-1] - values[0]
            if transform == "rate":
                span = (int(timestamps[-1]) - int(timestamps[0])) / 1e9
                if span <= 0:
                    return None
                delta = delta / span
            feats.append(float(delta))
        vec = np.asarray(feats)
        if not np.all(np.isfinite(vec)):
            return None
        return vec

    # ------------------------------------------------------------------
    # Cross-unit computation
    # ------------------------------------------------------------------

    def _compute_results(self, ts: int) -> List[UnitResult]:
        points: List[Tuple[Unit, np.ndarray]] = []
        window, slices, _n = self.batch_window(self.units)
        for unit, rows in zip(self.units, slices):
            vec = self._unit_features(window.rows(rows))
            if vec is not None:
                points.append((unit, vec))
        if len(points) < self.min_units:
            return []
        X = np.vstack([vec for _, vec in points])
        if self.standardize:
            mu = X.mean(axis=0)
            sigma = X.std(axis=0)
            sigma[sigma == 0] = 1.0
            Xs = (X - mu) / sigma
        else:
            Xs = X
        model = BayesianGaussianMixture(
            n_components=self.n_components, random_state=self.seed
        )
        model.fit(Xs)
        raw_labels = model.predict(Xs)
        outliers = model.outlier_mask(
            Xs, self.pdf_threshold, self.weight_threshold
        )
        labels = self._canonical_labels(model, raw_labels)
        self.last_n_clusters = len(
            model.effective_components(self.weight_threshold)
        )
        self.last_labels = {}
        self.last_outliers = []
        results: List[UnitResult] = []
        for (unit, _), label, is_outlier in zip(points, labels, outliers):
            self.last_labels[unit.name] = int(label)
            if is_outlier:
                self.last_outliers.append(unit.name)
            results.append(
                UnitResult(unit, self._values(unit, label, is_outlier))
            )
        return results

    @staticmethod
    def _values(unit: Unit, label: int, is_outlier: bool) -> Dict[str, float]:
        """``*outlier*`` outputs get the flag, every other the label."""
        return {
            s.name: float(is_outlier if "outlier" in s.name else label)
            for s in unit.outputs
        }

    @staticmethod
    def _canonical_labels(
        model: BayesianGaussianMixture, raw_labels: np.ndarray
    ) -> np.ndarray:
        """Relabel components by descending weight for stable label ids."""
        order = np.argsort(model.weights_)[::-1]
        remap = np.empty(len(order), dtype=np.int64)
        remap[order] = np.arange(len(order))
        return remap[raw_labels]

    def compute_operator_outputs(self, ts, results) -> Dict[str, float]:
        """Fleet-level aggregates: cluster count and outlier count."""
        return {
            "n-clusters": float(self.last_n_clusters),
            "n-outliers": float(len(self.last_outliers)),
        }

    def compute_unit(self, unit: Unit, ts: int) -> Dict[str, float]:
        """On-demand path: return the unit's last assigned label."""
        label = self.last_labels.get(unit.name)
        if label is None:
            return {}
        return self._values(unit, label, unit.name in self.last_outliers)
