"""Regressor operator plugin (Fig 6).

An online implementation of the power model of Ozer et al., as described
in Section VI-B: "at each computation interval, for each input sensor of
a certain unit a series of statistical features (e.g., mean or standard
deviation) are computed from its recent readings.  These features are
then combined to form a feature vector, which is fed into the random
forest model to perform regression and output a sensor prediction of the
next [interval].  Training of the model ... is performed automatically:
feature vectors are accumulated in memory until a certain training set
size is reached, alongside the responses from the sensor to be
predicted."

The pairing is strictly causal: the feature vector built at interval
``t`` is stored as *pending* and paired with the target's reading one
interval later, so the model learns (and is evaluated on) genuine
next-interval prediction.

Params:
    ``target`` (str, required): name of the input sensor to predict.
    ``training_samples`` (int): training-set size that triggers the
        automatic fit (the paper uses 30 000; default 1 000).
    ``n_estimators`` / ``max_depth`` / ``min_samples_leaf``: forest
        hyper-parameters.
    ``delta_inputs`` (list of str): input sensor names that are
        monotonic counters; their windows are differenced before feature
        extraction.
    ``seed`` (int): randomness for bootstrap/feature sampling.

Output sensors whose name contains ``error`` receive the relative error
of the *previous* prediction once its true value arrives; all other
output sensors receive the next-interval prediction.  Declaring the
operator-level output ``avg-error`` stores the fleet-wide mean error.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.common.errors import ConfigError
from repro.core.operator import OperatorBase, OperatorConfig, WindowRow, require_data
from repro.core.registry import operator_plugin
from repro.core.units import Unit
from repro.ml.forest import OnlineForest, RandomForestRegressor
from repro.ml.stats import feature_matrix


class OnlineRegressionModel(OnlineForest):
    """Shared state of one regression model: training buffer + forest.

    One instance is shared by all units in sequential mode, or created
    per unit in parallel mode — exactly the model-placement semantics of
    Section IV-c.
    """

    def __init__(
        self,
        training_samples: int,
        n_estimators: int,
        max_depth: int,
        min_samples_leaf: int,
        seed: int,
    ) -> None:
        forest = RandomForestRegressor(
            n_estimators=n_estimators,
            max_depth=max_depth,
            min_samples_leaf=min_samples_leaf,
            max_features="third",
            random_state=seed,
        )
        super().__init__(forest, training_samples)
        # Per-unit causal state: features awaiting their response, and
        # the last emitted prediction awaiting its true value.
        self.pending_features: Dict[str, np.ndarray] = {}
        self.pending_prediction: Dict[str, float] = {}

    def predict(self, features: np.ndarray) -> float:
        """Next-interval prediction for one feature vector."""
        return float(self.forest.predict(features[None, :])[0])


@operator_plugin("regressor")
class RegressorOperator(OperatorBase):
    """Window-features random-forest regression with online training."""

    @classmethod
    def flow_transforms(cls, params: dict) -> Dict[str, object]:
        # Error outputs are relative (dimensionless); predictions carry
        # the unit of the regression target sensor.
        target = params.get("target") if isinstance(params, dict) else None
        transforms: Dict[str, object] = {"*error*": "dimensionless"}
        if isinstance(target, str) and target:
            transforms["*"] = ("input", target)
        return transforms

    def __init__(self, config: OperatorConfig) -> None:
        super().__init__(config)
        params = config.params
        target = params.get("target")
        if not target:
            raise ConfigError(f"{config.name}: params.target is required")
        self.target = str(target)
        self.training_samples = int(params.get("training_samples", 1000))
        if self.training_samples < 1:
            raise ConfigError(f"{config.name}: training_samples must be >= 1")
        self.n_estimators = int(params.get("n_estimators", 20))
        self.max_depth = int(params.get("max_depth", 12))
        self.min_samples_leaf = int(params.get("min_samples_leaf", 2))
        self.delta_inputs = set(params.get("delta_inputs", []))
        self.seed = int(params.get("seed", 0))
        if config.window_ns <= 0:
            raise ConfigError(
                f"{config.name}: regressor needs a positive feature window"
            )

    def make_model(self) -> OnlineRegressionModel:
        return OnlineRegressionModel(
            self.training_samples,
            self.n_estimators,
            self.max_depth,
            self.min_samples_leaf,
            self.seed,
        )

    def check_unit(self, unit: Unit) -> None:
        if not unit.inputs_named(self.target):
            raise ConfigError(
                f"{self.name}: unit {unit.name} has no input sensor named "
                f"{self.target!r}"
            )

    def compute_window(
        self, unit: Unit, rows: Sequence[WindowRow]
    ) -> Dict[str, float]:
        model: OnlineRegressionModel = self.model_for(unit)
        # The target's newest reading (the first input of that name)
        # closes out last interval's causal pair.
        suffix = "/" + self.target
        target = next(row for row in rows if row[0].endswith(suffix))
        current = float(require_data(target)[-1])
        out: Dict[str, float] = {}
        prev_features = model.pending_features.pop(unit.name, None)
        if prev_features is not None:
            model.add_pair(prev_features, current)
        prev_pred = model.pending_prediction.pop(unit.name, None)
        if prev_pred is not None and current != 0.0:
            rel_err = abs(prev_pred - current) / abs(current)
            for sensor in unit.outputs:
                if "error" in sensor.name:
                    out[sensor.name] = rel_err
        features = feature_matrix(
            map(require_data, rows),
            (row[0].rsplit("/", 1)[-1] in self.delta_inputs for row in rows),
        )
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

    def compute_operator_outputs(self, ts, results) -> Dict[str, float]:
        """Operator-level aggregate: the average error over all units.

        Section V-C-2's example of an operator-level output is "the
        average error of a model applied to a set of units".
        """
        errors = [
            v
            for _, values in results
            for k, v in values.items()
            if "error" in k
        ]
        out: Dict[str, float] = {}
        if errors:
            out["avg-error"] = float(np.mean(errors))
        return out

    def training_progress(self) -> Dict[str, float]:
        """Buffered-pair counts per model (diagnostics for examples)."""
        progress = {}
        if self._shared_model is not None:
            progress["<shared>"] = self._shared_model.buffered
        for name, model in self._unit_models.items():
            progress[name] = model.buffered
        return progress
