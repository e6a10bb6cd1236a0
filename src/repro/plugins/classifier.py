"""Classifier operator plugin.

Random-forest classification of sensor windows — the building block for
application-fingerprinting and fault-detection use cases of the
taxonomy (Fig 1).  Like the regressor it extracts statistical features
from each input sensor's window; unlike it, the response is a discrete
label read from a designated label sensor at the *same* interval (a
window is classified, not forecast).

Params:
    ``label`` (str, required): input sensor carrying integer class
        labels (e.g. an app id published by the scheduler, or a fault
        injector's ground truth).
    ``n_classes`` (int, required): number of classes.
    ``training_samples`` (int): fit threshold (default 500).
    ``n_estimators`` / ``max_depth``: forest hyper-parameters.
    ``delta_inputs`` (list of str): counter inputs to difference.
    ``seed`` (int): forest randomness.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.common.errors import ConfigError
from repro.core.operator import OperatorBase, OperatorConfig, WindowRow, require_data
from repro.core.registry import operator_plugin
from repro.core.units import Unit
from repro.ml.forest import OnlineForest, RandomForestClassifier
from repro.ml.stats import feature_matrix


class OnlineClassificationModel(OnlineForest):
    """Training buffer + forest for one classifier model."""

    def __init__(
        self,
        training_samples: int,
        n_classes: int,
        n_estimators: int,
        max_depth: int,
        seed: int,
    ) -> None:
        forest = RandomForestClassifier(
            n_classes=n_classes,
            n_estimators=n_estimators,
            max_depth=max_depth,
            random_state=seed,
        )
        super().__init__(forest, training_samples)

    def predict(self, features: np.ndarray) -> int:
        """Most probable class of one feature vector."""
        return int(self.forest.predict(features[None, :])[0])


@operator_plugin("classifier")
class ClassifierOperator(OperatorBase):
    """Window-features random-forest classification."""

    @classmethod
    def flow_transforms(cls, params: dict) -> Dict[str, object]:
        # Class labels and confidences are pure numbers.
        return {"*": "dimensionless"}

    def __init__(self, config: OperatorConfig) -> None:
        super().__init__(config)
        params = config.params
        label = params.get("label")
        if not label:
            raise ConfigError(f"{config.name}: params.label is required")
        self.label = str(label)
        n_classes = params.get("n_classes")
        if not n_classes or int(n_classes) < 2:
            raise ConfigError(f"{config.name}: params.n_classes must be >= 2")
        self.n_classes = int(n_classes)
        self.training_samples = int(params.get("training_samples", 500))
        self.n_estimators = int(params.get("n_estimators", 15))
        self.max_depth = int(params.get("max_depth", 10))
        self.delta_inputs = set(params.get("delta_inputs", []))
        self.seed = int(params.get("seed", 0))
        if config.window_ns <= 0:
            raise ConfigError(
                f"{config.name}: classifier needs a positive feature window"
            )

    def make_model(self) -> OnlineClassificationModel:
        return OnlineClassificationModel(
            self.training_samples,
            self.n_classes,
            self.n_estimators,
            self.max_depth,
            self.seed,
        )

    def check_unit(self, unit: Unit) -> None:
        if not unit.inputs_named(self.label):
            raise ConfigError(
                f"{self.name}: unit {unit.name} has no input sensor named "
                f"{self.label!r}"
            )

    def compute_window(
        self, unit: Unit, rows: Sequence[WindowRow]
    ) -> Dict[str, float]:
        model: OnlineClassificationModel = self.model_for(unit)
        suffix = "/" + self.label
        inputs = [  # the label is not a feature
            row for row in rows if not row[0].endswith(suffix)
        ]
        features = feature_matrix(
            map(require_data, inputs),
            (row[0].rsplit("/", 1)[-1] in self.delta_inputs for row in inputs),
        )
        if features is None:
            return {}
        if not model.trained:
            # The label's newest reading (the first input of that name).
            newest = next(row for row in rows if row[0].endswith(suffix))
            label = int(round(require_data(newest)[-1]))
            if 0 <= label < self.n_classes:
                model.add_pair(features, label)
            return {}
        predicted = model.predict(features)
        return {sensor.name: float(predicted) for sensor in unit.outputs}
