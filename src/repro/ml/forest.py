"""Random forests over the CART trees.

Standard Breiman construction: each tree fits a bootstrap resample with
per-split random feature subsets; the ensemble prediction is the mean
(regression) or probability-averaged argmax (classification).  This is
the stand-in for the OpenCV random forests behind the paper's regressor
plugin.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor


class _BaseForest:
    def __init__(
        self,
        n_estimators: int = 20,
        max_depth: int = 12,
        min_samples_leaf: int = 2,
        max_features: Optional[str] = "sqrt",
        bootstrap: bool = True,
        random_state: Optional[int] = None,
    ) -> None:
        if n_estimators < 1:
            raise ValueError(f"n_estimators must be >= 1: {n_estimators}")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self._rng = np.random.default_rng(random_state)
        self.trees_: list = []

    def _n_features_try(self, n_features: int) -> int:
        if self.max_features is None:
            return n_features
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        if self.max_features == "third":
            return max(1, n_features // 3)
        if isinstance(self.max_features, int):
            return max(1, min(self.max_features, n_features))
        raise ValueError(f"bad max_features: {self.max_features!r}")

    def _make_tree(self, n_features: int, seed: int):
        raise NotImplementedError

    def fit(self, X: np.ndarray, y: np.ndarray) -> "_BaseForest":
        """Fit the ensemble on ``(X, y)``."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        if len(X) == 0:
            raise ValueError("cannot fit on an empty dataset")
        self.trees_ = []
        n = len(X)
        for _ in range(self.n_estimators):
            seed = int(self._rng.integers(0, 2**63 - 1))
            tree = self._make_tree(X.shape[1], seed)
            if self.bootstrap:
                idx = self._rng.integers(0, n, size=n)
                tree.fit(X[idx], y[idx])
            else:
                tree.fit(X, y)
            self.trees_.append(tree)
        return self

    @property
    def is_fitted(self) -> bool:
        """Whether the ensemble has been trained."""
        return bool(self.trees_)

    def feature_importances(self) -> np.ndarray:
        """Split-frequency feature importances, normalised to sum to 1.

        Counts how often each feature is chosen as a split across the
        ensemble — a cheap, model-intrinsic attribution that answers
        "which sensors does the model actually use?" for the regressor
        and classifier plugins.
        """
        if not self.trees_:
            raise RuntimeError("forest is not fitted")
        n_features = self.trees_[0].n_features_
        counts = np.zeros(n_features)
        for tree in self.trees_:
            used = tree.feature_[tree.feature_ >= 0]
            counts += np.bincount(used, minlength=n_features)
        total = counts.sum()
        return counts / total if total else counts


class RandomForestRegressor(_BaseForest):
    """Bootstrap-aggregated regression trees."""

    def _make_tree(self, n_features: int, seed: int) -> DecisionTreeRegressor:
        return DecisionTreeRegressor(
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self._n_features_try(n_features),
            random_state=seed,
        )

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Mean prediction across trees."""
        if not self.trees_:
            raise RuntimeError("forest is not fitted")
        preds = np.stack([t.predict(X) for t in self.trees_])
        return preds.mean(axis=0)


class RandomForestClassifier(_BaseForest):
    """Bootstrap-aggregated classification trees (probability voting)."""

    def __init__(self, n_classes: Optional[int] = None, **kwargs) -> None:
        super().__init__(**kwargs)
        self.n_classes = n_classes

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestClassifier":
        y = np.asarray(y, dtype=np.int64)
        if self.n_classes is None and y.size:
            # Fix the class count up front so bootstrap resamples that
            # miss a class still produce aligned probability vectors.
            self.n_classes = int(y.max()) + 1
        return super().fit(X, y)

    def _make_tree(self, n_features: int, seed: int) -> DecisionTreeClassifier:
        return DecisionTreeClassifier(
            n_classes=self.n_classes,
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self._n_features_try(n_features),
            random_state=seed,
        )

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Mean class probabilities across trees."""
        if not self.trees_:
            raise RuntimeError("forest is not fitted")
        probs = np.stack([t.predict_proba(X) for t in self.trees_])
        return probs.mean(axis=0)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Most probable class per sample."""
        return np.argmax(self.predict_proba(X), axis=1)


class OnlineForest:
    """A forest that trains itself: ``(features, response)`` pairs
    accumulate until ``training_samples`` of them are there, then it is
    fitted — once — and the buffer dropped."""

    def __init__(self, forest: _BaseForest, training_samples: int) -> None:
        self.forest = forest
        self.training_samples = training_samples
        self._X: List[np.ndarray] = []
        self._y: List[float] = []

    @property
    def trained(self) -> bool:
        """Whether the forest has been fitted."""
        return self.forest.is_fitted

    @property
    def buffered(self) -> int:
        """Accumulated training pairs so far."""
        return len(self._y)

    def add_pair(self, features: np.ndarray, response: float) -> None:
        """Append one (features, response) pair; fit at the threshold."""
        if self.trained:
            return
        self._X.append(features)
        self._y.append(response)
        if len(self._y) >= self.training_samples:
            self.forest.fit(np.vstack(self._X), np.asarray(self._y))
            self._X.clear()
            self._y.clear()
