"""Tests for storage aggregate queries, forest feature importances and
classification metrics."""

import numpy as np
import pytest

from repro.common.errors import StorageError
from repro.dcdb.storage import StorageBackend
from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.metrics import classification_accuracy, confusion_matrix
from tests.hosts import insert_passes


class TestQueryAggregate:
    def make_storage(self):
        s = StorageBackend()
        # 10 readings at t = 0..9, values 0..9.
        for i in range(10):
            insert_passes(s, [("/a", i, float(i))])
        return s

    def test_mean_buckets(self):
        s = self.make_storage()
        ts, values = s.query_aggregate("/a", 0, 9, bucket_ns=5, op="mean")
        assert list(ts) == [0, 5]
        assert list(values) == [2.0, 7.0]

    def test_sum_and_count(self):
        s = self.make_storage()
        _, sums = s.query_aggregate("/a", 0, 9, 5, "sum")
        _, counts = s.query_aggregate("/a", 0, 9, 5, "count")
        assert list(sums) == [10.0, 35.0]
        assert list(counts) == [5.0, 5.0]

    def test_min_max(self):
        s = self.make_storage()
        _, mins = s.query_aggregate("/a", 0, 9, 5, "min")
        _, maxs = s.query_aggregate("/a", 0, 9, 5, "max")
        assert list(mins) == [0.0, 5.0]
        assert list(maxs) == [4.0, 9.0]

    def test_empty_buckets_omitted(self):
        s = StorageBackend()
        insert_passes(s, [("/a", 0, 1.0)])
        insert_passes(s, [("/a", 20, 2.0)])
        ts, values = s.query_aggregate("/a", 0, 25, 5, "mean")
        assert list(ts) == [0, 20]
        assert list(values) == [1.0, 2.0]

    def test_unknown_topic_empty(self):
        s = StorageBackend()
        ts, values = s.query_aggregate("/nope", 0, 10, 2)
        assert len(ts) == 0 and len(values) == 0

    def test_validation(self):
        s = self.make_storage()
        with pytest.raises(StorageError):
            s.query_aggregate("/a", 0, 9, 0)
        with pytest.raises(StorageError):
            s.query_aggregate("/a", 0, 9, 5, "median")

    def test_matches_manual_downsampling(self):
        rng = np.random.default_rng(0)
        s = StorageBackend()
        ts = np.sort(rng.integers(0, 1000, 200))
        values = rng.random(200)
        for t, v in zip(ts, values):
            insert_passes(s, [("/x", int(t), float(v))])
        got_ts, got = s.query_aggregate("/x", 0, 999, 100, "mean")
        stored_ts, stored_val = s.query("/x", 0, 999)
        for bucket_start, value in zip(got_ts, got):
            mask = (stored_ts >= bucket_start) & (
                stored_ts < bucket_start + 100
            )
            assert value == pytest.approx(stored_val[mask].mean())


class TestFeatureImportances:
    def test_informative_features_rank_highest(self):
        rng = np.random.default_rng(1)
        X = rng.random((400, 6))
        y = 5.0 * X[:, 2] + 0.01 * rng.standard_normal(400)
        forest = RandomForestRegressor(
            n_estimators=10, max_depth=6, random_state=0
        ).fit(X, y)
        imp = forest.feature_importances()
        assert imp.shape == (6,)
        assert imp.sum() == pytest.approx(1.0)
        assert np.argmax(imp) == 2

    def test_classifier_importances(self):
        rng = np.random.default_rng(2)
        X = rng.random((300, 4))
        y = (X[:, 1] > 0.5).astype(int)
        forest = RandomForestClassifier(
            n_estimators=10, max_depth=5, random_state=0
        ).fit(X, y)
        assert np.argmax(forest.feature_importances()) == 1

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            RandomForestRegressor().feature_importances()


class TestClassificationMetrics:
    def test_confusion_matrix(self):
        actual = np.array([0, 0, 1, 1, 2])
        predicted = np.array([0, 1, 1, 1, 0])
        m = confusion_matrix(actual, predicted)
        assert m.shape == (3, 3)
        assert m[0, 0] == 1 and m[0, 1] == 1
        assert m[1, 1] == 2
        assert m[2, 0] == 1
        assert m.sum() == 5

    def test_explicit_class_count(self):
        m = confusion_matrix(np.array([0]), np.array([0]), n_classes=4)
        assert m.shape == (4, 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            confusion_matrix(np.array([0]), np.array([0, 1]))
        with pytest.raises(ValueError):
            confusion_matrix(np.array([-1]), np.array([0]))

    def test_accuracy(self):
        assert classification_accuracy(
            np.array([1, 2, 3]), np.array([1, 2, 0])
        ) == pytest.approx(2 / 3)

    def test_accuracy_empty(self):
        assert np.isnan(classification_accuracy(np.array([]), np.array([])))
