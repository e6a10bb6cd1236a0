"""Statistical feature extraction and aggregation.

The regressor plugin of the power-prediction case study computes "a
series of statistical features (e.g. mean or standard deviation)" from
each input sensor's recent readings and concatenates them into a feature
vector.  The persyst plugin aggregates per-core metrics into quantiles.
Both primitives live here, together with a Welford-style streaming
accumulator for cheap windowless aggregation.
"""

from __future__ import annotations

import math
from itertools import chain, repeat
from typing import Iterable, Optional, Sequence

import numpy as np

#: Per-sensor features, in vector order.
FEATURE_NAMES = (
    "mean",
    "std",
    "min",
    "max",
    "last",
    "median",
    "slope",
    "p25",
    "p75",
)

N_FEATURES = len(FEATURE_NAMES)


def window_features(values: np.ndarray) -> np.ndarray:
    """Feature vector of one sensor window (length ``N_FEATURES``).

    Handles degenerate windows: an empty window yields all-NaN; a
    single-element window has zero std/slope.  ``slope`` is the least-
    squares trend per sample, capturing rising/falling behaviour that
    plain moments miss.
    """
    out = np.empty(N_FEATURES, dtype=np.float64)
    n = len(values)
    if n == 0:
        out[:] = np.nan
        return out
    v = np.asarray(values, dtype=np.float64)
    out[0] = v.mean()
    out[1] = v.std() if n > 1 else 0.0
    out[2] = v.min()
    out[3] = v.max()
    out[4] = v[-1]
    out[5] = float(np.median(v))
    if n > 1:
        x = np.arange(n, dtype=np.float64)
        x -= x.mean()
        denom = float(x @ x)
        out[6] = float(x @ (v - out[0])) / denom if denom else 0.0
    else:
        out[6] = 0.0
    out[7], out[8] = np.percentile(v, (25.0, 75.0))
    return out


def feature_matrix(
    windows: Iterable[np.ndarray], counters: Iterable[bool] = ()
) -> Optional[np.ndarray]:
    """One flat feature vector from one window per input sensor.

    The regressor and the classifier build their model input this way:
    features concatenated in sensor order, a window flagged in
    ``counters`` (a monotonic counter; no flag means it is not one)
    differenced first.  ``None`` when a window is too short to have a
    feature or a feature is not finite.  ``windows`` is consumed lazily,
    one window at a time.
    """
    parts = []
    for values, is_counter in zip(windows, chain(counters, repeat(False))):
        if is_counter:
            values = np.diff(values)
        if len(values) == 0:
            return None
        parts.append(window_features(values))
    if not parts:
        return None
    features = np.concatenate(parts)
    return features if np.all(np.isfinite(features)) else None


def quantiles(values: np.ndarray, qs: Sequence[float]) -> np.ndarray:
    """Quantiles of a value set, NaN-safe (all-NaN windows yield NaN)."""
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        return np.full(len(qs), np.nan)
    finite = v[np.isfinite(v)]
    if finite.size == 0:
        return np.full(len(qs), np.nan)
    return np.percentile(finite, np.asarray(qs) * 100.0)


def deciles(values: np.ndarray) -> np.ndarray:
    """The 11 deciles 0..10 (min, d1..d9, max) — PerSyst's aggregate."""
    return quantiles(values, [i / 10.0 for i in range(11)])


class StreamingStats:
    """Welford accumulator for mean/variance plus min/max/count.

    Numerically stable single-pass aggregation, used by the aggregator
    plugin when no bounded window is configured.
    """

    __slots__ = ("count", "_mean", "_m2", "minimum", "maximum", "last")

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self.last = math.nan

    def push(self, value: float) -> None:
        """Fold one observation into the accumulator."""
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        self.last = value

    def push_many(self, values: np.ndarray) -> None:
        """Fold a batch of observations."""
        for v in np.asarray(values, dtype=np.float64):
            self.push(float(v))

    @property
    def mean(self) -> float:
        """Running mean (NaN when empty)."""
        return self._mean if self.count else math.nan

    @property
    def variance(self) -> float:
        """Population variance (NaN when empty)."""
        return self._m2 / self.count if self.count else math.nan

    @property
    def std(self) -> float:
        """Population standard deviation (NaN when empty)."""
        var = self.variance
        return math.sqrt(var) if not math.isnan(var) else math.nan

    def merge(self, other: "StreamingStats") -> "StreamingStats":
        """Combine two accumulators (parallel aggregation)."""
        merged = StreamingStats()
        merged.count = self.count + other.count
        if merged.count == 0:
            return merged
        delta = other._mean - self._mean
        merged._mean = (
            self._mean * self.count + other._mean * other.count
        ) / merged.count
        merged._m2 = (
            self._m2
            + other._m2
            + delta * delta * self.count * other.count / merged.count
        )
        merged.minimum = min(self.minimum, other.minimum)
        merged.maximum = max(self.maximum, other.maximum)
        merged.last = other.last if other.count else self.last
        return merged
