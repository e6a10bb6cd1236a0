"""Smoother operator plugin.

Moving-average smoothing of individual sensors: each unit's first input
sensor is averaged over the configured window and written to the unit's
output.  With an exponential ``alpha`` parameter the plugin switches to
exponentially weighted smoothing, which weights recent readings higher —
useful ahead of threshold-based control operators to suppress spikes.

Params:
    ``alpha`` (float, optional): EWMA weight in (0, 1]; when absent a
        plain window mean is used.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.common.errors import ConfigError
from repro.core.operator import (
    OperatorBase,
    OperatorConfig,
    PassResult,
    WindowRow,
    require_data,
)
from repro.core.registry import operator_plugin
from repro.core.units import Unit


@operator_plugin("smoother")
class SmootherOperator(OperatorBase):
    """Window-mean or EWMA smoothing of a sensor stream."""

    @classmethod
    def flow_transforms(cls, params: dict) -> Dict[str, object]:
        # Smoothing is a weighted mean: units pass straight through.
        return {"*": "preserve"}

    def __init__(self, config: OperatorConfig) -> None:
        super().__init__(config)
        alpha = config.params.get("alpha")
        if alpha is not None and not (0.0 < float(alpha) <= 1.0):
            raise ConfigError(f"{config.name}: alpha must be in (0, 1]")
        self.alpha = float(alpha) if alpha is not None else None

    def kernel_inputs(self, unit: Unit) -> List[str]:
        # Only each unit's first input is smoothed.
        return unit.inputs[:1]

    def _smooth(self, values: np.ndarray) -> np.ndarray:
        """Window mean or EWMA of every row (axis 1, oldest first)."""
        if self.alpha is None:
            # ndarray.mean's own reduction, without its per-call dispatch.
            return np.add.reduce(values, axis=1) / values.shape[1]
        weights = (1.0 - self.alpha) ** np.arange(values.shape[1] - 1, -1, -1)
        return (values * weights).sum(axis=1) / weights.sum()

    def compute_batch(self, units: Sequence[Unit], window, slices):
        n = window.uniform_count() if self.rows_per_unit() else 0
        if not n:
            return self.compute_ragged(units, window, slices)
        smoothed = self._smooth(window.values[:, window.width - n:])
        return PassResult(units=units, column_of=lambda name: smoothed)

    def compute_window(
        self, unit: Unit, rows: Sequence[WindowRow]
    ) -> Dict[str, float]:
        if not rows:
            return {}
        smoothed = float(self._smooth(require_data(rows[0])[None, :])[0])
        return {sensor.name: smoothed for sensor in unit.outputs}
