"""Health operator plugin.

A threshold health check with hysteresis — the simplest useful *control
operator* for the feedback loops of Section IV-d: placed at the end of a
pipeline, its boolean output sensor can drive a knob (a frequency cap, a
scheduler weight) through a downstream consumer.

Each unit's input windows are averaged and checked against per-sensor
``[min, max]`` bounds; the unit is healthy when every input is in
bounds.  Hysteresis (``trip_count``) requires that many consecutive
violating passes before the output flips to unhealthy, suppressing
single-sample trips.

Params:
    ``bounds`` (dict): input-sensor-name -> ``[min, max]`` (either may
        be null for one-sided checks).
    ``trip_count`` (int): consecutive violations required (default 1).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import ConfigError
from repro.core.operator import (
    OperatorBase,
    OperatorConfig,
    UnitResult,
    WindowRow,
    require_data,
)
from repro.core.registry import operator_plugin
from repro.core.units import Unit


@operator_plugin("health")
class HealthOperator(OperatorBase):
    """Threshold health checks with hysteresis."""

    @classmethod
    def flow_transforms(cls, params: dict) -> Dict[str, object]:
        # Health flags and trip counts are pure numbers.
        return {"*": "dimensionless"}

    def __init__(self, config: OperatorConfig) -> None:
        super().__init__(config)
        bounds = config.params.get("bounds")
        if not isinstance(bounds, dict) or not bounds:
            raise ConfigError(
                f"{config.name}: params.bounds (sensor -> [min, max]) "
                f"is required"
            )
        self.bounds: Dict[str, Tuple[Optional[float], Optional[float]]] = {}
        for name, pair in bounds.items():
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ConfigError(
                    f"{config.name}: bounds[{name!r}] must be [min, max]"
                )
            lo, hi = pair
            if lo is not None and hi is not None and lo > hi:
                raise ConfigError(
                    f"{config.name}: bounds[{name!r}]: min > max"
                )
            self.bounds[name] = (lo, hi)
        self.trip_count = int(config.params.get("trip_count", 1))
        if self.trip_count < 1:
            raise ConfigError(f"{config.name}: trip_count must be >= 1")

    def make_model(self) -> Dict[str, int]:
        """Per-unit violation counters, keyed by unit name.

        Kept in the model (not on ``self``) so parallel unit mode gives
        each unit its own counter dict and a unit computation never
        writes shared operator state (lint rule L004); sequential mode
        shares one dict, which is race-free by construction.
        """
        return {}

    def _in_bounds(self, name: str, value: float) -> bool:
        lo, hi = self.bounds.get(name, (None, None))
        if lo is not None and value < lo:
            return False
        if hi is not None and value > hi:
            return False
        return True

    def kernel_inputs(self, unit: Unit) -> List[str]:
        # Inputs without configured bounds are never read.
        return [t for t in unit.inputs if t.rsplit("/", 1)[-1] in self.bounds]

    def _judge(
        self, unit: Unit, topics: Sequence[str], means: Sequence[float]
    ) -> Dict[str, float]:
        """Bounds check of the unit's window means, then hysteresis:
        advance the unit's trip counter and emit the health bit."""
        violated = False
        for topic, mean in zip(topics, means):
            if not self._in_bounds(topic.rsplit("/", 1)[-1], mean):
                violated = True
        violations: Dict[str, int] = self.model_for(unit)
        if violated:
            violations[unit.name] = violations.get(unit.name, 0) + 1
        else:
            violations[unit.name] = 0
        healthy = violations[unit.name] < self.trip_count
        return {sensor.name: 1.0 if healthy else 0.0 for sensor in unit.outputs}

    def compute_batch(self, units: Sequence[Unit], ts: int):
        """Window means of every bounded input in one axis-1 reduction
        when all rows hold equally many readings (units may span several
        rows); a bounded input with no data errors its unit."""
        window, slices, _ = self.batch_window(units)
        n = window.uniform_count()
        if not n:
            return self.compute_ragged(units, window, slices)
        means = _window_means(window.values[:, window.width - n:]).tolist()
        topics = window.topics
        results = []
        for unit, rows in zip(units, slices):
            values = self._judge(
                unit, topics[rows.start:rows.stop], means[rows.start:rows.stop]
            )
            if values:
                results.append(UnitResult(unit, values))
        return results

    def compute_window(
        self, unit: Unit, rows: Sequence[WindowRow]
    ) -> Dict[str, float]:
        means = [
            float(_window_means(require_data(row)[None, :])[0]) for row in rows
        ]
        return self._judge(unit, [row[0] for row in rows], means)


def _window_means(values: np.ndarray) -> np.ndarray:
    return values.mean(axis=1)
