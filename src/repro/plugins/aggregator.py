"""Aggregator operator plugin.

The bread-and-butter plugin of the production deployment ("Wintermute is
currently deployed to perform aggregation of monitored metrics in the
CooLMUC-3 system"): each unit pools the readings of all its input
sensors over the configured window and emits scalar aggregates.

Params:
    ``ops`` (dict): output-sensor-name -> aggregate.  Supported
        aggregates: ``mean``, ``std``, ``min``, ``max``, ``sum``,
        ``median``, ``count``, ``last``, ``delta`` (last - first, for
        monotonic counters), ``rate`` (delta per second), ``qNN``
        (quantile, e.g. ``q90``).
    ``op`` (str): shorthand when there is a single output sensor.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List, Sequence

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

_QUANTILE_RE = re.compile(r"^q(100|\d{1,2})$")

# One aggregate per row (axis 1).  NumPy applies the same pairwise
# reduction to a row of a matrix as to a 1-D array of that row, so a
# unit's value is the same whether its window sits in a stacked pass
# matrix or is handed over alone as a 1×n view.
_ROW_OPS: Dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "mean": lambda m: m.mean(axis=1),
    "std": lambda m: m.std(axis=1),
    "min": lambda m: m.min(axis=1),
    "max": lambda m: m.max(axis=1),
    "sum": lambda m: m.sum(axis=1),
    "median": lambda m: np.median(m, axis=1),
    "count": lambda m: np.full(m.shape[0], float(m.shape[1])),
    "last": lambda m: m[:, -1].copy(),
}


def _kernel(
    op: str, pooled: np.ndarray, first: np.ndarray, first_ts: np.ndarray
) -> np.ndarray:
    """Aggregate ``op`` of every row: U×n matrices in, U values out.

    ``pooled`` holds each unit's readings pooled over its inputs;
    ``delta``/``rate`` read ``first``/``first_ts``, the window of the
    unit's first input (they are counter-oriented and pooling counters
    is meaningless).
    """
    if op in ("delta", "rate"):
        if first.shape[1] < 2:
            return np.full(first.shape[0], np.nan)
        diff = first[:, -1] - first[:, 0]
        if op == "delta":
            return diff
        out = np.full(first.shape[0], np.nan)
        span_s = (first_ts[:, -1] - first_ts[:, 0]) / 1e9
        ok = span_s > 0
        out[ok] = diff[ok] / span_s[ok]
        return out
    if pooled.shape[1] == 0:
        return np.full(pooled.shape[0], np.nan)
    match = _QUANTILE_RE.match(op)
    if match:
        return np.percentile(pooled, int(match.group(1)), axis=1)
    return _ROW_OPS[op](pooled)


@operator_plugin("aggregator")
class AggregatorOperator(OperatorBase):
    """Window aggregates over each unit's pooled input readings."""

    @classmethod
    def flow_transforms(cls, params: dict) -> Dict[str, object]:
        # Derived from the configured aggregates: counts are pure
        # numbers, rates divide by time, everything else (mean, min,
        # delta, quantiles, ...) carries its inputs' unit through.
        ops = dict(params.get("ops", {})) if isinstance(params, dict) else {}
        if isinstance(params, dict) and params.get("op") is not None:
            ops.setdefault("*", params["op"])
        transforms: Dict[str, object] = {}
        for name, op in ops.items():
            if not isinstance(name, str) or not isinstance(op, str):
                continue
            if op == "count":
                transforms[name] = "dimensionless"
            elif op == "rate":
                transforms[name] = "per-second"
            else:
                transforms[name] = "preserve"
        return transforms

    def __init__(self, config: OperatorConfig) -> None:
        super().__init__(config)
        ops = dict(config.params.get("ops", {}))
        single = config.params.get("op")
        if single is not None:
            # Units may get their outputs from config patterns or from
            # explicit set_units; only multiple *declared* outputs make
            # the shorthand ambiguous.
            if len(config.outputs) > 1:
                raise ConfigError(
                    f"{config.name}: shorthand 'op' needs exactly one output"
                )
            # Bind the shorthand to whatever the single output is named.
            ops["*"] = single
        if not ops:
            raise ConfigError(f"{config.name}: params.ops (or op) is required")
        self._ops: Dict[str, str] = {}
        for out_name, op in ops.items():
            self._validate_op(op)
            self._ops[out_name] = op

    @staticmethod
    def _validate_op(op: str) -> None:
        if op in _ROW_OPS or op in ("delta", "rate"):
            return
        if _QUANTILE_RE.match(op):
            return
        raise ConfigError(f"unknown aggregate {op!r}")

    def _op_for(self, sensor_name: str) -> str:
        op = self._ops.get(sensor_name) or self._ops.get("*")
        if op is None:
            raise ConfigError(
                f"{self.name}: no aggregate configured for output "
                f"{sensor_name!r}"
            )
        return op

    def check_unit(self, unit: Unit) -> None:
        for sensor in unit.outputs:
            self._op_for(sensor.name)

    def compute_batch(self, units: Sequence[Unit], ts: int):
        window, slices, n = self.batch_window(units)
        m = self.rows_per_unit()
        if m > 1:  # n speaks for one row per unit only
            n = window.uniform_count()
        if not n:
            return self.compute_ragged(units, window, slices)
        # Uniform pass: every unit has m rows of n readings.  The
        # stacked block reshaped to (units, m * n) is each unit's inputs
        # laid end to end — its pooled readings; every m-th row is a
        # unit's first input.  One kernel per aggregate over that.
        values = window.values[:, window.width - n:]
        timestamps = window.timestamps[:, window.width - n:]
        pooled = values.reshape(len(units), m * n)
        columns = {
            op: _kernel(op, pooled, values[::m], timestamps[::m])
            for op in set(self._ops.values())
        }
        return PassResult(
            units=units, column_of=lambda name: columns[self._op_for(name)]
        )

    def compute_window(
        self, unit: Unit, rows: Sequence[WindowRow]
    ) -> Dict[str, float]:
        segments: List[np.ndarray] = [require_data(row) for row in rows]
        pooled = np.concatenate(segments) if segments else np.empty(0)
        first = segments[0] if segments else pooled
        first_ts = rows[0][1] if rows else np.empty(0, dtype=np.int64)
        return {
            sensor.name: float(
                _kernel(
                    self._op_for(sensor.name),
                    pooled[None, :], first[None, :], first_ts[None, :],
                )[0]
            )
            for sensor in unit.outputs
        }
