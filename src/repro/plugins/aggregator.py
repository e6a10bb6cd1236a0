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
from functools import partial
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

#: ``kernel(pooled, first, span)``: one aggregate of every row, U×n
#: matrices in, U values out (see :func:`_resolve`).  ``span()`` is each
#: unit's first input's newest minus oldest timestamp, computed only by
#: the kernel that reads time (``rate``), so no other pays for stamps.
Kernel = Callable[[np.ndarray, np.ndarray, Callable[[], np.ndarray]], np.ndarray]

def _extreme(ufunc: np.ufunc) -> Callable[[np.ndarray], np.ndarray]:
    """``min``/``max`` of each row, reduced along the contiguous axis.

    Reducing a row is slow where the matrix is tall and its rows short
    (256 units of 31 readings): there the transposed copy is reduced
    along axis 0, elementwise across whole rows of units; a wide matrix
    (a unit's 1×n window among them) keeps axis 1.  The extreme does not
    depend on the order it is met in, but which of ±0.0 or of two NaNs
    is kept does: a zero extreme is +0.0 and a NaN one ``np.nan``, so
    both axes give a unit the same bits.
    """

    def reduce(m: np.ndarray) -> np.ndarray:
        if m.shape[0] > m.shape[1]:
            out = ufunc.reduce(m.T.copy(), axis=0)
        else:
            out = ufunc.reduce(m, axis=1)
        out += 0.0  # -0.0 + 0.0 is +0.0
        out[np.isnan(out)] = np.nan
        return out

    return reduce


# One aggregate per row (axis 1).  NumPy applies the same pairwise
# reduction to a row of a matrix as to a 1-D array of that row, so a
# unit's value is the same whether its window sits in a stacked pass
# matrix or is handed over alone as a 1×n view (``min`` and ``max``,
# whose axis depends on the shape, are exact either way).  The
# reductions are the ufunc ones ``ndarray.mean``/``max``/... wrap,
# called without the wrappers' per-call dispatch.
_ROW_OPS: Dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "mean": lambda m: np.add.reduce(m, axis=1) / m.shape[1],
    "std": lambda m: m.std(axis=1),
    "min": _extreme(np.minimum),
    "max": _extreme(np.maximum),
    "sum": lambda m: np.add.reduce(m, axis=1),
    "median": lambda m: np.median(m, axis=1),
    "count": lambda m: np.full(m.shape[0], float(m.shape[1])),
    "last": lambda m: m[:, -1].copy(),
}


def _pooled(row_op: Callable[[np.ndarray], np.ndarray]) -> Kernel:
    """``row_op`` over each unit's readings pooled over its inputs."""

    def kernel(pooled, first, span):
        if pooled.shape[1] == 0:
            return np.full(pooled.shape[0], np.nan)
        return row_op(pooled)

    return kernel


def _counter(rate: bool) -> Kernel:
    """``delta`` (last - first) or ``rate`` (delta per second) of each
    unit's first input: they are counter-oriented, and pooling counters
    is meaningless."""

    def kernel(pooled, first, span):
        if first.shape[1] < 2:
            return np.full(first.shape[0], np.nan)
        diff = first[:, -1] - first[:, 0]
        if not rate:
            return diff
        out = np.full(first.shape[0], np.nan)
        span_s = span() / 1e9
        ok = span_s > 0
        out[ok] = diff[ok] / span_s[ok]
        return out

    return kernel


def _resolve(op: str) -> Kernel:
    """The kernel of aggregate ``op``, or :class:`ConfigError`."""
    if op in ("delta", "rate"):
        return _counter(op == "rate")
    row_op = _ROW_OPS.get(op)
    if row_op is None:
        match = _QUANTILE_RE.match(op)
        if match is None:
            raise ConfigError(f"unknown aggregate {op!r}")
        row_op = partial(np.percentile, q=int(match.group(1)), axis=1)
    return _pooled(row_op)


@operator_plugin("aggregator")
class AggregatorOperator(OperatorBase):
    """Window aggregates over each unit's pooled input readings."""

    row_wise_kernel = True

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
        self._ops: Dict[str, str] = dict(ops)
        #: One kernel per distinct aggregate, resolved once.
        self._kernels: Dict[str, Kernel] = {
            op: _resolve(op) for op in dict.fromkeys(ops.values())
        }

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

    def compute_batch(self, units: Sequence[Unit], window, slices):
        m = self.rows_per_unit()
        n = window.uniform_count() if m else 0
        if not n:
            return self.compute_ragged(units, window, slices)
        # Uniform pass: every unit has m rows of n readings.  The
        # stacked block reshaped to (units, m * n) is each unit's inputs
        # laid end to end — its pooled readings; every m-th row is a
        # unit's first input.  One kernel per aggregate over that.
        values = window.values[:, window.width - n:]
        pooled = values.reshape(len(units), m * n)
        span = partial(window.spans, slice(None, None, m))
        columns = {
            op: kernel(pooled, values[::m], span)
            for op, kernel in self._kernels.items()
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
                self._kernels[self._op_for(sensor.name)](
                    pooled[None, :], first[None, :],
                    lambda: first_ts[-1:] - first_ts[:1],
                )[0]
            )
            for sensor in unit.outputs
        }
