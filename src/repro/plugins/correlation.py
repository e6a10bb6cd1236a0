"""Correlation-signature operator plugin.

Inspired by the CS-signatures plugin of the production Wintermute
release: a unit's *signature* is the vector of pairwise Pearson
correlations between its input sensors over the analysis window.
Correlation structure is a robust fingerprint of component behaviour —
e.g. power and temperature decorrelating on a node is an early fault
indicator (the fault-detection class of the paper's taxonomy), and
cross-sensor correlations feed anomaly detectors without unit-scale
normalisation issues.

Outputs are selected by naming the output sensors:

=====================  ==============================================
output name            value
=====================  ==============================================
``corr-mean``          mean of all pairwise correlations
``corr-min``           weakest pairwise correlation
``corr-<i>-<j>``       correlation between inputs ``i`` and ``j``
                       (0-based indexes in unit input order)
=====================  ==============================================
"""

from __future__ import annotations

import re
from typing import Dict, List, Sequence

import numpy as np

from repro.common.errors import ConfigError
from repro.core.operator import OperatorBase, OperatorConfig, WindowRow, require_data
from repro.core.registry import operator_plugin
from repro.core.units import Unit

_PAIR_RE = re.compile(r"^corr-(\d+)-(\d+)$")


@operator_plugin("correlation")
class CorrelationOperator(OperatorBase):
    """Pairwise correlation signatures over each unit's input windows.

    Params:
        ``min_samples`` (int): minimum overlapping readings per sensor
            window before a signature is emitted (default 8).
    """

    @classmethod
    def flow_transforms(cls, params: dict) -> Dict[str, object]:
        # Correlation coefficients are pure numbers.
        return {"*": "dimensionless"}

    def __init__(self, config: OperatorConfig) -> None:
        super().__init__(config)
        if config.window_ns <= 0:
            raise ConfigError(
                f"{config.name}: correlation needs a positive window"
            )
        self.min_samples = int(config.params.get("min_samples", 8))
        if self.min_samples < 3:
            raise ConfigError(f"{config.name}: min_samples must be >= 3")

    def check_unit(self, unit: Unit) -> None:
        k = len(unit.inputs)
        if k < 2:
            raise ConfigError(
                f"{self.name}: unit {unit.name} needs >= 2 inputs for a "
                f"correlation signature"
            )
        for sensor in unit.outputs:
            if sensor.name in ("corr-mean", "corr-min"):
                continue
            match = _PAIR_RE.match(sensor.name)
            if match is None:
                raise ConfigError(
                    f"{self.name}: unit {unit.name}: unknown correlation "
                    f"output {sensor.name!r}"
                )
            i, j = int(match.group(1)), int(match.group(2))
            if not (i < k and j < k and i != j):
                raise ConfigError(
                    f"{self.name}: unit {unit.name}: pair ({i},{j}) outside "
                    f"the unit's {k} inputs"
                )

    def compute_window(
        self, unit: Unit, rows: Sequence[WindowRow]
    ) -> Dict[str, float]:
        # Per-sensor windows, truncated to a common length and stacked.
        columns: List[np.ndarray] = []
        for row in rows:
            values = require_data(row)
            if len(values) < self.min_samples:
                return {}
            columns.append(values)
        n = min(len(c) for c in columns)
        with np.errstate(invalid="ignore"):
            corr = np.corrcoef(np.vstack([c[-n:] for c in columns]))
        # Constant windows produce NaN correlations; define them as 0
        # (no linear relationship observable).
        corr = np.nan_to_num(corr, nan=0.0)
        pairs = corr[np.triu_indices(len(rows), 1)]
        out: Dict[str, float] = {}
        for sensor in unit.outputs:
            name = sensor.name
            if name == "corr-mean":
                out[name] = float(pairs.mean())
            elif name == "corr-min":
                out[name] = float(pairs.min())
            else:
                i, j = map(int, _PAIR_RE.match(name).groups())
                out[name] = float(corr[i, j])
        return out
