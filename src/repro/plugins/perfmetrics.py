"""PerfMetrics operator plugin (Fig 7, stage 1).

"The first perfmetrics plugin, instantiated in the Pushers, takes as
input CPU and node-level data and computes as output a series of derived
performance metrics, such as cycles per instruction (CPI), floating
point operations per second (FLOPS) or vectorization ratio."

Each unit is typically one CPU core; the plugin is handed the windows of
the raw monotonic counters its outputs need, forms their deltas and
derives the requested metrics — selected simply by naming the output
sensors:

===============  ====================================================
output name      derived metric
===============  ====================================================
``cpi``          delta(cycles) / delta(instructions)
``ipc``          delta(instructions) / delta(cycles)
``instr-rate``   delta(instructions) per second
``flops-rate``   delta(flops) per second
``vector-ratio`` delta(vector-ops) / delta(instructions)
``miss-ratio``   delta(cache-misses) / delta(cache-references)
===============  ====================================================
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigError
from repro.core.operator import OperatorBase, OperatorConfig, WindowRow, require_data
from repro.core.registry import operator_plugin
from repro.core.units import Unit

#: metric -> (numerator counter, denominator counter or None for /second)
_METRICS = {
    "cpi": ("cpu-cycles", "instructions"),
    "ipc": ("instructions", "cpu-cycles"),
    "instr-rate": ("instructions", None),
    "flops-rate": ("flops", None),
    "vector-ratio": ("vector-ops", "instructions"),
    "miss-ratio": ("cache-misses", "cache-references"),
}


def _advance(row: Optional[WindowRow]) -> Optional[Tuple[float, float]]:
    """How far a counter moved over its window and the seconds that
    took; ``None`` for a counter the unit lacks or fewer than two
    readings."""
    if row is None or len(require_data(row)) < 2:
        return None
    _topic, timestamps, values = row
    return float(values[-1] - values[0]), (int(timestamps[-1]) - int(timestamps[0])) / 1e9


@operator_plugin("perfmetrics")
class PerfMetricsOperator(OperatorBase):
    """Derives performance metrics from raw counter deltas."""

    @classmethod
    def flow_transforms(cls, params: dict) -> Dict[str, object]:
        # Counter ratios are dimensionless; *-rate metrics are
        # counts per second.
        transforms: Dict[str, object] = {}
        for name, (_num, den) in _METRICS.items():
            transforms[name] = "dimensionless" if den else "per-second"
        return transforms

    def __init__(self, config: OperatorConfig) -> None:
        super().__init__(config)
        if config.window_ns <= 0:
            raise ConfigError(
                f"{config.name}: perfmetrics needs a positive window to "
                f"form counter deltas"
            )

    def check_unit(self, unit: Unit) -> None:
        for sensor in unit.outputs:
            if sensor.name not in _METRICS:
                raise ConfigError(
                    f"{self.name}: unit {unit.name}: unknown derived metric "
                    f"{sensor.name!r}; supported: {sorted(_METRICS)}"
                )

    def kernel_inputs(self, unit: Unit) -> List[str]:
        # One row per counter the unit's outputs need, however many of
        # them share it; the first input of that name wins.
        counters = dict.fromkeys(
            c for sensor in unit.outputs for c in _METRICS[sensor.name] if c
        )
        return [named[0] for c in counters if (named := unit.inputs_named(c))]

    def compute_window(
        self, unit: Unit, rows: Sequence[WindowRow]
    ) -> Dict[str, float]:
        counters = {row[0].rsplit("/", 1)[-1]: row for row in rows}
        out: Dict[str, float] = {}
        for sensor in unit.outputs:
            num_counter, den_counter = _METRICS[sensor.name]
            num = _advance(counters.get(num_counter))
            if num is None:
                continue
            if den_counter is None:
                if num[1] > 0:
                    out[sensor.name] = num[0] / num[1]
            else:
                den = _advance(counters.get(den_counter))
                if den is not None and den[0] > 0:
                    out[sensor.name] = num[0] / den[0]
        return out
