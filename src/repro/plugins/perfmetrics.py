"""PerfMetrics operator plugin (Fig 7, stage 1).

"The first perfmetrics plugin, instantiated in the Pushers, takes as
input CPU and node-level data and computes as output a series of derived
performance metrics, such as cycles per instruction (CPI), floating
point operations per second (FLOPS) or vectorization ratio."

Each unit is typically one CPU core; the plugin is handed the windows of
the raw monotonic counters its outputs need, forms their deltas and
derives the requested metrics — selected simply by naming the output
sensors.  A pass is one column operation that reads each window's first
and last reading only, so windows need not be of one length:

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

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import ConfigError
from repro.core.operator import OperatorBase, OperatorConfig, PassResult, WindowRow, require_data
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


def _moved(values: np.ndarray, first) -> np.ndarray:
    """How far each row's counter moved over its window, read off two
    columns only: the last and ``first``, its oldest reading's — one
    column for every row, or one per row."""
    if isinstance(first, int):
        return values[:, -1] - values[:, first]
    return values[:, -1] - values[np.arange(len(values)), first]


def _terms(
    name: str, moved: Dict[str, np.ndarray], seconds: Callable[[str], np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """Numerator and denominator columns of metric ``name``, from each
    counter's delta column; ``seconds(counter)`` is the time its window
    spans, asked for by a per-second rate only.  A unit has the metric
    where the denominator is > 0."""
    num, den = _METRICS[name]
    return moved[num], seconds(num) if den is None else moved[den]


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
        # (batch layout, what _shared derived from it)
        self._kernel_layout: Tuple[Optional[tuple], Optional[tuple]] = (None, None)

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

    def _shared(self) -> Optional[Tuple[Tuple[str, ...], Tuple[str, ...]]]:
        """``(counters, names)`` when every unit of the last gathered
        pass has the same counter rows in the same order and they hold
        every counter its outputs need — counter ``k`` of
        unit ``j`` is then row ``j * m + k`` and the pass computes the
        output ``names`` — else ``None``.  Memoised with the layout."""
        layout = self._batch_layout
        if self._kernel_layout[0] is not layout:
            units, topics, _slices, m = layout
            rows = [topic.rsplit("/", 1)[-1] for topic in topics]
            counters = tuple(rows[:m])
            names = tuple(dict.fromkeys(s.name for u in units for s in u.outputs))
            shared = m and rows == list(counters) * len(units) and all(
                c in counters for name in names for c in _METRICS[name] if c
            )
            self._kernel_layout = (layout, (counters, names) if shared else None)
        return self._kernel_layout[1]

    def compute_batch(self, units: Sequence[Unit], window, slices):
        shared = self._shared()
        n = window.uniform_count()
        if shared is None or n < 2 and window.counts.min() < 2:
            return self.compute_ragged(units, window, slices)
        counters, names = shared
        m = len(counters)
        delta = _moved(window.values, window.width - (n or window.counts))
        moved = {c: delta[k::m] for k, c in enumerate(counters)}

        def seconds(counter: str) -> np.ndarray:
            return window.spans(slice(counters.index(counter), None, m)) / 1e9

        columns = {}
        for name in names:
            top, below = _terms(name, moved, seconds)
            if not (below > 0).all():  # a unit would leave it out
                return self.compute_ragged(units, window, slices)
            columns[name] = top / below
        return PassResult(units=units, column_of=columns.__getitem__)

    def compute_window(
        self, unit: Unit, rows: Sequence[WindowRow]
    ) -> Dict[str, float]:
        counters = {row[0].rsplit("/", 1)[-1]: row for row in rows}
        out: Dict[str, float] = {}
        for sensor in unit.outputs:
            needed = [c for c in _METRICS[sensor.name] if c]
            # Numerator first, as the scalar queries went: a counter the
            # unit lacks or holding one reading leaves the output out,
            # an empty one raises.
            if not all(
                c in counters and len(require_data(counters[c])) > 1
                for c in needed
            ):
                continue
            moved = {c: _moved(counters[c][2][None, :], 0) for c in needed}
            top, below = _terms(
                sensor.name, moved,
                lambda c: (counters[c][1][-1:] - counters[c][1][:1]) / 1e9,
            )
            if below[0] > 0:
                out[sensor.name] = float(top[0] / below[0])
        return out
