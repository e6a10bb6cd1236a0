"""PerSyst operator plugin (Fig 7, stage 2).

A re-implementation of the PerSyst transport (Guillen et al.) as a
Wintermute job operator: "at each computing interval, it queries the set
of running jobs on the HPC system, and for each of them it instantiates
a unit ... the operator computes a series of job-level statistical
indicators (e.g. mean) as output".

Each job unit's inputs are one derived metric (e.g. the per-core ``cpi``
produced by a perfmetrics stage) gathered from every CPU of every node
the job runs on; the outputs are the quantiles of that distribution —
deciles by default, matching the paper's Fig 7 (2048 samples per decile
for a 32-node, 64-core job).

Params:
    ``quantiles`` (list of float in [0, 1]): which quantiles to emit;
        default is the 11 deciles 0.0..1.0.
    ``statistics`` (list of str): extra indicators among ``mean``,
        ``std`` to emit alongside the quantiles.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.common.errors import ConfigError
from repro.core.operator import (
    JobOperatorBase,
    OperatorConfig,
    UnitResult,
    WindowRow,
)
from repro.core.registry import operator_plugin
from repro.core.units import Unit
from repro.ml.stats import quantiles as compute_quantiles

_DEFAULT_QUANTILES = [i / 10.0 for i in range(11)]
_EXTRA_STATS = ("mean", "std")


def quantile_output_name(q: float) -> str:
    """Canonical output-sensor name of one quantile (``decile5`` etc.)."""
    scaled = q * 10.0
    if abs(scaled - round(scaled)) < 1e-9:
        return f"decile{int(round(scaled))}"
    return f"q{int(round(q * 100)):02d}"


@operator_plugin("persyst")
class PerSystOperator(JobOperatorBase):
    """Per-job quantile aggregation of a derived metric."""

    @classmethod
    def flow_transforms(cls, params: dict) -> Dict[str, object]:
        # Quantiles of the monitored metric preserve its unit.
        return {"*": "preserve"}

    def __init__(self, config: OperatorConfig, job_source=None) -> None:
        super().__init__(config, job_source=job_source)
        qs = config.params.get("quantiles", _DEFAULT_QUANTILES)
        if not qs or any(not (0.0 <= q <= 1.0) for q in qs):
            raise ConfigError(
                f"{config.name}: quantiles must be fractions in [0, 1]"
            )
        self.quantiles = [float(q) for q in qs]
        extras = config.params.get("statistics", [])
        unknown = set(extras) - set(_EXTRA_STATS)
        if unknown:
            raise ConfigError(
                f"{config.name}: unknown statistics {sorted(unknown)}"
            )
        self.extra_stats = list(extras)

    def job_output_names(self) -> List[str]:
        return [quantile_output_name(q) for q in self.quantiles] + list(
            self.extra_stats
        )

    def _reduce(self, arr: np.ndarray) -> Dict[str, float]:
        """Quantiles + extra stats of one job's sample distribution."""
        qvals = compute_quantiles(arr, self.quantiles)
        out = {
            quantile_output_name(q): float(v)
            for q, v in zip(self.quantiles, qvals)
        }
        if "mean" in self.extra_stats:
            out["mean"] = float(arr.mean())
        if "std" in self.extra_stats:
            out["std"] = float(arr.std())
        return out

    def compute_batch(self, units: Sequence[Unit], ts: int) -> List[UnitResult]:
        """One batched query gathers every job's newest samples at once.

        The per-core window fetches — by far the dominant cost of the
        Fig 7 pipeline (2048 samples per 32-node job) — collapse into a
        single compiled-plan execution; the decile reduction then runs on
        each job's rows of newest values.  A core that has not produced
        the metric yet is skipped.
        """
        window, slices, _ = self.batch_window(units)
        last = window.last_values()
        live = window.counts > 0
        results = []
        for unit, rows in zip(units, slices):
            samples = last[rows.start:rows.stop][live[rows.start:rows.stop]]
            if samples.size:
                results.append(UnitResult(unit, self._reduce(samples)))
        return results

    def compute_window(
        self, unit: Unit, rows: Sequence[WindowRow]
    ) -> Dict[str, float]:
        samples = [values[-1] for _, _, values in rows if len(values)]
        if not samples:
            return {}
        return self._reduce(np.asarray(samples))
