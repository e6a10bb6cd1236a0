"""Figure 7 — per-job CPI decile analysis (Section VI-C).

Paper setup: a two-stage pipeline re-implementing PerSyst on Wintermute.
Stage 1 (``perfmetrics`` in the Pushers) derives per-core CPI at 1 s;
stage 2 (``persyst`` in the Collect Agent) instantiates one unit per
running job and outputs the deciles of the job's per-core CPI
distribution.  Four jobs run LAMMPS, AMG, Kripke and Nekbone on 32 nodes
(2048 cores) each; Fig 7 plots deciles 0, 2, 5, 8 and 10 over time.

Scaling substitution: 2 nodes x 16 cores per job (64 samples per decile
instead of 2048) on the simulated cluster.

Paper-shape expectations checked:
- LAMMPS: low CPI (~1.6 in the paper) with minimal decile spread;
- AMG: low bulk CPI but deciles 8/10 spike to ~10x the median
  (network-bound upper tail);
- Kripke: iterations clearly separable — the decile series swings
  periodically (strong autocorrelation at the iteration period);
- Nekbone: compute-bound first half, then the spread across deciles
  blows up as the working set exceeds the HBM capacity.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.harness import (
    Deployment,
    print_header,
    print_table,
    shape_check,
)
from repro.common.timeutil import NS_PER_SEC
from repro.simulator import ClusterSpec
from repro.simulator.scheduler import Job
from repro.simulator.workload import KripkeProfile

APPS = ("lammps", "amg", "kripke", "nekbone")
RUN_S = 430.0
JOB_START_S = 4.0
NODES_PER_JOB = 2
DECILES = (0, 2, 5, 8, 10)


@pytest.fixture(scope="module")
def experiment():
    dep = Deployment(
        ClusterSpec.small(nodes=len(APPS) * NODES_PER_JOB, cpus=16),
        seed=0xF7,
        monitoring=("perfevent",),
        perfevent_counters=("cpu-cycles", "instructions"),
    )
    nodes = dep.sim.node_paths
    for i, app in enumerate(APPS):
        dep.sim.scheduler.add_job(
            Job(
                f"{app}-job",
                app,
                tuple(nodes[i * NODES_PER_JOB : (i + 1) * NODES_PER_JOB]),
                int(JOB_START_S * NS_PER_SEC),
                int((JOB_START_S + RUN_S) * NS_PER_SEC),
            )
        )
    # Stage 1: per-core CPI in every pusher.
    for node in nodes:
        dep.managers[node].load_plugin(
            {
                "plugin": "perfmetrics",
                "operators": {
                    "cpi": {
                        "interval_s": 1,
                        "window_s": 2,
                        "delay_s": 2,
                        "inputs": [
                            "<bottomup>cpu-cycles",
                            "<bottomup>instructions",
                        ],
                        "outputs": ["<bottomup>cpi"],
                    }
                },
            }
        )
    # Let stage-1 outputs appear so stage 2 can resolve them.
    dep.run(6.0)
    dep.agent_manager.load_plugin(
        {
            "plugin": "persyst",
            "operators": {
                "job-cpi": {
                    "interval_s": 1,
                    "window_s": 3,
                    "delay_s": 2,
                    "inputs": ["<bottomup, filter cpu>cpi"],
                }
            },
        }
    )
    dep.run(JOB_START_S + RUN_S - 4.0)
    series = {}
    for app in APPS:
        series[app] = {
            d: dep.series(f"/jobs/{app}-job/decile{d}") for d in DECILES
        }
    return dep, series


def summarize(app, app_series):
    d5_ts, d5 = app_series[5]
    rows = []
    for d in DECILES:
        _, values = app_series[d]
        rows.append(
            (
                f"decile{d}",
                float(np.median(values)),
                float(values.min()),
                float(values.max()),
            )
        )
    print(f"\n{app.upper()} - CPI decile summary "
          f"({len(d5)} time points):")
    print_table(["series", "median", "min", "max"], rows)
    return rows


class TestFig7:
    def test_pipeline_produces_all_series(self, experiment, benchmark):
        dep, series = experiment
        print_header("Figure 7 - per-job CPI deciles (pipeline output)")
        for app in APPS:
            for d in DECILES:
                ts, values = series[app][d]
                assert len(values) > RUN_S * 0.8, (
                    f"{app} decile{d} series too short: {len(values)}"
                )
        print(
            "  pipeline: perfmetrics (8 pushers, 128 CPI units) -> "
            "persyst (collect agent, 1 unit/job)"
        )
        print(f"  {len(APPS)} jobs x {len(DECILES)} deciles, "
              f"{len(series[APPS[0]][5][1])} samples each")
        op = dep.agent_manager.operator("job-cpi")
        benchmark(op.compute, dep.now)

    def test_lammps_low_and_tight(self, experiment, benchmark):
        dep, series = experiment
        summarize("lammps", series["lammps"])
        _, d0 = series["lammps"][0]
        _, d5 = series["lammps"][5]
        _, d10 = series["lammps"][10]
        n = min(len(d0), len(d5), len(d10))
        med = float(np.median(d5))
        spread = float(np.median(d10[:n] - d0[:n]))
        assert shape_check(
            "LAMMPS median CPI low (paper ~1.6)", 1.0 < med < 2.5,
            f"median {med:.2f}",
        )
        assert shape_check(
            "LAMMPS decile spread minimal", spread < 1.5,
            f"median d10-d0 = {spread:.2f}",
        )
        benchmark(np.median, d5)

    def test_amg_upper_decile_spikes(self, experiment, benchmark):
        dep, series = experiment
        summarize("amg", series["amg"])
        _, d5 = series["amg"][5]
        _, d8 = series["amg"][8]
        _, d10 = series["amg"][10]
        med5 = float(np.median(d5))
        peak10 = float(np.percentile(d10, 95))
        assert shape_check(
            "AMG bulk CPI stays low", med5 < 5.0, f"median d5 {med5:.2f}"
        )
        assert shape_check(
            "AMG deciles 8/10 spike high (paper: up to ~30)",
            peak10 > 15.0 and float(np.percentile(d8, 95)) > 8.0,
            f"p95(d10) {peak10:.1f}",
        )
        assert shape_check(
            "AMG spikes are an upper-tail phenomenon",
            peak10 > 4.0 * med5,
            f"{peak10:.1f} vs median {med5:.2f}",
        )
        benchmark(np.percentile, d10, 95)

    def test_kripke_iterations_separable(self, experiment, benchmark):
        dep, series = experiment
        summarize("kripke", series["kripke"])
        _, d5 = series["kripke"][5]
        swing = float(d5.max() - d5.min())
        lag = int(KripkeProfile().instance_cls.ITERATION_S)
        a = d5[:-lag] - d5[:-lag].mean()
        b = d5[lag:] - d5[lag:].mean()
        autocorr = float(
            (a @ b) / (np.linalg.norm(a) * np.linalg.norm(b) + 1e-12)
        )
        assert shape_check(
            "Kripke CPI swings across iterations", swing > 5.0,
            f"swing {swing:.1f}",
        )
        assert shape_check(
            "Kripke iterations periodic (autocorr at iteration lag)",
            autocorr > 0.5,
            f"autocorr@{lag}s = {autocorr:.2f}",
        )
        benchmark(np.corrcoef, a, b)

    def test_nekbone_second_half_blowup(self, experiment, benchmark):
        dep, series = experiment
        summarize("nekbone", series["nekbone"])
        ts, d5 = series["nekbone"][5]
        _, d10 = series["nekbone"][10]
        n = min(len(d5), len(d10))
        spread = d10[:n] - d5[:n]
        half = n // 2
        first, second = float(np.mean(spread[:half])), float(
            np.mean(spread[half:])
        )
        assert shape_check(
            "Nekbone first half compute-bound (tight deciles)",
            first < 2.0,
            f"mean d10-d5 = {first:.2f}",
        )
        assert shape_check(
            "Nekbone spread blows up in the second half (paper: >=20% of "
            "cores affected past the 16GB HBM)",
            second > 3.0 * max(first, 0.2),
            f"{second:.2f} vs {first:.2f}",
        )
        benchmark(np.mean, spread)
