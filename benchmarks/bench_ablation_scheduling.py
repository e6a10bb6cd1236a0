"""Ablation M4 — sequential vs parallel unit management (Section IV-c).

Sequential mode shares one model across all units and processes them in
order (race-free); parallel mode creates one model per unit and may use
a worker pool.  This bench quantifies the trade-off on a CPU-bound
clustering-style operator with many units: model count, per-pass cost,
and the (Python-specific) effect of thread workers on a GIL-bound
workload.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from benchmarks.harness import print_header, print_table, shape_check
from repro.common.timeutil import NS_PER_SEC
from repro.core.operator import OperatorBase, OperatorConfig
from repro.core.queryengine import QueryEngine
from repro.core.units import Unit
from repro.dcdb.sensor import Sensor
from tests.hosts import RecordingHost

N_UNITS = 64
WINDOW = 50


class _Host(RecordingHost):
    capacity = WINDOW + 8

    def __init__(self, n_units):
        super().__init__()
        rng = np.random.default_rng(0)
        for i in range(n_units):
            self.add_series(f"/n{i:03d}/x", rng.random(WINDOW))


class StatsModelOp(OperatorBase):
    """CPU-bound toy model: per-unit exponential smoother over windows."""

    def make_model(self):
        return {"state": 0.0, "uses": 0}

    def compute_unit(self, unit, ts):
        model = self.model_for(unit)
        view = self.engine.query_relative(unit.inputs[0], WINDOW * NS_PER_SEC)
        values = view.values()
        # A few vector ops to emulate real per-unit analysis cost.
        feat = float(values.mean() + values.std() + np.median(values))
        model["state"] = 0.9 * model["state"] + 0.1 * feat
        model["uses"] += 1
        return {s.name: model["state"] for s in unit.outputs}


def make_op(unit_mode, max_workers=1):
    host = _Host(N_UNITS)
    cfg = OperatorConfig(
        name=f"abl-{unit_mode}-{max_workers}",
        unit_mode=unit_mode,
        max_workers=max_workers,
        window_ns=WINDOW * NS_PER_SEC,
    )
    op = StatsModelOp(cfg)
    op.bind(host, QueryEngine(host))
    op.set_units(
        [
            Unit(
                name=f"/n{i:03d}",
                level=0,
                inputs=[f"/n{i:03d}/x"],
                outputs=[Sensor(f"/n{i:03d}/out", is_operator_output=True,
                                publish=False)],
            )
            for i in range(N_UNITS)
        ]
    )
    op.start()
    return op


def per_pass_cost(op, reps=30):
    t0 = time.perf_counter_ns()
    for i in range(reps):
        op.compute((WINDOW + i) * NS_PER_SEC)
    return (time.perf_counter_ns() - t0) / reps / 1e6  # ms


class TestUnitScheduling:
    def test_model_placement_semantics(self, benchmark):
        print_header("M4 - model placement: sequential vs parallel")
        seq = make_op("sequential")
        par = make_op("parallel")
        seq.compute(WINDOW * NS_PER_SEC)
        par.compute(WINDOW * NS_PER_SEC)
        n_seq_models = 1 if seq._shared_model is not None else 0
        n_par_models = len(par._unit_models)
        print(f"  sequential: {n_seq_models} shared model for {N_UNITS} units")
        print(f"  parallel:   {n_par_models} per-unit models")
        assert shape_check(
            "sequential shares one model, parallel isolates per unit",
            n_seq_models == 1 and n_par_models == N_UNITS,
        )
        # In sequential mode, the shared model saw every unit.
        assert seq._shared_model["uses"] == N_UNITS
        assert all(m["uses"] == 1 for m in par._unit_models.values())
        benchmark(seq.compute, (WINDOW + 100) * NS_PER_SEC)

    def test_scheduling_cost_comparison(self, benchmark):
        print_header("M4 - per-pass cost by unit management mode")
        rows = []
        costs = {}
        for label, mode, workers in (
            ("sequential", "sequential", 1),
            ("parallel/1", "parallel", 1),
            ("parallel/4", "parallel", 4),
        ):
            op = make_op(mode, workers)
            costs[label] = per_pass_cost(op)
            rows.append((label, costs[label]))
        print_table(["mode", "ms/pass"], rows)
        print(
            "  note: with a GIL, thread workers add overhead for pure-"
            "Python models; parallel mode's value here is model isolation"
        )
        assert shape_check(
            "inline parallel mode costs about the same as sequential",
            costs["parallel/1"] < costs["sequential"] * 2.0,
            f"{costs['parallel/1']:.2f} vs {costs['sequential']:.2f} ms",
        )
        op = make_op("parallel", 4)
        benchmark(op.compute, (WINDOW + 200) * NS_PER_SEC)

    def test_sequential_results_deterministic(self, benchmark):
        """Sequential passes are order-stable: two identical operators
        produce identical outputs (the race-freedom motivation)."""
        a, b = make_op("sequential"), make_op("sequential")
        ra = a.compute(WINDOW * NS_PER_SEC)
        rb = b.compute(WINDOW * NS_PER_SEC)
        values_a = [r.values for r in ra]
        values_b = [r.values for r in rb]
        assert values_a == values_b
        benchmark(a.compute, (WINDOW + 300) * NS_PER_SEC)
