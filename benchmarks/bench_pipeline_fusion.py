"""Pipeline fusion benchmark — fused vs staged 3-stage pipelines.

One operator pass is cheap (a compiled-plan batch query feeding an
axis-1 window kernel); fusion makes whole *pipelines* cheap.  A staged
smoother → aggregator → aggregator chain pays, per tick and per stage:
the store fan-out into the host's operator-output caches and a fresh
batched re-query of exactly the data the previous stage just produced.
A fused group threads the intermediate window matrices straight from
kernel to kernel — one external query, one store fan-out, zero
intermediate cache round-trips.

This bench drives both executions of the *same* pipeline over the same
input stream at ≥ 500 units and checks:

- **speedup**: the fused pass must be ≥ 2x cheaper than the three
  staged passes (relaxed under ``--smoke``, which runs a small fraction
  of the units for CI);
- **parity**: the final stage's stored series must be bit-for-bit
  identical between the two executions — every pass, every unit.

Run standalone (``python benchmarks/bench_pipeline_fusion.py [--smoke]``)
or under pytest.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

if __package__ in (None, ""):  # script invocation: make repo-root imports work
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import numpy as np

from benchmarks.harness import (
    print_header,
    print_table,
    shape_check,
    write_bench_artifact,
)
from repro.common.timeutil import NS_PER_SEC
from repro.core.fusion import FusedGroup
from repro.core.operator import OperatorConfig
from repro.core.pipeline import FusionSpec, plan_fusion
from repro.core.queryengine import QueryEngine
from repro.core.units import Unit
from repro.dcdb.cache import SensorCache
from repro.dcdb.sensor import Sensor
from repro.plugins.aggregator import AggregatorOperator
from repro.plugins.smoother import SmootherOperator

FULL_UNITS, FULL_PASSES = 520, 40
SMOKE_UNITS, SMOKE_PASSES = 96, 12
WARM_PASSES = 8  # untimed leading ticks: fill windows, compile plans
CACHE_WINDOW_NS = 180 * NS_PER_SEC


class MiniPusher:
    """A Pusher-shaped host: caches, no storage, batched store fan-out.

    Operator outputs land in lazily created caches exactly as
    ``Pusher._write_plan`` would make them — ``for_duration`` of
    the retention window with the 1 s host interval hint — so the
    staged pipeline's downstream stages re-query real ring buffers.
    """

    def __init__(self, name: str, input_topics, rng_seed: int) -> None:
        self.name = name
        self.cache_window_ns = CACHE_WINDOW_NS
        self.caches = {}
        for topic in input_topics:
            self.caches[topic] = SensorCache.for_duration(
                self.cache_window_ns, NS_PER_SEC
            )
        self.stored: dict = {}

    @property
    def storage(self):
        return None

    def sensor_topics(self):
        return list(self.caches)

    def cache_for(self, topic):
        return self.caches.get(topic)

    def feed(self, ts: int, topics, values) -> None:
        one_ts = np.asarray([ts], dtype=np.int64)
        for topic, value in zip(topics, values):
            self.caches[topic].store_batch(one_ts, np.asarray([value]))

    def _record(self, sensor, ts: int, value: float) -> None:
        self.stored.setdefault(sensor.topic, []).append((ts, value))
        cache = self.caches.get(sensor.topic)
        if cache is None:
            cache = self.caches[sensor.topic] = SensorCache.for_duration(
                self.cache_window_ns, NS_PER_SEC
            )
        # Scalar append, exactly like ``Pusher.store_readings_batch``.
        cache.store(ts, value)

    def store_reading(self, sensor, ts, value):
        self._record(sensor, ts, float(value))

    def store_readings_batch(self, ts, readings):
        for sensor, value in zip(readings.sensors, readings.values.tolist()):
            self._record(sensor, ts, value)


def _configs(n_units: int):
    """The 3-stage chain: private intermediates, published terminal."""
    return [
        (
            SmootherOperator,
            "smoother",
            OperatorConfig(
                name="sm", window_ns=10 * NS_PER_SEC, publish_outputs=False
            ),
            "power", "sm",
        ),
        (
            AggregatorOperator,
            "aggregator",
            OperatorConfig(
                name="ag", window_ns=30 * NS_PER_SEC, publish_outputs=False,
                params={"ops": {"*": "mean"}},
            ),
            "sm", "ag",
        ),
        (
            AggregatorOperator,
            "aggregator",
            OperatorConfig(
                name="mx", window_ns=60 * NS_PER_SEC,
                params={"ops": {"*": "max"}},
            ),
            "ag", "mx",
        ),
    ]


def _build_stack(label: str, n_units: int):
    """(host, engine, ops) — one independent pipeline instance."""
    input_topics = [f"/n{i}/power" for i in range(n_units)]
    host = MiniPusher(label, input_topics, rng_seed=0xF051)
    engine = QueryEngine(host)
    ops = []
    for cls, _plugin, config, in_name, out_name in _configs(n_units):
        op = cls(config)
        op.bind(host, engine)
        op.set_units(
            [
                Unit(
                    name=f"/n{i}",
                    level=0,
                    inputs=[f"/n{i}/{in_name}"],
                    outputs=[
                        Sensor(f"/n{i}/{out_name}", is_operator_output=True)
                    ],
                )
                for i in range(n_units)
            ]
        )
        op.start()
        ops.append(op)
    return host, engine, ops


def _planner_groups(n_units: int):
    """Run the real fusion planner over the bench pipeline's specs."""
    specs = []
    for _cls, plugin, config, in_name, out_name in _configs(n_units):
        specs.append(
            FusionSpec(
                name=config.name,
                label=f"{plugin}/{config.name}",
                config=config,
                has_kernel=True,
                input_topics=frozenset(
                    f"/n{i}/{in_name}" for i in range(n_units)
                ),
                output_topics=frozenset(
                    f"/n{i}/{out_name}" for i in range(n_units)
                ),
            )
        )
    return plan_fusion(specs, host_has_storage=False).groups


def run_fusion_bench(n_units: int, passes: int) -> dict:
    groups = _planner_groups(n_units)
    staged_host, _, staged_ops = _build_stack("staged", n_units)
    fused_host, fused_engine, fused_ops = _build_stack("fused", n_units)
    group = FusedGroup(
        name="bench:fused:sm+ag+mx",
        ops=fused_ops,
        host=fused_host,
        engine=fused_engine,
    )

    input_topics = [f"/n{i}/power" for i in range(n_units)]
    rng = np.random.default_rng(0xF051)
    staged_ns = fused_ns = 0
    parity = True
    total = WARM_PASSES + passes
    for tick in range(1, total + 1):
        ts = tick * NS_PER_SEC
        values = rng.random(n_units)
        staged_host.feed(ts, input_topics, values)
        fused_host.feed(ts, input_topics, values)

        t0 = time.perf_counter_ns()
        for op in staged_ops:
            op.compute(ts)
        staged_dt = time.perf_counter_ns() - t0

        t0 = time.perf_counter_ns()
        group.run(ts)
        fused_dt = time.perf_counter_ns() - t0

        if tick > WARM_PASSES:
            staged_ns += staged_dt
            fused_ns += fused_dt

    final_topics = [f"/n{i}/mx" for i in range(n_units)]
    for topic in final_topics:
        if staged_host.stored.get(topic) != fused_host.stored.get(topic):
            parity = False
            break
    readings = sum(len(fused_host.stored.get(t, ())) for t in final_topics)
    return {
        "n_units": n_units,
        "passes": passes,
        "planner_groups": groups,
        "staged_ns_per_pass": staged_ns / passes,
        "fused_ns_per_pass": fused_ns / passes,
        "speedup": staged_ns / fused_ns if fused_ns else float("nan"),
        "parity": parity,
        "final_readings": readings,
    }


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small unit count for CI (same pipeline, relaxed speedup)",
    )
    args = parser.parse_args(argv)
    n_units, passes = (
        (SMOKE_UNITS, SMOKE_PASSES) if args.smoke else (FULL_UNITS, FULL_PASSES)
    )
    min_speedup = 1.2 if args.smoke else 2.0

    print_header("Pipeline fusion - fused vs staged 3-stage pipeline")
    r = run_fusion_bench(n_units, passes)
    print_table(
        ["units", "staged us", "fused us", "speedup", "parity"],
        [(
            r["n_units"],
            r["staged_ns_per_pass"] / 1e3,
            r["fused_ns_per_pass"] / 1e3,
            f"{r['speedup']:.2f}x",
            r["parity"],
        )],
    )
    config = {"n_units": n_units, "passes": passes, "smoke": args.smoke}
    write_bench_artifact(
        "fusion",
        {"bench": "bench_pipeline_fusion", **r},
        config=config,
    )
    ok = shape_check(
        "planner fuses the whole 3-stage chain",
        r["planner_groups"] == [["sm", "ag", "mx"]],
        str(r["planner_groups"]),
    )
    ok &= shape_check(
        "fused and staged stores are bit-for-bit identical",
        r["parity"] and r["final_readings"] > 0,
        f"{r['final_readings']} final-stage readings",
    )
    ok &= shape_check(
        f"fused pass >= {min_speedup:g}x cheaper than staged",
        r["speedup"] >= min_speedup,
        f"{r['speedup']:.2f}x at {n_units} units",
    )
    return 0 if ok else 1


class TestPipelineFusionBench:
    def test_parity_and_planner(self):
        r = run_fusion_bench(SMOKE_UNITS, SMOKE_PASSES)
        assert r["planner_groups"] == [["sm", "ag", "mx"]]
        assert r["parity"] and r["final_readings"] > 0

    def test_fused_is_faster(self):
        # The standalone run asserts the full 2x claim; under pytest on
        # a shared machine allow scheduling noise on top of it.
        r = run_fusion_bench(FULL_UNITS, FULL_PASSES)
        assert r["speedup"] >= 1.5, r


if __name__ == "__main__":
    sys.exit(main())
