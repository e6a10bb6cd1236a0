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
  identical between the two executions — every pass, every unit;
- **flat channel append**: a :class:`~repro.core.fusion.FusedChannel`
  pass writes one column of its ring, so the cheapest append at window
  width 31 costs at most 1.5x the one at width 1 (min of
  ``APPEND_ROUNDS`` rounds, the same under ``--smoke``);
- **partial append**: a partial pass (a ``unit_cadence=4`` rotation,
  or four of the rows quarantined) costs the ring no more than it cost
  the shift-left channel it replaced, at every width;
- **stacked lanes**: ``STACK_LANES`` congruent copies of the chain, one
  per-cpu pipeline of a node each (``STACK_UNITS`` units), run as one
  stacked group — one gather and one kernel call per stage — against
  one group per chain: the planner stacks them, the final series are
  bit-for-bit identical, and the stack is >= 1.5x cheaper (relaxed
  under ``--smoke``).

Run standalone (``python benchmarks/bench_pipeline_fusion.py [--smoke]``)
or under pytest.
"""

from __future__ import annotations

import sys
import time
from dataclasses import replace
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
from repro.core.fusion import FusedChannel, FusedGroup
from repro.core.operator import OperatorConfig
from repro.core.pipeline import FusionSpec, plan_fusion
from repro.core.queryengine import QueryEngine
from repro.core.units import Unit
from repro.dcdb.cache import (
    CacheSlab,
    PlanMemo,
    WritePlan,
    first_and_length,
    plan_columns,
    plan_write,
    write_columns_at,
)
from repro.dcdb.sensor import Sensor
from repro.plugins.aggregator import AggregatorOperator
from repro.plugins.smoother import SmootherOperator
from tests.shift_channel import ShiftChannel

FULL_UNITS, FULL_PASSES = 520, 40
SMOKE_UNITS, SMOKE_PASSES = 96, 12
WARM_PASSES = 8  # untimed leading ticks: fill windows, compile plans
CACHE_WINDOW_NS = 180 * NS_PER_SEC
#: Channel-append micro-benchmark: rows (one per-cpu chain's units on
#: a 64-cpu node), the widths timed, min-of-N rounds of appends, the
#: unit cadence of the staggered passes and the quarantined rows' stride.
APPEND_ROWS, APPEND_WIDTHS = 64, (1, 21, 31)
APPEND_ROUNDS, APPEND_PER_ROUND = 30, 248
APPEND_CADENCE, APPEND_QUARANTINE_EVERY = 4, 16
MAX_APPEND_RATIO = 1.5
#: Partial ring append / the same partial shift-left append, at worst.
MAX_PARTIAL_RATIO = 1.0
#: Stacked-lanes case: congruent chains, units per chain (a 64-cpu
#: node's per-cpu chain), the passes timed (full, smoke).
STACK_LANES, STACK_UNITS, STACK_PASSES = 4, 64, (200, 40)
MIN_STACK_SPEEDUP = 1.5


class MiniPusher:
    """A Pusher-shaped host: caches, no storage, no broker.

    Its inputs share one lock-step slab, as a Pusher's sampled sensors
    do (one column written per tick, one slab gathered per plan), and
    it stores a pass as a Pusher's write plan does: operator outputs
    land in caches made the first time they are written — one slab per
    pass, ``for_duration`` of the retention window at the 1 s host
    interval hint — one column per slab, so the staged pipeline's later
    stages re-query real rings.  Each stored pass is also kept as its
    columns (:meth:`series`), for the parity checks.  The ratios
    measured over it then time fusion, not this host's loops.
    """

    def __init__(self, name: str, input_topics) -> None:
        self.name = name
        self.cache_window_ns = CACHE_WINDOW_NS
        self.slab = CacheSlab.sized_for(
            len(input_topics), self.cache_window_ns, NS_PER_SEC
        )
        self.inputs = list(input_topics)
        self.caches = dict(zip(self.inputs, self.slab.rings(NS_PER_SEC)))
        self._plans = PlanMemo(first_and_length)
        self.batches = []

    @property
    def storage(self):
        return None

    def sensor_topics(self):
        return list(self.caches)

    def cache_for(self, topic):
        return self.caches.get(topic)

    def feed(self, ts: int, topics, values) -> None:
        assert list(topics) == self.inputs
        self.slab.store_column(ts, values)

    def store_readings_batch(self, ts, readings):
        plan = plan_write(self._plans, self._write_plan, readings.sensors)
        write_columns_at(plan.columns, ts, readings.values)
        self.batches.append((ts, readings.sensors, readings.values.copy()))

    def _write_plan(self, sensors: tuple) -> WritePlan:
        new = [s.topic for s in sensors if s.topic not in self.caches]
        if new:
            slab = CacheSlab.sized_for(len(new), self.cache_window_ns, NS_PER_SEC)
            self.caches.update(zip(new, slab.rings(NS_PER_SEC)))
        caches = [self.caches[s.topic] for s in sensors]
        return WritePlan((), plan_columns(caches))

    def series(self) -> dict:
        out: dict = {}
        for ts, sensors, values in self.batches:
            for sensor, value in zip(sensors, values.tolist()):
                out.setdefault(sensor.topic, []).append((ts, value))
        return out


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


def _build_stack(label: str, n_units: int, lanes: int = 1):
    """(host, engine, ops) — one independent pipeline instance; with
    ``lanes`` > 1, that many congruent copies of it on one host (copy
    ``j`` reads ``/n<i>/power<j>``), ``ops`` then one chain per copy."""
    if lanes > 1:
        host = MiniPusher(label, _stack_inputs(n_units, lanes))
        engine = QueryEngine(host)
        return host, engine, [
            _chain(host, engine, n_units, f"{j}") for j in range(lanes)
        ]
    host = MiniPusher(label, [f"/n{i}/power" for i in range(n_units)])
    engine = QueryEngine(host)
    return host, engine, _chain(host, engine, n_units, "")


def _stack_inputs(n_units: int, lanes: int):
    return [f"/n{i}/power{j}" for j in range(lanes) for i in range(n_units)]


def _chain(host, engine, n_units: int, suffix: str):
    """One copy of the chain, its sensor and operator names ending in
    ``suffix``."""
    ops = []
    for cls, _plugin, config, in_name, out_name in _configs(n_units):
        op = cls(replace(config, name=config.name + suffix))
        in_name, out_name = in_name + suffix, out_name + suffix
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
    return ops


def _planner_groups(n_units: int, lanes: int = 1, stacks: bool = False):
    """Run the real fusion planner over the bench pipeline's specs
    (``lanes`` copies of it); its groups, or its stacks."""
    specs = []
    for j in range(lanes):
        suffix = f"{j}" if lanes > 1 else ""
        for cls, plugin, config, in_name, out_name in _configs(n_units):
            specs.append(
                FusionSpec(
                    name=config.name + suffix,
                    label=f"{plugin}/{config.name}{suffix}",
                    config=config,
                    has_kernel=True,
                    input_topics=frozenset(
                        f"/n{i}/{in_name}{suffix}" for i in range(n_units)
                    ),
                    output_topics=frozenset(
                        f"/n{i}/{out_name}{suffix}" for i in range(n_units)
                    ),
                    plugin=cls,
                )
            )
    plan = plan_fusion(specs, host_has_storage=False)
    return plan.stacks if stacks else plan.groups


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
    staged, fused = staged_host.series(), fused_host.series()
    parity = all(staged.get(t) == fused.get(t) for t in final_topics)
    readings = sum(len(fused.get(t, ())) for t in final_topics)
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


def run_stack_bench(n_units: int, passes: int, lanes: int = STACK_LANES) -> dict:
    """``lanes`` congruent chains as one stacked group against one group
    per chain, each on a host of its own fed the same stream; the two
    take turns every tick."""
    stacks = _planner_groups(n_units, lanes, stacks=True)
    stack_host, stack_engine, stack_chains = _build_stack("stack", n_units, lanes)
    lone_host, lone_engine, lone_chains = _build_stack("lone", n_units, lanes)
    stack = FusedGroup("bench:stack", stack_chains, stack_host, stack_engine)
    lone = [
        FusedGroup(f"bench:lane{j}", chain, lone_host, lone_engine)
        for j, chain in enumerate(lone_chains)
    ]
    topics = _stack_inputs(n_units, lanes)
    rng = np.random.default_rng(0xF051)
    stack_ns = lone_ns = 0
    for tick in range(1, WARM_PASSES + passes + 1):
        ts = tick * NS_PER_SEC
        values = rng.random(len(topics))
        stack_host.feed(ts, topics, values)
        lone_host.feed(ts, topics, values)
        t0 = time.perf_counter_ns()
        stack.run(ts)
        t1 = time.perf_counter_ns()
        for group in lone:
            group.run(ts)
        t2 = time.perf_counter_ns()
        if tick > WARM_PASSES:
            stack_ns += t1 - t0
            lone_ns += t2 - t1
    final = [f"/n{i}/mx{j}" for j in range(lanes) for i in range(n_units)]
    stacked, separate = stack_host.series(), lone_host.series()
    return {
        "stack_lanes": lanes,
        "stack_units": n_units,
        "stack_passes": passes,
        "planner_stacks": stacks,
        "lone_ns_per_pass": lone_ns / passes,
        "stacked_ns_per_pass": stack_ns / passes,
        "stack_speedup": lone_ns / stack_ns if stack_ns else float("nan"),
        "stack_parity": all(stacked.get(t) == separate.get(t) for t in final),
        "stack_final_readings": sum(len(stacked.get(t, ())) for t in final),
    }


def run_append_bench() -> dict:
    """Cheapest per-append cost (us) into a channel of ``APPEND_ROWS``
    rows, per pass kind and window width, for the ring
    :class:`FusedChannel` and the shift-left
    :class:`~tests.shift_channel.ShiftChannel` it replaced: min over
    ``APPEND_ROUNDS`` rounds of ``APPEND_PER_ROUND`` appends (eight ring
    wraps at width 31, so the wraps' block moves are in it).

    Pass kinds: *full* (every row, ``rows=None``); *staggered* (a
    ``unit_cadence=APPEND_CADENCE`` rotation: pass ``k`` produces the
    rows ``i % APPEND_CADENCE == k % APPEND_CADENCE``); *quarantined*
    (every row but each ``APPEND_QUARANTINE_EVERY``-th).  Partial passes
    name their rows in lists, as ``FusedChannel.append_pass`` does.
    Each round times new channels that start full, as a running one is
    when its operator staggers or quarantines.  The (kind, width,
    channel) cases take turns round by round, so a change in machine
    speed during the run hits them alike."""
    units = [
        Unit(
            name=f"/n{i}", level=0, inputs=[],
            outputs=[Sensor(f"/n{i}/x", is_operator_output=True)],
        )
        for i in range(APPEND_ROWS)
    ]
    topics = [u.outputs[0].topic for u in units]
    column = np.random.default_rng(0xF051).random(APPEND_ROWS)

    def given(rows):
        return rows, column[rows].tolist()

    every = list(range(APPEND_ROWS))
    kinds = {
        "full": [(None, column)],
        "staggered": [
            given(every[phase::APPEND_CADENCE])
            for phase in range(APPEND_CADENCE)
        ],
        "quarantined": [
            given([i for i in every if i % APPEND_QUARANTINE_EVERY])
        ],
    }
    makers = {"ring": lambda w: FusedChannel(units, w),
              "shift": lambda w: ShiftChannel(topics, w)}
    cases = [
        (kind, name, width)
        for kind in kinds for name in makers for width in APPEND_WIDTHS
    ]
    best = dict.fromkeys(cases, float("inf"))
    ts = 0
    for _ in range(APPEND_ROUNDS):
        for case in cases:
            kind, name, width = case
            # A new channel each round: the min then does not hang on
            # one allocation's cache luck.
            channel = makers[name](width)
            for _ in range(width):
                ts += NS_PER_SEC
                channel.append(ts, None, column)
            append, passes = channel.append, kinds[kind]
            t0 = time.perf_counter_ns()
            for k in range(APPEND_PER_ROUND):
                rows, vals = passes[k % len(passes)]
                ts += NS_PER_SEC
                append(ts, rows, vals)
            elapsed = time.perf_counter_ns() - t0
            best[case] = min(best[case], elapsed / APPEND_PER_ROUND)
    us = {
        kind: {
            name: {w: best[kind, name, w] / 1e3 for w in APPEND_WIDTHS}
            for name in makers
        }
        for kind in kinds
    }
    ring = us["full"]["ring"]
    return {
        "append_rows": APPEND_ROWS,
        "append_us": us,
        "append_ratio_w31_w1": ring[31] / ring[1],
        "partial_ratio_ring_shift": max(
            us[kind]["ring"][w] / us[kind]["shift"][w]
            for kind in ("staggered", "quarantined")
            for w in APPEND_WIDTHS
        ),
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
    stack_passes = STACK_PASSES[1] if args.smoke else STACK_PASSES[0]
    min_stack_speedup = 1.2 if args.smoke else MIN_STACK_SPEEDUP

    print_header("Pipeline fusion - fused vs staged 3-stage pipeline")
    r = run_fusion_bench(n_units, passes)
    r.update(run_append_bench())
    r.update(run_stack_bench(STACK_UNITS, stack_passes))
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
    print_table(
        ["lanes", "units", "per-chain us", "stacked us", "speedup",
         "parity"],
        [(
            r["stack_lanes"],
            r["stack_units"],
            r["lone_ns_per_pass"] / 1e3,
            r["stacked_ns_per_pass"] / 1e3,
            f"{r['stack_speedup']:.2f}x",
            r["stack_parity"],
        )],
    )
    print_table(
        ["kind", "channel"] + [f"w{w} us" for w in APPEND_WIDTHS],
        [
            (kind, name, *by_width.values())
            for kind, channels in r["append_us"].items()
            for name, by_width in channels.items()
        ],
    )
    config = {
        "n_units": n_units, "passes": passes, "smoke": args.smoke,
        "append": [APPEND_ROWS, list(APPEND_WIDTHS), APPEND_ROUNDS,
                   APPEND_PER_ROUND, APPEND_CADENCE, APPEND_QUARANTINE_EVERY],
        "stack": [STACK_LANES, STACK_UNITS, stack_passes],
    }
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
    ok &= shape_check(
        f"channel append flat in width: width 31 <= {MAX_APPEND_RATIO:g}x "
        "width 1",
        r["append_ratio_w31_w1"] <= MAX_APPEND_RATIO,
        f"{r['append_ratio_w31_w1']:.2f}x at {APPEND_ROWS} rows",
    )
    ok &= shape_check(
        f"partial append (staggered, quarantined) <= {MAX_PARTIAL_RATIO:g}x "
        "the shift-left channel at every width",
        r["partial_ratio_ring_shift"] <= MAX_PARTIAL_RATIO,
        f"ring/shift {r['partial_ratio_ring_shift']:.2f}x at worst",
    )
    ok &= shape_check(
        f"planner stacks the {STACK_LANES} congruent chains",
        len(r["planner_stacks"]) == 1
        and len(r["planner_stacks"][0]) == STACK_LANES,
        str(r["planner_stacks"]),
    )
    ok &= shape_check(
        "stacked and one-group-per-chain stores are bit-for-bit identical",
        r["stack_parity"] and r["stack_final_readings"] > 0,
        f"{r['stack_final_readings']} final-stage readings",
    )
    ok &= shape_check(
        f"stacked pass >= {min_stack_speedup:g}x cheaper than one group "
        "per chain",
        r["stack_speedup"] >= min_stack_speedup,
        f"{r['stack_speedup']:.2f}x at {STACK_LANES} x {STACK_UNITS} units",
    )
    return 0 if ok else 1


class TestPipelineFusionBench:
    def test_parity_and_planner(self):
        r = run_fusion_bench(SMOKE_UNITS, SMOKE_PASSES)
        assert r["planner_groups"] == [["sm", "ag", "mx"]]
        assert r["parity"] and r["final_readings"] > 0

    def test_channel_append_is_flat_in_width(self):
        r = run_append_bench()
        assert r["append_ratio_w31_w1"] <= MAX_APPEND_RATIO, r
        assert r["partial_ratio_ring_shift"] <= MAX_PARTIAL_RATIO, r

    def test_stack_parity_and_planner(self):
        r = run_stack_bench(STACK_UNITS, STACK_PASSES[1])
        assert [len(s) for s in r["planner_stacks"]] == [STACK_LANES]
        assert r["stack_parity"] and r["stack_final_readings"] > 0

    def test_fused_is_faster(self):
        # The standalone run asserts the full 2x claim; under pytest on
        # a shared machine allow scheduling noise on top of it.
        r = run_fusion_bench(FULL_UNITS, FULL_PASSES)
        assert r["speedup"] >= 1.5, r


if __name__ == "__main__":
    sys.exit(main())
