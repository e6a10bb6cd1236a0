"""One workload, one process: build, warm up, drive ticks, probe, check.

Closed loop, one thread, one client: ``Deployment.run(1)`` advances one
simulated second (a *tick*), then the probe plays before the next tick.
The untraced run patches nothing and times only those outside calls;
``trace=True`` installs the span wrappers first and additionally
returns the per-layer numbers.  :mod:`benchmarks.e2e.run` starts this
in a fresh subprocess per workload so ``peak_rss_mb`` is per workload.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import time
from typing import List, Optional

import numpy as np

from benchmarks.e2e import layers, speed, workloads
from benchmarks.e2e import trace as tracing
from benchmarks.e2e.oracle import (
    NS, Oracle, check_final_state, check_fused_chain, check_operator_outputs,
)
from benchmarks.e2e.probe import Probe

#: Topics the probe draws from / the freshness gauge follows.
PROBE_TOPICS = 256
FRESH_TOPICS = 32
#: Units per operator whose every output the NumPy reference recomputes.
REFERENCE_UNITS = 6
#: The timed region is cut short (and flagged) past this multiple of
#: ``--seconds``, so a slow machine cannot blow the caller's time cap.
OVERRUN = 2.0

#: (operator, reduction) pairs checked against the window-rule reference.
_REFERENCE_OPS = {
    "inband_fused": [("node-instr", "sum")],
    "agent_holistic": [("cpi-smooth", "mean"), ("node-cpi", "mean"),
                       ("rack-power", "sum")],
}


def refuse_sanitizer() -> None:
    from repro.sanitizer import hooks

    if hooks.env_enabled():
        raise SystemExit(
            f"{hooks.ENV_VAR} is set: the sanitizer vetoes batching and "
            "fusion, so nothing measured under it describes the program"
        )


def spec_digest(spec: dict) -> str:
    """sha256 of the generated spec, the per-run segment directory aside."""
    if "storage" in spec:
        spec = {**spec, "storage": {**spec["storage"], "dir": ""}}
    canonical = json.dumps(spec, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def build(workload: workloads.Workload):
    """Build and warm a deployment up to its first timed tick."""
    from repro.deploy import build_deployment

    spec = dict(workload.spec)
    analytics = dict(spec["analytics"])
    agent_blocks = analytics.pop("agent")
    spec["analytics"] = analytics
    dep = build_deployment(spec)
    dep.run(workloads.FIRST_PHASE_S)
    for block in agent_blocks:
        dep.agent_manager.load_plugin(block)
    dep.agent_manager.refresh_fusion()
    dep.run(workload.warm_s - workloads.FIRST_PHASE_S)
    return dep


def _raw_topics(dep) -> List[str]:
    return sorted(
        topic for pusher in dep.pushers.values()
        for topic, sensor in pusher.sensors.items()
        if not sensor.is_operator_output
    )


def _unit_computations(dep) -> tuple:
    operators = layers.all_operators(dep)
    errors = sum(op.error_count for op in operators)
    return sum(op.unit_results_count for op in operators) + errors, errors


def _drops(dep) -> int:
    """Readings the data plane lost and accounted for: spill overflow,
    ingest backpressure, stale cache stores, out-of-order appends."""
    spill = sum(
        p.telemetry.get("spill_dropped_total").value for p in dep.pushers.values()
    )
    stale = sum(c.stale_drops for c in dep.agent.caches.values())
    return spill + dep.agent.ingest_dropped + stale + dep.agent.storage.ooo_dropped


def _timed_region(dep, probe, gauge, fresh_topics, ticks, budget_ns, tracer, sampler):
    """Drive ``ticks`` ticks, each followed by a speed sample and the
    probe; returns (tick wall ns, freshness lag ms per tick)."""
    storage = dep.agent.storage
    clock = time.perf_counter_ns
    tick_ns: List[int] = []
    lag_ms: List[float] = []
    deadline = clock() + budget_ns
    for i in range(ticks):
        if tracer is not None:
            tracer.tick = i
            tracer.phase(tracing.TICK)
        t0 = clock()
        dep.run(1)
        tick_ns.append(clock() - t0)
        if tracer is not None:
            tracer.phase(tracing.PROBE)
            sampler.after_tick()
        gauge.sample()
        probe.play()
        now = dep.now
        lag_ms.append(
            sum(now - storage.latest(t).timestamp for t in fresh_topics)
            / len(fresh_topics) / 1e6
        )
        if clock() > deadline:
            break
    if tracer is not None:
        tracer.phase(tracing.SETUP)
        tracer.tick = -1
    return tick_ns, lag_ms


def _final_checks(name, dep, oracle, rng, raw_topics):
    """Everything sampled must be stored, sorted and — for operator
    outputs — equal to the NumPy reference.  Returns (digest, readings
    missing, error strings)."""
    storage = dep.agent.storage
    dep.agent.flush()
    until = dep.now
    digest, missing, errors = check_final_state(
        storage, raw_topics, until // NS + 1
    )
    agent_ops = {op.name for op in dep.agent_manager.operators()}
    for op_name, kind in _REFERENCE_OPS.get(name, ()):
        on_agent = op_name in agent_ops
        managers = (
            [dep.agent_manager] if on_agent
            else rng.sample(list(dep.managers.values()), 2)
        )
        for manager in managers:
            op = manager.operator(op_name)
            units = rng.sample(op.units, min(REFERENCE_UNITS, len(op.units)))
            oracle.learn(
                storage,
                {t for u in units for t in u.inputs} - set(oracle.series),
                until,
            )
            errors += check_operator_outputs(
                oracle, storage, op, kind, on_agent, units, until
            )
    if name == "inband_fused":
        for node in rng.sample(sorted(dep.pushers), 2):
            raw = [t for t in raw_topics
                   if t.startswith(node + "/") and t.endswith("/cpu-cycles")]
            for variant, windows in zip("ab", workloads.CHAIN_WINDOWS_S):
                error = check_fused_chain(
                    storage, raw, f"{node}/node-peak0{variant}", windows, until
                )
                if error is not None:
                    errors.append(error)
    return digest, missing, errors


def run_workload(
    name: str, seed: int, seconds: float, *, smoke: bool = False,
    trace: bool = False, spawned_at: Optional[float] = None,
    setup_only: bool = False, storage_dir: Optional[str] = None,
    trace_out: Optional[str] = None,
    reference_tick_ms: Optional[List[float]] = None,
) -> dict:
    """Run one workload and return its result record.

    ``reference_tick_ms`` are the untraced tick times (at reference
    speed) of the same seed, any prefix: a traced run scales its wrapper
    cost against them.
    """
    refuse_sanitizer()
    started = spawned_at if spawned_at is not None else time.monotonic()
    workload = workloads.make(name, seed, smoke, storage_dir)
    tracer = sampler = None
    if trace:
        tracer = tracing.install()
    dep = build(workload)
    storage = dep.agent.storage
    setup_wall_s = time.monotonic() - started
    setup_s = setup_wall_s / speed.factor_now()
    if setup_only:
        return {"workload": name, "setup_s": setup_s}
    # Probe population: seeded draws over every series the agent stores.
    rng = random.Random(seed)
    raw_topics = _raw_topics(dep)
    stored = sorted(storage.topics())
    probe_topics = rng.sample(stored, min(PROBE_TOPICS, len(stored)))
    fresh_pool = [
        t for t in stored if t.rsplit("/", 1)[-1] in workload.fresh_sensors
    ]
    fresh_topics = rng.sample(fresh_pool, min(FRESH_TOPICS, len(fresh_pool)))
    probe_units = dep.agent_manager.operator(workloads.PROBE_OPERATOR).units
    oracle = Oracle(workload.rollup_after_s)
    oracle.learn(
        storage,
        set(probe_topics) | {t for u in probe_units for t in u.inputs},
        dep.now,
    )
    probe = Probe(dep, oracle, probe_topics, workload.probe_rounds, seed)
    gauge = speed.SpeedGauge()

    ticks = workload.ticks(seconds)
    inserts_before = storage.insert_count
    if tracer is not None:
        counters_before = layers.program_counters(dep)
        sampler = layers.TickSampler(dep)
    cpu_before = time.process_time_ns()
    region_start = time.perf_counter_ns()
    # A traced run is slower by its wrappers; give it the same slack again.
    budget_ns = int(OVERRUN * (2 if trace else 1) * seconds * NS)
    tick_ns, lag_ms = _timed_region(
        dep, probe, gauge, fresh_topics, ticks, budget_ns, tracer, sampler
    )
    region_ns = time.perf_counter_ns() - region_start
    cpu_ns = time.process_time_ns() - cpu_before
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    inserted = storage.insert_count - inserts_before

    digest, missing, errors = _final_checks(name, dep, oracle, rng, raw_topics)
    computations, unit_errors = _unit_computations(dep)
    attempted = (
        (dep.now // NS + 1) * len(raw_topics) + computations
        + len(probe.query_ns) + len(probe.trigger_ns)
    )
    failed = missing + _drops(dep) + unit_errors + probe.failed + len(errors)

    factors = gauge.factors()
    n = len(tick_ns)

    def at_reference_speed(samples_ns: List[int]) -> np.ndarray:
        """ms, each sample divided by its tick's speed factor."""
        return np.asarray(samples_ns) / np.repeat(factors, len(samples_ns) // n) / 1e6

    tick_ms = at_reference_speed(tick_ns)
    query_ms = at_reference_speed(probe.query_ns)
    trigger_ms = at_reference_speed(probe.trigger_ns)
    record = {
        "workload": name,
        "seed": seed,
        "smoke": smoke,
        "traced": trace,
        "spec_digest": spec_digest(workload.spec),
        "result_digest": digest,
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "errors": (probe.errors + errors)[:16],
        "ticks": n,
        "truncated": n < ticks,
        "samples": {"queries": len(query_ms), "triggers": len(trigger_ms)},
        "timed_region_wall_s": region_ns / 1e9,
        "setup_wall_s": setup_wall_s,
        "speed_factor": float(np.median(factors)),
        "tick_ms": tick_ms.tolist(),
        "end_to_end": {
            "setup_s": setup_s,
            "readings_per_s": inserted / (tick_ms.sum() / 1e3),
            "tick_ms_p50": float(np.percentile(tick_ms, 50)),
            "tick_ms_p95": float(np.percentile(tick_ms, 95)),
            "query_ms_p50": float(np.percentile(query_ms, 50)),
            "query_ms_p95": float(np.percentile(query_ms, 95)),
            "trigger_ms_p50": float(np.percentile(trigger_ms, 50)),
            "peak_rss_mb": peak_rss_mb,
        },
        "freshness_lag_ms": float(np.mean(lag_ms)),
        "cpu_over_wall": cpu_ns / region_ns,
    }
    if tracer is not None:
        attribution = layers.Attribution(
            tracer, tick_ns, factors, reference_tick_ms
        )
        record["per_layer"] = layers.metrics(
            attribution, dep, counters_before, sampler, record
        )
        record["layer_share"] = attribution.shares()
        if trace_out:
            tracer.write(trace_out, {
                "workload": name, "seed": seed, "ticks": n,
                "spec_digest": record["spec_digest"],
                "speed_factor": record["speed_factor"],
            })
        tracer.uninstall()
        if name == "agent_holistic":
            record["per_layer"]["core.operator.parallel4_vs_seq_ratio"] = (
                layers.parallel_drill(dep)
            )
    return record


def main(argv=None) -> int:
    """Child-process entry: one JSON record on the last stdout line."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spawned-at", type=float)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--storage-dir")
    parser.add_argument("--trace-out")
    parser.add_argument(
        "--reference", help="JSON file with the untraced run's tick_ms"
    )
    args = parser.parse_args(argv)
    reference = None
    if args.reference:
        with open(args.reference, "r", encoding="utf-8") as fh:
            reference = json.load(fh)["tick_ms"]
    record = run_workload(
        args.workload, args.seed, args.seconds, smoke=args.smoke,
        trace=args.trace, spawned_at=args.spawned_at,
        setup_only=args.setup_only, storage_dir=args.storage_dir,
        trace_out=args.trace_out, reference_tick_ms=reference,
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
