"""Per-layer metrics of a traced run: span self times plus the program's
own counters, read at the same boundaries.

A layer is a module.  Time metrics are span **self** time (duration
minus children minus calibrated wrapper cost, see trace.py) divided by
a count taken at the same boundary; counts are deltas over the timed
region of counters the program already keeps.  Top-level task spans
lend their self time to the layer whose loop they are: a sample task's
self time is the monitoring plugin plus the simulator's model (the load
generator), a drain task's is the Collect Agent's ingest loop, a
maintenance task's is the segment tier's sweep.
"""

from __future__ import annotations

import time
from typing import Dict

import numpy as np

from benchmarks.e2e.trace import PROBE, TASK_KINDS, TICK, Tracer

#: Plugins whose kernels get their own per-unit metric.
KERNEL_PLUGINS = ("aggregator", "smoother", "persyst", "perfmetrics", "health")

#: Which layer a task span's self time belongs to.
_TASK_LAYER = {
    "task.sample": "simulator",
    "task.drain": "dcdb.collectagent",
    "task.operator": "core.operator",
    "task.fused": "core.fusion",
    "task.maintain": "dcdb.segments",
    "task.other": "unattributed",
}

LAYERS = (
    "simulator", "dcdb.pusher", "dcdb.cache", "dcdb.mqtt",
    "dcdb.collectagent", "dcdb.storage", "dcdb.segments",
    "core.queryengine", "core.operator", "core.fusion", "plugins",
    "unattributed",
)

_HOST_COUNTERS = (
    "qe_plan_compiles_total", "qe_plan_hits_total",
    "qe_plan_invalidations_total", "qe_cache_hits_total",
    "qe_storage_fallbacks_total", "qe_misses_total",
    "fusion_fallbacks_total", "spill_buffered_total",
)


def _layer_of(span_name: str) -> str:
    if span_name in _TASK_LAYER:
        return _TASK_LAYER[span_name]
    if span_name.startswith("plugins."):
        return "plugins"
    return span_name.rsplit(".", 1)[0]


def all_operators(dep) -> list:
    """Every loaded operator, Pushers' first, then the Collect Agent's."""
    return [
        op for manager in list(dep.managers.values()) + [dep.agent_manager]
        for op in manager.operators()
    ]


def program_counters(dep) -> Dict[str, int]:
    """Cumulative counters the program keeps, summed over hosts."""
    hosts = dep.all_hosts()
    out = {name: 0 for name in _HOST_COUNTERS}
    for host in hosts:
        for name in _HOST_COUNTERS:
            metric = host.telemetry.get(name)
            if metric is not None:
                out[name] += metric.value
    storage = dep.agent.storage
    operators = all_operators(dep)
    out.update({
        "published": dep.broker.published_count,
        "delivered": dep.broker.delivered_count,
        "handler_errors": dep.broker.handler_errors,
        "forwarded": dep.agent.forwarded_count,
        "ingest_dropped": dep.agent.ingest_dropped,
        "inserts": storage.insert_count,
        "ooo_dropped": storage.ooo_dropped,
        "stale_drops": sum(
            c.stale_drops for h in hosts for c in h.caches.values()
        ),
        "passes": sum(op.compute_count for op in operators),
        "unit_results": sum(op.unit_results_count for op in operators),
        "unit_errors": sum(op.error_count for op in operators),
    })
    for plugin in KERNEL_PLUGINS:
        out[f"units.{plugin}"] = 0
    from repro.core.registry import get_plugin_class

    by_class = {get_plugin_class(p): p for p in KERNEL_PLUGINS}
    for op in operators:
        plugin = by_class.get(type(op))
        if plugin is not None:
            out[f"units.{plugin}"] += op.unit_results_count
    if hasattr(storage, "tier_hits"):
        out.update({
            "flushes": storage.flush_count,
            "compactions": storage.rollup_compactions,
            **{f"tier_hits_{t}": n for t, n in storage.tier_hits.items()},
        })
    return out


class TickSampler:
    """What only shows between ticks: the ingest queue's depth at each
    drain (one drain per tick, so the messages delivered since the last
    one) and every segment file the tier ever wrote."""

    def __init__(self, dep) -> None:
        self._broker = dep.broker
        self._store = getattr(dep.agent.storage, "store", None)
        self._delivered = dep.broker.delivered_count
        self.queue_depth_max = 0
        self._segment_bytes: Dict[str, int] = {}
        self.after_tick()

    def after_tick(self) -> None:
        delivered = self._broker.delivered_count
        self.queue_depth_max = max(
            self.queue_depth_max, delivered - self._delivered
        )
        self._delivered = delivered
        if self._store is not None:
            for seg in self._store.segments:
                self._segment_bytes.setdefault(str(seg.path), seg.disk_bytes)

    @property
    def segment_bytes_written(self) -> int:
        return sum(self._segment_bytes.values())


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _p(durations, q: float, scale: float) -> float:
    return float(np.percentile(durations, q)) / scale if len(durations) else 0.0


class Attribution:
    """Self time per span name and per layer over the timed ticks, with
    the wrapper cost scaled to what it really was (see trace.py)."""

    def __init__(self, tracer: Tracer, tick_ns, factors, reference_tick_ms=None) -> None:
        self.tracer = tracer
        self.ticks = len(tick_ns)
        self.tick_total_ns = sum(tick_ns)
        #: This run's machine speed (see speed.py); span times are wall
        #: times, the metrics divide them by it.
        self.speed = float(np.median(factors))
        self.scale = 1.0
        self.overhead_ratio = 0.0
        if reference_tick_ms:
            # Ticks are deterministic: tick i does the same work traced
            # and untraced, so the matched prefix isolates the wrappers.
            # The reference is at reference speed; bring it to this
            # run's speed tick by tick before comparing wall times.
            n = min(len(reference_tick_ms), self.ticks)
            untraced = float(np.dot(reference_tick_ms[:n], factors[:n])) * 1e6
            traced = sum(tick_ns[:n])
            calibrated = tracer.overhead_ns(TICK) * n / self.ticks
            self.overhead_ratio = traced / untraced
            self.scale = max(0.0, traced - untraced) / calibrated
        self.top_calls = sum(tracer.stat(k)[0] for k in TASK_KINDS)
        top_total = sum(tracer.stat(k)[1] for k in TASK_KINDS)
        # What a tick spends outside every task span is the scheduler loop.
        self.sched_ns = max(0.0, (
            self.tick_total_ns - top_total
            - self.scale * self.top_calls * tracer.cost[True][1]
        ))

    def stat(self, name: str, phase: int = TICK) -> tuple:
        return self.tracer.stat(name, phase, self.scale)

    def self_ns(self, *names: str) -> float:
        return sum(self.stat(n)[2] for n in names)

    def calls(self, *names: str) -> int:
        return sum(self.stat(n)[0] for n in names)

    def by_layer(self) -> Dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name in self.tracer.stats:
            out[_layer_of(name)] += self.stat(name)[2]
        out["simulator"] += self.sched_ns
        return out

    def shares(self) -> Dict[str, float]:
        """Share of the wrapper-free tick time each layer holds."""
        by_layer = self.by_layer()
        whole = sum(by_layer.values())
        return {layer: _per(ns, whole) for layer, ns in by_layer.items()}


def metrics(
    attr: Attribution, dep, before: Dict[str, int], sampler: TickSampler,
    record: dict,
) -> Dict[str, float]:
    """Every per-layer metric BENCHMARK.json declares, by name."""
    tracer = attr.tracer
    after = program_counters(dep)
    d = {k: after[k] - before.get(k, 0) for k in after}
    ticks = attr.ticks
    storage = dep.agent.storage
    stat, self_ns, calls = attr.stat, attr.self_ns, attr.calls
    sched_ns, top_calls = attr.sched_ns, attr.top_calls
    plugin_spans = [n for n in tracer.stats if n.startswith("plugins.")]
    batch_passes = sum(
        stat(n)[0] for n in plugin_spans if not n.endswith(".compute_unit")
    )
    passes = d["passes"]

    m: Dict[str, float] = {
        # simulator: the load generator, nothing the program owns
        "simulator.sample_gen_ms_per_tick": _per(self_ns("task.sample"), ticks) / 1e6,
        "simulator.clock.sched_ms_per_tick": _per(sched_ns, ticks) / 1e6,
        "simulator.clock.task_firings_per_tick": _per(top_calls, ticks),
        # dcdb.pusher
        "dcdb.pusher.store_us_per_reading": _per(
            self_ns("dcdb.pusher.store_reading"),
            calls("dcdb.pusher.store_reading")) / 1e3,
        "dcdb.pusher.readings_sampled": calls("dcdb.pusher.store_reading"),
        "dcdb.pusher.publish_batches": calls("dcdb.mqtt.publish_batch"),
        "dcdb.pusher.spill_buffered": d["spill_buffered_total"],
        # dcdb.cache
        "dcdb.cache.store_us_per_call": _per(
            self_ns("dcdb.cache.store"), calls("dcdb.cache.store")) / 1e3,
        "dcdb.cache.store_calls": calls("dcdb.cache.store"),
        "dcdb.cache.stale_drops": d["stale_drops"],
        "dcdb.cache.memory_mb": sum(
            c.memory_bytes() for h in dep.all_hosts() for c in h.caches.values()
        ) / 2**20,
        # dcdb.mqtt
        "dcdb.mqtt.publish_us_per_msg": _per(
            self_ns("dcdb.mqtt.publish", "dcdb.mqtt.publish_batch"),
            d["published"]) / 1e3,
        "dcdb.mqtt.handler_us_per_msg": _per(
            self_ns("dcdb.mqtt.handler"), calls("dcdb.mqtt.handler")) / 1e3,
        "dcdb.mqtt.drain_us_per_msg": _per(
            self_ns("dcdb.mqtt.drain"), d["forwarded"]) / 1e3,
        "dcdb.mqtt.published": d["published"],
        "dcdb.mqtt.delivered": d["delivered"],
        "dcdb.mqtt.queue_depth_max": sampler.queue_depth_max,
        "dcdb.mqtt.handler_errors": d["handler_errors"],
        # dcdb.collectagent
        "dcdb.collectagent.drain_us_per_reading": _per(
            self_ns("task.drain"), d["forwarded"]) / 1e3,
        "dcdb.collectagent.drain_ms_p50": _p(tracer.durations("task.drain"), 50, 1e6),
        "dcdb.collectagent.drain_ms_p95": _p(tracer.durations("task.drain"), 95, 1e6),
        "dcdb.collectagent.forwarded": d["forwarded"],
        "dcdb.collectagent.ingest_dropped": d["ingest_dropped"],
        # dcdb.storage
        "dcdb.storage.insert_us_per_reading": _per(
            self_ns("dcdb.storage.insert", "dcdb.storage.insert_batch"),
            d["inserts"]) / 1e3,
        "dcdb.storage.inserts": d["inserts"],
        "dcdb.storage.query_us_p50": _p(
            tracer.durations("dcdb.storage.query", PROBE), 50, 1e3),
        "dcdb.storage.ooo_dropped": d["ooo_dropped"],
        "dcdb.storage.memory_mb": storage.memory_bytes() / 2**20,
    }
    m.update(_segment_metrics(attr, storage, d, sampler))
    m.update({
        # core.queryengine
        "core.queryengine.plan_lookup_us_per_pass": _per(
            self_ns("core.queryengine.plan_for"),
            calls("core.queryengine.plan_for")) / 1e3,
        "core.queryengine.gather_ms_per_pass": _per(
            self_ns("core.queryengine.query_relative_batch"),
            calls("core.queryengine.query_relative_batch")) / 1e6,
        "core.queryengine.plan_compiles": d["qe_plan_compiles_total"],
        "core.queryengine.plan_hits": d["qe_plan_hits_total"],
        "core.queryengine.plan_invalidations": d["qe_plan_invalidations_total"],
        "core.queryengine.cache_hits": d["qe_cache_hits_total"],
        "core.queryengine.storage_fallbacks": d["qe_storage_fallbacks_total"],
        "core.queryengine.misses": d["qe_misses_total"],
        "core.queryengine.absolute_us_p50": _p(
            tracer.durations("core.queryengine.query_absolute", PROBE), 50, 1e3),
        # core.operator
        "core.operator.pass_ms_p50": _p(
            tracer.durations("core.operator.compute"), 50, 1e6),
        "core.operator.pass_ms_p95": _p(
            tracer.durations("core.operator.compute"), 95, 1e6),
        "core.operator.passes": passes,
        "core.operator.units_per_pass": _per(
            d["unit_results"] + d["unit_errors"], passes),
        "core.operator.kernel_ms_per_pass": _per(
            self_ns(*plugin_spans), passes) / 1e6,
        "core.operator.store_ms_per_pass": _per(
            stat("core.operator.store_results_batch")[1], passes) / 1e6,
        "core.operator.batch_passes": batch_passes,
        "core.operator.scalar_passes": passes - batch_passes,
        "core.operator.unit_errors": d["unit_errors"],
        "core.operator.trigger_us_p50": _p(
            tracer.durations("core.operator.trigger", PROBE), 50, 1e3),
        "core.operator.parallel4_vs_seq_ratio": 0.0,
        # core.fusion
        "core.fusion.pass_ms_p50": _p(tracer.durations("core.fusion.run"), 50, 1e6),
        "core.fusion.passes": calls("core.fusion.run"),
        "core.fusion.groups": sum(
            len(mgr.fused_groups()) for mgr in dep.managers.values()
        ) + len(dep.agent_manager.fused_groups()),
        "core.fusion.fallbacks": d["fusion_fallbacks_total"],
    })
    for plugin in KERNEL_PLUGINS:
        spans = [n for n in plugin_spans if n.startswith(f"plugins.{plugin}.")]
        m[f"plugins.{plugin}.kernel_us_per_unit"] = _per(
            self_ns(*spans), d[f"units.{plugin}"]) / 1e3
    m.update({
        # diagnostics: is the run itself to be believed?
        "process.cpu_over_wall": record["cpu_over_wall"],
        "process.speed_factor": attr.speed,
        "trace.overhead_ratio": attr.overhead_ratio,
        "trace.wrapper_cost_scale": attr.scale,
        "trace.spans": len(tracer.spans),
        "trace.unattributed_share": attr.shares()["unattributed"],
        # Simulated time, so it repeats exactly: kept out of the bounded
        # end-to-end set, whose values must differ from run to run.
        "e2e.freshness_lag_sim_ms": record["freshness_lag_ms"],
    })
    # Times at reference speed, like the end-to-end metrics.
    for key in m:
        if "_us_" in key or "_ms_" in key:
            m[key] /= attr.speed
    return m


_SEGMENT_METRICS = (
    "flush_ms_p50", "flush_ms_max", "flushes", "compact_ms_p50",
    "compactions", "maintain_ms_per_tick", "query_cross_tier_us_p50",
    "tier_hits_memory", "tier_hits_segment", "tier_hits_rollup",
    "disk_bytes_per_reading", "write_amplification",
)


def _segment_metrics(attr, storage, d, sampler) -> Dict[str, float]:
    m = {f"dcdb.segments.{k}": 0.0 for k in _SEGMENT_METRICS}
    if not hasattr(storage, "store"):
        return m
    tracer = attr.tracer
    flushes = tracer.durations("dcdb.segments.flush")
    readings = storage.insert_count
    m.update({
        "dcdb.segments.flush_ms_p50": _p(flushes, 50, 1e6),
        "dcdb.segments.flush_ms_max": max(flushes, default=0) / 1e6,
        "dcdb.segments.flushes": d["flushes"],
        "dcdb.segments.compact_ms_p50": _p(
            tracer.durations("dcdb.segments.replace"), 50, 1e6),
        "dcdb.segments.compactions": d["compactions"],
        "dcdb.segments.maintain_ms_per_tick": _per(
            attr.stat("task.maintain")[1], attr.ticks) / 1e6,
        "dcdb.segments.query_cross_tier_us_p50": _p(
            tracer.durations("dcdb.segments.query", PROBE), 50, 1e3),
        "dcdb.segments.disk_bytes_per_reading": _per(storage.disk_bytes(), readings),
        # Every segment file ever written (flushes and compaction
        # rewrites) against the 16 bytes a raw reading needs.
        "dcdb.segments.write_amplification": _per(
            sampler.segment_bytes_written, 16 * readings),
    })
    for tier in ("memory", "segment", "rollup"):
        m[f"dcdb.segments.tier_hits_{tier}"] = d[f"tier_hits_{tier}"]
    return m


def parallel_drill(dep, passes: int = 50) -> float:
    """ROADMAP's open M4 question as one number: wall time of ``passes``
    passes of a per-node ``unit_mode: parallel`` regressor with 4
    workers over the same with 1.  Runs after the timed region, on
    operators of its own — threads never run inside a timed region."""

    def block(name: str, workers: int) -> dict:
        return {
            "plugin": "regressor",
            "operators": {name: {
                "mode": "ondemand", "unit_mode": "parallel",
                "max_workers": workers, "window_s": 10,
                "inputs": ["power", "temp"],
                "outputs": ["<bottomup-1>drill-power"],
                # Never trains within the drill: feature extraction only.
                "params": {"target": "power", "training_samples": 10**6},
            }},
        }

    manager = dep.agent_manager
    elapsed = {}
    for workers in (1, 4):
        name = f"drill-{workers}"
        (op,) = manager.load_plugin(block(name, workers))
        try:
            op.compute(dep.now)  # pool start-up and model creation
            t0 = time.perf_counter_ns()
            for _ in range(passes):
                op.compute(dep.now)
            elapsed[workers] = time.perf_counter_ns() - t0
        finally:
            manager.unload_operator(name)
    return elapsed[4] / elapsed[1]
