"""Whole-deployment dataflow analyzer (``wintermute-sim check --flow``).

The structural analyzer (:mod:`repro.analysis.config`, W rules) proves
that a deployment's pattern units *resolve*; this module proves that the
data flowing through them makes sense.  It performs an abstract
interpretation over the resolved deployment — the synthesized sensor
trees, the Unit-System expansion of every operator, and the pipeline
wiring across Pushers and Collect Agent — propagating one
:class:`FlowFact` per sensor topic:

- the **production period** (monitoring interval, operator interval ×
  unit cadence, per-plugin rate transforms);
- the **physical unit** (from monitoring plugin sensor tables, carried
  through operators via their declarative
  :meth:`~repro.core.operator.OperatorBase.flow_transforms` metadata);
- the **producer** (for cross-stage scheduling checks).

From those facts it checks window demand against cache supply, unit
dimension mixing, interval aliasing, per-host cache memory footprints,
and the deployment's resilience budgets against PR 5's network section
— all before a single runtime component is instantiated.

The analyzer also runs the pipeline-fusion planner
(:func:`repro.core.pipeline.plan_fusion`) over each resolved context so
the ``--flow-report`` view shows which operator chains the runtime will
compile into single fused passes, and why otherwise-fusable chains stay
staged (F013).

Findings are reported through the shared Diagnostic machinery under the
stable rule family **F001–F013** (catalog in ``docs/STATIC_ANALYSIS.md``):

====  ========  =====================================================
code  severity  condition
====  ========  =====================================================
F001  error     operator window longer than the cache retention
F002  warning   window within two input periods of the cache retention
F003  error     window shorter than an input's production period
F004  info      interval faster than every input (redundant recompute)
F005  warning   interval so slow that readings skip every window
F006  error     mixed physical dimensions pooled by one output
F007  info      output unit unknown (no metadata / unknown inputs)
F008  warning   estimated host cache footprint exceeds the budget
F009  error     worst outage × publish rate overflows the spill queue
F010  warning   breaker backoff shorter than the worst outage (flap)
F011  warning   downstream stage fires before upstream's first output
F012  warning   post-outage replay burst overflows the ingest queue
F013  info      fusable operator chain blocked from fusing
====  ========  =====================================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fnmatch import fnmatchcase
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.analysis.config import ResolvedDeployment, resolve_deployment
from repro.analysis.diagnostics import Diagnostic, DiagnosticCollector
from repro.common.timeutil import NS_PER_MS, NS_PER_SEC
from repro.core.registry import get_plugin_class
from repro.dcdb.plugins import MONITORING_PLUGINS
from repro.simulator.facility import FACILITY_SENSOR_UNITS
from repro.spec import read_deployment

#: Default per-host cache memory budget (F008), in MiB.
DEFAULT_MEMORY_BUDGET_MB = 1024

#: Bytes per cached reading: one int64 timestamp + one float64 value.
_CACHE_ENTRY_BYTES = 16
#: Sizing slack mirroring ``SensorCache.for_duration``.
_CACHE_SLACK = 1.2

#: Unit algebra of the ``per-second`` transform (delta / elapsed time).
_PER_SECOND = {
    "J": "W",      # energy per second is power
    "s": "1",      # seconds per second cancels
    "1": "1/s",
    "#": "#/s",
}

_UNKNOWN = ""  # unit or period we cannot infer


@dataclass
class FlowFact:
    """What the analyzer knows about one sensor topic."""

    topic: str
    #: Production period in ns; 0 = unknown (e.g. ondemand outputs).
    period_ns: int = 0
    #: Physical unit; "" = unknown, "1" = dimensionless.
    unit: str = _UNKNOWN
    #: Producing stage, e.g. ``monitoring`` or ``pushers/aggregator/avg``.
    producer: str = "monitoring"
    #: First computation time of the producing operator (scheduling).
    first_fire_ns: int = 0


@dataclass
class OperatorFlowView:
    """Per-operator summary retained for the ``--flow-report`` view."""

    context: str
    label: str
    n_units: int
    interval_ns: int
    window_ns: int
    effective_period_ns: int
    is_job_plugin: bool = False
    mode: str = "online"
    #: output sensor name -> inferred unit ("" = unknown).
    output_units: Dict[str, str] = field(default_factory=dict)
    n_output_topics: int = 0


@dataclass
class FlowModel:
    """The propagated dataflow facts of one deployment."""

    facts: Dict[str, FlowFact] = field(default_factory=dict)
    operators: List[OperatorFlowView] = field(default_factory=list)
    #: host label -> estimated cache footprint in bytes.
    host_memory: Dict[str, int] = field(default_factory=dict)
    #: ``monitoring.interval_ms`` / ``cache_window_s`` of the spec.
    monitoring_interval_ns: int = 0
    cache_window_ns: int = 0
    n_base_topics: int = 0
    n_pushers: int = 0
    #: Worst scheduled outage in ns (0 = none).
    worst_outage_ns: int = 0
    #: Per-pusher MQTT publish rate in readings/second.
    publish_rate_hz: float = 0.0
    #: ``network.spill.capacity`` / ``network.ingest.queue_capacity``
    #: (None: no ``network`` section / an unbounded queue).
    spill_capacity: Optional[int] = None
    ingest_queue_capacity: Optional[int] = None
    memory_budget_mb: float = DEFAULT_MEMORY_BUDGET_MB
    #: Storage tiering mode from the spec's ``storage`` section
    #: ("memory" when absent or explicitly in-memory).
    storage_tiers: str = "memory"
    #: Tiered-storage flush budget in bytes (0 = no disk tier); counted
    #: into the agent's F008 footprint — the memory tier really holds
    #: up to this much before sealing a segment.
    storage_flush_bytes: int = 0
    #: (context, member labels) per fused group the runtime would form.
    fused_groups: List[Tuple[str, List[str]]] = field(default_factory=list)
    #: (context, upstream label, downstream label, reason) per blocked
    #: fusable chain (the F013 findings, kept for the report view).
    fusion_blocked: List[Tuple[str, str, str, str]] = field(
        default_factory=list
    )
    #: F codes the spec's ``ignore`` list suppresses.
    ignore: FrozenSet[str] = frozenset()


# ----------------------------------------------------------------------
# Formatting helpers
# ----------------------------------------------------------------------

def _fmt_s(ns: int) -> str:
    """Compact seconds rendering of a ns quantity (``2.5s``, ``100ms``)."""
    if ns <= 0:
        return "?"
    if ns % NS_PER_SEC == 0:
        return f"{ns // NS_PER_SEC}s"
    if ns < NS_PER_SEC:
        return f"{ns / NS_PER_MS:g}ms"
    return f"{ns / NS_PER_SEC:g}s"


def _fmt_mb(nbytes: int) -> str:
    return f"{nbytes / (1024 * 1024):.1f} MiB"


def _cache_entries(window_ns: int, period_ns: int) -> int:
    """Ring capacity ``SensorCache.for_duration`` would allocate."""
    if period_ns <= 0:
        return 2
    return max(2, int(math.ceil(window_ns / period_ns * _CACHE_SLACK)) + 1)


def _sensor_name(topic: str) -> str:
    return topic.rsplit("/", 1)[-1]


# ----------------------------------------------------------------------
# Base facts: the monitoring layer
# ----------------------------------------------------------------------

def _base_facts(resolved: ResolvedDeployment) -> Dict[str, FlowFact]:
    """One fact per monitoring/facility sensor topic."""
    view = resolved.view
    units: Dict[str, str] = {}
    for name in view.monitoring.plugins:
        units.update(MONITORING_PLUGINS[name].static_sensors(view.monitoring))
    # The agent's tree also holds the Pushers' operator outputs.
    derived = {t for topics in resolved.replicated.values() for t in topics}
    facts: Dict[str, FlowFact] = {}
    for topic in resolved.agent_tree.all_sensor_topics():
        if topic in derived:
            continue
        name = _sensor_name(topic)
        if topic.startswith("/facility/"):
            facts[topic] = FlowFact(
                topic, view.facility.interval_ns,
                FACILITY_SENSOR_UNITS.get(name, _UNKNOWN), "monitoring",
            )
        else:
            facts[topic] = FlowFact(
                topic, view.monitoring.interval_ns,
                units.get(name, _UNKNOWN), "monitoring",
            )
    return facts


# ----------------------------------------------------------------------
# Operator fact propagation
# ----------------------------------------------------------------------

def _transforms_of(plugin: str, params: dict) -> List[Tuple[str, object]]:
    """Ordered (output-glob, transform) metadata of a plugin, or []."""
    cls = get_plugin_class(plugin)
    if cls is None:
        return []
    try:
        transforms = cls.flow_transforms(dict(params or {}))
    except Exception:
        return []  # third-party metadata bugs must not kill the analyzer
    if not isinstance(transforms, dict):
        return []
    return [(k, v) for k, v in transforms.items() if isinstance(k, str)]


def _output_unit(
    name: str,
    transforms: List[Tuple[str, object]],
    input_units: Set[str],
    input_unit_by_name: Dict[str, str],
) -> Tuple[str, bool, bool]:
    """(unit, pools_inputs, matched) of one output sensor name.

    ``pools_inputs`` marks transforms whose result dimension depends on
    the pooled input set (``preserve`` / ``per-second``) — the ones the
    F006 mixed-dimension rule applies to.
    """
    for pattern, transform in transforms:
        if not fnmatchcase(name, pattern):
            continue
        if transform == "dimensionless":
            return "1", False, True
        if transform == "preserve":
            unit = next(iter(input_units)) if len(input_units) == 1 else _UNKNOWN
            return unit, True, True
        if transform == "per-second":
            if len(input_units) == 1:
                base = next(iter(input_units))
                return _PER_SECOND.get(base, f"{base}/s"), True, True
            return _UNKNOWN, True, True
        if (
            isinstance(transform, (tuple, list))
            and len(transform) == 2
            and transform[0] == "input"
        ):
            return input_unit_by_name.get(str(transform[1]), _UNKNOWN), False, True
        return _UNKNOWN, False, True  # unknown transform kind
    return _UNKNOWN, False, False


def _propagate_operator(
    op,
    context: str,
    facts: Dict[str, FlowFact],
    model: FlowModel,
    out: DiagnosticCollector,
    fused_upstreams: Optional[Set[str]] = None,
) -> None:
    """Derive one operator's checks and output facts from its inputs."""
    config = op.config
    effective_period = config.interval_ns * config.unit_cadence
    first_fire = config.delay_ns + config.interval_ns
    label = f"{context}/{op.label}"

    view = OperatorFlowView(
        context=context, label=op.label, n_units=len(op.units),
        interval_ns=config.interval_ns, window_ns=config.window_ns,
        effective_period_ns=effective_period,
        is_job_plugin=op.is_job_plugin, mode=config.mode,
    )
    model.operators.append(view)

    input_topics = sorted({t for u in op.units for t in u.inputs})
    input_facts = [facts[t] for t in input_topics if t in facts]
    known_periods = sorted(
        {f.period_ns for f in input_facts if f.period_ns > 0}
    )
    known_units = {f.unit for f in input_facts if f.unit}
    unit_by_name: Dict[str, str] = {}
    for f in input_facts:
        unit_by_name.setdefault(_sensor_name(f.topic), f.unit)

    scheduled = config.mode == "online"
    if input_facts:
        _check_windows(config, known_periods, model, out, scheduled,
                       effective_period)
        if scheduled:
            _check_upstream_schedule(
                op, first_fire, input_topics, facts, out,
                fused_upstreams or frozenset(),
            )

    # ------------------------------------------------------------------
    # Output units + facts
    # ------------------------------------------------------------------
    transforms = _transforms_of(op.plugin, config.params)
    output_names = sorted({s.name for u in op.units for s in u.outputs})
    mixed_outputs: List[str] = []
    unknown_outputs: List[str] = []
    unit_of: Dict[str, str] = {}
    for name in output_names:
        unit, pools, matched = _output_unit(
            name, transforms, known_units, unit_by_name
        )
        unit_of[name] = unit
        if pools and len(known_units) > 1:
            mixed_outputs.append(name)
        elif not unit:
            unknown_outputs.append(name)
    view.output_units = unit_of

    if mixed_outputs:
        out.error(
            "F006",
            f"operator {op.label!r} pools inputs of mixed physical "
            f"dimensions {sorted(known_units)} into output(s) "
            f"{mixed_outputs}; aggregate per dimension or split the "
            f"operator",
        )
    if unknown_outputs:
        reason = (
            "inputs have unknown units" if transforms
            else f"plugin {op.plugin!r} declares no flow_transforms metadata"
        )
        out.info(
            "F007",
            f"operator {op.label!r}: output unit unknown for "
            f"{unknown_outputs} ({reason})",
        )

    output_period = effective_period if scheduled else 0
    for unit in op.units:
        for sensor in unit.outputs:
            facts[sensor.topic] = FlowFact(
                sensor.topic, output_period,
                unit_of.get(sensor.name, _UNKNOWN), label, first_fire,
            )
            view.n_output_topics += 1


def _check_windows(
    config,
    known_periods: List[int],
    model: FlowModel,
    out: DiagnosticCollector,
    scheduled: bool,
    effective_period: int,
) -> None:
    """F001-F005: window demand vs cache supply and interval aliasing."""
    window = config.window_ns
    slowest = known_periods[-1] if known_periods else 0
    fastest = known_periods[0] if known_periods else 0
    retention = model.cache_window_ns

    if window > 0:
        if window > retention:
            out.at("window").error(
                "F001",
                f"operator {config.name!r} queries a {_fmt_s(window)} "
                f"window but caches only retain "
                f"{_fmt_s(retention)} (monitoring.cache_window_s); the "
                f"window is guaranteed short",
            )
        elif slowest and window > retention - 2 * slowest:
            out.at("window").warning(
                "F002",
                f"operator {config.name!r}: {_fmt_s(window)} window is "
                f"within two input periods ({_fmt_s(slowest)}) of the "
                f"{_fmt_s(retention)} cache retention; sampling jitter "
                f"may truncate it",
            )
        if slowest and window < slowest:
            out.at("window").error(
                "F003",
                f"operator {config.name!r}: {_fmt_s(window)} window is "
                f"shorter than its slowest input's {_fmt_s(slowest)} "
                f"production period, so it holds at most one sample",
            )
    if not scheduled:
        return
    if fastest and effective_period < fastest:
        out.at("interval").info(
            "F004",
            f"operator {config.name!r} computes every "
            f"{_fmt_s(effective_period)} but its fastest input only "
            f"produces every {_fmt_s(fastest)}; recomputations between "
            f"new readings are redundant",
        )
    if window > 0 and slowest and effective_period > window + slowest:
        coverage = 100.0 * (window + slowest) / effective_period
        out.at("interval").warning(
            "F005",
            f"operator {config.name!r} computes every "
            f"{_fmt_s(effective_period)} over a {_fmt_s(window)} window: "
            f"only ~{coverage:.0f}% of input readings ever enter a "
            f"window (undersampling)",
        )


def _check_upstream_schedule(
    op, first_fire: int, input_topics, facts, out: DiagnosticCollector,
    fused_upstreams: Set[str] = frozenset(),
) -> None:
    """F011: does the first pass run before upstream data can exist?

    Upstreams that share a fused group with ``op`` are exempt: the
    fused driver runs the members in registration order within one
    pass, so the downstream's first fire sees the upstream's output
    from the very same tick.
    """
    flagged: Set[str] = set()
    for topic in input_topics:
        fact = facts.get(topic)
        if fact is None or fact.producer == "monitoring":
            continue
        if fact.producer in flagged:
            continue
        if fact.producer in fused_upstreams:
            continue
        if first_fire <= fact.first_fire_ns:
            flagged.add(fact.producer)
            out.at("delay").warning(
                "F011",
                f"operator {op.label!r} first computes at "
                f"{_fmt_s(first_fire)} but upstream {fact.producer!r} "
                f"first produces at {_fmt_s(fact.first_fire_ns)}; the "
                f"first pass will see no data (add a delay)",
            )


# ----------------------------------------------------------------------
# Pipeline fusion eligibility (F013)
# ----------------------------------------------------------------------

def _analyze_fusion(
    rp,
    context: str,
    host_has_storage: bool,
    model: FlowModel,
    out: DiagnosticCollector,
) -> Dict[str, Set[str]]:
    """Run the fusion planner over one resolved context.

    Records the would-be fused groups and blocked chains on the model,
    emits F013 for the reportable blocks, and returns each member's set
    of co-fused upstream producer labels — used to refine F011: members
    of one fused group execute in order within a single pass, so a
    same-tick first fire genuinely sees the upstream's fresh output.
    """
    plan = rp.fusion_plan(host_has_storage=host_has_storage)
    label_of = {op.name: op.label for op in rp.operators}
    fused_upstreams: Dict[str, Set[str]] = {}
    for group in plan.groups:
        labels = [label_of.get(name, name) for name in group]
        model.fused_groups.append((context, labels))
        for i, name in enumerate(group):
            fused_upstreams[name] = {
                f"{context}/{label}" for label in labels[:i]
            }
    for block in plan.blocked:
        model.fusion_blocked.append(
            (context, block.upstream, block.downstream, block.reason)
        )
        out.at("analytics", context).info(
            "F013",
            f"operators {block.upstream!r} -> {block.downstream!r} form "
            f"a fusable chain but stay staged ({block.reason}): "
            f"{block.detail}",
        )
    return fused_upstreams


# ----------------------------------------------------------------------
# Memory and resilience budgets
# ----------------------------------------------------------------------

def _estimate_memory(
    topics: Sequence[str], facts: Dict[str, FlowFact], model: FlowModel
) -> int:
    """Estimated cache bytes for one host caching ``topics``."""
    total = 0
    for topic in topics:
        fact = facts.get(topic)
        period = fact.period_ns if fact and fact.period_ns > 0 else (
            model.monitoring_interval_ns
        )
        total += _cache_entries(model.cache_window_ns, period) * _CACHE_ENTRY_BYTES
    return total


def _check_memory(model: FlowModel, out: DiagnosticCollector) -> None:
    budget = model.memory_budget_mb * 1024 * 1024
    for host, nbytes in sorted(model.host_memory.items()):
        if nbytes > budget:
            extra = ""
            if model.storage_flush_bytes and host == "collect agent":
                extra = (
                    f" (incl. {_fmt_mb(model.storage_flush_bytes)} "
                    f"storage flush budget — shrink flush_mb too)"
                )
            out.at("monitoring", "cache_window_s").warning(
                "F008",
                f"estimated sensor-cache footprint on the {host} is "
                f"{_fmt_mb(nbytes)}{extra}, over the "
                f"{model.memory_budget_mb:g} MiB budget; shrink "
                f"cache_window_s or the sensor set "
                f"(--flow-memory-budget-mb adjusts the budget)",
            )


def _check_resilience(
    network,
    pusher_ops,
    model: FlowModel,
    out: DiagnosticCollector,
) -> None:
    """F009/F010/F012: outage demand vs spill, breaker and ingest budgets."""
    if network is not None:
        model.worst_outage_ns = max(
            [0] + [o.end_ns - o.start_ns for o in network.outages]
        )
        model.spill_capacity = network.spill.capacity
        model.ingest_queue_capacity = network.ingest.queue_capacity

    # Per-pusher publish rate: every monitoring reading, plus every
    # published online operator output.
    rate = model.n_base_topics / (model.monitoring_interval_ns / NS_PER_SEC)
    for op in pusher_ops:
        if op.config.mode != "online" or not op.config.publish_outputs:
            continue
        n_out = len(op.output_topics())
        if n_out:
            period_s = (
                op.config.interval_ns * op.config.unit_cadence / NS_PER_SEC
            )
            rate += n_out / period_s
    model.publish_rate_hz = rate

    if not model.worst_outage_ns:
        return
    outage_s = model.worst_outage_ns / NS_PER_SEC
    demand = rate * outage_s
    net_out = out.at("network")
    if demand > model.spill_capacity:
        lost = int(demand - model.spill_capacity)
        net_out.at("spill", "capacity").error(
            "F009",
            f"worst outage ({_fmt_s(model.worst_outage_ns)}) x publish "
            f"rate ({rate:.1f} readings/s) needs "
            f"{int(demand)} spill slots per pusher but capacity is "
            f"{model.spill_capacity}: ~{lost} readings will be lost",
        )
    for op in pusher_ops:
        cfg = op.config
        if cfg.breaker_threshold <= 0:
            continue
        max_backoff = cfg.breaker_max_cooldown * cfg.interval_ns
        if max_backoff < model.worst_outage_ns:
            out.at(
                "analytics", "pushers", op.block_index,
                "operators", op.name, "breaker_max_cooldown",
            ).warning(
                "F010",
                f"operator {op.label!r}: breaker backoff tops out at "
                f"{_fmt_s(max_backoff)} "
                f"(breaker_max_cooldown x interval), shorter than the "
                f"worst {_fmt_s(model.worst_outage_ns)} outage; units "
                f"will flap between probe and quarantine",
            )
    if model.ingest_queue_capacity is not None:
        burst = model.n_pushers * min(demand, model.spill_capacity)
        if burst > model.ingest_queue_capacity:
            net_out.at("ingest", "queue_capacity").warning(
                "F012",
                f"post-outage replay burst of ~{int(burst)} readings "
                f"({model.n_pushers} pushers x spilled backlog) exceeds "
                f"the ingest queue capacity "
                f"{model.ingest_queue_capacity}; replayed data will be "
                f"dropped on arrival",
            )


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------

def build_flow_model(
    spec: dict,
    collector: Optional[DiagnosticCollector] = None,
    memory_budget_mb: float = DEFAULT_MEMORY_BUDGET_MB,
    resolved: Optional[ResolvedDeployment] = None,
) -> FlowModel:
    """Propagate dataflow facts through a deployment spec.

    Diagnostics (F001-F013) are recorded into ``collector``; the
    returned model carries the inferred per-operator plan consumed by
    :func:`render_flow_report`.  The pass reads the typed view of the
    spec (a malformed value counts as its default — the W rules own
    reporting it); ``resolved`` hands in the resolution a caller has
    already made of ``spec``.  A spec that is no mapping yields an
    empty model.
    """
    out = collector if collector is not None else DiagnosticCollector()
    model = FlowModel(memory_budget_mb=memory_budget_mb)
    if resolved is None:
        view = read_deployment(spec)
        if view is None:
            return model
        resolved = resolve_deployment(view)
    view = resolved.view
    model.ignore = frozenset(view.ignore)
    model.monitoring_interval_ns = view.monitoring.interval_ns
    model.cache_window_ns = view.monitoring.cache_window_ns
    model.n_pushers = len(resolved.node_paths)
    model.n_base_topics = resolved.pusher_tree.n_sensors

    facts = model.facts
    facts.update(_base_facts(resolved))

    # Pusher pipelines resolve against one representative node.
    pusher_rp = resolved.pushers
    pusher_fused = _analyze_fusion(pusher_rp, "pushers", False, model, out)
    for op in pusher_rp.operators:
        _propagate_operator(
            op, "pushers", facts, model,
            out.at("analytics", "pushers", op.block_index, "operators",
                   op.name),
            pusher_fused.get(op.name),
        )
    # Their outputs exist on every node of the agent's view.
    for source, topics in resolved.replicated.items():
        for topic in topics:
            facts.setdefault(topic, replace(facts[source], topic=topic))

    # The Collect Agent always persists to storage, so its chains can
    # never hide an intermediate from the external subscriber.
    agent_rp = resolved.agent
    agent_fused = _analyze_fusion(agent_rp, "agent", True, model, out)
    for op in agent_rp.operators:
        _propagate_operator(
            op, "agent", facts, model,
            out.at("analytics", "agent", op.block_index, "operators",
                   op.name),
            agent_fused.get(op.name),
        )

    # Budgets: per-host cache footprints, then resilience.  A tiered
    # storage section adds its flush budget to the agent — the hot
    # memory tier genuinely holds up to flush_mb before sealing.
    model.host_memory["collect agent"] = _estimate_memory(
        agent_rp.tree.all_sensor_topics(), facts, model
    )
    model.storage_tiers = view.storage.tiers
    if model.storage_tiers == "tiered":
        model.storage_flush_bytes = view.storage.flush_bytes
        model.host_memory["collect agent"] += model.storage_flush_bytes
    model.host_memory["pusher (per node)"] = _estimate_memory(
        pusher_rp.tree.all_sensor_topics(), facts, model
    )
    _check_memory(model, out)
    _check_resilience(view.network, pusher_rp.operators, model, out)
    return model


def analyze_flow(
    spec: dict,
    collector: Optional[DiagnosticCollector] = None,
    memory_budget_mb: float = DEFAULT_MEMORY_BUDGET_MB,
) -> List[Diagnostic]:
    """Run the dataflow pass over a deployment spec (F001-F013)."""
    out = collector if collector is not None else DiagnosticCollector()
    start = len(out.sink)
    build_flow_model(spec, out, memory_budget_mb=memory_budget_mb)
    return out.sink[start:]


def render_flow_report(model: FlowModel) -> str:
    """Human-readable per-pipeline rate/unit/memory plan."""
    lines: List[str] = []
    lines.append(
        f"flow plan: {len(model.facts)} sensor topics, "
        f"{len(model.operators)} operator(s), {model.n_pushers} pusher(s)"
    )
    lines.append(
        f"monitoring: interval {_fmt_s(model.monitoring_interval_ns)}, "
        f"cache retention {_fmt_s(model.cache_window_ns)}, "
        f"{model.n_base_topics} sensors/node"
    )
    for view in model.operators:
        units = ", ".join(
            f"{name} [{unit or '?'}]"
            for name, unit in sorted(view.output_units.items())
        ) or "-"
        schedule = (
            f"every {_fmt_s(view.effective_period_ns)}"
            if view.mode == "online" else "ondemand"
        )
        window = (
            f", window {_fmt_s(view.window_ns)}" if view.window_ns else ""
        )
        kind = " (job plugin)" if view.is_job_plugin else ""
        lines.append(
            f"  [{view.context}] {view.label}{kind}: {view.n_units} "
            f"unit(s), {schedule}{window} -> {units}"
        )
    for context, labels in model.fused_groups:
        lines.append(
            f"fusion: [{context}] {' + '.join(labels)} -> one fused "
            f"pass per tick"
        )
    for context, upstream, downstream, reason in model.fusion_blocked:
        lines.append(
            f"fusion: [{context}] {upstream} -> {downstream} stays "
            f"staged ({reason})"
        )
    for host, nbytes in sorted(model.host_memory.items()):
        lines.append(
            f"memory: {host} ~{_fmt_mb(nbytes)} "
            f"(budget {model.memory_budget_mb:g} MiB)"
        )
    if model.storage_tiers == "tiered":
        lines.append(
            f"storage: tiered, flush budget "
            f"{_fmt_mb(model.storage_flush_bytes)} counted into the "
            f"collect agent footprint"
        )
    if model.worst_outage_ns:
        lines.append(
            f"resilience: worst outage {_fmt_s(model.worst_outage_ns)}, "
            f"publish rate {model.publish_rate_hz:.1f} readings/s per "
            f"pusher, spill capacity {model.spill_capacity}, ingest "
            f"queue "
            + (
                str(model.ingest_queue_capacity)
                if model.ingest_queue_capacity is not None else "unbounded"
            )
        )
    else:
        lines.append(
            f"resilience: no outages scheduled, publish rate "
            f"{model.publish_rate_hz:.1f} readings/s per pusher"
        )
    return "\n".join(lines)


def flow_report(
    spec: dict, memory_budget_mb: float = DEFAULT_MEMORY_BUDGET_MB
) -> str:
    """Build and render the flow plan of one deployment spec."""
    return render_flow_report(
        build_flow_model(spec, memory_budget_mb=memory_budget_mb)
    )
