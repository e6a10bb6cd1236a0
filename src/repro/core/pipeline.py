"""Analysis pipelines (Section IV-d).

Because online operator outputs are ordinary DCDB sensors, operators can
consume the outputs of other operators, forming multi-stage pipelines —
possibly spanning hosts (Pushers computing derived metrics feeding a
Collect Agent aggregation, as in the PerSyst case study) and ending in
control operators that close feedback loops.

This module adds a thin deployment helper: a :class:`Pipeline` is an
ordered list of stages, each a plugin configuration targeted at a host.
``deploy`` loads stages in order; each load first brings its host's
sensor space up to date, so later stages can resolve pattern units
against the sensors earlier stages (or remote hosts) publish.  Stage
interval/delay settings remain the user's responsibility, exactly as in
the real system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.common.errors import ConfigError, TopicError, UnitResolutionError
from repro.core.operator import JobOperatorBase, OperatorBase, OperatorConfig
from repro.core.tree import SensorTree
from repro.core.units import Unit, UnitResolver

if TYPE_CHECKING:  # annotation-only; manager imports the planner below
    from repro.core.manager import OperatorManager


@dataclass
class PipelineStage:
    """One stage: a plugin config loaded on one analytics manager."""

    manager: OperatorManager
    config: dict
    #: Human-readable label for reporting.
    label: str = ""

    def __post_init__(self) -> None:
        if "plugin" not in self.config:
            raise ConfigError("pipeline stage config must name its 'plugin'")
        if not self.label:
            self.label = self.config["plugin"]


class Pipeline:
    """Ordered multi-stage analysis deployment."""

    def __init__(self, stages: Sequence[PipelineStage]) -> None:
        if not stages:
            raise ConfigError("a pipeline needs at least one stage")
        self.stages = list(stages)
        self._operators: Dict[str, List[OperatorBase]] = {}

    def deploy(self, start: bool = True) -> Dict[str, List[OperatorBase]]:
        """Load every stage in order; returns operators per stage label.

        ``load_plugin`` refreshes its host's sensor space before it
        resolves anything, so units can bind to sensors created by
        earlier stages.
        """
        for stage in self.stages:
            ops = stage.manager.load_plugin(stage.config, start=start)
            self._operators.setdefault(stage.label, []).extend(ops)
        # All stages are in place: let each distinct manager plan fused
        # groups over its now-complete operator sequence.
        seen = set()
        for stage in self.stages:
            if id(stage.manager) in seen:
                continue
            seen.add(id(stage.manager))
            stage.manager.refresh_fusion()
        return dict(self._operators)

    def operators(self, label: str) -> List[OperatorBase]:
        """Operators deployed under a stage label."""
        return list(self._operators.get(label, ()))

    def stop(self) -> None:
        """Stop every deployed operator."""
        for ops in self._operators.values():
            for op in ops:
                op.stop()

    def start(self) -> None:
        """(Re)start every deployed operator."""
        for ops in self._operators.values():
            for op in ops:
                op.start()


# ----------------------------------------------------------------------
# Resolved-model export (static consumers)
# ----------------------------------------------------------------------
#
# The dataflow analyzer (repro.analysis.flow) needs the *resolved*
# deployment — parsed operator configs plus the concrete units their
# patterns expand to against a host's sensor tree — without building a
# single runtime component.  Unit resolution is a pure function of the
# tree (repro.core.units), so this export reuses exactly the machinery
# Pipeline.deploy runs, minus operators, managers and scheduling.


@dataclass
class ResolvedOperator:
    """One operator's statically resolved view.

    ``units`` is empty when the operator is a job plugin (units are
    created per running job) or when resolution failed;
    ``resolution_error`` carries the reason in the latter case.
    """

    block_index: int
    plugin: str
    name: str
    config: OperatorConfig
    units: List[Unit] = field(default_factory=list)
    is_job_plugin: bool = False
    resolution_error: str = ""

    @property
    def label(self) -> str:
        return f"{self.plugin}/{self.name}"

    def output_topics(self) -> List[str]:
        """Every concrete output topic across the resolved units."""
        return [s.topic for u in self.units for s in u.outputs]


@dataclass
class ResolvedPipeline:
    """An ordered list of plugin blocks resolved against one host tree.

    ``tree`` is a private copy of the input tree grown by every
    operator's output sensors, exactly as ``OperatorManager.load_plugin``
    declares them to the host's live tree after each operator.
    """

    host: str
    tree: SensorTree
    operators: List[ResolvedOperator] = field(default_factory=list)

    def fusion_plan(self, host_has_storage: bool = False) -> "FusionPlan":
        """Run the fusion planner over this resolved pipeline.

        Builds one :class:`FusionSpec` per resolved operator (whether
        the plugin class defines a window kernel is looked up without
        instantiation) and plans the same groups the runtime manager
        would form, so the static flow analyzer and the live deployment
        agree on eligibility.
        """
        from repro.core.registry import get_plugin_class

        specs = []
        for op in self.operators:
            cls = get_plugin_class(op.plugin)
            specs.append(
                FusionSpec(
                    name=op.name,
                    label=op.label,
                    config=op.config,
                    has_kernel=isinstance(cls, type) and has_kernel(cls),
                    is_job_plugin=op.is_job_plugin,
                    input_topics=frozenset(
                        t for u in op.units for t in u.inputs
                    ),
                    output_topics=frozenset(op.output_topics()),
                )
            )
        return plan_fusion(specs, host_has_storage=host_has_storage)


def resolve_pipeline(
    blocks: Sequence[SimpleNamespace],
    tree: SensorTree,
    host: str = "",
) -> ResolvedPipeline:
    """Resolve plugin blocks against a sensor tree without instantiation.

    ``blocks`` are the typed views the schema walk makes of plugin
    blocks (``repro.spec.PLUGIN_BLOCK.read``), in deployment order; each
    operator's resolved output sensors are added to the (copied) tree
    before the next operator resolves — the runtime grows its live tree
    the same way (DESIGN.md, "How the sensor space grows").  A block
    that does not name its plugin is skipped — the walk has reported it.
    """
    from repro.core.registry import get_plugin_class
    from repro.spec import operator_config

    work = SensorTree.from_topics(tree.all_sensor_topics())
    resolved = ResolvedPipeline(host=host, tree=work)
    for i, block in enumerate(blocks):
        if block.plugin is None:
            continue
        cls = get_plugin_class(block.plugin)
        is_job = isinstance(cls, type) and issubclass(cls, JobOperatorBase)
        for name, view in block.operators.items():
            config = operator_config(name, view)
            entry = ResolvedOperator(
                block_index=i, plugin=block.plugin, name=name, config=config,
                is_job_plugin=is_job,
            )
            if not is_job and config.outputs:
                entry.units, entry.resolution_error = _resolve_units(
                    work, config
                )
                for unit in entry.units:
                    for sensor in unit.outputs:
                        add_topic(work, sensor.topic)
            resolved.operators.append(entry)
    return resolved


def _resolve_units(tree: SensorTree, config: OperatorConfig):
    """(units, error) of one pattern-unit config; never raises."""
    try:
        resolver = UnitResolver(
            config.inputs, config.outputs, relaxed=True,
            publish_outputs=config.publish_outputs,
        )
        return resolver.resolve(tree), ""
    except (ConfigError, TopicError, UnitResolutionError) as exc:
        return [], str(exc)


def add_topic(tree: SensorTree, topic: str) -> None:
    """Add an operator output to a statically resolved tree; a name
    that collides with a component node is left to the resolution
    rules."""
    try:
        tree.add_sensor(topic)
    except TopicError:
        pass


# ----------------------------------------------------------------------
# Fusion planner
# ----------------------------------------------------------------------
#
# A fused group is a maximal run of *consecutive* operators (manager
# registration order == block order) forming a linear chain: each
# member consumes the previous member's output topics, all members
# share one sampling period, and no intermediate output has a consumer
# outside the group.  Consecutiveness is load-bearing, not cosmetic:
# the scheduler breaks same-tick ties by registration order, so a
# fused group executing at its leader's slot is order-equivalent to
# the staged passes only when nothing else was registered in between.
# The planner is pure (no runtime state) so the manager and the static
# flow analyzer (F013) share one source of eligibility truth.

#: Blocked-chain reasons surfaced as F013 info diagnostics.  Other
#: reasons (explicit ``fusion: false``, on-demand mode, job-plugin
#: producers, no chaining at all) stay silent — they are either
#: deliberate opt-outs or structurally meaningless to report.
REPORTABLE_FUSION_BLOCKS = (
    "no-kernel",
    "period-mismatch",
    "external-subscriber",
)


@dataclass
class FusionSpec:
    """One operator's planner-facing summary (runtime or static)."""

    name: str
    config: OperatorConfig
    has_kernel: bool = False
    is_job_plugin: bool = False
    input_topics: frozenset = frozenset()
    output_topics: frozenset = frozenset()
    label: str = ""

    def __post_init__(self) -> None:
        if not self.label:
            self.label = self.name


@dataclass
class FusionBlock:
    """An adjacent chain that would fuse but for ``reason``."""

    upstream: str
    downstream: str
    reason: str
    detail: str = ""


@dataclass
class FusionPlan:
    """Planner output: fused groups plus reportable blocked chains."""

    groups: List[List[str]] = field(default_factory=list)
    blocked: List[FusionBlock] = field(default_factory=list)


def has_kernel(cls: type) -> bool:
    """Whether a plugin class defines a matrix kernel of its own (the
    inherited ``compute_batch`` computes unit by unit)."""
    return cls.compute_batch is not OperatorBase.compute_batch


def _can_join(spec: FusionSpec) -> bool:
    """Whether the member can run its pass inside a fused group."""
    return spec.has_kernel or spec.config.fusion is True


def _can_lead(spec: FusionSpec) -> bool:
    """Whether the spec may open a group (i.e. become a producer)."""
    return (
        spec.config.mode == "online"
        and spec.config.fusion is not False
        and not spec.is_job_plugin
        and _can_join(spec)
    )


def _chain_verdict(
    tail: FusionSpec,
    consumer: FusionSpec,
    group: List[FusionSpec],
    specs: Sequence[FusionSpec],
    host_has_storage: bool,
) -> Optional[tuple]:
    """``None`` if ``consumer`` may join the group behind ``tail``,
    else ``(reason, detail)`` explaining why the chain breaks."""
    forced_job = consumer.is_job_plugin and consumer.config.fusion is True
    chained = bool(consumer.input_topics & tail.output_topics) or forced_job
    if not chained:
        return ("not-chained", "")
    if consumer.config.mode != "online":
        return ("mode", f"{consumer.label} is {consumer.config.mode}")
    if consumer.config.fusion is False or tail.config.fusion is False:
        return ("opt-out", "fusion: false")
    if consumer.is_job_plugin and not forced_job:
        return ("job", "job operators join only with fusion: true")
    if tail.is_job_plugin:
        return ("job", "job operators cannot produce fused intermediates")
    if not _can_join(consumer):
        return (
            "no-kernel",
            f"{consumer.label} computes unit by unit, it has no window "
            f"kernel (set fusion: true to force)",
        )
    if (
        consumer.config.interval_ns != tail.config.interval_ns
        or consumer.config.delay_ns != tail.config.delay_ns
    ):
        return (
            "period-mismatch",
            f"{tail.label} runs every {tail.config.interval_ns}ns "
            f"(delay {tail.config.delay_ns}ns) but {consumer.label} every "
            f"{consumer.config.interval_ns}ns "
            f"(delay {consumer.config.delay_ns}ns)",
        )
    # ``tail`` would become an intermediate: its per-pass outputs must
    # have no subscriber outside the group, or skipping the cache write
    # and broker publish changes observable behavior.
    if tail.config.publish_outputs:
        return (
            "external-subscriber",
            f"{tail.label} publishes its outputs over MQTT "
            "(set publish_outputs: false on private intermediates)",
        )
    if host_has_storage:
        return (
            "external-subscriber",
            "the host's storage backend persists every stored reading",
        )
    if tail.config.operator_outputs:
        return (
            "external-subscriber",
            f"{tail.label} stores operator-level aggregate outputs",
        )
    members = {id(s) for s in group} | {id(consumer)}
    for other in specs:
        if id(other) in members:
            continue
        if other.input_topics & tail.output_topics:
            return (
                "external-subscriber",
                f"{tail.label} outputs are also consumed by {other.label}",
            )
    return None


def plan_fusion(
    specs: Sequence[FusionSpec], host_has_storage: bool = False
) -> FusionPlan:
    """Greedily group consecutive fusable chains.

    ``specs`` must be in manager registration order.  Returns groups of
    ≥ 2 member names plus the blocked adjacencies whose reason is worth
    surfacing (:data:`REPORTABLE_FUSION_BLOCKS`).
    """
    plan = FusionPlan()
    current: List[FusionSpec] = []
    for spec in specs:
        if current:
            verdict = _chain_verdict(
                current[-1], spec, current, specs, host_has_storage
            )
            if verdict is None:
                current.append(spec)
                continue
            reason, detail = verdict
            if reason in REPORTABLE_FUSION_BLOCKS:
                plan.blocked.append(
                    FusionBlock(
                        upstream=current[-1].label,
                        downstream=spec.label,
                        reason=reason,
                        detail=detail,
                    )
                )
            if len(current) >= 2:
                plan.groups.append([s.name for s in current])
        current = [spec] if _can_lead(spec) else []
    if len(current) >= 2:
        plan.groups.append([s.name for s in current])
    return plan


def replicate_topic(
    topic: str, source_root: str, target_roots: Sequence[str]
) -> List[str]:
    """Map a topic under one component root onto sibling roots.

    A pusher pipeline is resolved against one representative node's
    tree; its outputs exist on *every* node.  This helper rewrites
    ``/rack00/.../node00/avg-power`` to each node path so the agent-side
    model sees the whole fleet's derived sensors; a topic above the
    source root exists once, as it is.
    """
    source = source_root.rstrip("/")
    if not topic.startswith(source + "/"):
        return [topic]
    suffix = topic[len(source):]
    return [f"{root.rstrip('/')}{suffix}" for root in target_roots]
