"""Static configuration analyzer (offline half of ``wintermute-sim check``).

The paper's Unit System makes one small configuration block expand into
thousands of per-component units (Section III-C) — which also means a
typo in a ``<bottomup-1, filter node>`` pattern, a dangling sensor
reference or a cycle between operator inputs and outputs is normally
discovered only at deploy time, deep inside the Operator Manager.  This
module finds those problems *statically*.

The structural half — unknown keys, types, ranges, malformed patterns,
cross-field rules (W001–W007, W016) — is the table walk of
:mod:`repro.spec`, the same one the builder runs.  What this module
adds needs a sensor tree: it resolves sensor references against a tree
synthesized from the deployment's cluster and monitoring sections,
detects inter-operator pipeline cycles and duplicate output topics, and
reports unit-expansion cardinality per operator (W008–W014).

Entry points:

- :func:`analyze_pipeline_blocks` — an ordered list of plugin blocks
  sharing a host, optionally against a sensor tree: earlier operators'
  declared outputs are visible to later ones, mirroring staged
  pipeline deployment, and the cross-operator rules (duplicate outputs
  W011, cycles W012) run over the whole list.
- :func:`analyze_deployment` — a whole ``repro.deploy`` specification:
  walks it, resolves it once (:func:`resolve_deployment`) and runs the
  pipeline analysis per analytics host context against the resolved
  trees; the flow pass, when asked for, reuses the same resolution.

All findings are :class:`~repro.analysis.diagnostics.Diagnostic`
records; rule codes are documented in ``docs/STATIC_ANALYSIS.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.diagnostics import Diagnostic, DiagnosticCollector
from repro.common.errors import TopicError
from repro.core.operator import JobOperatorBase
from repro.core.pattern import PatternExpression
from repro.core.pipeline import (
    ResolvedPipeline,
    add_topic,
    replicate_topic,
    resolve_pipeline,
)
from repro.core.registry import get_plugin_class
from repro.core.tree import SensorTree
from repro.dcdb.plugins import MONITORING_PLUGINS
from repro.simulator.cluster import ClusterTopology
from repro.simulator.facility import FACILITY_SENSOR_UNITS
from repro.spec import (
    PLUGIN_BLOCK,
    check_plugin_name,
    cluster_spec,
    read_deployment,
)

#: Default cardinality threshold: a single operator expanding to more
#: units than this draws a W014 warning (Section III-C scale is the
#: point, but six-figure unit sets deserve a deliberate decision).
DEFAULT_MAX_UNITS = 10_000


# ----------------------------------------------------------------------
# Parsed-operator view
# ----------------------------------------------------------------------

class _OperatorView:
    """Parsed expressions of one operator's typed view (analysis-side)."""

    def __init__(self, block_index: int, plugin: str, name: str,
                 view: SimpleNamespace) -> None:
        self.block_index = block_index
        self.plugin = plugin
        self.name = name
        self.relaxed = view.relaxed
        self.inputs = [PatternExpression.parse(t) for t in view.inputs]
        self.outputs = [PatternExpression.parse(t) for t in view.outputs]
        cls = get_plugin_class(plugin)
        self.is_job_plugin = isinstance(cls, type) and issubclass(
            cls, JobOperatorBase
        )

    @property
    def label(self) -> str:
        return f"{self.plugin}/{self.name}"

    def unit_expr(self) -> Optional[PatternExpression]:
        """The unit-defining (first, level-anchored) output expression."""
        if self.outputs and self.outputs[0].anchor != "unit":
            return self.outputs[0]
        return None


def _level_key(expr: PatternExpression, tree: Optional[SensorTree],
               unit_level) -> Optional[Tuple[str, int]]:
    """Comparable level identity of an expression, or None if unknown.

    With a tree the key is the absolute level; without one it is the
    symbolic (anchor, offset) pair — comparable between expressions of
    the same anchor family.  Unit-anchored expressions inherit the
    operator's unit-domain level.
    """
    if expr.anchor == "unit":
        return unit_level
    if tree is not None:
        try:
            return ("abs", tree.resolve_level(expr.anchor, expr.offset))
        except TopicError:
            return None
    return (expr.anchor, expr.offset)


# ----------------------------------------------------------------------
# Single-block analysis
# ----------------------------------------------------------------------

def _operator_views(block_index: int, block) -> List[_OperatorView]:
    """The operators of one plugin block's typed view (none when the
    block does not name its plugin)."""
    if block.plugin is None:
        return []
    return [
        _OperatorView(block_index, block.plugin, name, view)
        for name, view in block.operators.items()
    ]


def _analyze_operator(
    view: _OperatorView,
    tree: SensorTree,
    out: DiagnosticCollector,
    max_units: int,
) -> None:
    """Resolution-level checks for one operator."""
    unit_expr = view.unit_expr()
    unit_domain = None
    if unit_expr is not None and not view.is_job_plugin:
        try:
            unit_domain = unit_expr.domain(tree)
        except TopicError as exc:
            out.at("outputs", 0).error("W008", str(exc))
        else:
            n = len(unit_domain)
            out.info(
                "W013",
                f"operator {view.name!r} expands to {n} unit(s) "
                f"({unit_expr!s})",
            )
            if n == 0:
                severity = "warning" if view.relaxed else "error"
                out.at("outputs", 0).add(
                    "W009", severity,
                    f"output expression {unit_expr!s} matches no tree node",
                )
            elif n > max_units:
                out.at("outputs", 0).warning(
                    "W014",
                    f"operator {view.name!r} would instantiate {n} units "
                    f"(threshold {max_units}); consider a filter or "
                    f"unit_cadence",
                )
    for i, expr in enumerate(view.inputs):
        _check_input(view, expr, i, tree, unit_domain, out)
    # Non-first anchored outputs must also resolve to a level.
    for i, expr in enumerate(view.outputs):
        if i == 0 or expr.anchor == "unit":
            continue
        try:
            tree.resolve_level(expr.anchor, expr.offset)
        except TopicError as exc:
            out.at("outputs", i).error("W008", str(exc))


def _check_input(
    view: _OperatorView,
    expr: PatternExpression,
    index: int,
    tree: SensorTree,
    unit_domain,
    out: DiagnosticCollector,
) -> None:
    """W010: does any reachable node carry the referenced sensor?

    A static approximation of unit resolution: per-unit, inputs bind to
    hierarchically related nodes of the expression's domain — here we
    only require that *some* node the expression can reach carries a
    sensor of that name, which is exactly the typo/dangling-reference
    class this rule is after.
    """
    severity = "warning" if view.relaxed else "error"
    if view.is_job_plugin:
        # Job inputs resolve against each allocated node's subtree; a
        # name absent from the whole tree can never resolve.
        if not _name_exists_anywhere(tree, expr.sensor):
            out.at("inputs", index).add(
                "W010", severity,
                f"input {expr!s}: no sensor named {expr.sensor!r} exists "
                f"anywhere in the sensor tree",
            )
        return
    if expr.anchor == "unit":
        candidates = unit_domain
        if candidates is None:
            return  # unit domain unknown; nothing to resolve against
    else:
        try:
            candidates = expr.domain(tree)
        except TopicError:
            out.at("inputs", index).error(
                "W008",
                f"input {expr!s}: level outside the sensor tree "
                f"(levels 0..{tree.max_level})",
            )
            return
    if not any(expr.sensor in node.sensors for node in candidates):
        out.at("inputs", index).add(
            "W010", severity,
            f"input {expr!s}: no matching node carries a sensor named "
            f"{expr.sensor!r} (dangling reference)",
        )


def _name_exists_anywhere(tree: SensorTree, name: str) -> bool:
    return any(
        name in node.sensors for node in tree.root.iter_subtree()
    )


# ----------------------------------------------------------------------
# Cross-block (pipeline) analysis
# ----------------------------------------------------------------------

def analyze_pipeline_blocks(
    blocks: Sequence[dict],
    tree: Optional[SensorTree] = None,
    known_plugins: Optional[Sequence[str]] = None,
    collector: Optional[DiagnosticCollector] = None,
    max_units: int = DEFAULT_MAX_UNITS,
) -> List[Diagnostic]:
    """Analyze an ordered list of plugin blocks sharing one host.

    Operators are processed in deployment order; each one's declared
    output sensors are added to the (copied) tree before the next is
    analyzed — the next of the same block included — so staged
    pipelines resolve exactly like
    :meth:`repro.core.manager.OperatorManager.load_plugin` loads them.
    Duplicate output topics (W011) and operator cycles (W012) are
    detected across the whole list.
    """
    out = collector if collector is not None else DiagnosticCollector()
    start = len(out.sink)
    views = [PLUGIN_BLOCK.read(b, out.at(i)) for i, b in enumerate(blocks)]
    for i, view in enumerate(views):
        check_plugin_name(view, out.at(i), known_plugins or ())
    resolved = resolve_pipeline(views, tree) if tree is not None else None
    _analyze_pipeline(views, tree, out, max_units, resolved)
    return out.sink[start:]


def _analyze_pipeline(
    blocks: Sequence[SimpleNamespace],
    tree: Optional[SensorTree],
    out: DiagnosticCollector,
    max_units: int,
    resolved: Optional[ResolvedPipeline],
) -> None:
    """The tree rules (W008–W014) over the typed views of one host's
    plugin blocks; the structural findings are already reported.

    ``resolved`` is the blocks' resolution against ``tree`` (both None
    without a tree).  Each operator is checked against the tree as
    ``load_plugin`` would find it: grown by the output topics of every
    operator before it, its own block's included.
    """
    work_tree = None
    produced: Dict[Tuple[int, str], List[str]] = {}
    if tree is not None:
        work_tree = SensorTree.from_topics(tree.all_sensor_topics())
        produced = {
            (op.block_index, op.name): op.output_topics()
            for op in resolved.operators
        }
    views: List[_OperatorView] = []
    for i, block in enumerate(blocks):
        for view in _operator_views(i, block):
            views.append(view)
            if work_tree is not None:
                _analyze_operator(
                    view, work_tree, out.at(i, "operators", view.name),
                    max_units,
                )
                for topic in produced[i, view.name]:
                    add_topic(work_tree, topic)
    _check_duplicate_outputs(views, work_tree, out)
    _check_cycles(views, work_tree, out)


def _output_keys(view: _OperatorView, tree: Optional[SensorTree]):
    """(sensor-name, level-key, filtered) triples of declared outputs."""
    if view.is_job_plugin:
        return []
    unit_expr = view.unit_expr()
    unit_level = _level_key(unit_expr, tree, None) if unit_expr else None
    keys = []
    for expr in view.outputs:
        level = _level_key(expr, tree, unit_level)
        filtered = expr.filter is not None or (
            expr.anchor == "unit"
            and unit_expr is not None
            and unit_expr.filter is not None
        )
        keys.append((expr.sensor, level, filtered))
    return keys


def _input_keys(view: _OperatorView, tree: Optional[SensorTree]):
    unit_expr = view.unit_expr()
    unit_level = _level_key(unit_expr, tree, None) if unit_expr else None
    keys = []
    for expr in view.inputs:
        keys.append((expr.sensor, _level_key(expr, tree, unit_level)))
    return keys


def _check_duplicate_outputs(
    views: List[_OperatorView],
    tree: Optional[SensorTree],
    out: DiagnosticCollector,
) -> None:
    """W011: two operators writing the same output topic."""
    producers: Dict[Tuple[str, object], List[Tuple[_OperatorView, bool]]] = {}
    for view in views:
        seen: Set[Tuple[str, object]] = set()
        for sensor, level, filtered in _output_keys(view, tree):
            if level is None or (sensor, level) in seen:
                continue
            seen.add((sensor, level))
            producers.setdefault((sensor, level), []).append((view, filtered))
    for (sensor, _level), entries in sorted(producers.items(),
                                            key=lambda kv: kv[0][0]):
        if len(entries) < 2:
            continue
        labels = sorted(v.label for v, _ in entries)
        any_filtered = any(f for _, f in entries)
        severity = "warning" if any_filtered else "error"
        qualifier = (
            " (domains are filtered and may not overlap)"
            if any_filtered else ""
        )
        out.add(
            "W011", severity,
            f"operators {labels} all declare output sensor {sensor!r} at "
            f"the same tree level{qualifier}",
        )


def _check_cycles(
    views: List[_OperatorView],
    tree: Optional[SensorTree],
    out: DiagnosticCollector,
) -> None:
    """W012: cycles in the operator data-flow graph.

    Edge A -> B when some output (sensor, level) of A matches some
    input (sensor, level) of B.  Level identity is exact when a tree is
    available and symbolic otherwise; unknown levels produce no edge, so
    the rule errs toward silence rather than false cycles.
    """
    outputs = {id(v): _output_keys(v, tree) for v in views}
    inputs = {id(v): _input_keys(v, tree) for v in views}
    edges: Dict[int, List[int]] = {id(v): [] for v in views}
    by_id = {id(v): v for v in views}
    for a in views:
        produced = {(s, l) for s, l, _ in outputs[id(a)] if l is not None}
        if not produced:
            continue
        for b in views:
            consumed = {(s, l) for s, l in inputs[id(b)] if l is not None}
            if produced & consumed:
                edges[id(a)].append(id(b))
    # Iterative DFS cycle detection with path recovery.
    WHITE, GREY, BLACK = 0, 1, 2
    color = {n: WHITE for n in edges}
    reported: Set[frozenset] = set()
    for root in edges:
        if color[root] != WHITE:
            continue
        stack = [(root, iter(edges[root]))]
        path = [root]
        color[root] = GREY
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color[nxt] == GREY:
                    cycle = path[path.index(nxt):] + [nxt]
                    members = frozenset(cycle[:-1])
                    if members not in reported:
                        reported.add(members)
                        labels = " -> ".join(
                            by_id[n].label for n in cycle
                        )
                        out.error(
                            "W012",
                            f"operator pipeline cycle: {labels}",
                        )
                elif color[nxt] == WHITE:
                    color[nxt] = GREY
                    stack.append((nxt, iter(edges[nxt])))
                    path.append(nxt)
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
                path.pop()
    return


# ----------------------------------------------------------------------
# Deployment specs
# ----------------------------------------------------------------------

def _synthesize_trees(
    view: SimpleNamespace, topology: ClusterTopology
) -> Tuple[SensorTree, SensorTree]:
    """(agent_tree, pusher_tree) of a deployment's typed view."""
    monitoring = view.monitoring

    def node_topics(node: str) -> List[str]:
        topics: List[str] = []
        for name, plugin in MONITORING_PLUGINS.items():
            if name in monitoring.plugins:
                roots = topology.cpus_of_node[node] if plugin.PER_CPU else [node]
                topics += [
                    f"{root}/{sensor}" for root in roots
                    for sensor in plugin.static_sensors(monitoring)
                ]
        return topics

    agent_topics = [
        topic for node in topology.node_paths for topic in node_topics(node)
    ]
    if view.facility.enabled:
        agent_topics += [
            f"/facility/cooling/{name}" for name in FACILITY_SENSOR_UNITS
        ]
    return (
        SensorTree.from_topics(agent_topics),
        SensorTree.from_topics(node_topics(topology.node_paths[0])),
    )


@dataclass
class ResolvedDeployment:
    """One static resolution of a deployment spec: what the tree rules
    and the flow pass both work from, computed once per check."""

    view: SimpleNamespace
    node_paths: List[str]
    #: One representative node's monitoring sensors — what a Pusher's
    #: analytics manager resolves against.
    pusher_tree: SensorTree
    #: Every node's sensors, the facility's, and the Pushers' published
    #: operator outputs on every node — what the builder declares to the
    #: Collect Agent's engine before its first block loads.
    agent_tree: SensorTree
    #: The Pusher blocks resolved against ``pusher_tree``.
    pushers: ResolvedPipeline
    #: Published Pusher operator output -> its topics across the fleet.
    replicated: Dict[str, List[str]]
    #: The agent blocks resolved against ``agent_tree``.
    agent: ResolvedPipeline


def resolve_deployment(view: SimpleNamespace) -> ResolvedDeployment:
    """Resolve a deployment's typed view without instantiating it."""
    nodes = ClusterTopology(cluster_spec(view.cluster))
    agent_tree, pusher_tree = _synthesize_trees(view, nodes)
    pushers = resolve_pipeline(view.analytics.pushers, pusher_tree, "pushers")
    # Pusher pipelines resolve against one representative node; at run
    # time every node runs them, so each output exists once per node.
    replicated = {
        topic: replicate_topic(topic, nodes.node_paths[0], nodes.node_paths)
        for op in pushers.operators if op.config.publish_outputs
        for topic in op.output_topics()
    }
    for topics in replicated.values():
        for topic in topics:
            add_topic(agent_tree, topic)
    agent = resolve_pipeline(view.analytics.agent, agent_tree, "agent")
    return ResolvedDeployment(
        view, nodes.node_paths, pusher_tree, agent_tree, pushers, replicated,
        agent,
    )


def analyze_deployment(
    spec: dict,
    known_plugins: Optional[Sequence[str]] = None,
    collector: Optional[DiagnosticCollector] = None,
    max_units: int = DEFAULT_MAX_UNITS,
    flow: bool = False,
    flow_memory_budget_mb: Optional[float] = None,
) -> List[Diagnostic]:
    """Analyze a whole deployment specification (see :mod:`repro.spec`).

    With ``flow=True`` the dataflow pass (:mod:`repro.analysis.flow`,
    F rules) runs after the W rules, on the same resolution.
    """
    out = collector if collector is not None else DiagnosticCollector()
    start = len(out.sink)
    view = read_deployment(spec, out, known_plugins or ())
    if view is None:
        return out.sink[start:]
    resolved = resolve_deployment(view)
    for context, tree, pipeline in (
        ("pushers", resolved.pusher_tree, resolved.pushers),
        ("agent", resolved.agent_tree, resolved.agent),
    ):
        _analyze_pipeline(
            getattr(view.analytics, context), tree,
            out.at("analytics", context), max_units, pipeline,
        )
    if flow:
        from repro.analysis.flow import DEFAULT_MEMORY_BUDGET_MB, build_flow_model

        build_flow_model(
            spec, out,
            memory_budget_mb=(
                flow_memory_budget_mb if flow_memory_budget_mb is not None
                else DEFAULT_MEMORY_BUDGET_MB
            ),
            resolved=resolved,
        )
    return out.sink[start:]
