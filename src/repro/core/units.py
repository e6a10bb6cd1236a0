"""Units and pattern-unit resolution (Sections III-B, III-C, V-C-2).

A *unit* is the atomic component an analysis computation binds to: a
node in the sensor tree, a set of input sensors (on that node or on any
hierarchically related node) and a set of output sensors delivering the
analysis results.

A *pattern unit* specifies inputs and outputs as pattern expressions
instead of concrete topics.  :class:`UnitResolver` implements the
three-step generation process of Section V-C-2:

a) compute the domain of the output sensors' pattern expression;
b) instantiate one unit for each retrieved node in that domain;
c) for each unit, resolve its input and output sensor sets according to
   the domains of the respective expressions, keeping only nodes
   hierarchically related to the unit's own node.

A unit whose input expressions match no sensors cannot be built; in
*relaxed* mode such units are skipped, otherwise resolution fails.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.common.errors import UnitResolutionError
from repro.dcdb.sensor import Sensor
from repro.core.pattern import PatternExpression
from repro.core.tree import SensorTree, TreeNode


@dataclass
class Unit:
    """A concrete, resolved unit.

    Attributes:
        name: path of the tree node the unit represents.
        level: tree level of that node.
        inputs: full topics of the unit's input sensors.
        outputs: operator-output sensors (created on first write).
        tag: free-form association, e.g. the job id for job units.
    """

    name: str
    level: int
    inputs: List[str] = field(default_factory=list)
    outputs: List[Sensor] = field(default_factory=list)
    tag: Optional[str] = None

    def output_by_name(self, name: str) -> Sensor:
        """Look up an output sensor by its short name."""
        for sensor in self.outputs:
            if sensor.name == name:
                return sensor
        raise KeyError(f"unit {self.name} has no output sensor {name!r}")

    def inputs_named(self, sensor_name: str) -> List[str]:
        """All input topics whose final segment equals ``sensor_name``."""
        suffix = "/" + sensor_name
        return [t for t in self.inputs if t.endswith(suffix)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Unit({self.name!r}, inputs={len(self.inputs)}, "
            f"outputs={[s.name for s in self.outputs]})"
        )


def same_units(a: Sequence[Unit], b: Sequence[Unit]) -> bool:
    """Whether two sequences hold the very same unit objects, in order.

    What a memo keyed on units compares — against the units it *holds*,
    never their ``id()``s: an id outlives its object, and the allocator
    hands a freed unit's address to its replacement.
    """
    return len(a) == len(b) and all(map(operator.is_, a, b))


def kept_units(
    held: Sequence[Unit], units: Sequence[Unit]
) -> Optional[Sequence[Unit]]:
    """The units list a memo built for the list ``held`` goes on to
    hold when asked about ``units``, or ``None`` when it must be
    rebuilt.

    Installed unit lists are replaced, never mutated in place, so a
    steady pass hands a memo the very list it holds: one identity
    check.  :func:`same_units` runs only on a new list; when that holds
    the same units, the memo keeps the new list, so the next pass is an
    identity check again.
    """
    if held is units:
        return held
    return units if same_units(held, units) else None


class UnitResolver:
    """Resolves a pattern unit against a sensor tree.

    Args:
        inputs: input pattern expressions (parsed or textual).
        outputs: output pattern expressions.  The *first* output
            expression defines the unit domain — one unit is built per
            node it matches.
        relaxed: skip (rather than fail on) units with unsatisfiable
            input expressions.
        publish_outputs: whether generated output sensors are published
            over MQTT (pipelines need this; cache-only outputs do not).
    """

    def __init__(
        self,
        inputs: Sequence,
        outputs: Sequence,
        relaxed: bool = False,
        publish_outputs: bool = True,
    ) -> None:
        self.inputs = [self._as_expr(e) for e in inputs]
        self.outputs = [self._as_expr(e) for e in outputs]
        if not self.outputs:
            raise UnitResolutionError("a pattern unit needs >= 1 output")
        self.relaxed = relaxed
        self.publish_outputs = publish_outputs

    @staticmethod
    def _as_expr(e) -> PatternExpression:
        return e if isinstance(e, PatternExpression) else PatternExpression.parse(e)

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------

    def unit_domain(self, tree: SensorTree) -> List[TreeNode]:
        """Nodes the first output expression matches (step a)."""
        first = self.outputs[0]
        if first.anchor == "unit":
            raise UnitResolutionError(
                f"the unit-defining output expression must carry a level "
                f"pattern, got bare {first.sensor!r}"
            )
        return first.domain(tree)

    def resolve(self, tree: SensorTree) -> List[Unit]:
        """Build all units of the pattern (steps a-c)."""
        domain = self.unit_domain(tree)
        if not domain:
            if self.relaxed:
                return []
            raise UnitResolutionError(
                f"output expression {self.outputs[0]!s} matches no tree node"
            )
        units: List[Unit] = []
        for node in domain:
            unit = self._build_unit(tree, node)
            if unit is not None:
                units.append(unit)
        if not units and not self.relaxed:
            raise UnitResolutionError(
                "no unit of the pattern could be built (all inputs "
                "unsatisfiable)"
            )
        return units

    def resolve_for_name(self, tree: SensorTree, unit_name: str) -> Unit:
        """Build the single unit named ``unit_name``.

        This is the on-demand path: a REST request queries a specific
        unit, so only that unit is instantiated (Section IV-b).
        """
        node = tree.node(unit_name)
        if node is None:
            raise UnitResolutionError(f"no tree node {unit_name!r}")
        domain_paths = {n.path for n in self.unit_domain(tree)}
        if node.path not in domain_paths:
            raise UnitResolutionError(
                f"{unit_name!r} is outside the pattern's unit domain"
            )
        unit = self._build_unit(tree, node, strict=True)
        assert unit is not None
        return unit

    def _build_unit(
        self, tree: SensorTree, node: TreeNode, strict: bool = False
    ) -> Optional[Unit]:
        inputs: List[str] = []
        for expr in self.inputs:
            matched = self._resolve_input(tree, node, expr)
            if not matched:
                if strict or not self.relaxed:
                    raise UnitResolutionError(
                        f"unit {node.path}: input expression {expr!s} "
                        f"matches no sensor"
                    )
                return None
            inputs.extend(matched)
        outputs: List[Sensor] = []
        for expr in self.outputs:
            for target in self._related(tree, node, expr):
                outputs.append(
                    Sensor(
                        topic=f"{target.path.rstrip('/')}/{expr.sensor}"
                        if target.path != "/"
                        else f"/{expr.sensor}",
                        publish=self.publish_outputs,
                        is_operator_output=True,
                    )
                )
        if not outputs:
            if strict or not self.relaxed:
                raise UnitResolutionError(
                    f"unit {node.path}: no output sensor could be placed"
                )
            return None
        return Unit(name=node.path, level=node.level, inputs=inputs, outputs=outputs)

    def _resolve_input(
        self, tree: SensorTree, unit_node: TreeNode, expr: PatternExpression
    ) -> List[str]:
        topics: List[str] = []
        for target in self._related(tree, unit_node, expr):
            topic = target.sensor_topic(expr.sensor)
            if topic is not None:
                topics.append(topic)
        return topics

    @staticmethod
    def _related(
        tree: SensorTree, unit_node: TreeNode, expr: PatternExpression
    ) -> List[TreeNode]:
        """Nodes of the expression's domain on the unit's root-to-leaf
        paths.

        Derived structurally rather than by filtering the whole level:
        above the unit there is exactly one ancestor per level, at the
        unit's level only the unit itself qualifies, and below it a
        depth-pruned subtree walk enumerates the descendants.  This keeps
        mass instantiation (thousands of units per pattern, Section
        III-C) linear in the output instead of quadratic in the tree.
        """
        if expr.anchor == "unit":
            return [unit_node]
        level = tree.resolve_level(expr.anchor, expr.offset)
        if level == unit_node.level:
            candidates = [unit_node]
        elif level < unit_node.level:
            node = unit_node
            while node is not None and node.level > level:
                node = node.parent
            candidates = [node] if node is not None and node.level == level else []
        else:
            candidates = []
            stack = [unit_node]
            while stack:
                node = stack.pop()
                if node.level == level:
                    candidates.append(node)
                    continue
                stack.extend(node.children.values())
            candidates.reverse()
        return [n for n in candidates if expr.matches_node(n)]


def resolve_job_unit(
    tree: SensorTree,
    job_id: str,
    node_paths: Sequence[str],
    inputs: Sequence,
    output_names: Sequence[str],
    output_root: str = "/jobs",
    publish_outputs: bool = True,
    relaxed: bool = False,
) -> Unit:
    """Build a unit for one job (Section V-C: job operator plugins).

    Input expressions resolve against *each allocated node's* subtree —
    a ``<bottomup>cpi`` input on a 32-node job collects the sensor from
    every CPU of every allocated node.  Output sensors live under
    ``<output_root>/<job_id>/``, so per-job time series are ordinary
    sensors like everything else.
    """
    exprs = [
        e if isinstance(e, PatternExpression) else PatternExpression.parse(e)
        for e in inputs
    ]
    input_topics: List[str] = []
    for path in node_paths:
        node = tree.node(path)
        if node is None:
            if relaxed:
                continue
            raise UnitResolutionError(f"job {job_id}: unknown node {path}")
        for expr in exprs:
            for target in UnitResolver._related(tree, node, expr):
                topic = target.sensor_topic(expr.sensor)
                if topic is not None:
                    input_topics.append(topic)
    if not input_topics and not relaxed:
        raise UnitResolutionError(
            f"job {job_id}: no input sensor resolved on nodes {list(node_paths)}"
        )
    base = output_root.rstrip("/")
    outputs = [
        Sensor(
            topic=f"{base}/{job_id}/{name}",
            publish=publish_outputs,
            is_operator_output=True,
        )
        for name in output_names
    ]
    return Unit(
        name=f"{base}/{job_id}",
        level=-1,
        inputs=input_topics,
        outputs=outputs,
        tag=job_id,
    )
