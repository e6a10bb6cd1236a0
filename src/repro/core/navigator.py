"""The Sensor Navigator (Section V-B).

The Query Engine exposes a navigator object that maintains the tree
representation of the sensor space, letting plugins discover which
sensors are available and where they stand in the hierarchy.  The
navigator wraps a :class:`~repro.core.tree.SensorTree` with the
exploration queries operators actually need: children/parent walks,
level queries, subtree sensor listings, and regex search.
"""

from __future__ import annotations

import re
from typing import Iterable, List, Optional

from repro.common.errors import QueryError
from repro.core.tree import SensorTree, TreeNode


class SensorNavigator:
    """Hierarchy-aware view over the monitored sensor space.

    A Query Engine's navigator keeps one tree for life: the engine adds
    to it in place as its host gains sensors and as operators declare
    their outputs (DESIGN.md, "How the sensor space grows").
    """

    def __init__(self, tree: Optional[SensorTree] = None) -> None:
        self._tree = tree if tree is not None else SensorTree()

    @classmethod
    def from_topics(cls, topics: Iterable[str]) -> "SensorNavigator":
        """Build a navigator directly from sensor topics."""
        return cls(SensorTree.from_topics(topics))

    @property
    def tree(self) -> SensorTree:
        """The underlying sensor tree (shared, not copied)."""
        return self._tree

    @property
    def generation(self) -> int:
        """Sensor-space generation: the tree's change counter.

        Compiled query plans compare this value to decide staleness;
        it moves only when the tree really changes, so loading a block
        that adds nothing recompiles nothing.
        """
        return self._tree.generation

    def rebuild(self, topics: Iterable[str]) -> None:
        """Start a *standalone* navigator over from ``topics``.

        Query Engines never call this — their tree grows in place.  The
        fresh tree counts on from the old one's generation, so a plan
        compiled before the rebuild can never look current after it.
        """
        tree = SensorTree.from_topics(topics)
        tree._generation += self._tree.generation + 1
        self._tree = tree

    # ------------------------------------------------------------------
    # Navigation
    # ------------------------------------------------------------------

    def _node_or_raise(self, path: str) -> TreeNode:
        node = self._tree.node(path)
        if node is None:
            raise QueryError(f"no component {path!r} in the sensor tree")
        return node

    def has_sensor(self, topic: str) -> bool:
        """Whether a full sensor topic exists."""
        return self._tree.has_sensor(topic)

    def sensors_of(self, component: str) -> List[str]:
        """Topics of the sensors attached directly to ``component``."""
        return sorted(self._node_or_raise(component).sensors.values())

    def subtree_sensors(self, component: str) -> List[str]:
        """Topics of all sensors at or below ``component``."""
        node = self._node_or_raise(component)
        out: List[str] = []
        for n in node.iter_subtree():
            out.extend(n.sensors.values())
        return sorted(out)

    def children(self, component: str) -> List[str]:
        """Paths of the child components of ``component``."""
        return sorted(c.path for c in self._node_or_raise(component).children.values())

    def parent(self, component: str) -> Optional[str]:
        """Path of the parent component, or None at the top level."""
        node = self._node_or_raise(component)
        if node.parent is None or node.parent.level < 0:
            return None
        return node.parent.path

    def level_of(self, component: str) -> int:
        """Absolute tree level of a component (0 = top)."""
        return self._node_or_raise(component).level

    def components_at_level(self, level: int) -> List[str]:
        """Paths of every component at an absolute level."""
        return sorted(n.path for n in self._tree.nodes_at_level(level))

    @property
    def depth(self) -> int:
        """The tree's deepest component level."""
        return self._tree.max_level

    def search_sensors(self, pattern: str) -> List[str]:
        """All sensor topics whose full topic matches a regex."""
        try:
            rx = re.compile(pattern)
        except re.error as exc:
            raise QueryError(f"bad search pattern {pattern!r}: {exc}") from exc
        return sorted(
            t for t in self._tree.all_sensor_topics() if rx.search(t)
        )

    def common_ancestor(self, path_a: str, path_b: str) -> str:
        """Deepest component containing both paths (``/`` if disjoint)."""
        a = self._node_or_raise(path_a)
        b = self._node_or_raise(path_b)
        a_chain = [a] + list(a.ancestors())
        a_set = {id(n) for n in a_chain}
        node: Optional[TreeNode] = b
        while node is not None and node.level >= 0:
            if id(node) in a_set:
                return node.path
            node = node.parent
        return "/"
