"""The sensor tree (Section III-A).

Sensor topics are file-system-like paths; splitting them yields a tree
whose internal nodes are system components (racks, chassis, nodes, CPUs)
and whose leaves are sensors.  Components may carry both sensors and
child components (a chassis has a ``power`` sensor *and* contains
servers, as in Figure 2).

Levels are numbered top-down starting at 0 for the children of the root;
the root itself is excluded from the representation, exactly as the
paper specifies for pattern navigation.  ``topdown`` therefore refers to
level 0 and ``bottomup`` to ``max_level``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Set

from repro.common.errors import TopicError
from repro.common.topics import join_topic, normalize_topic, split_topic


class TreeNode:
    """One component in the sensor tree.

    Attributes:
        name: the node's own path segment (e.g. ``cpu07``).
        path: full component path (e.g. ``/rack00/chassis01/node03/cpu07``).
        level: 0-based depth below the root (root itself has level -1).
        children: child components by segment name.
        sensors: sensor names attached to this component mapped to their
            full topics.
    """

    __slots__ = ("name", "path", "level", "parent", "children", "sensors")

    def __init__(self, name: str, path: str, level: int, parent: Optional["TreeNode"]):
        self.name = name
        self.path = path
        self.level = level
        self.parent = parent
        self.children: Dict[str, TreeNode] = {}
        self.sensors: Dict[str, str] = {}

    def sensor_topic(self, name: str) -> Optional[str]:
        """Full topic of an attached sensor, or None."""
        return self.sensors.get(name)

    def iter_subtree(self) -> Iterator["TreeNode"]:
        """This node and every descendant, pre-order."""
        yield self
        for child in self.children.values():
            yield from child.iter_subtree()

    def ancestors(self) -> Iterator["TreeNode"]:
        """Every proper ancestor, nearest first (excludes the root)."""
        node = self.parent
        while node is not None and node.level >= 0:
            yield node
            node = node.parent

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TreeNode({self.path!r}, level={self.level})"


class SensorTree:
    """Tree representation of a monitored system's sensor space.

    Built incrementally from sensor topics (:meth:`add_sensor`) or in
    bulk (:meth:`from_topics`), and grown the same way for as long as it
    lives: a host's tree is never rebuilt, new topics are added to it in
    place (DESIGN.md, "How the sensor space grows").  Units resolved
    against it hold topic strings and sensors, never tree nodes, so
    growth leaves them as they are.  Lookups used by pattern resolution
    — nodes at a level, node by path — are O(1) via indexes maintained
    on insertion.
    """

    def __init__(self) -> None:
        self.root = TreeNode("", "/", -1, None)
        self._by_path: Dict[str, TreeNode] = {"/": self.root}
        self._by_level: Dict[int, List[TreeNode]] = {}
        self._topics: Set[str] = set()
        self._generation = 0

    @property
    def generation(self) -> int:
        """Change counter: moves when a sensor or component is really
        added or removed, and only then.

        Compiled query plans and other structures derived from the tree
        record the generation they were built against and treat any
        difference as staleness; re-adding a topic the tree already
        holds changes nothing and invalidates nothing.
        """
        return self._generation

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_topics(cls, topics: Iterable[str]) -> "SensorTree":
        """Build a tree from an iterable of full sensor topics."""
        tree = cls()
        for topic in topics:
            tree.add_sensor(topic)
        return tree

    def _ensure_component(self, parts: List[str]) -> TreeNode:
        node = self.root
        for depth, seg in enumerate(parts):
            child = node.children.get(seg)
            if child is None:
                path = join_topic(parts[: depth + 1])
                child = TreeNode(seg, path, depth, node)
                node.children[seg] = child
                self._by_path[path] = child
                self._by_level.setdefault(depth, []).append(child)
            node = child
        return node

    def add_sensor(self, topic: str) -> TreeNode:
        """Insert a sensor topic; creates missing component nodes.

        The last topic segment becomes a sensor on the component named
        by the preceding segments; a single-segment topic becomes a
        sensor on the root (the paper's root holds e.g. ``db-uptime``).

        A topic whose last segment already names a child component is
        refused with :class:`TopicError` before anything is touched: the
        tree, its topic set and ``generation`` stay as they were.
        """
        parts = split_topic(topic)
        name = parts[-1]
        component = self._by_path.get(join_topic(parts[:-1]))
        if component is None:
            component = self._ensure_component(parts[:-1])
        elif name in component.children:
            raise TopicError(
                f"{topic}: segment {name!r} is already a component node"
            )
        topic = join_topic(parts)
        if topic not in self._topics:
            self._topics.add(topic)
            component.sensors[name] = topic
            self._generation += 1
        return component

    def add_component(self, path: str) -> TreeNode:
        """Insert a (possibly sensor-less) component node."""
        known = len(self._by_path)
        node = self._ensure_component(split_topic(path))
        if len(self._by_path) != known:
            self._generation += 1
        return node

    def remove_sensor(self, topic: str) -> bool:
        """Remove a sensor; empty components are retained (cheap, and
        unit resolution only looks at levels/sensors)."""
        parts = split_topic(topic)
        topic = join_topic(parts)
        if topic not in self._topics:
            return False
        self._topics.remove(topic)
        del self._by_path[join_topic(parts[:-1])].sensors[parts[-1]]
        self._generation += 1
        return True

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------

    @property
    def max_level(self) -> int:
        """Deepest component level (the ``bottomup`` level); -1 if empty."""
        return max(self._by_level.keys(), default=-1)

    @property
    def n_sensors(self) -> int:
        """Number of distinct sensor topics in the tree."""
        return len(self._topics)

    def node(self, path: str) -> Optional[TreeNode]:
        """Component node by canonical path (``/`` for the root)."""
        if path in ("", "/"):
            return self.root
        try:
            return self._by_path.get(join_topic(split_topic(path)))
        except TopicError:
            return None

    def has_sensor(self, topic: str) -> bool:
        """Whether a full sensor topic exists (canonical spellings are
        answered from the topic set without splitting the path)."""
        return topic in self._topics or normalize_topic(topic) in self._topics

    def nodes_at_level(self, level: int) -> List[TreeNode]:
        """All component nodes at an absolute level (0 = top)."""
        return list(self._by_level.get(level, ()))

    def resolve_level(self, anchor: str, offset: int) -> int:
        """Translate a (anchor, offset) pair into an absolute level.

        ``topdown+k`` maps to level ``k``; ``bottomup-k`` maps to
        ``max_level - k``.  Raises :class:`TopicError` for levels outside
        the tree.
        """
        if anchor == "topdown":
            level = offset
        elif anchor == "bottomup":
            level = self.max_level - offset
        else:
            raise TopicError(f"unknown level anchor {anchor!r}")
        if not (0 <= level <= self.max_level):
            raise TopicError(
                f"{anchor}{offset:+d} resolves to level {level}, outside "
                f"[0, {self.max_level}]"
            )
        return level

    def all_sensor_topics(self) -> List[str]:
        """Every sensor topic in the tree, pre-order."""
        out: List[str] = []
        for node in self.root.iter_subtree():
            out.extend(node.sensors.values())
        return out

    def hierarchically_related(self, a: TreeNode, b: TreeNode) -> bool:
        """Whether two nodes lie on one root-to-leaf path (Section III-B:
        connected by an ascending or descending path), or are the same."""
        if a is b:
            return True
        hi, lo = (a, b) if a.level < b.level else (b, a)
        node = lo.parent
        while node is not None:
            if node is hi:
                return True
            node = node.parent
        return False
