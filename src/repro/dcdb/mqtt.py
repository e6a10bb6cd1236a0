"""An in-process MQTT-style message broker.

DCDB transports all sensor data over MQTT: Pushers publish readings to
per-sensor topics, and Collect Agents subscribe and forward the stream to
the storage backend.  This reproduction keeps the same topic semantics
(slash-separated topics, ``+`` single-level and ``#`` multi-level
wildcards) but runs in-process so experiments are deterministic and
require no network stack.

The only unit of transport is the :class:`ReadingBatch`, one pass:
topics, the timestamp they share and an array of their values.  It is
what :meth:`Broker.publish_batch` takes and what a subscriber
(:meth:`Broker.subscribe_batch`) is handed; there is no per-message
publish, subscribe or retained message.  Delivery is synchronous: each
matching subscriber gets its run of the pass immediately, in list
order, subscribers in subscription order; which ones a topic reaches is
resolved once and memoised until the next (un)subscribe.  A
:class:`PassQueue` holds passes for whoever sends or drains them on
their own schedule: a Pusher's spill of refused publishes, replayed a
pass at a time, and, as a :class:`QueuedSubscriber`, a Collect Agent's
ingest queue.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.common.errors import ConfigError, TopicError
from repro.common.topics import split_topic
from repro.dcdb.cache import PlanMemo
from repro.sanitizer import hooks

#: Subscribers take whole runs of a pass, as a :class:`ReadingBatch`.
BatchHandler = Callable[["ReadingBatch"], None]

_SINGLE = "+"
_MULTI = "#"


class ReadingBatch:
    """One pass on the wire: ``topics``, the one ``timestamp`` they
    share and their float64 ``values``, in list order — what travels
    from a Pusher's pass to the Collect Agent's ingest queue, with no
    object per reading.

    The batch owns its array: the constructor copies ``values``, so a
    producer may overwrite what it handed over once the call returns.
    The runs a broker or a link cuts out of a batch (``batch[i:j]``,
    :meth:`take`) share it, and nothing writes into it.
    """

    __slots__ = ("topics", "timestamp", "values")

    def __init__(self, topics, timestamp: int, values) -> None:
        self.topics, self.timestamp = topics, timestamp
        self.values = np.array(values, dtype=np.float64)

    def __len__(self) -> int:
        return len(self.topics)

    def __getitem__(self, where: slice) -> "ReadingBatch":
        """The readings in ``where``, a slice."""
        return self._part(self.topics[where], self.values[where])

    def take(self, indices) -> "ReadingBatch":
        """The readings at ``indices``, in that order."""
        topics = self.topics
        return self._part(tuple(topics[i] for i in indices), self.values[indices])

    def _part(self, topics, values) -> "ReadingBatch":
        part = object.__new__(ReadingBatch)
        part.topics, part.timestamp, part.values = topics, self.timestamp, values
        return part


@dataclass
class _TrieNode:
    """A node in the subscription trie keyed by pattern segments; ``+``
    and ``#`` are ordinary keys, :meth:`Broker._route` interprets them."""

    children: Dict[str, "_TrieNode"] = field(default_factory=dict)
    # (subscription id, handler) pairs whose pattern ends at this node.
    handlers: List[Tuple[int, BatchHandler]] = field(default_factory=list)


class Broker:
    """Topic-tree publish/subscribe broker.

    Subscriptions are stored in a trie over topic segments so that
    resolving a topic visits only the trie paths compatible with it,
    rather than scanning every subscription — the same property a real
    MQTT broker's topic tree provides.
    """

    def __init__(self) -> None:
        self._root = _TrieNode()
        self._ids = itertools.count(1)
        self._pattern_by_id: Dict[int, List[str]] = {}
        # topic -> its subscribers' handlers in subscription order.
        # *Replaced* by subscribe_batch/unsubscribe, never cleared in place.
        self._routes: Dict[str, Tuple[BatchHandler, ...]] = {}
        #: Route runs by topics tuple (:meth:`_runs`), cleared by a
        #: subscription change.
        self.run_plans = PlanMemo()
        self.published_count = 0
        self.delivered_count = 0
        self.handler_errors = 0
        self.last_handler_errors: List[str] = []

    # ------------------------------------------------------------------
    # Subscription management
    # ------------------------------------------------------------------

    def subscribe_batch(self, pattern: str, handler: BatchHandler) -> int:
        """Register ``handler`` for topics matching ``pattern``:
        ``handler(batch)`` receives each run of matching readings as one
        :class:`ReadingBatch`.  Returns a subscription id usable with
        :meth:`unsubscribe`."""
        parts = split_topic(pattern)
        if _MULTI in parts[:-1]:
            raise TopicError(f"'#' must terminate the pattern: {pattern!r}")
        sub_id = next(self._ids)
        node = self._root
        for seg in parts:
            node = node.children.setdefault(seg, _TrieNode())
        node.handlers.append((sub_id, handler))
        self._pattern_by_id[sub_id] = parts
        self._routes = {}
        self.run_plans.clear()
        return sub_id

    def unsubscribe(self, sub_id: int) -> bool:
        """Remove a subscription; returns whether it existed."""
        parts = self._pattern_by_id.pop(sub_id, None)
        if parts is None:
            return False
        path = [self._root]
        for seg in parts:
            path.append(path[-1].children[seg])
        path[-1].handlers[:] = [
            sub for sub in path[-1].handlers if sub[0] != sub_id
        ]
        # Prune what the pattern alone kept alive, or hot-plug churn
        # grows the trie without bound.
        while len(path) > 1 and not (path[-1].children or path[-1].handlers):
            path.pop()
            del path[-1].children[parts[len(path) - 1]]
        self._routes = {}
        self.run_plans.clear()
        return True

    def subscription_count(self) -> int:
        """Number of live subscriptions."""
        return len(self._pattern_by_id)

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------

    def publish_batch(self, batch: ReadingBatch) -> int:
        """Deliver a :class:`ReadingBatch` in list order; returns the
        deliveries made.

        Every topic is resolved before anything is delivered, so one
        wildcard topic refuses the whole batch.  A subscriber gets its
        readings in list order, a run of consecutive same-route readings
        per call; the counters move per reading.
        """
        topics = batch.topics
        n = len(topics)
        if not n:
            return 0
        plan = self.run_plans.get(topics)
        if plan is None or plan[0] is not self._routes:
            plan = self._runs(topics)
        runs = plan[1]
        # Fan-out runs arbitrary subscriber callbacks of unbounded cost
        # — the in-process stand-in for a network send.  Holding a lock
        # across it is the classic lock-across-I/O hazard (rule R002).
        hooks.note_blocking("Broker.publish_batch (subscriber fan-out)")
        self.published_count += n
        delivered = 0
        for start, end, handlers in runs:
            run = batch if end - start == n else batch[start:end]
            for handler in handlers:
                try:
                    handler(run)
                except Exception as exc:
                    # A throwing subscriber must not poison the
                    # publisher or the remaining subscribers.
                    self.handler_errors += end - start
                    self.last_handler_errors = (
                        self.last_handler_errors + [f"{topics[start]}: {exc}"]
                    )[-16:]
            delivered += len(handlers) * (end - start)
        self.delivered_count += delivered
        return delivered

    def _runs(self, topics) -> tuple:
        """``topics`` cut into runs of consecutive readings with one
        route, ``(start, end, handlers)``, beside the routes table they
        were resolved against (a run cut while another thread
        subscribes is never used), kept in :attr:`run_plans` for a
        topics tuple.  Every Pusher publishes through one broker, so
        that memo grows to the routed topics (steady sequences do not
        share topics)."""
        routes_table = self._routes
        routes = [self._route(topic) for topic in topics]
        n = len(topics)
        cuts = [i for i in range(1, n) if routes[i] != routes[i - 1]]
        plan = (routes_table, [
            (start, end, routes[start])
            for start, end in zip([0] + cuts, cuts + [n])
        ])
        if type(topics) is tuple:
            memo = self.run_plans
            memo.size = max(memo.size, len(routes_table))
            memo.put(topics, plan)
        return plan

    def _route(self, topic: str) -> Tuple[BatchHandler, ...]:
        """The handlers ``topic`` reaches, resolved once per topic."""
        # Taken before the trie is read: a concurrent (un)subscribe
        # replaces the table, so a stale result lands in the orphan.
        routes = self._routes
        route = routes.get(topic)
        if route is None:
            parts = split_topic(topic)
            if _SINGLE in parts or _MULTI in parts:
                # MQTT forbids wildcard characters in publish topics;
                # letting them through would alias the subscription
                # trie's wildcard slots.  Never memoised as valid.
                raise TopicError(
                    f"wildcards not allowed in publish topic {topic!r}"
                )
            if "\0" in topic:
                # MQTT forbids U+0000 in topic names (3.1.1 §4.7.3).
                raise TopicError(f"NUL not allowed in publish topic {topic!r}")
            def under(nodes, key):
                return [n.children[key] for n in nodes if key in n.children]

            # Nodes whose pattern matches: a '#' matches here and below,
            # so every '#' child on the way down, then what full depth
            # reaches and the '#' children of that.
            matched: List[_TrieNode] = []
            level = [self._root]
            for seg in parts:
                matched += under(level, _MULTI)
                level = under(level, seg) + under(level, _SINGLE)
            matched += level + under(level, _MULTI)
            # Subscription order: ids are unique, so sorting the pairs
            # never gets as far as comparing two handlers.
            found = sorted(sub for node in matched for sub in node.handlers)
            route = routes[topic] = tuple(handler for _, handler in found)
        return route


#: What a full :class:`PassQueue` does with an arrival.
QUEUE_POLICIES = ("drop-oldest", "drop-newest")


class PassQueue:
    """A FIFO of passes (:class:`ReadingBatch`), bounded in readings.

    At ``capacity`` (``None``: unbounded) a pass is taken as if its
    readings arrived one at a time: ``drop-oldest`` evicts from the head
    to admit each (monitoring's newest-data bias, the default), cutting
    the head pass where the eviction ends; ``drop-newest`` refuses the
    arrivals that find the queue full, the tail of the pass.  Either way
    the loss lands in ``dropped``.  A plain data structure: locking is
    the owner's.
    """

    __slots__ = ("_passes", "_size", "capacity", "policy", "dropped")

    def __init__(
        self, capacity: Optional[int] = None, policy: str = "drop-oldest"
    ) -> None:
        if policy not in QUEUE_POLICIES:
            raise ConfigError(
                f"unknown queue policy {policy!r} "
                f"(expected one of {list(QUEUE_POLICIES)})"
            )
        if capacity is not None and capacity < 1:
            raise ConfigError(f"queue capacity must be positive: {capacity}")
        self._passes: Deque[ReadingBatch] = deque()
        self._size = 0  # readings
        self.capacity = capacity
        self.policy = policy
        self.dropped = 0

    def __len__(self) -> int:
        return self._size

    def push(self, batch: ReadingBatch) -> int:
        """Append a pass; returns the readings shed for it."""
        n = len(batch.topics)  # (not len(batch): one Python call a pass less)
        if self.capacity is None:  # unbounded: nothing to weigh
            if n:
                self._passes.append(batch)
                self._size += n
            return 0
        # One reading at a time, each arrival at capacity sheds one.
        shed = min(n, max(0, self._size + n - self.capacity))
        if shed and self.policy == "drop-newest":
            n -= shed
            batch = batch[:n]
        if n:
            self._passes.append(batch)
            self._size += n
        if shed and self.policy == "drop-oldest":
            self._evict(shed)
        self.dropped += shed
        return shed

    def _evict(self, count: int) -> None:
        passes = self._passes
        self._size -= count
        while count and count >= len(passes[0]):
            count -= len(passes.popleft())
        if count:
            passes[0] = passes[0][count:]

    def push_front(self, batch: ReadingBatch) -> None:
        """Put a pass back at the head (what a replay did not send),
        whatever the bound."""
        if len(batch):
            self._passes.appendleft(batch)
            self._size += len(batch)

    def pop(self) -> Optional[ReadingBatch]:
        """Remove and return the head pass, or ``None``."""
        if not self._passes:
            return None
        head = self._passes.popleft()
        self._size -= len(head)
        return head

    def pop_all(self) -> List[ReadingBatch]:
        """Remove and return every pass, oldest first."""
        passes = list(self._passes)
        self._passes.clear()
        self._size = 0
        return passes


class QueuedSubscriber:
    """A broker subscriber holding passes for deferred draining.

    Collect Agents use this to decouple broker delivery from storage
    writes: ``attach`` registers it on a broker, and ``drain`` hands the
    passes held to a consumer.  The passes wait in a :class:`PassQueue`
    (``capacity``, ``policy``), whose ``dropped`` the owning host
    exports as ``ingest_dropped_total``.  It is guarded by a
    ``hooks.make_lock`` lock — under a WallClockDriver, deliveries run
    on publisher threads concurrently with the drain.
    """

    def __init__(
        self, capacity: Optional[int] = None, policy: str = "drop-oldest"
    ) -> None:
        self.passes = PassQueue(capacity, policy)
        self._lock = hooks.make_lock("QueuedSubscriber")

    def __len__(self) -> int:
        with self._lock:
            return len(self.passes)

    @property
    def dropped(self) -> int:
        """Readings shed at capacity so far."""
        return self.passes.dropped

    def handle_batch(self, batch: ReadingBatch) -> None:
        """Broker-facing callback: enqueue a run of a pass."""
        with self._lock:
            self.passes.push(batch)

    def attach(self, broker: Broker, pattern: str) -> int:
        """Subscribe this queue to ``pattern`` on ``broker``."""
        return broker.subscribe_batch(pattern, self.handle_batch)

    def drain(self) -> List[ReadingBatch]:
        """Remove and return every queued pass, oldest first."""
        with self._lock:
            return self.passes.pop_all()
