"""An in-process MQTT-style message broker.

DCDB transports all sensor data over MQTT: Pushers publish readings to
per-sensor topics, and Collect Agents subscribe and forward the stream to
the storage backend.  This reproduction keeps the same topic semantics
(slash-separated topics, ``+`` single-level and ``#`` multi-level
wildcards, retained messages) but runs in-process so experiments are
deterministic and require no network stack.

The unit of transport is the :class:`ReadingBatch`, one pass as parallel
columns; ``publish(topic, value, ts)`` is a batch of one.  Delivery is
synchronous: each matching subscriber gets its readings immediately, in
list order, subscribers in subscription order; which ones a topic
reaches is resolved once and memoised until the next (un)subscribe.  A
:class:`QueuedSubscriber` buffers the columns for components that drain
on their own schedule, e.g. a Collect Agent batching storage writes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigError, TopicError
from repro.common.topics import split_topic
from repro.dcdb.cache import PLAN_MEMO_SIZE, remember
from repro.sanitizer import hooks

#: Callback signature for subscribers: (topic, payload, timestamp_ns).
MessageHandler = Callable[[str, float, int], None]
#: Column subscribers take whole runs: (topics, timestamps, values).
BatchHandler = Callable[[Sequence[str], Sequence[int], Sequence[float]], None]

_SINGLE = "+"
_MULTI = "#"


@dataclass(frozen=True)
class Message:
    """One published sample: a value on a topic at a timestamp."""

    topic: str
    value: float
    timestamp: int


class ReadingBatch:
    """Readings as three parallel columns, oldest first: what travels
    from a Pusher's pass to the Collect Agent's ingest queue, with no
    object per reading.  Iterating yields :class:`Message`, for the
    callers that do want them one at a time (the spill queue, tests)."""

    __slots__ = ("topics", "timestamps", "values")

    def __init__(self, topics, timestamps, values) -> None:
        self.topics, self.timestamps, self.values = topics, timestamps, values

    def __len__(self) -> int:
        return len(self.topics)

    def __iter__(self):
        return map(Message, self.topics, self.values, self.timestamps)

    def take(self, indices: Sequence[int]) -> "ReadingBatch":
        """The readings at ``indices``, in that order."""
        return ReadingBatch(*(
            [column[i] for i in indices]
            for column in (self.topics, self.timestamps, self.values)
        ))


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
        self._retained: Dict[str, Message] = {}
        self._pattern_by_id: Dict[int, List[str]] = {}
        # topic -> its subscribers' handlers in subscription order.
        # *Replaced* by subscribe/unsubscribe, never cleared in place.
        self._routes: Dict[str, Tuple[BatchHandler, ...]] = {}
        # topics tuple -> its route runs, and the routes table they
        # were cut against (see _runs).
        self._runs_memo: Dict[tuple, list] = {}
        self._runs_of_routes = self._routes
        self.published_count = 0
        self.delivered_count = 0
        self.handler_errors = 0
        self.last_handler_errors: List[str] = []

    # ------------------------------------------------------------------
    # Subscription management
    # ------------------------------------------------------------------

    def subscribe(
        self,
        pattern: str,
        handler: MessageHandler,
        replay_retained: bool = False,
    ) -> int:
        """Register ``handler`` for topics matching ``pattern``.

        Returns a subscription id usable with :meth:`unsubscribe`.  With
        ``replay_retained``, retained messages matching the pattern are
        delivered immediately.
        """

        def each(topics, timestamps, values) -> None:
            # A throwing handler must not poison the publisher, the rest
            # of its run or the remaining subscribers.
            for topic, ts, value in zip(topics, timestamps, values):
                try:
                    handler(topic, value, ts)
                except Exception as exc:
                    self._note_handler_errors(1, topic, exc)

        sub_id = self.subscribe_batch(pattern, each)
        if replay_retained:
            for msg in list(self._retained.values()):
                if each in self._route(msg.topic):
                    each((msg.topic,), (msg.timestamp,), (msg.value,))
        return sub_id

    def subscribe_batch(self, pattern: str, handler: BatchHandler) -> int:
        """Register a column subscriber: ``handler(topics, timestamps,
        values)`` receives each run of matching readings as a whole."""
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
        return True

    def subscription_count(self) -> int:
        """Number of live subscriptions."""
        return len(self._pattern_by_id)

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------

    def publish(
        self, topic: str, value: float, timestamp: int, retain: bool = False
    ) -> int:
        """Deliver a sample to all matching subscribers (a batch of one)
        and return how many there were.  With ``retain`` the message is
        stored and replayed to late subscribers that request it."""
        if retain:
            self._route(topic)  # a wildcard topic is never retained
            self._retained[topic] = Message(topic, value, timestamp)
        return self.publish_batch(
            ReadingBatch((topic,), (timestamp,), (value,))
        )

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
        runs = self._runs(topics)
        # Fan-out runs arbitrary subscriber callbacks of unbounded cost
        # — the in-process stand-in for a network send.  Holding a lock
        # across it is the classic lock-across-I/O hazard (rule R002).
        hooks.note_blocking("Broker.publish_batch (subscriber fan-out)")
        self.published_count += n
        timestamps, values = batch.timestamps, batch.values
        delivered = 0
        for start, end, handlers in runs:
            run = (topics[start:end], timestamps[start:end], values[start:end])
            for handler in handlers:
                try:
                    handler(*run)
                except Exception as exc:
                    self._note_handler_errors(end - start, topics[start], exc)
            delivered += len(handlers) * (end - start)
        self.delivered_count += delivered
        return delivered

    def _runs(self, topics) -> List[Tuple[int, int, Tuple[BatchHandler, ...]]]:
        """``topics`` cut into runs of consecutive readings with one
        route: ``(start, end, handlers)``.  Memoised per topics *tuple*
        (what a Pusher's write plan hands over every pass) for as long as
        the routes table they were resolved against is the live one.
        Every Pusher publishes through one broker, so the memo holds as
        many tuples as there are routed topics (steady sequences — one
        per plugin or operator of each Pusher — do not share topics)."""
        routes_table = self._routes
        if self._runs_of_routes is not routes_table:
            self._runs_memo = {}
            self._runs_of_routes = routes_table
        memo = self._runs_memo
        runs = memo.get(topics) if type(topics) is tuple else None
        if runs is None:
            routes = [self._route(topic) for topic in topics]
            n = len(topics)
            cuts = [i for i in range(1, n) if routes[i] != routes[i - 1]]
            runs = [
                (start, end, routes[start])
                for start, end in zip([0] + cuts, cuts + [n])
            ]
            if type(topics) is tuple:
                remember(memo, topics, runs, max(PLAN_MEMO_SIZE, len(routes_table)))
        return runs

    def retained(self, topic: str) -> Optional[Message]:
        """The retained message on ``topic``, if any."""
        return self._retained.get(topic)

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

    def _note_handler_errors(self, count: int, topic: str, exc) -> None:
        self.handler_errors += count
        self.last_handler_errors = (
            self.last_handler_errors + [f"{topic}: {exc}"]
        )[-16:]


#: Backpressure policies a bounded :class:`QueuedSubscriber` accepts.
QUEUE_POLICIES = ("drop-oldest", "drop-newest")


class QueuedSubscriber:
    """A subscriber that buffers readings for deferred draining.

    Collect Agents use this to decouple broker delivery from storage
    writes: ``attach`` registers the queue on a broker, and ``drain``
    hands the accumulated columns to a consumer.

    With ``maxlen`` the queue is bounded, counted in readings: at
    capacity, ``drop-oldest`` evicts the head to admit an arrival
    (monitoring's newest-data bias, the default) while ``drop-newest``
    refuses it.  Either way the loss lands in ``dropped``, which the
    owning host exports as ``ingest_dropped_total``.  All queue state is
    guarded by a ``hooks.make_lock`` lock — under a WallClockDriver,
    deliveries run on publisher threads concurrently with the drain.
    """

    def __init__(
        self, maxlen: Optional[int] = None, policy: str = "drop-oldest"
    ) -> None:
        if policy not in QUEUE_POLICIES:
            raise ConfigError(
                f"unknown queue policy {policy!r} "
                f"(expected one of {list(QUEUE_POLICIES)})"
            )
        if maxlen is not None and maxlen < 1:
            raise ConfigError(f"queue maxlen must be positive: {maxlen}")
        #: Pending (topics, timestamps, values), oldest first.
        self._columns: Tuple[list, list, list] = ([], [], [])
        self.dropped = 0
        self._maxlen = maxlen
        self.policy = policy
        self._lock = hooks.make_lock("QueuedSubscriber")

    def __len__(self) -> int:
        with self._lock:
            return len(self._columns[0])

    def handler(self, topic: str, value: float, timestamp: int) -> None:
        """Enqueue one reading: a run of one."""
        self.handle_batch((topic,), (timestamp,), (value,))

    def handle_batch(self, topics, timestamps, values) -> None:
        """Broker-facing callback: enqueue a run of readings.  The bound
        applies per reading, as if they had arrived one by one."""
        arriving = (topics, timestamps, values)
        with self._lock:
            over = 0
            if self._maxlen is not None:
                over = max(0, len(self._columns[0]) + len(topics) - self._maxlen)
            self.dropped += over
            if over and self.policy == "drop-newest":
                arriving = [col[: len(col) - over] for col in arriving]
                over = 0  # refused at the door: nothing to evict
            for pending, col in zip(self._columns, arriving):
                pending.extend(col)
                del pending[:over]

    def attach(self, broker: Broker, pattern: str) -> int:
        """Subscribe this queue to ``pattern`` on ``broker``."""
        return broker.subscribe_batch(pattern, self.handle_batch)

    def drain(self, limit: Optional[int] = None) -> ReadingBatch:
        """Remove and return up to ``limit`` queued readings (all if
        None), oldest first."""
        with self._lock:
            taken = [col[:limit] for col in self._columns]
            for col in self._columns:
                del col[:limit]
        return ReadingBatch(*taken)
