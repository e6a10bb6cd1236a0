"""Network conditions for the MQTT path.

The in-process broker delivers synchronously — the idealised network.
Real deployments see management-network latency, jitter and occasional
loss between Pushers and Collect Agents; :class:`NetworkConditions`
injects exactly those effects without touching producers or consumers:
it wraps a broker, delays each publish by a (deterministic, seeded)
latency sample via one-shot scheduler tasks, and drops a configurable
fraction of messages.

This powers the placement ablation's latency analysis and robustness
tests: in-band (Pusher-side) analytics are immune to these conditions,
out-of-band (Collect-Agent-side) analytics see them — the trade-off
Section IV-a describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import ConfigError, LinkDownError
from repro.dcdb.mqtt import Broker, ReadingBatch
from repro.sanitizer import hooks
from repro.simulator.clock import TaskScheduler


@dataclass(frozen=True)
class Outage:
    """One scheduled down-window of a link.

    ``prefixes`` restricts the outage to destinations (topic prefixes):
    a per-destination partition.  ``None`` means the whole link is down.
    """

    start_ns: int
    end_ns: int
    prefixes: Optional[Tuple[str, ...]] = None

    def covers(self, at_ns: int, topic: Optional[str] = None) -> bool:
        """Whether this outage refuses ``topic`` at time ``at_ns``.

        With ``topic=None`` only whole-link outages match — a partition
        cannot answer "is the link down" without knowing the
        destination.
        """
        if not (self.start_ns <= at_ns < self.end_ns):
            return False
        if self.prefixes is None:
            return True
        if topic is None:
            return False
        return any(topic.startswith(p) for p in self.prefixes)


class NetworkConditions:
    """A lossy, delaying link in front of a broker.

    Producers call :meth:`publish` exactly as they would on the broker;
    delivery happens when the simulation clock reaches the send time
    plus a sampled latency.  Messages may be dropped.  Ordering is
    whatever the latency samples induce (late messages genuinely arrive
    late, as on a real network; the cache/storage layers already drop
    stale out-of-order readings).

    Args:
        broker: the destination broker.
        scheduler: task scheduler driving deliveries.
        latency_ns: mean one-way latency.
        jitter_ns: uniform +/- jitter applied per message.
        drop_probability: fraction of messages silently lost.
        seed: deterministic randomness for jitter and drops.
    """

    def __init__(
        self,
        broker: Broker,
        scheduler: TaskScheduler,
        latency_ns: int = 0,
        jitter_ns: int = 0,
        drop_probability: float = 0.0,
        seed: int = 0,
    ) -> None:
        if latency_ns < 0 or jitter_ns < 0:
            raise ConfigError("latency/jitter must be non-negative")
        if not (0.0 <= drop_probability < 1.0):
            raise ConfigError(
                f"drop_probability must be in [0, 1): {drop_probability}"
            )
        if jitter_ns > latency_ns:
            raise ConfigError("jitter cannot exceed the mean latency")
        self.broker = broker
        self.scheduler = scheduler
        self.latency_ns = int(latency_ns)
        self.jitter_ns = int(jitter_ns)
        self.drop_probability = float(drop_probability)
        self._rng = np.random.default_rng(seed)
        # Guards the counters and the RNG: the link is shared by every
        # Pusher on the deployment, and under a WallClockDriver those
        # publishes arrive from multiple threads.  Never held across
        # ``broker.publish`` — the fan-out runs subscriber callbacks of
        # unbounded cost (see rule R002).
        self._lock = hooks.make_lock("NetworkConditions")
        self.sent = 0
        self.dropped = 0
        self.delivered = 0
        #: Publishes refused (not silently dropped) by a down-window.
        self.refused = 0
        self._outages: List[Outage] = []

    # ------------------------------------------------------------------
    # Outages and partitions
    # ------------------------------------------------------------------

    def schedule_outage(
        self,
        start_ns: int,
        end_ns: int,
        destinations: Optional[Sequence[str]] = None,
    ) -> Outage:
        """Declare a down-window of the link.

        Publishes issued inside ``[start_ns, end_ns)`` raise
        :class:`LinkDownError` — the producer is *told* its message was
        refused, unlike probabilistic drops which model silent loss.
        ``destinations`` restricts the outage to topic prefixes (a
        per-destination partition); ``None`` takes the whole link down.
        Messages already in flight when the outage starts still arrive:
        they were on the wire.
        """
        if start_ns >= end_ns:
            raise ConfigError(
                f"outage must end after it starts: [{start_ns}, {end_ns})"
            )
        prefixes = None
        if destinations is not None:
            if not destinations:
                raise ConfigError("outage destinations must be non-empty")
            prefixes = tuple(str(d) for d in destinations)
        outage = Outage(int(start_ns), int(end_ns), prefixes)
        with self._lock:
            self._outages.append(outage)
            self._outages.sort(key=lambda o: o.start_ns)
        return outage

    def schedule_random_outages(
        self,
        count: int,
        horizon_ns: int,
        mean_duration_ns: int,
        destinations: Optional[Sequence[str]] = None,
    ) -> List[Outage]:
        """Seed ``count`` deterministic down-windows over ``horizon_ns``.

        Start times are uniform over the horizon and durations
        exponential around the mean, both drawn from the link's seeded
        RNG — the same seed always produces the same chaos schedule.
        """
        if count < 1 or horizon_ns <= 0 or mean_duration_ns <= 0:
            raise ConfigError(
                "random outages need count >= 1 and positive horizon/duration"
            )
        now = self.scheduler.clock.now
        with self._lock:
            starts = np.sort(self._rng.uniform(0, horizon_ns, size=count))
            durations = self._rng.exponential(mean_duration_ns, size=count)
        return [
            self.schedule_outage(
                now + int(start),
                now + int(start) + max(1, int(duration)),
                destinations=destinations,
            )
            for start, duration in zip(starts, durations)
        ]

    def _refusing_outage(
        self, topic: Optional[str], at_ns: int
    ) -> Optional[Outage]:
        """The first outage covering (topic, at_ns); callers hold _lock
        or accept a racy read (query API)."""
        for outage in self._outages:
            if outage.start_ns > at_ns:
                break  # sorted by start; nothing later can cover at_ns
            if outage.covers(at_ns, topic):
                return outage
        return None

    def is_up(
        self, topic: Optional[str] = None, at_ns: Optional[int] = None
    ) -> bool:
        """Whether a publish to ``topic`` would be accepted at ``at_ns``.

        ``topic=None`` asks about the link as a whole (per-destination
        partitions do not count); ``at_ns`` defaults to now.
        """
        when = self.scheduler.clock.now if at_ns is None else int(at_ns)
        with self._lock:
            return self._refusing_outage(topic, when) is None

    def link_state(self, topic: Optional[str] = None) -> dict:
        """Queryable link status: up/down, the covering outage, the next
        scheduled down-window, and the delivery counters."""
        now = self.scheduler.clock.now
        with self._lock:
            current = self._refusing_outage(topic, now)
            upcoming = [
                o.start_ns
                for o in self._outages
                if o.start_ns > now
                and (o.prefixes is None or topic is None
                     or o.covers(o.start_ns, topic))
            ]
            return {
                "up": current is None,
                "now_ns": now,
                "down_until_ns": current.end_ns if current else None,
                "next_outage_ns": min(upcoming) if upcoming else None,
                "sent": self.sent,
                "delivered": self.delivered,
                "dropped": self.dropped,
                "refused": self.refused,
                "in_flight": self.sent - self.dropped - self.delivered,
            }

    # ------------------------------------------------------------------

    def publish(self, topic: str, value: float, timestamp: int) -> None:
        """Send one message through the link: a batch of one."""
        self.publish_batch(ReadingBatch((topic,), (timestamp,), (value,)))

    def publish_batch(self, batch: ReadingBatch) -> None:
        """Send a :class:`ReadingBatch` through the link, in list order.

        Each message meets the link on its own — refused by an outage
        covering its destination (never counted as sent), dropped, or
        delayed by its latency sample, one RNG draw order whatever the
        batch size.  What is due at one instant reaches the broker as
        one batch, in list order.
        When any destination is down, one :class:`LinkDownError` is
        raised afterwards carrying the refused subset in ``refused``, so
        store-and-forward producers spill exactly what was not accepted.
        """
        now = self.scheduler.clock.now
        refused: List[int] = []
        arrivals: Dict[int, List[int]] = {}  # due -> indices, list order
        until = None
        with self._lock:
            for i, topic in enumerate(batch.topics):
                outage = self._refusing_outage(topic, now)
                if outage is not None:
                    self.refused += 1
                    refused.append(i)
                    until = max(until or 0, outage.end_ns)
                    continue
                self.sent += 1
                if (
                    self.drop_probability
                    and self._rng.random() < self.drop_probability
                ):
                    self.dropped += 1
                    continue
                due = now + self.latency_ns
                if self.jitter_ns:
                    due += int(
                        self._rng.integers(-self.jitter_ns, self.jitter_ns + 1)
                    )
                arrivals.setdefault(due, []).append(i)
        # What is due at the same instant (everything, on a jitter-free
        # link) travels on as one batch: same arrival order, one task.
        for due, indices in arrivals.items():
            arriving = batch.take(indices)
            if due == now:
                self._arrive(arriving)
            else:
                self.scheduler.add_once(
                    "net-delivery",
                    lambda ts, arriving=arriving: self._arrive(arriving),
                    due,
                )
        if refused:
            raise LinkDownError(
                f"link refused {len(refused)}/{len(batch)} messages",
                until_ns=until,
                refused=batch.take(refused),
            )

    def _arrive(self, batch: ReadingBatch) -> None:
        self.broker.publish_batch(batch)
        with self._lock:
            self.delivered += len(batch)

    # Duck-type compatibility with Broker for producers that only publish.
    def subscribe(self, *args, **kwargs):
        """Subscriptions attach to the destination broker directly."""
        return self.broker.subscribe(*args, **kwargs)

    def unsubscribe(self, sub_id: int) -> bool:
        return self.broker.unsubscribe(sub_id)

    @property
    def in_flight(self) -> int:
        """Messages sent but not yet delivered or dropped."""
        with self._lock:
            return self.sent - self.dropped - self.delivered

    def loss_rate(self) -> float:
        """Observed drop fraction so far."""
        with self._lock:
            return self.dropped / self.sent if self.sent else 0.0
