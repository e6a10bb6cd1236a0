"""Model-based equivalence test of the ingest path.

Random programs — publishes of 1…N readings (ordered, reordered and
duplicate timestamps, several topics per batch), clock steps across a
prefix-partition outage, spill replays and drains at random points — run
through a real ``Pusher`` → ``NetworkConditions`` → ``Broker`` →
``CollectAgent`` and through :class:`Model`, a deliberately trivial
reference that handles one message at a time with lists and dicts and
nothing but the documented drop rules.  The batch is the unit of the
real path; the answers must be those of the per-message one.  The one
place the reference knows about passes is the spill: a replay sends the
head pass by the live rule — what the link accepts goes, what it
refuses goes back to the head.
"""

from collections import Counter, defaultdict
from itertools import groupby

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import LinkDownError
from repro.common.timeutil import NS_PER_SEC
from repro.dcdb import Broker, CollectAgent, Pusher
from repro.dcdb.mqtt import ReadingBatch
from repro.dcdb.network import NetworkConditions
from repro.dcdb.sensor import Sensor, SensorColumns
from repro.simulator.clock import TaskScheduler

TOPICS = ["/up/a", "/up/b", "/down/a", "/down/b"]
OUTAGE = (10, 20)  # [start, end) of the partition on "/down", in ns
WINDOW_NS = 40  # agent cache window: small, so rings grow *and* wrap
NEVER = 10**15  # periodic drains and spill retries are program steps
HORIZON = 10**18
#: The topics of the steady producers (see ``Rig.publish_steady``).
STEADY = (TOPICS, ["/down/b", "/up/a"], ["/up/b", "/down/a"])


class Model:
    """The ingest path one message at a time; a spilled message is
    kept with the pass it was spilled in."""

    def __init__(self, maxlen, queue_policy, spill_capacity, spill_policy):
        self.maxlen, self.queue_policy = maxlen, queue_policy
        self.spill_capacity, self.spill_policy = spill_capacity, spill_policy
        self.now = 0
        self.spill, self.queue, self.seen = [], [], []  # spill: (pass, msg)
        self.passes = 0
        self.count = Counter()
        self.pusher_cache = defaultdict(list)
        self.cache = defaultdict(list)
        self.capacity, self.gap = {}, {}
        self.storage = defaultdict(list)

    def _down(self, topic):
        return topic.startswith("/down") and OUTAGE[0] <= self.now < OUTAGE[1]

    def _spill(self, msg):
        if len(self.spill) >= self.spill_capacity:
            self.count["spill_dropped"] += 1
            if self.spill_policy == "drop-newest":
                return
            self.spill.pop(0)
        self.spill.append((self.passes, msg))
        self.count["spill_buffered"] += 1

    def _send(self, msg):
        self.count["sent"] += 1
        self.count["link_delivered"] += 1
        self.count["published"] += 1
        self.count["delivered"] += 2  # the agent's queue and the recorder
        self.seen.append(msg)
        if self.maxlen is not None and len(self.queue) >= self.maxlen:
            self.count["ingest_dropped"] += 1
            if self.queue_policy == "drop-newest":
                return
            self.queue.pop(0)
        self.queue.append(msg)

    def publish(self, ts, readings):
        """One Pusher pass: every reading cached, the batch lining up
        behind a non-empty spill, else each message meeting the link."""
        self.passes += 1
        behind_spill = bool(self.spill)
        for topic, value in readings:
            cached = self.pusher_cache[topic]
            if not cached or ts >= cached[-1][0]:
                cached.append((ts, value))
            if behind_spill:
                self._spill((topic, ts, value))
            elif self._down(topic):
                self.count["refused"] += 1
                self.count["link_refusals"] += 1
                self._spill((topic, ts, value))
            else:
                self._send((topic, ts, value))

    def publish_raw(self, messages):
        """A producer without store-and-forward: refusals are lost."""
        for msg in messages:
            if self._down(msg[0]):
                self.count["refused"] += 1
            else:
                self._send(msg)

    def replay(self):
        while self.spill:
            head = self.spill[0][0]
            refused = []
            while self.spill and self.spill[0][0] == head:
                entry = self.spill.pop(0)
                if self._down(entry[1][0]):
                    self.count["refused"] += 1
                    self.count["link_refusals"] += 1
                    refused.append(entry)
                else:
                    self._send(entry[1])
                    self.count["spill_replayed"] += 1
            if refused:
                self.spill[:0] = refused
                return

    @staticmethod
    def _capacity(gap):
        return min(max(2, WINDOW_NS * 12 // (gap * 10) + 2), 1_000_000)

    def drain(self):
        for topic, ts, value in self.queue:
            ring = self.cache[topic]
            if topic not in self.capacity:
                self.capacity[topic] = self._capacity(NS_PER_SEC)
            elif ts > ring[-1][0]:
                gap = ts - ring[-1][0]
                if gap < self.gap.get(topic, HORIZON):
                    self.gap[topic] = gap
                    self.capacity[topic] = max(
                        self.capacity[topic], self._capacity(gap)
                    )
            if ring and ts < ring[-1][0]:
                self.count["stale_drops"] += 1
            else:
                ring.append((ts, value))
                del ring[: -self.capacity[topic]]
            series = self.storage[topic]
            if series and ts < series[-1][0]:
                self.count["ooo_dropped"] += 1
            else:
                series.append((ts, value))
        self.count["forwarded"] += len(self.queue)
        self.queue = []


class Rig:
    """The real thing, driven by the same program."""

    def __init__(self, maxlen, queue_policy, spill_capacity, spill_policy):
        self.scheduler = TaskScheduler()
        self.broker = Broker()
        self.agent = CollectAgent(
            "agent", self.broker, self.scheduler, cache_window_ns=WINDOW_NS,
            drain_interval_ns=NEVER, ingest_queue_capacity=maxlen,
            ingest_policy=queue_policy,
        )
        self.seen = []
        self.broker.subscribe_batch("/#", lambda batch: self.seen.extend(
            (topic, batch.timestamp, value)
            for topic, value in zip(batch.topics, batch.values.tolist())
        ))
        self.link = NetworkConditions(self.broker, self.scheduler)
        self.link.schedule_outage(*OUTAGE, destinations=["/down"])
        self.pusher = Pusher(
            "/n0", self.link, self.scheduler, spill_capacity=spill_capacity,
            spill_policy=spill_policy, retry_base_ns=NEVER, retry_max_ns=NEVER,
        )
        self.sensors = {topic: Sensor(topic) for topic in TOPICS}
        # The steady producers: two Pusher sequences and a raw topics
        # tuple, each the same object every pass.
        self.steady = [
            tuple(self.sensors[topic] for topic in STEADY[0]),
            tuple(self.sensors[topic] for topic in STEADY[1]),
        ]
        self.raw_topics = tuple(STEADY[2])
        self.scheduler.run_until(0)  # the drain task's firing at t=0

    def publish(self, ts, readings):
        self.pusher.store_readings_batch(ts, SensorColumns(
            tuple(self.sensors[topic] for topic, _ in readings),
            [value for _, value in readings],
        ))

    def publish_raw(self, messages):
        # One batch per run of one timestamp, in list order.
        for ts, run in groupby(messages, key=lambda m: m[1]):
            run = list(run)
            try:
                self.link.publish_batch(ReadingBatch(
                    [m[0] for m in run], ts, [m[2] for m in run]
                ))
            except LinkDownError:
                pass

    def publish_steady(self, ts, passes, fresh):
        """Every producer at one shared ``ts``: the Pusher's steady
        sequences, then the raw producer's pass — each the same tuple as
        last time, or (``fresh``) an equal one built anew."""
        *pushed, raw = passes
        for seq, values in zip(self.steady, pushed):
            if fresh:
                seq = tuple(list(seq))
            self.pusher.store_readings_batch(ts, SensorColumns(seq, values))
        topics = tuple(list(self.raw_topics)) if fresh else self.raw_topics
        try:
            self.link.publish_batch(ReadingBatch(topics, ts, raw))
        except LinkDownError:
            pass

    def counters(self):
        telemetry = self.pusher.telemetry
        return {
            "published": self.broker.published_count,
            "delivered": self.broker.delivered_count,
            "forwarded": self.agent.forwarded_count,
            "ingest_dropped": self.agent.ingest_dropped,
            "stale_drops": sum(
                c.stale_drops for c in self.agent.caches.values()
            ),
            "ooo_dropped": self.agent.storage.ooo_dropped,
            "spill_buffered": telemetry.get("spill_buffered_total").value,
            "spill_replayed": telemetry.get("spill_replayed_total").value,
            "spill_dropped": telemetry.get("spill_dropped_total").value,
            "link_refusals": telemetry.get("link_refusals_total").value,
            "sent": self.link.sent,
            "refused": self.link.refused,
            "link_delivered": self.link.delivered,
        }


def _contents(cache):
    view = cache.view_absolute(-HORIZON, HORIZON)
    return list(zip(view.timestamps().tolist(), view.values().tolist()))


_readings = st.lists(
    st.tuples(st.sampled_from(TOPICS), st.integers(0, 30)),
    min_size=1, max_size=9,
)
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("publish"), st.integers(0, 30), _readings),
        st.tuples(st.just("raw"), _readings),
        st.tuples(st.just("advance"), st.integers(1, 6)),
        st.tuples(st.just("replay")),
        st.tuples(st.just("drain")),
        st.tuples(st.just("steady"), st.integers(0, 30), st.just(False)),
        st.tuples(st.just("steady"), st.integers(0, 30), st.booleans()),
    ),
    min_size=1, max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(
    steps=_steps,
    maxlen=st.sampled_from([None, 3, 8]),
    queue_policy=st.sampled_from(["drop-oldest", "drop-newest"]),
    spill_capacity=st.sampled_from([2, 6, 100]),
    spill_policy=st.sampled_from(["drop-oldest", "drop-newest"]),
)
def test_batched_path_matches_per_message_reference(
    steps, maxlen, queue_policy, spill_capacity, spill_policy
):
    knobs = (maxlen, queue_policy, spill_capacity, spill_policy)
    rig, model = Rig(*knobs), Model(*knobs)
    value = 0.0  # every reading carries a distinct value
    for step in steps + [("drain",)]:
        if step[0] == "publish":
            readings = []
            for topic, _ in step[2]:
                value += 1.0
                readings.append((topic, value))
            rig.publish(step[1], readings)
            model.publish(step[1], readings)
        elif step[0] == "raw":
            messages = []
            for topic, ts in step[1]:
                value += 1.0
                messages.append((topic, ts, value))
            rig.publish_raw(messages)
            model.publish_raw(messages)
        elif step[0] == "advance":
            model.now += step[1]
            rig.scheduler.run_until(model.now)
        elif step[0] == "steady":
            passes = []
            for topics in STEADY:
                passes.append([value + 1.0 + i for i in range(len(topics))])
                value += len(topics)
            rig.publish_steady(step[1], passes, step[2])
            for topics, values in zip(STEADY[:2], passes):
                model.publish(step[1], list(zip(topics, values)))
            model.publish_raw([
                (topic, step[1], v) for topic, v in zip(STEADY[2], passes[2])
            ])
        elif step[0] == "replay":
            model.replay()
            assert rig.pusher.flush_spill() == len(model.spill)
        else:
            rig.agent.flush()
            model.drain()
        assert rig.pusher.spill_depth == len(model.spill)
        assert len(rig.agent._queue) == len(model.queue)

    expected = {name: model.count[name] for name in rig.counters()}
    assert rig.counters() == expected
    assert rig.seen == model.seen  # broker arrival order, per message
    storage = rig.agent.storage
    assert storage.insert_count == sum(len(s) for s in model.storage.values())
    assert sorted(storage.topics()) == sorted(model.storage)
    for topic, series in model.storage.items():
        ts, val = storage.query(topic, -HORIZON, HORIZON)
        assert list(zip(ts.tolist(), val.tolist())) == series
        cache = rig.agent.caches[topic]
        assert cache.capacity == model.capacity[topic]
        assert _contents(cache) == model.cache[topic]
    for topic, cached in model.pusher_cache.items():
        assert _contents(rig.pusher.cache_for(topic)) == cached
