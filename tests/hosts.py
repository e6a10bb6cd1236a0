"""The host an operator test binds to: caches the test fills, and a
record of what the operator stores.  Also the few lines a test needs to
put one reading on the wire or into a host, and to record what a
subscriber is handed — passes are the only unit either accepts."""

from repro.common.timeutil import NS_PER_SEC
from repro.dcdb.cache import SensorCache
from repro.dcdb.mqtt import ReadingBatch
from repro.dcdb.sensor import SensorColumns


def one(topic, value, ts):
    """A pass of one reading, for ``publish_batch``."""
    return ReadingBatch((topic,), ts, (value,))


def store_one(host, sensor, ts, value):
    """Store one reading of ``sensor`` on ``host``: a pass of one."""
    host.store_readings_batch(ts, SensorColumns((sensor,), (value,)))


def triples(batch):
    """``(topic, value, timestamp)`` per reading of a pass."""
    ts = batch.timestamp
    return [(t, v, ts) for t, v in zip(batch.topics, batch.values.tolist())]


class Recorder:
    """A batch subscriber keeping ``(topic, value, timestamp)`` per
    reading it is handed, in :attr:`messages`."""

    def __init__(self):
        self.messages = []

    def __call__(self, batch):
        self.messages += triples(batch)


class RecordingHost:
    """A query host over ``caches`` (topic -> :class:`SensorCache`) that
    records every reading an operator stores as ``(topic, ts, value)``
    in :attr:`stored` — through ``store_readings_batch``, the one sink
    the real hosts offer.

    The rings it makes hold ``capacity`` readings at ``interval_ns``;
    a test subclasses it to change either.
    """

    capacity = 64
    interval_ns = NS_PER_SEC
    storage = None

    def __init__(self, caches=()):
        self.caches = dict(caches)
        self.stored = []

    def ring(self):
        return SensorCache(self.capacity, interval_ns=self.interval_ns)

    def push(self, topic, ts, value):
        """One reading for ``topic``, its ring made on the first."""
        cache = self.caches.get(topic)
        if cache is None:
            cache = self.caches[topic] = self.ring()
        cache.store(ts, float(value))

    def add_series(self, topic, values):
        """A fresh ring for ``topic`` holding ``values`` one interval
        apart, the first at 0."""
        cache = self.caches[topic] = self.ring()
        for i, value in enumerate(values):
            cache.store(i * self.interval_ns, float(value))

    def cache_for(self, topic):
        return self.caches.get(topic)

    def sensor_topics(self):
        return sorted(self.caches)

    def store_readings_batch(self, ts, readings):
        self.stored.extend(
            (sensor.topic, ts, value)
            for sensor, value in zip(readings.sensors, readings.values.tolist())
        )
