"""The host an operator test binds to: caches the test fills, and a
record of what the operator stores."""

from repro.common.timeutil import NS_PER_SEC
from repro.dcdb.cache import SensorCache


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
