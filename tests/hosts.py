"""The host an operator test binds to: caches the test fills, and a
record of what the operator stores.  Also the few lines a test needs to
put readings on the wire, into a host, a cache or a storage backend, and
to record what a subscriber is handed — passes are the only unit any of
them accepts."""

from itertools import groupby
from operator import itemgetter

import numpy as np

from repro.common.timeutil import NS_PER_SEC
from repro.dcdb import cache as cache_module
from repro.dcdb.cache import SensorCache
from repro.dcdb.mqtt import ReadingBatch
from repro.dcdb.sensor import SensorColumns


def passes(readings):
    """``(ts, keys, values)`` per run of consecutive ``(key, ts, value)``
    readings at one timestamp, in order — a sequence cut into one-instant
    passes as the Collect Agent's drain cuts its queue."""
    for ts, run in groupby(readings, key=itemgetter(1)):
        keys, _, values = zip(*run)
        yield int(ts), keys, np.array(values, dtype=np.float64)


def insert_passes(storage, readings):
    """Write ``(topic, ts, value)`` readings into ``storage`` one pass at
    a time (``insert_columns_at``)."""
    for ts, topics, values in passes(readings):
        storage.insert_columns_at(topics, ts, values)


def ingest_passes(agent, readings):
    """Hand ``(topic, ts, value)`` readings to a Collect Agent as the
    passes a Pusher publishes, on its broker, and drain them."""
    for ts, topics, values in passes(readings):
        agent.broker.publish_batch(ReadingBatch(topics, ts, values))
    agent.flush()


def store_passes(readings, memo=None, module=cache_module):
    """Write ``(member, ts, value)`` readings — a member is a ring or a
    storage row — one pass at a time, by the hosts' memoised writer over
    ``module`` (``plan_write`` + ``write_columns_at``, plans kept in
    ``memo``); returns how many were refused as stale."""
    if memo is None:
        memo = module.PlanMemo()

    def compile(members):
        return module.WritePlan(members, module.plan_columns(members))

    refused = 0
    for ts, members, values in passes(readings):
        plan = module.plan_write(memo, compile, members)
        refused += module.write_columns_at(plan.columns, ts, values)
    return refused


def series(key, timestamps, values):
    """``(key, ts, value)`` readings of one topic (or member), in order."""
    return [(key, ts, value) for ts, value in zip(timestamps, values)]


def store(cache, ts, value):
    """One reading into ``cache``: a pass of one."""
    store_passes([(cache, ts, value)])


def store_series(cache, timestamps, values):
    """``values`` at ``timestamps`` into ``cache``, in order."""
    store_passes(series(cache, timestamps, values))


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
        store(cache, ts, float(value))

    def add_series(self, topic, values):
        """A fresh ring for ``topic`` holding ``values`` one interval
        apart, the first at 0."""
        cache = self.caches[topic] = self.ring()
        values = list(values)
        step = self.interval_ns
        store_series(cache, [i * step for i in range(len(values))], values)

    def cache_for(self, topic):
        return self.caches.get(topic)

    def sensor_topics(self):
        return sorted(self.caches)

    def store_readings_batch(self, ts, readings):
        self.stored.extend(
            (sensor.topic, ts, value)
            for sensor, value in zip(readings.sensors, readings.values.tolist())
        )
