"""The write side is columnar — and writes what one store per ring wrote.

A :class:`~repro.dcdb.cache.CacheSlab` keeps one ring state for all its
rows, and a host writes a pass as one column per slab
(``plan_columns`` → ``store_column``).  The reference is the ring as it
was before: :class:`FrozenRing`, a per-ring copy of ``SensorCache``
with its own head, size and newest timestamp, held here and fed every
reading one ``store`` at a time.

- A hypothesis state machine over one slab of 1–40 rings: full, partial,
  duplicate, two-timestamp and stale writes, each a sequence of
  one-instant passes through a writer that memoises its plans the way
  the hosts do; a pass of one ring, ``clear`` and ``resize``; a slab
  growing as a whole, as the agent grows one.  After every step every ring's ``len``, ``newest_ts``,
  ``stale_drops``, ``view_relative`` and ``view_absolute`` are
  byte-equal to its reference, and every slab holds its invariant: the
  live rows share one history of timestamps — the slab's one vector,
  which every ring reads as its own — and each ring's views alias its
  slab.  Four seeded mutations of ``dcdb/cache.py`` must fail it.
- Storage keeps what a per-topic rule keeps from a sequence of passes
  — a reading not older than its topic's newest — and counts the rest,
  on both backends, the tiered one below a seal floor included.
- Exact counts on steady ticks, stated beforehand: no per-reading call,
  and storage compiles no plan and allocates no block or chunk — on the
  tick after a flush too; the tick that crosses a chunk boundary
  allocates one chunk and copies no stored reading.
- The ingest ring-growth bug: one off-cadence arrival no longer sizes a
  ring for life.
"""

import inspect
import tempfile
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.common.timeutil import NS_PER_SEC
from repro.dcdb import Broker, CollectAgent
from repro.dcdb import cache as cache_module
from repro.dcdb import storage as storage_module
from repro.dcdb.cache import CacheSlab
from repro.dcdb.segments import TieredStorageBackend
from repro.dcdb.storage import StorageBackend
from repro.deploy import build_deployment
from repro.simulator.clock import TaskScheduler
from tests.hosts import ingest_passes, insert_passes, series, store_passes
from tests.test_property_slab import inband_fused_spec

STEP = 10  # ns: the rings' interval hint
WINDOWS = (0, STEP, 3 * STEP, 40 * STEP)
HORIZON = 10**18


# ----------------------------------------------------------------------
# The reference: one ring, its own state, one store at a time
# ----------------------------------------------------------------------


class FrozenRing:
    """``SensorCache`` as it was when every ring owned its head, size
    and newest timestamp — kept verbatim but for the slab."""

    def __init__(self, capacity, interval_ns):
        self._ts = np.zeros(capacity, dtype=np.int64)
        self._val = np.zeros(capacity, dtype=np.float64)
        self._cap = capacity
        self._head = 0
        self._size = 0
        self.newest_ts = None
        self.interval_ns = interval_ns
        self.stale_drops = 0

    def store(self, timestamp, value):
        newest = self.newest_ts
        if newest is not None and timestamp < newest:
            self.stale_drops += 1
            return
        head = self._head
        self._ts[head] = timestamp
        self._val[head] = value
        self.newest_ts = timestamp
        self._head = (head + 1) % self._cap
        if self._size < self._cap:
            self._size += 1

    def clear(self):
        self._head = 0
        self._size = 0
        self.newest_ts = None

    def resize(self, capacity):
        if capacity == self._cap:
            return
        keep = min(self._size, capacity)
        ts, val = self._tail(keep)
        self._ts = np.zeros(capacity, dtype=np.int64)
        self._val = np.zeros(capacity, dtype=np.float64)
        self._cap = capacity
        self._head = keep % capacity
        self._size = keep
        self._ts[:keep] = ts
        self._val[:keep] = val

    def __len__(self):
        return self._size

    def _tail(self, count):
        n = min(count, self._size)
        slots = [(self._head - n + j) % self._cap for j in range(n)]
        return self._ts[slots], self._val[slots]

    def view_relative(self, offset_ns):
        if not self._size:
            return np.empty(0, np.int64), np.empty(0)
        if offset_ns == 0:
            return self._tail(1)
        return self._tail(offset_ns // self.interval_ns + 1)

    def view_absolute(self, start_ts, end_ts):
        ts, val = self._tail(self._size)
        keep = (ts >= start_ts) & (ts <= end_ts)
        return ts[keep], val[keep]


# ----------------------------------------------------------------------
# The system: a writer doing what the hosts do
# ----------------------------------------------------------------------


class Writer:
    """A host's write path over ``module``'s slabs: a sequence of
    readings as its one-instant passes, by the hosts' memoised writer
    (``plan_write`` -> ``write_columns_at``), one plan per ring sequence
    kept across writes, compiled by ``plan_columns`` alone (the rings
    exist)."""

    def __init__(self, module):
        self.module = module
        self.plans = module.PlanMemo()

    def write(self, rings, timestamps, values):
        store_passes(zip(rings, timestamps, values), self.plans, self.module)


def machine_for(module):
    """The state machine over ``module`` (``dcdb/cache.py`` or a
    mutant of it)."""

    class SlabWrites(RuleBasedStateMachine):
        @initialize(
            rows=st.integers(1, 40), cap=st.integers(1, 9),
        )
        def make(self, rows, cap):
            self.rings = module.CacheSlab(rows, cap).rings(interval_ns=STEP)
            self.refs = [FrozenRing(cap, STEP) for _ in range(rows)]
            self.writer = Writer(module)
            self.clock = 1000
            self.value = 0.0

        def _values(self, n):
            self.value += n
            return [self.value - i for i in range(n)]

        def _write(self, js, timestamps):
            values = self._values(len(js))
            self.writer.write([self.rings[j] for j in js], timestamps, values)
            for j, ts, value in zip(js, timestamps, values):
                self.refs[j].store(ts, value)

        def _tick(self, steps=1):
            self.clock += steps * STEP
            return self.clock

        # -- column writes ---------------------------------------------

        @rule(reverse=st.booleans())
        def full(self, reverse):
            """Every ring once at a fresh timestamp, in one of two
            orders (so a plan is found again)."""
            js = list(range(len(self.rings)))[::-1 if reverse else 1]
            ts = self._tick()
            self._write(js, [ts] * len(js))

        @rule(data=st.data())
        def partial(self, data):
            js = data.draw(st.lists(
                st.integers(0, len(self.rings) - 1), min_size=1, unique=True,
            ))
            ts = self._tick()
            self._write(js, [ts] * len(js))

        @rule(data=st.data())
        def duplicate(self, data):
            """Every ring, then some of them again at the same time."""
            again = data.draw(st.lists(
                st.integers(0, len(self.rings) - 1), min_size=1, unique=True,
            ))
            js = list(range(len(self.rings))) + again
            ts = self._tick()
            self._write(js, [ts] * len(js))

        @rule(data=st.data())
        def two_timestamps(self, data):
            """Each ring at one of two timestamps, or at both in turn."""
            first, second = self._tick(), self._tick()
            picks = data.draw(st.lists(
                st.sampled_from(["first", "second", "both", "none"]),
                min_size=len(self.rings), max_size=len(self.rings),
            ))
            js, stamps = [], []
            for j, pick in enumerate(picks):
                if pick in ("first", "both"):
                    js.append(j)
                    stamps.append(first)
            for j, pick in enumerate(picks):
                if pick in ("second", "both"):
                    js.append(j)
                    stamps.append(second)
            if js:
                self._write(js, stamps)

        @rule(data=st.data(), back=st.integers(1, 3 * STEP))
        def stale(self, data, back):
            """A column older than what the rings hold: dropped, counted
            once per ring (equal to the newest: kept)."""
            js = data.draw(st.lists(
                st.integers(0, len(self.rings) - 1), min_size=1, unique=True,
            ))
            ts = self.clock - back
            self._write(js, [ts] * len(js))

        # -- one ring at a time ----------------------------------------

        @rule(data=st.data(), stale=st.booleans())
        def scalar_store(self, data, stale):
            """A pass of one ring."""
            j = data.draw(st.integers(0, len(self.rings) - 1))
            ts = self.clock - STEP if stale else self._tick()
            self._write([j], [ts])

        @rule(data=st.data())
        def clear(self, data):
            j = data.draw(st.integers(0, len(self.rings) - 1))
            self.rings[j].clear()
            self.refs[j].clear()

        @rule(data=st.data(), capacity=st.integers(1, 12))
        def resize(self, data, capacity):
            j = data.draw(st.integers(0, len(self.rings) - 1))
            self.rings[j].resize(capacity)
            self.refs[j].resize(capacity)

        @rule(data=st.data(), more=st.integers(1, 8))
        def grow(self, data, more):
            """The agent grows a lock-step slab as a whole."""
            j = data.draw(st.integers(0, len(self.rings) - 1))
            slab = self.rings[j].slab
            capacity = slab.capacity + more
            on_slab = [i for i, ring in enumerate(self.rings) if ring.slab is slab]
            slab.grow(capacity)
            for i in on_slab:
                self.refs[i].resize(capacity)

        # -- what must hold after every step ---------------------------

        @invariant()
        def rings_are_their_references(self):
            for ring, ref in zip(self.rings, self.refs):
                assert len(ring) == len(ref)
                assert ring.capacity == ref._cap
                assert ring.newest_ts == ref.newest_ts
                assert ring.stale_drops == ref.stale_drops
                for window in WINDOWS:
                    view = ring.view_relative(window)
                    ts, val = ref.view_relative(window)
                    assert view.timestamps().tobytes() == ts.tobytes()
                    assert view.values().tobytes() == val.tobytes()
                for lo, hi in ((0, HORIZON), (self.clock - 4 * STEP, self.clock)):
                    view = ring.view_absolute(lo, hi)
                    ts, val = ref.view_absolute(lo, hi)
                    assert view.timestamps().tobytes() == ts.tobytes()
                    assert view.values().tobytes() == val.tobytes()

        @invariant()
        def live_rows_share_one_history(self):
            """The one history is the slab's vector: every live row's
            timestamps are it, in order, its newest in the slot before
            the head."""
            for slab in {ring.slab for ring in self.rings}:
                assert slab.ts.shape == (slab.capacity,)
                assert slab.val.shape == (slab.capacity, slab.rows)
                for row, ring in slab.bound.items():
                    assert ring.slab is slab and ring.row == row
                    assert np.shares_memory(ring._val, slab.val)
                cap, size = slab.capacity, slab.size
                slots = (slab.head + np.arange(cap - size, cap)) % cap
                history = slab.ts[slots]
                assert (np.diff(history) >= 0).all()
                if size:
                    assert slab.newest == int(history[-1])

        @invariant()
        def members_read_their_group_vector(self):
            """Every bound member's timestamps are its group's one vector,
            whole: no copy, no row of a matrix."""
            for slab in {ring.slab for ring in self.rings}:
                for ring in slab.bound.values():
                    assert np.shares_memory(ring._ts, slab.ts)
                    assert ring._ts.shape == slab.ts.shape

    return SlabWrites


SETTINGS = settings(
    max_examples=150, stateful_step_count=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def test_columns_write_what_one_store_per_ring_wrote():
    run_state_machine_as_test(machine_for(cache_module), settings=SETTINGS)


# ----------------------------------------------------------------------
# Seeded mutations: the machine must notice each
# ----------------------------------------------------------------------


def mutant_cache(*edits):
    """``dcdb/cache.py`` with each ``(old, new)`` source edit applied
    (each ``old`` must occur exactly once)."""
    source = inspect.getsource(cache_module)
    for old, new in edits:
        assert source.count(old) == 1, old
        source = source.replace(old, new)
    module = types.ModuleType("cache_mutant")
    exec(compile(source, cache_module.__file__, "exec"), module.__dict__)
    return module


MUTATIONS = {
    "missed-row-not-moved-out": (
        "if missed:\n            groups.setdefault(0, []).extend(missed)",
        "if False:\n            pass",
    ),
    "epoch-not-bumped": (
        "        self.epoch += 1\n        return group",
        "        return group",
    ),
    "grow-not-rebinding-views": (
        "        for row, ring in self.bound.items():\n            ring._bind(self, row)",
        "",
    ),
    "stale-drops-on-dead-rows": (  # a ring that left is still counted
        "            del self.bound[member.row]\n",
        "            pass\n",
    ),
}


def test_the_unmutated_copy_passes():
    run_state_machine_as_test(
        machine_for(mutant_cache()),
        settings=settings(SETTINGS, max_examples=30, database=None),
    )


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_seeded_mutation_fails_the_machine(name):
    machine = machine_for(mutant_cache(MUTATIONS[name]))
    with pytest.raises(AssertionError):
        run_state_machine_as_test(machine, settings=settings(
            SETTINGS, max_examples=300, database=None,
            phases=[Phase.generate],  # found is enough: no shrinking
        ))


# ----------------------------------------------------------------------
# Storage: passes, against the per-topic rule
# ----------------------------------------------------------------------

TOPICS = ["/a", "/b", "/c"]
_readings = st.lists(
    st.tuples(st.sampled_from(TOPICS), st.integers(0, 40)), max_size=60,
)


class PerTopic:
    """The storage rule one reading at a time, in plain Python: a
    reading is kept when it is not older than its topic's newest (a
    sealed one included), else dropped and counted."""

    def __init__(self):
        self.kept = {}  # topic -> [(ts, value)]
        self.newest = {}
        self.dropped = 0

    def write(self, readings):
        for topic, ts, value in readings:
            kept = self.kept.setdefault(topic, [])
            if ts < self.newest.get(topic, ts):
                self.dropped += 1
                continue
            kept.append((ts, value))
            self.newest[topic] = ts

    def contents(self):
        out = {}
        for topic in sorted(self.kept):
            ts = np.array([t for t, _ in self.kept[topic]], dtype=np.int64)
            val = np.array([v for _, v in self.kept[topic]], dtype=np.float64)
            out[topic] = (ts.tobytes(), val.tobytes())
        stored = sum(len(kept) for kept in self.kept.values())
        return out, stored, self.dropped


def _contents(storage):
    out = {}
    for topic in sorted(storage.topics()):
        ts, val = storage.query(topic, -HORIZON, HORIZON)
        out[topic] = (ts.tobytes(), val.tobytes())
    return out, storage.insert_count, storage.ooo_dropped


def _sequences(before, batch, offset):
    """``before`` and then ``batch`` as ``(topic, ts, value)`` readings,
    each timestamp moved by ``offset`` (``batch``'s ten less: it
    straddles what ``before`` left)."""
    first = [
        (topic, offset + ts, float(i)) for i, (topic, ts) in enumerate(before)
    ]
    then = [
        (topic, offset - 10 + ts, float(-i)) for i, (topic, ts) in enumerate(batch)
    ]
    return first, then


@settings(max_examples=150, deadline=None)
@given(before=_readings, batch=_readings)
def test_passes_keep_what_the_per_topic_rule_keeps(before, batch):
    storage, reference = StorageBackend(), PerTopic()
    for readings in _sequences(before, batch, 10):
        insert_passes(storage, readings)
        reference.write(readings)
    assert _contents(storage) == reference.contents()


@settings(max_examples=60, deadline=None)
@given(before=_readings, batch=_readings)
def test_passes_keep_the_seal_floor(before, batch):
    """Below a topic's seal floor a reading is refused and counted: the
    newest sealed reading is the topic's newest."""
    with tempfile.TemporaryDirectory() as directory:
        tiered = TieredStorageBackend(directory, flush_mb=64)
        reference = PerTopic()
        sealed, then = _sequences(before, batch, 1000)
        insert_passes(tiered, sealed)
        reference.write(sealed)
        tiered.flush(0)
        insert_passes(tiered, then)
        reference.write(then)
        assert _contents(tiered) == reference.contents()
        assert sorted(tiered._series) == sorted(reference.kept)


# ----------------------------------------------------------------------
# Steady ticks: exact counts, stated beforehand
# ----------------------------------------------------------------------

SENSORS = 4


def ingest_fanin_spec():
    """The ``ingest_fanin`` ledger workload at smoke size: 148 Pushers
    of 4 tester sensors, no online operator."""
    return {
        "cluster": {"preset": "coolmuc3", "seed": 1},
        "monitoring": {
            "plugins": ["tester"], "tester_sensors": SENSORS,
            "interval_ms": 1000, "cache_window_s": 30,
        },
        "analytics": {"pushers": [], "agent": []},
    }


def count_calls(
    monkeypatch, cls, name, calls, note=lambda self: self, when=lambda self: True
):
    fn = getattr(cls, name)

    def counting(self, *args, **kwargs):
        if when(self):
            calls.append(note(self))
        return fn(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, counting)


def count_lone_columns(monkeypatch, cls, calls, note=lambda group: group):
    """Columns ``cls`` (a ring slab or a storage block) stores on a group
    of one live member: what a per-reading write is (before passes,
    ``SensorCache.store`` and ``StorageBackend.insert`` were one each)."""
    count_calls(
        monkeypatch, cls, "store_column", calls, note,
        when=lambda group: len(group.bound) == 1,
    )


def test_a_steady_ingest_tick_makes_no_per_reading_call(monkeypatch):
    dep = build_deployment(ingest_fanin_spec())
    dep.run(5)  # every cache, plan and route run exists
    readings = len(dep.pushers) * SENSORS
    stores, inserts, routes = [], [], []
    count_lone_columns(monkeypatch, CacheSlab, stores)
    count_lone_columns(monkeypatch, storage_module._Block, inserts)
    count_calls(monkeypatch, Broker, "_route", routes)
    before = dep.agent.storage.insert_count
    ticks = 3
    dep.run(ticks)
    assert dep.agent.storage.insert_count - before == ticks * readings == 1776
    # The parent, per tick: one SensorCache.store per reading on the
    # Pusher and one on the agent (1 184), one StorageBackend.insert
    # (592), one Broker._route (592).  Here: none.
    assert (len(stores), len(inserts), len(routes)) == (0, 0, 0)
    # One slab per Pusher plugin, one for the agent's first arrivals.
    for pusher in dep.pushers.values():
        assert pusher.telemetry.gauge("cache_slab_count").value == 1
    assert dep.agent.telemetry.gauge("cache_slab_count").value == 1
    assert dep.agent.telemetry.gauge("cache_sensor_count").value == readings


def count_storage_writes(monkeypatch):
    """Per call, in lists: storage plan compiles, block and chunk
    allocations, per-reading writes (:func:`count_lone_columns`)."""
    calls = {"plans": [], "blocks": [], "chunks": [], "inserts": []}
    count_calls(monkeypatch, StorageBackend, "_write_plan", calls["plans"])
    count_calls(monkeypatch, storage_module._Block, "__init__", calls["blocks"])
    count_calls(monkeypatch, storage_module._Block, "_add_chunk", calls["chunks"])
    count_lone_columns(monkeypatch, storage_module._Block, calls["inserts"])
    return calls


def counts(calls):
    return {name: len(made) for name, made in calls.items()}


NO_WRITE_SETUP = {"plans": 0, "blocks": 0, "chunks": 0, "inserts": 0}


def test_a_steady_ingest_tick_builds_nothing_in_storage(monkeypatch):
    dep = build_deployment(ingest_fanin_spec())
    dep.run(5)
    calls = count_storage_writes(monkeypatch)
    before = dep.agent.storage.insert_count
    dep.run(3)
    assert dep.agent.storage.insert_count - before == 3 * 592
    # The parent: no plan and no block, but one _Series append per
    # reading (592 a tick) in the insert_columns loop.
    assert counts(calls) == NO_WRITE_SETUP


def test_the_tick_after_a_flush_builds_nothing_in_storage(monkeypatch, tmp_path):
    """A flush empties its blocks in place: rows, first chunk, plan and
    order guard carry over, so the next write allocates nothing."""
    spec = ingest_fanin_spec()
    spec["storage"] = {
        "tiers": "tiered", "dir": str(tmp_path),
        "flush_mb": 1, "flush_interval_s": 5,  # 592 rows x 4 KiB > 1 MB
    }
    dep = build_deployment(spec)
    storage = dep.agent.storage
    calls = {}
    flush = TieredStorageBackend.flush

    def flush_then_count(self, *args):
        sealed = flush(self, *args)
        if not calls:  # count from the first flush on
            calls.update(count_storage_writes(monkeypatch))
        return sealed

    monkeypatch.setattr(TieredStorageBackend, "flush", flush_then_count)
    while not storage.flush_count:
        dep.run(1)
    dep.run(2)
    assert storage.flush_count == 1
    # The memory tier holds what came after the flush: in its tick, then
    # one reading a tick.
    assert StorageBackend.count(storage, first_topic(dep)) == 3
    assert counts(calls) == NO_WRITE_SETUP


def first_topic(dep):
    return next(iter(dep.agent.storage._series))


def test_crossing_a_chunk_allocates_one_and_copies_nothing(monkeypatch):
    """Failing before: the tick that brought reading 257 doubled every
    ``_Series`` (592 new 8 KiB pairs, their 4 KiB contents copied) —
    5.06 MB traced against one chunk here, 1.21 MB since a chunk holds
    its timestamps once (2.42 MB as a timestamp matrix)."""
    dep = build_deployment(ingest_fanin_spec())
    storage = dep.agent.storage
    dep.run(1)
    topic = first_topic(dep)
    while storage.count(topic) < storage_module.CHUNK:
        dep.run(1)
    block = storage._series[topic].slab
    assert block.rows == 592 and len(block.chunks) == 1
    first = block.chunks[0]
    calls = count_storage_writes(monkeypatch)
    tracemalloc.start()
    try:
        dep.run(1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert storage.count(topic) == storage_module.CHUNK + 1
    assert counts(calls) == {**NO_WRITE_SETUP, "chunks": 1}
    assert block.chunks[0] is first  # the stored readings stay where they are
    # One chunk: 592 value rows and one timestamp vector.
    chunk_bytes = 592 * storage_module.CHUNK * 8 + storage_module.CHUNK * 8
    assert peak < 1.5 * chunk_bytes, (peak, chunk_bytes)


def test_inband_stores_one_ring_at_a_time_only_on_one_row_slabs(monkeypatch):
    dep = build_deployment(inband_fused_spec())
    dep.run(8)
    rows_of_slab = []  # per lone column: rows of the slab
    count_lone_columns(
        monkeypatch, CacheSlab, rows_of_slab, note=lambda slab: slab.rows,
    )
    dep.run(5)
    # Before passes: 980 stores in these 5 ticks, every Pusher sample,
    # operator output and agent arrival one call each.  Here a pass is a
    # column, and a ring written alone is one that is alone: the one
    # output of each Pusher's node-instr operator, a pass of one on a
    # slab of one (2 Pushers, 5 ticks).
    assert set(rows_of_slab) <= {1}
    assert len(rows_of_slab) == 10


# ----------------------------------------------------------------------
# The ingest ring-growth bug
# ----------------------------------------------------------------------


def agent_at(cache_window_s):
    return CollectAgent(
        "agent", Broker(), TaskScheduler(),
        cache_window_ns=cache_window_s * NS_PER_SEC, drain_interval_ns=10**15,
    )


def ingest(agent, topic, timestamps):
    ingest_passes(agent, series(topic, timestamps, timestamps))


def test_one_off_cadence_arrival_does_not_size_a_ring_for_life():
    """Failing before: a 1 Hz topic plus one reading 1 ms late took the
    ring from 218 readings to 216 002 (3.5 KB to 3.46 MB), and it stayed
    that size.  A ring that spans its window loses nothing by staying."""
    agent = agent_at(180)
    ingest(agent, "/n/x", [i * NS_PER_SEC for i in range(200)])
    cache = agent.caches["/n/x"]
    assert cache.capacity == 218
    ingest(agent, "/n/x", [199 * NS_PER_SEC + NS_PER_SEC // 1000])
    assert cache.gap_ns == NS_PER_SEC // 1000  # still the plan's read hint
    ingest(agent, "/n/x", [i * NS_PER_SEC for i in range(200, 400)])
    assert cache.capacity == 218
    view = cache.view_relative(180 * NS_PER_SEC)
    assert len(view) == 181 and view.first().timestamp == 219 * NS_PER_SEC


def test_a_real_faster_cadence_still_keeps_its_whole_window():
    """1 Hz for longer than the window, then 10 Hz: the ring grows once
    the reading a store would evict is still inside the window."""
    agent = agent_at(180)
    ingest(agent, "/n/x", [i * NS_PER_SEC for i in range(200)])
    tenth = NS_PER_SEC // 10
    start = 199 * NS_PER_SEC
    ingest(agent, "/n/x", [start + i * tenth for i in range(1, 2001)])
    cache = agent.caches["/n/x"]
    newest = start + 2000 * tenth
    view = cache.view_relative(180 * NS_PER_SEC)
    assert len(view) == 1801 and view.first().timestamp == newest - 1800 * tenth
    assert cache.capacity >= 1801
