"""The memory tier holds blocks — and stores what one series per topic did.

``StorageBackend`` keeps the topics first stored together as the rows
of one block, chunk matrices whose rows advance in lock step, and lands
a pass as one column per block.  The reference is the
layout it replaced: :class:`FrozenSeries`, the per-topic growable column
pair as it was, held here and fed every reading one ``insert`` at a
time, with the tiered backend's seal floor kept beside it.

- A hypothesis state machine drives a ``StorageBackend`` and a
  ``TieredStorageBackend`` through the same steps, every write a
  sequence of one-instant passes (``insert_columns_at``): full,
  partial, duplicate-topic, two-timestamp, stale and below-floor
  writes; one topic's reading, or its readings out of order; growth
  across chunk boundaries; ``flush`` (tiered), ``expire`` and ``drop``.
  After every step each backend equals its reference on contents,
  ``insert_count``, ``ooo_dropped``, ``topics()``, ``count``, ``latest``
  and ``memory_bytes()``, and every bound row's timestamps are its
  block's one vector a chunk.
- Three seeded mutations must fail it: a missed row not moved out (in
  ``dcdb/cache.py``'s plan, which storage shares), a chunk boundary
  that loses a reading and a flush that forgets the floor.
- A flush gathers per *run* — the sorted topics stored in one block —
  and the ``Columnar`` it hands to ``SegmentStore.write`` must be
  bit-equal to what :func:`per_topic_columnar`, the gather one topic at
  a time as it was, builds from the state just before: the machine's
  ``flush`` rule asserts it (through a wrapped ``store.write``), one
  deterministic case covers alternating blocks, a two-chunk block, a
  moved-out row and rows out of sorted order, and two more seeded
  mutations (a run taken in block order, one size for every run) must
  fail the machine.  Once a block holds readings in two chunks or more,
  a flush's segment file must be byte-equal to the file the same writer
  seals from the per-topic gather.
"""

import inspect
import shutil
import tempfile
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.dcdb import cache as cache_module
from repro.dcdb import segments as segments_module
from repro.dcdb import storage as storage_module
from repro.dcdb.sensor import SensorReading
from tests.hosts import insert_passes, series

STEP = 10  # ns between successive timestamps
TTL = 100 * STEP
TOPICS = [f"/n{i}/power" for i in range(6)]
HORIZON = 2**62


# ----------------------------------------------------------------------
# The reference: one growable column pair per topic, as it was
# ----------------------------------------------------------------------


class FrozenSeries:
    """``storage._Series`` as it was before blocks — kept as it was,
    docstrings aside."""

    _INITIAL = 256

    def __init__(self):
        self.ts = np.empty(self._INITIAL, dtype=np.int64)
        self.val = np.empty(self._INITIAL, dtype=np.float64)
        self.size = 0
        self.newest_ts = None

    def _grow(self, needed):
        cap = len(self.ts)
        while cap < needed:
            cap *= 2
        new_ts = np.empty(cap, dtype=np.int64)
        new_val = np.empty(cap, dtype=np.float64)
        new_ts[: self.size] = self.ts[: self.size]
        new_val[: self.size] = self.val[: self.size]
        self.ts, self.val = new_ts, new_val

    def append(self, timestamp, value):
        newest = self.newest_ts
        if newest is not None and timestamp < newest:
            return False
        size = self.size
        if size == len(self.ts):
            self._grow(size + 1)
        self.ts[size] = timestamp
        self.val[size] = value
        self.newest_ts = timestamp
        self.size = size + 1
        return True

    def append_batch(self, timestamps, values):
        n = len(timestamps)
        if n == 0:
            return 0
        keep = timestamps >= np.maximum.accumulate(timestamps)
        if self.size:
            keep &= timestamps >= self.newest_ts
        if not keep.all():
            timestamps = timestamps[keep]
            values = values[keep]
            n = len(timestamps)
            if n == 0:
                return 0
        if self.size + n > len(self.ts):
            self._grow(self.size + n)
        self.ts[self.size : self.size + n] = timestamps
        self.val[self.size : self.size + n] = values
        self.size += n
        self.newest_ts = int(timestamps[-1])
        return n

    def expire_before(self, cutoff):
        lo = int(np.searchsorted(self.ts[: self.size], cutoff, side="left"))
        if lo == 0:
            return 0
        keep = self.size - lo
        cap = len(self.ts)
        if cap > self._INITIAL and keep < cap / 4:
            new_cap = self._INITIAL
            while new_cap < keep:
                new_cap *= 2
            new_ts = np.empty(new_cap, dtype=np.int64)
            new_val = np.empty(new_cap, dtype=np.float64)
            new_ts[:keep] = self.ts[lo : self.size]
            new_val[:keep] = self.val[lo : self.size]
            self.ts, self.val = new_ts, new_val
        else:
            self.ts[:keep] = self.ts[lo : self.size]
            self.val[:keep] = self.val[lo : self.size]
        self.size = keep
        if not keep:
            self.newest_ts = None
        return lo

    def memory_bytes(self):
        return self.ts.nbytes + self.val.nbytes


class Reference:
    """A backend as one :class:`FrozenSeries` per topic, written one
    reading at a time.

    A topic has a row from its first write on (``rows``) but a series —
    memory — only from its first stored reading.  With ``tiered``, the
    seal floor is checked first, as ``TieredStorageBackend.insert`` did,
    and a flush seals every series that holds readings and restarts it
    empty at the initial capacity: the chunk a flushed block keeps.
    """

    def __init__(self, tiered):
        self.tiered = tiered
        self.rows = set()
        self.series = {}
        self.sealed = {}  # topic -> floor
        self.segments = {}  # topic -> sealed (ts, val) parts
        self.insert_count = 0
        self.ooo_dropped = 0

    def _below_floor(self, topic, timestamps):
        floor = self.sealed.get(topic)
        if floor is None:
            return np.zeros(len(timestamps), dtype=bool)
        return np.asarray(timestamps, dtype=np.int64) < floor

    def insert(self, topic, timestamp, value):
        self.rows.add(topic)
        if self._below_floor(topic, [timestamp])[0]:
            self.ooo_dropped += 1
            return
        series = self.series.get(topic)
        if series is None:
            series = self.series[topic] = FrozenSeries()
        if series.append(timestamp, value):
            self.insert_count += 1
        else:
            self.ooo_dropped += 1

    def insert_batch(self, topic, timestamps, values):
        self.rows.add(topic)
        below = self._below_floor(topic, timestamps)
        self.ooo_dropped += int(below.sum())
        timestamps, values = timestamps[~below], values[~below]
        if not len(timestamps):
            return
        series = self.series.get(topic)
        if series is None:
            series = self.series[topic] = FrozenSeries()
        stored = series.append_batch(timestamps, values)
        self.insert_count += stored
        self.ooo_dropped += len(timestamps) - stored

    def flush(self):
        for topic, series in sorted(self.series.items()):
            if series.size:
                part = series.ts[: series.size].copy(), series.val[: series.size].copy()
                self.segments.setdefault(topic, []).append(part)
                self.sealed[topic] = series.newest_ts
                self.series[topic] = FrozenSeries()

    def expire(self, cutoff):
        return sum(s.expire_before(cutoff) for s in self.series.values())

    def drop(self, topic):
        self.rows.discard(topic)
        self.series.pop(topic, None)

    # -- what the backends must answer ---------------------------------

    def memory(self, topic):
        series = self.series.get(topic)
        if series is None:
            return np.empty(0, np.int64), np.empty(0)
        return series.ts[: series.size], series.val[: series.size]

    def contents(self, topic):
        parts = self.segments.get(topic, []) + [self.memory(topic)]
        return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])

    def topics(self):
        return sorted(self.rows | set(self.segments))

    def latest(self, topic):
        ts, val = self.memory(topic)
        if not len(ts) and self.segments.get(topic):
            ts, val = self.segments[topic][-1]
        return SensorReading(int(ts[-1]), float(val[-1])) if len(ts) else None

    def memory_bytes(self):
        return sum(s.memory_bytes() for s in self.series.values())


def per_topic_columnar(backend):
    """``TieredStorageBackend.flush``'s gather one topic at a time, as
    it was: ``(topics, offsets, ts, val)`` for what the memory tier
    holds, or None when it holds nothing."""
    topics = sorted(t for t, row in backend._series.items() if row.slab.size)
    if not topics:
        return None
    rows = [backend._series[topic] for topic in topics]
    parts = [
        part for row in rows for part in row.slab.parts(row.row)
    ]
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([row.slab.size for row in rows], out=offsets[1:])
    return (
        topics, offsets,
        np.concatenate([ts for ts, _ in parts]),
        np.concatenate([val for _, val in parts]),
    )


def expect_per_topic_write(backend):
    """Wrap ``backend.store.write`` so that it asserts its ``Columnar``
    is bit-equal to :func:`per_topic_columnar` of the state now — before
    the file is written, so a wrong one fails as an ``AssertionError``.
    Returns the check to run after the flush: it puts the store's own
    ``write`` back and asserts one write when there was anything to
    seal, none otherwise."""
    store = backend.store
    want = per_topic_columnar(backend)
    written = []
    write = store.write

    def checked(columnar, *args, **kwargs):
        assert want is not None
        topics, offsets, columns, seal_ts = columnar
        assert list(topics) == want[0] and seal_ts is None
        assert sorted(columns) == ["ts", "val"]
        for got, expected in zip(
            (offsets, columns["ts"], columns["val"]), want[1:]
        ):
            assert got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes()
        written.append(columnar)
        return write(columnar, *args, **kwargs)

    store.write = checked

    def check():
        del store.write
        assert len(written) == (want is not None)

    return check


# ----------------------------------------------------------------------
# The machine, over a build of the storage modules
# ----------------------------------------------------------------------


def machine_for(storage_cls, tiered_cls):
    """The state machine over these two backend classes (the shipped
    ones, or mutants)."""

    class MemoryTier(RuleBasedStateMachine):
        @initialize()
        def make(self):
            self.directory = tempfile.mkdtemp(prefix="memory-tier-")
            self.pairs = [
                (storage_cls(ttl_ns=TTL), Reference(tiered=False)),
                (tiered_cls(self.directory, flush_mb=64, ttl_ns=TTL),
                 Reference(tiered=True)),
            ]
            self.clock = 1000
            self.value = 0.0

        def teardown(self):
            shutil.rmtree(self.directory, ignore_errors=True)
            if hasattr(self, "twin_directory"):
                shutil.rmtree(self.twin_directory, ignore_errors=True)

        def _tick(self, steps=1):
            self.clock += steps * STEP
            return self.clock

        def _values(self, n):
            self.value += n
            return [self.value - i for i in range(n)]

        def _columns(self, topics, timestamps):
            values = self._values(len(topics))
            readings = list(zip(topics, timestamps, values))
            for backend, ref in self.pairs:
                insert_passes(backend, readings)
                for reading in readings:
                    ref.insert(*reading)

        def _subset(self, data, min_size=1):
            return data.draw(st.lists(
                st.sampled_from(TOPICS), min_size=min_size, unique=True,
            ))

        # -- passes ----------------------------------------------------

        @rule(reverse=st.booleans())
        def full(self, reverse):
            """Every topic once at a fresh timestamp, in one of two
            orders (so a plan is found again)."""
            ts = self._tick()
            self._columns(TOPICS[::-1 if reverse else 1], [ts] * len(TOPICS))

        @rule(data=st.data())
        def partial(self, data):
            topics = self._subset(data)
            self._columns(topics, [self._tick()] * len(topics))

        @rule(data=st.data())
        def duplicate(self, data):
            """Every topic, then some of them again at the same time."""
            topics = TOPICS + self._subset(data)
            self._columns(topics, [self._tick()] * len(topics))

        @rule(data=st.data())
        def two_timestamps(self, data):
            """Each topic at one of two timestamps, or at both in turn
            (in either order: the second of two out of order is stale)."""
            first, second = self._tick(), self._tick()
            if data.draw(st.booleans()):
                first, second = second, first
            picks = data.draw(st.lists(
                st.sampled_from(["first", "second", "both", "none"]),
                min_size=len(TOPICS), max_size=len(TOPICS),
            ))
            topics, stamps = [], []
            for stamp, wanted in ((first, ("first", "both")),
                                  (second, ("second", "both"))):
                for topic, pick in zip(TOPICS, picks):
                    if pick in wanted:
                        topics.append(topic)
                        stamps.append(stamp)
            if topics:
                self._columns(topics, stamps)

        @rule(data=st.data(), back=st.integers(1, 3 * STEP))
        def stale(self, data, back):
            """Older than what the topics hold: dropped, one per reading
            (equal to the newest: kept)."""
            topics = self._subset(data)
            self._columns(topics, [self.clock - back] * len(topics))

        @precondition(lambda self: self.pairs[1][1].sealed)
        @rule(data=st.data(), below=st.integers(0, 2 * STEP))
        def below_floor(self, data, below):
            """At or under the lowest seal floor (dropped topics, that
            have no row, included)."""
            topics = self._subset(data)
            floor = min(self.pairs[1][1].sealed.values())
            self._columns(topics, [floor - below] * len(topics))

        @rule(data=st.data(), k=st.integers(2, 600))
        def grow(self, data, k):
            """``k`` successive timestamps of some topics in one batch:
            across one chunk boundary or several."""
            topics = self._subset(data)
            start = self._tick()
            self._tick(k - 1)
            self._columns(
                topics * k,
                [start + j * STEP for j in range(k) for _ in topics],
            )

        # -- one topic at a time ---------------------------------------

        @rule(topic=st.sampled_from(TOPICS), back=st.integers(-STEP, 2 * STEP))
        def insert(self, topic, back):
            ts = self.clock - back
            if back < 0:
                self.clock = ts
            (value,) = self._values(1)
            for backend, ref in self.pairs:
                insert_passes(backend, [(topic, ts, value)])
                ref.insert(topic, ts, value)

        @rule(
            topic=st.sampled_from(TOPICS),
            offsets=st.lists(st.integers(-3 * STEP, 300 * STEP), max_size=8),
        )
        def insert_batch(self, topic, offsets):
            """Out of order within the batch or against the topic, as
            one-instant passes.  No reading is no write: it opens no row."""
            ts = np.array([self.clock + o for o in offsets], dtype=np.int64)
            values = np.array(self._values(len(offsets)))
            self.clock = max([self.clock, *ts.tolist()])
            for backend, ref in self.pairs:
                insert_passes(backend, series(topic, ts, values))
                if len(ts):
                    ref.insert_batch(topic, ts, values)

        # -- maintenance -----------------------------------------------

        @rule()
        def flush(self):
            tiered, ref = self.pairs[1]
            check = expect_per_topic_write(tiered)
            tiered.flush(self.clock)
            check()
            ref.flush()

        @precondition(lambda self: any(
            len(block.firsts) > 1 for block in self.pairs[1][0]._blocks()
        ))
        @rule()
        def flush_across_chunks(self):
            """A block holding readings in two chunks or more, flushed:
            the segment file's bytes equal those of the per-topic
            reference flush, sealed by the same writer at the same
            sequence."""
            tiered, ref = self.pairs[1]
            want = per_topic_columnar(tiered)
            store = tiered.store
            before = store.segments[-1] if store.segments else None
            check = expect_per_topic_write(tiered)
            tiered.flush(self.clock)
            check()
            ref.flush()
            seg = store.segments[-1]
            if not hasattr(self, "twin_directory"):
                self.twin_directory = tempfile.mkdtemp(prefix="memory-tier-twin-")
            topics, offsets, ts, val = want
            twin = segments_module.Segment.write(
                Path(self.twin_directory) / seg.path.name, seg.seq,
                segments_module.LEVEL_RAW,
                segments_module.Columnar(topics, offsets, {"ts": ts, "val": val}),
                created_ns=self.clock, names_of=before,
            )
            assert seg.path.read_bytes() == twin.path.read_bytes()

        @rule(ago=st.integers(-50, 200))
        def expire(self, ago):
            now = self.clock - ago * STEP + TTL
            for backend, ref in self.pairs:
                assert backend.expire(now) == ref.expire(now - TTL)

        @rule(topic=st.sampled_from(TOPICS))
        def drop(self, topic):
            for backend, ref in self.pairs:
                assert backend.drop(topic) == (topic in ref.rows)
                ref.drop(topic)

        # -- what must hold after every step ---------------------------

        @invariant()
        def backends_are_their_references(self):
            for backend, ref in self.pairs:
                assert sorted(backend.topics()) == ref.topics()
                assert backend.insert_count == ref.insert_count
                assert backend.ooo_dropped == ref.ooo_dropped
                assert backend.memory_bytes() == ref.memory_bytes()
                for topic in TOPICS:
                    ts, val = backend.query(topic, -HORIZON, HORIZON)
                    want_ts, want_val = ref.contents(topic)
                    assert ts.tobytes() == want_ts.tobytes()
                    assert val.tobytes() == want_val.tobytes()
                    assert backend.count(topic) == len(want_ts)
                    assert backend.latest(topic) == ref.latest(topic)
                if ref.tiered:  # the memory tier alone, as the oracle reads it
                    for topic in TOPICS:
                        ts, _ = storage_cls.query(backend, topic, -HORIZON, HORIZON)
                        assert ts.tobytes() == ref.memory(topic)[0].tobytes()

        @invariant()
        def members_read_their_group_vector(self):
            """Every bound member's timestamps are its block's one vector
            a chunk, whole: no copy, no row of a matrix."""
            for backend, _ in self.pairs:
                for block in backend._blocks():
                    for ts, val in block.chunks:
                        assert ts.shape == (val.shape[1],)
                        assert val.shape[0] == block.rows
                    for row in block.bound.values():
                        for (ts, _), (vector, _) in zip(
                            block.parts(row.row), block.chunks
                        ):
                            assert np.shares_memory(ts, vector)

    return MemoryTier


SETTINGS = settings(
    max_examples=60, stateful_step_count=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def test_blocks_store_what_one_series_per_topic_stored():
    run_state_machine_as_test(
        machine_for(
            storage_module.StorageBackend,
            segments_module.TieredStorageBackend,
        ),
        settings=SETTINGS,
    )


# ----------------------------------------------------------------------
# Seeded mutations: the machine must notice each
# ----------------------------------------------------------------------


def _build(module, edits=(), **names):
    """``module``'s source with each ``(old, new)`` edit applied (each
    ``old`` must occur exactly once), run with ``names`` predefined."""
    source = inspect.getsource(module)
    for old, new in edits:
        assert source.count(old) == 1, old
        source = source.replace(old, new)
    mutant = types.ModuleType(f"{module.__name__}_mutant")
    mutant.__dict__.update(names)
    exec(compile(source, module.__file__, "exec"), mutant.__dict__)
    return mutant


def backends(storage_edits=(), cache_edits=(), segments_edits=()):
    """The two backend classes over a mutant ``dcdb/storage.py`` (and
    ``dcdb/cache.py``'s plan, and ``dcdb/segments.py``)."""
    storage = _build(storage_module, storage_edits)
    if cache_edits:
        storage.plan_columns = _build(cache_module, cache_edits).plan_columns
    segments = _build(
        segments_module,
        [("from repro.dcdb.storage import StorageBackend\n", ""),
         *segments_edits],
        StorageBackend=storage.StorageBackend,
    )
    return storage.StorageBackend, segments.TieredStorageBackend


MUTATIONS = {
    "missed-row-not-moved-out": {"cache_edits": [(
        "if missed:\n            groups.setdefault(0, []).extend(missed)",
        "if False:\n            pass",
    )]},
    "chunk-boundary-loses-a-reading": {"storage_edits": [(
        "out.append((ts, val[row]))",
        "out.append((ts[:-1], val[row, :-1]))",
    )]},
    "flush-forgets-the-floor": {"storage_edits": [(
        "        self.capacity = min(self.capacity, CHUNK)\n        self._rewind()",
        "        self.capacity = min(self.capacity, CHUNK)\n        self._rewind()\n"
        "        self.newest = None",
    )]},
    "flush-run-in-block-order": {"segments_edits": [(
        "block.parts(np.array(run, dtype=np.intp))",
        "block.parts(np.sort(np.array(run, dtype=np.intp)))",
    )]},
    "flush-one-size-for-every-run": {"segments_edits": [(
        "[block.size for block in blocks]",
        "[blocks[0].size] * len(blocks)",
    )]},
}


def test_the_unmutated_copy_passes():
    run_state_machine_as_test(
        machine_for(*backends()),
        settings=settings(SETTINGS, max_examples=15, database=None),
    )


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_seeded_mutation_fails_the_machine(name):
    machine = machine_for(*backends(**MUTATIONS[name]))
    with pytest.raises(AssertionError):
        run_state_machine_as_test(machine, settings=settings(
            SETTINGS, max_examples=300, database=None,
            phases=[Phase.generate],  # found is enough: no shrinking
        ))


# ----------------------------------------------------------------------
# The flush's gather by run, against the per-topic twin
# ----------------------------------------------------------------------


def test_flush_gathers_by_run_what_the_per_topic_twin_gathers(tmp_path):
    """Sorted topics alternating between two blocks, one of them two
    chunks wide with a row moved out, and a block whose rows are not in
    sorted order: the sealed columns equal the per-topic twin's."""
    tiered = segments_module.TieredStorageBackend(tmp_path, flush_mb=64)
    wide, narrow = ["/a", "/c", "/e", "/g"], ["/b", "/d", "/f"]
    backwards = ["/z2", "/z1", "/z0"]
    clock = [0]

    def write(topics, k=1):
        start = clock[0] + STEP
        clock[0] += k * STEP
        stamps = [start + j * STEP for j in range(k) for _ in topics]
        insert_passes(tiered, zip(
            topics * k, stamps, [float(i) for i in range(len(stamps))]
        ))

    write(wide + narrow)  # one block, then split by the next writes
    write(wide, k=300)  # across the first chunk: two chunks wide
    write(narrow, k=3)
    write(wide[:3], k=2)  # "/g" misses: moved out
    write(backwards, k=5)
    blocks = {t: tiered._series[t].slab for t in tiered.topics()}
    topics = sorted(blocks)
    a, b = blocks["/a"], blocks["/b"]
    assert a is not b
    assert [blocks[t] for t in topics[:6]] == [a, b] * 3
    assert len(a.firsts) == 2 and a.size == 303
    assert len(a.bound) == 3 < a.rows and blocks["/g"] not in (a, b)
    z = blocks["/z0"]
    assert [tiered._series[t].row for t in ("/z0", "/z1", "/z2")] == [2, 1, 0]
    assert len({blocks[t].size for t in topics}) == 4

    check = expect_per_topic_write(tiered)
    sealed = tiered.flush(clock[0])
    check()
    assert sealed == sum(len(tiered.query(t, 0, HORIZON)[0]) for t in topics)
    assert not any(block.size for block in (a, b, z, blocks["/g"]))
