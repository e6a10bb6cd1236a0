"""The segment tier's kernel, format and crash points.

- **Kernel**: the whole-segment rollup (`rollup_segment`, one pass over
  a segment's arrays) against the per-series loop it replaced — a
  frozen copy of PR 10's `rollup_columns`, kept here — bit for bit, on
  random ragged segments; two seeded source mutations must be noticed.
- **Format**: WMSEG02 round-trips, a WMSEG01 file written by a frozen
  copy of the old writer is read, compacted and reopened with the same
  answers, and every single-bit flip of a file is detected.
- **Crash points**: a fault at each boundary of `flush` and of a
  compaction (write, fsync, rename, directory sync, unlink), under
  three models of what the crash leaves on disk; each ends in "reopen,
  zero loss of sealed data, no duplicate, sorted".
"""

import inspect
import itertools
import json
import os
import struct
import types

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.common.errors import StorageError
from repro.common.timeutil import NS_PER_SEC
from repro.dcdb import segments
from repro.dcdb.segments import (
    LEVEL_10S,
    LEVEL_1MIN,
    LEVEL_RAW,
    ROLLUP_COLUMNS,
    Columnar,
    Segment,
    SegmentStore,
    TieredStorageBackend,
    rollup_columns,
    rollup_segment,
)

TEN_S, MINUTE = 10 * NS_PER_SEC, 60 * NS_PER_SEC
FOREVER = 2**62


# ----------------------------------------------------------------------
# References: PR 10's per-series kernel and WMSEG01 writer, frozen
# ----------------------------------------------------------------------


def reference_rollup_columns(ts, vmin, vmean, vmax, count, bucket_ns):
    bucket = (ts // bucket_ns) * bucket_ns
    starts = np.flatnonzero(np.r_[True, bucket[1:] != bucket[:-1]])
    counts = np.add.reduceat(count, starts)
    sums = np.add.reduceat(vmean * count, starts)
    return {
        "ts": bucket[starts].astype(np.int64),
        "min": np.minimum.reduceat(vmin, starts),
        "mean": sums / counts,
        "max": np.maximum.reduceat(vmax, starts),
        "count": counts.astype(np.int64),
    }


def reference_rollup(offsets, cols, bucket_ns):
    """The per-series loop: one reference call per series, its results
    laid back to back."""
    parts = []
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        if "val" in cols:
            val = cols["val"][lo:hi]
            args = (val, val, val, np.ones(hi - lo, dtype=np.int64))
        else:
            args = tuple(cols[c][lo:hi] for c in ROLLUP_COLUMNS[1:])
        parts.append(
            reference_rollup_columns(cols["ts"][lo:hi], *args, bucket_ns)
        )
    new_offsets = np.zeros(len(offsets), dtype=np.int64)
    np.cumsum([len(p["ts"]) for p in parts], out=new_offsets[1:])
    return new_offsets, {
        c: np.concatenate([p[c] for p in parts]) for c in ROLLUP_COLUMNS
    }


def write_wmseg01(path, seq, level, series_data, created_ns=0, bucket_ns=0):
    """``Segment.write`` as PR 10 shipped it (JSON index header)."""
    columns = ROLLUP_COLUMNS if level else ("ts", "val")
    dtypes = {"ts": np.int64, "count": np.int64}
    index, offset = {}, 0
    topics = sorted(series_data)
    for topic in topics:
        cols = series_data[topic]
        n = len(cols["ts"])
        index[topic] = {
            "offset": offset, "count": n,
            "min_ts": int(cols["ts"][0]), "max_ts": int(cols["ts"][-1]),
            "last_val": float(cols["mean" if level else "val"][-1]),
        }
        offset += n
    header = {
        "level": int(level), "seq": int(seq), "created_ns": int(created_ns),
        "bucket_ns": int(bucket_ns), "columns": list(columns),
        "min_ts": min(s["min_ts"] for s in index.values()),
        "max_ts": max(s["max_ts"] for s in index.values()),
        "points": offset, "series": index,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(b"WMSEG01\n" + struct.pack("<I", len(blob)) + blob)
        for col in columns:
            for topic in topics:
                fh.write(np.ascontiguousarray(
                    series_data[topic][col], dtype=dtypes.get(col, np.float64)
                ).tobytes())


# ----------------------------------------------------------------------
# Random ragged segments
# ----------------------------------------------------------------------

#: Where a series starts.  Few and shared, so neighbouring series often
#: fall into the same bucket number — only the series boundary separates
#: them then.
BASES = (
    0, 7, 1_600_000_000 * NS_PER_SEC, 1_600_000_000 * NS_PER_SEC + 59 * NS_PER_SEC,
    2**60 - 200 * NS_PER_SEC,
)
#: How its timestamps advance: duplicates, sub-second, 1 Hz, sparse.
STEPS = {
    "duplicates": (0, 0, 0, NS_PER_SEC),
    "dense": (1, 1000, NS_PER_SEC // 4),
    "1hz": (NS_PER_SEC,),
    "edges": (TEN_S, MINUTE, 5 * NS_PER_SEC),
    "sparse": (17 * NS_PER_SEC, 45 * NS_PER_SEC, 3 * MINUTE),
}

SERIES = st.tuples(
    st.integers(min_value=1, max_value=60),       # points
    st.sampled_from(BASES),
    st.sampled_from(sorted(STEPS)),
    st.booleans(),                                # end on a bucket edge
)
SEGMENTS = st.tuples(
    st.lists(SERIES, min_size=1, max_size=40),
    st.integers(min_value=0, max_value=2**32 - 1),
)


def build(shape, seed):
    """``Columnar`` raw segment for a drawn shape: sorted int64
    timestamps below 2**60 per series, finite values."""
    rng = np.random.default_rng(seed)
    ts_parts, val_parts = [], []
    for points, base, steps, on_edge in shape:
        deltas = rng.choice(STEPS[steps], size=points)
        deltas[0] = 0
        ts = np.minimum(base + np.cumsum(deltas), 2**60).astype(np.int64)
        if on_edge:
            # The newest reading sits exactly on a 1-minute (hence also
            # a 10-second) bucket start.
            ts[-1] = min(-(-int(ts[-1]) // MINUTE) * MINUTE, 2**60)
        scale = 10.0 ** rng.integers(-3, 13)
        val = rng.normal(size=points) * scale
        val[rng.random(points) < 0.2] = scale  # exact repeats
        ts_parts.append(ts)
        val_parts.append(val)
    offsets = np.zeros(len(shape) + 1, dtype=np.int64)
    np.cumsum([len(p) for p in ts_parts], out=offsets[1:])
    topics = [f"/rack{i // 8:02d}/node{i % 8}/power" for i in range(len(shape))]
    return Columnar(topics, offsets, {
        "ts": np.concatenate(ts_parts), "val": np.concatenate(val_parts),
    })


def assert_same_bits(got, want):
    assert sorted(got) == sorted(want)
    for col in want:
        assert got[col].dtype == want[col].dtype, col
        assert got[col].tobytes() == want[col].tobytes(), col


def rolled(kernel, offsets, cols, bucket_ns):
    if "val" in cols:
        val = cols["val"]
        args = (val, val, val, np.ones(len(val), dtype=np.int64))
    else:
        args = tuple(cols[c] for c in ROLLUP_COLUMNS[1:])
    return kernel(offsets, cols["ts"], *args, bucket_ns)


def check_kernel(kernel, content):
    """raw -> 10 s -> 1 min: all five columns and the offsets equal the
    per-series reference bit for bit; nothing gained, nothing lost."""
    offsets, cols = content.offsets, content.columns
    raw_mass = np.add.reduceat(cols["val"], offsets[:-1])
    slack = 1e-12 * np.add.reduceat(np.abs(cols["val"]), offsets[:-1])
    for bucket_ns in (TEN_S, MINUTE):
        want_offsets, want = reference_rollup(offsets, cols, bucket_ns)
        offsets, cols = rolled(kernel, offsets, cols, bucket_ns)
        assert offsets.dtype == np.int64
        assert offsets.tolist() == want_offsets.tolist()
        assert_same_bits(cols, want)
        assert int(cols["count"].sum()) == len(content.columns["ts"])
        mass = np.add.reduceat(cols["mean"] * cols["count"], offsets[:-1])
        assert (np.abs(mass - raw_mass) <= slack).all()
    return offsets, cols


@settings(max_examples=250, deadline=None)
@given(drawn=SEGMENTS)
def test_whole_segment_rollup_is_the_per_series_rollup(drawn):
    check_kernel(rollup_segment, build(*drawn))


@settings(max_examples=200, deadline=None)
@given(drawn=SEGMENTS)
def test_write_open_slices_are_byte_equal(drawn, tmp_path_factory):
    content = build(*drawn)
    directory = tmp_path_factory.mktemp("seg")
    offsets, cols = rolled(rollup_segment, content.offsets, content.columns, TEN_S)
    for level, data in (
        (LEVEL_RAW, content),
        (LEVEL_10S, Columnar(content.topics, offsets, cols)),
    ):
        path = directory / f"segment-000000-l{level}.seg"
        Segment.write(path, 0, level, data, bucket_ns=level * TEN_S)
        seg = Segment.open(path)
        assert seg.offsets.tolist() == data.offsets.tolist()
        assert list(seg.series) == list(data.topics)
        for i, topic in enumerate(data.topics):
            lo, hi = data.offsets[i], data.offsets[i + 1]
            assert_same_bits(
                seg.topic_columns(topic, 0, FOREVER),
                {c: data.columns[c][lo:hi] for c in data.columns},
            )
        assert seg.min_ts == int(data.columns["ts"].min())
        assert seg.max_ts == int(data.columns["ts"][data.offsets[1:] - 1].max())


def test_one_series_kernel_is_the_public_rollup_columns():
    content = build([(60, 7, "dense", True)], seed=3)
    val = content.columns["val"]
    args = (content.columns["ts"], val, val, val, np.ones(60, dtype=np.int64))
    assert_same_bits(
        rollup_columns(*args, TEN_S), reference_rollup_columns(*args, TEN_S)
    )


# ----------------------------------------------------------------------
# Seeded mutations: the property must notice each
# ----------------------------------------------------------------------

MUTATIONS = {
    "series-boundary-left-out": (
        "    change[offsets[:-1]] = True\n", "",
    ),
    "offsets-searchsorted-right": (
        'np.searchsorted(starts, offsets, side="left")',
        'np.searchsorted(starts, offsets, side="right")',
    ),
}


def mutant_kernel(*edits):
    source = inspect.getsource(segments)
    for old, new in edits:
        assert source.count(old) == 1, old
        source = source.replace(old, new)
    module = types.ModuleType("segments_mutant")
    exec(compile(source, segments.__file__, "exec"), module.__dict__)
    return module.rollup_segment


def test_the_unmutated_copy_passes():
    check_kernel(mutant_kernel(), build([(30, 0, "1hz", False)] * 3, seed=1))


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_seeded_mutation_fails_the_property(name):
    kernel = mutant_kernel(MUTATIONS[name])

    @settings(
        max_examples=250, deadline=None, database=None,
        phases=[Phase.generate],  # found is enough: no shrinking
    )
    @given(drawn=SEGMENTS)
    def prop(drawn):
        check_kernel(kernel, build(*drawn))

    with pytest.raises(AssertionError):
        prop()


# ----------------------------------------------------------------------
# Format
# ----------------------------------------------------------------------


def as_series(content):
    """``{topic: {column: array}}``, the writer's other argument form."""
    return {
        topic: {c: a[lo:hi] for c, a in content.columns.items()}
        for topic, lo, hi in zip(
            content.topics, content.offsets[:-1], content.offsets[1:]
        )
    }


def answers(backend, topics):
    out = {}
    for topic in topics:
        ts, val = backend.query(topic, 0, FOREVER)
        out[topic] = (ts.tobytes(), val.tobytes(), backend.latest(topic),
                      backend.count(topic))
    return out


class TestFormat:
    def test_both_argument_forms_write_the_same_file(self, tmp_path):
        content = build([(5, 0, "1hz", False), (1, 7, "dense", True)], seed=2)
        a = Segment.write(tmp_path / "a.seg", 3, LEVEL_RAW, content, created_ns=9)
        b = Segment.write(
            tmp_path / "b.seg", 3, LEVEL_RAW, as_series(content), created_ns=9
        )
        assert a.path.read_bytes() == b.path.read_bytes()
        assert a.disk_bytes == len(a.path.read_bytes())

    def test_awkward_topic_names_round_trip(self, tmp_path):
        names = ["/a\nb", "/näme/ü", "/日本/電力", "/a//b/", " ", "/a\tb"]
        ts = np.arange(3, dtype=np.int64)
        store = SegmentStore(tmp_path)
        store.write({
            name: {"ts": ts + i, "val": ts * 1.5 + i}
            for i, name in enumerate(names)
        })
        (seg,) = SegmentStore(tmp_path).segments
        assert sorted(seg.series) == sorted(names)
        for i, name in enumerate(names):
            assert seg.query(name, 0, FOREVER)[0].tolist() == (ts + i).tolist()
        with pytest.raises(StorageError, match="NUL"):
            store.write({"/a\0b": {"ts": ts, "val": ts * 1.0}})

    def test_neighbours_share_one_name_table(self, tmp_path):
        store = SegmentStore(tmp_path)
        ts = np.arange(3, dtype=np.int64)
        for i in range(3):
            store.write({
                t: {"ts": ts + 10 * i, "val": ts * 1.0} for t in ("/a", "/b")
            })
        store.write({"/c": {"ts": ts + 100, "val": ts * 1.0}})
        for segs in (store.segments, SegmentStore(tmp_path).segments):
            assert segs[0].series is segs[1].series is segs[2].series
            assert segs[3].series is not segs[2].series
            assert "/a" in segs[0].series and list(segs[3].series) == ["/c"]
            # The query path's index lookups are plain Python numbers.
            assert type(segs[0]._max_ts[0]) is int
            assert type(segs[0]._last_val[0]) is float

    def test_wmseg01_directory_reads_compacts_and_reopens(self, tmp_path):
        """A directory PR 10's writer left: same answers through the
        WMSEG01 reader, rewritten as WMSEG02 by the next compaction."""
        raw = build([(60, 0, "1hz", False), (45, 7, "dense", True)], seed=5)
        old = build([(60, 0, "1hz", False)], seed=6)
        offsets, cols = rolled(rollup_segment, old.offsets, old.columns, TEN_S)
        v1, v2 = tmp_path / "v1", tmp_path / "v2"
        for directory, write in ((v1, write_wmseg01), (v2, Segment.write)):
            directory.mkdir()
            write(directory / "segment-000000-l1.seg", 0, LEVEL_10S,
                  as_series(Columnar(old.topics, offsets, cols)),
                  bucket_ns=TEN_S)
            shifted = {
                t: {"ts": c["ts"] + 100 * NS_PER_SEC, "val": c["val"]}
                for t, c in as_series(raw).items()
            }
            write(directory / "segment-000001-l0.seg", 1, LEVEL_RAW, shifted)
        assert (v1 / "segment-000001-l0.seg").read_bytes()[:8] == b"WMSEG01\n"

        def backends():
            return [
                TieredStorageBackend(
                    d, rollup_after_ns=TEN_S, rollup_minute_after_ns=MINUTE,
                ) for d in (v1, v2)
            ]

        for step in range(3):
            from_v1, from_v2 = backends()
            assert from_v1.store.quarantined == 0
            assert answers(from_v1, raw.topics) == answers(from_v2, raw.topics)
            for seg_a, seg_b in zip(from_v1.store.segments, from_v2.store.segments):
                assert (seg_a.level, seg_a.min_ts, seg_a.max_ts, seg_a.points) == (
                    seg_b.level, seg_b.min_ts, seg_b.max_ts, seg_b.points)
            for backend in (from_v1, from_v2):
                backend.maintain((1 + step) * 1000 * NS_PER_SEC)
        assert [s.level for s in from_v1.store.segments] == [LEVEL_1MIN] * 2
        for path in v1.glob("*.seg"):
            assert path.read_bytes()[:8] == b"WMSEG02\n"
        # A WMSEG01 rollup had no seal_ts: the floor it hands on is the
        # start of its last bucket; a WMSEG01 raw file's is exact.
        assert from_v1._sealed["/rack00/node0/power"] == 159 * NS_PER_SEC
        assert from_v2._sealed == from_v1._sealed

    def test_truncated_wmseg01_header_is_quarantined(self, tmp_path):
        content = as_series(build([(5, 0, "1hz", False)], seed=1))
        path = tmp_path / "segment-000000-l0.seg"
        write_wmseg01(path, 0, LEVEL_RAW, content)
        path.write_bytes(path.read_bytes()[:40])
        assert SegmentStore(tmp_path).quarantined == 1

    def test_every_bit_flip_is_detected_or_lands_in_padding(self, tmp_path):
        content = build([(3, 0, "1hz", False), (2, 7, "dense", False)], seed=4)
        offsets, cols = rolled(rollup_segment, content.offsets, content.columns, TEN_S)
        for level, data in (
            (LEVEL_RAW, content),
            (LEVEL_10S, Columnar(content.topics, offsets, cols)),
        ):
            path = tmp_path / f"segment-000000-l{level}.seg"
            seg = Segment.write(path, 0, level, data)
            good = path.read_bytes()
            want = {t: seg.topic_columns(t, 0, FOREVER) for t in seg.series}
            index_end = segments._HEADER.size + struct.unpack_from("<I", good, 64)[0]
            assert index_end <= seg.data_offset < index_end + 8
            undetected = []
            for bit in range(len(good) * 8):
                blob = bytearray(good)
                blob[bit // 8] ^= 1 << (bit % 8)
                path.write_bytes(bytes(blob))
                try:
                    flipped = Segment.open(path)
                    for topic in want:
                        assert_same_bits(
                            flipped.topic_columns(topic, 0, FOREVER), want[topic]
                        )
                except StorageError:
                    continue
                undetected.append(bit // 8)
            assert set(undetected) <= set(range(index_end, seg.data_offset))


# ----------------------------------------------------------------------
# Crash points
# ----------------------------------------------------------------------


class Crash(Exception):
    """The process dies here."""


class Disk:
    """Faults and durability for one segment directory.

    Counts every boundary the writer crosses in ``directory`` (``write``
    on a file, ``fsync``, ``replace``, ``unlink``) and raises
    :class:`Crash` *instead of* the one numbered ``fail_at``.
    :meth:`crash` then leaves on disk what the model says survives:

    - ``process``: everything done so far (kill -9; the OS keeps it).
    - ``power``: only what was synced — a file's bytes as of its last
      ``fsync`` (none: empty), a name (create, rename, unlink) as of the
      last ``fsync`` of the directory.
    - ``power-names``: as ``power``, but ``fsync`` of a file also makes
      its current name durable (what ext4 does in practice).
    """

    def __init__(self, directory, model):
        self.directory, self.model = str(directory), model
        self.ops, self.fail_at = [], None
        self._synced = {}   # name -> bytes as of the file's last fsync
        self._durable = {}  # name -> bytes: what a power cut leaves
        self._real = (os.fsync, os.replace, os.unlink, open)

    def _mine(self, path):
        return os.path.dirname(os.path.abspath(os.fspath(path))) == self.directory

    def _boundary(self, name):
        if self.fail_at == len(self.ops):
            self.fail_at = None
            raise Crash(name)
        self.ops.append(name)

    def install(self, patch):
        fsync, replace, unlink, real_open = self._real
        disk = self

        def fake_fsync(fd):
            path = os.readlink(f"/proc/self/fd/{fd}")
            if path == disk.directory:
                disk._boundary("fsync-dir")
                fsync(fd)
                disk._durable = {
                    name: disk._synced.get(name, b"")
                    for name in os.listdir(path)
                }
            elif disk._mine(path):
                disk._boundary("fsync")
                fsync(fd)
                with real_open(path, "rb") as fh:
                    content = disk._synced[os.path.basename(path)] = fh.read()
                if disk.model == "power-names":
                    disk._durable[os.path.basename(path)] = content
            else:
                fsync(fd)

        def fake_replace(src, dst):
            if disk._mine(dst):
                disk._boundary("replace")
                content = disk._synced.pop(os.path.basename(src), None)
                disk._synced.pop(os.path.basename(dst), None)
                if content is not None:
                    disk._synced[os.path.basename(dst)] = content
            replace(src, dst)

        def fake_unlink(path, **kwargs):
            if disk._mine(path):
                disk._boundary("unlink")
                disk._synced.pop(os.path.basename(path), None)
            unlink(path, **kwargs)

        class File:
            def __init__(self, fh):
                self._fh = fh

            def write(self, data):
                disk._boundary("write")
                return self._fh.write(data)

            def __getattr__(self, name):
                return getattr(self._fh, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._fh.close()

        def fake_open(path, mode="r", *args, **kwargs):
            fh = real_open(path, mode, *args, **kwargs)
            if "w" in mode and disk._mine(path):
                disk._synced.pop(os.path.basename(path), None)
                return File(fh)
            return fh

        patch.setattr(os, "fsync", fake_fsync)
        patch.setattr(os, "replace", fake_replace)
        patch.setattr(os, "unlink", fake_unlink)
        patch.setattr(segments, "open", fake_open, raising=False)

    def crash(self):
        if self.model == "process":
            return
        _, _, unlink, real_open = self._real
        for name in os.listdir(self.directory):
            unlink(os.path.join(self.directory, name))
        for name, content in self._durable.items():
            with real_open(os.path.join(self.directory, name), "wb") as fh:
                fh.write(content)


TOPICS = ("/r0/n0/power", "/r0/n1/power", "/r0/n2/temp")


def readings(start_s, seconds=60, seed=11):
    rng = np.random.default_rng(seed + start_s)
    ts = (start_s + np.arange(seconds, dtype=np.int64)) * NS_PER_SEC
    return {topic: (ts, rng.normal(100.0, 5.0, size=seconds)) for topic in TOPICS}


def insert(backend, batch):
    for topic, (ts, val) in batch.items():
        backend.insert_batch(topic, ts, val)


def tiered(directory):
    return TieredStorageBackend(
        directory, flush_mb=64, rollup_after_ns=100 * NS_PER_SEC,
        rollup_minute_after_ns=1000 * NS_PER_SEC,
    )


def reopen(directory):
    """The restarted agent's backend; the scan left no temporary."""
    backend = tiered(directory)
    assert not list(directory.glob("*.tmp"))
    return backend


def sealed_counts(backend, topic):
    """(readings, mass, timestamps) the segment tier holds of ``topic``,
    rollup buckets weighted by their count."""
    count, mass, stamps = 0, 0.0, []
    for seg in backend.store.segments:
        if topic not in seg.series:
            continue
        cols = seg.topic_columns(topic, seg.min_ts, seg.max_ts)
        stamps.extend(cols["ts"].tolist())
        if seg.level:
            count += int(cols["count"].sum())
            mass += float((cols["mean"] * cols["count"]).sum())
        else:
            count += len(cols["ts"])
            mass += float(cols["val"].sum())
    return count, mass, stamps


def assert_replay_refused(backend, batch):
    """A Pusher replaying what was sealed: everything older than the
    topic's newest sealed reading is refused (the floor itself is in
    order, as an equal timestamp is within one tier)."""
    before = backend.ooo_dropped, backend.total_readings()
    for topic, (ts, val) in batch.items():
        backend.insert_batch(topic, ts[:-1], val[:-1])
    replayed = sum(len(ts) - 1 for ts, _ in batch.values())
    assert backend.ooo_dropped == before[0] + replayed
    assert backend.total_readings() == before[1]


def crash_points(tmp_path, model, prepare, interrupted):
    """Run ``prepare(backend)`` then ``interrupted(backend)`` in a fresh
    directory per crash point, the fault one boundary later each time;
    yield the directory after the crash.  Ends with the run the fault
    never reached."""
    for k in itertools.count():
        directory = tmp_path / f"{model}-{k}"
        disk = Disk(directory, model)
        with pytest.MonkeyPatch.context() as patch:
            disk.install(patch)
            backend = tiered(directory)
            prepare(backend)
            disk.fail_at = len(disk.ops) + k
            try:
                interrupted(backend)
            except Crash as crash:
                boundary = str(crash)
            else:
                assert k >= 4  # write(s), fsync, replace, fsync-dir at least
                return
            disk.crash()
        yield directory, boundary


MODELS = ("process", "power", "power-names")


@pytest.mark.parametrize("model", MODELS)
def test_crash_at_each_boundary_of_flush(tmp_path, model):
    first, second = readings(0), readings(60)

    def prepare(backend):
        insert(backend, first)
        backend.flush(60 * NS_PER_SEC)
        insert(backend, second)

    boundaries = []
    for directory, boundary in crash_points(
        tmp_path, model, prepare, lambda b: b.flush(120 * NS_PER_SEC)
    ):
        boundaries.append(boundary)
        reopened = reopen(directory)
        kept = {len(reopened.query(t, 0, FOREVER)[0]) for t in TOPICS}
        assert kept in ({60}, {120})  # the second flush: whole or not at all
        for topic in TOPICS:
            ts, val = reopened.query(topic, 0, FOREVER)
            want_ts = np.concatenate([first[topic][0], second[topic][0]])[: len(ts)]
            want_val = np.concatenate([first[topic][1], second[topic][1]])[: len(ts)]
            assert ts.tobytes() == want_ts.tobytes()
            assert val.tobytes() == want_val.tobytes()
        assert_replay_refused(reopened, first)
        if kept == {120}:
            assert_replay_refused(reopened, second)
        else:
            insert(reopened, second)  # the Pushers' spill replay
        reopened.flush(120 * NS_PER_SEC)
        reopened.maintain(5000 * NS_PER_SEC)
        assert reopened.store.level_counts()["rollup_1min"] == len(
            reopened.store.segments
        )
        for topic in TOPICS:
            count, mass, stamps = sealed_counts(reopened, topic)
            assert count == 120 and stamps == sorted(stamps)
            assert mass == pytest.approx(
                first[topic][1].sum() + second[topic][1].sum(), rel=1e-12
            )
    assert boundaries == ["write"] * 3 + ["fsync", "replace", "fsync-dir"]


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("minute", [False, True], ids=["raw-10s", "10s-1min"])
def test_crash_at_each_boundary_of_a_compaction(tmp_path, model, minute):
    batch = readings(0)
    now = (5000 if minute else 500) * NS_PER_SEC

    def prepare(backend):
        insert(backend, batch)
        backend.flush(60 * NS_PER_SEC)
        if minute:
            backend.maintain(500 * NS_PER_SEC)

    boundaries = []
    for directory, boundary in crash_points(
        tmp_path, model, prepare, lambda b: b.maintain(now)
    ):
        boundaries.append(boundary)
        reopened = reopen(directory)
        (seg,) = reopened.store.segments  # one file per sequence number
        assert seg.level in ((1, 2) if minute else (0, 1))
        for topic in TOPICS:
            count, mass, stamps = sealed_counts(reopened, topic)
            assert count == 60 and stamps == sorted(stamps)
            assert mass == pytest.approx(batch[topic][1].sum(), rel=1e-12)
        assert_replay_refused(reopened, batch)
        # The interrupted sweep completes on the next one.
        reopened.maintain(now)
        (seg,) = reopened.store.segments
        assert seg.level == (2 if minute else 1)
        assert [p.name for p in directory.iterdir()] == [seg.path.name]
        want = readings_rolled(batch, minute)
        for topic in TOPICS:
            assert_same_bits(seg.topic_columns(topic, 0, FOREVER), want[topic])
    assert boundaries == (
        ["write"] * 6 + ["fsync", "replace", "fsync-dir", "unlink"]
    )


def readings_rolled(batch, minute):
    out = {}
    for topic, (ts, val) in batch.items():
        cols = reference_rollup_columns(
            ts, val, val, val, np.ones(len(ts), dtype=np.int64), TEN_S
        )
        if minute:
            cols = reference_rollup_columns(*cols.values(), MINUTE)
        out[topic] = cols
    return out
