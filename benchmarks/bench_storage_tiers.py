"""Tiered storage benchmark — parity, crash replay, rollups, latency.

Production DCDB persists readings in Cassandra with age-based
downsampling; the reproduction's :class:`TieredStorageBackend` seals
in-memory series into on-disk columnar segments and compacts old raw
segments into 10s/1min rollups.  A disk tier is only acceptable if it
is *invisible* to readers and loses nothing across restarts, so this
bench measures exactly those properties:

- **Tier identity**: the same reading stream (including out-of-order
  offenders) driven into a memory-only backend and a tiered backend
  that flushes aggressively must answer every range query
  bit-identically, with hits spanning both tiers.
- **Restart replay**: seal everything, reopen the segment directory in
  a fresh backend (the crash-recovery path) and compare every series —
  zero lost readings, and the seal boundary still refuses stale
  inserts after the restart.
- **Rollup compaction**: age raw segments through the 10s and 1min
  levels; report the compression ratio and the aggregate mass error
  (``sum(mean x count)`` vs the raw sum — must be ~0: the rollups
  redistribute readings, they must not invent or lose signal).
- **Query/insert throughput**: memory-only vs tiered on identical
  workloads, so the disk tier's overhead is a number, not a feeling.
- **Maintenance**: what one sweep costs at fan-in width (1 480 topics x
  10 readings per flush, the shape ``tiered_query_mix`` has, landed as
  the Collect Agent's drain lands it: one pass per node and reading
  step) — flush, raw -> 10 s and 10 s -> 1 min compaction, open, bytes
  on disk per reading — each beside the per-topic loop and JSON-header
  file (WMSEG01) it replaced, kept here as the reference and run in the
  same process on the same data.  The flush is also timed beside its
  own gather one topic at a time (``per_topic_gather``), writing through
  the same ``SegmentStore.write``: the file bytes must be the same.
- **Range reads**: a store aged as ``tiered_query_mix`` ages one (46
  flushes of 1 480 topics, rolled up and folded per window into 3 raw,
  3 x 10 s and 1 x 1 min files, plus a memory tier) answers the probe's
  reads — last 30 s, 60 s at a past offset, the whole history, 60 s
  means over the whole history — through the one-pass read, beside the
  per-segment read it replaced (every overlapping segment's whole file
  loaded, both bounds searched), kept here as the reference; every
  answer is compared bit for bit.  A store aged 10x (460 flushes) must
  answer a whole-history read within 1.5x of the young store's p50 —
  a read meets one file per window, not one per flush — and its sweeps
  report what a fold into a nearly full hour file costs beside a flush.

Run standalone (``python benchmarks/bench_storage_tiers.py [--smoke]``)
or under pytest.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import struct
import sys
import tempfile
import time
import zlib
from pathlib import Path

if __package__ in (None, ""):  # script invocation: make repo-root imports work
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import numpy as np

from benchmarks.harness import (
    insert_passes,
    print_header,
    print_table,
    shape_check,
    write_bench_artifact,
)
from repro.common.timeutil import NS_PER_SEC
from repro.dcdb.segments import (
    LEVEL_10S,
    LEVEL_1MIN,
    LEVEL_RAW,
    ROLLUP_BUCKET_NS,
    ROLLUP_COLUMNS,
    Columnar,
    Segment,
    TieredStorageBackend,
    fold_segment,
)
from repro.dcdb.storage import StorageBackend

CONFIG = {
    "identity": {"topics": 8, "seconds": 30, "ooo_every": 13},
    "rollup": {"topics": 3, "seconds": 1800, "flush_chunks": 6},
    "throughput": {"topics": 4, "readings": 25_000},
    "maintenance": {"nodes": 148, "sensors": 10, "readings": 10, "rounds": 9},
    "reads": {"nodes": 148, "sensors": 10, "topics_read": 64, "rounds": 5},
}


def _stream(topics: int, seconds: int, ooo_every: int, seed: int = 0xD15C):
    """Deterministic reading stream with periodic out-of-order offenders.

    Yields (topic, timestamps, values) batches; every ``ooo_every``-th
    batch carries one timestamp rewound behind the previous batch, which
    every tier must refuse identically.
    """
    rng = np.random.default_rng(seed)
    names = [f"/rack00/node{i:02d}/power" for i in range(topics)]
    for sec in range(seconds):
        for t, topic in enumerate(names):
            base = sec * NS_PER_SEC + t * 1000
            ts = base + np.arange(0, 4, dtype=np.int64) * (NS_PER_SEC // 4)
            val = rng.normal(100.0, 5.0, size=4)
            if ooo_every and sec and sec % ooo_every == 0 and t == 0:
                ts = ts.copy()
                ts[1] -= 2 * NS_PER_SEC  # rewind: must be dropped
            yield topic, ts, val


def run_identity(topics: int, seconds: int, ooo_every: int) -> dict:
    """Memory-only vs aggressively-flushing tiered: bit-identical?"""
    tmp = tempfile.mkdtemp(prefix="bench-tiers-")
    try:
        mem = StorageBackend()
        tiered = TieredStorageBackend(tmp, flush_mb=64)
        for i, (topic, ts, val) in enumerate(
            _stream(topics, seconds, ooo_every)
        ):
            readings = list(zip([topic] * len(ts), ts, val))
            insert_passes(mem, readings)
            insert_passes(tiered, readings)
            # Seal mid-stream so queries span segments AND memory.
            if i and i % (topics * (seconds // 3)) == 0:
                tiered.flush(int(ts[-1]))
        identical = True
        horizon = seconds * NS_PER_SEC
        windows = [(0, 2**62), (horizon // 4, 3 * horizon // 4)]
        for topic in mem.topics():
            for lo, hi in windows:
                m_ts, m_val = mem.query(topic, lo, hi)
                t_ts, t_val = tiered.query(topic, lo, hi)
                if not (
                    np.array_equal(m_ts, t_ts)
                    and np.array_equal(m_val, t_val)
                ):
                    identical = False
        return {
            "topics": len(mem.topics()),
            "readings": mem.total_readings(),
            "ooo_dropped_memory": mem.ooo_dropped,
            "ooo_dropped_tiered": tiered.ooo_dropped,
            "segments": len(tiered.store.segments),
            "segment_points": tiered.store.total_points(),
            "tier_hits": dict(tiered.tier_hits),
            "identical": identical,
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run_restart_replay(topics: int, seconds: int) -> dict:
    """Flush everything, reopen the directory, compare every series."""
    tmp = tempfile.mkdtemp(prefix="bench-tiers-")
    try:
        first = TieredStorageBackend(tmp, flush_mb=64)
        last_ts = 0
        for topic, ts, val in _stream(topics, seconds, ooo_every=0):
            insert_passes(first, zip([topic] * len(ts), ts, val))
            last_ts = max(last_ts, int(ts[-1]))
        mid = seconds * NS_PER_SEC // 2
        first.flush(mid)  # two generations of segments
        for topic, ts, val in _stream(topics, seconds, ooo_every=0,
                                      seed=0xB007):
            insert_passes(first, zip([topic] * len(ts), ts + mid + NS_PER_SEC, val))
            last_ts = max(last_ts, int(ts[-1]) + mid + NS_PER_SEC)
        flushed = first.total_readings()
        expected = {
            topic: first.query(topic, 0, 2**62) for topic in first.topics()
        }
        first.flush(last_ts)

        # "Restart": a brand-new backend over the same directory.
        second = TieredStorageBackend(tmp, flush_mb=64)
        mismatched = 0
        lost = flushed - second.total_readings()
        for topic, (e_ts, e_val) in expected.items():
            g_ts, g_val = second.query(topic, 0, 2**62)
            if not (
                np.array_equal(e_ts, g_ts) and np.array_equal(e_val, g_val)
            ):
                mismatched += 1
        probe = first.topics()[0]
        before = second.count(probe)
        insert_passes(second, [(probe, last_ts + NS_PER_SEC, 1.0)])
        insert_ok = second.count(probe) == before + 1
        insert_passes(second, [(probe, 0, 1.0)])  # stale replay: must be refused
        ooo_refused = second.ooo_dropped == 1
        return {
            "flushed_readings": flushed,
            "replayed_readings": second.replayed_points,
            "lost_readings": lost,
            "mismatched_series": mismatched,
            "segments": len(second.store.segments),
            "post_restart_insert_ok": insert_ok,
            "post_restart_ooo_refused": ooo_refused,
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run_rollup(topics: int, seconds: int, flush_chunks: int) -> dict:
    """Age raw segments into 10s and 1min rollups; check mass."""
    tmp = tempfile.mkdtemp(prefix="bench-tiers-")
    try:
        backend = TieredStorageBackend(
            tmp,
            flush_mb=64,
            rollup_after_ns=(seconds // 6) * NS_PER_SEC,
            rollup_minute_after_ns=(seconds // 3) * NS_PER_SEC,
        )
        rng = np.random.default_rng(0x5EED)
        names = [f"/rack00/node{i:02d}/power" for i in range(topics)]
        raw_sum = 0.0
        raw_readings = 0
        chunk = seconds // flush_chunks
        for c in range(flush_chunks):
            for topic in names:
                ts = (
                    np.arange(c * chunk, (c + 1) * chunk, dtype=np.int64)
                    * NS_PER_SEC
                )
                val = rng.normal(200.0, 20.0, size=len(ts))
                insert_passes(backend, zip([topic] * len(ts), ts, val))
                raw_sum += float(val.sum())
                raw_readings += len(ts)
            backend.flush((c + 1) * chunk * NS_PER_SEC)
        backend.maintain(seconds * NS_PER_SEC)

        represented = 0
        mass = 0.0
        for seg in backend.store.segments:
            for topic in seg.series:
                cols = seg.topic_columns(topic, seg.min_ts, seg.max_ts)
                if seg.level:
                    represented += int(cols["count"].sum())
                    mass += float((cols["mean"] * cols["count"]).sum())
                else:
                    represented += len(cols["ts"])
                    mass += float(cols["val"].sum())
        stored = backend.store.total_points()
        levels = sorted({seg.level for seg in backend.store.segments})
        return {
            "raw_readings": raw_readings,
            "represented_readings": represented,
            "stored_points": stored,
            "compression": raw_readings / stored if stored else 0.0,
            "levels": levels,
            "mass_error": abs(mass - raw_sum) / abs(raw_sum),
            "disk_bytes": backend.disk_bytes(),
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run_throughput(topics: int, readings: int) -> dict:
    """Insert and full-window query rates, memory-only vs tiered."""
    names = [f"/rack00/node{i:02d}/power" for i in range(topics)]
    per_topic = readings // topics
    ts = np.arange(per_topic, dtype=np.int64) * (NS_PER_SEC // 10)
    rng = np.random.default_rng(0xBE7)
    vals = {t: rng.normal(100.0, 5.0, size=per_topic) for t in names}

    # One pass a timestamp, every topic in it: what a drain writes.
    readings = [
        (topic, t, vals[topic][i])
        for i, t in enumerate(ts.tolist()) for topic in names
    ]

    def _drive(backend) -> dict:
        t0 = time.perf_counter()
        insert_passes(backend, readings)
        insert_s = time.perf_counter() - t0
        flush = getattr(backend, "flush", None)
        if flush is not None:
            flush(int(ts[-1]))  # worst case for the tiered reader
        t0 = time.perf_counter()
        window = 0
        for topic in names:
            q_ts, _ = backend.query(topic, 0, 2**62)
            window = max(window, len(q_ts))
        query_s = time.perf_counter() - t0
        return {
            "insert_per_s": (topics * per_topic) / insert_s,
            "query_ms": query_s * 1000 / topics,
            "window_readings": window,
        }

    tmp = tempfile.mkdtemp(prefix="bench-tiers-")
    try:
        return {
            "memory": _drive(StorageBackend()),
            "tiered": _drive(TieredStorageBackend(tmp, flush_mb=64)),
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


# ----------------------------------------------------------------------
# Maintenance: the columnar sweep beside the per-topic loop it replaced
# ----------------------------------------------------------------------


def _reference_rollup_columns(ts, vmin, vmean, vmax, count, bucket_ns):
    """PR 10's per-series kernel."""
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


class _ReferenceSegment:
    """A WMSEG01 file the way PR 10 wrote, opened and compacted it: a
    JSON index header, a dict per topic, one ``write`` per topic and
    column, one kernel call per topic."""

    MAGIC = b"WMSEG01\n"

    def __init__(self, path, header, data_offset):
        self.path, self.header, self.data_offset = path, header, data_offset
        self.level = header["level"]
        self.columns = tuple(header["columns"])
        self.series = header["series"]
        self._data = None

    @classmethod
    def write(cls, path, seq, level, series_data, created_ns=0, bucket_ns=0):
        columns = ROLLUP_COLUMNS if level else ("ts", "val")
        index, offset = {}, 0
        topics = sorted(series_data)
        for topic in topics:
            cols = series_data[topic]
            ts = cols["ts"]
            index[topic] = {
                "offset": offset, "count": len(ts),
                "min_ts": int(ts[0]), "max_ts": int(ts[-1]),
                "last_val": float(cols["mean" if level else "val"][-1]),
            }
            offset += len(ts)
        header = {
            "level": int(level), "seq": int(seq),
            "created_ns": int(created_ns), "bucket_ns": int(bucket_ns),
            "columns": list(columns),
            "min_ts": min(s["min_ts"] for s in index.values()),
            "max_ts": max(s["max_ts"] for s in index.values()),
            "points": offset, "series": index,
        }
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        tmp = path.with_suffix(".tmp")
        with open(tmp, "wb") as fh:
            fh.write(cls.MAGIC)
            fh.write(struct.pack("<I", len(blob)))
            fh.write(blob)
            for col in columns:
                dtype = np.int64 if col in ("ts", "count") else np.float64
                for topic in topics:
                    fh.write(np.ascontiguousarray(
                        series_data[topic][col], dtype=dtype
                    ).tobytes())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        return cls(path, header, len(cls.MAGIC) + 4 + len(blob))

    @classmethod
    def open(cls, path):
        with open(path, "rb") as fh:
            fh.read(len(cls.MAGIC))
            (length,) = struct.unpack("<I", fh.read(4))
            header = json.loads(fh.read(length).decode("utf-8"))
        return cls(path, header, len(cls.MAGIC) + 4 + length)

    def topic_columns(self, topic):
        if self._data is None:
            raw = self.path.read_bytes()[self.data_offset:]
            points = self.header["points"]
            self._data = {
                col: np.frombuffer(
                    raw, dtype=np.int64 if col in ("ts", "count") else np.float64,
                    count=points, offset=i * points * 8,
                )
                for i, col in enumerate(self.columns)
            }
        entry = self.series[topic]
        o, n = entry["offset"], entry["count"]
        ts = self._data["ts"][o : o + n]
        lo = int(np.searchsorted(ts, self.header["min_ts"], side="left"))
        hi = int(np.searchsorted(ts, self.header["max_ts"], side="right"))
        return {c: self._data[c][o + lo : o + hi] for c in self.columns}

    def compact(self, path, level):
        bucket_ns = ROLLUP_BUCKET_NS[level]
        data = {}
        for topic in self.series:
            cols = self.topic_columns(topic)
            if self.level == LEVEL_RAW:
                val = cols["val"]
                vmin = vmean = vmax = val
                count = np.ones(len(val), dtype=np.int64)
            else:
                vmin, vmean, vmax = cols["min"], cols["mean"], cols["max"]
                count = cols["count"]
            data[topic] = _reference_rollup_columns(
                cols["ts"], vmin, vmean, vmax, count, bucket_ns
            )
        new = self.write(
            path, self.header["seq"], level, data, bucket_ns=bucket_ns
        )
        self.path.unlink()
        return new


def _per_topic_gather_flush(backend, now_ns):
    """``TieredStorageBackend.flush`` with the gather it had before
    runs: one ``parts`` call and one part pair per topic, then one
    ``concatenate`` per column — kept here as the flush's reference."""
    topics = sorted(t for t, row in backend._series.items() if row.slab.size)
    if not topics:
        return 0
    rows = [backend._series[topic] for topic in topics]
    parts = [
        part for row in rows for part in row.slab.parts(row.row)
    ]
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([row.slab.size for row in rows], out=offsets[1:])
    seg = backend.store.write(
        Columnar(topics, offsets, {
            "ts": np.concatenate([ts for ts, _ in parts]),
            "val": np.concatenate([val for _, val in parts]),
        }),
        LEVEL_RAW, created_ns=now_ns,
    )
    backend._sealed.update(zip(topics, seg.seal_ts.tolist()))
    for block in dict.fromkeys(row.slab for row in rows):
        block.empty()
    backend.flush_count += 1
    return seg.points


def run_maintenance(nodes: int, sensors: int, readings: int, rounds: int) -> dict:
    """One sweep's costs, columnar path vs per-topic reference."""
    names = [
        f"/rack{n // 37:02d}/chassis{n % 37 // 4:02d}/node{n % 4:02d}"
        f"/tester{s:04d}"
        for n in range(nodes) for s in range(sensors)
    ]
    rng = np.random.default_rng(0x5EA1)
    # Node-wise sampling phases, as Pushers have.
    phase = rng.integers(0, NS_PER_SEC, size=nodes).repeat(sensors)
    # 17 s of 0.6 s readings: 10 s buckets of ragged size, two per minute.
    steps = np.arange(readings, dtype=np.int64) * (17 * NS_PER_SEC // readings)
    ms = {k: {"columnar": [], "per_topic_reference": []} for k in (
        "flush_ms", "compact_10s_ms", "compact_1min_ms", "open_ms")}
    ms["flush_ms"]["per_topic_gather"] = []
    fold_ms = {"same_topics": [], "changed_topics": []}
    identical = flush_identical = True
    sizes = {}

    def timed(key, side, fn):
        t0 = time.perf_counter()
        out = fn()
        ms[key][side].append((time.perf_counter() - t0) * 1e3)
        return out

    tmp = Path(tempfile.mkdtemp(prefix="bench-tiers-"))
    try:
        for r in range(rounds):
            values = rng.normal(100.0, 5.0, size=(len(names), readings))
            backend = TieredStorageBackend(
                tmp / f"columnar-{r}", flush_mb=64,
                rollup_after_ns=100 * NS_PER_SEC,
                rollup_minute_after_ns=1000 * NS_PER_SEC,
            )
            gathered = TieredStorageBackend(tmp / f"gather-{r}", flush_mb=64)
            reference = StorageBackend()
            # As the agent's drain lands readings: a pass per node and
            # step, at the node's phase — node by node, so each node's
            # topics tuple is planned once.
            stream = [
                (names[i], int(phase[i]) + step, values[i, j])
                for lo in range(0, len(names), sensors)
                for j, step in enumerate(steps.tolist())
                for i in range(lo, lo + sensors)
            ]
            for store in (backend, gathered, reference):
                insert_passes(store, stream)
            ref_dir = tmp / f"reference-{r}"
            ref_dir.mkdir()

            def reference_flush():
                data = {}
                for topic in reference.topics():
                    ts, val = reference.query(topic, 0, 2**62)
                    data[topic] = {"ts": ts.copy(), "val": val.copy()}
                return _ReferenceSegment.write(
                    ref_dir / "segment-000000-l0.seg", 0, LEVEL_RAW, data
                )

            def both(key, columnar, per_topic, gather=None):
                """Time both sides (the flush: all three), alternating
                which goes first so neither always runs warm."""
                sides = [("columnar", columnar), ("per_topic_reference", per_topic)]
                if gather is not None:
                    sides.append(("per_topic_gather", gather))
                if r % 2:
                    sides.reverse()
                return {side: timed(key, side, fn) for side, fn in sides}

            done = both(
                "flush_ms", lambda: backend.flush(20 * NS_PER_SEC), reference_flush,
                lambda: _per_topic_gather_flush(gathered, 20 * NS_PER_SEC),
            )
            ref = done["per_topic_reference"]
            (seg,) = backend.store.segments
            (twin,) = gathered.store.segments
            flush_identical &= seg.path.read_bytes() == twin.path.read_bytes()
            sizes = {
                "columnar": seg.disk_bytes,
                "per_topic_reference": ref.path.stat().st_size,
                "data_bytes": seg.points * 16,
            }
            timed("open_ms", "columnar", lambda: Segment.open(seg.path))
            ref = timed(
                "open_ms", "per_topic_reference",
                lambda: _ReferenceSegment.open(ref.path),
            )
            for key, level, now_s in (
                ("compact_10s_ms", LEVEL_10S, 500),
                ("compact_1min_ms", LEVEL_1MIN, 5000),
            ):
                ref_path = ref_dir / f"segment-000000-l{level}.seg"
                done = both(
                    key, lambda: backend.maintain(now_s * NS_PER_SEC),
                    lambda: ref.compact(ref_path, level),
                )
                ref = done["per_topic_reference"]
                (seg,) = backend.store.segments
                assert seg.level == level, seg.level
                for topic in names[:: max(1, len(names) // 64)]:
                    got = seg.topic_columns(topic, seg.min_ts, seg.max_ts)
                    want = ref.topic_columns(topic)
                    identical &= all(
                        got[c].tobytes() == want[c].tobytes()
                        for c in ROLLUP_COLUMNS
                    )
            # A fold of the next minute's buckets into this file: the
            # topics as they were, then with the last one renamed.
            older = seg.content()
            newer = older._replace(columns={
                **older.columns, "ts": older.columns["ts"] + 60 * NS_PER_SEC
            })
            changed = newer._replace(topics=[*older.topics[:-1], "/zz"])
            folds = [("same_topics", newer), ("changed_topics", changed)]
            for side, other in folds[:: -1 if r % 2 else 1]:
                t0 = time.perf_counter()
                fold_segment(older, other)
                fold_ms[side].append((time.perf_counter() - t0) * 1e3)
        points = len(names) * readings
        out = {
            "topics": len(names), "readings_per_flush": points,
            "rounds": rounds, "rollup_identical_to_reference": bool(identical),
            "flush_identical_to_per_topic_gather": bool(flush_identical),
        }
        for key, sides in ms.items():
            col = statistics.median(sides["columnar"])
            ref_ms = statistics.median(sides["per_topic_reference"])
            out[key] = {
                "columnar": col, "per_topic_reference": ref_ms,
                "speedup": ref_ms / col,
            }
        gather = statistics.median(ms["flush_ms"]["per_topic_gather"])
        out["flush_ms"]["per_topic_gather"] = gather
        out["flush_ms"]["speedup_over_per_topic_gather"] = (
            gather / out["flush_ms"]["columnar"]
        )
        out["disk_bytes_per_reading"] = {
            "columnar": sizes["columnar"] / points,
            "per_topic_reference": sizes["per_topic_reference"] / points,
        }
        out["data_bytes"] = sizes["data_bytes"]
        out["fold_ms"] = {
            side: statistics.median(times) for side, times in fold_ms.items()
        }
        out["index_bytes"] = {
            side: sizes[side] - sizes["data_bytes"]
            for side in ("columnar", "per_topic_reference")
        }
        return out
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


# ----------------------------------------------------------------------
# Range reads: the one-pass read beside the per-segment read it replaced
# ----------------------------------------------------------------------

#: The store ``tiered_query_mix`` ends a 15 s run with: one flush per
#: 10 s sweep, raw for 30 s, 10 s buckets until 120 s.  The aged store
#: runs ``_READ_AGE`` times as many sweeps.
_READ_FLUSHES, _READ_FLUSH_S, _READ_AGE = 46, 10, 10
_READ_ROLLUP_S, _READ_MINUTE_S = 30, 120
#: Bound on the sweep that folds into a nearly full hour file, in flushes
#: of one sweep of the same store (both are a write and its ``fsync``).
#: Full width measures 1.0-1.7x, a quarter of the width about 2x.
_FOLD_OVER_FLUSH = 3.0
#: The shape that store has: three raw files, the 10 s buckets folded
#: per minute, the 1 min buckets into one file per hour.
_READ_SHAPE = {"raw": 3, "rollup_10s": 3, "rollup_1min": 1}


class _ReferenceReader:
    """The range read before the one-pass loop: a segment filter (the
    segment's bounds, then the topic's index bounds), each overlapping
    segment's whole data section loaded and checked on its first read,
    both bounds searched, the memory tier last, ``concatenate``."""

    def __init__(self, backend):
        self.backend = backend
        self._loaded = {}

    def _load(self, seg):
        data = self._loaded.get(seg.path)
        if data is None:
            with open(seg.path, "rb") as fh:
                fh.seek(seg.data_offset)
                raw = memoryview(fh.read())
            block = seg.points * 8
            data = {}
            for i, col in enumerate(seg.columns):
                if zlib.crc32(raw[i * block : (i + 1) * block]) != seg._crcs[i]:
                    raise AssertionError(f"{seg.path}: column {col!r}")
                data[col] = np.frombuffer(
                    raw, dtype=np.int64 if col in ("ts", "count") else np.float64,
                    count=seg.points, offset=i * block,
                )
            self._loaded[seg.path] = data
        return data

    def query(self, topic, start_ts, end_ts):
        parts = []
        for seg in [
            s for s in self.backend.store.segments
            if s.min_ts <= end_ts and s.max_ts >= start_ts
            and topic in s.series
            and s._min_ts[s.series[topic]] <= end_ts
            and s._max_ts[s.series[topic]] >= start_ts
        ]:
            data = self._load(seg)
            row = seg.series[topic]
            o, n = seg._offset[row], seg._count[row]
            ts = data["ts"][o : o + n]
            lo = int(np.searchsorted(ts, start_ts, side="left"))
            hi = int(np.searchsorted(ts, end_ts, side="right"))
            if hi > lo:
                cols = {c: data[c][o + lo : o + hi] for c in seg.columns}
                parts.append((cols["ts"], cols["mean" if seg.level else "val"]))
        ts, val = StorageBackend.query(self.backend, topic, start_ts, end_ts)
        if len(ts):
            parts.append((ts, val))
        if not parts:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        if len(parts) == 1:
            return parts[0]
        return (
            np.concatenate([p[0] for p in parts]),
            np.concatenate([p[1] for p in parts]),
        )

    def query_aggregate(self, topic, start_ts, end_ts, bucket_ns, op="mean"):
        return StorageBackend.query_aggregate(
            self, topic, start_ts, end_ts, bucket_ns, op
        )


def _aged_store(directory, nodes: int, sensors: int, flushes: int = _READ_FLUSHES):
    """A tiered backend after ``flushes`` sweeps of 1 Hz readings from
    ``nodes x sensors`` topics, flushed every sweep and rolled up by
    age, with 5 s more readings left in memory.  Also returns what each
    sweep cost: (flush ms, maintain ms, points of the 1 min file a
    maintain folded into, else 0)."""
    names = [
        f"/rack{n // 37:02d}/chassis{n % 37 // 4:02d}/node{n % 4:02d}"
        f"/tester{s:04d}"
        for n in range(nodes) for s in range(sensors)
    ]
    rng = np.random.default_rng(0x4EAD)
    phase = rng.integers(0, NS_PER_SEC, size=nodes).repeat(sensors)
    backend = TieredStorageBackend(
        directory, flush_mb=64,
        rollup_after_ns=_READ_ROLLUP_S * NS_PER_SEC,
        rollup_minute_after_ns=_READ_MINUTE_S * NS_PER_SEC,
    )
    seconds = np.arange(_READ_FLUSH_S, dtype=np.int64) * NS_PER_SEC
    nodes_topics = [
        (lo, tuple(names[lo:lo + sensors])) for lo in range(0, len(names), sensors)
    ]
    sweeps = []
    for k in range(flushes + 1):
        start = k * _READ_FLUSH_S * NS_PER_SEC
        span = seconds if k < flushes else seconds[:5]
        values = rng.normal(100.0, 5.0, size=(len(names), len(span)))
        # A pass per node and second, at the node's phase: node by node,
        # so each node's topics tuple is planned once a sweep.
        for lo, topics in nodes_topics:
            stamps = (start + span + int(phase[lo])).tolist()
            for j, ts in enumerate(stamps):
                if k == j == 0:
                    # Each topic's first reading alone: one block per
                    # topic, the layout these sweep costs were set on.
                    for i, topic in enumerate(topics, lo):
                        backend.insert_columns_at((topic,), ts, values[i:i + 1, 0])
                    continue
                backend.insert_columns_at(topics, ts, values[lo:lo + sensors, j])
        if k < flushes:
            now = start + _READ_FLUSH_S * NS_PER_SEC
            t0 = time.perf_counter()
            backend.flush(now)
            t1 = time.perf_counter()
            before = {seg.path for seg in backend.store.segments}
            backend.maintain(now)
            t2 = time.perf_counter()
            folded = [
                seg.points for seg in backend.store.segments
                if seg.level == LEVEL_1MIN and seg.first < seg.seq
                and seg.path not in before
            ]
            sweeps.append(((t1 - t0) * 1e3, (t2 - t1) * 1e3, sum(folded)))
    return backend, names, start + 5 * NS_PER_SEC, sweeps


def _read_kinds(now: int) -> dict:
    """The probe's four range-read kinds on a store read at ``now``."""
    return {
        "recent_30s": lambda q, t, off: q.query(t, now - 30 * NS_PER_SEC, now),
        "range_60s": lambda q, t, off: q.query(t, off, off + 60 * NS_PER_SEC),
        "history": lambda q, t, off: q.query(t, 0, now),
        "aggregate_60s": lambda q, t, off: q.query_aggregate(
            t, 0, now, 60 * NS_PER_SEC, "mean"
        ),
    }


def _time_sides(sides: dict, topics, offsets, rounds: int):
    """Each side's read of every topic, the sides in alternating order,
    round 0 untimed (it loads every block once): (side -> microsecond
    samples, whether every side answered alike, bit for bit)."""
    us = {side: [] for side in sides}
    same = True
    for r in range(rounds + 1):
        order = list(sides.items())
        if r % 2:
            order.reverse()
        for topic, off in zip(topics, offsets):
            got = []
            for side, read in order:
                t0 = time.perf_counter_ns()
                got.append(read(topic, off))
                if r:
                    us[side].append((time.perf_counter_ns() - t0) / 1e3)
            (a_ts, a_val), (b_ts, b_val) = got
            same &= (
                a_ts.tobytes() == b_ts.tobytes() and a_val.tobytes() == b_val.tobytes()
            )
    return us, bool(same)


def _percentiles(us: dict) -> dict:
    row = {}
    for side, samples in us.items():
        row[f"{side}_us_p50"] = float(np.percentile(samples, 50))
        row[f"{side}_us_p95"] = float(np.percentile(samples, 95))
    return row


def _one_pass_vs_reference(backend, read, topics, offsets, rounds: int):
    """``read`` through the one-pass query and the per-segment reference:
    (p50/p95 row with the speedup, identical?)."""
    reference = _ReferenceReader(backend)
    us, identical = _time_sides({
        "one_pass": lambda t, off: read(backend, t, off),
        "per_segment_reference": lambda t, off: read(reference, t, off),
    }, topics, offsets, rounds)
    row = _percentiles(us)
    row["speedup_p50"] = row["per_segment_reference_us_p50"] / row["one_pass_us_p50"]
    return row, identical


def run_reads(nodes: int, sensors: int, topics_read: int, rounds: int) -> dict:
    """The probe's four range-read kinds, one-pass vs per-segment, on the
    ``tiered_query_mix`` store; then the whole-history read on a store
    ``_READ_AGE`` times older beside the young one, and what its sweeps
    cost."""
    tmp = Path(tempfile.mkdtemp(prefix="bench-tiers-"))
    try:
        backend, names, now, _ = _aged_store(tmp / "1x", nodes, sensors)
        rng = np.random.default_rng(0x7EAD)
        topics = [names[i] for i in rng.choice(len(names), topics_read, replace=False)]
        offsets = (
            rng.integers(0, now // NS_PER_SEC - 60, size=topics_read) * NS_PER_SEC
        ).tolist()
        out = {
            "topics": len(names), "segments": backend.store.level_counts(),
            "segment_points": backend.store.total_points(),
            "memory_readings": backend.tier_stats()["memory_readings"],
            "reads_per_kind": topics_read * rounds,
            "identical_to_reference": True,
        }
        for kind, read in _read_kinds(now).items():
            out[kind], identical = _one_pass_vs_reference(
                backend, read, topics, offsets, rounds
            )
            out["identical_to_reference"] &= identical
        aged, _, aged_now, sweeps = _aged_store(
            tmp / "aged", nodes, sensors, _READ_FLUSHES * _READ_AGE
        )
        history, aged_identical = _one_pass_vs_reference(
            aged, _read_kinds(aged_now)["history"], topics, offsets, rounds
        )
        # Young and aged whole-history reads side by side, alternating.
        young_vs_aged, _ = _time_sides({
            "young": lambda t, off: backend.query(t, 0, now),
            "aged": lambda t, off: aged.query(t, 0, aged_now),
        }, topics, offsets, rounds)
        young_vs_aged = _percentiles(young_vs_aged)
        flush_ms, maintain_ms, folded = zip(*sweeps)
        # Sweeps that folded into an hour file of >= 55 buckets a topic:
        # the last minutes of a full window, its costliest rewrites.
        full = [m for m, points in zip(maintain_ms, folded) if points >= 55 * len(names)]
        out["aged"] = {
            "age": _READ_AGE, "flushes": len(sweeps),
            "segments": aged.store.level_counts(),
            "segment_points": aged.store.total_points(),
            "identical_to_reference": aged_identical,
            "history": history,
            "young_vs_aged_history": young_vs_aged,
            "history_p50_over_young": (
                young_vs_aged["aged_us_p50"] / young_vs_aged["young_us_p50"]
            ),
            "sweep_ms": {
                "flush_p50": statistics.median(flush_ms),
                "maintain_p50": statistics.median(maintain_ms),
                "maintain_p95": float(np.percentile(maintain_ms, 95)),
                "full_hour_folds": len(full),
                "full_hour_fold_p50": statistics.median(full) if full else 0.0,
                "full_hour_fold_max": max(full, default=0.0),
            },
        }
        return out
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="short run for CI (same scenarios, smaller horizons)",
    )
    args = parser.parse_args(argv)
    cfg = CONFIG
    if args.smoke:
        cfg = {
            "identity": {"topics": 4, "seconds": 12, "ooo_every": 5},
            "rollup": {"topics": 2, "seconds": 600, "flush_chunks": 4},
            "throughput": {"topics": 2, "readings": 5_000},
            # Full width (the shape checks are about width), fewer rounds.
            "maintenance": {**CONFIG["maintenance"], "rounds": 3},
            # The same segment shape over a quarter of the topics.
            "reads": {"nodes": 37, "sensors": 10, "topics_read": 16, "rounds": 2},
        }

    print_header("Storage tiers - memory vs tiered identity")
    identity = run_identity(**cfg["identity"])
    print_table(
        ["topics", "readings", "segments", "ooo dropped", "identical"],
        [(
            identity["topics"], identity["readings"],
            identity["segments"], identity["ooo_dropped_tiered"],
            identity["identical"],
        )],
    )
    ok = shape_check(
        "tiered query results bit-identical to memory-only",
        identity["identical"],
    )
    ok &= shape_check(
        "ordering drops identical across backends",
        identity["ooo_dropped_memory"] == identity["ooo_dropped_tiered"]
        and identity["ooo_dropped_memory"] > 0,
        f"{identity['ooo_dropped_tiered']} dropped",
    )
    ok &= shape_check(
        "queries spanned both tiers",
        identity["tier_hits"]["memory"] > 0
        and identity["tier_hits"]["segment"] > 0,
        str(identity["tier_hits"]),
    )
    assert identity["identical"], "tier identity violated"

    print_header("Storage tiers - restart replay (crash recovery)")
    replay = run_restart_replay(
        cfg["identity"]["topics"], cfg["identity"]["seconds"]
    )
    print_table(
        ["flushed", "replayed", "lost", "mismatched", "segments"],
        [(
            replay["flushed_readings"], replay["replayed_readings"],
            replay["lost_readings"], replay["mismatched_series"],
            replay["segments"],
        )],
    )
    ok &= shape_check(
        "restart replay loses zero readings",
        replay["lost_readings"] == 0 and replay["mismatched_series"] == 0,
        f"{replay['lost_readings']} lost",
    )
    ok &= shape_check(
        "seal boundary survives the restart",
        replay["post_restart_insert_ok"]
        and replay["post_restart_ooo_refused"],
    )
    assert replay["lost_readings"] == 0, "restart replay lost readings"

    print_header("Storage tiers - rollup compaction")
    rollup = run_rollup(**cfg["rollup"])
    print_table(
        ["raw", "represented", "stored", "compression", "mass err"],
        [(
            rollup["raw_readings"], rollup["represented_readings"],
            rollup["stored_points"], round(rollup["compression"], 2),
            f"{rollup['mass_error']:.2e}",
        )],
    )
    ok &= shape_check(
        "every raw reading represented in some tier",
        rollup["represented_readings"] == rollup["raw_readings"],
    )
    ok &= shape_check(
        "rollups preserve aggregate mass",
        rollup["mass_error"] < 1e-12,
        f"{rollup['mass_error']:.2e}",
    )
    ok &= shape_check(
        "compaction reached the 1min level and compressed",
        max(rollup["levels"]) == 2 and rollup["compression"] > 2,
        f"levels {rollup['levels']}, {rollup['compression']:.1f}x",
    )

    print_header("Storage tiers - throughput (memory vs tiered)")
    throughput = run_throughput(**cfg["throughput"])
    print_table(
        ["backend", "insert/s", "query ms", "window"],
        [
            (
                name,
                f"{r['insert_per_s']:,.0f}",
                f"{r['query_ms']:.3f}",
                r["window_readings"],
            )
            for name, r in throughput.items()
        ],
    )
    ok &= shape_check(
        "tiered reads the same window the memory backend does",
        throughput["tiered"]["window_readings"]
        == throughput["memory"]["window_readings"],
    )

    print_header("Storage tiers - maintenance sweep at fan-in width")
    maintenance = run_maintenance(**cfg["maintenance"])
    rows = [
        (
            key.removesuffix("_ms").replace("_", " "),
            f"{maintenance[key]['columnar']:.2f}",
            f"{maintenance[key]['per_topic_reference']:.2f}",
            f"{maintenance[key]['speedup']:.1f}x",
        )
        for key in ("flush_ms", "compact_10s_ms", "compact_1min_ms", "open_ms")
    ]
    flush = maintenance["flush_ms"]
    rows.insert(1, (
        "flush, gather", f"{flush['columnar']:.2f}",
        f"{flush['per_topic_gather']:.2f}",
        f"{flush['speedup_over_per_topic_gather']:.2f}x",
    ))
    per_reading = maintenance["disk_bytes_per_reading"]
    rows.append((
        "B/reading", f"{per_reading['columnar']:.1f}",
        f"{per_reading['per_topic_reference']:.1f}",
        f"{per_reading['per_topic_reference'] / per_reading['columnar']:.1f}x",
    ))
    print_table(
        ["step (ms)", "columnar", "per-topic", "ratio"], rows, fmt="{:>14}"
    )
    ok &= shape_check(
        "whole-segment rollup equals the per-topic loop bit for bit",
        maintenance["rollup_identical_to_reference"],
    )
    ok &= shape_check(
        "block-run flush writes the per-topic gather's file, byte for byte",
        maintenance["flush_identical_to_per_topic_gather"],
    )
    ok &= shape_check(
        "block-run flush is faster than the per-topic gather",
        flush["per_topic_gather"] > flush["columnar"],
        f"block-run {flush['columnar']:.2f} ms vs per-topic gather "
        f"{flush['per_topic_gather']:.2f} ms",
    )
    for key in ("compact_10s_ms", "compact_1min_ms"):
        ok &= shape_check(
            f"{key.removesuffix('_ms')} >= 5x the per-topic loop",
            maintenance[key]["speedup"] >= 5.0,
            f"{maintenance[key]['speedup']:.1f}x",
        )
    fold = maintenance["fold_ms"]
    print(f"  fold into a 1 min file: {fold['same_topics']:.2f} ms over one "
          f"name table, {fold['changed_topics']:.2f} ms with one topic changed")
    ok &= shape_check(
        "a fold over one name table skips the union of two",
        fold["same_topics"] < fold["changed_topics"],
        f"{fold['same_topics']:.2f} ms vs {fold['changed_topics']:.2f} ms",
    )
    index_bytes = maintenance["index_bytes"]["columnar"]
    ok &= shape_check(
        "index bytes < 1/4 data bytes in a raw segment",
        index_bytes < maintenance["data_bytes"] / 4,
        f"{index_bytes} B index, {maintenance['data_bytes']} B data "
        f"(WMSEG01: {maintenance['index_bytes']['per_topic_reference']} B)",
    )

    print_header("Storage tiers - range reads on an aged store")
    reads = run_reads(**cfg["reads"])
    kinds = ("recent_30s", "range_60s", "history", "aggregate_60s")
    print_table(
        ["read (us)", "p50", "ref p50", "p95", "ref p95", "ratio"],
        [
            (
                kind, f"{reads[kind]['one_pass_us_p50']:.1f}",
                f"{reads[kind]['per_segment_reference_us_p50']:.1f}",
                f"{reads[kind]['one_pass_us_p95']:.1f}",
                f"{reads[kind]['per_segment_reference_us_p95']:.1f}",
                f"{reads[kind]['speedup_p50']:.1f}x",
            )
            for kind in kinds
        ],
        fmt="{:>14}",
    )
    aged = reads["aged"]
    sweep = aged["sweep_ms"]
    print(f"  aged store: {aged['age']}x the flushes, whole-history read "
          f"one-pass {aged['history']['one_pass_us_p50']:.1f} us p50 vs "
          f"per-segment {aged['history']['per_segment_reference_us_p50']:.1f} us")
    side_by_side = aged["young_vs_aged_history"]
    print_table(
        ["history (us)", "flushes", "files", "p50", "p95"],
        [
            (side, flushes, sum(levels.values()),
             f"{side_by_side[side + '_us_p50']:.1f}",
             f"{side_by_side[side + '_us_p95']:.1f}")
            for side, flushes, levels in (
                ("young", _READ_FLUSHES, reads["segments"]),
                ("aged", aged["flushes"], aged["segments"]),
            )
        ],
        fmt="{:>14}",
    )
    print_table(
        ["sweep (ms)", "flush p50", "maintain p50", "maintain p95",
         "full-hour fold p50", "max"],
        [(
            f"{aged['age']}x store", f"{sweep['flush_p50']:.2f}",
            f"{sweep['maintain_p50']:.2f}", f"{sweep['maintain_p95']:.2f}",
            f"{sweep['full_hour_fold_p50']:.2f} ({sweep['full_hour_folds']})",
            f"{sweep['full_hour_fold_max']:.2f}",
        )],
        fmt="{:>20}",
    )
    ok &= shape_check(
        "the store has the tiered_query_mix shape, folded per window",
        reads["segments"] == _READ_SHAPE, str(reads["segments"]),
    )
    ok &= shape_check(
        "one-pass reads equal the per-segment reference bit for bit",
        reads["identical_to_reference"] and aged["identical_to_reference"],
    )
    assert reads["identical_to_reference"], "range read differs from the reference"
    assert aged["identical_to_reference"], "aged read differs from the reference"
    ok &= shape_check(
        "a whole-history read is faster than the per-segment read",
        reads["history"]["speedup_p50"] > 1.0,
        f"{reads['history']['speedup_p50']:.1f}x",
    )
    ok &= shape_check(
        f"whole-history read p50 at {aged['age']}x the age <= 1.5x at 1x",
        aged["history_p50_over_young"] <= 1.5,
        f"{aged['history_p50_over_young']:.2f}x, "
        f"{sum(aged['segments'].values())} files {aged['segments']}",
    )
    ok &= shape_check(
        "the aged store reached a full hour window and folded into it",
        sweep["full_hour_folds"] > 0, f"{sweep['full_hour_folds']} folds",
    )
    ok &= shape_check(
        f"a full-hour fold sweep p50 <= {_FOLD_OVER_FLUSH:g}x a flush p50",
        sweep["full_hour_fold_p50"] <= _FOLD_OVER_FLUSH * sweep["flush_p50"],
        f"{sweep['full_hour_fold_p50']:.2f} ms beside a "
        f"{sweep['flush_p50']:.2f} ms flush",
    )

    write_bench_artifact(
        "storage_tiers",
        {
            "identity": identity,
            "restart_replay": replay,
            "rollup": rollup,
            "throughput": throughput,
            "maintenance": maintenance,
            "reads": reads,
        },
        config=cfg,
    )
    return 0 if ok else 1


class TestStorageTiersBench:
    def test_tier_identity(self, benchmark):
        r = run_identity(topics=4, seconds=12, ooo_every=5)
        assert r["identical"], r
        assert r["ooo_dropped_memory"] == r["ooo_dropped_tiered"] > 0
        benchmark(lambda: None)

    def test_restart_replay_zero_loss(self, benchmark):
        r = run_restart_replay(topics=4, seconds=12)
        assert r["lost_readings"] == 0 and r["mismatched_series"] == 0, r
        assert r["post_restart_insert_ok"] and r["post_restart_ooo_refused"]
        benchmark(lambda: None)

    def test_rollup_mass_preserved(self, benchmark):
        r = run_rollup(topics=2, seconds=600, flush_chunks=4)
        assert r["represented_readings"] == r["raw_readings"], r
        assert r["mass_error"] < 1e-12
        assert max(r["levels"]) == 2
        benchmark(lambda: None)

    def test_maintenance_matches_the_reference_loop(self, benchmark):
        r = run_maintenance(nodes=8, sensors=4, readings=10, rounds=2)
        assert r["rollup_identical_to_reference"], r
        assert r["flush_identical_to_per_topic_gather"], r
        assert r["index_bytes"]["columnar"] < r["index_bytes"]["per_topic_reference"]
        benchmark(lambda: None)

    def test_reads_match_the_per_segment_reference(self, benchmark):
        r = run_reads(nodes=4, sensors=2, topics_read=4, rounds=1)
        assert r["identical_to_reference"], r
        assert r["aged"]["identical_to_reference"], r
        assert r["segments"] == _READ_SHAPE
        assert r["aged"]["sweep_ms"]["full_hour_folds"] > 0
        benchmark(lambda: None)


if __name__ == "__main__":
    sys.exit(main())
