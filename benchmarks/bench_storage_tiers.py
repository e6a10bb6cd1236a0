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
  10 readings per flush, the shape ``tiered_query_mix`` has) — flush,
  raw -> 10 s and 10 s -> 1 min compaction, open, bytes on disk per
  reading — each beside the per-topic loop and JSON-header file
  (WMSEG01) it replaced, kept here as the reference and run in the same
  process on the same data.

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
from pathlib import Path

if __package__ in (None, ""):  # script invocation: make repo-root imports work
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import numpy as np

from benchmarks.harness import (
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
    Segment,
    TieredStorageBackend,
)
from repro.dcdb.storage import StorageBackend

CONFIG = {
    "identity": {"topics": 8, "seconds": 30, "ooo_every": 13},
    "rollup": {"topics": 3, "seconds": 1800, "flush_chunks": 6},
    "throughput": {"topics": 4, "readings": 25_000},
    "maintenance": {"nodes": 148, "sensors": 10, "readings": 10, "rounds": 9},
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
            if i % 2:
                mem.insert_batch(topic, ts, val)
                tiered.insert_batch(topic, ts, val)
            else:
                for t, v in zip(ts, val):
                    mem.insert(topic, int(t), float(v))
                    tiered.insert(topic, int(t), float(v))
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
            first.insert_batch(topic, ts, val)
            last_ts = max(last_ts, int(ts[-1]))
        mid = seconds * NS_PER_SEC // 2
        first.flush(mid)  # two generations of segments
        for topic, ts, val in _stream(topics, seconds, ooo_every=0,
                                      seed=0xB007):
            first.insert_batch(topic, ts + mid + NS_PER_SEC, val)
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
        second.insert(probe, last_ts + NS_PER_SEC, 1.0)
        insert_ok = second.count(probe) == before + 1
        second.insert(probe, 0, 1.0)  # stale replay: must be refused
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
                backend.insert_batch(topic, ts, val)
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

    def _drive(backend) -> dict:
        t0 = time.perf_counter()
        for topic in names:
            # Chunked batches: the realistic drain-interval granularity.
            for lo in range(0, per_topic, 1000):
                backend.insert_batch(
                    topic, ts[lo : lo + 1000], vals[topic][lo : lo + 1000]
                )
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
    identical = True
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
            reference = StorageBackend()
            for i, topic in enumerate(names):
                ts = steps + int(phase[i])
                backend.insert_batch(topic, ts, values[i])
                reference.insert_batch(topic, ts, values[i])
            ref_dir = tmp / f"reference-{r}"
            ref_dir.mkdir()

            def reference_flush():
                data = {
                    topic: {
                        "ts": series.ts[: series.size].copy(),
                        "val": series.val[: series.size].copy(),
                    }
                    for topic, series in reference._series.items()
                }
                return _ReferenceSegment.write(
                    ref_dir / "segment-000000-l0.seg", 0, LEVEL_RAW, data
                )

            def both(key, columnar, per_topic):
                """Time both sides, alternating which goes first so
                neither always runs warm."""
                sides = [("columnar", columnar), ("per_topic_reference", per_topic)]
                if r % 2:
                    sides.reverse()
                return {side: timed(key, side, fn) for side, fn in sides}

            done = both(
                "flush_ms", lambda: backend.flush(20 * NS_PER_SEC), reference_flush
            )
            ref = done["per_topic_reference"]
            (seg,) = backend.store.segments
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
        points = len(names) * readings
        out = {
            "topics": len(names), "readings_per_flush": points,
            "rounds": rounds, "rollup_identical_to_reference": bool(identical),
        }
        for key, sides in ms.items():
            col = statistics.median(sides["columnar"])
            ref_ms = statistics.median(sides["per_topic_reference"])
            out[key] = {
                "columnar": col, "per_topic_reference": ref_ms,
                "speedup": ref_ms / col,
            }
        out["disk_bytes_per_reading"] = {
            "columnar": sizes["columnar"] / points,
            "per_topic_reference": sizes["per_topic_reference"] / points,
        }
        out["data_bytes"] = sizes["data_bytes"]
        out["index_bytes"] = {
            side: sizes[side] - sizes["data_bytes"]
            for side in ("columnar", "per_topic_reference")
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
    for key in ("compact_10s_ms", "compact_1min_ms"):
        ok &= shape_check(
            f"{key.removesuffix('_ms')} >= 5x the per-topic loop",
            maintenance[key]["speedup"] >= 5.0,
            f"{maintenance[key]['speedup']:.1f}x",
        )
    index_bytes = maintenance["index_bytes"]["columnar"]
    ok &= shape_check(
        "index bytes < 1/4 data bytes in a raw segment",
        index_bytes < maintenance["data_bytes"] / 4,
        f"{index_bytes} B index, {maintenance['data_bytes']} B data "
        f"(WMSEG01: {maintenance['index_bytes']['per_topic_reference']} B)",
    )

    write_bench_artifact(
        "storage_tiers",
        {
            "identity": identity,
            "restart_replay": replay,
            "rollup": rollup,
            "throughput": throughput,
            "maintenance": maintenance,
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
        assert r["index_bytes"]["columnar"] < r["index_bytes"]["per_topic_reference"]
        benchmark(lambda: None)


if __name__ == "__main__":
    sys.exit(main())
