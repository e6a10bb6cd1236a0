"""On-disk segment tier with age-based rollups for the storage backend.

Production DCDB persists readings in Apache Cassandra and relies on the
database for retention: raw readings are kept for a bounded horizon and
older data survives only as coarser aggregates ("Operational Data
Analytics in Practice" describes the raw -> downsampled tiering the LRZ
deployment runs).  The in-memory :class:`~repro.dcdb.storage.
StorageBackend` stand-in caps both run length and retention scenarios;
this module adds the durable tier.  DESIGN.md, "How data ages", walks a
reading through it and has the byte layout.

- **A segment is columnar in memory as it is on disk** — a
  :class:`Columnar` ``(topics, offsets, columns)``: one sorted name
  table, one ``int64`` offsets array (series ``i`` owns rows
  ``offsets[i]:offsets[i + 1]`` of every column) and one array per
  column.  The three things the maintenance sweep does are each one
  pass over those arrays: :meth:`TieredStorageBackend.flush` gathers
  the live series once per run of sorted topics that share a memory
  block (one fancy index per chunk; no per-topic array operation),
  rollup compaction is one :func:`rollup_segment` call (four
  ``reduceat`` per *segment*) and, within the level's window, one
  :func:`fold_segment` call (one scatter per column), and the writer
  emits each column block with one ``write``.  The
  ``{topic: {column: array}}`` form is converted at the boundary
  (:meth:`Columnar.of`).
- **Segment files (WMSEG02)** — immutable: magic, a fixed little-endian
  header, a deflated index block (per-topic ``offset``, ``count``,
  ``min_ts``, ``max_ts``, ``last_val``, ``seal_ts`` arrays and the name
  table) and the column blocks, each part under its own ``zlib.crc32``.
  Header and index are checked when a file is opened, each column
  block when that column is first read, so range pruning and ``latest``
  never touch the data, a range read loads two of a rollup's five
  blocks, and a flipped bit is a :class:`StorageError`, not an answer.
  WMSEG01 files (JSON index header, no checksums) stay readable — the
  header maps into the same in-memory index — and are rewritten as
  WMSEG02 by the next compaction that touches them.
- **Crash safety** — a segment is written next to its final name,
  ``fsync``-ed, atomically renamed and the directory synced, so readers
  and recovery only ever see complete files.  :class:`SegmentStore`
  removes the ``*.tmp`` a crash before the rename leaves, resolves the
  files a crash inside a compaction leaves (highest level per sequence
  number wins, and a fold's ``…-from<first>.seg`` file wins over every
  file whose sequence number lies in ``first..seq``) and quarantines a
  file whose magic, header or index is bad (renamed ``*.corrupt``,
  counted) instead of refusing to start.
- **Flush policy and seal floor** — :class:`TieredStorageBackend` seals
  its in-memory series into a new raw segment whenever the memory tier
  exceeds ``flush_mb``, and records per topic the newest raw timestamp
  it ever sealed: a reading older than that floor is refused exactly
  like an out-of-order insert within one tier, which keeps timestamps
  sorted *across* tiers.  A flushed block is emptied in place and keeps
  its newest timestamp as its order guard — that *is* the floor of its
  rows; a row opened later starts at it.  The floor is stored in the index
  (``seal_ts``) and carried through every compaction, so it survives a
  restart even after the raw readings have become buckets and a
  Pusher's spill replay cannot land a reading twice.  A WMSEG01 rollup
  has no such field: its floor is the start of its last bucket.
- **Rollup compaction** — raw segments past a configurable age are
  rewritten as 10-second min/mean/max/count aggregates, and 10s rollup
  segments past a second horizon as 1-minute aggregates, mirroring the
  age-based downsampling production DCDB configures in Cassandra.
  Counts are preserved so aggregate mass (``sum = mean x count``) is
  exact across compactions.  The result folds into the level's previous
  file while the two span less than the level's window
  (:data:`ROLLUP_WINDOW_NS`: a minute of 10 s buckets, an hour of 1 min
  buckets) — Cassandra's time-window compaction — so a read meets one
  file per window, not one per flush, however old the store; a bucket
  both files hold becomes one count-weighted row.
- **Transparent query planning** — ``query``/``query_readings``/
  ``query_aggregate`` make one pass over the segments, oldest first:
  segment bounds, the topic's index row, its bounds, then two column
  slices (``ts`` and the level's value column) per overlapping segment;
  the memory tier comes last and one join makes the answer.  Callers
  (the Query Engine, the Fig 5-8 benchmark paths) are unchanged.
  Per-tier hit counters feed host telemetry.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.common.errors import StorageError
from repro.common.timeutil import NS_PER_SEC
from repro.dcdb.sensor import SensorReading
from repro.dcdb.storage import StorageBackend
# On a line of its own: the memory-tier property test rebuilds this
# module over a mutant StorageBackend by dropping the line above.
from repro.dcdb.storage import _joined

#: Segment file magic: format version 2 of the columnar layout.
SEGMENT_MAGIC = b"WMSEG02\n"
_MAGIC_V1 = b"WMSEG01\n"

#: Tier levels: raw readings, 10-second rollups, 1-minute rollups.
LEVEL_RAW, LEVEL_10S, LEVEL_1MIN = 0, 1, 2

#: Rollup bucket width per compaction level.
ROLLUP_BUCKET_NS = {
    LEVEL_10S: 10 * NS_PER_SEC,
    LEVEL_1MIN: 60 * NS_PER_SEC,
}

#: Time window per rollup level: a compaction folds its buckets into the
#: level's previous file while the two together span less than this.
ROLLUP_WINDOW_NS = {
    LEVEL_10S: 60 * NS_PER_SEC,
    LEVEL_1MIN: 3600 * NS_PER_SEC,
}

#: Column sets: raw segments store readings, rollup segments store
#: per-bucket aggregates (count kept so mass is exact).
RAW_COLUMNS = ("ts", "val")
ROLLUP_COLUMNS = ("ts", "min", "mean", "max", "count")

_INT, _FLOAT = np.dtype("<i8"), np.dtype("<f8")

#: On-disk dtype per column name (all 8 bytes wide, so the column block
#: at index ``i`` starts at ``data_offset + i * points * 8``).
_COLUMN_DTYPES = {
    "ts": _INT,
    "val": _FLOAT,
    "min": _FLOAT,
    "mean": _FLOAT,
    "max": _FLOAT,
    "count": _INT,
}

_ITEM = 8  # bytes per element, uniform across columns

#: WMSEG02 fixed header: magic, level, topics, seq, created_ns,
#: bucket_ns, min_ts, max_ts, points, index block bytes, index crc,
#: one crc per column block (unused slots 0), crc of all that precedes.
_HEADER = struct.Struct("<8sIIqqqqqQII5II")

#: Rows of the per-topic index, in file order (``last_val`` holds the
#: bits of a float64); the name table follows them in the index block.
_INDEX_ROWS = ("offset", "count", "min_ts", "max_ts", "last_val", "seal_ts")


def _level_name(level: int) -> str:
    return {LEVEL_RAW: "raw", LEVEL_10S: "rollup_10s",
            LEVEL_1MIN: "rollup_1min"}.get(level, f"level{level}")


def _columns_of(level: int) -> Tuple[str, ...]:
    return ROLLUP_COLUMNS if level else RAW_COLUMNS


def _bounds(sizes: Sequence[int]) -> np.ndarray:
    """Offsets of series of ``sizes`` rows laid back to back."""
    offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    return offsets


class Columnar(NamedTuple):
    """What a segment holds, in memory as on disk."""

    #: Sorted topic names.
    topics: Sequence[str]
    #: ``len(topics) + 1`` row bounds: series ``i`` is rows
    #: ``offsets[i]:offsets[i + 1]`` of every column.
    offsets: np.ndarray
    columns: Dict[str, np.ndarray]
    #: Per topic, the newest raw timestamp this data ever held
    #: (``None``: the last timestamp of each series).
    seal_ts: Optional[np.ndarray] = None

    @classmethod
    def of(cls, series_data: "SeriesData", level: int) -> "Columnar":
        """``series_data`` as is, or converted from the
        ``{topic: {column: array}}`` form."""
        if isinstance(series_data, cls):
            return series_data
        topics = sorted(series_data)
        offsets = _bounds([len(series_data[topic]["ts"]) for topic in topics])
        return cls(topics, offsets, {
            col: np.concatenate([series_data[topic][col] for topic in topics])
            for col in _columns_of(level)
        } if topics else {})


#: What the writers take: a :class:`Columnar`, or topic -> column arrays.
SeriesData = Union[Columnar, Dict[str, Dict[str, np.ndarray]]]


def rollup_segment(
    offsets: np.ndarray,
    ts: np.ndarray,
    vmin: np.ndarray,
    vmean: np.ndarray,
    vmax: np.ndarray,
    count: np.ndarray,
    bucket_ns: int,
) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
    """Aggregate every series of a segment into ``bucket_ns`` buckets.

    The columns hold the series back to back, each sorted, bounded by
    ``offsets``; a bucket ends where the bucket number *or the series*
    changes.  Returns the new offsets and the rollup columns.  Works
    uniformly for raw data (pass ``val`` as min/mean/max with a count
    of ones) and for re-bucketing an existing rollup: means are
    combined count-weighted, so total mass is preserved exactly.
    """
    bucket = (ts // bucket_ns) * bucket_ns
    change = np.empty(len(ts), dtype=bool)
    change[0] = True
    np.not_equal(bucket[1:], bucket[:-1], out=change[1:])
    change[offsets[:-1]] = True
    starts = np.flatnonzero(change)
    counts = np.add.reduceat(count, starts)
    sums = np.add.reduceat(vmean * count, starts)
    return np.searchsorted(starts, offsets, side="left"), {
        "ts": bucket[starts].astype(np.int64, copy=False),
        "min": np.minimum.reduceat(vmin, starts),
        "mean": sums / counts,
        "max": np.maximum.reduceat(vmax, starts),
        "count": counts.astype(np.int64, copy=False),
    }


def rollup_columns(
    ts: np.ndarray,
    vmin: np.ndarray,
    vmean: np.ndarray,
    vmax: np.ndarray,
    count: np.ndarray,
    bucket_ns: int,
) -> Dict[str, np.ndarray]:
    """:func:`rollup_segment` over one sorted series."""
    bounds = np.array([0, len(ts)], dtype=np.int64)
    return rollup_segment(bounds, ts, vmin, vmean, vmax, count, bucket_ns)[1]


def fold_segment(older: Columnar, newer: Columnar) -> Columnar:
    """Two rollups of one level as one: per topic, ``older``'s rows,
    then ``newer``'s.

    The name table is the sorted union; a topic held by one input keeps
    its rows.  A bucket both hold — ``older``'s last, ``newer``'s first
    — becomes one row: min of the mins, max of the maxes, the counts
    summed, the means combined count-weighted.  Every other row is
    copied bit for bit.  The seal floor (both inputs carry ``seal_ts``)
    is the per-topic max.  Offsets are arithmetic on the per-topic
    counts and each input column lands with one scatter: nothing is
    sorted or reduced.
    """
    a, b = older.columns, newer.columns
    a_off, b_off = older.offsets, newer.offsets
    if list(older.topics) == list(newer.topics):
        # An agent's topics rarely change between flushes.  The union
        # and its lookups cost a fold ~1 ms at 1 480 topics; every
        # sweep folds, and without this ``tiered_query_mix``'s
        # ``tick_ms_p95`` rises ~7 % (six alternating pairs, seed 1).
        # The bench's ``maintenance`` section times both paths.
        topics = older.topics
        ia = ib = np.arange(len(topics))
    else:
        topics = sorted(set(older.topics).union(newer.topics))
        row = dict(zip(topics, range(len(topics))))
        ia = np.fromiter(map(row.__getitem__, older.topics), np.intp)
        ib = np.fromiter(map(row.__getitem__, newer.topics), np.intp)
    a_of = np.full(len(topics), -1, dtype=np.intp)
    a_of[ia] = np.arange(len(ia))
    # Per topic of ``newer``: the row of ``older`` (-1: none) and whether
    # their boundary bucket is one.
    k = a_of[ib]
    last = a["ts"][a_off[1:] - 1]
    shared = (k >= 0) & (last[k] == b["ts"][b_off[:-1]])
    held = np.zeros(len(topics), dtype=np.int64)
    held[ia] = np.diff(a_off)
    sizes = held.copy()
    sizes[ib] += np.diff(b_off) - shared
    offsets = _bounds(sizes)
    # Each input row's place: its topic's start in the merged file, the
    # newer rows behind the older ones, a shared bucket on the older row.
    a_at = np.arange(len(a["ts"])) + np.repeat(
        offsets[ia] - a_off[:-1], np.diff(a_off)
    )
    b_at = np.arange(len(b["ts"])) + np.repeat(
        offsets[ib] + held[ib] - shared - b_off[:-1], np.diff(b_off)
    )
    columns = {}
    for col in ROLLUP_COLUMNS:
        out = columns[col] = np.empty(int(offsets[-1]), _COLUMN_DTYPES[col])
        out[a_at] = a[col]
        out[b_at] = b[col]
    ra, rb = a_off[1:][k[shared]] - 1, b_off[:-1][shared]
    at, ca, cb = b_at[rb], a["count"][ra], b["count"][rb]
    columns["min"][at] = np.minimum(a["min"][ra], b["min"][rb])
    columns["max"][at] = np.maximum(a["max"][ra], b["max"][rb])
    columns["mean"][at] = (a["mean"][ra] * ca + b["mean"][rb] * cb) / (ca + cb)
    columns["count"][at] = ca + cb
    seal_ts = np.full(len(topics), np.iinfo(np.int64).min)
    seal_ts[ia] = older.seal_ts
    seal_ts[ib] = np.maximum(seal_ts[ib], newer.seal_ts)
    return Columnar(topics, offsets, columns, seal_ts)


def _pad(index_bytes: int) -> int:
    """Zero bytes behind the index block: the column blocks start
    8-byte aligned."""
    return -index_bytes % _ITEM


def _sync_directory(directory: Path) -> None:
    """Make a rename inside ``directory`` durable."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class _Meta(NamedTuple):
    """The per-segment fields of a header."""

    level: int
    seq: int
    created_ns: int
    bucket_ns: int
    min_ts: int
    max_ts: int
    points: int


class Segment:
    """One immutable columnar segment file (index + lazy data blocks).

    The index holds every topic's slice (offset/count into the column
    blocks), its min/max timestamp, last value and seal floor, so range
    pruning and ``latest`` lookups never read the data blocks.
    ``series`` maps a topic to its index row; the per-row lookups the
    query path makes (offset, count, min/max timestamp) are plain Python
    ints.  Each column block is read and checked on its first use: a
    range read (:meth:`read`) touches ``ts`` and ``value_column`` only.
    """

    __slots__ = (
        "path", "level", "seq", "first", "created_ns", "bucket_ns", "columns",
        "value_column", "min_ts", "max_ts", "points", "topics", "series",
        "offsets", "seal_ts", "data_offset", "disk_bytes", "_offset",
        "_count", "_min_ts", "_max_ts", "_last_val", "_crcs", "_data",
    )

    def __init__(
        self,
        path: Path,
        meta: _Meta,
        topics: List[str],
        index: np.ndarray,
        data_offset: int,
        crcs: Optional[Sequence[int]],
        names_of: Optional["Segment"] = None,
    ) -> None:
        self.path = Path(path)
        (self.level, self.seq, self.created_ns, self.bucket_ns,
         self.min_ts, self.max_ts, self.points) = meta
        #: The oldest sequence number this file covers: a fold's file
        #: is named ``…-from<first>.seg`` and stands for ``first..seq``.
        _, folded, first = self.path.stem.rpartition("-from")
        self.first = int(first) if folded and first.isdigit() else self.seq
        self.columns = _columns_of(self.level)
        #: What a range read answers with: the raw readings, or the
        #: bucket means once they have aged into a rollup.
        self.value_column = "mean" if self.level else "val"
        self.offsets = np.append(index[0], self.points)
        if (
            len(topics) != index.shape[1]
            or not len(topics)
            or index[1].min() <= 0
            or not np.array_equal(np.diff(self.offsets), index[1])
        ):
            raise StorageError(f"{path}: inconsistent index")
        if names_of is not None and names_of.topics == topics:
            # Same name table as the neighbouring segment: one
            # topic -> row dict serves both.
            self.topics, self.series = names_of.topics, names_of.series
        else:
            self.topics = topics
            self.series: Dict[str, int] = dict(zip(topics, range(len(topics))))
        self._offset, self._count, self._min_ts, self._max_ts = (
            index[:4].tolist()
        )
        self._last_val = index[4].view(_FLOAT).tolist()
        self.seal_ts = index[5].astype(np.int64)
        self.data_offset = data_offset
        self.disk_bytes = self.path.stat().st_size
        #: crc32 per column block (``None``: a WMSEG01 file has none).
        self._crcs = crcs
        #: The column blocks read so far, by name.
        self._data: Dict[str, np.ndarray] = {}

    # -- construction --------------------------------------------------

    @classmethod
    def write(
        cls,
        path: Path,
        seq: int,
        level: int,
        series_data: SeriesData,
        created_ns: int = 0,
        bucket_ns: int = 0,
        names_of: Optional["Segment"] = None,
    ) -> "Segment":
        """Seal ``series_data`` (a :class:`Columnar`, or topic -> column
        arrays) into ``path``.

        The file is written next to its final name, synced and
        atomically renamed, so readers (and crash recovery) only ever
        observe complete segments.  A write that fails (a full disk)
        removes its temporary before the error propagates.
        """
        topics, offsets, columns, seal_ts = Columnar.of(series_data, level)
        if not len(topics):
            raise StorageError("cannot write an empty segment")
        points = int(offsets[-1])
        counts = np.diff(offsets)
        if not counts.all():
            empty = topics[int(np.flatnonzero(counts == 0)[0])]
            raise StorageError(f"empty series for segment topic {empty}")
        names = "\0".join(topics)
        if names.count("\0") != len(topics) - 1:
            raise StorageError("NUL in a segment topic name")
        blocks = [
            np.ascontiguousarray(columns[col], dtype=_COLUMN_DTYPES[col])
            for col in _columns_of(level)
        ]
        if any(len(block) != points for block in blocks):
            raise StorageError("segment columns differ in length")
        ts, last = blocks[0], offsets[1:] - 1
        index = np.empty((len(_INDEX_ROWS), len(topics)), dtype=_INT)
        index[0], index[1] = offsets[:-1], counts
        index[2], index[3] = ts[offsets[:-1]], ts[last]
        index[4] = blocks[2 if level else 1][last].view(_INT)
        index[5] = index[3] if seal_ts is None else seal_ts
        meta = _Meta(
            int(level), int(seq), int(created_ns), int(bucket_ns),
            int(index[2].min()), int(index[3].max()), points,
        )
        packed = zlib.compress(index.tobytes() + names.encode("utf-8"), 1)
        crcs = [zlib.crc32(block) for block in blocks]
        head = _HEADER.pack(
            SEGMENT_MAGIC, meta.level, len(topics), *meta[1:], len(packed),
            zlib.crc32(packed), *crcs, *[0] * (5 - len(crcs)), 0,
        )[:-4]
        head += struct.pack("<I", zlib.crc32(head))
        tmp = path.with_suffix(".tmp")
        try:
            with open(tmp, "wb") as fh:
                fh.write(head + packed + bytes(_pad(len(packed))))
                for block in blocks:
                    fh.write(block)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except OSError:
            tmp.unlink(missing_ok=True)
            raise
        _sync_directory(path.parent)
        data_offset = _HEADER.size + len(packed) + _pad(len(packed))
        return cls(path, meta, topics, index, data_offset, crcs, names_of)

    @classmethod
    def open(
        cls, path: Path, names_of: Optional["Segment"] = None
    ) -> "Segment":
        """Read and check a segment's header and index (data blocks
        stay on disk)."""
        with open(path, "rb") as fh:
            head = fh.read(_HEADER.size)
            if head[:8] == _MAGIC_V1:
                return cls._open_v1(path, fh, head, names_of)
            if head[:8] != SEGMENT_MAGIC:
                raise StorageError(f"{path}: not a segment file")
            if len(head) < _HEADER.size:
                raise StorageError(f"{path}: truncated header")
            (_, level, n, seq, created_ns, bucket_ns, min_ts, max_ts, points,
             index_bytes, index_crc, *crcs, header_crc) = _HEADER.unpack(head)
            if zlib.crc32(head[:-4]) != header_crc:
                raise StorageError(f"{path}: header checksum mismatch")
            packed = fh.read(index_bytes)
        if len(packed) < index_bytes or zlib.crc32(packed) != index_crc:
            raise StorageError(f"{path}: index checksum mismatch")
        try:
            blob = zlib.decompress(packed)
            index = np.frombuffer(
                blob, dtype=_INT, count=len(_INDEX_ROWS) * n
            ).reshape(len(_INDEX_ROWS), n)
            topics = blob[index.nbytes:].decode("utf-8").split("\0")
        except (zlib.error, ValueError) as exc:
            raise StorageError(f"{path}: unreadable index: {exc}") from exc
        data_offset = _HEADER.size + index_bytes + _pad(index_bytes)
        meta = _Meta(level, seq, created_ns, bucket_ns, min_ts, max_ts, points)
        return cls(path, meta, topics, index, data_offset, crcs, names_of)

    @classmethod
    def _open_v1(cls, path, fh, head, names_of) -> "Segment":
        """A WMSEG01 file: a JSON header (``series``: topic -> offset /
        count / min_ts / max_ts / last_val) in front of the same column
        blocks, no checksums.  No ``seal_ts`` either: the floor is the
        topic's ``max_ts`` (for a rollup, the start of its last
        bucket)."""
        try:
            (length,) = struct.unpack("<I", head[8:12])
            fh.seek(12)
            header = json.loads(fh.read(length))
            series = header["series"]
            topics = sorted(series, key=lambda t: series[t]["offset"])
            index = np.empty((len(_INDEX_ROWS), len(topics)), dtype=_INT)
            for row, key in enumerate(_INDEX_ROWS[:4]):
                index[row] = [series[topic][key] for topic in topics]
            index[4] = np.array(
                [series[topic]["last_val"] for topic in topics], dtype=_FLOAT
            ).view(_INT)
            index[5] = index[3]
            meta = _Meta(
                int(header["level"]), int(header["seq"]),
                int(header.get("created_ns", 0)),
                int(header.get("bucket_ns", 0)), int(header["min_ts"]),
                int(header["max_ts"]), int(header["points"]),
            )
        except (struct.error, ValueError, KeyError, TypeError) as exc:
            raise StorageError(f"{path}: unreadable WMSEG01 header") from exc
        return cls(path, meta, topics, index, 12 + length, None, names_of)

    # -- data access ---------------------------------------------------

    def _column(self, col: str) -> np.ndarray:
        """Memoized, checked read of one column block."""
        data = self._data.get(col)
        if data is None:
            i = self.columns.index(col)
            block = self.points * _ITEM
            with open(self.path, "rb") as fh:
                fh.seek(self.data_offset + i * block)
                raw = fh.read(block)
            if len(raw) < block:
                raise StorageError(
                    f"{self.path}: truncated data block "
                    f"(column {col!r}: {len(raw)} < {block} bytes)"
                )
            if self._crcs is not None and zlib.crc32(raw) != self._crcs[i]:
                raise StorageError(
                    f"{self.path}: checksum mismatch in column {col!r}"
                )
            data = self._data[col] = np.frombuffer(
                raw, dtype=_COLUMN_DTYPES[col]
            )
        return data

    def release(self) -> None:
        """Drop the memoized data blocks (the index stays resident)."""
        self._data = {}

    def content(self) -> Columnar:
        """The whole segment (reads every column block)."""
        return Columnar(self.topics, self.offsets, {
            col: self._column(col) for col in self.columns
        }, self.seal_ts)

    def topic_columns(
        self, topic: str, start_ts: int, end_ts: int
    ) -> Dict[str, np.ndarray]:
        """Every column's slice of ``topic`` clipped to
        ``[start_ts, end_ts]`` (reads every column block)."""
        row = self.series[topic]
        o, n = self._offset[row], self._count[row]
        ts = self._column("ts")[o : o + n]
        lo = o + int(np.searchsorted(ts, start_ts, side="left"))
        hi = o + int(np.searchsorted(ts, end_ts, side="right"))
        return {col: self._column(col)[lo:hi] for col in self.columns}

    def read(
        self, row: int, start_ts: int, end_ts: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(timestamps, values) of index row ``row`` within
        ``[start_ts, end_ts]``: slices of ``ts`` and ``value_column``.

        Rollup segments answer with bucket-start timestamps and bucket
        means — the downsampled representation *is* the data once raw
        readings have aged out.  A bound is searched for only where the
        row's own ``min_ts``/``max_ts`` straddle it.
        """
        lo = o = self._offset[row]
        hi = o + self._count[row]
        ts = self._column("ts")
        if self._min_ts[row] < start_ts:
            lo = o + int(ts[o:hi].searchsorted(start_ts, "left"))
        if self._max_ts[row] > end_ts:
            hi = o + int(ts[o:hi].searchsorted(end_ts, "right"))
        return ts[lo:hi], self._column(self.value_column)[lo:hi]

    def query(
        self, topic: str, start_ts: int, end_ts: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`read` by topic name."""
        return self.read(self.series[topic], start_ts, end_ts)


class SegmentStore:
    """The segment files of one directory, ordered by sequence number.

    Files are named ``segment-<seq>-l<level>.seg``, or
    ``segment-<seq>-l<level>-from<first>.seg`` for a fold covering the
    sequence numbers ``first..seq``.  Compaction writes its file before
    removing its inputs, so a crash in between leaves both; :meth:`_scan`
    keeps the file that covers the others: the highest level per
    sequence number, and a fold over the files inside its range.
    """

    def __init__(self, directory) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.segments: List[Segment] = []
        self._next_seq = 0
        #: ``*.corrupt`` files in the directory: segments a scan could
        #: not open and moved out of the way.
        self.quarantined = 0
        self._scan()

    def _scan(self) -> None:
        for orphan in self.directory.glob("segment-*.tmp"):
            # A crash between write and rename; never part of the tier.
            os.unlink(orphan)
        opened: List[Segment] = []
        previous = None
        for path in sorted(self.directory.glob("segment-*.seg")):
            try:
                seg = previous = Segment.open(path, names_of=previous)
            except StorageError:
                os.replace(path, path.with_suffix(".corrupt"))
                continue
            opened.append(seg)
        # Newest first, the higher level first within a sequence number:
        # a file whose seq a kept file covers is an interrupted
        # compaction's input — the lower level of one seq, or a file a
        # fold took in — and is removed.
        kept: List[Segment] = []
        for seg in sorted(opened, key=lambda s: (s.seq, s.level), reverse=True):
            if kept and seg.seq >= kept[-1].first:
                seg.path.unlink(missing_ok=True)
            else:
                kept.append(seg)
        self.segments = kept[::-1]
        self._next_seq = kept[0].seq + 1 if kept else 0
        self.quarantined = len(list(self.directory.glob("segment-*.corrupt")))

    # -- bookkeeping ---------------------------------------------------

    def _path_for(self, seq: int, level: int, first: Optional[int] = None) -> Path:
        folded = "" if first in (None, seq) else f"-from{first:06d}"
        return self.directory / f"segment-{seq:06d}-l{level}{folded}.seg"

    def write(
        self,
        series_data: SeriesData,
        level: int = LEVEL_RAW,
        created_ns: int = 0,
        bucket_ns: int = 0,
    ) -> Segment:
        """Seal a new segment at the next sequence number."""
        seq = self._next_seq
        seg = Segment.write(
            self._path_for(seq, level), seq, level, series_data,
            created_ns=created_ns, bucket_ns=bucket_ns,
            names_of=self.segments[-1] if self.segments else None,
        )
        self._next_seq += 1
        self.segments.append(seg)
        return seg

    def replace(
        self,
        old: Segment,
        series_data: SeriesData,
        level: int,
        created_ns: int = 0,
        bucket_ns: int = 0,
        into: Optional[Segment] = None,
    ) -> Segment:
        """Rewrite ``old`` at a higher rollup level (same seq slot).

        With ``into`` — the segment just before ``old``, of ``level`` —
        ``series_data`` is folded behind its rows (:func:`fold_segment`)
        and the one file, covering both inputs' sequence numbers,
        replaces the two.
        """
        inputs = [old]
        if into is not None:
            series_data = fold_segment(into.content(), Columnar.of(series_data, level))
            inputs.insert(0, into)
        seg = Segment.write(
            self._path_for(old.seq, level, inputs[0].first), old.seq, level,
            series_data, created_ns=created_ns, bucket_ns=bucket_ns,
            names_of=inputs[0],
        )
        at = self.segments.index(inputs[0])
        self.segments[at : at + len(inputs)] = [seg]
        for segment in inputs:
            # A file left behind is covered by ``seg``: the next scan
            # removes it.
            segment.path.unlink(missing_ok=True)
        return seg

    def remove(self, segment: Segment) -> None:
        segment.path.unlink(missing_ok=True)
        self.segments.remove(segment)

    # -- queries -------------------------------------------------------

    def topics(self) -> List[str]:
        seen = set()
        for seg in self.segments:
            seen.update(seg.series)
        return sorted(seen)

    def count(self, topic: str) -> int:
        return sum(
            seg._count[seg.series[topic]]
            for seg in self.segments if topic in seg.series
        )

    def latest_entry(self, topic: str) -> Optional[SensorReading]:
        """Newest sealed reading of ``topic`` from the index alone:
        sequence order is time order per topic, so the newest segment
        that holds the topic has it."""
        for seg in reversed(self.segments):
            row = seg.series.get(topic)
            if row is not None:
                return SensorReading(seg._max_ts[row], seg._last_val[row])
        return None

    def total_points(self) -> int:
        return sum(seg.points for seg in self.segments)

    def disk_bytes(self) -> int:
        return sum(seg.disk_bytes for seg in self.segments)

    def level_counts(self) -> Dict[str, int]:
        counts = {"raw": 0, "rollup_10s": 0, "rollup_1min": 0}
        for seg in self.segments:
            name = _level_name(seg.level)
            counts[name] = counts.get(name, 0) + 1
        return counts


class TieredStorageBackend(StorageBackend):
    """Two-tier topic-keyed store: hot in-memory series + sealed
    segments on disk, with age-based rollup compaction.

    Drop-in for :class:`StorageBackend` everywhere a host holds one —
    the Query Engine, the Collect Agent ingest path and the benchmark
    drivers all work unchanged.  Args beyond the base class:

    Args:
        directory: segment directory; reopening it replays every sealed
            segment (crash recovery).
        flush_mb: memory-tier budget; :meth:`maintain` seals the series
            into a raw segment once :meth:`memory_bytes` — the chunks
            allocated, not the readings held — exceeds it.
        rollup_after_ns: age at which raw segments are compacted into
            10-second aggregates (0 disables rollups).
        rollup_minute_after_ns: age at which 10s rollup segments are
            compacted into 1-minute aggregates (0 disables).
        retention_raw_ns: drop raw segments wholly older than this
            horizon (0 keeps them forever).
        retention_rollup_ns: same for rollup segments.
        maintenance_interval_ns: how often the hosting agent should run
            :meth:`maintain` (advisory; the agent schedules it).
    """

    def __init__(
        self,
        directory,
        flush_mb: float = 64.0,
        rollup_after_ns: int = 0,
        rollup_minute_after_ns: int = 0,
        retention_raw_ns: int = 0,
        retention_rollup_ns: int = 0,
        ttl_ns: int = 0,
        maintenance_interval_ns: int = 30 * NS_PER_SEC,
    ) -> None:
        super().__init__(ttl_ns=ttl_ns)
        self.store = SegmentStore(directory)
        self.flush_bytes = int(flush_mb * 2**20)
        self.rollup_after_ns = int(rollup_after_ns)
        self.rollup_minute_after_ns = int(rollup_minute_after_ns)
        self.retention_raw_ns = int(retention_raw_ns)
        self.retention_rollup_ns = int(retention_rollup_ns)
        self.maintenance_interval_ns = int(maintenance_interval_ns)
        #: Per-tier query hit counters (a query may hit several tiers).
        self.tier_hits: Dict[str, int] = {
            "memory": 0, "segment": 0, "rollup": 0,
        }
        self.flush_count = 0
        self.rollup_compactions = 0
        self.segments_expired = 0
        #: Flush and compaction steps a sweep gave up on (a full disk, a
        #: bad column block); the next sweep retries them.
        self.maintenance_errors = 0
        #: Points replayed from sealed segments when this directory was
        #: (re)opened — the crash-recovery visibility number.
        self.replayed_points = self.store.total_points()
        #: topic -> newest raw timestamp ever sealed: the cross-tier
        #: ordering floor.  Readings older than their topic's seal are
        #: refused exactly like an out-of-order insert within one tier:
        #: a row opened for the topic starts with it as its newest.
        self._sealed: Dict[str, int] = {}
        for seg in self.store.segments:
            for topic, seal in zip(seg.topics, seg.seal_ts.tolist()):
                prev = self._sealed.get(topic)
                if prev is None or seal > prev:
                    self._sealed[topic] = seal

    # ------------------------------------------------------------------
    # Inserts: the cross-tier ordering guard
    # ------------------------------------------------------------------

    def _floor(self, topic: str) -> Optional[int]:
        # A flushed block keeps its newest timestamp, which is the floor
        # of every row in it; this is for a topic with no row (a restart,
        # a drop) or none left (an expiry).
        return self._sealed.get(topic)

    # ------------------------------------------------------------------
    # Cross-tier queries
    # ------------------------------------------------------------------

    def _query_merged(
        self, topic: str, start_ts: int, end_ts: int, count_hits: bool = True
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One pass over the segments, oldest first (sequence order is
        time order per topic — the seal floor guarantees it), then the
        memory tier; the parts joined once."""
        parts: List[Tuple[np.ndarray, np.ndarray]] = []
        hit_tiers = set()
        for seg in self.store.segments:
            if seg.min_ts > end_ts or seg.max_ts < start_ts:
                continue
            row = seg.series.get(topic)
            if (
                row is None
                or seg._min_ts[row] > end_ts
                or seg._max_ts[row] < start_ts
            ):
                continue
            ts, val = seg.read(row, start_ts, end_ts)
            if len(ts):
                parts.append((ts, val))
                hit_tiers.add("rollup" if seg.level else "segment")
        row = self._series.get(topic)
        if row is not None:
            ts, val = row.slab.range(row.row, start_ts, end_ts)
            if len(ts):
                parts.append((ts, val))
                hit_tiers.add("memory")
        if count_hits:
            for tier in hit_tiers:
                self.tier_hits[tier] += 1
        return _joined(parts)

    def query(
        self, topic: str, start_ts: int, end_ts: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        if start_ts > end_ts:
            raise StorageError(f"inverted range: {start_ts} > {end_ts}")
        self.query_count += 1
        return self._query_merged(topic, start_ts, end_ts)

    def latest(self, topic: str) -> Optional[SensorReading]:
        newest = super().latest(topic)
        if newest is not None:
            return newest
        return self.store.latest_entry(topic)

    def __contains__(self, topic: str) -> bool:
        return super().__contains__(topic) or any(
            topic in seg.series for seg in self.store.segments
        )

    def topics(self) -> List[str]:
        merged = set(super().topics())
        merged.update(self.store.topics())
        return sorted(merged)

    def count(self, topic: str) -> int:
        return super().count(topic) + self.store.count(topic)

    def total_readings(self) -> int:
        """Stored points across tiers (rollups count as one per bucket)."""
        return super().total_readings() + self.store.total_points()

    def disk_bytes(self) -> int:
        """Resident size of the segment tier on disk."""
        return self.store.disk_bytes()

    # ------------------------------------------------------------------
    # Flush, rollup, retention
    # ------------------------------------------------------------------

    def flush(self, now_ns: int = 0) -> int:
        """Seal every in-memory series into one raw segment.

        Returns the number of readings sealed (0 when the memory tier
        is empty).  The sorted topics are cut into *runs*, maximal
        stretches stored in one block; a run is gathered with one fancy
        index per chunk of its block, rows in sorted-topic order, so its
        ``(rows, size)`` values ravel into its stretch of the columns —
        which a single run is, with no second copy — beside its block's
        timestamp vector tiled once a row.  The sealed blocks are
        emptied in place: they keep their rows, first chunk and
        newest timestamp — the seal floor of every row — so write plans
        stay valid across the flush.
        """
        series = self._series
        topics = sorted(t for t, row in series.items() if row.slab.size)
        if not topics:
            return 0
        blocks, runs = [], []
        for topic in topics:
            row = series[topic]
            if blocks and row.slab is blocks[-1]:
                runs[-1].append(row.row)
            else:
                blocks.append(row.slab)
                runs.append([row.row])
        parts = []
        for block, run in zip(blocks, runs):
            ts, val = _joined(block.parts(np.array(run, dtype=np.intp)))
            parts.append((np.tile(ts, len(run)), val.ravel()))
        ts, val = _joined(parts)
        sizes = np.repeat([block.size for block in blocks], [len(run) for run in runs])
        seg = self.store.write(
            Columnar(topics, _bounds(sizes), {"ts": ts, "val": val}),
            LEVEL_RAW, created_ns=now_ns,
        )
        self._sealed.update(zip(topics, seg.seal_ts.tolist()))
        for block in dict.fromkeys(blocks):
            block.empty()
        self.flush_count += 1
        return seg.points

    def _compact(self, seg: Segment, level: int, now_ns: int) -> None:
        bucket_ns = ROLLUP_BUCKET_NS[level]
        topics, offsets, cols, seal_ts = seg.content()
        if seg.level == LEVEL_RAW:
            vmin = vmean = vmax = cols["val"]
            count = np.ones(seg.points, dtype=np.int64)
        else:
            vmin, vmean, vmax = cols["min"], cols["mean"], cols["max"]
            count = cols["count"]
        offsets, rolled = rollup_segment(
            offsets, cols["ts"], vmin, vmean, vmax, count, bucket_ns
        )
        # The level's previous file takes the buckets in while the two
        # together span less than the level's window.
        at = self.store.segments.index(seg)
        into = self.store.segments[at - 1] if at else None
        if into is not None and (
            into.level != level
            or seg.max_ts // bucket_ns * bucket_ns - into.min_ts
            >= ROLLUP_WINDOW_NS[level]
        ):
            into = None
        if into is not None:
            try:
                into.content()
            except StorageError:
                # A bad block holds back only its own file: the buckets
                # take their segment's place.
                into = None
        self.store.replace(
            seg, Columnar(topics, offsets, rolled, seal_ts), level,
            created_ns=now_ns, bucket_ns=bucket_ns, into=into,
        )
        self.rollup_compactions += 1

    def _attempt(self, step, *args) -> int:
        """Run one flush, compaction or retention step.  A disk fault
        (``OSError``) or a bad block (:class:`StorageError`) is counted
        and leaves the step's input as it was — the memory tier
        unflushed, the segment listed — for the next sweep to retry."""
        try:
            return step(*args)
        except (OSError, StorageError):
            self.maintenance_errors += 1
            return 0

    def maintain(self, now_ns: int) -> Dict[str, int]:
        """One maintenance sweep: TTL, flush, rollups, retention.

        Scheduled periodically by the hosting Collect Agent (every
        ``maintenance_interval_ns``); safe to call at any time.  A step
        that fails is counted in ``errors`` (:meth:`_attempt`) and the
        sweep goes on with the others.
        """
        stats = {"expired": 0, "flushed": 0, "compacted": 0, "dropped": 0}
        errors = self.maintenance_errors
        if self.ttl_ns > 0:
            stats["expired"] = self.expire(now_ns)
        if self.memory_bytes() > self.flush_bytes:
            stats["flushed"] = self._attempt(self.flush, now_ns)
        before = self.rollup_compactions
        if self.rollup_after_ns > 0:
            cutoff = now_ns - self.rollup_after_ns
            for seg in list(self.store.segments):
                if seg.level == LEVEL_RAW and seg.max_ts < cutoff:
                    self._attempt(self._compact, seg, LEVEL_10S, now_ns)
        if self.rollup_minute_after_ns > 0:
            cutoff = now_ns - self.rollup_minute_after_ns
            for seg in list(self.store.segments):
                if seg.level == LEVEL_10S and seg.max_ts < cutoff:
                    self._attempt(self._compact, seg, LEVEL_1MIN, now_ns)
        stats["compacted"] = self.rollup_compactions - before
        for horizon, levels in (
            (self.retention_raw_ns, (LEVEL_RAW,)),
            (self.retention_rollup_ns, (LEVEL_10S, LEVEL_1MIN)),
        ):
            if horizon <= 0:
                continue
            cutoff = now_ns - horizon
            for seg in list(self.store.segments):
                if seg.level in levels and seg.max_ts < cutoff:
                    stats["dropped"] += self._attempt(self._drop, seg)
        stats["errors"] = self.maintenance_errors - errors
        return stats

    def _drop(self, seg: Segment) -> int:
        """Retention: delete one expired segment."""
        self.store.remove(seg)
        self.segments_expired += 1
        return 1

    # ------------------------------------------------------------------
    # Introspection / persistence
    # ------------------------------------------------------------------

    def tier_stats(self) -> dict:
        """Telemetry/CLI view of the tier state and traffic."""
        return {
            "tiers": "tiered",
            "directory": str(self.store.directory),
            "segments": self.store.level_counts(),
            "segment_points": self.store.total_points(),
            "memory_readings": super().total_readings(),
            "memory_bytes": self.memory_bytes(),
            "flush_budget_bytes": self.flush_bytes,
            "disk_bytes": self.disk_bytes(),
            "tier_hits": dict(self.tier_hits),
            "flushes": self.flush_count,
            "rollup_compactions": self.rollup_compactions,
            "segments_expired": self.segments_expired,
            "segments_quarantined": self.store.quarantined,
            "maintenance_errors": self.maintenance_errors,
            "replayed_points": self.replayed_points,
            "ooo_dropped": self.ooo_dropped,
        }

    def save(self, path: str) -> int:
        """Snapshot the *merged* view of both tiers to a ``.npz`` file.

        The snapshot is loadable with :meth:`StorageBackend.load` (it
        restores as a memory-only backend); the segment directory
        itself already is the durable representation.
        """
        arrays = {}
        topics = self.topics()
        for i, topic in enumerate(topics):
            ts, val = self._query_merged(topic, 0, 2**62, count_hits=False)
            arrays[f"topic_{i}"] = np.frombuffer(
                topic.encode("utf-8"), dtype=np.uint8
            )
            arrays[f"ts_{i}"] = ts
            arrays[f"val_{i}"] = val
        np.savez_compressed(
            path, n_series=np.int64(len(topics)), **arrays
        )
        return len(topics)
