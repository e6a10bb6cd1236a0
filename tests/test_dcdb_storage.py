"""Tests for the in-memory time-series storage backend."""

import numpy as np
import pytest

from repro.common.errors import StorageError
from repro.dcdb.sensor import SensorReading
from repro.dcdb.storage import StorageBackend
from tests.hosts import insert_passes, series


class TestInsertQuery:
    def test_roundtrip(self):
        s = StorageBackend()
        insert_passes(s, [("/a/power", 10, 1.0)])
        insert_passes(s, [("/a/power", 20, 2.0)])
        ts, val = s.query("/a/power", 0, 100)
        assert list(ts) == [10, 20]
        assert list(val) == [1.0, 2.0]

    def test_range_bounds_inclusive(self):
        s = StorageBackend()
        for t in (10, 20, 30):
            insert_passes(s, [("/a", t, float(t))])
        ts, _ = s.query("/a", 10, 20)
        assert list(ts) == [10, 20]

    def test_unknown_topic_empty(self):
        s = StorageBackend()
        ts, val = s.query("/nope", 0, 10)
        assert len(ts) == 0 and len(val) == 0

    def test_inverted_range_rejected(self):
        s = StorageBackend()
        with pytest.raises(StorageError):
            s.query("/a", 10, 5)

    def test_out_of_order_insert_dropped(self):
        s = StorageBackend()
        insert_passes(s, [("/a", 100, 1.0)])
        insert_passes(s, [("/a", 50, 2.0)])
        assert s.count("/a") == 1

    def test_latest(self):
        s = StorageBackend()
        assert s.latest("/a") is None
        insert_passes(s, [("/a", 10, 1.0)])
        insert_passes(s, [("/a", 20, 2.0)])
        assert s.latest("/a") == SensorReading(20, 2.0)

    def test_query_readings(self):
        s = StorageBackend()
        insert_passes(s, [("/a", 10, 1.0)])
        assert s.query_readings("/a", 0, 100) == [SensorReading(10, 1.0)]

    def test_contains(self):
        s = StorageBackend()
        assert "/a" not in s
        insert_passes(s, [("/a", 1, 1.0)])
        assert "/a" in s

    def test_growth_beyond_initial_capacity(self):
        s = StorageBackend()
        for i in range(1000):
            insert_passes(s, [("/a", i, float(i))])
        assert s.count("/a") == 1000
        ts, _ = s.query("/a", 500, 509)
        assert len(ts) == 10


class TestBatch:
    def test_insert_batch(self):
        s = StorageBackend()
        ts = np.arange(100, dtype=np.int64)
        insert_passes(s, series("/a", ts, ts.astype(float)))
        assert s.count("/a") == 100

    def test_batch_length_mismatch(self, tmp_path):
        """A snapshot series with more timestamps than values is refused
        by ``load``."""
        path = str(tmp_path / "bad.npz")
        np.savez(
            path, n_series=np.int64(1), topic_0=np.frombuffer(b"/a", np.uint8),
            ts_0=np.arange(3), val_0=np.arange(2).astype(float),
        )
        with pytest.raises(StorageError, match="/a"):
            StorageBackend.load(path)


class TestMaintenance:
    def test_ttl_expiry(self):
        s = StorageBackend(ttl_ns=100)
        for t in (0, 50, 150, 200):
            insert_passes(s, [("/a", t, float(t))])
        dropped = s.expire(now_ns=200)
        assert dropped == 2  # 0 and 50 are older than 200-100
        ts, _ = s.query("/a", 0, 1000)
        assert list(ts) == [150, 200]

    def test_no_ttl_no_expiry(self):
        s = StorageBackend()
        insert_passes(s, [("/a", 0, 1.0)])
        assert s.expire(10**12) == 0

    def test_drop(self):
        s = StorageBackend()
        insert_passes(s, [("/a", 1, 1.0)])
        assert s.drop("/a") is True
        assert s.drop("/a") is False
        assert s.count("/a") == 0

    def test_counters_and_totals(self):
        s = StorageBackend()
        insert_passes(s, [("/a", 1, 1.0)])
        insert_passes(s, [("/b", 2, 2.0)])
        s.query("/a", 0, 10)
        assert s.insert_count == 2
        assert s.query_count == 1
        assert s.total_readings() == 2
        assert set(s.topics()) == {"/a", "/b"}
        assert s.memory_bytes() > 0


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        s = StorageBackend()
        for i in range(50):
            insert_passes(s, [("/a/power", i * 10, float(i))])
            insert_passes(s, [("/b/temp", i * 10, float(-i))])
        path = str(tmp_path / "snap.npz")
        assert s.save(path) == 2
        restored = StorageBackend.load(path)
        assert set(restored.topics()) == {"/a/power", "/b/temp"}
        for topic in s.topics():
            ts_a, val_a = s.query(topic, 0, 10**6)
            ts_b, val_b = restored.query(topic, 0, 10**6)
            assert list(ts_a) == list(ts_b)
            assert list(val_a) == list(val_b)

    def test_empty_snapshot(self, tmp_path):
        path = str(tmp_path / "empty.npz")
        assert StorageBackend().save(path) == 0
        restored = StorageBackend.load(path)
        assert restored.total_readings() == 0

    def test_a_snapshot_whose_stamps_rewind_is_refused(self, tmp_path):
        """Failing before: the reading at 15 was dropped as out of order
        and the rest loaded as if nothing was wrong."""
        path = str(tmp_path / "rewind.npz")
        np.savez(
            path, n_series=np.int64(2),
            topic_0=np.frombuffer(b"/ok", np.uint8),
            ts_0=np.array([10, 20]), val_0=np.array([1.0, 2.0]),
            topic_1=np.frombuffer(b"/rewinds", np.uint8),
            ts_1=np.array([10, 20, 15, 30]), val_1=np.array([1.0, 2.0, 3.0, 4.0]),
        )
        with pytest.raises(StorageError, match="/rewinds"):
            StorageBackend.load(path)

    def test_restore_does_not_count_as_inserts(self, tmp_path):
        s = StorageBackend()
        insert_passes(s, [("/a", 1, 1.0)])
        path = str(tmp_path / "snap.npz")
        s.save(path)
        restored = StorageBackend.load(path)
        assert restored.insert_count == 0
        assert restored.total_readings() == 1


class TestBatchOrderingRegression:
    """Regression: a misordered batch used to bypass the out-of-order
    guard a single reading meets, breaking the sorted-timestamp
    invariant every binary-search ``range()`` relies on — queries
    silently returned wrong windows.  Written as its passes, a batch
    meets the guard reading by reading."""

    def test_intra_batch_disorder_dropped(self):
        s = StorageBackend()
        insert_passes(s, series("/a", np.array([10, 30, 20, 40]), np.array([1.0, 3.0, 2.0, 4.0])))
        ts, val = s.query("/a", 0, 100)
        assert list(ts) == [10, 30, 40]
        assert list(val) == [1.0, 3.0, 4.0]
        assert s.ooo_dropped == 1

    def test_batch_vs_tail_disorder_dropped(self):
        s = StorageBackend()
        insert_passes(s, [("/a", 100, 1.0)])
        insert_passes(s, series("/a", np.array([50, 150]), np.array([0.5, 1.5])))
        ts, _ = s.query("/a", 0, 1000)
        assert list(ts) == [100, 150]
        assert s.ooo_dropped == 1

    def test_range_not_corrupted_by_disorder(self):
        # Before the fix this stored [100, 10, 20]: searchsorted then
        # located range(0, 50) as an empty window even though 10 and 20
        # were "stored".  Now the offenders are dropped instead.
        s = StorageBackend()
        insert_passes(s, series("/a", np.array([100, 10, 20]), np.array([1.0, 2.0, 3.0])))
        ts, _ = s.query("/a", 0, 50)
        assert list(ts) == []  # nothing below the kept tail survived
        ts, _ = s.query("/a", 0, 200)
        assert list(ts) == [100]
        assert np.all(np.diff(s.query("/a", 0, 2**62)[0]) >= 0)

    def test_batch_semantics_match_scalar(self):
        stream_ts = [10, 5, 20, 20, 15, 30]
        stream_val = [float(t) for t in stream_ts]
        scalar = StorageBackend()
        for t, v in zip(stream_ts, stream_val):
            insert_passes(scalar, [("/a", t, v)])
        batched = StorageBackend()
        insert_passes(batched, series("/a", np.array(stream_ts), np.array(stream_val)))
        assert list(scalar.query("/a", 0, 100)[0]) == list(
            batched.query("/a", 0, 100)[0]
        )
        assert scalar.ooo_dropped == batched.ooo_dropped == 2
        assert scalar.insert_count == batched.insert_count == 4

    def test_equal_timestamps_kept(self):
        s = StorageBackend()
        insert_passes(s, series("/a", np.array([10, 10, 10]), np.array([1.0, 2.0, 3.0])))
        assert s.count("/a") == 3 and s.ooo_dropped == 0


class TestExpiryReclamation:
    """Regression: ``expire_before`` compacted in place but never
    released capacity, so a long-retention host kept peak-sized buffers
    forever — ``memory_bytes()`` never went down."""

    def test_memory_released_after_mass_expiry(self):
        s = StorageBackend(ttl_ns=10)
        n = 100_000
        insert_passes(s, series("/a", np.arange(n, dtype=np.int64), np.ones(n)))
        before = s.memory_bytes()
        dropped = s.expire(n + 9)  # keep only the last handful
        assert dropped == n - 1
        assert s.memory_bytes() < before / 4
        # Still correct after the reallocation.
        ts, _ = s.query("/a", 0, 2**62)
        assert list(ts) == [n - 1]
        insert_passes(s, [("/a", n + 50, 1.0)])
        assert s.count("/a") == 2

    def test_partial_expiry_keeps_buffers(self):
        s = StorageBackend(ttl_ns=100)
        n = 4096
        insert_passes(s, series("/a", np.arange(n, dtype=np.int64), np.ones(n)))
        before = s.memory_bytes()
        s.expire(n // 2)  # drops less than 3/4: shift in place
        assert s.memory_bytes() == before

    def test_shrink_never_below_initial_capacity(self):
        s = StorageBackend(ttl_ns=1)
        n = 10_000
        insert_passes(s, series("/a", np.arange(n, dtype=np.int64), np.ones(n)))
        s.expire(n + 100)  # expire everything
        assert s.count("/a") == 0
        floor = 256 * (8 + 8)  # the first chunk: storage.CHUNK int64+float64 pairs
        assert s.memory_bytes() == floor
