"""Tests for the on-disk segment tier (segments.py) and its wiring."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigError, StorageError
from repro.common.timeutil import NS_PER_SEC
from repro.dcdb import Broker, CollectAgent
from repro.dcdb.segments import (
    LEVEL_10S,
    LEVEL_RAW,
    Segment,
    SegmentStore,
    TieredStorageBackend,
    rollup_columns,
)
from repro.dcdb.storage import StorageBackend
from repro.simulator.clock import TaskScheduler
from tests.hosts import insert_passes, one, series


def _fill(backend, topics=2, seconds=20, seed=7):
    rng = np.random.default_rng(seed)
    names = [f"/r0/n{i}/power" for i in range(topics)]
    for topic in names:
        ts = np.arange(seconds, dtype=np.int64) * NS_PER_SEC
        insert_passes(backend, series(topic, ts, rng.normal(size=seconds)))
    return names


class TestSegmentFile:
    def test_write_open_query_roundtrip(self, tmp_path):
        ts = np.arange(10, dtype=np.int64) * NS_PER_SEC
        val = np.linspace(0.0, 9.0, 10)
        seg = Segment.write(
            tmp_path / "segment-000000-l0.seg", 0, LEVEL_RAW,
            {"/a": {"ts": ts, "val": val}},
        )
        reopened = Segment.open(seg.path)
        q_ts, q_val = reopened.query("/a", 0, 2**62)
        assert np.array_equal(q_ts, ts) and np.array_equal(q_val, val)
        assert reopened.min_ts == 0 and reopened.max_ts == int(ts[-1])
        assert reopened.points == 10

    def test_query_clips_to_range(self, tmp_path):
        ts = np.arange(10, dtype=np.int64)
        seg = Segment.write(
            tmp_path / "s.seg", 0, LEVEL_RAW,
            {"/a": {"ts": ts, "val": ts.astype(float)}},
        )
        q_ts, _ = seg.query("/a", 3, 6)
        assert list(q_ts) == [3, 4, 5, 6]

    def test_truncated_data_block_detected(self, tmp_path):
        ts = np.arange(10, dtype=np.int64)
        seg = Segment.write(
            tmp_path / "s.seg", 0, LEVEL_RAW,
            {"/a": {"ts": ts, "val": ts.astype(float)}},
        )
        blob = seg.path.read_bytes()
        seg.path.write_bytes(blob[:-16])
        with pytest.raises(StorageError, match="truncated"):
            Segment.open(seg.path).query("/a", 0, 2**62)

    def test_empty_segment_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            Segment.write(tmp_path / "s.seg", 0, LEVEL_RAW, {})

    def test_not_a_segment_file(self, tmp_path):
        path = tmp_path / "junk.seg"
        path.write_bytes(b"not a segment at all")
        with pytest.raises(StorageError, match="not a segment"):
            Segment.open(path)


class TestSegmentStore:
    def test_scan_recovers_in_seq_order(self, tmp_path):
        store = SegmentStore(tmp_path)
        for i in range(3):
            ts = np.array([i * 100], dtype=np.int64)
            store.write({"/a": {"ts": ts, "val": ts.astype(float)}})
        again = SegmentStore(tmp_path)
        assert [s.seq for s in again.segments] == [0, 1, 2]
        assert again.total_points() == 3

    def test_interrupted_compaction_keeps_higher_level(self, tmp_path):
        store = SegmentStore(tmp_path)
        ts = np.arange(5, dtype=np.int64) * NS_PER_SEC
        raw = store.write({"/a": {"ts": ts, "val": ts.astype(float)}})
        # Simulate a crash after the rollup file landed but before the
        # raw source was unlinked: write the level-1 file by hand.
        Segment.write(
            tmp_path / f"segment-{raw.seq:06d}-l1.seg", raw.seq, LEVEL_10S,
            {"/a": rollup_columns(
                ts, ts.astype(float), ts.astype(float), ts.astype(float),
                np.ones(5, dtype=np.int64), 10 * NS_PER_SEC,
            )},
        )
        recovered = SegmentStore(tmp_path)
        assert len(recovered.segments) == 1
        assert recovered.segments[0].level == LEVEL_10S
        assert not raw.path.exists()  # superseded source removed


    def test_orphan_tmp_removed_at_scan(self, tmp_path):
        store = SegmentStore(tmp_path)
        ts = np.arange(5, dtype=np.int64)
        store.write({"/a": {"ts": ts, "val": ts.astype(float)}})
        # A crash between write and rename leaves the temporary file.
        orphan = tmp_path / "segment-000007-l0.tmp"
        orphan.write_bytes(b"half a segment")
        again = SegmentStore(tmp_path)
        assert not orphan.exists()
        assert [s.seq for s in again.segments] == [0]

    def test_bad_header_quarantined_at_scan(self, tmp_path):
        store = SegmentStore(tmp_path)
        for i in range(2):
            ts = np.array([i * 100], dtype=np.int64)
            store.write({"/a": {"ts": ts, "val": ts.astype(float)}})
        bad = store.segments[0].path
        blob = bytearray(bad.read_bytes())
        blob[20] ^= 0x01  # inside the fixed header
        bad.write_bytes(bytes(blob))
        (tmp_path / "segment-000005-l0.seg").write_bytes(b"junk")
        tiered = TieredStorageBackend(tmp_path)  # starts all the same
        assert [s.seq for s in tiered.store.segments] == [1]
        assert tiered.tier_stats()["segments_quarantined"] == 2
        assert bad.with_suffix(".corrupt").exists() and not bad.exists()
        # The count is the files set aside, so it survives a reopen.
        assert SegmentStore(tmp_path).quarantined == 2

    def test_flipped_data_bit_fails_the_query(self, tmp_path):
        ts = np.arange(10, dtype=np.int64)
        seg = Segment.write(
            tmp_path / "s.seg", 0, LEVEL_RAW,
            {"/a": {"ts": ts, "val": ts.astype(float)}},
        )
        blob = bytearray(seg.path.read_bytes())
        blob[-3] ^= 0x10
        seg.path.write_bytes(bytes(blob))
        reopened = Segment.open(seg.path)  # header and index are fine
        with pytest.raises(StorageError, match="checksum"):
            reopened.query("/a", 0, 2**62)


class TestRollupColumns:
    def test_mass_and_extrema(self):
        ts = np.arange(25, dtype=np.int64) * NS_PER_SEC
        val = np.arange(25, dtype=np.float64)
        out = rollup_columns(
            ts, val, val, val, np.ones(25, dtype=np.int64), 10 * NS_PER_SEC
        )
        assert list(out["ts"]) == [0, 10 * NS_PER_SEC, 20 * NS_PER_SEC]
        assert list(out["count"]) == [10, 10, 5]
        assert out["min"][0] == 0.0 and out["max"][0] == 9.0
        assert (out["mean"] * out["count"]).sum() == pytest.approx(val.sum())


class TestTieredBackend:
    def test_query_merges_tiers_bit_identical(self, tmp_path):
        mem = StorageBackend()
        tiered = TieredStorageBackend(tmp_path, flush_mb=64)
        _fill(mem)
        _fill(tiered)
        tiered.flush(10 * NS_PER_SEC)
        _fill(mem, seconds=40, seed=9)
        _fill(tiered, seconds=40, seed=9)
        for topic in mem.topics():
            m = mem.query(topic, 0, 2**62)
            t = tiered.query(topic, 0, 2**62)
            assert np.array_equal(m[0], t[0])
            assert np.array_equal(m[1], t[1])
        assert tiered.tier_hits["segment"] > 0
        assert tiered.tier_hits["memory"] > 0

    def test_seal_floor_refuses_stale_inserts(self, tmp_path):
        tiered = TieredStorageBackend(tmp_path, flush_mb=64)
        names = _fill(tiered, seconds=10)
        tiered.flush(10 * NS_PER_SEC)
        insert_passes(tiered, [(names[0], 0, 1.0)])
        assert tiered.ooo_dropped == 1
        assert tiered.count(names[0]) == 10
        insert_passes(tiered, series(names[0], [0, 20 * NS_PER_SEC], [1.0, 2.0]))
        assert tiered.ooo_dropped == 2
        assert tiered.count(names[0]) == 11

    def test_latest_falls_back_to_sealed_tier(self, tmp_path):
        tiered = TieredStorageBackend(tmp_path, flush_mb=64)
        names = _fill(tiered, seconds=5)
        newest = tiered.latest(names[0])
        tiered.flush(5 * NS_PER_SEC)
        assert tiered.latest(names[0]) == newest
        assert names[0] in tiered
        assert names[0] in tiered.topics()

    def test_unbound_base_query_reads_the_memory_tier_only(self, tmp_path):
        """What ``benchmarks/e2e/oracle.py``'s ``_memory_tier`` relies
        on: the base class's ``query`` on a tiered backend answers from
        the memory tier — nothing once a flush emptied it — and
        ``latest`` of a flushed topic falls through to the segments."""
        tiered = TieredStorageBackend(tmp_path, flush_mb=64)
        names = ["/r0/n0/power", "/r0/n1/power"]
        for sec in range(5):
            insert_passes(tiered, zip(names, [sec * NS_PER_SEC] * 2, [1.0, 2.0]))
        ts, val = StorageBackend.query(tiered, names[1], 0, 2**62)
        assert list(ts) == [sec * NS_PER_SEC for sec in range(5)]
        assert list(val) == [2.0] * 5
        newest = tiered.latest(names[1])
        tiered.flush(5 * NS_PER_SEC)
        for name in names:
            ts, val = StorageBackend.query(tiered, name, 0, 2**62)
            assert len(ts) == len(val) == 0
            assert len(tiered.query(name, 0, 2**62)[0]) == 5
        assert StorageBackend.latest(tiered, names[1]) is None
        assert tiered.latest(names[1]) == newest
        insert_passes(tiered, zip(names, [5 * NS_PER_SEC] * 2, [3.0, 4.0]))
        ts, val = StorageBackend.query(tiered, names[1], 0, 2**62)
        assert list(ts) == [5 * NS_PER_SEC] and list(val) == [4.0]
        assert tiered.latest(names[1]) == (5 * NS_PER_SEC, 4.0)

    def test_restart_replays_segments(self, tmp_path):
        first = TieredStorageBackend(tmp_path, flush_mb=64)
        _fill(first, seconds=15)
        expected = {t: first.query(t, 0, 2**62) for t in first.topics()}
        first.flush(15 * NS_PER_SEC)
        second = TieredStorageBackend(tmp_path, flush_mb=64)
        assert second.replayed_points == 30
        for topic, (e_ts, e_val) in expected.items():
            g_ts, g_val = second.query(topic, 0, 2**62)
            assert np.array_equal(e_ts, g_ts)
            assert np.array_equal(e_val, g_val)

    def test_maintain_flushes_past_budget(self, tmp_path):
        tiered = TieredStorageBackend(tmp_path, flush_mb=0.0001)
        _fill(tiered, seconds=30)
        stats = tiered.maintain(30 * NS_PER_SEC)
        assert stats["flushed"] == 60
        assert tiered.flush_count == 1
        assert super(TieredStorageBackend, tiered).total_readings() == 0
        assert tiered.total_readings() == 60

    def test_a_nul_topic_is_refused_and_the_sweeps_go_on(self, tmp_path):
        """No segment can name a topic with a NUL in it: both backends
        refuse it on its first arrival, in a pass with others or alone,
        instead of every later flush failing with the good topics held."""
        tiered = TieredStorageBackend(tmp_path, flush_mb=0)
        bad = "/n0/bad\0x"
        for backend in (StorageBackend(), tiered):
            with pytest.raises(StorageError):
                insert_passes(
                    backend, [("/n0/ok", NS_PER_SEC, 1.0), (bad, NS_PER_SEC, 2.0)]
                )
            with pytest.raises(StorageError):
                insert_passes(backend, [(bad, NS_PER_SEC, 2.0)])
            assert bad not in backend
        insert_passes(tiered, [("/n0/ok", 2 * NS_PER_SEC, 3.0)])
        stats = tiered.maintain(10 * NS_PER_SEC)
        assert stats["errors"] == 0 and stats["flushed"] == 1
        (seg,) = tiered.store.segments
        assert seg.topics == ["/n0/ok"]
        assert tiered.query("/n0/ok", 0, 2**62)[1].tolist() == [3.0]

    def test_rollup_and_retention_lifecycle(self, tmp_path):
        tiered = TieredStorageBackend(
            tmp_path, flush_mb=64,
            rollup_after_ns=10 * NS_PER_SEC,
            rollup_minute_after_ns=1000 * NS_PER_SEC,
            retention_rollup_ns=10_000 * NS_PER_SEC,
        )
        _fill(tiered, seconds=120)
        tiered.flush(120 * NS_PER_SEC)
        tiered.maintain(140 * NS_PER_SEC)
        assert tiered.store.level_counts()["rollup_10s"] == 1
        ts, _ = tiered.query("/r0/n0/power", 0, 2**62)
        assert len(ts) == 12  # 120s of raw at 1s -> 10s buckets
        tiered.maintain(2000 * NS_PER_SEC)
        assert tiered.store.level_counts()["rollup_1min"] == 1
        tiered.maintain(100_000 * NS_PER_SEC)
        assert len(tiered.store.segments) == 0
        assert tiered.segments_expired == 1

    def test_a_minute_two_flushes_split_is_one_count_weighted_entry(self, tmp_path):
        """Readings 0-19 s and 20-59 s sealed by two sweeps: once rolled
        up, the minute is one entry whose mean weights each part by its
        count (29.5), not the mean of the two partial means (24.5)."""
        tiered = TieredStorageBackend(
            tmp_path, flush_mb=0, rollup_after_ns=30 * NS_PER_SEC,
            rollup_minute_after_ns=120 * NS_PER_SEC,
        )
        ts = np.arange(60, dtype=np.int64) * NS_PER_SEC
        val = np.arange(60, dtype=np.float64)
        insert_passes(tiered, series("/a", ts[:20], val[:20]))
        assert tiered.maintain(20 * NS_PER_SEC)["flushed"] == 20
        insert_passes(tiered, series("/a", ts[20:], val[20:]))
        assert tiered.maintain(60 * NS_PER_SEC)["flushed"] == 40
        tiered.maintain(200 * NS_PER_SEC)
        (seg,) = tiered.store.segments
        cols = seg.topic_columns("/a", 0, 2**62)
        assert cols["ts"].tolist() == [0] and cols["count"].tolist() == [60]
        assert cols["mean"].tolist() == [29.5]
        assert tiered.query("/a", 0, 59 * NS_PER_SEC)[1].tolist() == [29.5]
        _, means = tiered.query_aggregate("/a", 0, 59 * NS_PER_SEC, 60 * NS_PER_SEC, "mean")
        assert means.tolist() == [29.5]

    def test_a_bad_block_in_the_older_file_holds_back_only_that_file(self, tmp_path):
        """A flipped bit in a 10 s file's ``min`` block: the next raw
        segment rolls up into a file of its own instead of folding."""
        tiered = TieredStorageBackend(
            tmp_path, flush_mb=0, rollup_after_ns=30 * NS_PER_SEC
        )
        ts = np.arange(20, dtype=np.int64) * NS_PER_SEC
        val = np.arange(20, dtype=np.float64)
        insert_passes(tiered, series("/a", ts[:10], val[:10]))
        tiered.maintain(10 * NS_PER_SEC)
        insert_passes(tiered, series("/a", ts[10:], val[10:]))
        tiered.maintain(20 * NS_PER_SEC)
        tiered.maintain(45 * NS_PER_SEC)  # the 0-9 s segment rolls up
        bad, raw = tiered.store.segments
        assert (bad.level, raw.level) == (LEVEL_10S, LEVEL_RAW)
        blob = bytearray(bad.path.read_bytes())
        blob[bad.data_offset + bad.points * 8 + 3] ^= 0x01  # in ``min``
        bad.path.write_bytes(bytes(blob))
        bad.release()
        stats = tiered.maintain(55 * NS_PER_SEC)
        assert stats["compacted"] == 1 and stats["errors"] == 0
        assert tiered.store.segments[0] is bad and bad.path.exists()
        assert [s.level for s in tiered.store.segments] == [LEVEL_10S, LEVEL_10S]
        assert [s.first for s in tiered.store.segments] == [0, 1]
        got_ts, got_val = tiered.query("/a", 0, 2**62)
        assert got_ts.tolist() == [0, 10 * NS_PER_SEC]
        assert got_val.tolist() == [4.5, 14.5]

    @pytest.mark.parametrize("minute", [False, True])
    def test_seal_floor_survives_rollup_and_restart(self, tmp_path, minute):
        """A rollup's ``max_ts`` is the start of its last bucket; the
        floor is the newest *raw* timestamp sealed, kept in the index."""
        def backend():
            return TieredStorageBackend(
                tmp_path, flush_mb=64, rollup_after_ns=10 * NS_PER_SEC,
                rollup_minute_after_ns=1000 * NS_PER_SEC,
            )

        first = backend()
        ts = np.arange(60, dtype=np.int64) * NS_PER_SEC
        insert_passes(first, series("/a", ts, np.ones(60)))
        first.flush(60 * NS_PER_SEC)
        first.maintain((5000 if minute else 100) * NS_PER_SEC)
        (seg,) = first.store.segments
        assert seg.level == (2 if minute else 1)
        assert seg.max_ts == (0 if minute else 50 * NS_PER_SEC)
        insert_passes(first, [("/a", 55 * NS_PER_SEC, 1.0)])
        assert first.ooo_dropped == 1
        second = backend()
        insert_passes(second, [("/a", 55 * NS_PER_SEC, 1.0)])
        assert second.ooo_dropped == 1
        assert second.count("/a") == len(second.query("/a", 0, 2**62)[0])
        assert super(TieredStorageBackend, second).total_readings() == 0
        # The floor itself is in order.
        insert_passes(second, [("/a", 59 * NS_PER_SEC, 1.0)])
        assert second.ooo_dropped == 1

    def test_query_aggregate_spans_tiers(self, tmp_path):
        mem = StorageBackend()
        tiered = TieredStorageBackend(tmp_path, flush_mb=64)
        _fill(mem, topics=1, seconds=30)
        _fill(tiered, topics=1, seconds=30)
        tiered.flush(15 * NS_PER_SEC)
        for op in ("mean", "min", "max", "sum", "count"):
            m = mem.query_aggregate("/r0/n0/power", 0, 2**62,
                                    10 * NS_PER_SEC, op=op)
            t = tiered.query_aggregate("/r0/n0/power", 0, 2**62,
                                       10 * NS_PER_SEC, op=op)
            assert np.array_equal(m[0], t[0]) and np.allclose(m[1], t[1])

    def test_tier_stats_shape(self, tmp_path):
        tiered = TieredStorageBackend(tmp_path, flush_mb=64)
        _fill(tiered, seconds=5)
        tiered.flush(5 * NS_PER_SEC)
        tiered.query("/r0/n0/power", 0, 2**62)
        stats = tiered.tier_stats()
        assert stats["tiers"] == "tiered"
        assert stats["segments"]["raw"] == 1
        assert stats["tier_hits"]["segment"] == 1
        assert stats["disk_bytes"] > 0
        assert stats["flushes"] == 1

    def test_save_snapshot_merges_tiers(self, tmp_path):
        tiered = TieredStorageBackend(tmp_path / "seg", flush_mb=64)
        _fill(tiered, seconds=20)
        tiered.flush(10 * NS_PER_SEC)
        expected = {t: tiered.query(t, 0, 2**62) for t in tiered.topics()}
        snap = str(tmp_path / "snap.npz")
        assert tiered.save(snap) == 2
        restored = StorageBackend.load(snap)
        for topic, (e_ts, e_val) in expected.items():
            g_ts, g_val = restored.query(topic, 0, 2**62)
            assert np.array_equal(e_ts, g_ts)
            assert np.array_equal(e_val, g_val)


class TestAgentWiring:
    def test_agent_schedules_maintenance_and_gauges(self, tmp_path):
        scheduler = TaskScheduler()
        broker = Broker()
        tiered = TieredStorageBackend(
            tmp_path, flush_mb=0.0001,
            maintenance_interval_ns=5 * NS_PER_SEC,
        )
        agent = CollectAgent("agent", broker, scheduler, storage=tiered)
        for sec in range(12):
            broker.publish_batch(one("/r0/n0/power", sec * NS_PER_SEC, 1.0))
        scheduler.run_until(12 * NS_PER_SEC)
        assert tiered.flush_count >= 1  # the maintenance task fired
        from repro.telemetry import render_prometheus

        metrics = render_prometheus(agent.telemetry)
        assert "storage_disk_bytes" in metrics
        assert 'storage_tier_hits{tier="memory"}' in metrics
        assert "storage_flushes" in metrics

    def test_tiered_agent_sweeps_ttl_once_per_maintenance(self, tmp_path):
        # ttl 20 s, maintenance every 10 s, one simulated minute: the
        # sweep runs inside maintenance only, not also on a task of its
        # own every ttl/10 (which made 31 + 7 calls).
        scheduler = TaskScheduler()
        tiered = TieredStorageBackend(
            tmp_path, ttl_ns=20 * NS_PER_SEC,
            maintenance_interval_ns=10 * NS_PER_SEC,
        )
        calls = {"expire": 0, "maintain": 0}

        def counted(name):
            method = getattr(tiered, name)

            def call(now_ns):
                calls[name] += 1
                return method(now_ns)
            return call

        for name in calls:
            setattr(tiered, name, counted(name))
        CollectAgent("agent", Broker(), scheduler, storage=tiered)
        scheduler.run_until(60 * NS_PER_SEC)
        assert calls == {"expire": 7, "maintain": 7}

    def test_memory_agent_has_no_tier_gauges(self):
        from repro.telemetry import render_prometheus

        agent = CollectAgent("agent", Broker(), TaskScheduler())
        assert "storage_disk_bytes" not in render_prometheus(agent.telemetry)


class TestDeploySpec:
    def test_tiered_storage_section(self, tmp_path):
        from repro.deploy import build_deployment

        dep = build_deployment({
            "cluster": {"nodes": 2, "cpus": 1, "seed": 3},
            "monitoring": {"plugins": ["sysfs"], "interval_ms": 1000},
            "storage": {
                "tiers": "tiered", "dir": str(tmp_path),
                "flush_mb": 0.0001, "flush_interval_s": 5,
            },
        })
        assert isinstance(dep.agent.storage, TieredStorageBackend)
        dep.run(30)
        dep.agent.flush()
        assert dep.agent.storage.flush_count >= 1
        assert dep.agent.storage.disk_bytes() > 0
        # Readings stay queryable across the flush boundary.
        ts, _ = dep.agent.storage.query("/r0/n0/power".replace(
            "/r0/n0", dep.sim.node_paths[0]), 0, 2**62)
        assert len(ts) > 0

    def test_memory_section_with_ttl(self):
        from repro.deploy import build_deployment

        dep = build_deployment({
            "cluster": {"nodes": 1, "cpus": 1},
            "storage": {"tiers": "memory", "ttl_s": 60},
        })
        assert not isinstance(dep.agent.storage, TieredStorageBackend)
        assert dep.agent.storage.ttl_ns == 60 * NS_PER_SEC

    def test_unknown_tiers_rejected(self):
        from repro.deploy import build_deployment

        with pytest.raises(ConfigError, match="tiers") as err:
            build_deployment({
                "cluster": {"nodes": 1, "cpus": 1},
                "storage": {"tiers": "cassandra"},
            })
        assert [(d.code, d.path) for d in err.value.diagnostics] == [
            ("W016", "storage.tiers")
        ]


class TestAnalyzerCoverage:
    def _diags(self, storage):
        from repro.analysis.config import analyze_deployment

        spec = {"cluster": {"nodes": 1, "cpus": 1}, "storage": storage}
        return analyze_deployment(spec)

    def test_clean_section(self):
        diags = self._diags({
            "tiers": "tiered", "flush_mb": 32,
            "rollups": {"after_s": 3600, "minute_after_s": 86400},
            "retention": {"raw_s": 604800},
        })
        assert [d for d in diags if d.code != "W015"] == []

    def test_unknown_key_and_bad_tiers(self):
        diags = self._diags({"tiers": "cassandra", "flash_mb": 1})
        codes = {d.code for d in diags}
        assert "W016" in codes and "W003" in codes

    def test_retention_below_rollup_horizon_warns(self):
        diags = self._diags({
            "tiers": "tiered",
            "rollups": {"after_s": 3600},
            "retention": {"raw_s": 600},
        })
        assert any(
            d.code == "W016" and "expire before" in d.message
            for d in diags
        )

    def test_memory_mode_with_disk_keys_warns(self):
        diags = self._diags({"tiers": "memory", "flush_mb": 8})
        assert any(
            d.code == "W003" and "no effect" in d.message for d in diags
        )

    def test_flow_counts_flush_budget(self):
        from repro.analysis.flow import build_flow_model, render_flow_report
        from repro.analysis.diagnostics import DiagnosticCollector

        base = {
            "cluster": {"nodes": 2, "cpus": 1},
            "monitoring": {"plugins": ["sysfs"], "interval_ms": 1000},
        }
        plain = build_flow_model(dict(base), DiagnosticCollector())
        tiered = build_flow_model(
            {**base, "storage": {"tiers": "tiered", "flush_mb": 16}},
            DiagnosticCollector(),
        )
        delta = (
            tiered.host_memory["collect agent"]
            - plain.host_memory["collect agent"]
        )
        assert delta == 16 * 1024 * 1024
        assert "storage: tiered" in render_flow_report(tiered)


# ----------------------------------------------------------------------
# Property tests (hypothesis)
# ----------------------------------------------------------------------

_ops = st.lists(
    st.tuples(
        st.booleans(),  # scalar insert vs batch
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10_000),
                st.floats(
                    min_value=-1e9, max_value=1e9,
                    allow_nan=False, allow_infinity=False,
                ),
            ),
            min_size=1, max_size=8,
        ),
    ),
    min_size=1, max_size=12,
)


def _apply(backend, ops, topic="/p"):
    for scalar, readings in ops:
        if scalar:
            for t, v in readings:
                insert_passes(backend, [(topic, t, v)])
        else:
            ts = np.array([t for t, _ in readings], dtype=np.int64)
            val = np.array([v for _, v in readings])
            insert_passes(backend, series(topic, ts, val))


class TestStorageProperties:
    @settings(max_examples=60, deadline=None)
    @given(ops=_ops)
    def test_save_load_roundtrip_identical(self, ops, tmp_path_factory):
        backend = StorageBackend()
        _apply(backend, ops)
        path = str(tmp_path_factory.mktemp("snap") / "s.npz")
        backend.save(path)
        restored = StorageBackend.load(path)
        o_ts, o_val = backend.query("/p", 0, 2**62)
        r_ts, r_val = restored.query("/p", 0, 2**62)
        assert np.array_equal(o_ts, r_ts)
        assert np.array_equal(o_val, r_val)
        # The stored series is always sorted, whatever the input order.
        assert np.all(np.diff(o_ts) >= 0)

    @settings(max_examples=40, deadline=None)
    @given(ops=_ops)
    def test_tiered_parity_with_memory(self, ops, tmp_path_factory):
        mem = StorageBackend()
        tiered = TieredStorageBackend(
            tmp_path_factory.mktemp("seg"), flush_mb=64
        )
        # Flush between every op: maximally adversarial tier mixing.
        for i, op in enumerate(ops):
            _apply(mem, [op])
            _apply(tiered, [op])
            if i % 2:
                tiered.flush(0)
        m_ts, m_val = mem.query("/p", 0, 2**62)
        t_ts, t_val = tiered.query("/p", 0, 2**62)
        assert np.array_equal(m_ts, t_ts)
        assert np.array_equal(m_val, t_val)
        assert mem.ooo_dropped == tiered.ooo_dropped

    @settings(max_examples=40, deadline=None)
    @given(
        ops=_ops,
        cutoffs=st.lists(
            st.integers(min_value=0, max_value=20_000),
            min_size=1, max_size=5,
        ),
    )
    def test_ttl_expiry_monotone_both_tiers(
        self, ops, cutoffs, tmp_path_factory
    ):
        for make in (
            lambda: StorageBackend(ttl_ns=1000),
            lambda: TieredStorageBackend(
                tmp_path_factory.mktemp("seg"), flush_mb=64, ttl_ns=1000
            ),
        ):
            backend = make()
            _apply(backend, ops)
            remaining = backend.total_readings()
            for now in sorted(cutoffs):
                backend.expire(now)
                left = backend.total_readings()
                assert left <= remaining  # expiry only shrinks
                remaining = left
                ts, _ = backend.query("/p", 0, 2**62)
                assert np.all(np.diff(ts) >= 0)


class TestMaintenanceFaults:
    """A maintenance step that fails — a full disk under a flush, a bad
    column block under a compaction — is counted, leaves its input as
    it was, and the next sweep retries it; the deployment keeps running
    and loses no reading."""

    @staticmethod
    def _deployment(directory, retention=None, **rollups):
        from repro.deploy import build_deployment

        storage = {
            "tiers": "tiered", "dir": str(directory),
            "flush_mb": 0.0001, "flush_interval_s": 5,
        }
        if rollups:
            storage["rollups"] = rollups
        if retention:
            storage["retention"] = retention
        return build_deployment({
            "cluster": {"nodes": 2, "cpus": 1, "seed": 3},
            "monitoring": {
                "plugins": ["tester"], "tester_sensors": 4,
                "interval_ms": 1000,
            },
            "storage": storage,
        })

    @staticmethod
    def _held(storage):
        """Readings the tiers hold: memory, raw points (from the index),
        rollup buckets weighted by their count."""
        held = storage.tier_stats()["memory_readings"]
        for seg in storage.store.segments:
            if seg.level == LEVEL_RAW:
                held += seg.points
            else:
                held += int(seg.content().columns["count"].sum())
        return held

    @staticmethod
    def _gauge(dep, name):
        from repro.telemetry import render_prometheus

        (line,) = [
            line for line in render_prometheus(dep.agent.telemetry).splitlines()
            if line.startswith(name + " ")
        ]
        return float(line.split()[1])

    def _intact(self, dep, directory):
        storage = dep.agent.storage
        assert self._held(storage) == dep.agent.forwarded_count > 0
        assert storage.ooo_dropped == 0
        assert not list(directory.glob("*.tmp"))
        assert self._gauge(dep, "storage_maintenance_errors") == (
            storage.maintenance_errors
        ) == storage.tier_stats()["maintenance_errors"]

    def test_a_full_disk_leaves_the_memory_tier_for_the_next_sweep(
        self, tmp_path, monkeypatch
    ):
        import errno
        import os

        dep = self._deployment(tmp_path)
        storage = dep.agent.storage
        dep.run(12)
        flushes, points = storage.flush_count, storage.store.total_points()
        assert flushes >= 1

        def full(fd):
            raise OSError(errno.ENOSPC, "No space left on device")

        with monkeypatch.context() as patch:
            patch.setattr(os, "fsync", full)
            dep.run(25)  # sweeps at 15, 20, 25, 30, 35: each flush fails
        assert storage.maintenance_errors == 5
        assert storage.flush_count == flushes
        assert storage.store.total_points() == points
        assert [p.suffix for p in tmp_path.iterdir()] == [".seg"] * flushes
        self._intact(dep, tmp_path)
        # The disk has room again: the next sweep seals what waited.
        waiting = storage.tier_stats()["memory_readings"]
        dep.run(5)
        assert storage.flush_count == flushes + 1
        assert storage.maintenance_errors == 5
        assert storage.store.total_points() >= points + waiting
        assert storage.tier_stats()["memory_readings"] < waiting / 4
        self._intact(dep, tmp_path)

    def test_a_bad_block_keeps_its_segment_until_it_reads_clean(self, tmp_path):
        dep = self._deployment(tmp_path, after_s=10)
        storage = dep.agent.storage
        dep.run(3)
        (bad,) = storage.store.segments  # sealed at 0 s
        assert bad.level == LEVEL_RAW
        good = bad.path.read_bytes()
        blob = bytearray(good)
        blob[bad.data_offset + bad.points * 8 + 3] ^= 0x01  # in ``val``
        bad.path.write_bytes(bytes(blob))
        bad.release()
        dep.run(27)  # it is due for compaction at 15, 20, 25 and 30
        assert storage.maintenance_errors == 4
        assert storage.store.segments[0] is bad and bad.path.exists()
        assert {s.level for s in storage.store.segments[1:]} == {
            LEVEL_RAW, LEVEL_10S
        }
        self._intact(dep, tmp_path)
        # Rewritten clean: the next sweep compacts it, and flushes.
        bad.path.write_bytes(good)
        flushes = storage.flush_count
        dep.run(5)
        assert storage.store.segments[0].level == LEVEL_10S
        assert storage.flush_count == flushes + 1
        assert storage.maintenance_errors == 4
        self._intact(dep, tmp_path)

    def test_a_segment_retention_cannot_delete_stays_for_the_next_sweep(
        self, tmp_path, monkeypatch
    ):
        import errno
        import pathlib

        dep = self._deployment(tmp_path, retention={"raw_s": 10})
        storage = dep.agent.storage
        dep.run(12)  # raw segments of 0 s, 1-4 s and 5-9 s
        bad = storage.store.segments[0]
        assert bad.level == LEVEL_RAW and bad.max_ts == 0
        unlink = pathlib.Path.unlink

        def denied(path, missing_ok=False):
            if path == bad.path:
                raise PermissionError(errno.EACCES, "Permission denied", str(path))
            return unlink(path, missing_ok=missing_ok)

        forwarded = dep.agent.forwarded_count
        with monkeypatch.context() as patch:
            patch.setattr(pathlib.Path, "unlink", denied)
            dep.run(5)  # the sweep at 15 s: the first two have expired
        assert storage.maintenance_errors == 1
        assert self._gauge(dep, "storage_maintenance_errors") == 1
        assert storage.store.segments[0] is bad and bad.path.exists()
        assert storage.segments_expired == 1
        assert dep.agent.forwarded_count > forwarded
        # Deletable again: the sweep at 20 s drops it (and the 5-9 s one).
        dep.run(5)
        assert bad not in storage.store.segments and not bad.path.exists()
        assert storage.segments_expired == 3
        assert storage.maintenance_errors == 1
        assert all(seg.max_ts >= 10 * NS_PER_SEC for seg in storage.store.segments)

    def test_a_failed_retention_drop_counts_in_the_sweep_errors(
        self, tmp_path, monkeypatch
    ):
        tiered = TieredStorageBackend(
            tmp_path, flush_mb=64, retention_raw_ns=10 * NS_PER_SEC
        )
        _fill(tiered, seconds=5)
        tiered.flush(5 * NS_PER_SEC)
        (seg,) = tiered.store.segments

        def denied(segment):
            raise PermissionError("Permission denied")

        monkeypatch.setattr(tiered.store, "remove", denied)
        stats = tiered.maintain(60 * NS_PER_SEC)
        assert stats["dropped"] == 0 and stats["errors"] == 1
        assert tiered.store.segments == [seg]
        monkeypatch.undo()
        stats = tiered.maintain(60 * NS_PER_SEC)
        assert stats["dropped"] == 1 and stats["errors"] == 0
