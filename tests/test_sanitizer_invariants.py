"""Tests for invariant sanitizers: stale drops, views, the sleep shim."""

import time

from repro.dcdb.cache import SensorCache
from repro.sanitizer import make_sanitizer
from repro.sanitizer.invariants import time_functions_patched
from tests.hosts import store


def codes(diags):
    return [d.code for d in diags]


class FakeHost:
    def __init__(self, name, caches):
        self.name = name
        self.caches = caches


class FakeDeployment:
    def __init__(self, hosts):
        self._hosts = hosts

    def all_hosts(self):
        return self._hosts


class TestCacheOrder:
    def test_monotonic_cache_is_clean(self):
        cache = SensorCache(8)
        for i in range(5):
            store(cache, i * 1000, float(i))
        san = make_sanitizer(track_wall_clock=False)
        san.check_deployment(
            FakeDeployment([FakeHost("node0", {"power": cache})])
        )
        assert san.finish() == []

    def test_r010_stale_drops_surfaced(self):
        cache = SensorCache(8)
        store(cache, 1000, 1.0)
        store(cache, 500, 2.0)  # out of order: dropped by the guard
        assert cache.stale_drops == 1
        san = make_sanitizer(track_wall_clock=False)
        san.check_deployment(
            FakeDeployment([FakeHost("node0", {"power": cache})])
        )
        diags = san.finish()
        assert codes(diags) == ["R010"]
        assert diags[0].severity == "warning"
        assert "1 out-of-order" in diags[0].message


class TestViewImmutability:
    def make_view(self, cache=None):
        cache = cache or SensorCache(16)
        for i in range(8):
            store(cache, i * 1000, float(i))
        return cache.view_absolute(0, 10_000)

    def test_untouched_view_is_clean(self):
        san = make_sanitizer(track_wall_clock=False)
        with san.activate():
            san.on_query_view("t", self.make_view())
        assert san.finish() == []

    def test_r007_value_mutation(self):
        san = make_sanitizer(track_wall_clock=False)
        with san.activate():
            view = self.make_view()
            san.on_query_view("t", view)
            view.values()[0] += 7.0
        diags = san.finish()
        assert codes(diags) == ["R007"]
        assert "values changed" in diags[0].message
        assert diags[0].path == "views.t"

    def test_concurrent_writer_cannot_touch_snapshot(self):
        # Views are point-in-time snapshots (the cache-aliasing fix);
        # wrapping the ring buffer after hand-out must leave them intact,
        # and the sanitizer is the regression guard for that property.
        cache = SensorCache(8)
        san = make_sanitizer(track_wall_clock=False)
        with san.activate():
            view = self.make_view(cache)
            san.on_query_view("t", view)
            for i in range(8, 20):
                store(cache, i * 1000, float(i))
        assert san.finish() == []


class TestWallClockDiscipline:
    """Wall-clock reads are lint rule L002's (``TestWallClock`` in
    test_analysis_astlint.py); the sanitizer only wraps ``time.sleep``."""

    def test_reads_outside_disciplined_code_not_flagged(self):
        san = make_sanitizer()
        with san.activate():
            time.time()  # this test file is not clock-disciplined
        diags = san.finish()
        assert codes(diags) == []

    def test_patch_installed_only_while_active(self):
        assert not time_functions_patched()
        san = make_sanitizer()
        with san.activate():
            assert time_functions_patched()
        assert not time_functions_patched()

    def test_no_patch_when_tracking_disabled(self):
        san = make_sanitizer(track_wall_clock=False)
        with san.activate():
            assert not time_functions_patched()
