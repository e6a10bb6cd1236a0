"""Tests for invariant sanitizers: caches, views, tree, wall clock."""

import time

from repro.dcdb.cache import SensorCache
from repro.sanitizer import make_sanitizer
from repro.sanitizer.invariants import scan_cache, time_functions_patched


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
            cache.store(i * 1000, float(i))
        order, stale = scan_cache("h", "t", cache)
        assert order is None and stale is None

    def test_r006_corrupted_timestamps(self):
        cache = SensorCache(8)
        for i in range(5):
            cache.store(i * 1000, float(i))
        cache._ts[2] = 0  # corrupt the live segment behind the API's back
        san = make_sanitizer(track_wall_clock=False)
        san.check_deployment(
            FakeDeployment([FakeHost("node0", {"power": cache})])
        )
        diags = san.finish()
        assert codes(diags) == ["R006"]
        assert diags[0].path == "hosts.node0.caches.power"

    def test_r010_stale_drops_surfaced(self):
        cache = SensorCache(8)
        cache.store(1000, 1.0)
        cache.store(500, 2.0)  # out of order: dropped by the guard
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
            cache.store(i * 1000, float(i))
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
                cache.store(i * 1000, float(i))
        assert san.finish() == []


class TestWallClockDiscipline:
    def _disciplined_reader(self):
        """A clock reader whose frame claims to live under simulator/."""
        code = compile(
            "import time\n"
            "def read_clock():\n"
            "    return time.time()\n",
            "src/repro/simulator/fake_clock_user.py",
            "exec",
        )
        ns = {}
        exec(code, ns)
        return ns["read_clock"]

    def test_r009_wall_clock_read_in_simulator_code(self):
        reader = self._disciplined_reader()
        san = make_sanitizer()
        with san.activate():
            reader()
        diags = san.finish()
        assert codes(diags) == ["R009"]
        assert "time.time" in diags[0].message
        assert diags[0].file.endswith("fake_clock_user.py")

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
