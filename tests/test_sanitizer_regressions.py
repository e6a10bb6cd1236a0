"""Regression tests for the lock-audit fixes in runtime.py / network.py.

The sanitizer surfaced two violations in the seed code (documented in
docs/STATIC_ANALYSIS.md): the wall-clock driver drained arbitrarily
large backlogs in one monolithic locked ``run_until`` (rule R003), and
holding a shared-link lock across ``broker.publish`` ran unbounded
subscriber callbacks under the lock (rule R002).  These tests pin the
fixed behaviour and prove the sanitizer still catches the anti-pattern.
"""

import threading

from repro.dcdb.mqtt import Broker
from repro.dcdb.network import NetworkConditions
from repro.runtime import WallClockDriver
from repro.sanitizer import hooks, make_sanitizer
from repro.simulator.clock import SimClock, TaskScheduler
from repro.common.timeutil import NS_PER_SEC
from tests.hosts import one


def codes(diags):
    return [d.code for d in diags]


class FakeClock:
    def __init__(self):
        self.now = 0


class FakeScheduler:
    """Records every run_until target so slice sizes can be asserted."""

    def __init__(self):
        self.clock = FakeClock()
        self.calls = []

    def run_until(self, target):
        self.calls.append(target - self.clock.now)
        self.clock.now = target


class TestBoundedAdvance:
    def test_backlog_drains_in_bounded_slices(self):
        sched = FakeScheduler()
        driver = WallClockDriver(sched, speedup=1.0, tick_s=0.05)
        max_slice = int(driver.speedup * driver.tick_s * NS_PER_SEC)
        # A 2-simulated-second backlog (a 40-tick stall at this pace).
        driver._advance(2 * NS_PER_SEC)
        assert sched.clock.now == 2 * NS_PER_SEC
        assert len(sched.calls) > 1
        assert max(sched.calls) <= max_slice

    def test_no_work_when_caught_up(self):
        sched = FakeScheduler()
        sched.clock.now = NS_PER_SEC
        driver = WallClockDriver(sched, speedup=1.0, tick_s=0.05)
        driver._advance(NS_PER_SEC)
        assert sched.calls == []

    def test_sanitized_driver_run_has_no_long_holds(self):
        san = make_sanitizer(long_hold_ms=250.0)
        with san.activate():
            clock = SimClock()
            sched = TaskScheduler(clock)
            driver = WallClockDriver(sched, speedup=50.0, tick_s=0.01)
            driver.run_for(0.3)
        diags = [d for d in san.finish() if d.code == "R003"]
        assert diags == []


class TestNetworkPublishLocking:
    def test_concurrent_publishers_keep_counters_consistent(self):
        broker = Broker()
        sched = TaskScheduler(SimClock())
        net = NetworkConditions(broker, sched)
        n_threads, per_thread = 4, 200

        def blast(k):
            for i in range(per_thread):
                net.publish_batch(one(f"/n{k}/s", float(i), i))

        threads = [
            threading.Thread(target=blast, args=(k,))
            for k in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert net.sent == n_threads * per_thread
        assert net.delivered == n_threads * per_thread
        assert net.in_flight == 0

    def test_publish_does_not_hold_lock_across_broker(self):
        """The fixed path publishes outside the link lock: a subscriber
        that re-enters the link must not find the lock held."""
        san = make_sanitizer(track_wall_clock=False)
        with san.activate():
            broker = Broker()
            sched = TaskScheduler(SimClock())
            net = NetworkConditions(broker, sched)
            seen = []
            broker.subscribe_batch(
                "#", lambda batch: seen.append(san.locks.held_locks())
            )
            net.publish_batch(one("/n0/power", 1.0, 100))
        assert seen == [()]
        assert codes(san.finish()) == []

    def test_sanitizer_catches_publish_under_lock_antipattern(self):
        """Re-introducing the audited bug (holding the link lock across
        the broker fan-out) must trip rule R002."""
        san = make_sanitizer(track_wall_clock=False)
        with san.activate():
            broker = Broker()
            sched = TaskScheduler(SimClock())
            net = NetworkConditions(broker, sched)
            with net._lock:  # the pre-audit locking scope
                broker.publish_batch(one("/n0/power", 1.0, 100))
        diags = san.finish()
        assert codes(diags) == ["R002"]
        assert "NetworkConditions" in diags[0].message


class TestDriverStop:
    def test_stop_while_holding_lock_is_flagged(self):
        san = make_sanitizer(track_wall_clock=False)
        with san.activate():
            sched = TaskScheduler(SimClock())
            driver = WallClockDriver(sched, speedup=10.0, tick_s=0.01)
            driver.start()
            guard = hooks.make_lock("caller-guard")
            with guard:  # joining a thread while holding a lock
                driver.stop()
        diags = san.finish()
        assert "R002" in codes(diags)
        r002 = next(d for d in diags if d.code == "R002")
        assert "thread join" in r002.message

    def test_clean_stop_without_lock(self):
        san = make_sanitizer(track_wall_clock=False)
        with san.activate():
            sched = TaskScheduler(SimClock())
            driver = WallClockDriver(sched, speedup=10.0, tick_s=0.01)
            driver.start()
            driver.stop()
        assert [d for d in san.finish() if d.code == "R002"] == []
