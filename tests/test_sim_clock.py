"""Tests for the simulation clock and task scheduler."""

import pytest

from repro.common.timeutil import NS_PER_SEC
from repro.simulator.clock import PeriodicTask, SimClock, TaskScheduler


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0

    def test_advance(self):
        c = SimClock()
        assert c.advance(10) == 10
        assert c.now == 10

    def test_advance_rejects_negative(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1)

    def test_advance_to(self):
        c = SimClock(5)
        c.advance_to(100)
        assert c.now == 100
        with pytest.raises(ValueError):
            c.advance_to(50)

    def test_seconds(self):
        c = SimClock(int(2.5 * NS_PER_SEC))
        assert c.seconds() == pytest.approx(2.5)


class TestPeriodicTask:
    def test_rejects_non_positive_interval(self):
        with pytest.raises(ValueError):
            PeriodicTask("t", lambda ts: None, 0)

    def test_fire_advances_due_even_when_disabled(self):
        fired = []
        t = PeriodicTask("t", fired.append, 10, first_due=0)
        t.enabled = False
        t.fire(0)
        assert fired == []
        assert t.next_due == 10


class TestTaskScheduler:
    def test_fires_in_time_order(self):
        s = TaskScheduler()
        order = []
        s.add_callback("a", lambda ts: order.append(("a", ts)), 3 * NS_PER_SEC)
        s.add_callback("b", lambda ts: order.append(("b", ts)), 2 * NS_PER_SEC)
        s.run_until(6 * NS_PER_SEC)
        times = [ts for _, ts in order]
        assert times == sorted(times)

    def test_tie_break_is_registration_order(self):
        s = TaskScheduler()
        order = []
        s.add_callback("first", lambda ts: order.append("first"), NS_PER_SEC)
        s.add_callback("second", lambda ts: order.append("second"), NS_PER_SEC)
        s.run_until(NS_PER_SEC)
        # Both fire at t=0 and t=1s; registration order preserved each time.
        assert order == ["first", "second", "first", "second"]

    def test_clock_shows_nominal_fire_time(self):
        s = TaskScheduler()
        seen = []
        s.add_callback("t", lambda ts: seen.append(s.clock.now == ts), NS_PER_SEC)
        s.run_until(3 * NS_PER_SEC)
        assert all(seen)

    def test_run_until_advances_clock_to_end(self):
        s = TaskScheduler()
        s.run_until(10 * NS_PER_SEC)
        assert s.clock.now == 10 * NS_PER_SEC

    def test_fire_counts(self):
        s = TaskScheduler()
        task = s.add_callback("t", lambda ts: None, NS_PER_SEC)
        fired = s.run_until(5 * NS_PER_SEC)
        assert task.fire_count == 6  # t = 0..5 inclusive
        assert fired == 6

    def test_disabled_task_skipped_but_rescheduled(self):
        s = TaskScheduler()
        calls = []
        task = s.add_callback("t", calls.append, NS_PER_SEC)
        task.enabled = False
        s.run_until(3 * NS_PER_SEC)
        assert calls == []
        task.enabled = True
        s.run_until(5 * NS_PER_SEC)
        assert len(calls) == 2  # t=4s, t=5s

    def test_first_due_in_the_past_clamped(self):
        s = TaskScheduler()
        s.run_until(5 * NS_PER_SEC)
        calls = []
        s.add(PeriodicTask("t", calls.append, NS_PER_SEC, first_due=0))
        s.run_until(6 * NS_PER_SEC)
        assert calls  # ran despite past-dated first_due

    def test_run_for(self):
        s = TaskScheduler()
        s.add_callback("t", lambda ts: None, NS_PER_SEC)
        s.run_for(2 * NS_PER_SEC)
        assert s.clock.now == 2 * NS_PER_SEC

    def test_delayed_first_due(self):
        s = TaskScheduler()
        calls = []
        s.add_callback("t", calls.append, NS_PER_SEC, first_due=3 * NS_PER_SEC)
        s.run_until(5 * NS_PER_SEC)
        assert calls == [3 * NS_PER_SEC, 4 * NS_PER_SEC, 5 * NS_PER_SEC]

    def test_a_task_that_raised_fires_again_at_its_next_due_time(self):
        s = TaskScheduler()
        calls = []

        def flaky(ts):
            calls.append(ts)
            if len(calls) == 1:
                raise OSError("disk full")

        task = s.add_callback("t", flaky, NS_PER_SEC)
        with pytest.raises(OSError, match="disk full"):
            s.run_until(3 * NS_PER_SEC)
        assert task.next_due == NS_PER_SEC and task.fire_count == 0
        s.run_until(3 * NS_PER_SEC)
        assert calls == [0, NS_PER_SEC, 2 * NS_PER_SEC, 3 * NS_PER_SEC]
        assert task.fire_count == 3

    def test_a_one_shot_that_raised_retires(self):
        s = TaskScheduler()
        calls = []

        def once(ts):
            calls.append(ts)
            raise RuntimeError("once")

        s.add_once("t", once, NS_PER_SEC)
        with pytest.raises(RuntimeError):
            s.run_until(3 * NS_PER_SEC)
        s.run_until(5 * NS_PER_SEC)
        assert calls == [NS_PER_SEC]
