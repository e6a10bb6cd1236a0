"""Tests for the simulation clock and task scheduler."""

import heapq
import inspect
import itertools
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.timeutil import NS_PER_SEC
from repro.simulator import clock as clock_module
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

    def test_a_retired_task_fires_no_more_and_is_let_go(self):
        s = TaskScheduler()
        calls = []
        keep = s.add_callback("keep", lambda ts: None, NS_PER_SEC)
        gone = s.add_callback("gone", calls.append, NS_PER_SEC)
        s.run_until(NS_PER_SEC)
        s.retire(gone)
        assert s.tasks() == [keep]
        assert s.run_until(3 * NS_PER_SEC) == 2  # keep, at 2 s and 3 s
        assert calls == [0, NS_PER_SEC]

    def test_a_task_may_retire_itself(self):
        s = TaskScheduler()
        calls = []

        def once_then_retire(ts):
            calls.append(ts)
            s.retire(task)

        task = s.add_callback("t", once_then_retire, NS_PER_SEC)
        s.run_until(3 * NS_PER_SEC)
        assert calls == [0] and s.tasks() == []


# ----------------------------------------------------------------------
# The bucket scheduler fires what the heap scheduler it replaced fired
# ----------------------------------------------------------------------


class FrozenTask:
    """``PeriodicTask`` as the heap scheduler knew it."""

    def __init__(self, name, fn, interval_ns, first_due=0, once=False):
        self.name, self.fn = name, fn
        self.interval_ns, self.next_due = int(interval_ns), int(first_due)
        self.enabled, self.fire_count = True, 0
        self.once, self.done = once, False

    def fire(self, ts):
        try:
            if self.enabled:
                self.fn(ts)
                self.fire_count += 1
        finally:
            self.done = self.once
            self.next_due += self.interval_ns


class FrozenScheduler:
    """The heap scheduler: one entry per queued task, ordered by (due,
    a counter taken at every (re)queueing)."""

    def __init__(self):
        self.clock = SimClock()
        self._heap = []
        self._counter = itertools.count()

    def add(self, task):
        if task.next_due < self.clock.now:
            task.next_due = self.clock.now
        heapq.heappush(self._heap, (task.next_due, next(self._counter), task))
        return task

    def add_callback(self, name, fn, interval_ns, first_due=None):
        due = self.clock.now if first_due is None else first_due
        return self.add(FrozenTask(name, fn, interval_ns, due))

    def add_once(self, name, fn, due_ns):
        return self.add(FrozenTask(name, fn, 1, due_ns, once=True))

    def run_until(self, end_ns):
        fired = 0
        while self._heap and self._heap[0][0] <= end_ns:
            due, _, task = heapq.heappop(self._heap)
            self.clock.advance_to(max(due, self.clock.now))
            try:
                task.fire(due)
            finally:
                if not task.done:
                    heapq.heappush(
                        self._heap, (task.next_due, next(self._counter), task)
                    )
            fired += 1
        self.clock.advance_to(max(end_ns, self.clock.now))
        return fired


class Boom(Exception):
    pass


#: A callback's action at one of its firings: add a one-shot ``d`` ticks
#: from now (0: at now), flip another task's ``enabled``, or raise.
_actions = st.lists(
    st.one_of(
        st.tuples(st.just("once"), st.integers(0, 3)),
        st.tuples(st.just("toggle"), st.integers(0, 7)),
        st.tuples(st.just("raise"), st.just(0)),
    ),
    max_size=2,
)
_programs = st.fixed_dictionaries({
    "start": st.integers(0, 5),
    "tasks": st.lists(
        st.tuples(st.integers(1, 4), st.integers(-3, 4)),  # interval, phase
        min_size=1, max_size=8,
    ),
    # (task, its k-th firing) -> what it does then
    "actions": st.dictionaries(
        st.tuples(st.integers(0, 7), st.integers(0, 6)), _actions, max_size=12,
    ),
    "runs": st.lists(st.integers(0, 6), min_size=1, max_size=6),
})


def run_program(scheduler, program):
    """Everything observable of ``program`` on ``scheduler``: each
    firing as (task, nominal time, clock), each ``run_until``'s count
    (or the raise), the clock after it, and the tasks' fire counts."""
    scheduler.run_until(program["start"])
    log, tasks, seen = [], [], {}

    def callback(i):
        def fire(ts):
            k = seen[i] = seen.get(i, -1) + 1
            log.append((i, ts, scheduler.clock.now))
            for action, arg in program["actions"].get((i, k), ()):
                if action == "once":
                    name = f"{i}.{k}"
                    scheduler.add_once(
                        name,
                        lambda t, n=name: log.append((n, t, scheduler.clock.now)),
                        scheduler.clock.now + arg,
                    )
                elif action == "toggle":
                    other = tasks[arg % len(tasks)]
                    other.enabled = not other.enabled
                else:
                    raise Boom
        return fire

    for i, (interval, phase) in enumerate(program["tasks"]):
        # A phase below zero is a first due time in the past.
        tasks.append(scheduler.add_callback(
            str(i), callback(i), interval, first_due=program["start"] + phase,
        ))
    runs = []
    for step in program["runs"]:
        end = scheduler.clock.now + step
        while True:  # a raise is resumed by the next run_until
            try:
                runs.append(scheduler.run_until(end))
                break
            except Boom:
                runs.append("boom")
        runs.append(scheduler.clock.now)
    return log, runs, [task.fire_count for task in tasks]


@settings(max_examples=300, deadline=None)
@given(program=_programs)
def test_buckets_fire_what_the_heap_fired(program):
    assert run_program(TaskScheduler(), program) == run_program(
        FrozenScheduler(), program
    )


def test_a_lifo_bucket_is_caught():
    source = inspect.getsource(clock_module)
    assert source.count("bucket.popleft()") == 1
    mutant = types.ModuleType("clock_mutant")
    exec(
        compile(source.replace("bucket.popleft()", "bucket.pop()"),
                clock_module.__file__, "exec"),
        mutant.__dict__,
    )

    @settings(max_examples=300, deadline=None, database=None)
    @given(program=_programs)
    def mutant_fires_what_the_heap_fired(program):
        assert run_program(mutant.TaskScheduler(), program) == run_program(
            FrozenScheduler(), program
        )

    with pytest.raises(AssertionError):
        mutant_fires_what_the_heap_fired()


def test_a_callback_may_run_the_scheduler_itself():
    """A nested ``run_until`` fires what is due in the same order, and
    the outer run carries on from where it left off."""

    def program(scheduler):
        log = []
        scheduler.add_callback("a", lambda ts: log.append(("a", ts)), 2)

        def nested(ts):
            log.append(("b", ts))
            if ts == 2:
                scheduler.run_until(5)

        scheduler.add_callback("b", nested, 2)
        scheduler.add_callback("c", lambda ts: log.append(("c", ts)), 2)
        runs = [scheduler.run_until(8), scheduler.clock.now]
        return log, runs

    assert program(TaskScheduler()) == program(FrozenScheduler())
