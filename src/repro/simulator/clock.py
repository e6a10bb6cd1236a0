"""Simulation clock and periodic task scheduling.

Production DCDB components run free-threaded sampling loops; for a
reproducible reproduction every periodic activity (monitoring plugin
sampling, online operator computation, collect-agent drains) is instead
registered as a :class:`PeriodicTask` on a :class:`TaskScheduler` driven
by a shared :class:`SimClock`.  ``run_until`` fires due tasks in strict
timestamp order (ties broken by registration order), which makes an
entire multi-component experiment deterministic.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional

from repro.common.timeutil import NS_PER_SEC

#: A periodic callback receives the nominal fire time in nanoseconds.
TaskFn = Callable[[int], None]


class SimClock:
    """A monotonically advancing nanosecond clock."""

    def __init__(self, start_ns: int = 0) -> None:
        self._now = int(start_ns)

    @property
    def now(self) -> int:
        """Current simulation time in nanoseconds."""
        return self._now

    def advance(self, delta_ns: int) -> int:
        """Move the clock forward; negative deltas are rejected."""
        if delta_ns < 0:
            raise ValueError(f"clock cannot move backwards: {delta_ns}")
        self._now += int(delta_ns)
        return self._now

    def advance_to(self, ts_ns: int) -> int:
        """Move the clock to an absolute time, never backwards."""
        if ts_ns < self._now:
            raise ValueError(
                f"clock cannot move backwards: {ts_ns} < {self._now}"
            )
        self._now = int(ts_ns)
        return self._now

    def seconds(self) -> float:
        """Current time in float seconds."""
        return self._now / NS_PER_SEC


class PeriodicTask:
    """A recurring callback with a fixed interval and optional phase.

    Attributes:
        interval_ns: period between invocations.
        next_due: nanosecond time of the next invocation.
        enabled: disabled tasks stay scheduled but are skipped; this is
            how stopped operators behave in the manager.
        once: one-shot tasks fire a single time and then retire
            (used e.g. for delayed network deliveries).
    """

    __slots__ = (
        "name",
        "fn",
        "interval_ns",
        "next_due",
        "enabled",
        "fire_count",
        "once",
        "done",
    )

    def __init__(
        self,
        name: str,
        fn: TaskFn,
        interval_ns: int,
        first_due: int = 0,
        once: bool = False,
    ) -> None:
        if interval_ns <= 0:
            raise ValueError(f"task interval must be positive: {interval_ns}")
        self.name = name
        self.fn = fn
        self.interval_ns = int(interval_ns)
        self.next_due = int(first_due)
        self.enabled = True
        self.fire_count = 0
        self.once = once
        self.done = False

    def fire(self, ts: int) -> None:
        """Invoke the callback and schedule the next occurrence — also
        when the callback raises: the exception propagates, and the task
        stays on its period."""
        try:
            if self.enabled:
                self.fn(ts)
                self.fire_count += 1
        finally:
            # A one-shot retires at its due time: fired, raised or
            # disabled.
            self.done = self.once
            self.next_due += self.interval_ns


class TaskScheduler:
    """Priority-queue scheduler for periodic tasks on a shared clock."""

    def __init__(self, clock: Optional[SimClock] = None) -> None:
        self.clock = clock if clock is not None else SimClock()
        self._heap: List = []
        self._counter = itertools.count()
        self._tasks: List[PeriodicTask] = []

    def add(self, task: PeriodicTask) -> PeriodicTask:
        """Register a task; its first firing is at ``task.next_due``."""
        if task.next_due < self.clock.now:
            task.next_due = self.clock.now
        heapq.heappush(self._heap, (task.next_due, next(self._counter), task))
        if not task.once:
            # One-shot tasks are fire-and-forget; keeping them out of the
            # registry keeps high-rate uses (per-message network delays)
            # free of O(n) bookkeeping.
            self._tasks.append(task)
        return task

    def add_callback(
        self, name: str, fn: TaskFn, interval_ns: int, first_due: Optional[int] = None
    ) -> PeriodicTask:
        """Create and register a task in one step."""
        due = self.clock.now if first_due is None else first_due
        return self.add(PeriodicTask(name, fn, interval_ns, due))

    def add_once(self, name: str, fn: TaskFn, due_ns: int) -> PeriodicTask:
        """Register a one-shot callback firing at ``due_ns`` (clamped to
        now when already past)."""
        return self.add(
            PeriodicTask(name, fn, interval_ns=1, first_due=due_ns, once=True)
        )

    def tasks(self) -> List[PeriodicTask]:
        """All registered tasks (including disabled ones)."""
        return list(self._tasks)

    def run_until(self, end_ns: int) -> int:
        """Fire all tasks due up to and including ``end_ns``.

        Advances the clock task by task (so callbacks observe the nominal
        fire time as "now") and leaves it at ``end_ns``.  Returns the
        number of task firings.
        """
        fired = 0
        while self._heap and self._heap[0][0] <= end_ns:
            due, _, task = heapq.heappop(self._heap)
            self.clock.advance_to(max(due, self.clock.now))
            try:
                task.fire(due)
            finally:
                # Re-queued even when the callback raised: one failing
                # firing must not retire a periodic task.
                if not task.done:
                    heapq.heappush(
                        self._heap, (task.next_due, next(self._counter), task)
                    )
            fired += 1
        self.clock.advance_to(max(end_ns, self.clock.now))
        return fired

    def run_for(self, duration_ns: int) -> int:
        """Run for a duration from the current clock time."""
        return self.run_until(self.clock.now + duration_ns)
