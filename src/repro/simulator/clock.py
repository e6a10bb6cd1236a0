"""Simulation clock and periodic task scheduling.

Production DCDB components run free-threaded sampling loops; for a
reproducible reproduction every periodic activity (monitoring plugin
sampling, online operator computation, collect-agent drains) is instead
registered as a :class:`PeriodicTask` on a :class:`TaskScheduler` driven
by a shared :class:`SimClock`.  ``run_until`` fires due tasks in strict
timestamp order (ties broken by registration order), which makes an
entire multi-component experiment deterministic.

The order contract: tasks fire by (due instant, time of (re)queueing).
A task is queued when added and again after each firing, so among the
tasks due at one instant the one queued first fires first; a task
added from a callback at the current instant fires after every task
already due then.  The scheduler keeps one FIFO bucket per distinct
due instant under a heap of those instants: a firing costs a bucket
append, and a heap push only for an instant nobody is due at yet
(a cluster of tasks sharing a period and phase shares every bucket).
Fusion relies on this order: a fused group runs at its leader's slot
(see ``core.pipeline``).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Deque, Dict, List, Optional

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
        done: retired — a one-shot that fired, or a task taken off its
            scheduler (:meth:`TaskScheduler.retire`); never queued again.
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
            if self.once:
                self.done = True
            self.next_due += self.interval_ns


class TaskScheduler:
    """Scheduler for periodic tasks on a shared clock: one FIFO bucket of
    tasks per due instant, a heap of the instants (see the module
    docstring for the order this keeps)."""

    def __init__(self, clock: Optional[SimClock] = None) -> None:
        self.clock = clock if clock is not None else SimClock()
        self._instants: List[int] = []  # heap, each due instant once
        self._buckets: Dict[int, Deque[PeriodicTask]] = {}
        self._tasks: List[PeriodicTask] = []

    def _queue(self, task: PeriodicTask) -> None:
        due = task.next_due
        bucket = self._buckets.get(due)
        if bucket is None:
            bucket = self._buckets[due] = deque()
            heapq.heappush(self._instants, due)
        bucket.append(task)

    def add(self, task: PeriodicTask) -> PeriodicTask:
        """Register a task; its first firing is at ``task.next_due``."""
        if task.next_due < self.clock.now:
            task.next_due = self.clock.now
        self._queue(task)
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

    def retire(self, task: PeriodicTask) -> None:
        """Take ``task`` off the schedule for good: it fires no more and
        the scheduler lets go of it (and so of what its callback holds).
        Disabling is for a task that may run again; this is for one that
        will not."""
        task.done = True
        if task in self._tasks:
            self._tasks.remove(task)
        bucket = self._buckets.get(task.next_due)
        if bucket is not None and task in bucket:
            # (Not there while it fires: a callback may retire its task.)
            bucket.remove(task)

    def tasks(self) -> List[PeriodicTask]:
        """All registered tasks (including disabled ones)."""
        return list(self._tasks)

    def run_until(self, end_ns: int) -> int:
        """Fire all tasks due up to and including ``end_ns``.

        Advances the clock instant by instant (so callbacks observe the
        nominal fire time as "now") and leaves it at ``end_ns``.  Returns
        the number of task firings.
        """
        fired = 0
        instants, buckets, clock = self._instants, self._buckets, self.clock
        while instants and instants[0] <= end_ns:
            due = instants[0]
            bucket = buckets[due]
            if due > clock.now:
                clock.advance_to(due)
            while bucket:
                task = bucket.popleft()
                try:
                    task.fire(due)
                finally:
                    # Re-queued even when the callback raised: one failing
                    # firing must not retire a periodic task.  (What a
                    # raise leaves of this bucket fires on the next run.)
                    if not task.done:
                        self._queue(task)
                fired += 1
            if buckets.get(due) is bucket:  # (a nested run may have)
                # Tasks only ever queue at or after now, so ``due`` is
                # still the earliest instant.
                heapq.heappop(instants)
                del buckets[due]
        clock.advance_to(max(end_ns, clock.now))
        return fired

    def run_for(self, duration_ns: int) -> int:
        """Run for a duration from the current clock time."""
        return self.run_until(self.clock.now + duration_ns)
