"""Failing-before regression tests for the bugs S001-S010 flagged.

The static concurrency pass (``check --concurrency``) surfaced three
real defects in the shipped sources; each test below reproduces the
pre-fix failure deterministically (events/barriers force the racy
interleaving instead of hoping a scheduler hits it):

- ``MetricRegistry._get_or_create`` was check-then-act (S004): two
  threads registering the same series could each observe "absent" and
  create distinct metric objects, silently losing one side's counts.
- ``OperatorBase.last_errors`` was rebound outside any lock (S001):
  concurrent notes from pool workers both read the old list and the
  second assignment erased the first entry.
- ``Pusher._replay_spill`` set ``_replaying`` without checking it
  first: a second replay entering mid-drain would interleave its
  popleft/publish pairs with the owner's and break in-order replay.
"""

import threading

from repro.core.operator import OperatorBase
from repro.dcdb import Broker, Pusher
from repro.dcdb.mqtt import ReadingBatch
from repro.simulator.clock import TaskScheduler
from repro.telemetry import MetricRegistry


class TestRegistryGetOrCreateAtomic:
    """S004 fix: get-or-insert happens under the registry lock."""

    class RacyDict(dict):
        """A dict whose miss path parks at a barrier, so two racing
        registrations both observe the pre-insert state before either
        can act on it (the pre-fix interleaving)."""

        def __init__(self, barrier):
            super().__init__()
            self._barrier = barrier

        def get(self, key, default=None):
            value = super().get(key, default)
            if value is None:
                try:
                    self._barrier.wait(timeout=0.3)
                except threading.BrokenBarrierError:
                    pass
            return value

    def test_concurrent_counter_registration_returns_one_object(self):
        reg = MetricRegistry()
        barrier = threading.Barrier(2)
        reg._metrics = self.RacyDict(barrier)

        got = []

        def register():
            got.append(reg.counter("races_total"))

        threads = [threading.Thread(target=register) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        assert len(got) == 2
        # Pre-fix: both threads pass the None check together, each
        # inserts its own Counter and one side's increments are lost.
        assert got[0] is got[1], "registration raced: two distinct series"
        got[0].inc()
        assert reg.counter("races_total").value == 1


class TestLastErrorsLockedRebind:
    """S001 fix: the last_errors rebind happens under _breaker_lock."""

    class GatedList(list):
        """A list whose ``+`` holds the read-modify-write window open
        so both racers compute their snapshot from the same old list."""

        def __init__(self, items, barrier):
            super().__init__(items)
            self._barrier = barrier

        def __add__(self, other):
            snapshot = list(self) + list(other)
            try:
                self._barrier.wait(timeout=0.3)
            except threading.BrokenBarrierError:
                pass
            return snapshot

    def test_concurrent_notes_keep_both_entries(self):
        barrier = threading.Barrier(2)
        op = object.__new__(OperatorBase)
        op._breaker_lock = threading.Lock()
        op._m_errors = MetricRegistry().counter("operator_errors_total")
        op.last_errors = self.GatedList([], barrier)

        def note(label):
            op._note_error(label, ValueError("boom"))

        threads = [
            threading.Thread(target=note, args=(name,))
            for name in ("cpu0", "cpu1")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        # Pre-fix: both workers read the empty list, both append their
        # own entry to it, and whichever assignment lands second wins.
        assert len(op.last_errors) == 2, f"lost update: {op.last_errors}"
        assert {e.split(":")[0] for e in op.last_errors} == {"cpu0", "cpu1"}
        assert op._m_errors.value == 2


class TestReplaySpillSingleOwner:
    """Re-entrance fix: one replay owns the queue at a time."""

    class ReentrantBroker:
        """Accepts publishes, but the first one triggers a nested
        ``flush_spill()`` — the shape of a management-thread flush
        racing a scheduled retry, collapsed onto one thread so the
        interleaving is deterministic."""

        def __init__(self):
            self.order = []
            self.pusher = None
            self._fired = False

        def publish_batch(self, batch):
            if not self._fired:
                self._fired = True
                self.pusher.flush_spill()
            self.order += batch.topics
            return len(batch)

    def test_nested_flush_does_not_reorder_replay(self):
        broker = self.ReentrantBroker()
        pusher = Pusher("/n0", broker, TaskScheduler())
        broker.pusher = pusher
        for i in range(3):
            pusher._spill_batch(ReadingBatch((f"/m{i}",), i + 1, (float(i),)))
        assert pusher.spill_depth == 3

        pusher.flush_spill()

        # Pre-fix: the nested flush drains /m1 and /m2 while the outer
        # replay is still mid-publish of /m0 -> delivery order
        # [/m1, /m2, /m0].  The guard makes the late-comer yield.
        assert broker.order == ["/m0", "/m1", "/m2"]
        assert pusher.spill_depth == 0
        assert pusher.telemetry.get("spill_replayed_total").value == 3

    def test_replay_still_reschedules_after_refusal(self):
        """The early-return guard must not eat the retry path."""
        from repro.dcdb.network import LinkDownError

        class DownBroker(Broker):
            def publish_batch(self, batch):
                raise LinkDownError("down")

        scheduler = TaskScheduler()
        pusher = Pusher("/n0", DownBroker(), scheduler)
        pusher._spill_batch(ReadingBatch(("/m0",), 1, (0.0,)))
        pusher.flush_spill()
        assert pusher.spill_depth == 1  # message went back on the queue
        assert pusher._retry_pending is True
        assert pusher._replaying is False
