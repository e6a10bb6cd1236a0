"""Span tracing from outside the program (``--trace`` runs only).

:func:`install` replaces the layers' public functions with timing
wrappers at class level — nothing under ``src/`` changes, and an
untraced run never calls it.  A span is ``(id, name, start,
end, parent id, tick id)``; the tick is the request identifier every
span of one simulated second shares.

Two span weights keep memory bounded:

- **kept** spans (tasks, passes, flushes, queries) are stored one by one
  and written to ``--trace-out``;
- **folded** spans (per-reading hops: a cache store, a publish, a queue
  hand-off, a storage append) only add ``(calls, total ns)`` to the kept
  span above them and to the per-name totals — 6 000 readings x 6 hops x
  270 ticks would otherwise be 10 M tuples.

Self time of a span is its duration minus its children minus the
wrappers' own cost.  That cost is calibrated on a no-op at start-up and
split in two: the part inside the span's measured interval is taken
from the span, the part outside it from the parent, per child call.  A
no-op in a tight loop undersells what a wrapper costs between cache
misses in a real tick, so when the caller knows the untraced tick time
of the same (deterministic) ticks, both constants are scaled by one
factor ``scale`` such that per tick::

    sum(self time) + scheduler loop == untraced wall

``scale`` is reported (``trace.wrapper_cost_scale``); 1.0 would mean
the no-op calibration was exact.

Span names are ``<module>.<function>`` with the module as the layer;
ROADMAP's in-program trace IDs are to reuse them.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, List

#: Phases the driver switches between; stats are kept per phase so probe
#: calls (outside any tick) never mix into the per-tick layer numbers.
SETUP, TICK, PROBE = 0, 1, 2
_SLOTS = 4  # calls, total ns, raw self ns, children's outside cost ns

TASK_KINDS = ("task.sample", "task.drain", "task.operator", "task.fused",
              "task.maintain", "task.other")


def _classify_task(name: str) -> str:
    if name.endswith(":drain"):
        return "task.drain"
    if ":analytics:" in name:
        return "task.operator"  # promoted to task.fused by a fused pass
    if name.endswith((":storage-maintenance", ":ttl")):
        return "task.maintain"
    if name.endswith(":spill-retry"):
        return "task.other"
    return "task.sample"


# The wrappers share one "open span" record S instead of a stack: each
# saves the cells it overwrites and restores them (plus its own
# contribution to its parent) on the way out.
#   S[0] measured durations of the open span's children so far, ns
#   S[1] calibrated outside-cost of those children's wrappers, ns
#   S[2] id of the nearest open kept span (0 = none)
#   S[3] that span's fold dict {name: [calls, total ns]}, or None
#   S[4] name the open task span will be recorded under


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self) -> None:
        self.tick = -1
        #: Kept spans: (id, name, start_ns, end_ns, parent id, tick,
        #: fold, in_tick_phase).
        self.spans: List[tuple] = []
        self._durations = None
        #: name -> [calls, total, raw self, child cost] x (SETUP, TICK, PROBE).
        self.stats: Dict[str, List[int]] = {}
        self._phase = [SETUP * _SLOTS]
        self._open = [0, 0, 0, None, None]
        self._ids = [0]
        self._patched: List[tuple] = []
        self._kept_names: set = set()
        #: Calibrated wrapper cost in ns: weight -> (inside, outside).
        self.cost = {True: (0, 0), False: (0, 0)}
        self._calibrate()

    # ------------------------------------------------------------------
    # Driver interface
    # ------------------------------------------------------------------

    def phase(self, phase: int) -> None:
        self._phase[0] = phase * _SLOTS

    def stat(self, name: str, phase: int = TICK, scale: float = 1.0) -> tuple:
        """(calls, total_ns, self_ns) of ``name`` in ``phase``; self time
        has ``scale`` x the calibrated wrapper cost taken out."""
        row = self.stats.get(name)
        if row is None:
            return (0, 0, 0)
        calls, total, raw_self, child_cost = row[phase * _SLOTS:(phase + 1) * _SLOTS]
        inside = self.cost[name in self._kept_names][0]
        own = raw_self - scale * (child_cost + inside * calls)
        return (calls, total, max(0.0, own))

    def overhead_ns(self, phase: int = TICK) -> int:
        """Calibrated (unscaled) cost of every wrapper call in ``phase``."""
        return sum(
            row[phase * _SLOTS] * sum(self.cost[name in self._kept_names])
            for name, row in self.stats.items()
        )

    def durations(self, name: str, phase: int = TICK) -> List[int]:
        """Durations (ns) of the kept spans ``name`` recorded in
        ``phase`` of the timed region (indexed on first use, after the
        region has ended)."""
        if self._durations is None:
            self._durations = {}
            for s in self.spans:
                if s[5] >= 0:
                    self._durations.setdefault((s[1], s[7]), []).append(s[3] - s[2])
        return self._durations.get((name, phase == TICK), [])

    def write(self, path: str, meta: dict) -> None:
        """Dump the timed region's kept spans as one JSON document."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "meta": meta,
                    "cost_ns": {"kept": self.cost[True],
                                "folded": self.cost[False]},
                    "columns": ["id", "name", "start_ns", "end_ns",
                                "parent", "tick", "folded"],
                    "spans": [
                        [s[0], s[1], s[2], s[3], s[4], s[5], s[6] or {}]
                        for s in self.spans if s[5] >= 0
                    ],
                },
                fh,
            )

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------

    def _row(self, name: str, keep: bool) -> List[int]:
        if keep:
            self._kept_names.add(name)
        return self.stats.setdefault(name, [0] * (3 * _SLOTS))

    def wrap(self, fn: Callable, name: str, keep: bool,
             marks_fused: bool = False) -> Callable:
        """Timing wrapper around ``fn`` recording spans called ``name``."""
        S, phase, ids, spans = self._open, self._phase, self._ids, self.spans
        clock = time.perf_counter_ns
        row = self._row(name, keep)
        outside = self.cost[keep][1]
        tick_slot = TICK * _SLOTS
        tracer = self

        def kept(*args, **kwargs):
            sid = ids[0] = ids[0] + 1
            child_ns, child_cost, parent_id, fold = S[0], S[1], S[2], S[3]
            S[0] = S[1] = 0
            S[2] = sid
            S[3] = None
            if marks_fused:
                S[4] = "task.fused"
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                o = phase[0]
                row[o] += 1
                row[o + 1] += dur
                row[o + 2] += dur - S[0]
                row[o + 3] += S[1]
                spans.append((sid, name, t0, t1, parent_id, tracer.tick,
                              S[3], o == tick_slot))
                S[0] = child_ns + dur
                S[1] = child_cost + outside
                S[2] = parent_id
                S[3] = fold

        def folded(*args, **kwargs):
            child_ns, child_cost = S[0], S[1]
            S[0] = S[1] = 0
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                o = phase[0]
                row[o] += 1
                row[o + 1] += dur
                row[o + 2] += dur - S[0]
                row[o + 3] += S[1]
                S[0] = child_ns + dur
                S[1] = child_cost + outside
                fold = S[3]
                if fold is None:
                    fold = S[3] = {}
                entry = fold.get(name)
                if entry is None:
                    fold[name] = [1, dur]
                else:
                    entry[0] += 1
                    entry[1] += dur

        wrapper = kept if keep else folded
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _wrap_fire(self, fn: Callable) -> Callable:
        """``PeriodicTask.fire``: the top-level span of everything a tick
        does, named after the kind of task that fired."""
        S, phase, ids, spans = self._open, self._phase, self._ids, self.spans
        clock = time.perf_counter_ns
        kinds: Dict[str, str] = {}
        rows = {kind: self._row(kind, True) for kind in TASK_KINDS}
        tick_slot = TICK * _SLOTS
        tracer = self

        def fire(task, ts):
            kind = kinds.get(task.name)
            if kind is None:
                kind = kinds[task.name] = _classify_task(task.name)
            sid = ids[0] = ids[0] + 1
            S[0] = S[1] = 0
            S[2] = sid
            S[3] = None
            S[4] = kind
            t0 = clock()
            try:
                return fn(task, ts)
            finally:
                t1 = clock()
                dur = t1 - t0
                o = phase[0]
                kind = S[4]
                row = rows[kind]
                row[o] += 1
                row[o + 1] += dur
                row[o + 2] += dur - S[0]
                row[o + 3] += S[1]
                spans.append((sid, kind, t0, t1, 0, tracer.tick, S[3],
                              o == tick_slot))
                S[0] = S[1] = S[2] = 0
                S[3] = None

        fire.__wrapped__ = fn
        return fire

    # ------------------------------------------------------------------
    # Calibration
    # ------------------------------------------------------------------

    def _calibrate(self, n: int = 20000, repeats: int = 5) -> None:
        """Measure the wrappers' own cost on a no-op, per weight.

        Per call under a parent span: wall = loop + outside + measured,
        measured = inside + bare call; a bare call costs loop + call.
        The minimum over ``repeats`` rejects preemption.
        """
        clock = time.perf_counter_ns

        def noop():
            return None

        def per_call(fn) -> float:
            best = float("inf")
            for _ in range(repeats):
                t0 = clock()
                for _ in range(n):
                    fn()
                best = min(best, (clock() - t0) / n)
            return best

        loop = float("inf")
        for _ in range(repeats):
            t0 = clock()
            for _ in range(n):
                pass
            loop = min(loop, (clock() - t0) / n)
        call = per_call(noop) - loop
        name = "trace.calibrate"
        for keep in (True, False):
            wrapped = self.wrap(noop, name, keep)
            row = self.stats[name]
            wall = measured = float("inf")
            for _ in range(repeats):
                row[:] = [0] * len(row)
                w = per_call(wrapped)
                if w < wall:
                    # per_call ran `repeats` inner loops into this row.
                    wall, measured = w, row[1] / (n * repeats)
            self.cost[keep] = (
                max(0, round(measured - call)),
                max(0, round(wall - measured - loop)),
            )
            del self.stats[name]
        self.spans.clear()
        self._kept_names.clear()
        self._ids[0] = 0
        self._open[:] = [0, 0, 0, None, None]

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def patch(self, cls, attr: str, name: str, keep: bool, **kw) -> None:
        """Wrap ``cls.attr`` where ``cls`` itself defines it."""
        fn = cls.__dict__.get(attr)
        if fn is None:
            return
        self._patched.append((cls, attr, fn))
        setattr(cls, attr, self.wrap(fn, name, keep, **kw))

    def uninstall(self) -> None:
        for cls, attr, fn in reversed(self._patched):
            setattr(cls, attr, fn)
        self._patched.clear()


def install() -> Tracer:
    """Calibrate, then wrap every layer boundary.  Must run before the
    deployment is built: ``QueuedSubscriber.handler`` is bound into the
    broker's trie at construction."""
    from repro.core.fusion import FusedGroup
    from repro.core.manager import OperatorManager
    from repro.core.operator import JobOperatorBase, OperatorBase
    from repro.core.queryengine import QueryEngine
    from repro.core.registry import available_plugins, get_plugin_class
    from repro.dcdb.cache import SensorCache
    from repro.dcdb.collectagent import CollectAgent
    from repro.dcdb.mqtt import Broker, QueuedSubscriber
    from repro.dcdb.pusher import Pusher
    from repro.dcdb.segments import SegmentStore, TieredStorageBackend
    from repro.dcdb.storage import StorageBackend
    from repro.simulator.clock import PeriodicTask

    t = Tracer()
    fire = PeriodicTask.__dict__["fire"]
    t._patched.append((PeriodicTask, "fire", fire))
    PeriodicTask.fire = t._wrap_fire(fire)

    kept, folded = True, False
    for cls, attr, name, keep in (
        (Pusher, "store_reading", "dcdb.pusher.store_reading", folded),
        (Pusher, "store_readings_batch",
         "dcdb.pusher.store_readings_batch", kept),
        (SensorCache, "store", "dcdb.cache.store", folded),
        (Broker, "publish", "dcdb.mqtt.publish", folded),
        (Broker, "publish_batch", "dcdb.mqtt.publish_batch", kept),
        (QueuedSubscriber, "handler", "dcdb.mqtt.handler", folded),
        (QueuedSubscriber, "drain", "dcdb.mqtt.drain", kept),
        (CollectAgent, "store_readings_batch",
         "dcdb.collectagent.store_readings_batch", kept),
        (StorageBackend, "insert", "dcdb.storage.insert", folded),
        (StorageBackend, "insert_batch", "dcdb.storage.insert_batch", folded),
        (StorageBackend, "query", "dcdb.storage.query", kept),
        (StorageBackend, "query_aggregate",
         "dcdb.storage.query_aggregate", kept),
        (TieredStorageBackend, "insert", "dcdb.segments.insert", folded),
        (TieredStorageBackend, "insert_batch",
         "dcdb.segments.insert_batch", folded),
        (TieredStorageBackend, "query", "dcdb.segments.query", kept),
        (TieredStorageBackend, "flush", "dcdb.segments.flush", kept),
        (TieredStorageBackend, "maintain", "dcdb.segments.maintain", kept),
        (SegmentStore, "write", "dcdb.segments.write", kept),
        (SegmentStore, "replace", "dcdb.segments.replace", kept),
        (QueryEngine, "plan_for", "core.queryengine.plan_for", kept),
        (QueryEngine, "query_relative_batch",
         "core.queryengine.query_relative_batch", kept),
        (QueryEngine, "query_absolute",
         "core.queryengine.query_absolute", kept),
        (OperatorBase, "compute", "core.operator.compute", kept),
        (JobOperatorBase, "compute", "core.operator.job_compute", kept),
        (OperatorBase, "store_results_batch",
         "core.operator.store_results_batch", kept),
        (OperatorManager, "trigger", "core.operator.trigger", kept),
    ):
        t.patch(cls, attr, name, keep)
    t.patch(FusedGroup, "run", "core.fusion.run", kept, marks_fused=True)
    for plugin in available_plugins():
        cls = get_plugin_class(plugin)
        t.patch(cls, "compute_batch", f"plugins.{plugin}.compute_batch", kept)
        t.patch(cls, "compute_batch_vector",
                f"plugins.{plugin}.compute_batch_vector", kept)
        t.patch(cls, "compute_unit", f"plugins.{plugin}.compute_unit", folded)
    return t
