"""Fused pipeline execution (pipeline DAG fusion).

PR 4's compiled :class:`~repro.core.queryengine.QueryPlan` stops at
operator boundaries: a smoother → aggregator → health pipeline still
round-trips every intermediate result through the sensor cache (and,
when published, the broker) on every pass, then re-queries it one stage
later.  This module compiles a *fused group* — consecutive operators the
planner in :mod:`repro.core.pipeline` proved to form a private linear
chain — into one executable pass:

- the first member reads its external inputs through the host's real
  Query Engine (reusing its cached ``QueryPlan`` ring-buffer bindings
  and generation-counter invalidation);
- each intermediate member's results land in a :class:`FusedChannel`,
  a persistent right-aligned matrix mirroring exactly what the host's
  operator-output caches would have accumulated (one reading per pass,
  1 s host interval hint, capacity-clamped width) — no cache write, no
  publish, no re-query;
- downstream members query through a :class:`FusedEngine` proxy that
  serves channel topics as zero-copy window views and delegates
  everything else to the real engine;
- only the final member runs its ordinary staged pass, storing through
  ``store_results_batch`` and the operator-output fan-out.

Every member runs the same pass a staged operator runs
(:meth:`~repro.core.operator.OperatorBase.run_pass`); fused and staged
differ only in where an intermediate's result goes.  Semantics
preservation is strict: per-pass results are bit-for-bit identical to
the staged path (same kernel on the same right-aligned tails),
missing-data and short-window error accounting is unchanged (empty
channel rows mirror empty caches), and breaker-quarantined units simply
leave their channel rows unshifted exactly as they leave caches
unwritten.  The runtime sanitizer instruments fused passes like any
other: channel rows served to a kernel are fingerprinted (rule R007).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import QueryError
from repro.common.timeutil import NS_PER_SEC
from repro.dcdb.cache import CacheView, SensorCache
from repro.core.queryengine import BatchWindow, QueryEngine, report_views
from repro.core.units import same_units
from repro.sanitizer import hooks

#: Fallback retention window when a host exposes no ``cache_window_ns``.
DEFAULT_CACHE_WINDOW_NS = 180 * NS_PER_SEC


def _window_count(window_ns: int) -> int:
    """Readings a consumer pulls from an operator-output channel.

    Operator-output caches are created with the host's 1 s interval
    hint (``Pusher._cache_for_sensor``), so the staged plan arithmetic
    is ``window // 1s + 1`` regardless of the producer's real cadence.
    The channel reproduces that formula exactly — parity depends on it.
    """
    return int(window_ns) // NS_PER_SEC + 1 if window_ns else 1


class FusedChannel:
    """Persistent window matrix for one intermediate member's outputs.

    One row per (unit, output sensor) in emission order; ``width``
    columns, right-aligned like a :class:`BatchWindow`.  A pass appends
    one column worth of produced values (a vectorized shift-left) and
    leaves non-produced rows untouched, mirroring how a staged pass
    leaves their caches unwritten.
    """

    __slots__ = (
        "topics", "row_of", "width", "values", "timestamps", "counts",
        "column_name",
    )

    def __init__(self, units: Sequence, width: int) -> None:
        outputs = [s for u in units for s in u.outputs]
        rows = len(outputs)
        self.topics: Tuple[str, ...] = tuple(s.topic for s in outputs)
        self.row_of: Dict[str, int] = {t: i for i, t in enumerate(self.topics)}
        self.width = max(1, int(width))
        self.values = np.full((rows, self.width), np.nan, dtype=np.float64)
        self.timestamps = np.zeros((rows, self.width), dtype=np.int64)
        self.counts = np.zeros(rows, dtype=np.int64)
        #: The output name all rows share when every unit has exactly
        #: one output (row ``j`` is then unit ``j``): a uniform pass's
        #: column of that name is the channel's next column as it is.
        names = {s.name for s in outputs}
        self.column_name: Optional[str] = (
            names.pop()
            if len(names) == 1 and all(len(u.outputs) == 1 for u in units)
            else None
        )

    def seed(self, prev: Optional["FusedChannel"], cache_lookup) -> None:
        """Warm rows from a predecessor channel (plan rebuild) or from
        the host's caches (fusion enabled after staged passes ran), so
        switching execution modes never loses window history."""
        for r, topic in enumerate(self.topics):
            if prev is not None:
                pr = prev.row_of.get(topic)
                if pr is not None:
                    n = min(int(prev.counts[pr]), self.width)
                    if n:
                        self.timestamps[r, -n:] = (
                            prev.timestamps[pr, prev.width - n:]
                        )
                        self.values[r, -n:] = prev.values[pr, prev.width - n:]
                        self.counts[r] = n
                    continue
            cache = cache_lookup(topic)
            if cache is not None and len(cache):
                self.counts[r] = cache.tail_into(
                    self.timestamps[r], self.values[r], self.width
                )

    def append(self, ts: int, rows: Optional[List[int]], vals) -> None:
        """Shift the produced rows left by one slot and write the new
        column; unproduced rows keep their (older) window verbatim.
        ``rows=None`` means every row produced, ``vals`` in row order."""
        if rows is None or len(rows) == len(self.counts):
            idx = slice(None)  # the steady state: no index array
        elif rows:
            idx = np.asarray(rows, dtype=np.intp)
        else:
            return
        if self.width > 1:
            self.values[idx, :-1] = self.values[idx, 1:]
            self.timestamps[idx, :-1] = self.timestamps[idx, 1:]
        self.values[idx, -1] = vals
        self.timestamps[idx, -1] = ts
        self.counts[idx] = np.minimum(self.counts[idx] + 1, self.width)

    def append_pass(self, ts: int, result) -> None:
        """Sink of an intermediate member's pass (emission order)."""
        if (
            result.column_of is not None
            and self.column_name is not None
            and len(result.units) == len(self.counts)
        ):
            self.append(ts, None, result.column_of(self.column_name))
            return
        rows: List[int] = []
        vals: List[float] = []
        row_of = self.row_of
        for unit, values in result.results():
            for sensor in unit.outputs:
                value = values.get(sensor.name)
                if value is None:
                    continue
                row = row_of.get(sensor.topic)
                if row is not None:
                    rows.append(row)
                    vals.append(float(value))
        self.append(ts, rows, vals)

    def serve_count(self, window_ns: int) -> int:
        """Valid columns a consumer window of ``window_ns`` may read."""
        return min(_window_count(window_ns), self.width)


class FusedEngine:
    """Query-engine proxy a fused member computes through.

    Topics bound to an upstream :class:`FusedChannel` are answered from
    the channel matrices as zero-copy views (a kernel reads its window
    read-only by contract); every other topic (raw sensor inputs of the
    first stages, out-of-group feeds) delegates to the real engine,
    keeping its compiled-plan cache and generation invalidation in
    charge.  Attribute access falls through to the real engine, so
    navigator/virtual-sensor surfaces stay available.
    """

    def __init__(
        self,
        real: QueryEngine,
        channel_of: Dict[str, Tuple[FusedChannel, int]],
    ) -> None:
        self._real = real
        self._channel_of = dict(channel_of)
        # Dispatch memo: operators reuse their memoized batch layout
        # (the same topics tuple object every steady-state pass), so
        # one identity check replaces the per-topic channel scan.
        self._all_external: Optional[Tuple[str, ...]] = None
        self._whole_channel_topics: Optional[Tuple[str, ...]] = None
        self._whole_channel: Optional[FusedChannel] = None

    def __getattr__(self, name):
        return getattr(self._real, name)

    # Derived helpers reuse the real implementations over *this*
    # engine's query_relative, so channel topics stay visible to them.
    window_values = QueryEngine.window_values
    rate = QueryEngine.rate
    query_many_relative = QueryEngine.query_many_relative
    query_many_absolute = QueryEngine.query_many_absolute

    def latest(self, topic: str) -> CacheView:
        return self.query_relative(topic, 0)

    def _channel_tail(self, entry, count: int):
        channel, row = entry
        n = min(count, int(channel.counts[row]))
        if n <= 0:
            return None
        lo = channel.width - n
        return (
            channel.timestamps[row, lo:].copy(),
            channel.values[row, lo:].copy(),
        )

    def query_relative(self, topic: str, offset_ns: int) -> CacheView:
        entry = self._channel_of.get(topic)
        if entry is None:
            return self._real.query_relative(topic, offset_ns)
        if offset_ns < 0:
            raise QueryError(f"negative relative offset: {offset_ns}")
        tail = self._channel_tail(entry, _window_count(offset_ns))
        if tail is None:
            raise QueryError(f"no data available for sensor {topic}")
        view = CacheView._snapshot_of(*tail)
        san = hooks.CURRENT
        if san is not None:
            san.on_query_view(topic, view)
        return view

    def query_absolute(self, topic: str, start_ts: int, end_ts: int) -> CacheView:
        entry = self._channel_of.get(topic)
        if entry is None:
            return self._real.query_absolute(topic, start_ts, end_ts)
        if start_ts > end_ts:
            raise QueryError(f"inverted range: {start_ts} > {end_ts}")
        channel, row = entry
        n = int(channel.counts[row])
        if not n:
            raise QueryError(f"no data available for sensor {topic}")
        ts = channel.timestamps[row, channel.width - n:]
        lo = int(np.searchsorted(ts, start_ts, side="left"))
        hi = int(np.searchsorted(ts, end_ts, side="right"))
        if lo >= hi:
            return CacheView.empty()
        val = channel.values[row, channel.width - n:]
        return CacheView._snapshot_of(ts[lo:hi].copy(), val[lo:hi].copy())

    def query_relative_batch(
        self, topics: Sequence[str], window_ns: int, key: object = None
    ) -> BatchWindow:
        topics = tuple(topics)  # identity-preserving when already a tuple
        if topics is self._all_external:
            return self._real.query_relative_batch(topics, window_ns, key=key)
        if topics is self._whole_channel_topics:
            window = self._serve_whole_channel(topics, window_ns)
        else:
            channel_of = self._channel_of
            entries = [channel_of.get(t) for t in topics]
            if all(e is None for e in entries):
                self._all_external = topics
                return self._real.query_relative_batch(
                    topics, window_ns, key=key
                )
            first = entries[0]
            if first is not None and topics == first[0].topics:
                # Whole-channel identity read: the dominant shape (a
                # stage consuming exactly its upstream's outputs,
                # unit-aligned).
                self._whole_channel = first[0]
                self._whole_channel_topics = topics
                window = self._serve_whole_channel(topics, window_ns)
            else:
                window = self._gather(topics, entries, window_ns, key)
        san = hooks.CURRENT
        if san is not None:
            report_views(san, window)
        return window

    def _serve_whole_channel(
        self, topics: Tuple[str, ...], window_ns: int
    ) -> BatchWindow:
        channel = self._whole_channel
        counts = np.minimum(channel.counts, channel.serve_count(window_ns))
        return BatchWindow(topics, channel.values, channel.timestamps, counts)

    def _gather(
        self,
        topics: Tuple[str, ...],
        entries: List[Optional[tuple]],
        window_ns: int,
        key: object,
    ) -> BatchWindow:
        """Mixed channel/external batch: assemble a right-aligned matrix
        row by row, delegating the external subset as one sub-batch."""
        ext_topics = [t for t, e in zip(topics, entries) if e is None]
        ext = None
        if ext_topics:
            ext_key = ("fused-ext", key) if key is not None else None
            ext = self._real.query_relative_batch(
                ext_topics, window_ns, key=ext_key
            )
        width = ext.width if ext is not None else 1
        tails: List[Optional[tuple]] = []
        for entry in entries:
            if entry is None:
                tails.append(None)
                continue
            channel, row = entry
            tail = self._channel_tail(entry, channel.serve_count(window_ns))
            tails.append(tail)
            if tail is not None:
                width = max(width, len(tail[0]))
        u = len(topics)
        values = np.full((u, width), np.nan, dtype=np.float64)
        timestamps = np.zeros((u, width), dtype=np.int64)
        counts = np.zeros(u, dtype=np.int64)
        ext_row = 0
        for i, (entry, tail) in enumerate(zip(entries, tails)):
            if entry is None:
                if ext is not None:
                    n = int(ext.counts[ext_row])
                    if n:
                        timestamps[i, width - n:] = ext.row_timestamps(ext_row)
                        values[i, width - n:] = ext.row_values(ext_row)
                        counts[i] = n
                    ext_row += 1
                continue
            if tail is not None:
                ts, val = tail
                n = len(ts)
                timestamps[i, width - n:] = ts
                values[i, width - n:] = val
                counts[i] = n
        return BatchWindow(topics, values, timestamps, counts)


class FusedPlan:
    """The compiled binding of one fused group.

    Holds the per-intermediate channels and the per-member proxy
    engines, stamped with the navigator generation and the producer
    unit identity it was compiled against — either moving (hot-plugged
    sensors, re-resolved units) invalidates the plan, exactly like a
    :class:`~repro.core.queryengine.QueryPlan`.
    """

    __slots__ = ("generation", "units", "channels", "engines")

    def __init__(self, generation, units, channels, engines) -> None:
        self.generation = generation
        #: The producer units themselves (see ``same_units``).
        self.units: List = units
        self.channels: List[FusedChannel] = channels
        self.engines: List[Optional[FusedEngine]] = engines


class FusedGroup:
    """One scheduled fused pass over an ordered operator chain."""

    def __init__(
        self,
        name: str,
        ops: Sequence,
        host,
        engine: QueryEngine,
    ) -> None:
        self.name = name
        self.ops = list(ops)
        self.host = host
        self.engine = engine
        self._plan: Optional[FusedPlan] = None

    def members(self) -> List[str]:
        return [op.name for op in self.ops]

    # ------------------------------------------------------------------
    # Plan compilation
    # ------------------------------------------------------------------

    def _ensure_plan(self) -> FusedPlan:
        gen = self.engine.navigator.generation
        # Every producer unit, by identity (terminal units may churn
        # freely — job operators rebuild theirs each pass — without
        # invalidating the channels, which never carry them).
        units = [u for op in self.ops[:-1] for u in op.units]
        plan = self._plan
        if (
            plan is not None
            and plan.generation == gen
            and same_units(plan.units, units)
        ):
            return plan
        return self._compile(gen, units)

    def _compile(self, generation, units) -> FusedPlan:
        cache_window_ns = getattr(
            self.host, "cache_window_ns", DEFAULT_CACHE_WINDOW_NS
        )
        capacity = SensorCache.capacity_for_duration(
            cache_window_ns, NS_PER_SEC
        )
        old = self._plan
        channels: List[FusedChannel] = []
        for i, op in enumerate(self.ops[:-1]):
            width = 1
            for consumer in self.ops[i + 1:]:
                width = max(
                    width,
                    min(_window_count(consumer.config.window_ns), capacity),
                )
            channel = FusedChannel(op.units, width)
            prev = (
                old.channels[i]
                if old is not None and i < len(old.channels)
                else None
            )
            channel.seed(prev, self.host.cache_for)
            channels.append(channel)
        engines: List[Optional[FusedEngine]] = [None]
        channel_of: Dict[str, Tuple[FusedChannel, int]] = {}
        for i in range(1, len(self.ops)):
            channel = channels[i - 1]
            channel_of = dict(channel_of)
            for row, topic in enumerate(channel.topics):
                channel_of[topic] = (channel, row)
            engines.append(FusedEngine(self.engine, channel_of))
        plan = FusedPlan(generation, units, channels, engines)
        self._plan = plan
        return plan

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, ts: int) -> None:
        """One scheduled pass over the chain: every intermediate member
        sinks its result into the channel the next member reads, the
        final member runs its ordinary storing pass."""
        plan = self._ensure_plan()
        last = len(self.ops) - 1
        for i, op in enumerate(self.ops):
            real = op.engine
            op.engine = plan.engines[i] or real
            try:
                if i < last:
                    op.run_pass(ts, plan.channels[i].append_pass)
                else:
                    op.compute(ts)
            finally:
                op.engine = real
