"""Fused pipeline execution (pipeline DAG fusion).

A staged smoother → aggregator → health pipeline round-trips every
intermediate result through the sensor cache (and, when published, the
broker) on every pass, then re-queries it one stage later.  This module
runs a *fused group* — consecutive operators the planner in
:mod:`repro.core.pipeline` proved to form a private linear chain, each
member reading only outputs of the one before it — as one pass:

- the first member gathers from the host's Query Engine;
- each intermediate member's results land in a :class:`FusedChannel`,
  a persistent ring whose right-aligned window mirrors exactly what the
  host's operator-output caches would have accumulated (one reading per
  pass, 1 s host interval hint, capacity-clamped width) — one column
  written per pass, no cache write, no publish, no re-query;
- every later member's one gather reads the channel of the member
  before it, whose rows it is served zero-copy;
- only the final member runs its ordinary staged pass, storing through
  ``store_results_batch`` and the operator-output fan-out.

Every member runs the same pass a staged operator runs
(:meth:`~repro.core.operator.OperatorBase.run_pass`); fused and staged
differ only in where an intermediate's result goes.  Semantics
preservation is strict: per-pass results are bit-for-bit identical to
the staged path (same kernel on the same right-aligned tails),
missing-data and short-window error accounting is unchanged (empty
channel rows mirror empty caches), and breaker-quarantined units simply
keep their channel windows verbatim exactly as they leave caches
unwritten.  The runtime sanitizer instruments fused passes like any
other: channel rows served to a kernel are fingerprinted (rule R007).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.timeutil import NS_PER_SEC
from repro.dcdb.cache import SensorCache
from repro.core.queryengine import BatchWindow, QueryEngine, report_views
from repro.core.units import kept_units
from repro.sanitizer import hooks


def _window_count(window_ns: int) -> int:
    """Readings a consumer pulls from an operator-output channel.

    Operator-output caches are created with the host's 1 s interval
    hint (``Pusher._write_plan``), so the staged plan arithmetic
    is ``window // 1s + 1`` regardless of the producer's real cadence.
    The channel reproduces that formula exactly — parity depends on it.
    """
    return int(window_ns) // NS_PER_SEC + 1 if window_ns else 1


class FusedChannel:
    """Persistent window ring for one intermediate member's outputs.

    One row per (unit, output sensor) in emission order; ``width``
    columns, right-aligned like a :class:`BatchWindow`.  The rows live
    in ``(rows, 2 * width)`` buffers: :attr:`values` and
    :attr:`timestamps` are the zero-copy views of the ``width`` columns
    ending at ``_head``.  A pass writes one column and advances the
    head; when the head reaches the end of the buffers, the newest
    ``width - 1`` columns move to the front in one block move — once
    every ``width`` passes.  Rows a pass did not produce keep their
    (older) window verbatim, as a staged pass leaves their caches
    unwritten: a partial pass leaves the head alone and shifts the
    produced rows' windows instead (see :meth:`append`).
    """

    __slots__ = (
        "topics", "row_of", "width", "counts", "column_name", "_whole",
        "_values", "_timestamps", "_head", "_full",
    )

    def __init__(self, units: Sequence, width: int) -> None:
        outputs = [s for u in units for s in u.outputs]
        rows = len(outputs)
        self.topics: Tuple[str, ...] = tuple(s.topic for s in outputs)
        self.row_of: Dict[str, int] = {t: i for i, t in enumerate(self.topics)}
        self.width = max(1, int(width))
        self._values = np.full((rows, 2 * self.width), np.nan, dtype=np.float64)
        self._timestamps = np.zeros((rows, 2 * self.width), dtype=np.int64)
        self._head = self.width
        self.counts = np.zeros(rows, dtype=np.int64)
        #: Every row holds ``width`` readings: :attr:`counts` can no
        #: longer move, so appends stop updating it.
        self._full = False
        #: The output name all rows share when every unit has exactly
        #: one output (row ``j`` is then unit ``j``): a uniform pass's
        #: column of that name is the channel's next column as it is.
        names = {s.name for s in outputs}
        self.column_name: Optional[str] = (
            names.pop()
            if len(names) == 1 and all(len(u.outputs) == 1 for u in units)
            else None
        )
        #: The last caller tuple found equal to :attr:`topics`: a
        #: consumer reuses its batch layout's tuple every steady pass,
        #: so one identity check replaces the string comparison.
        self._whole: Optional[Tuple[str, ...]] = None

    @property
    def values(self) -> np.ndarray:
        """The ``rows x width`` window matrix (a view of the ring)."""
        return self._values[:, self._head - self.width:self._head]

    @property
    def timestamps(self) -> np.ndarray:
        """The window's timestamps, laid out like :attr:`values`."""
        return self._timestamps[:, self._head - self.width:self._head]

    def _note_counts(self) -> None:
        counts = self.counts
        self._full = bool(len(counts)) and bool((counts == self.width).all())

    def seed(self, prev: Optional["FusedChannel"], cache_lookup) -> None:
        """Warm rows from a predecessor channel (plan rebuild) or from
        the host's caches (fusion enabled after staged passes ran), so
        switching execution modes never loses window history."""
        values, timestamps = self.values, self.timestamps
        for r, topic in enumerate(self.topics):
            if prev is not None:
                pr = prev.row_of.get(topic)
                if pr is not None:
                    n = min(int(prev.counts[pr]), self.width)
                    if n:
                        timestamps[r, -n:] = prev.timestamps[pr, prev.width - n:]
                        values[r, -n:] = prev.values[pr, prev.width - n:]
                        self.counts[r] = n
                    continue
            cache = cache_lookup(topic)
            if cache is not None and len(cache):
                self.counts[r] = cache.tail_into(
                    timestamps[r], values[r], self.width
                )
        self._note_counts()

    def append(self, ts: int, rows: Optional[List[int]], vals) -> None:
        """Write the new column of the produced rows; unproduced rows
        keep their (older) window verbatim.  ``rows=None`` means every
        row produced, ``vals`` in row order; a list, complete or not,
        names the row of each value.

        A pass that produces every row advances the head.  A partial
        pass leaves the head where it is and shifts each produced row's
        window one slot left, its new value last: what the shift-left
        channel did on every pass, so a partial pass costs what it cost
        there."""
        width, head = self.width, self._head
        if rows is None:
            idx = slice(None)  # the steady state: no index array
        elif not len(rows):
            return
        else:
            idx = np.asarray(rows, dtype=np.intp)
            if len(idx) < len(self.counts):
                lo = head - width
                values, timestamps = self._values, self._timestamps
                if width > 1:
                    values[idx, lo:head - 1] = values[idx, lo + 1:head]
                    timestamps[idx, lo:head - 1] = timestamps[idx, lo + 1:head]
                values[idx, head - 1] = vals
                timestamps[idx, head - 1] = ts
                self._count(idx)
                return
        if head == 2 * width:
            # Wrap: the newest width - 1 columns move to the front, the
            # new column lands right after them.
            head = width - 1
            if head:
                self._values[:, :head] = self._values[:, width + 1:]
                self._timestamps[:, :head] = self._timestamps[:, width + 1:]
        self._values[idx, head] = vals
        self._timestamps[idx, head] = ts
        self._head = head + 1
        self._count(idx)

    def _count(self, idx) -> None:
        if not self._full:
            self.counts[idx] = np.minimum(self.counts[idx] + 1, self.width)
            self._note_counts()

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

    def query_relative_batch(
        self, topics: Sequence[str], window_ns: int, key: object = None
    ) -> BatchWindow:
        """The next member's one gather (the ``source`` of
        :meth:`~repro.core.operator.OperatorBase.run_pass`); ``key``
        only mirrors the engine's signature.

        The channel's own topics are served as the channel matrices
        themselves (kernels read windows read-only).  Any other
        selection — staggered or quarantined consumer units, narrowed
        kernel inputs — is copied out by one fancy index, and a topic
        the channel does not hold is an empty row, as the engine serves
        an intermediate that writes no cache.
        """
        n = min(_window_count(window_ns), self.width)
        topics = tuple(topics)  # identity-preserving when already a tuple
        if topics is self._whole or topics == self.topics:
            self._whole = topics
            window = BatchWindow(
                topics, self.values, self.timestamps,
                np.minimum(self.counts, n), n if self._full else None,
            )
        else:
            rows = np.array(
                [self.row_of.get(t, -1) for t in topics], dtype=np.intp
            )
            held = rows >= 0
            values = np.full((len(rows), self.width), np.nan)
            timestamps = np.zeros((len(rows), self.width), dtype=np.int64)
            counts = np.zeros(len(rows), dtype=np.int64)
            values[held] = self.values[rows[held]]
            timestamps[held] = self.timestamps[rows[held]]
            counts[held] = np.minimum(self.counts[rows[held]], n)
            window = BatchWindow(topics, values, timestamps, counts)
        san = hooks.CURRENT
        if san is not None:
            report_views(san, window)
        return window


class FusedPlan:
    """The compiled binding of one fused group.

    Holds the per-intermediate channels, stamped with the navigator
    generation and the producer unit identity it was compiled against —
    either moving (hot-plugged sensors, re-resolved units) invalidates
    the plan, exactly like a :class:`~repro.core.queryengine.QueryPlan`.
    """

    __slots__ = ("generation", "units", "channels")

    def __init__(self, generation, units, channels) -> None:
        self.generation = generation
        #: Each producer's ``units`` list, the very object the plan was
        #: checked against last (see ``kept_units``).
        self.units: List[list] = units
        self.channels: List[FusedChannel] = channels


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
        # Every producer's units (terminal units may churn freely — job
        # operators rebuild theirs each pass — without invalidating the
        # channels, which never carry them).
        units = [op.units for op in self.ops[:-1]]
        plan = self._plan
        if plan is not None and plan.generation == gen:
            held = list(map(kept_units, plan.units, units))
            if None not in held:
                plan.units = held
                return plan
        return self._compile(gen, units)

    def _compile(self, generation, units) -> FusedPlan:
        capacity = SensorCache.capacity_for_duration(
            self.host.cache_window_ns, NS_PER_SEC
        )
        old = self._plan
        channels: List[FusedChannel] = []
        for i, op in enumerate(self.ops[:-1]):
            # Only the next member reads this channel.
            consumer = self.ops[i + 1]
            width = min(_window_count(consumer.config.window_ns), capacity)
            channel = FusedChannel(op.units, width)
            prev = (
                old.channels[i]
                if old is not None and i < len(old.channels)
                else None
            )
            channel.seed(prev, self.host.cache_for)
            channels.append(channel)
        plan = FusedPlan(generation, units, channels)
        self._plan = plan
        return plan

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, ts: int) -> None:
        """One scheduled pass over the chain: the first member gathers
        from the host's engine, every later one from the channel of the
        member before it; every intermediate member sinks its result
        into its channel, the final member runs its ordinary storing
        pass."""
        channels = self._ensure_plan().channels
        last = len(self.ops) - 1
        source = None
        for i, op in enumerate(self.ops):
            if i < last:
                op.run_pass(ts, channels[i].append_pass, source)
                source = channels[i]
            else:
                op.run(ts, source)
