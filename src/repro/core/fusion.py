"""Fused pipeline execution (pipeline DAG fusion).

A staged smoother → aggregator → health pipeline round-trips every
intermediate result through the sensor cache (and, when published, the
broker) on every pass, then re-queries it one stage later.  This module
runs a *fused group* — one private linear chain, or a stack of congruent
ones (its *lanes*), as the planner in :mod:`repro.core.pipeline` found —
as one pass, each stage one gather and one kernel call over all lanes:

- the first stage gathers from the host's Query Engine;
- each intermediate stage's results land in a :class:`FusedChannel`,
  a persistent ring whose right-aligned window mirrors exactly what the
  host's operator-output caches would have accumulated (one reading per
  pass, 1 s host interval hint, capacity-clamped width) — one column
  written per pass, no cache write, no publish, no re-query;
- every later stage's one gather reads the channel of the stage
  before it, whose rows it is served zero-copy;
- only the final stage stores: a stack once per pass, one
  :class:`~repro.dcdb.sensor.SensorColumns` of every lane's outputs
  (one write plan, one published batch), then each lane's
  operator-level outputs through its own operator.

A stacked stage settles each lane's counters
(:meth:`~repro.core.operator.OperatorBase.settle`) in one loop over
its memo when no lane has a breaker and no sanitizer runs, and closes
each lane's pass on its own (breakers, sanitizer) otherwise.

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

import operator
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.timeutil import NS_PER_SEC
from repro.dcdb.cache import SensorCache
from repro.dcdb.sensor import SensorColumns
from repro.core.operator import UNIT_ERRORS, PassResult, unit_rows
from repro.core.queryengine import BatchWindow, report_views
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
    """Persistent window ring for one intermediate stage's outputs.

    One row per (unit, output sensor) in emission order, then one per
    ``frozen`` topic the next stage reads but no unit writes (as staged,
    it keeps serving what it last held); ``width``
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
        "topics", "row_of", "width", "counts", "column_names", "_whole",
        "_values", "_timestamps", "_head", "_full",
    )

    def __init__(self, units: Sequence, width: int, frozen: Sequence[str] = ()) -> None:
        outputs = [s for u in units for s in u.outputs]
        self.topics = tuple(s.topic for s in outputs) + tuple(frozen)
        rows = len(self.topics)
        self.row_of: Dict[str, int] = {t: i for i, t in enumerate(self.topics)}
        self.width = max(1, int(width))
        self._values = np.full((rows, 2 * self.width), np.nan, dtype=np.float64)
        self._timestamps = np.zeros((rows, 2 * self.width), dtype=np.int64)
        self._head = self.width
        self.counts = np.zeros(rows, dtype=np.int64)
        #: Every row holds ``width`` readings: :attr:`counts` can no
        #: longer move, so appends stop updating it.
        self._full = False
        #: The rows' output names when every unit has exactly one output
        #: (row ``j`` is then unit ``j``): a uniform pass whose columns of
        #: those names are one array appends that array as it is.
        self.column_names = _column_names(units)
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
        if len(result.units) == len(self.counts):
            column = _one_column(result, self.column_names)
            if column is not None:
                self.append(ts, None, column)
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
    """One scheduled fused pass over one chain, or over the congruent
    chains (*lanes*) the planner stacked.  A stage the one kernel call
    cannot take whole (unequal rows, a kernel error, a result that is
    not columnar) runs each lane's own ``run_pass`` over the same
    source; each member keeps its own bookkeeping either way."""

    def __init__(self, name: str, ops: Sequence, host, engine) -> None:
        self.name = name
        flat = not ops or not isinstance(ops[0], (list, tuple))
        self.lanes = [list(lane) for lane in ([ops] if flat else ops)]
        #: Stage ``i``: every lane's ``i``-th member, in lane order.
        self.stages = [tuple(s) for s in zip(*self.lanes)]
        self.ops = [op for lane in self.lanes for op in lane]
        self.host = host
        self.engine = engine
        self._plan: Optional[FusedPlan] = None
        self.plan_key = f"fused:{name}"
        self._stages: List[Optional[_Stage]] = [None] * len(self.stages)

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
        units = [op.units for stage in self.stages[:-1] for op in stage]
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
        for i, producers in enumerate(self.stages[:-1]):
            # Only the next stage reads this channel.
            consumers = self.stages[i + 1]
            width = min(_window_count(consumers[0].config.window_ns), capacity)
            produced = [u for op in producers for u in op.units]
            made = {s.topic for u in produced for s in u.outputs}
            reads = (t for op in consumers for u in op.units for t in op.kernel_inputs(u))
            # What the next stage reads and no unit writes stays, frozen.
            frozen = [t for t in dict.fromkeys(reads) if t not in made]
            channel = FusedChannel(produced, width, frozen)
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
        """One scheduled pass over the stack, stage by stage."""
        channels = self._ensure_plan().channels
        last = len(self.stages) - 1
        source = None
        for i, stage in enumerate(self.stages):
            sink = channels[i].append_pass if i < last else None
            if len(stage) > 1:
                self._run_stage(i, ts, stage, source, sink)
            elif sink is not None:
                stage[0].run_pass(ts, sink, source)
            else:
                stage[0].run(ts, source)
            source = channels[i] if i < last else None

    def _run_stage(self, i: int, ts: int, stage, source, sink) -> None:
        t0 = time.perf_counter_ns()
        memo = self._stages[i]
        if memo is None or not memo.holds(stage):
            memo = self._stage(i, stage)
        result = None
        if memo.m:  # the one gather and kernel call, if that kernel takes it
            window = (source or self.engine).query_relative_batch(
                memo.topics, memo.lead.config.window_ns, key=self.plan_key
            )
            try:
                if window.uniform_count():
                    result = memo.lead.compute_batch(memo.units, window, memo.slices)
            except UNIT_ERRORS:
                result = None
        if not (isinstance(result, PassResult) and result.column_of
                and len(result.units) == len(memo.units)):
            for op, due in zip(memo.live, memo.dues):
                op.run_pass(ts, sink or op._store, source, due)
            return
        if sink is not None:
            sink(ts, result)  # the stacked channel's one append
        else:
            self._store_stack(ts, memo, result)
        share = (time.perf_counter_ns() - t0) // len(memo.live)  # equal shares
        san = hooks.CURRENT
        if san is None and not any(op._breakers for op in memo.live):
            for settle, produced in memo.settles:  # no breaker to record
                settle(produced, share)
            return
        for op, due, (lo, hi) in zip(memo.live, memo.dues, memo.bounds):
            if san is not None:
                san.begin_pass(op)
            op.close_pass(ts, _lane(result.column_of, due, lo, hi), None,
                          time.perf_counter_ns() - share)

    def _store_stack(self, ts: int, memo: "_Stage", result: PassResult) -> None:
        """A final stage's one store: every lane's outputs as one
        :class:`SensorColumns` — the stacked column itself when every
        output name maps to it, else the lanes' columns laid end to end
        — then each lane's operator-level outputs through its operator."""
        values = _one_column(result, memo.names)
        if values is None:
            values = np.concatenate([
                op._output_columns(_lane(result.column_of, due, lo, hi)).values
                for op, due, (lo, hi) in zip(memo.live, memo.dues, memo.bounds)
            ])
        if memo.sensors:
            self.host.store_readings_batch(ts, SensorColumns(memo.sensors, values))
        for op, due, (lo, hi) in memo.aggregating:
            op.store_operator_outputs(ts, _lane(result.column_of, due, lo, hi))

    def _stage(self, i: int, stage) -> "_Stage":
        """The memo of stage ``i`` for its live lanes' due units: kept
        while each lane's layout is the one it was built from."""
        live = [op for op in stage if op.enabled]
        dues = [op._due_units() for op in live]
        layouts = [op._layout(due) for op, due in zip(live, dues)]
        memo = self._stages[i]
        if memo is None or len(memo.layouts) != len(layouts) or not all(
            map(operator.is_, memo.layouts, layouts)
        ):
            memo = self._stages[i] = _Stage(stage, live, layouts)
        return memo


def _lane(column_of, units, lo: int, hi: int) -> PassResult:
    """Lane ``[lo, hi)`` of a stacked columnar pass, as its own pass."""
    if hi == lo:
        return PassResult([])
    return PassResult(units=units, column_of=lambda name: column_of(name)[lo:hi])


def _column_names(units) -> Optional[Tuple[str, ...]]:
    """The units' output names when every unit has exactly one output
    (row ``j`` of a column is then unit ``j``'s one reading)."""
    if units and all(len(u.outputs) == 1 for u in units):
        return tuple(dict.fromkeys(u.outputs[0].name for u in units))
    return None


def _one_column(result: PassResult, names) -> Optional[np.ndarray]:
    """The column of ``result`` that every one of ``names`` maps to, if
    there is one: a uniform pass whose units have one output each is
    then that column as it is."""
    if result.column_of is None or names is None:
        return None
    column = result.column_of(names[0])
    for name in names[1:]:
        if result.column_of(name) is not column:
            return None
    return column


class _Stage:
    """A stacked stage's lanes laid end to end: the live lanes and their
    due units, the gather's topics and slices, each lane's rows
    (``bounds``), the final stage's sensors, and each lane's ``settle``
    with the unit results it counts.  Built from each live lane's
    layout (``OperatorBase._layout``), whose first field is the lane's
    due units list itself."""

    __slots__ = (
        "live", "dues", "layouts", "units", "topics", "slices", "m", "bounds",
        "lead", "steady", "sensors", "names", "settles", "aggregating",
    )

    def __init__(self, stage, live: list, layouts: List[tuple]) -> None:
        self.live, self.layouts = live, layouts
        self.dues = [layout[0] for layout in layouts]
        #: Every lane live and due its whole ``units``: what :meth:`holds`
        #: can confirm by identity alone.
        self.steady = len(live) == len(stage) and all(
            map(operator.is_, self.dues, (op.units for op in live)))
        units: list = []
        topics: list = []
        self.bounds = []
        for held, lane_topics, _, _ in layouts:
            self.bounds.append((len(units), len(units) + len(held)))
            units += held
            topics += lane_topics
        ms = {layout[3] for layout in layouts if layout[0]}
        self.m = ms.pop() if len(ms) == 1 else 0
        self.units, self.topics = units, tuple(topics)
        self.slices = unit_rows(len(units), self.m)
        self.lead = next((op for op, layout in zip(live, layouts) if layout[0]), None)
        self.sensors = tuple(s for u in units for s in u.outputs)
        self.names = _column_names(units)
        self.settles = [(op.settle, len(due)) for op, due in zip(live, self.dues)]
        self.aggregating = [
            (op, due, bounds) for op, due, bounds in zip(live, self.dues, self.bounds)
            if op._operator_output_sensors
        ]

    def holds(self, stage) -> bool:
        """Whether every lane of ``stage`` is live, due its whole
        ``units`` list — the one this memo holds — and has no breaker
        (whose filter a pass must run: it ages open breakers), so that
        the pass may skip ``_due_units`` and ``_layout``."""
        return self.steady and all(
            op.enabled and op.units is due and not op._breakers
            for op, due in zip(stage, self.dues)
        )
