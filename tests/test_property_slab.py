"""Rings that share a slab are gathered together — and read the same.

Two vectorised steps replace two per-row Python loops on a pass, and in
both the old loop is the reference:

- ``QueryEngine._execute_plan`` gathers the rings of one
  :class:`~repro.dcdb.cache.CacheSlab` by basic slicing, at most two
  column spans for all of them (``_gather_slab``), and cuts a time
  window once per slab (``_window_count``).  Random slabs of 1–40 rings
  written column by column with staggered histories (empty, partial,
  wrapped, exactly full — rings a column misses leave together, so
  every fill level is a slab of its own; one ring cleared, one resized
  mid-run so it leaves its slab — or resized to its own capacity so it
  does not —, hinted or not, one stale store), counts of 1..cap+3,
  hinted and timed rows in one plan: the matrix, timestamps and counts
  are ``tobytes()``-equal to :func:`frozen_execute` — the per-row
  ``tail_into`` loop as it stood before the slab, held here with its
  vectorised cut (``_cut_to_windows``) — and to
  ``query_relative`` per topic.  Six seeded source mutations must fail
  that: the wrap into the second span computed without its modulo, the
  second span dropped, the slab's size ignored, the cut's bound taken
  from the row's last slot rather than its newest reading, ``epoch``
  ignored after a ring left, group rows in the wrong order.  A ring
  alone on its slab, or one of two, is a group too, read the same.
- ``AggregatorOperator.compute_batch`` pools a unit's ``m`` inputs by
  reshaping the gathered block.  For every aggregate, ``m`` 1..5,
  ``n`` 1..20, 1..6 units the pass equals ``compute_ragged`` on the same
  window bit for bit; a pass one reading or one input short takes
  ``compute_ragged`` and agrees with the scalar per-unit reference.

Then the deployment level, counts exact: in steady state a tick of an
``inband_fused``-shaped deployment calls ``SensorCache.tail_into`` from
``_execute_plan`` and ``BatchWindow.rows`` from the aggregator zero
times; on the agent, the topics of one first-arrival batch share a slab
and a ring that speeds up leaves it and keeps exact windows.
"""

import tracemalloc
from typing import Dict, List, Optional

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.common.errors import QueryError
from repro.common.timeutil import NS_PER_SEC
from repro.core import queryengine
from repro.core.operator import OperatorConfig
from repro.core.queryengine import (
    _MAX_SPECULATIVE_READ,
    BatchWindow,
    QueryEngine,
    _longest,
)
from repro.core.units import Unit
from repro.dcdb import cache as cache_module
from repro.dcdb.cache import CacheSlab, SensorCache, plan_columns
from repro.dcdb.sensor import Sensor
from repro.dcdb.sensor import SensorReading
from repro.deploy import build_deployment
from repro.plugins.aggregator import AggregatorOperator
from tests.test_property_gather import (
    agent_with_engine, mutant_engine, mutant_module,
)
from tests.hosts import ingest_passes, store

STEP = 10  # ns between two readings of a ring


class Host:
    """A query host over caches the test builds itself."""

    storage = None

    def __init__(self, caches=None):
        self.caches: Dict[str, SensorCache] = dict(caches or {})

    def cache_for(self, topic):
        return self.caches.get(topic)

    def sensor_topics(self):
        return list(self.caches)


# ----------------------------------------------------------------------
# The reference: the per-row loop, frozen
# ----------------------------------------------------------------------


def _cut_to_windows(
    timestamps: np.ndarray, values: np.ndarray, counts: np.ndarray,
    window_ns: int,
) -> np.ndarray:
    """Cut right-aligned gathered rows to ``[newest - window, newest]``.

    One comparison of the timestamp matrix against its last column, for
    every row at once; slots that fall out of their window go back to
    NaN / 0 in place and the surviving counts are returned.  The bound
    is inclusive, like ``view_absolute``'s.  Serves the time-window rows
    read one ring at a time (a slab group is cut by
    :func:`_window_count`).
    """
    width = timestamps.shape[1]
    keep = timestamps >= (timestamps[:, -1] - window_ns)[:, None]
    keep &= np.arange(width) >= (width - counts)[:, None]  # the filled slots
    drop = ~keep
    timestamps[drop] = 0
    values[drop] = np.nan
    return keep.sum(axis=1)


def frozen_execute(engine, plan) -> BatchWindow:
    """``QueryEngine._execute_plan`` as it was when every ring row was
    read with its own ``tail_into`` call (one Python iteration a row).
    Kept verbatim but for the counters, which the comparison ignores."""
    window_ns = plan.window_ns
    exact: Dict[int, Optional[tuple]] = {
        i: engine._read_row(topic, window_ns) for i, topic in plan.scalar_rows
    }
    width = max(plan.width, _longest(exact.values()))
    k = 0
    timed = np.array(
        [i for i, _, count in plan.cache_rows if not count], dtype=np.intp
    )
    if len(timed):
        gap = min(plan.rows[i][1].gap_ns for i in timed.tolist())
        k = min(window_ns // gap + 2, _MAX_SPECULATIVE_READ)
        width = max(width, k)
    u = len(plan.rows)
    values = np.full((u, width), np.nan, dtype=np.float64)
    timestamps = np.zeros((u, width), dtype=np.int64)
    counts = np.zeros(u, dtype=np.int64)
    reread: List[int] = []
    for i, cache, count in plan.cache_rows:
        n = cache.tail_into(timestamps[i], values[i], count or k)
        if n:
            counts[i] = n
        else:
            reread.append(i)
    if k:
        reach = np.full(u, 1 << 62, dtype=np.int64)  # a count row: all of it
        reach[timed] = window_ns
        counts = _cut_to_windows(timestamps, values, counts, reach)
        violations = [
            i for i in timed[counts[timed] == k].tolist()
            if plan.rows[i][1]._size > k
        ]
        if violations:
            timestamps[violations] = 0
            values[violations] = np.nan
            reread += violations
    if reread:
        for i in reread:
            exact[i] = engine._read_row(plan.topics[i], window_ns)
        pad = _longest(exact.values()) - width
        if pad > 0:
            values = np.hstack([np.full((u, pad), np.nan), values])
            timestamps = np.hstack(
                [np.zeros((u, pad), dtype=np.int64), timestamps]
            )
            width += pad
    for i, row in exact.items():
        n = len(row[0]) if row else 0
        if n:
            timestamps[i, width - n:], values[i, width - n:] = row
        counts[i] = n
    return BatchWindow(plan.topics, values, timestamps, counts)


# ----------------------------------------------------------------------
# Random slabs
# ----------------------------------------------------------------------


@st.composite
def scenarios(draw):
    rows = draw(st.integers(1, 40))
    cap = draw(st.integers(2, 9))
    per_row = lambda strategy: st.lists(strategy, min_size=rows, max_size=rows)
    row = st.integers(0, rows - 1)
    # Stored 0..3 x cap times: empty, partial, exactly full, wrapped —
    # at most three levels, so several rings end up on each slab.
    levels = draw(st.lists(
        st.sampled_from([0, 1, cap - 1, cap, 2 * cap + 1, 3 * cap]),
        min_size=1, max_size=3,
    ))
    return {
        "rows": rows,
        "cap": cap,
        "history": draw(per_row(st.sampled_from(levels))),
        "more": draw(per_row(st.sampled_from([0, 1, cap]))),
        "hinted": draw(per_row(st.booleans())),
        "order": draw(st.permutations(range(rows))),
        "clear": draw(row),
        "resize": draw(row),
        "capacity": draw(st.integers(1, 2 * cap)),  # cap itself: stays
        "stale": draw(row),
    }


class SlabRig:
    """One slab behind a host, an engine over it, written a column at a
    time the way the hosts write."""

    def __init__(self, engine_cls, scenario):
        self.scenario = scenario
        rows, cap = scenario["rows"], scenario["cap"]
        self.slab = CacheSlab(rows, cap)
        self.rings = self.slab.rings()
        for ring, hinted in zip(self.rings, scenario["hinted"]):
            ring.interval_ns = STEP if hinted else 0
        self.topics = [f"/s/r{j:02d}" for j in range(rows)]
        self.host = Host(zip(self.topics, self.rings))
        self.engine = engine_cls(self.host)
        self.clock = 1000
        self.value = 0.0
        #: The plan's topic order is not the slab's row order.
        self.asked = tuple(self.topics[j] for j in scenario["order"])

    def store(self, counts):
        """Ring ``j`` gets ``counts[j]`` more readings, one column per
        timestamp: the rings a column misses move out of its slab."""
        for t in range(max(counts, default=0)):
            rings = [ring for ring, n in zip(self.rings, counts) if n > t]
            self.clock += STEP
            values = self.value + 1.0 + np.arange(len(rings))
            self.value += len(rings)
            for col in plan_columns(rings):
                col.slab.store_column(
                    self.clock, values if col.index is None else values[col.index]
                )
            for ring in rings:
                if len(ring) > 1 and not ring.interval_ns:
                    ring.gap_ns = STEP  # what the agent's ingest loop measures

    def check(self):
        """Every count, gathered three ways at one instant."""
        engine, cap = self.engine, self.scenario["cap"]
        for count in range(1, cap + 4):
            window_ns = (count - 1) * STEP
            plan = engine.plan_for(("probe", count), self.asked, window_ns)
            assert plan.n_cache_rows == len(self.asked)
            win = engine._execute_plan(plan)
            ref = frozen_execute(engine, plan)
            assert win.values.shape == ref.values.shape, count
            assert win.timestamps.tobytes() == ref.timestamps.tobytes(), count
            assert win.values.tobytes() == ref.values.tobytes(), count
            assert win.counts.tolist() == ref.counts.tolist(), count
            for i, topic in enumerate(self.asked):
                n = int(win.counts[i])
                try:
                    view = engine.query_relative(topic, window_ns)
                except QueryError:
                    assert n == 0, (topic, count)
                else:
                    assert n == len(view) > 0, (topic, count)
                    assert (
                        win.row_timestamps(i).tobytes()
                        == view.timestamps().tobytes()
                    )
                    assert win.row_values(i).tobytes() == view.values().tobytes()


def run_scenario(engine_cls, scenario):
    rig = SlabRig(engine_cls, scenario)
    rig.check()  # plans compiled over empty rings
    rig.store(scenario["history"])
    rig.check()
    # Mid-run: a ring emptied, one resized (out of its slab unless the
    # capacity is its own), one stale store, then more data everywhere.
    rig.rings[scenario["clear"]].clear()
    resized = rig.rings[scenario["resize"]]
    before = resized.slab
    resized.resize(scenario["capacity"])
    assert (resized.slab is before) == (scenario["capacity"] == scenario["cap"])
    stale = rig.rings[scenario["stale"]]
    if stale.newest_ts is not None:
        store(stale, stale.newest_ts - 1, -1.0)
        assert stale.stale_drops == 1
    rig.check()
    rig.store(scenario["more"])
    rig.check()
    return rig


@settings(max_examples=120, deadline=None)
@given(scenario=scenarios())
def test_slab_gather_is_the_per_row_loop(scenario):
    rig = run_scenario(QueryEngine, scenario)
    assert rig.engine.telemetry.counter("qe_plan_invalidations_total").value == 0


# ----------------------------------------------------------------------
# Seeded mutations: the property must notice each
# ----------------------------------------------------------------------


#: name -> (module, old, new): one source edit of the Query Engine or
#: of ``CacheSlab``'s span helper.
MUTATIONS = {
    "modulo-dropped": (
        cache_module,
        "start = (head - n) % cap  # the window wraps the ring",
        "start = head - n  # the window wraps the ring",
    ),
    "second-slice-dropped": (
        cache_module,
        "return ((start, cap), (0, head))",
        "return ((start, cap),)",
    ),
    "size-ignored": (
        queryengine,
        "held = min(slab.size, count or k, cap)",
        "held = min(count or k, cap)",
    ),
    "cut-from-the-last-slot": (
        queryengine,
        "bound = slab.newest - window_ns",
        "bound = int(tail[-1]) - window_ns",
    ),
    "epoch-ignored": (
        queryengine,
        "if any(slab.epoch != epoch for slab, epoch in plan.epochs):",
        "if False:",
    ),
    "rows-in-the-wrong-order": (
        queryengine,
        "rows = [cache.row for cache in caches]",
        "rows = sorted(cache.row for cache in caches)",
    ),
}


def mutant(monkeypatch, module, old, new):
    """The engine class a mutation runs with: a mutant ``QueryEngine``,
    or the real one over ``CacheSlab`` with a mutant span helper."""
    if module is queryengine:
        return mutant_engine((old, new))
    spans = mutant_module(module, (old, new)).CacheSlab.newest_spans
    monkeypatch.setattr(CacheSlab, "newest_spans", spans)
    return QueryEngine


#: Twelve rings in reverse order, four fills, one resized.
WRAPPED = {
    "rows": 12, "cap": 5, "history": [0, 4, 5, 11] * 3, "more": [3] * 12,
    "hinted": [True] * 6 + [False] * 6, "order": list(range(11, -1, -1)),
    "clear": 1, "resize": 7, "capacity": 9, "stale": 3,
}


def test_the_unmutated_copy_passes():
    run_scenario(mutant_engine(), WRAPPED)


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_seeded_mutation_fails_the_property(name, monkeypatch):
    engine_cls = mutant(monkeypatch, *MUTATIONS[name])

    @settings(
        max_examples=120, deadline=None, database=None,
        phases=[Phase.generate],  # found is enough: no shrinking
    )
    @given(scenario=scenarios())
    def prop(scenario):
        run_scenario(engine_cls, scenario)

    # Without its modulo a span runs off the ring, and its copy does not
    # fit the columns it is meant for: ValueError.
    with pytest.raises((AssertionError, ValueError)):
        prop()


# ----------------------------------------------------------------------
# What the slab itself promises
# ----------------------------------------------------------------------


class TestSlab:
    def test_a_ring_is_a_row_of_its_slab(self):
        slab = CacheSlab(3, 4)
        rings = slab.rings(interval_ns=STEP)
        assert [r.row for r in rings] == [0, 1, 2]
        assert all(r.slab is slab and r.capacity == 4 for r in rings)
        slab.store_column(5, [1.5, 2.5, 3.5])
        assert slab.ts.shape == (4,) and slab.ts[0] == 5  # one vector
        assert slab.val[0].tolist() == [1.5, 2.5, 3.5]  # one contiguous row
        assert [len(r) for r in rings] == [1, 1, 1]  # one ring state
        assert rings[1].latest() == (5, 2.5) and rings[1].newest_ts == 5
        assert all(r._ts is slab.ts for r in rings)
        assert rings[0].memory_bytes() == 4 * 8  # its value row
        assert slab.memory_bytes() == 4 * 8 + 3 * rings[0].memory_bytes()

    def test_a_stand_alone_cache_is_a_one_row_slab(self):
        cache = SensorCache(6, interval_ns=STEP)
        assert cache.row == 0 and cache.slab.ts.shape == (6,)
        assert cache.slab.val.shape == (6, 1)
        assert cache.slab.epoch == 0

    def test_resize_leaves_the_slab_and_moves_its_epoch(self):
        slab = CacheSlab(2, 4)
        ring, other = slab.rings()
        for ts in range(1, 7):
            slab.store_column(ts, [float(ts), -float(ts)])
        ring.resize(8)
        assert ring.slab is not slab and ring.row == 0 and slab.epoch == 1
        assert ring.view_absolute(0, 100).timestamps().tolist() == [3, 4, 5, 6]
        store(ring, 7, 7.0)
        assert slab.ts.max() == 6 and slab.val[:, 0].max() == 6.0  # nobody's row
        assert other.slab is slab and slab.bound == {1: other}
        assert other.view_absolute(0, 100).values().tolist() == [-3.0, -4.0, -5.0, -6.0]

    def test_resize_to_the_current_capacity_stays(self):
        slab = CacheSlab(2, 4)
        ring, _ = slab.rings()
        slab.store_column(1, [1.0, 2.0])
        ring.resize(4)
        assert ring.slab is slab and slab.epoch == 0 and len(ring) == 1

    def test_a_refused_resize_leaves_the_ring_alone(self):
        slab = CacheSlab(1, 4)
        (ring,) = slab.rings()
        with pytest.raises(ValueError):
            ring.resize(0)
        assert ring.slab is slab and slab.epoch == 0

    def test_a_ring_group_of_1_to_4_rows_is_one_slab_group(self):
        """However few rings share a slab and a count, hinted or timed,
        they are one :class:`SlabGroup`, read as the per-row loop reads
        them."""
        for rows in range(1, 5):
            for interval_ns in (STEP, 0):
                slab = CacheSlab(rows, 4)
                topics = [f"/s/{j}" for j in range(rows)]
                rings = slab.rings(interval_ns)
                engine = QueryEngine(Host(zip(topics, rings)))
                for i in range(1, 7):  # wrapped
                    slab.store_column(i * STEP, float(i) + np.arange(rows))
                rings[0].gap_ns = STEP  # what the agent's ingest loop measures
                plan = engine.compile_plan(topics[::-1], 2 * STEP)
                (group,) = plan.slab_groups
                assert group.slab is slab
                assert group.plan_rows == list(range(rows))
                win = engine._execute_plan(plan)
                ref = frozen_execute(engine, plan)
                assert win.timestamps.tobytes() == ref.timestamps.tobytes()
                assert win.values.tobytes() == ref.values.tobytes()
                assert win.counts.tolist() == ref.counts.tolist() == [3] * rows

    def test_a_timed_group_never_reads_past_the_ring(self):
        """``k`` may exceed what a ring can hold; ``tail_into`` clamped
        to the size, the slab gather clamps to the capacity."""
        rows, cap = 3, 3
        slab = CacheSlab(rows, cap)
        topics = [f"/s/{j}" for j in range(rows)]
        rings = slab.rings()
        engine = QueryEngine(Host(zip(topics, rings)))
        for ring in rings:
            ring.gap_ns = STEP
            for i in range(1, 6):
                store(ring, i * STEP, float(i))
        plan = engine.compile_plan(topics, 10 * STEP)  # k = 12 > cap
        win = engine._execute_plan(plan)
        assert win.width == 12 and win.counts.tolist() == [cap] * rows
        assert win.row_timestamps(0).tolist() == [30, 40, 50]
        assert win.timestamps.tobytes() == frozen_execute(engine, plan).timestamps.tobytes()


# ----------------------------------------------------------------------
# The aggregator pools by reshape
# ----------------------------------------------------------------------

AGGREGATES = (
    "mean std min max sum median count last delta rate q0 q50 q90 q100"
).split()
NOW = 1000 * NS_PER_SEC


def aggregator_rig(m, n, n_units, seed, short_row=False, short_unit=False):
    """``n_units`` units of ``m`` inputs holding ``n`` readings each
    (optionally one input a reading short, or one unit an input short),
    one output per aggregate."""
    rng = np.random.default_rng(seed)
    caches, units = {}, []
    for j in range(n_units):
        inputs = [f"/n{j}/in{i}" for i in range(m)]
        for topic in inputs:
            cache = caches[topic] = SensorCache(64, interval_ns=NS_PER_SEC)
            length = n - (short_row and topic == "/n0/in0")
            for i in range(length):
                store(
                    cache, NOW - (length - 1 - i) * NS_PER_SEC,
                    float(rng.normal(50.0, 20.0)),
                )
        if short_unit and j == n_units - 1:
            inputs = inputs[:-1]
        units.append(Unit(
            name=f"/n{j}", level=0, inputs=inputs,
            outputs=[
                Sensor(f"/n{j}/{op}", is_operator_output=True)
                for op in AGGREGATES
            ],
        ))
    host = Host(caches)
    op = AggregatorOperator(OperatorConfig(
        name="agg", window_ns=(n - 1) * NS_PER_SEC,
        params={"ops": {name: name for name in AGGREGATES}},
    ))
    op.bind(host, QueryEngine(host))
    op.set_units(units)
    return op, units


def as_bytes(results):
    """Emission order, names and the exact bits of every value."""
    return [
        (unit.name, list(values), np.array(list(values.values())).tobytes())
        for unit, values in results
    ]


@settings(max_examples=150, deadline=None)
@given(
    m=st.integers(1, 5), n=st.integers(1, 20), n_units=st.integers(1, 6),
    seed=st.integers(0, 2**16),
)
def test_pooling_by_reshape_is_pooling_by_concatenate(m, n, n_units, seed):
    op, units = aggregator_rig(m, n, n_units, seed)
    window, slices, _ = op.batch_window(units)
    result = op.compute_batch(units, window, slices)
    assert result.column_of is not None  # the matrix path
    ragged = op.compute_ragged(units, window, slices)
    assert len(ragged) == n_units and op.error_count == 0
    assert as_bytes(result.results()) == as_bytes(ragged)
    assert as_bytes(ragged) == as_bytes(op.compute_per_unit(units, NOW))


@pytest.mark.parametrize("short", ["short_row", "short_unit"])
@pytest.mark.parametrize("m", [2, 4])
def test_a_pass_that_is_not_uniform_takes_compute_ragged(m, short, monkeypatch):
    op, units = aggregator_rig(m, 6, 3, seed=5, **{short: True})
    ragged_calls = []
    compute_ragged = op.compute_ragged
    monkeypatch.setattr(
        op, "compute_ragged",
        lambda *args: ragged_calls.append(1) or compute_ragged(*args),
    )
    window, slices, _ = op.batch_window(units)
    result = op.compute_batch(units, window, slices)
    assert ragged_calls == [1] and isinstance(result, list)
    assert as_bytes(result) == as_bytes(op.compute_per_unit(units, NOW))


def test_the_layout_remembers_rows_per_unit():
    op, units = aggregator_rig(3, 4, 2, seed=1)
    _, slices, n = op.batch_window(units)
    assert op.rows_per_unit() == 3 and n == 0  # n is still "row j is unit j"
    assert [list(s) for s in slices] == [[0, 1, 2], [3, 4, 5]]
    op, units = aggregator_rig(1, 4, 2, seed=1)
    assert op.batch_window(units)[2] == 4 and op.rows_per_unit() == 1
    op, units = aggregator_rig(3, 4, 2, seed=1, short_unit=True)
    op.batch_window(units)
    assert op.rows_per_unit() == 0


# ----------------------------------------------------------------------
# Deployment level: exact counts
# ----------------------------------------------------------------------

NODES, CPUS = 2, 8
COUNTERS = ["cpu-cycles", "instructions", "cache-misses", "cache-references"]
CHAINS = 2 * len(COUNTERS)
#: The chains of one window variant are congruent: one stack each.
STACKS = 2


def inband_fused_spec():
    """The ``inband_fused`` ledger workload at 2 nodes x 8 cpus: per cpu
    smoother -> mean -> max chains ending in a per-node max (fused),
    perfmetrics ``cpi`` and a per-node sum over every cpu's counter."""

    def block(plugin, name, **fields):
        fields.setdefault("interval_s", 1)
        return {"plugin": plugin, "operators": {name: fields}}

    private = {"publish_outputs": False}
    pushers = []
    for v, (w_smooth, w_avg, w_peak) in enumerate([(10, 20, 30), (5, 15, 25)]):
        for c, counter in enumerate(COUNTERS):
            i = f"{c}{'ab'[v]}"
            pushers += [
                block("smoother", f"smooth{i}", window_s=w_smooth, **private,
                      inputs=[f"<bottomup>{counter}"],
                      outputs=[f"<bottomup>smooth{i}"]),
                block("aggregator", f"avg{i}", window_s=w_avg, **private,
                      inputs=[f"<bottomup>smooth{i}"],
                      outputs=[f"<bottomup>avg{i}"], params={"op": "mean"}),
                block("aggregator", f"peak{i}", window_s=w_peak, **private,
                      inputs=[f"<bottomup>avg{i}"],
                      outputs=[f"<bottomup>peak{i}"], params={"op": "max"}),
                block("aggregator", f"node-peak{i}", window_s=0,
                      inputs=[f"<bottomup>peak{i}"],
                      outputs=[f"<bottomup-1>node-peak{i}"],
                      params={"op": "max"}),
            ]
    pushers.append(block(
        "perfmetrics", "cpi", window_s=5,
        inputs=["<bottomup>cpu-cycles", "<bottomup>instructions"],
        outputs=["<bottomup>cpi"],
    ))
    pushers.append(block(
        "aggregator", "node-instr", window_s=5,
        inputs=["<bottomup>instructions"],
        outputs=["<bottomup-1>node-instr"], params={"op": "sum"},
    ))
    return {
        "cluster": {"nodes": NODES, "cpus": CPUS, "seed": 1},
        "monitoring": {
            "plugins": ["perfevent"], "perfevent_counters": COUNTERS,
            "interval_ms": 1000, "cache_window_s": 30,
        },
        "jobs": [{"app": "hpl", "nodes": NODES, "start_s": 1, "end_s": 300}],
        "analytics": {"pushers": pushers, "agent": []},
    }


class CallsInside:
    """Counts calls of ``inner`` made while ``outer`` is on the stack."""

    def __init__(self, monkeypatch, outer, inner):
        self.depth = 0
        self.outer_calls = 0
        self.inner_calls = 0
        outer_cls, outer_name = outer
        inner_cls, inner_name = inner
        outer_fn = getattr(outer_cls, outer_name)
        inner_fn = getattr(inner_cls, inner_name)

        def outer_wrapper(*args, **kwargs):
            self.outer_calls += 1
            self.depth += 1
            try:
                return outer_fn(*args, **kwargs)
            finally:
                self.depth -= 1

        def inner_wrapper(*args, **kwargs):
            if self.depth:
                self.inner_calls += 1
            return inner_fn(*args, **kwargs)

        monkeypatch.setattr(outer_cls, outer_name, outer_wrapper)
        monkeypatch.setattr(inner_cls, inner_name, inner_wrapper)


def test_no_row_is_touched_in_python_on_a_steady_state_tick(monkeypatch):
    dep = build_deployment(inband_fused_spec())
    dep.run(8)  # every ring holds data, every plan is compiled
    gather = CallsInside(
        monkeypatch, (QueryEngine, "_execute_plan"), (SensorCache, "tail_into")
    )
    pool = CallsInside(
        monkeypatch, (AggregatorOperator, "compute_batch"), (BatchWindow, "rows")
    )
    ring_rows = []
    execute = QueryEngine._execute_plan  # the counting wrapper
    monkeypatch.setattr(
        QueryEngine, "_execute_plan",
        lambda self, plan: ring_rows.append(plan.n_cache_rows) or execute(self, plan),
    )
    ticks = 5
    dep.run(ticks)
    # Stated beforehand.  Per Pusher and tick, plans over raw counters:
    # 8 first-stage smoothers x 8 cpus + cpi 2 x 8 + node-instr 8 = 88
    # ring rows in 4 plan runs — one per stack of 4 chains, cpi and
    # node-instr (the parent: one tail_into each) ...
    per_pusher = CHAINS * CPUS + 2 * CPUS + CPUS
    assert gather.outer_calls == ticks * NODES * (STACKS + 2)
    assert sum(ring_rows) == ticks * NODES * per_pusher == 880
    assert gather.inner_calls == 0
    # ... and 8 node-peak units + 1 node-instr unit of 8 inputs each,
    # a stack's 3 aggregator stages one kernel call each (the parent:
    # one BatchWindow.rows each, 90 here).
    assert pool.outer_calls == ticks * NODES * (3 * STACKS + 1)
    assert pool.inner_calls == 0
    for pusher in dep.pushers.values():
        slab_rows = sum(
            len(group.plan_rows)
            for plan in pusher.analytics.engine._plans.values()
            for group in plan.slab_groups
        )
        assert slab_rows == per_pusher
        assert slab_rows == pusher.telemetry.gauge("qe_plan_rows", kind="ring").value
        assert pusher.analytics.operator("node-instr").error_count == 0


# ----------------------------------------------------------------------
# The agent: first-arrival batches share a slab; a ring may outgrow it
# ----------------------------------------------------------------------


def ingest(agent, readings):
    ingest_passes(agent, [(topic, ts, float(ts)) for topic, ts in readings])


def assert_rows_are_scalar(engine, win, window_ns):
    for i, topic in enumerate(win.topics):
        view = engine.query_relative(topic, window_ns)
        assert win.row_timestamps(i).tobytes() == view.timestamps().tobytes()
        assert win.row_values(i).tobytes() == view.values().tobytes()


def test_a_first_arrival_batch_shares_a_slab_and_a_ring_may_outgrow_it():
    agent, engine = agent_with_engine(60 * NS_PER_SEC)
    window_ns = 10 * NS_PER_SEC
    topics = [f"/n/x{j}" for j in range(10)]
    ingest(agent, [(t, 0) for t in topics])
    caches = [agent.caches[t] for t in topics]
    slab = caches[0].slab
    assert all(c.slab is slab for c in caches)
    assert sorted(c.row for c in caches) == list(range(10))
    # A later batch brings its own first arrivals; the slab takes its
    # column as a whole.
    ingest(agent, [("/n/late", 0)] + [(t, NS_PER_SEC) for t in topics])
    assert agent.caches["/n/late"].slab is not slab
    assert all(c.slab is slab for c in caches) and len(caches[0]) == 2
    ingest(agent, [
        (t, i * NS_PER_SEC) for i in range(2, 30) for t in topics
    ])
    win = engine.query_relative_batch(topics, window_ns, key="op")
    assert win.counts.tolist() == [11] * 10 and win.width == 12
    plan = engine._plans["op"]
    assert [group.plan_rows for group in plan.slab_groups] == [list(range(10))]
    memory = agent.telemetry.gauge("cache_memory_bytes")
    before = memory.value
    # One topic speeds up to 10 Hz: brought alone, it leaves the slab
    # and its own slab grows.
    fast = caches[3]
    tenth = NS_PER_SEC // 10
    ingest(agent, [
        (topics[3], 29 * NS_PER_SEC + i * tenth) for i in range(1, 300)
    ])
    assert fast.slab is not slab and slab.epoch >= 1
    assert memory.value == before + fast.slab.memory_bytes()  # old row counted
    win = engine.query_relative_batch(topics, window_ns, key="op")
    assert win.counts.tolist() == [11] * 3 + [101] + [11] * 6
    assert win.width == 102
    assert_rows_are_scalar(engine, win, window_ns)
    assert len(plan.slab_groups) == 2  # the ring that left is a group of one
    telemetry = engine.telemetry
    assert telemetry.counter("qe_plan_compiles_total").value == 1
    assert telemetry.counter("qe_hint_violations_total").value == 0


# ----------------------------------------------------------------------
# One time vector per group: every stamp accessor is the frozen matrix
# ----------------------------------------------------------------------


class Store:
    """A storage backend over fixed series: what the scalar path reads
    for a topic the host has no cache for."""

    def __init__(self, series):
        self.series = series  # topic -> (timestamps, values)

    def __contains__(self, topic):
        return topic in self.series

    def latest(self, topic):
        ts, val = self.series.get(topic, ((), ()))
        return SensorReading(int(ts[-1]), float(val[-1])) if len(ts) else None

    def query(self, topic, start, end):
        ts, val = self.series[topic]
        keep = (ts >= start) & (ts <= end)
        return ts[keep], val[keep]


def assert_stamps_are_the_matrix(win, ref, where):
    """The lazy matrix, each row's segment, ``rows()``, the newest stamp
    and the spans of a window against the frozen loop's matrix."""
    matrix, width = ref.timestamps, ref.width
    assert win.timestamps.tobytes() == matrix.tobytes(), where
    assert win.newest_timestamps().tobytes() == matrix[:, -1].tobytes(), where
    got = win.rows(range(len(win)))
    for i, (topic, ts, values) in enumerate(got):
        lo = width - int(ref.counts[i])
        assert topic == ref.topics[i], where
        assert ts.tobytes() == matrix[i, lo:].tobytes(), (where, i)
        assert win.row_timestamps(i).tobytes() == ts.tobytes(), (where, i)
        assert values.tobytes() == ref.values[i, lo:].tobytes(), (where, i)
    full = np.flatnonzero(ref.counts > 0)
    if len(full):
        oldest = matrix[full, width - ref.counts[full]]
        assert win.spans(full).tolist() == (matrix[full, -1] - oldest).tolist()


@st.composite
def stamp_scenarios(draw):
    """A slab scenario plus storage-only topics (scalar rows, some longer
    than any ring) and an observed gap 1-3 steps wide: a gap wider than
    the true one makes timed groups fail their check and be re-read."""
    scenario = draw(scenarios())
    scenario["stored"] = draw(st.lists(st.integers(0, 30), max_size=3))
    scenario["gap"] = draw(st.integers(1, 3)) * STEP
    return scenario


@settings(max_examples=120, deadline=None)
@given(scenario=stamp_scenarios())
def test_every_stamp_accessor_is_the_per_row_matrix(scenario):
    rig = SlabRig(QueryEngine, scenario)
    series = {}
    for j, n in enumerate(scenario["stored"]):
        ts = np.arange(1, n + 1, dtype=np.int64) * STEP + 2000
        series[f"/s/stored{j}"] = (ts, ts.astype(np.float64) / 7)
    rig.host.storage = Store(series)
    rig.asked += tuple(series)  # scalar rows after the ring rows
    rig.store(scenario["history"])
    rig.rings[scenario["clear"]].clear()  # emptied: re-read
    rig.store(scenario["more"])
    for ring in rig.rings:
        if not ring.interval_ns and len(ring) > 1:
            ring.gap_ns = scenario["gap"]
    for count in range(1, scenario["cap"] + 4):
        window_ns = (count - 1) * STEP
        plan = rig.engine.plan_for(("stamps", count), rig.asked, window_ns)
        win = rig.engine._execute_plan(plan)
        ref = frozen_execute(rig.engine, plan)
        assert win.values.tobytes() == ref.values.tobytes(), count
        assert win.counts.tolist() == ref.counts.tolist(), count
        assert_stamps_are_the_matrix(win, ref, count)


def test_a_scalar_row_wider_than_the_plan_pads_every_vector():
    """A storage row longer than the rings widens the window: the ring
    group's vector is padded on the left like its values."""
    slab = CacheSlab(2, 3)
    rings = slab.rings(interval_ns=STEP)
    for i in range(1, 5):
        slab.store_column(i * STEP, [float(i), -float(i)])
    host = Host(zip(["/s/a", "/s/b"], rings))
    ts = np.arange(1, 9, dtype=np.int64) * STEP
    host.storage = Store({"/s/far": (ts, ts / 3.0)})
    engine = QueryEngine(host)
    plan = engine.compile_plan(["/s/a", "/s/far", "/s/b"], 7 * STEP)
    win = engine._execute_plan(plan)
    assert win.width == 8 and win.counts.tolist() == [3, 8, 3]
    assert win.row_timestamps(0).tolist() == [20, 30, 40]
    assert_stamps_are_the_matrix(win, frozen_execute(engine, plan), "pad")


@pytest.mark.parametrize("hinted", [True, False], ids=["count", "time"])
def test_a_steady_gather_allocates_no_per_row_timestamp_matrix(hinted):
    """384 rings of one slab read 12 readings each: the gather allocates
    the value matrix and one time vector, never a rows x width int64
    matrix beside it (a Collect Agent's time window the same)."""
    rows, width = 384, 12
    slab = CacheSlab(rows, 32)
    rings = slab.rings(interval_ns=STEP if hinted else 0)
    topics = [f"/n/c{j}" for j in range(rows)]
    engine = QueryEngine(Host(zip(topics, rings)))
    for i in range(1, 40):
        slab.store_column(i * STEP, np.arange(rows) + float(i))
    slab.gap = STEP
    window_ns = (width - 1) * STEP
    plan = engine.plan_for("steady", topics, window_ns)
    engine._execute_plan(plan)  # warm: nothing compiled or grouped below
    matrix = rows * (width if hinted else width + 1) * 8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        win = engine._execute_plan(plan)
        peak = tracemalloc.get_traced_memory()[1] - before
        held = [t.size for t in tracemalloc.take_snapshot().traces if t.size >= matrix]
    finally:
        tracemalloc.stop()
    assert win.counts.tolist() == [width] * rows
    assert held == [matrix]  # the values, and nothing of their size beside
    assert peak < 1.5 * matrix
