"""The row contract of the batched gather, under every arrival pattern.

Row ``i`` of ``query_relative_batch(topics, W)`` is what
``query_relative(topics[i], W)`` returns at that instant, bit for bit —
on a Collect Agent too, whose caches carry no interval hint and are
gathered off the ring on the strength of an *observed* arrival gap.
Random arrival programs run into a real :class:`CollectAgent`: steady,
jittered, missed, bursty, duplicate, stale and 1-ns-apart readings, a
cadence that speeds up mid-run (so ``resize`` and a shrinking gap happen
between two gathers of one plan), operator outputs, storage-only
topics, topics that first arrive long after the plans were compiled — a
40 ns cache window so rings wrap, and windows of 0, less than a gap,
several gaps and more than a ring holds.  After every step every window
is gathered both ways and compared.

Two seeded mutations of the slab kernel of ``core/queryengine.py``,
which reads every ring row (the per-slab cut made exclusive; ``k``
short by two with the per-group verification off), must fail the same
property, and two deployments pin it end to end: a cold-built
agent pipeline, and an ``agent_holistic``-shaped spec through a network
outage with spill replay, against a twin whose agent operators run the
per-unit reference (``OperatorBase.compute_per_unit``: plain
``query_relative`` per input).
"""

import copy
import inspect
import json
import pathlib
import types

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.common.errors import QueryError
from repro.common.timeutil import NS_PER_SEC
from repro.core import queryengine
from repro.core.queryengine import _ROW_CACHE, QueryEngine
from repro.dcdb import Broker, CollectAgent
from repro.dcdb.cache import NO_GAP
from repro.dcdb.sensor import Sensor
from repro.deploy import build_deployment
from repro.simulator.clock import TaskScheduler
from tests.hosts import (
    ingest_passes, insert_passes, one, series, store, store_one,
)

REMOTE = ["/r/a", "/r/b", "/r/c", "/r/d"]
TOPICS = tuple(REMOTE + ["/r/never"])
CADENCES = {"/r/a": 10, "/r/b": 10, "/r/c": 4, "/r/d": 25}
CACHE_WINDOW_NS = 40  # rings of 4..50 readings: they grow *and* wrap
WINDOWS = (0, 3, 20, 45, 400)  # the last reaches past any ring here
NEVER = 10**15
COUNTERS = (
    "qe_cache_hits_total", "qe_storage_fallbacks_total", "qe_misses_total",
)
#: Steps after which a row may legitimately fail its per-pass check.
DIRTY = {"duplicate", "glitch"}

_topic = st.sampled_from(REMOTE)
_steady = st.tuples(st.just("steady"), _topic, st.integers(1, 6))  # one drain
_step = st.one_of(
    _steady, _steady, _steady,  # mostly data, so windows and rings fill
    st.tuples(st.just("jitter"), _topic, st.integers(-3, 3)),
    st.tuples(st.just("miss"), _topic, st.integers(1, 6)),
    st.tuples(st.just("duplicate"), _topic, st.none()),
    st.tuples(st.just("stale"), _topic, st.integers(1, 30)),
    st.tuples(st.just("glitch"), _topic, st.none()),
    st.tuples(st.just("speedup"), _topic, st.none()),
    st.tuples(st.just("output"), _topic, st.none()),
    st.tuples(st.just("storage-only"), _topic, st.none()),
)
PROGRAM = st.lists(_step, min_size=1, max_size=40)


class Rig:
    """A real agent fed by a program, and an engine over it."""

    def __init__(self, engine_cls):
        self.scheduler = TaskScheduler()
        self.broker = Broker()
        self.agent = CollectAgent(
            "agent", self.broker, self.scheduler,
            cache_window_ns=CACHE_WINDOW_NS, drain_interval_ns=NEVER,
        )
        self.scheduler.run_until(0)  # the drain task's firing at t=0
        self.engine = engine_cls(self.agent)
        self.cadence = dict(CADENCES)
        self.clock = dict.fromkeys(REMOTE, 1000)
        self.value = 0.0  # every reading carries a distinct value

    def _next_value(self):
        self.value += 1.0
        return self.value

    def _arrive(self, topic, *timestamps):
        for ts in timestamps:
            self.broker.publish_batch(one(topic, self._next_value(), ts))
        self.agent.flush()

    def play(self, kind, topic, arg):
        cadence, now = self.cadence[topic], self.clock[topic]
        if kind == "steady":
            self._arrive(topic, *(now + cadence * (i + 1) for i in range(arg)))
            self.clock[topic] = now + cadence * arg
        elif kind == "jitter":
            self.clock[topic] = now + cadence + arg * cadence // 10
            self._arrive(topic, self.clock[topic])
        elif kind == "miss":
            self.clock[topic] = now + cadence * arg
        elif kind == "duplicate":
            self._arrive(topic, now)
        elif kind == "stale":  # older than what the cache holds: dropped
            cache = self.agent.cache_for(topic)
            if cache is not None:
                self._arrive(topic, cache.newest_ts - arg)
        elif kind == "glitch":
            self.clock[topic] = now + 1
            self._arrive(topic, now + 1)
        elif kind == "speedup":
            self.cadence[topic] = max(2, cadence // 2)
        elif kind == "output":
            self.clock[topic] = now + cadence
            store_one(
                self.agent, Sensor(topic), self.clock[topic], self._next_value()
            )
        else:  # storage-only: the backend has it, no cache was written
            self.clock[topic] = now + cadence
            insert_passes(
                self.agent.storage,
                [(topic, self.clock[topic], self._next_value())],
            )

    def counters(self):
        telemetry = self.engine.telemetry
        return [telemetry.counter(name).value for name in COUNTERS]

    @property
    def violations(self):
        return self.engine.telemetry.counter("qe_hint_violations_total").value


def check_rows(rig, window_ns):
    """One batched gather against one scalar query per topic."""
    engine, agent = rig.engine, rig.agent
    before = rig.counters()
    win = engine.query_relative_batch(TOPICS, window_ns, key=("probe", window_ns))
    batched = [b - a for a, b in zip(before, rig.counters())]
    assert win.values.shape == win.timestamps.shape == (len(TOPICS), win.width)
    before = rig.counters()
    for i, topic in enumerate(TOPICS):
        n = int(win.counts[i])
        try:
            view = engine.query_relative(topic, window_ns)
        except QueryError:
            assert n == 0, (topic, window_ns)  # QueryError <=> empty row
        else:
            assert n == len(view) > 0, (topic, window_ns)
            assert win.row_timestamps(i).tobytes() == view.timestamps().tobytes()
            assert win.row_values(i).tobytes() == view.values().tobytes()
        assert np.isnan(win.values[i, :win.width - n]).all()
        assert not win.timestamps[i, :win.width - n].any()
    scalar = [b - a for a, b in zip(before, rig.counters())]
    assert batched == scalar, (window_ns, dict(zip(COUNTERS, batched)))
    # Replace, not fork: a topic the host caches is a ring row, always.
    plan = engine._plans[("probe", window_ns)]
    for (kind, _, _), topic in zip(plan.rows, TOPICS):
        assert (kind == _ROW_CACHE) == (agent.cache_for(topic) is not None)
    assert plan.n_cache_rows == len(agent.caches)


def run_program(engine_cls, steps, check_violations=True):
    rig = Rig(engine_cls)
    clean = True
    for window_ns in WINDOWS:  # compiled before anything has arrived
        check_rows(rig, window_ns)
    for kind, topic, arg in steps:
        rig.play(kind, topic, arg)
        clean = clean and kind not in DIRTY
        for window_ns in WINDOWS:
            check_rows(rig, window_ns)
        if check_violations and clean:
            assert rig.violations == 0
    return rig


@settings(max_examples=250, deadline=None)
@given(steps=PROGRAM)
def test_batched_rows_are_the_scalar_rows(steps):
    run_program(QueryEngine, steps)


@settings(max_examples=60, deadline=None)
@given(steps=PROGRAM)
def test_contract_holds_when_the_speculative_read_is_capped(steps):
    """A cap of 3 readings makes most rows fail their check: every one
    is re-read alone and the matrix widened to the longest of them."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(queryengine, "_MAX_SPECULATIVE_READ", 3)
        run_program(QueryEngine, steps, check_violations=False)


# ----------------------------------------------------------------------
# Seeded mutations: the property must notice each
# ----------------------------------------------------------------------


def mutant_module(module, *edits):
    """A fresh copy of ``module`` with each ``(old, new)`` source edit
    applied (each ``old`` must occur exactly once)."""
    source = inspect.getsource(module)
    for old, new in edits:
        assert source.count(old) == 1, old
        source = source.replace(old, new)
    mutant = types.ModuleType(module.__name__.rpartition(".")[2] + "_mutant")
    exec(compile(source, module.__file__, "exec"), mutant.__dict__)
    return mutant


def mutant_engine(*edits):
    """``QueryEngine`` from ``core/queryengine.py`` with each ``(old,
    new)`` source edit applied."""
    return mutant_module(queryengine, *edits).QueryEngine


MUTATIONS = {
    "exclusive-cut": [
        ('int(tail[a:b].searchsorted(bound, side="left"))',
         'int(tail[a:b].searchsorted(bound, side="right"))'),
    ],
    "k-short-by-two-unverified": [
        ("k = min(window_ns // gap + 2, _MAX_SPECULATIVE_READ)",
         "k = min(window_ns // gap, _MAX_SPECULATIVE_READ)"),
        ("elif not group.count and n == k and group.slab.size > k:",
         "elif False:"),
    ],
}

STEADY = [("steady", topic, 4) for topic in REMOTE] * 3


def test_the_unmutated_copy_passes():
    run_program(mutant_engine(), STEADY)


def test_contract_holds_when_every_ring_is_a_slab_group():
    """The control of the mutations below: the copy they are made from,
    unmutated, meets the contract — the slab kernel reads every ring
    row, a ring alone on its slab as a group of one."""
    engine_cls = mutant_engine()

    @settings(max_examples=120, deadline=None)
    @given(steps=PROGRAM)
    def prop(steps):
        run_program(engine_cls, steps)

    prop()


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_seeded_mutation_fails_the_property(name):
    engine_cls = mutant_engine(*MUTATIONS[name])

    @settings(
        max_examples=250, deadline=None, database=None,
        phases=[Phase.generate],  # found is enough: no shrinking
    )
    @given(steps=PROGRAM)
    def prop(steps):
        run_program(engine_cls, steps)

    with pytest.raises(AssertionError):
        prop()


# ----------------------------------------------------------------------
# What the random programs can only hit by luck
# ----------------------------------------------------------------------


def agent_with_engine(cache_window_ns):
    scheduler = TaskScheduler()
    agent = CollectAgent(
        "agent", Broker(), scheduler, cache_window_ns=cache_window_ns,
        drain_interval_ns=NEVER,
    )
    return agent, QueryEngine(agent)


def ingest(agent, topic, timestamps):
    ingest_passes(agent, series(topic, timestamps, timestamps))


def assert_row_is_scalar(engine, win, i, window_ns):
    view = engine.query_relative(win.topics[i], window_ns)
    assert np.array_equal(win.row_timestamps(i), view.timestamps())
    assert np.array_equal(win.row_values(i), view.values())


class TestTimeWindowRows:
    def test_gap_is_kept_on_the_cache_by_the_ingest_loop(self):
        agent, _ = agent_with_engine(180 * NS_PER_SEC)
        ingest(agent, "/n/x", [0])
        assert agent.caches["/n/x"].gap_ns == NO_GAP
        ingest(agent, "/n/x", [0, 3 * NS_PER_SEC])  # a duplicate says nothing
        assert agent.caches["/n/x"].gap_ns == 3 * NS_PER_SEC
        ingest(agent, "/n/x", [4 * NS_PER_SEC, 9 * NS_PER_SEC])
        assert agent.caches["/n/x"].gap_ns == NS_PER_SEC
        assert agent.caches["/n/x"].interval_ns == 0  # never published as one

    def test_faster_cadence_and_resize_need_no_recompile(self):
        agent, engine = agent_with_engine(60 * NS_PER_SEC)
        window_ns = 10 * NS_PER_SEC
        ingest(agent, "/n/x", [i * NS_PER_SEC for i in range(30)])
        cache = agent.caches["/n/x"]
        win = engine.query_relative_batch(["/n/x"], window_ns, key="op")
        assert win.counts.tolist() == [11] and win.width == 12
        capacity = cache.capacity
        tenth = NS_PER_SEC // 10
        ingest(agent, "/n/x", [29 * NS_PER_SEC + i * tenth for i in range(1, 300)])
        assert cache.capacity > capacity and cache.gap_ns == tenth
        win = engine.query_relative_batch(["/n/x"], window_ns, key="op")
        assert win.counts.tolist() == [101] and win.width == 102
        assert_row_is_scalar(engine, win, 0, window_ns)
        telemetry = engine.telemetry
        assert telemetry.counter("qe_plan_compiles_total").value == 1
        assert telemetry.counter("qe_hint_violations_total").value == 0

    def test_one_glitch_does_not_size_the_matrix(self):
        agent, engine = agent_with_engine(180 * NS_PER_SEC)
        window_ns = 10 * NS_PER_SEC
        ingest(agent, "/n/x", [i * NS_PER_SEC for i in range(20)])
        ingest(agent, "/n/x", [19 * NS_PER_SEC + 1])  # gap pinned at 1 ns
        ingest(agent, "/n/x", [(20 + i) * NS_PER_SEC for i in range(20)])
        assert agent.caches["/n/x"].gap_ns == 1
        win = engine.query_relative_batch(["/n/x"], window_ns, key="op")
        assert win.width == queryengine._MAX_SPECULATIVE_READ
        assert win.counts.tolist() == [11]
        assert_row_is_scalar(engine, win, 0, window_ns)
        assert engine.telemetry.counter("qe_hint_violations_total").value == 0

    def test_capped_row_is_reread_at_its_exact_length(self):
        """More readings inside the window than the cap: the row fails
        its check, is re-read alone, and its length — not the ring's —
        widens the matrix; its neighbour stays right-aligned."""
        agent, engine = agent_with_engine(10_000)
        cap = queryengine._MAX_SPECULATIVE_READ
        ingest(agent, "/n/dense", range(1, cap + 2000))
        ingest(agent, "/n/sparse", [100, 2100, 4100])
        assert len(agent.caches["/n/dense"]) > cap + 1000
        topics, window_ns = ["/n/dense", "/n/sparse"], cap + 900
        for expected_violations in (1, 2):  # every pass, not just the first
            win = engine.query_relative_batch(topics, window_ns, key="op")
            assert win.counts.tolist() == [window_ns + 1, 3]
            assert win.width == window_ns + 1
            for i in range(2):
                assert_row_is_scalar(engine, win, i, window_ns)
            assert np.isnan(win.values[1, :-3]).all()
            violations = engine.telemetry.counter("qe_hint_violations_total")
            assert violations.value == expected_violations

    def test_unmeasured_cache_is_still_exact(self):
        """A cache somebody stored to behind the host's back has no gap:
        gathered short, caught by the check, re-read."""
        agent, engine = agent_with_engine(180 * NS_PER_SEC)
        ingest(agent, "/n/x", [0])
        for i in range(1, 8):
            store(agent.caches["/n/x"], i * NS_PER_SEC, float(i))
        win = engine.query_relative_batch(["/n/x"], 4 * NS_PER_SEC, key="op")
        assert win.counts.tolist() == [5]
        assert_row_is_scalar(engine, win, 0, 4 * NS_PER_SEC)
        assert engine.telemetry.counter("qe_hint_violations_total").value == 1


# ----------------------------------------------------------------------
# Deployment level (no timing)
# ----------------------------------------------------------------------

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"
HORIZON = 10**18


def build_with_per_unit_twin(spec):
    """The deployment, and the same deployment with every agent operator
    on the per-unit reference: ``OperatorBase.compute_per_unit`` —
    ``compute_unit`` per unit, i.e. one plain ``query_relative`` per
    input.  The twin's ``run`` checks that it stayed one: no operator
    plan was ever compiled on its agent."""
    dep = build_deployment(copy.deepcopy(spec))
    twin = build_deployment(copy.deepcopy(spec))
    for op in twin.agent_manager.operators():
        op._compute_results = lambda ts, source, op=op: op.compute_per_unit(
            op._due_units(), ts
        )
    run = twin.run

    def run_plan_free(seconds):
        run(seconds)
        planned = set(twin.agent_manager.engine._plans)
        assert not planned & {
            f"operator:{op.name}" for op in twin.agent_manager.operators()
        }

    twin.run = run_plan_free
    return dep, twin


def assert_same_stored_series(dep, twin, expect_outputs_of):
    storage, reference = dep.agent.storage, twin.agent.storage
    assert sorted(storage.topics()) == sorted(reference.topics())
    for topic in storage.topics():
        got_ts, got = storage.query(topic, 0, HORIZON)
        want_ts, want = reference.query(topic, 0, HORIZON)
        assert got_ts.tobytes() == want_ts.tobytes(), topic
        assert got.tobytes() == want.tobytes(), topic
    for a, b in zip(dep.agent_manager.operators(), twin.agent_manager.operators()):
        assert a.stats()["errors"] == b.stats()["errors"], a.name
        assert a.stats()["unit_results"] == b.stats()["unit_results"] > 0, a.name
    outputs = {
        sensor.topic
        for op in dep.agent_manager.operators()
        if op.name in expect_outputs_of
        for unit in op.units for sensor in unit.outputs
    }
    assert outputs and outputs <= set(storage.topics())


def assert_every_cached_topic_is_ring_bound(dep):
    agent, engine = dep.agent, dep.agent_manager.engine
    assert engine._plans
    for plan in engine._plans.values():
        for (kind, _, _), topic in zip(plan.rows, plan.topics):
            assert (kind == _ROW_CACHE) == (agent.cache_for(topic) is not None)
    assert engine.telemetry.counter("qe_hint_violations_total").value == 0


def test_agent_plan_compiled_before_the_first_arrival_heals():
    """Failing-before: the agent has storage, so a topic with no cache
    *yet* was bound scalar — not a miss — and only miss rows were ever
    probed: a cold-built agent block whose first pass beat its inputs'
    first arrival stayed on the scalar path for life."""
    spec = json.loads((EXAMPLES / "cross_host_pipeline.json").read_text())
    del spec["analytics"]["agent"][0]["operators"]["rack-power"]["delay_s"]
    dep, twin = build_with_per_unit_twin(spec)
    dep.run(6)
    twin.run(6)
    engine = dep.agent_manager.engine
    plan = engine._plans["operator:rack-power"]
    assert plan.n_cache_rows == len(plan.rows) == 2 and not plan.unbound
    # The pass before anything had arrived compiled it, the first pass
    # after recompiled it — once, for good.
    assert engine.telemetry.counter("qe_plan_compiles_total").value == 2
    assert engine.telemetry.counter("qe_plan_invalidations_total").value == 1
    assert_every_cached_topic_is_ring_bound(dep)
    assert_same_stored_series(dep, twin, {"rack-power"})


def _block(plugin, name, **fields):
    return {"plugin": plugin, "operators": {name: dict(interval_s=1, **fields)}}


HOLISTIC = {
    "cluster": {
        "racks": 2, "chassis_per_rack": 1, "nodes_per_chassis": 2,
        "cpus": 2, "seed": 11,
    },
    "monitoring": {
        "plugins": ["sysfs", "perfevent"],
        "perfevent_counters": ["cpu-cycles", "instructions"],
        "interval_ms": 1000, "cache_window_s": 30,
    },
    "jobs": [
        {"id": "job0", "app": "hpl", "nodes": 2, "start_s": 0, "end_s": 10**6},
        {"id": "job1", "app": "lammps", "nodes": 2, "start_s": 0, "end_s": 10**6},
    ],
    # Irregular arrival at the agent: five seconds of nothing, then the
    # spill replayed in one burst; jitter reorders messages in flight.
    "network": {
        "latency_ms": 5, "jitter_ms": 4, "seed": 3,
        "outages": [{"start_s": 12, "end_s": 17}],
        "spill": {"retry_base_ms": 400},
    },
    "analytics": {
        "pushers": [_block(
            "perfmetrics", "cpi", window_s=5,
            inputs=["<bottomup>cpu-cycles", "<bottomup>instructions"],
            outputs=["<bottomup>cpi"],
        )],
        "agent": [
            _block("persyst", "job-cpi", window_s=5, relaxed=True,
                   inputs=["<bottomup>cpi"]),
            _block("smoother", "cpi-smooth", window_s=20, relaxed=True,
                   inputs=["<bottomup>cpi"], outputs=["<bottomup>cpi-smooth"]),
            _block("aggregator", "instr-rate", window_s=10,
                   inputs=["<bottomup>instructions"],
                   outputs=["<bottomup>instr-rate"], params={"op": "rate"}),
            _block("aggregator", "node-cpi", window_s=10, relaxed=True,
                   inputs=["<bottomup>cpi"], outputs=["<bottomup-1>node-cpi"],
                   params={"op": "mean"}),
            _block("aggregator", "rack-power", window_s=0,
                   inputs=["<bottomup-1>power"], outputs=["<topdown>rack-power"],
                   params={"op": "sum"}),
            _block("health", "node-health", window_s=10,
                   inputs=["temp", "power"], outputs=["<bottomup-1>healthy"],
                   params={"bounds": {"temp": [None, 95.0],
                                      "power": [None, 2000.0]}}),
        ],
    },
}


def test_holistic_agent_through_an_outage_matches_the_per_unit_reference():
    dep, twin = build_with_per_unit_twin(HOLISTIC)
    dep.run(30)
    twin.run(30)
    replayed = sum(
        pusher.telemetry.get("spill_replayed_total").value
        for pusher in dep.pushers.values()
    )
    assert replayed > 0  # the outage really made arrival irregular
    assert_every_cached_topic_is_ring_bound(dep)
    assert_same_stored_series(
        dep, twin,
        {"cpi-smooth", "instr-rate", "node-cpi", "rack-power", "node-health"},
    )
