"""A stack of fused lanes against one fused group per lane, bit for bit.

The planner stacks congruent chains so that each stage makes one gather
and one kernel call over every lane's units.  Stacking must not be
observable: whatever happens to one lane — a quarantined unit, an input
that makes its kernel raise, the operator stopped (what the manager's
``stop_operator`` does) and started again, ``set_units`` dropping a
unit — the stack stores exactly the series, and every operator keeps
exactly the bookkeeping, that the same chains store and keep when each
runs as a group of its own over the same input stream.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.common.timeutil import NS_PER_SEC
from repro.core.fusion import FusedGroup
from repro.core.operator import OperatorConfig
from repro.core.queryengine import QueryEngine
from repro.plugins.aggregator import AggregatorOperator
from repro.plugins.smoother import SmootherOperator
from tests.test_pipeline_fusion import Host, PoisonableAggregator, unit_for

#: A reading this large makes the middle stage's kernel raise while it
#: is in that stage's window.
POISON = 500.0
EVENTS = ("trip", "poison", "stop", "start", "churn")


def build(lane_units, cadence, aggregating=()):
    """One host running ``len(lane_units)`` chains, lane ``j`` of
    ``lane_units[j]`` units: smoother -> poisonable mean -> max; the
    max of each lane in ``aggregating`` also stores the mean of its
    units' outputs as an operator-level output."""
    host = Host([
        f"/n{i}/p{j}" for j, n in enumerate(lane_units) for i in range(n)
    ])
    engine = QueryEngine(host)
    chains = []
    for j, n in enumerate(lane_units):
        stages = [
            (SmootherOperator, {"window_ns": 3 * NS_PER_SEC}, "p", "sm"),
            (PoisonableAggregator, {"window_ns": 4 * NS_PER_SEC,
                                    "params": {"op": "mean"}}, "sm", "ag"),
            (AggregatorOperator, {"window_ns": 6 * NS_PER_SEC,
                                  "params": {"op": "max"}}, "ag", "mx"),
        ]
        chain = []
        for cls, fields, in_name, out_name in stages:
            extra = (
                {"operator_outputs": [f"mx{j}"]}
                if out_name == "mx" and j in aggregating else {}
            )
            op = cls(OperatorConfig(
                name=f"{out_name}{j}", unit_cadence=cadence,
                publish_outputs=out_name == "mx", **fields, **extra,
            ))
            op.bind(host, engine)
            op.set_units([
                unit_for(i, f"{in_name}{j}", f"{out_name}{j}") for i in range(n)
            ])
            op.start()
            chain.append(op)
        chains.append(chain)
    return host, engine, chains


def apply(event, chains, poisoned) -> None:
    kind, lane, stage, _tick, pick = event
    op = chains[lane][stage]
    if kind == "trip" and op.units:
        op.set_breaker(op.units[pick % len(op.units)].name, "trip")
    elif kind == "poison":
        poisoned.add((lane, pick))
    elif kind == "stop":
        op.stop()
    elif kind == "start":
        op.start()
    elif kind == "churn" and len(op.units) > 1:
        op.set_units(op.units[:-1])


def bookkeeping(op):
    return (
        op.compute_count, op.unit_results_count, op.error_count,
        tuple(op.last_errors), tuple(op.quarantined_units()),
    )


def stored(host):
    return {
        topic: [(ts, float(v).hex()) for ts, v in series]
        for topic, series in host.stored.items()
    }


@st.composite
def scenarios(draw):
    lanes = draw(st.integers(1, 4))
    lane_units = draw(st.lists(st.integers(1, 5), min_size=lanes,
                               max_size=lanes))
    ticks = draw(st.integers(6, 20))
    events = draw(st.lists(
        st.tuples(
            st.sampled_from(EVENTS), st.integers(0, lanes - 1),
            st.integers(0, 2), st.integers(1, ticks), st.integers(0, 4),
        ),
        max_size=5,
    ))
    return lane_units, draw(st.integers(1, 3)), ticks, events


def run_both(scenario, seed, aggregating=()):
    """The scenario on a stack and on one group per lane; the two hosts
    and the two sets of chains."""
    lane_units, cadence, ticks, events = scenario
    stacked_host, stacked_engine, stacked = build(lane_units, cadence, aggregating)
    lone_host, lone_engine, lone = build(lane_units, cadence, aggregating)
    stack = FusedGroup("t:stack", stacked, stacked_host, stacked_engine)
    groups = [
        FusedGroup(f"t:lane{j}", chain, lone_host, lone_engine)
        for j, chain in enumerate(lone)
    ]
    rng = np.random.default_rng(seed)
    poisoned = set()
    for tick in range(1, ticks + 1):
        for event in events:
            if event[3] == tick:
                apply(event, stacked, poisoned)
                apply(event, lone, set())
        ts = tick * NS_PER_SEC
        for j, n in enumerate(lane_units):
            for i in range(n):
                value = float(rng.random())
                if (j, i) in poisoned:
                    value = POISON
                stacked_host.feed(ts, f"/n{i}/p{j}", value)
                lone_host.feed(ts, f"/n{i}/p{j}", value)
        poisoned.clear()
        stack.run(ts)
        for group in groups:
            group.run(ts)
    return stacked_host, lone_host, stacked, lone


def assert_same(stacked_host, lone_host, stacked, lone):
    assert stored(stacked_host) == stored(lone_host)
    for s_chain, l_chain in zip(stacked, lone):
        for s_op, l_op in zip(s_chain, l_chain):
            assert bookkeeping(s_op) == bookkeeping(l_op), s_op.name


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenarios(), st.integers(0, 2**32 - 1))
def test_a_stack_is_its_lanes_run_one_group_each(scenario, seed):
    assert_same(*run_both(scenario, seed))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenarios(), st.integers(0, 2**32 - 1), st.data())
def test_a_lanes_operator_outputs_are_its_lone_chains(scenario, seed, data):
    """A lane whose final operator has operator-level outputs stores
    them through its own operator, as its lone chain does."""
    lanes = len(scenario[0])
    aggregating = data.draw(st.sets(st.integers(0, lanes - 1), min_size=1))
    stacked_host, lone_host, stacked, lone = run_both(scenario, seed, aggregating)
    assert_same(stacked_host, lone_host, stacked, lone)
    for j in aggregating:  # a lane whose max produced stored its mean
        if lone[j][-1].unit_results_count:
            assert f"/analytics/mx{j}/mx{j}" in stored(stacked_host)


def test_a_steady_stacked_final_stage_stores_once_a_pass():
    """Four lanes, no event: once the windows are full every pass of
    the final stage is one host store, and a lane with operator-level
    outputs adds its one."""
    for aggregating, per_pass in (((), 1), ((2,), 2)):
        host, engine, chains = build([3, 3, 3, 3], 1, aggregating)
        stack = FusedGroup("t:stack", chains, host, engine)
        rng = np.random.default_rng(5)
        stores = []
        record = host.store_readings_batch

        def counting(ts, readings, record=record, stores=stores):
            stores.append(ts)
            record(ts, readings)

        host.store_readings_batch = counting
        for tick in range(1, 16):
            ts = tick * NS_PER_SEC
            for j in range(4):
                for i in range(3):
                    host.feed(ts, f"/n{i}/p{j}", float(rng.random()))
            stack.run(ts)
        steady = [ts for ts in stores if ts > 8 * NS_PER_SEC]
        assert len(steady) == 7 * per_pass
