"""One sensor space per host: the tree grows in place.

Random programs over a fake host and a real :class:`QueryEngine` — the
host gains topics, the engine refreshes, operators declare outputs,
pattern units resolve, batched queries name present and absent topics —
are checked after every step against ``SensorTree.from_topics`` of
everything the tree has accepted so far.  Topics are 1–4 segments over a
three-letter alphabet, so a name is regularly a sensor in one topic and
a component in another and the tree's one refusal rule gets exercised.

The deterministic classes below pin what the random programs can only
hit by luck, and what growth costs when a deployment is built.
"""

import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import TopicError, UnitResolutionError
from repro.common.timeutil import NS_PER_SEC
from repro.core.queryengine import QueryEngine
from repro.core.tree import SensorTree
from repro.core.units import UnitResolver
from repro.dcdb.cache import SensorCache
from repro.deploy import build_deployment

WINDOW = 3 * NS_PER_SEC

segments = st.lists(st.sampled_from("abc"), min_size=1, max_size=4)
topic = segments.map(lambda parts: "/" + "/".join(parts))
topics = st.lists(topic, min_size=1, max_size=4)

step = st.one_of(
    st.tuples(st.just("gain"), topics),
    st.tuples(st.just("appear"), st.none()),  # what queries missed so far
    st.tuples(st.just("declare"), topics),
    st.tuples(st.just("refresh"), st.none()),
    st.tuples(st.just("resolve"), st.sampled_from("abc")),
    st.tuples(st.just("query"), topic),
)


class Host:
    """A storage-less host whose sensor space is its cache dict."""

    storage = None

    def __init__(self):
        self.caches = {}

    def gain(self, topic):
        if topic not in self.caches:
            cache = self.caches[topic] = SensorCache(16, interval_ns=NS_PER_SEC)
            for i in range(8):
                cache.store(i * NS_PER_SEC, float(i))

    def cache_for(self, topic):
        return self.caches.get(topic)

    def sensor_topics(self):
        return list(self.caches)


class Model:
    """What the tree should hold: the topics it accepted, in order."""

    def __init__(self):
        self.accepted = []

    def offer(self, offered):
        """Offer topics the way the engine does — skipping what is held,
        refusing what ``from_topics`` refuses.  Returns (added, refused)."""
        added = refused = 0
        for t in offered:
            if t in self.accepted:
                continue
            try:
                SensorTree.from_topics(self.accepted + [t])
            except TopicError:
                refused += 1
            else:
                self.accepted.append(t)
                added += 1
        return added, refused


def snapshot(units):
    return [
        (u.name, u.level, list(u.inputs), [s.topic for s in u.outputs])
        for u in units
    ]


def assert_same_space(tree, model):
    ref = SensorTree.from_topics(model.accepted)
    assert set(tree.all_sensor_topics()) == set(model.accepted)
    assert tree.n_sensors == len(model.accepted)
    assert tree.max_level == ref.max_level
    for level in range(ref.max_level + 2):
        assert [n.path for n in tree.nodes_at_level(level)] == [
            n.path for n in ref.nodes_at_level(level)
        ]
    for t in model.accepted:
        assert tree.has_sensor(t)


class TestGrowthPrograms:
    @settings(max_examples=150, deadline=None)
    @given(initial=st.lists(topic, max_size=3), program=st.lists(step, max_size=14))
    def test_live_tree_matches_bulk_construction(self, initial, program):
        host, model = Host(), Model()
        for t in initial:
            # Engine construction is the strict bulk path: start from a
            # space it accepts whole.
            if model.offer([t])[0]:
                host.gain(t)
        engine = QueryEngine(host)
        tree = engine.navigator.tree
        resolved = []  # (units, their snapshot at resolution time)
        missed = {}  # absent topic of an earlier query -> its present one
        assert_same_space(tree, model)
        for action, arg in program:
            before = engine.navigator.generation
            added = refused = 0
            if action in ("gain", "appear"):
                for t in arg or list(missed):
                    host.gain(t)
            elif action in ("declare", "refresh"):
                offered = arg if action == "declare" else host.sensor_topics()
                added, refused = model.offer(offered)
                try:
                    if action == "declare":
                        engine.declare_topics(arg)
                    else:
                        engine.refresh_navigator()
                    raised = False
                except TopicError:
                    raised = True  # after everything else went in
                assert raised == bool(refused)
                if action == "refresh":
                    self.check_missed_topics_are_served(engine, host, missed)
            elif action == "resolve":
                resolver = UnitResolver(
                    [f"<bottomup>{arg}"], [f"<bottomup-1>out-{arg}"],
                    relaxed=True,
                )
                try:
                    units = resolver.resolve(tree)
                except (TopicError, UnitResolutionError):
                    units = []  # the tree is too shallow for the pattern
                resolved.append((units, snapshot(units)))
            elif action == "query" and host.caches and arg not in host.caches:
                present = next(iter(host.caches))
                win = engine.query_relative_batch(
                    [present, arg], WINDOW, key=("probe", arg)
                )
                assert int(win.counts[0]) == 4 and int(win.counts[1]) == 0
                missed[arg] = present
            # One tree for life; the generation moves iff a topic went in.
            assert engine.navigator.tree is tree
            after = engine.navigator.generation
            assert isinstance(after, int) and after >= before
            assert (after != before) == bool(added)
            assert_same_space(tree, model)
            for units, taken in resolved:
                assert snapshot(units) == taken

    @staticmethod
    def check_missed_topics_are_served(engine, host, missed):
        """A plan compiled with a miss row serves the topic once the
        host has it and the space was refreshed — whether the refresh
        added it to the tree, found it declared already, or the tree
        refused it (it is still queryable by name)."""
        for absent in [t for t in missed if t in host.caches]:
            win = engine.query_relative_batch(
                [missed.pop(absent), absent], WINDOW, key=("probe", absent)
            )
            assert int(win.counts[1]) == 4
            assert np.array_equal(
                win.row_values(1),
                engine.query_relative(absent, WINDOW).values(),
            )


class TestCollisions:
    def test_refused_topic_leaves_the_tree_as_it_was(self):
        tree = SensorTree.from_topics(["/a/b/c"])
        before = (tree.generation, tree.n_sensors, tree.max_level)
        with pytest.raises(TopicError):
            tree.add_sensor("/a/b")  # b is a component of a
        assert (tree.generation, tree.n_sensors, tree.max_level) == before
        assert not tree.has_sensor("/a/b")
        tree.add_sensor("/a/b/c")  # held already: nothing moves either
        assert tree.generation == before[0]

    def test_declared_collision_raises_once_and_poisons_nothing(self):
        host = Host()
        host.gain("/a/b/c")
        engine = QueryEngine(host)
        tree, gen = engine.navigator.tree, engine.navigator.generation
        with pytest.raises(TopicError, match="already a component"):
            engine.declare_topics(["/a/b", "/a/b/d"])
        # The topic that could go in went in; the refused one left no
        # trace, so the host's next refreshes are clean.
        assert tree.has_sensor("/a/b/d") and not tree.has_sensor("/a/b")
        assert engine.navigator.generation == gen + 1
        engine.refresh_navigator()
        host.gain("/a/e")
        engine.refresh_navigator()
        assert engine.navigator.tree is tree and tree.has_sensor("/a/e")


class TestDeclaredOutputs:
    def test_first_store_of_a_declared_topic_heals_the_miss_row(self):
        """A declared output is in the tree before its first store, so
        its cache appearing moves no generation — the plan itself has to
        notice."""
        host = Host()
        host.gain("/n/x")
        engine = QueryEngine(host)
        engine.declare_topics(["/n/y"])
        gen = engine.navigator.generation
        win = engine.query_relative_batch(["/n/x", "/n/y"], WINDOW, key="op")
        assert int(win.counts[1]) == 0
        host.gain("/n/y")
        win = engine.query_relative_batch(["/n/x", "/n/y"], WINDOW, key="op")
        assert int(win.counts[1]) == 4
        assert engine.navigator.generation == gen
        assert engine.telemetry.counter("qe_plan_invalidations_total").value == 1
        engine.query_relative_batch(["/n/x", "/n/y"], WINDOW, key="op")
        assert engine.telemetry.counter("qe_plan_compiles_total").value == 2

    def test_consumer_sees_a_producer_that_first_fires_later(self):
        """Failing-before: ``b`` bound its input as a miss row on its
        first pass and stayed blind — 11 passes, 11 errors — because
        nothing moved the generation once ``a`` had stored."""
        dep = build_deployment({
            "cluster": {"nodes": 2, "cpus": 2, "seed": 3},
            "monitoring": {"plugins": ["sysfs"], "interval_ms": 1000},
            "analytics": {"pushers": [
                {"plugin": "aggregator", "operators": {"a": {
                    "interval_s": 1, "window_s": 3, "delay_s": 3,
                    "inputs": ["<bottomup>power"],
                    "outputs": ["<bottomup>avg-power"],
                    "params": {"op": "mean"}}}},
                {"plugin": "smoother", "operators": {"b": {
                    "interval_s": 1, "window_s": 3, "fusion": False,
                    "inputs": ["<bottomup>avg-power"],
                    "outputs": ["<bottomup>sm-power"]}}},
            ]},
        })
        dep.run(10)
        for manager in dep.managers.values():
            b = manager.operator("b").stats()
            assert b["errors"] == 3  # the passes before a's first
            assert b["unit_results"] == b["computes"] - 3 > 0


class TestGrowthCost:
    """Building a deployment adds each topic to each tree once."""

    SPEC = {
        "cluster": {"nodes": 2, "cpus": 8, "seed": 2},
        "monitoring": {"plugins": ["sysfs", "perfevent"], "interval_ms": 1000},
        "analytics": {
            "pushers": [
                {"plugin": "aggregator", "operators": {f"s{i}": {
                    "interval_s": 1, "window_s": 4, "delay_s": i,
                    "inputs": [f"<bottomup>{src}"],
                    "outputs": [f"<bottomup>s{i}"],
                    "params": {"op": "mean"}}}}
                for i, src in enumerate(
                    ["cpu-cycles", "s0", "s1", "s2", "s3", "s4"]
                )
            ],
            "agent": [
                {"plugin": "aggregator", "operators": {"node-s5": {
                    "interval_s": 1, "window_s": 2, "delay_s": 7,
                    "inputs": ["<bottomup>s5"],
                    "outputs": ["<bottomup-1>node-s5"],
                    "params": {"op": "sum"}}}},
            ],
        },
    }

    def test_add_sensor_is_called_once_per_topic_per_tree(self, monkeypatch):
        calls = []
        add_sensor = SensorTree.add_sensor

        def counting(tree, topic):
            calls.append(topic)
            return add_sensor(tree, topic)

        monkeypatch.setattr(SensorTree, "add_sensor", counting)
        dep = build_deployment(json.loads(json.dumps(self.SPEC)))
        managers = list(dep.managers.values()) + [dep.agent_manager]
        trees = [m.engine.navigator.tree for m in managers]
        assert len(calls) == sum(tree.n_sensors for tree in trees)
        # ... and running on adds nothing: every output was declared.
        generations = [tree.generation for tree in trees]
        dep.run(9)
        for manager in managers:
            manager.engine.refresh_navigator()
            for op in manager.operators():
                stats = op.stats()
                assert stats["units"] and stats["unit_results"] and not stats["errors"]
        assert [m.engine.navigator.tree for m in managers] == trees
        assert [tree.generation for tree in trees] == generations
        assert len(calls) == sum(tree.n_sensors for tree in trees)


FIXTURE = pathlib.Path(__file__).parent / "data" / "sameblock_pipeline.json"


def test_same_block_consumer_gets_the_same_verdict_three_times():
    """Failing-before: ``check --config`` said W010 of an operator whose
    input a sibling of its block produces, while ``check --flow`` and
    the builder (which declares after each operator) were fine."""
    from repro.analysis import analyze_deployment
    from repro.analysis.flow import analyze_flow

    spec = json.loads(FIXTURE.read_text())
    for analyze in (analyze_deployment, analyze_flow):
        assert [d for d in analyze(spec) if d.severity == "error"] == []
    dep = build_deployment(spec)
    dep.run(8)
    for manager in dep.managers.values():
        for name in ("a", "b"):
            stats = manager.operator(name).stats()
            assert stats["units"] == 1 and stats["errors"] == 0
            assert stats["unit_results"] >= 6
