"""Micro benches M2/M3 — broker throughput and Unit System scale.

M2: in-process MQTT broker publish throughput under exact, single-level
and catch-all subscriptions — the data-plane budget between Pushers and
the Collect Agent.  Each publish is a pass of one reading (a
:class:`ReadingBatch` built per message), the smallest unit the broker
takes.

M3: the Section III-C scaling claim — "in a large-scale HPC system, this
enables the instantiation of thousands of independent ODA models ...
using only a small configuration block".  Builds the full CooLMUC-3
sensor tree (148 nodes x 64 CPUs, ~29k sensors) and resolves one pattern
unit into 9472 per-CPU units.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.harness import print_header, print_table, shape_check
from repro.core.tree import SensorTree
from repro.core.units import UnitResolver
from repro.dcdb.mqtt import Broker, ReadingBatch
from repro.simulator.cluster import ClusterSpec, ClusterTopology


def publish_rate(broker: Broker, topic: str, n: int = 20_000) -> float:
    t0 = time.perf_counter_ns()
    topics = (topic,)
    for i in range(n):
        broker.publish_batch(ReadingBatch(topics, i, (float(i),)))
    return n / ((time.perf_counter_ns() - t0) / 1e9)


def one(topic: str) -> ReadingBatch:
    """A pass of one reading on ``topic``."""
    return ReadingBatch((topic,), 1, (1.0,))


class TestBrokerThroughput:
    def test_publish_rates_by_subscription_kind(self, benchmark):
        print_header("M2 - broker publish throughput")
        sink = lambda batch: None
        rows = []
        rates = {}
        for kind, pattern in (
            ("no subscribers", None),
            ("exact", "/r0/c0/n0/power"),
            ("single-level +", "/r0/c0/+/power"),
            ("catch-all #", "/#"),
        ):
            broker = Broker()
            if pattern:
                broker.subscribe_batch(pattern, sink)
            rates[kind] = publish_rate(broker, "/r0/c0/n0/power")
            rows.append((kind, rates[kind] / 1e3))
        print_table(["subscription", "k msgs/s"], rows, fmt="{:>18}")
        # 148 pushers x ~200 sensors at 1 Hz is ~30k msg/s system-wide.
        assert shape_check(
            "throughput covers a CooLMUC-3-scale deployment (>100k msg/s)",
            min(rates.values()) > 100_000,
            f"min {min(rates.values()) / 1e3:.0f}k msg/s",
        )
        broker = Broker()
        broker.subscribe_batch("/#", sink)
        benchmark(broker.publish_batch, one("/r0/c0/n0/power"))

    def test_fanout_scales_with_matching_subscribers(self, benchmark):
        print_header("M2 - fan-out cost")
        sink = lambda batch: None
        rows = []
        per_delivery = {}
        for n_subs in (1, 10, 100):
            broker = Broker()
            for _ in range(n_subs):
                broker.subscribe_batch("/a/b", sink)
            rate = publish_rate(broker, "/a/b", n=5_000)
            per_delivery[n_subs] = 1e9 / (rate * n_subs)
            rows.append((n_subs, rate / 1e3, per_delivery[n_subs]))
        print_table(["#subs", "k msgs/s", "ns/delivery"], rows)
        assert shape_check(
            "per-delivery cost roughly constant under fan-out",
            per_delivery[100] < per_delivery[1] * 3,
            f"{per_delivery[1]:.0f} -> {per_delivery[100]:.0f} ns",
        )
        broker = Broker()
        for _ in range(100):
            broker.subscribe_batch("/a/b", sink)
        benchmark(broker.publish_batch, one("/a/b"))

    def test_non_matching_traffic_is_cheap(self, benchmark):
        """A trie-based topic tree must not scan unrelated subscriptions."""
        print_header("M2 - selective routing")
        sink = lambda batch: None
        broker = Broker()
        for i in range(1000):
            broker.subscribe_batch(f"/rack{i:04d}/power", sink)
        rate = publish_rate(broker, "/other/topic", n=20_000)
        print(f"  non-matching publish with 1000 live subscriptions: "
              f"{rate / 1e3:.0f}k msg/s")
        assert shape_check(
            "unrelated subscriptions do not slow a publish (>200k msg/s)",
            rate > 200_000,
            f"{rate / 1e3:.0f}k msg/s",
        )
        benchmark(broker.publish_batch, one("/other/topic"))


def coolmuc3_topics():
    topo = ClusterTopology(ClusterSpec.coolmuc3())
    topics = []
    for node in topo.node_paths:
        topics.append(f"{node}/power")
        topics.append(f"{node}/temp")
        for cpu in topo.cpus_of_node[node]:
            topics.append(f"{cpu}/cpu-cycles")
            topics.append(f"{cpu}/instructions")
    return topics


class TestUnitSystemScale:
    def test_tree_build_and_mass_instantiation(self, benchmark):
        print_header(
            "M3 - Unit System at CooLMUC-3 scale (one config block -> "
            "9472 units)"
        )
        topics = coolmuc3_topics()
        t0 = time.perf_counter_ns()
        tree = SensorTree.from_topics(topics)
        build_ms = (time.perf_counter_ns() - t0) / 1e6
        resolver = UnitResolver(
            ["<bottomup>cpu-cycles", "<bottomup>instructions"],
            ["<bottomup>cpi"],
        )
        t0 = time.perf_counter_ns()
        units = resolver.resolve(tree)
        resolve_ms = (time.perf_counter_ns() - t0) / 1e6
        print(f"  sensors: {len(topics):,}  tree build: {build_ms:.1f} ms")
        print(f"  units resolved: {len(units):,}  in {resolve_ms:.1f} ms")
        assert len(units) == 148 * 64
        assert shape_check(
            "thousands of units instantiate in interactive time (<2s)",
            build_ms + resolve_ms < 2000,
            f"{build_ms + resolve_ms:.0f} ms total",
        )
        benchmark(resolver.resolve, tree)

    def test_node_level_units_collect_cpu_fanin(self, benchmark):
        """148 node units each binding 128 CPU counters resolve fast."""
        tree = SensorTree.from_topics(coolmuc3_topics())
        resolver = UnitResolver(
            ["<bottomup, filter cpu>cpu-cycles", "<bottomup-1>power"],
            ["<bottomup-1>healthy"],
        )
        units = resolver.resolve(tree)
        assert len(units) == 148
        assert all(len(u.inputs) == 65 for u in units)
        benchmark(resolver.resolve, tree)
