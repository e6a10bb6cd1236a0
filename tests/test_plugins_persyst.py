"""Tests for the persyst plugin (per-job quantile aggregation)."""

import numpy as np
import pytest

from repro.common.errors import ConfigError
from repro.common.timeutil import NS_PER_SEC
from repro.core.operator import OperatorConfig
from repro.core.queryengine import QueryEngine
from repro.core.tree import SensorTree
from repro.plugins.persyst import PerSystOperator, quantile_output_name
from tests.hosts import RecordingHost


class Host(RecordingHost):
    capacity = 8

    def set_latest(self, topic, value):
        cache = self.caches.get(topic)
        ts = cache.latest().timestamp + NS_PER_SEC if cache else 0
        self.push(topic, ts, value)


class FakeJob:
    def __init__(self, jid, nodes, start=0, end=10**18):
        self.job_id = jid
        self.node_paths = nodes
        self._range = (start, end)

    def is_running(self, ts):
        return self._range[0] <= ts < self._range[1]


class FakeJobSource:
    def __init__(self, jobs):
        self.jobs = jobs

    def running_jobs(self, ts):
        return [j for j in self.jobs if j.is_running(ts)]


def build_rig(core_values_by_node):
    """Host + tree where each node has per-cpu 'cpi' sensors."""
    host = Host()
    topics = []
    for node, values in core_values_by_node.items():
        for k, v in enumerate(values):
            topic = f"{node}/cpu{k}/cpi"
            host.set_latest(topic, v)
            topics.append(topic)
    tree = SensorTree.from_topics(topics)
    return host, tree


def make_op(job_source, window_s=2, **params):
    cfg = OperatorConfig(
        name="ps",
        window_ns=window_s * NS_PER_SEC,
        inputs=["<bottomup, filter cpu>cpi"],
        params=params,
    )
    return PerSystOperator(cfg, job_source=job_source)


class TestQuantileNaming:
    def test_deciles(self):
        assert quantile_output_name(0.0) == "decile0"
        assert quantile_output_name(0.5) == "decile5"
        assert quantile_output_name(1.0) == "decile10"

    def test_non_decile_quantiles(self):
        assert quantile_output_name(0.25) == "q25"
        assert quantile_output_name(0.99) == "q99"


class TestPerSyst:
    def test_deciles_across_job_cores(self):
        host, tree = build_rig(
            {"/r0/n0": list(range(0, 11)), "/r0/n1": list(range(100, 111))}
        )
        job = FakeJob("j1", ["/r0/n0", "/r0/n1"])
        op = make_op(FakeJobSource([job]))
        op.bind(host, QueryEngine(host))
        op.init_units(tree)
        op.start()
        results = op.compute(0)
        assert len(results) == 1
        values = results[0].values
        # 22 samples: min 0, max 110.
        assert values["decile0"] == 0.0
        assert values["decile10"] == 110.0
        assert values["decile5"] == pytest.approx(np.percentile(
            list(range(11)) + list(range(100, 111)), 50))

    def test_one_unit_per_running_job(self):
        host, tree = build_rig(
            {"/r0/n0": [1.0], "/r0/n1": [2.0], "/r0/n2": [3.0]}
        )
        jobs = FakeJobSource(
            [
                FakeJob("j1", ["/r0/n0"], 0, 100),
                FakeJob("j2", ["/r0/n1", "/r0/n2"], 0, 50),
            ]
        )
        op = make_op(jobs)
        op.bind(host, QueryEngine(host))
        op.init_units(tree)
        op.start()
        assert {r.unit.tag for r in op.compute(10)} == {"j1", "j2"}
        assert {r.unit.tag for r in op.compute(60)} == {"j1"}

    def test_outputs_stored_under_jobs_tree(self):
        host, tree = build_rig({"/r0/n0": [1.0, 2.0]})
        op = make_op(FakeJobSource([FakeJob("j7", ["/r0/n0"])]))
        op.bind(host, QueryEngine(host))
        op.init_units(tree)
        op.start()
        op.compute(0)
        topics = {t for t, _, _ in host.stored}
        assert "/jobs/j7/decile0" in topics
        assert "/jobs/j7/decile10" in topics

    def test_extra_statistics(self):
        host, tree = build_rig({"/r0/n0": [1.0, 3.0]})
        op = make_op(
            FakeJobSource([FakeJob("j1", ["/r0/n0"])]),
            quantiles=[0.5],
            statistics=["mean", "std"],
        )
        op.bind(host, QueryEngine(host))
        op.init_units(tree)
        op.start()
        values = op.compute(0)[0].values
        assert values["mean"] == pytest.approx(2.0)
        assert values["std"] == pytest.approx(1.0)

    def test_custom_quantiles(self):
        host, tree = build_rig({"/r0/n0": list(range(101))})
        op = make_op(
            FakeJobSource([FakeJob("j1", ["/r0/n0"])]), quantiles=[0.25, 0.75]
        )
        op.bind(host, QueryEngine(host))
        op.init_units(tree)
        op.start()
        values = op.compute(0)[0].values
        assert values["q25"] == pytest.approx(25.0)
        assert values["q75"] == pytest.approx(75.0)

    def test_missing_metric_sensors_skip_silently(self):
        # Node n1 has no cpi sensors at all: unit still aggregates n0.
        host, tree = build_rig({"/r0/n0": [5.0]})
        tree.add_component("/r0/n1")
        op = make_op(FakeJobSource([FakeJob("j1", ["/r0/n0", "/r0/n1"])]))
        op.config.relaxed = True
        op.bind(host, QueryEngine(host))
        op.init_units(tree)
        op.start()
        values = op.compute(0)[0].values
        assert values["decile5"] == 5.0

    @pytest.mark.parametrize(
        "params",
        [
            {"quantiles": []},
            {"quantiles": [1.5]},
            {"statistics": ["variance"]},
        ],
    )
    def test_validation(self, params):
        with pytest.raises(ConfigError):
            make_op(FakeJobSource([]), **params)
