"""Tests for the operator base classes (Sections IV / V-C)."""


import pytest

from repro.common.errors import ConfigError
from repro.core.operator import (
    JobOperatorBase,
    OperatorBase,
    OperatorConfig,
)
from repro.core.queryengine import QueryEngine
from repro.core.tree import SensorTree
from repro.core.units import Unit
from repro.dcdb.sensor import Sensor
from tests import hosts


class RecordingHost(hosts.RecordingHost):
    """Host capturing stored readings, ten on each of ``topics``."""

    def __init__(self, topics=()):
        super().__init__()
        for t in topics:
            self.add_series(t, range(10))


class DoubleLatest(OperatorBase):
    """Toy operator: output = 2 * latest value of first input."""

    def compute_unit(self, unit, ts):
        view = self.engine.latest(unit.inputs[0])
        return {s.name: 2.0 * view.values()[-1] for s in unit.outputs}


class CountingModelOp(OperatorBase):
    """Operator whose models count how often they are used."""

    made = 0

    def make_model(self):
        CountingModelOp.made += 1
        return {"uses": 0, "id": CountingModelOp.made}

    def compute_unit(self, unit, ts):
        model = self.model_for(unit)
        model["uses"] += 1
        return {s.name: float(model["id"]) for s in unit.outputs}


def make_unit(name, inputs, out_names):
    return Unit(
        name=name,
        level=0,
        inputs=list(inputs),
        outputs=[
            Sensor(f"{name}/{o}", is_operator_output=True) for o in out_names
        ],
    )


def bound(op_cls, config, host):
    op = op_cls(config)
    op.bind(host, QueryEngine(host))
    return op


class TestOperatorConfig:
    def test_defaults(self):
        cfg = OperatorConfig(name="x")
        assert cfg.mode == "online"
        assert cfg.unit_mode == "sequential"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "bogus"},
            {"unit_mode": "bogus"},
            {"interval_ns": 0},
            {"window_ns": -1},
            {"delay_ns": -5},
            {"max_workers": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            OperatorConfig(name="x", **kwargs)


class TestComputeFlow:
    def test_results_stored_to_outputs(self):
        host = RecordingHost(["/n0/power"])
        op = bound(DoubleLatest, OperatorConfig(name="t"), host)
        op.set_units([make_unit("/n0", ["/n0/power"], ["twice"])])
        op.start()
        results = op.compute(100)
        assert results[0].values == {"twice": 18.0}
        assert host.stored == [("/n0/twice", 100, 18.0)]

    def test_disabled_operator_is_inert(self):
        host = RecordingHost(["/n0/power"])
        op = bound(DoubleLatest, OperatorConfig(name="t"), host)
        op.set_units([make_unit("/n0", ["/n0/power"], ["twice"])])
        assert op.compute(100) == []
        assert host.stored == []

    def test_failing_unit_counted_not_fatal(self):
        host = RecordingHost(["/n0/power"])
        op = bound(DoubleLatest, OperatorConfig(name="t"), host)
        op.set_units(
            [
                make_unit("/bad", ["/missing/topic"], ["twice"]),
                make_unit("/n0", ["/n0/power"], ["twice"]),
            ]
        )
        op.start()
        results = op.compute(50)
        assert len(results) == 1
        assert op.error_count == 1
        assert "/bad" in op.last_errors[-1]

    def test_empty_result_stores_nothing(self):
        class Silent(OperatorBase):
            def compute_unit(self, unit, ts):
                return {}

        host = RecordingHost(["/n0/power"])
        op = bound(Silent, OperatorConfig(name="t"), host)
        op.set_units([make_unit("/n0", ["/n0/power"], ["o"])])
        op.start()
        assert op.compute(10) == []
        assert host.stored == []

    def test_stats(self):
        host = RecordingHost(["/n0/power"])
        op = bound(DoubleLatest, OperatorConfig(name="t"), host)
        op.set_units([make_unit("/n0", ["/n0/power"], ["twice"])])
        op.start()
        op.compute(1)
        s = op.stats()
        assert s["computes"] == 1
        assert s["units"] == 1
        assert s["busy_ns"] > 0


class TestModelPlacement:
    def setup_method(self):
        CountingModelOp.made = 0

    def test_sequential_shares_one_model(self):
        host = RecordingHost(["/a/x", "/b/x"])
        op = bound(
            CountingModelOp,
            OperatorConfig(name="t", unit_mode="sequential"),
            host,
        )
        op.set_units(
            [make_unit("/a", ["/a/x"], ["o"]), make_unit("/b", ["/b/x"], ["o"])]
        )
        op.start()
        results = op.compute(1)
        assert CountingModelOp.made == 1
        assert {r.values["o"] for r in results} == {1.0}

    def test_parallel_gets_model_per_unit(self):
        host = RecordingHost(["/a/x", "/b/x"])
        op = bound(
            CountingModelOp,
            OperatorConfig(name="t", unit_mode="parallel"),
            host,
        )
        op.set_units(
            [make_unit("/a", ["/a/x"], ["o"]), make_unit("/b", ["/b/x"], ["o"])]
        )
        op.start()
        results = op.compute(1)
        assert CountingModelOp.made == 2
        assert {r.values["o"] for r in results} == {1.0, 2.0}

    def test_parallel_with_workers_runs_all_units(self):
        host = RecordingHost([f"/n{i}/x" for i in range(8)])
        op = bound(
            DoubleLatest,
            OperatorConfig(name="t", unit_mode="parallel", max_workers=4),
            host,
        )
        op.set_units(
            [make_unit(f"/n{i}", [f"/n{i}/x"], ["o"]) for i in range(8)]
        )
        op.start()
        assert len(op.compute(1)) == 8

    def test_set_units_resets_models(self):
        host = RecordingHost(["/a/x"])
        op = bound(
            CountingModelOp,
            OperatorConfig(name="t", unit_mode="sequential"),
            host,
        )
        op.set_units([make_unit("/a", ["/a/x"], ["o"])])
        op.start()
        op.compute(1)
        op.set_units([make_unit("/a", ["/a/x"], ["o"])])
        op.compute(2)
        assert CountingModelOp.made == 2


class TestOperatorOutputs:
    def test_default_aggregate_is_mean(self):
        host = RecordingHost(["/a/x", "/b/x"])
        cfg = OperatorConfig(name="t", operator_outputs=["twice"])
        op = bound(DoubleLatest, cfg, host)
        op.set_units(
            [
                make_unit("/a", ["/a/x"], ["twice"]),
                make_unit("/b", ["/b/x"], ["twice"]),
            ]
        )
        op.start()
        op.compute(5)
        agg = [s for s in host.stored if s[0] == "/analytics/t/twice"]
        assert agg == [("/analytics/t/twice", 5, 18.0)]

    def test_no_operator_outputs_no_aggregate(self):
        host = RecordingHost(["/a/x"])
        op = bound(DoubleLatest, OperatorConfig(name="t"), host)
        op.set_units([make_unit("/a", ["/a/x"], ["twice"])])
        op.start()
        op.compute(5)
        assert not any("/analytics" in s[0] for s in host.stored)


class TestOnDemand:
    def test_trigger_returns_without_storing(self, fig2_tree):
        host = RecordingHost(["/n0/power"])
        op = bound(DoubleLatest, OperatorConfig(name="t", mode="ondemand"), host)
        op.set_units([make_unit("/n0", ["/n0/power"], ["twice"])])
        values = op.trigger("/n0", 100, fig2_tree)
        assert values == {"twice": 18.0}
        assert host.stored == []

    def test_trigger_builds_unit_on_the_fly(self):
        host = RecordingHost(["/r0/n0/power"])
        cfg = OperatorConfig(
            name="t",
            mode="ondemand",
            inputs=["<bottomup>power"],
            outputs=["<bottomup>twice"],
        )
        op = bound(DoubleLatest, cfg, host)
        tree = SensorTree.from_topics(["/r0/n0/power"])
        values = op.trigger("/r0/n0", 1, tree)
        assert values == {"twice": 18.0}


class TestJobOperator:
    class JobEcho(JobOperatorBase):
        def job_output_names(self):
            return ["count"]

        def compute_unit(self, unit, ts):
            return {"count": float(len(unit.inputs))}

    class FakeJobs:
        def __init__(self, jobs):
            self.jobs = jobs

        def running_jobs(self, ts):
            return [j for j in self.jobs if j.start <= ts < j.end]

    class FakeJob:
        def __init__(self, jid, nodes, start, end):
            self.job_id = jid
            self.node_paths = nodes
            self.start, self.end = start, end

    def test_units_follow_running_jobs(self):
        host = RecordingHost(["/r0/n0/power", "/r0/n1/power"])
        tree = SensorTree.from_topics(host.sensor_topics())
        jobs = self.FakeJobs(
            [
                self.FakeJob("j1", ["/r0/n0"], 0, 100),
                self.FakeJob("j2", ["/r0/n0", "/r0/n1"], 100, 200),
            ]
        )
        cfg = OperatorConfig(name="t", inputs=["power"])
        op = self.JobEcho(cfg, job_source=jobs)
        op.bind(host, QueryEngine(host))
        op.init_units(tree)
        op.start()
        r1 = op.compute(50)
        assert [u.unit.tag for u in r1] == ["j1"]
        assert r1[0].values["count"] == 1.0
        r2 = op.compute(150)
        assert [u.unit.tag for u in r2] == ["j2"]
        assert r2[0].values["count"] == 2.0
        r3 = op.compute(250)
        assert r3 == []

    def test_job_outputs_under_jobs_root(self):
        host = RecordingHost(["/r0/n0/power"])
        tree = SensorTree.from_topics(host.sensor_topics())
        jobs = self.FakeJobs([self.FakeJob("j9", ["/r0/n0"], 0, 100)])
        op = self.JobEcho(
            OperatorConfig(name="t", inputs=["power"]), job_source=jobs
        )
        op.bind(host, QueryEngine(host))
        op.init_units(tree)
        op.start()
        op.compute(10)
        assert host.stored == [("/jobs/j9/count", 10, 1.0)]


class TestUnitCadence:
    def test_units_staggered_across_passes(self):
        host = RecordingHost([f"/n{i}/x" for i in range(4)])
        cfg = OperatorConfig(name="t", unit_cadence=2)
        op = bound(DoubleLatest, cfg, host)
        op.set_units(
            [make_unit(f"/n{i}", [f"/n{i}/x"], ["o"]) for i in range(4)]
        )
        op.start()
        r1 = {r.unit.name for r in op.compute(1)}
        r2 = {r.unit.name for r in op.compute(2)}
        assert r1 == {"/n0", "/n2"}
        assert r2 == {"/n1", "/n3"}
        # Over a full cadence cycle every unit is covered exactly once.
        assert r1 | r2 == {f"/n{i}" for i in range(4)}

    def test_cadence_one_computes_all(self):
        host = RecordingHost([f"/n{i}/x" for i in range(3)])
        op = bound(DoubleLatest, OperatorConfig(name="t"), host)
        op.set_units(
            [make_unit(f"/n{i}", [f"/n{i}/x"], ["o"]) for i in range(3)]
        )
        op.start()
        assert len(op.compute(1)) == 3

    def test_cadence_validation(self):
        with pytest.raises(ConfigError):
            OperatorConfig(name="t", unit_cadence=0)
