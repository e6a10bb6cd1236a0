"""Tests for the Operator Manager (lifecycle, scheduling, REST)."""

import copy
import gc
import json
import pathlib
import weakref

import pytest

from repro.common.errors import ConfigError, PluginError
from repro.common.timeutil import NS_PER_SEC
from repro.core.manager import OperatorManager
from repro.dcdb import Broker, Pusher
from repro.dcdb.plugins import TesterMonitoringPlugin
from repro.deploy import build_deployment
from repro.simulator.clock import TaskScheduler

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"

AGG_CONFIG = {
    "plugin": "aggregator",
    "operators": {
        "avg": {
            "interval_s": 1,
            "window_s": 5,
            "inputs": ["<bottomup>tester0000"],
            "outputs": ["<bottomup>avg0"],
            "params": {"op": "mean"},
        }
    },
}


@pytest.fixture
def rig():
    class NS:
        pass

    ns = NS()
    ns.scheduler = TaskScheduler()
    ns.broker = Broker()
    ns.pusher = Pusher("/r0/c0/n0", ns.broker, ns.scheduler)
    ns.pusher.add_plugin(TesterMonitoringPlugin("/r0/c0/n0", n_sensors=3))
    ns.manager = OperatorManager()
    ns.pusher.attach_analytics(ns.manager)
    return ns


class TestLifecycle:
    def test_requires_host(self):
        with pytest.raises(PluginError):
            OperatorManager().load_plugin(AGG_CONFIG)

    def test_load_and_run(self, rig):
        rig.manager.load_plugin(AGG_CONFIG)
        rig.scheduler.run_until(5 * NS_PER_SEC)
        out = rig.pusher.cache_for("/r0/c0/n0/avg0")
        assert out is not None and len(out) > 0

    def test_duplicate_operator_name_rejected(self, rig):
        rig.manager.load_plugin(AGG_CONFIG)
        with pytest.raises(ConfigError):
            rig.manager.load_plugin(AGG_CONFIG)

    def test_stop_start(self, rig):
        rig.manager.load_plugin(AGG_CONFIG)
        rig.scheduler.run_until(2 * NS_PER_SEC)
        rig.manager.stop_operator("avg")
        n_before = len(rig.pusher.cache_for("/r0/c0/n0/avg0"))
        rig.scheduler.run_until(5 * NS_PER_SEC)
        assert len(rig.pusher.cache_for("/r0/c0/n0/avg0")) == n_before
        rig.manager.start_operator("avg")
        rig.scheduler.run_until(8 * NS_PER_SEC)
        assert len(rig.pusher.cache_for("/r0/c0/n0/avg0")) > n_before

    def test_load_without_start(self, rig):
        rig.manager.load_plugin(AGG_CONFIG, start=False)
        rig.scheduler.run_until(3 * NS_PER_SEC)
        assert len(rig.pusher.cache_for("/r0/c0/n0/avg0") or []) == 0

    def test_unload(self, rig):
        rig.manager.load_plugin(AGG_CONFIG)
        rig.manager.unload_operator("avg")
        with pytest.raises(PluginError):
            rig.manager.operator("avg")
        rig.scheduler.run_until(3 * NS_PER_SEC)
        assert len(rig.pusher.cache_for("/r0/c0/n0/avg0") or []) == 0

    def test_unload_unknown(self, rig):
        with pytest.raises(PluginError):
            rig.manager.unload_operator("nope")

    def test_delay_defers_first_compute(self, rig):
        config = {
            "plugin": "aggregator",
            "operators": {
                "late": {
                    "interval_s": 1,
                    "window_s": 5,
                    "delay_s": 3,
                    "inputs": ["<bottomup>tester0000"],
                    "outputs": ["<bottomup>late0"],
                    "params": {"op": "mean"},
                }
            },
        }
        rig.manager.load_plugin(config)
        rig.scheduler.run_until(2 * NS_PER_SEC)
        assert len(rig.pusher.cache_for("/r0/c0/n0/late0") or []) == 0
        rig.scheduler.run_until(5 * NS_PER_SEC)
        assert len(rig.pusher.cache_for("/r0/c0/n0/late0")) > 0

    def test_busy_time_accounted(self, rig):
        rig.manager.load_plugin(AGG_CONFIG)
        rig.scheduler.run_until(3 * NS_PER_SEC)
        assert rig.manager.analytics_busy_ns > 0


class TestOnDemand:
    CONFIG = {
        "plugin": "aggregator",
        "operators": {
            "odm": {
                "mode": "ondemand",
                "window_s": 5,
                "inputs": ["<bottomup>tester0000"],
                "outputs": ["<bottomup>odm0"],
                "params": {"op": "max"},
            }
        },
    }

    def test_trigger_via_manager(self, rig):
        rig.manager.load_plugin(self.CONFIG)
        rig.scheduler.run_until(3 * NS_PER_SEC)
        values = rig.manager.trigger("odm", "/r0/c0/n0")
        assert values == {"odm0": 4.0}  # counter reached 4 by t=3s

    def test_ondemand_never_scheduled(self, rig):
        rig.manager.load_plugin(self.CONFIG)
        rig.scheduler.run_until(3 * NS_PER_SEC)
        assert len(rig.pusher.cache_for("/r0/c0/n0/odm0") or []) == 0


class TestRest:
    def test_operator_listing(self, rig):
        rig.manager.load_plugin(AGG_CONFIG)
        body = rig.pusher.rest.get("/analytics/operators").body
        assert body["operators"][0]["name"] == "avg"

    def test_plugin_listing(self, rig):
        rig.manager.load_plugin(AGG_CONFIG)
        body = rig.pusher.rest.get("/analytics/plugins").body
        assert body == {"plugins": ["aggregator"]}

    def test_stop_via_rest(self, rig):
        rig.manager.load_plugin(AGG_CONFIG)
        assert rig.pusher.rest.put("/analytics/operators/avg/stop").ok
        assert not rig.manager.operator("avg").enabled

    def test_compute_via_rest(self, rig):
        rig.manager.load_plugin(self_config := dict(TestOnDemand.CONFIG))
        rig.scheduler.run_until(2 * NS_PER_SEC)
        resp = rig.pusher.rest.put(
            "/analytics/operators/odm/compute", unit="/r0/c0/n0"
        )
        assert resp.ok
        assert resp.body["values"] == {"odm0": 3.0}

    def test_compute_missing_unit_param(self, rig):
        rig.manager.load_plugin(TestOnDemand.CONFIG)
        resp = rig.pusher.rest.put("/analytics/operators/odm/compute")
        assert resp.status == 400

    def test_unknown_operator_404(self, rig):
        assert rig.pusher.rest.put("/analytics/operators/zzz/stop").status == 404

    def test_bad_action_400(self, rig):
        rig.manager.load_plugin(AGG_CONFIG)
        assert rig.pusher.rest.put("/analytics/operators/avg/zap").status == 400

    def test_malformed_path_400(self, rig):
        assert rig.pusher.rest.put("/analytics/operators/avg").status == 400

    def test_unload_via_rest(self, rig):
        rig.manager.load_plugin(AGG_CONFIG)
        assert rig.pusher.rest.put("/analytics/operators/avg/unload").ok
        assert rig.manager.operators() == []


class TestSensorSpaceRefresh:
    def test_second_plugin_sees_first_plugins_outputs(self, rig):
        rig.manager.load_plugin(AGG_CONFIG)
        rig.scheduler.run_until(2 * NS_PER_SEC)
        downstream = {
            "plugin": "smoother",
            "operators": {
                "smooth": {
                    "interval_s": 1,
                    "window_s": 3,
                    "inputs": ["<bottomup>avg0"],
                    "outputs": ["<bottomup>avg0-smooth"],
                }
            },
        }
        rig.manager.load_plugin(downstream)
        rig.scheduler.run_until(6 * NS_PER_SEC)
        out = rig.pusher.cache_for("/r0/c0/n0/avg0-smooth")
        assert out is not None and len(out) > 0


class TestJobOperatorOnDemand:
    """On-demand triggering of a job operator (scheduling-style use)."""

    def test_trigger_job_unit_via_rest(self):
        from repro.dcdb import CollectAgent
        from repro.simulator import ClusterSimulator, ClusterSpec
        from repro.simulator.scheduler import Job

        sim = ClusterSimulator(ClusterSpec.small(nodes=2, cpus=2), seed=6)
        scheduler = TaskScheduler()
        broker = Broker()
        pushers = []
        for node in sim.node_paths:
            from repro.dcdb.plugins import SysfsPlugin

            pusher = Pusher(node, broker, scheduler)
            pusher.add_plugin(SysfsPlugin(sim, node))
            pushers.append(pusher)
        agent = CollectAgent("agent", broker, scheduler)
        manager = OperatorManager(context={"job_source": sim.scheduler})
        agent.attach_analytics(manager)
        sim.scheduler.add_job(
            Job("j1", "hpl", tuple(sim.node_paths), NS_PER_SEC,
                100 * NS_PER_SEC)
        )
        scheduler.run_until(10 * NS_PER_SEC)
        manager.load_plugin(
            {
                "plugin": "persyst",
                "operators": {
                    "odj": {
                        "mode": "ondemand",
                        "window_s": 5,
                        "inputs": ["power"],
                        "params": {"quantiles": [0.5]},
                    }
                },
            }
        )
        resp = agent.rest.put(
            "/analytics/operators/odj/compute", unit="/jobs/j1"
        )
        assert resp.ok, resp.body
        assert resp.body["values"]["decile5"] > 0
        # No stream output was stored.
        agent.flush()
        assert agent.storage.count("/jobs/j1/decile5") == 0


class TestUnloadFreesTheOperator:
    """An unloaded operator leaves the schedule and is freed: neither its
    task (its callback holds the operator) nor a telemetry gauge of the
    host's registry may keep it."""

    BLOCK = {
        "plugin": "aggregator",
        "operators": {
            "rack-avg": {
                "interval_s": 1,
                "window_s": 5,
                "inputs": ["<bottomup>power"],
                "outputs": ["<bottomup>avg-power"],
                "params": {"op": "mean"},
            }
        },
    }

    def test_load_unload_cycles_return_to_baseline(self):
        dep = build_deployment({
            "cluster": {"nodes": 2, "cpus": 2, "seed": 3},
            "monitoring": {"plugins": ["sysfs"], "interval_ms": 1000},
            "analytics": {"pushers": [], "agent": []},
        })
        dep.run(2)
        scheduler, manager = dep.agent.scheduler, dep.agent_manager
        tasks = len(scheduler.tasks())
        firings = scheduler.run_for(NS_PER_SEC)
        unloaded = []
        for _ in range(20):
            (op,) = manager.load_plugin(self.BLOCK)
            dep.run(1)
            assert op.compute_count > 0
            unloaded.append(weakref.ref(op))
            manager.unload_operator(op.name)
            del op
        assert len(scheduler.tasks()) == tasks
        assert scheduler.run_for(NS_PER_SEC) == firings
        gc.collect()
        assert [ref for ref in unloaded if ref() is not None] == []
        # The operator's series stay in /metrics; its gauge reads 0.
        body = dep.agent.rest.get("/metrics", format="prometheus").body
        lines = body["exposition"].splitlines()
        assert 'operator_quarantined_units{operator="rack-avg"} 0' in lines

    def test_unloaded_operators_leave_no_query_plan(self):
        """An unloaded operator's plan, and a dissolved fused group's,
        go with it: a plan keeps its rings (and their slabs) alive and
        counts in ``qe_plan_rows``."""
        spec = json.loads((EXAMPLES / "fused_pipeline.json").read_text())
        dep = build_deployment(spec)
        dep.run(5)
        manager = next(iter(dep.managers.values()))
        engine = manager.engine
        ring_rows = engine.telemetry.gauge("qe_plan_rows", kind="ring")
        baseline = (len(engine._plans), ring_rows.value)
        assert baseline[1] > 0
        # The power chain again under other names, and one staged
        # operator beside it.
        chain = copy.deepcopy(spec["analytics"]["pushers"][:3])
        chain.append({"plugin": "aggregator", "operators": {"lone-power": {
            "interval_s": 1, "window_s": 5, "inputs": ["<bottomup>power"],
            "outputs": ["<bottomup>lone-power"], "params": {"op": "mean"},
        }}})
        for block in chain:
            (name, config), = block["operators"].items()
            block["operators"] = {f"{name}-x": config}
            config["outputs"] = [f"{t}-x" for t in config["outputs"]]
            config["inputs"] = [
                f"{t}-x" if t.endswith("-power") else t for t in config["inputs"]
            ]
        names = [next(iter(block["operators"])) for block in chain]
        for _ in range(20):
            for block in chain:
                manager.load_plugin(block)
            dep.run(1)
            assert any("smooth-power-x" in g.members() for g in manager.fused_groups())
            assert len(engine._plans) == baseline[0] + 2
            for name in names:
                manager.unload_operator(name)
            assert (len(engine._plans), ring_rows.value) == baseline
        # A manager whose every operator is gone holds no plan at all.
        for op in manager.operators():
            manager.unload_operator(op.name)
        assert engine._plans == {} and ring_rows.value == 0
