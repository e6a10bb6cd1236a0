"""Tests for declarative deployments, the CLI, the wall-clock driver and
the terminal plotting helpers."""

import json
import pathlib

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.common.errors import ConfigError
from repro.common.textplot import ascii_plot, sparkline
from repro.common.timeutil import NS_PER_SEC
from repro.deploy import Deployment, build_deployment, load_deployment
from repro.runtime import WallClockDriver
from repro.simulator import ClusterSpec
from repro.simulator.clock import TaskScheduler

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"

BASIC_SPEC = {
    "cluster": {"nodes": 2, "cpus": 2, "seed": 3},
    "monitoring": {"plugins": ["sysfs"], "interval_ms": 1000},
    "jobs": [{"app": "hpl", "nodes": 1, "start_s": 1, "end_s": 40}],
    "analytics": {
        "pushers": [
            {
                "plugin": "aggregator",
                "operators": {
                    "avgp": {
                        "interval_s": 1,
                        "window_s": 5,
                        "inputs": ["<bottomup>power"],
                        "outputs": ["<bottomup>avg-power"],
                        "params": {"op": "mean"},
                    }
                },
            }
        ],
        "agent": [],
    },
}


class TestDeployment:
    def test_programmatic_build_and_run(self):
        dep = Deployment(ClusterSpec.small(nodes=2, cpus=2), seed=1)
        dep.run(5)
        node = dep.sim.node_paths[0]
        ts, values = dep.series(f"{node}/power")
        assert len(values) >= 5

    def test_unknown_monitoring_plugin_rejected(self):
        with pytest.raises(ConfigError):
            Deployment(
                ClusterSpec.small(nodes=1, cpus=1), monitoring=("bogus",)
            )

    def test_latest_prefers_cache_then_storage(self):
        dep = Deployment(ClusterSpec.small(nodes=1, cpus=1))
        dep.run(3)
        node = dep.sim.node_paths[0]
        reading = dep.latest(f"{node}/power")
        assert reading is not None
        assert reading.timestamp == dep.now

    def test_tester_monitoring(self):
        dep = Deployment(
            ClusterSpec.small(nodes=1, cpus=1),
            monitoring=("tester",),
            tester_sensors=7,
        )
        dep.run(2)
        node = dep.sim.node_paths[0]
        assert len(dep.pushers[node].sensor_topics()) == 7


class TestBuildDeployment:
    def test_from_spec(self):
        dep = build_deployment(BASIC_SPEC)
        dep.run(10)
        node = dep.sim.node_paths[0]
        assert dep.latest(f"{node}/avg-power") is not None
        assert len(dep.sim.scheduler.all_jobs()) == 1

    def test_missing_cluster_section(self):
        with pytest.raises(ConfigError):
            build_deployment({})

    def test_explicit_job_nodes(self):
        spec = json.loads(json.dumps(BASIC_SPEC))
        spec["jobs"] = [
            {
                "app": "lammps",
                "id": "explicit",
                "node_paths": ["/rack00/chassis00/node01"],
                "start_s": 0,
                "end_s": 10,
            }
        ]
        dep = build_deployment(spec)
        job = dep.sim.scheduler.job("explicit")
        assert job is not None
        assert job.node_paths == ("/rack00/chassis00/node01",)

    def test_grid_cluster_spec(self):
        dep = build_deployment(
            {
                "cluster": {
                    "racks": 2,
                    "chassis_per_rack": 1,
                    "nodes_per_chassis": 2,
                    "cpus": 2,
                }
            }
        )
        assert len(dep.sim.node_paths) == 4

    def test_coolmuc3_preset(self):
        dep = build_deployment({"cluster": {"preset": "coolmuc3"}})
        assert len(dep.sim.node_paths) == 148

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "dep.json"
        path.write_text(json.dumps(BASIC_SPEC))
        dep = load_deployment(str(path))
        assert len(dep.pushers) == 2

    def test_job_operator_block_resolves_after_traffic(self):
        spec = json.loads(json.dumps(BASIC_SPEC))
        spec["analytics"]["agent"] = [
            {
                "plugin": "persyst",
                "operators": {
                    "jp": {
                        "interval_s": 2,
                        "window_s": 4,
                        "delay_s": 3,
                        "inputs": ["power"],
                        "params": {"quantiles": [0.5]},
                    }
                },
            }
        ]
        dep = build_deployment(spec)
        dep.run(15)
        dep.agent.flush()
        jobs = dep.sim.scheduler.all_jobs()
        topic = f"/jobs/{jobs[0].job_id}/decile5"
        assert dep.agent.storage.count(topic) > 0
        assert dep.agent_manager.operator("jp").error_count == 0

    def test_agent_block_builds_cold_on_what_the_pushers_publish(self):
        """Failing-before: the agent's sensor space was empty until
        traffic arrived, so a spec ``check --config`` passes died in the
        builder with ``topdown+0 resolves to level 0, outside [0, -1]``."""
        spec = json.loads((EXAMPLES / "cross_host_pipeline.json").read_text())
        spec["facility"] = {"enabled": True}
        op = spec["analytics"]["agent"][0]["operators"]["rack-power"]
        op["outputs"] = ["<topdown, filter rack>rack-power"]  # not /facility
        dep = build_deployment(spec)
        tree = dep.agent_manager.engine.navigator.tree
        # Declared: every Pusher's sampled sensors, the facility's, and
        # the published outputs of the Pusher stage on every node.
        for node in dep.sim.node_paths:
            assert tree.has_sensor(f"{node}/power")
            assert tree.has_sensor(f"{node}/avg-power")
        assert tree.has_sensor("/facility/cooling/setpoint")
        dep.run(8)
        stats = dep.agent_manager.operator("rack-power").stats()
        assert stats["units"] == 1 and stats["errors"] == 0
        assert stats["computes"] >= 6
        _, values = dep.series("/rack00/rack-power")
        assert len(values) >= 6 and np.all(values > 0)
        assert dep.agent_manager.engine.navigator.tree is tree

    def test_specs_without_agent_blocks_declare_nothing(self):
        dep = build_deployment(BASIC_SPEC)
        assert dep.agent_manager.engine.navigator.tree.n_sensors == 0

    def test_job_operator_retry_grows_the_tree_it_was_given(self):
        """Loaded on an agent that has heard nothing yet, a job operator
        fails to resolve its first job, refreshes once and retries —
        against the same tree, which has meanwhile grown in place."""
        dep = build_deployment(BASIC_SPEC)
        engine = dep.agent_manager.engine
        tree = engine.navigator.tree
        [jp] = dep.agent_manager.load_plugin({
            "plugin": "persyst",
            "operators": {"jp": {
                "interval_s": 2, "window_s": 4, "delay_s": 3,
                "inputs": ["power"], "params": {"quantiles": [0.5]},
            }},
        })
        assert tree.n_sensors == 0
        dep.run(15)
        assert jp.error_count == 0 and jp.unit_results_count > 0
        assert engine.navigator.tree is tree and tree.n_sensors > 0


class TestCli:
    @pytest.fixture
    def config_file(self, tmp_path):
        path = tmp_path / "dep.json"
        path.write_text(json.dumps(BASIC_SPEC))
        return str(path)

    def test_run_command(self, config_file, capsys):
        assert cli_main(["run", "--config", config_file, "--duration", "5"]) == 0
        out = capsys.readouterr().out
        assert "simulated 5s" in out
        assert "avgp" in out

    def test_sensors_command(self, config_file, capsys):
        code = cli_main(
            ["sensors", "--config", config_file, "--duration", "2",
             "--match", "power$"]
        )
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert all(line.endswith("power") for line in out)
        assert len(out) >= 2

    def test_query_command(self, config_file, capsys):
        code = cli_main(
            [
                "query",
                "--config",
                config_file,
                "--duration",
                "5",
                "--topic",
                "/rack00/chassis00/node00/power",
                "--tail",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "readings" in out

    def test_query_unknown_topic_fails(self, config_file, capsys):
        code = cli_main(
            ["query", "--config", config_file, "--duration", "2",
             "--topic", "/nope"]
        )
        assert code == 1

    def test_plugins_command(self, capsys):
        assert cli_main(["plugins"]) == 0
        out = capsys.readouterr().out
        assert "aggregator" in out and "persyst" in out


class TestWallClockDriver:
    def test_paces_simulation_against_wall_time(self):
        scheduler = TaskScheduler()
        ticks = []
        scheduler.add_callback("t", ticks.append, NS_PER_SEC)
        driver = WallClockDriver(scheduler, speedup=50.0, tick_s=0.01)
        driver.run_for(0.3)
        # ~15 simulated seconds in 0.3 wall seconds at 50x.
        assert scheduler.clock.now > 5 * NS_PER_SEC
        assert len(ticks) >= 5
        assert not driver.running

    def test_start_is_idempotent_and_stop_joins(self):
        driver = WallClockDriver(TaskScheduler(), speedup=10.0, tick_s=0.01)
        driver.start()
        driver.start()
        assert driver.running
        driver.stop()
        assert not driver.running

    def test_validation(self):
        with pytest.raises(ValueError):
            WallClockDriver(TaskScheduler(), speedup=0)
        with pytest.raises(ValueError):
            WallClockDriver(TaskScheduler(), tick_s=0)

    def test_pause_gives_consistent_reads(self):
        scheduler = TaskScheduler()
        driver = WallClockDriver(scheduler, speedup=100.0, tick_s=0.005)
        driver.start()
        with driver.pause():
            a = scheduler.clock.now
            b = scheduler.clock.now
        driver.stop()
        assert a == b


class TestTextPlot:
    def test_sparkline_shape(self):
        line = sparkline(np.sin(np.linspace(0, 6, 200)), width=40)
        assert len(line) == 40
        assert len(set(line)) > 3  # uses multiple intensity levels

    def test_sparkline_short_series(self):
        assert len(sparkline([1.0, 2.0, 3.0], width=40)) == 3

    def test_sparkline_empty(self):
        assert sparkline([]) == ""

    def test_sparkline_constant(self):
        line = sparkline([5.0] * 10)
        assert len(set(line)) == 1

    def test_ascii_plot_contains_markers_and_range(self):
        plot = ascii_plot(
            {"real": [1, 2, 3, 4], "pred": [1.5, 2.5, 3.5, 4.5]},
            width=30,
            height=8,
            title="demo",
        )
        assert "demo" in plot
        assert "*=real" in plot and "+=pred" in plot
        assert "*" in plot and "+" in plot

    def test_ascii_plot_no_data(self):
        assert ascii_plot({"x": []}) == "(no data)"

    def test_ascii_plot_handles_nan(self):
        plot = ascii_plot({"x": [1.0, np.nan, 3.0]}, width=10, height=4)
        assert "(no data)" not in plot


class TestFacilityDeployment:
    def test_attach_facility_programmatically(self):
        dep = Deployment(ClusterSpec.small(nodes=2, cpus=2), seed=4)
        cooling = dep.attach_facility(setpoint_c=35.0)
        dep.run(30)
        dep.agent.flush()
        assert dep.agent.storage.count("/facility/cooling/inlet-temp") >= 2
        assert cooling.setpoint_c == 35.0
        # Cooling context reaches analytics managers.
        assert dep.agent_manager._context["cooling"] is cooling

    def test_attach_facility_twice_rejected(self):
        dep = Deployment(ClusterSpec.small(nodes=1, cpus=1))
        dep.attach_facility()
        with pytest.raises(ConfigError):
            dep.attach_facility()

    def test_facility_from_spec(self):
        spec = json.loads(json.dumps(BASIC_SPEC))
        spec["facility"] = {"enabled": True, "setpoint_c": 42, "interval_s": 5}
        dep = build_deployment(spec)
        dep.run(12)
        dep.agent.flush()
        assert dep.cooling is not None
        assert dep.cooling.setpoint_c == 42.0
        ts, values = dep.series("/facility/cooling/setpoint")
        assert len(values) >= 2
        assert values[-1] == 42.0

    def test_facility_disabled_by_default(self):
        dep = build_deployment(BASIC_SPEC)
        assert dep.cooling is None


class TestCliReportSnapshot:
    @pytest.fixture
    def config_file(self, tmp_path):
        path = tmp_path / "dep.json"
        path.write_text(json.dumps(BASIC_SPEC))
        return str(path)

    def test_report_command(self, config_file, capsys):
        assert cli_main(
            ["report", "--config", config_file, "--duration", "5"]
        ) == 0
        out = capsys.readouterr().out
        assert "# Deployment report" in out
        assert "## Analytics" in out
        assert "avgp" in out
        assert "Busiest sensors" in out

    def test_run_with_snapshot(self, config_file, tmp_path, capsys):
        snap = str(tmp_path / "out.npz")
        assert cli_main(
            ["run", "--config", config_file, "--duration", "5",
             "--snapshot", snap]
        ) == 0
        from repro.dcdb.storage import StorageBackend

        restored = StorageBackend.load(snap)
        assert restored.total_readings() > 0


class TestCliTree:
    def test_tree_command(self, tmp_path, capsys):
        path = tmp_path / "dep.json"
        path.write_text(json.dumps(BASIC_SPEC))
        assert cli_main(
            ["tree", "--config", str(path), "--duration", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "rack00/" in out
        assert "power" in out
        assert "sensors," in out
