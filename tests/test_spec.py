"""Tests for the configuration schema (:mod:`repro.spec`).

The schema table is the one description of the deployment-spec format:
the builder, ``check --config``, the flow pass and the docs all read
it.  Most of this module is generated *from* the table — every row is
mutated with every kind of wrong value — and pins the invariant the
table exists for: ``build_deployment`` refuses exactly what the walk
(and so ``check --config``) calls an error.
"""

import copy
import json
import pathlib

import pytest

from repro.analysis import DiagnosticCollector, analyze_deployment
from repro.cli import main as cli_main
from repro.common.errors import ConfigError
from repro.common.timeutil import NS_PER_SEC
from repro.core.configurator import parse_operator_config
from repro.core.operator import OperatorConfig
from repro.dcdb import Broker, Pusher
from repro.dcdb.segments import TieredStorageBackend
from repro.deploy import build_deployment
from repro.simulator.clock import TaskScheduler
from repro.spec import (
    DEPLOYMENT,
    MIB,
    OPERATOR,
    Each,
    Section,
    operator_config,
    read_deployment,
    render_docs,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: One small valid spec in which every section, and so every key path
#: of the table, is present.
BASE = {
    "cluster": {"nodes": 2, "cpus": 2, "seed": 3},
    "monitoring": {"plugins": ["sysfs", "perfevent"], "interval_ms": 1000},
    "facility": {"enabled": True, "setpoint_c": 40},
    "jobs": [
        {"app": "hpl", "node_paths": ["/rack00/chassis00/node00"],
         "start_s": 1, "end_s": 50},
    ],
    "network": {
        "latency_ms": 5, "jitter_ms": 2,
        "outages": [{"start_s": 3, "end_s": 6}],
        "spill": {"retry_base_ms": 100, "retry_max_ms": 1000},
        "ingest": {"queue_capacity": 1000},
    },
    "storage": {
        "tiers": "tiered", "dir": "segments",
        "rollups": {"after_s": 60, "minute_after_s": 600},
        "retention": {"raw_s": 3600},
    },
    # Job operators: they bind their inputs per running job, so whether
    # a mutated spec *builds* does not hinge on what still resolves.
    "analytics": {
        "pushers": [{"plugin": "persyst", "operators": {"avg": {
            "interval_s": 1, "window_s": 5, "inputs": ["power"],
            "outputs": ["<bottomup-1>unused"], "params": {"quantiles": [0.5]},
        }}}],
        "agent": [{"plugin": "persyst", "operators": {"avg": {
            "interval_s": 2, "window_s": 4, "inputs": ["power"],
        }}}],
    },
    "ignore": [],
}

WRONG_VALUES = (None, True, -1, 0, 1.5, "x", [], {})


def section_paths(section=DEPLOYMENT, path=()):
    """(path of a section in BASE, section) for every section of the
    table: nested mappings, the first element of lists and mappings."""
    yield path, section
    for row in section.keys:
        kind, here = row.kind, path + (row.name,)
        if isinstance(kind, Each) and isinstance(kind.elem, Section):
            here += (0,) if kind.of is list else ("avg",)
            kind = kind.elem
        if isinstance(kind, Section):
            yield from section_paths(kind, here)


def mutations():
    """Every single-field mutation: each row x each wrong value, plus
    one unknown key per section."""
    for path, section in section_paths():
        yield path + ("zz_unknown",), 1
        for row in section.keys:
            for value in WRONG_VALUES:
                yield path + (row.name,), value


def mutated(path, value):
    spec = copy.deepcopy(BASE)
    target = spec
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    return spec


def mutation_id(case):
    path, value = case
    return ".".join(map(str, path)) + "=" + json.dumps(value)


def walk_errors(spec):
    out = DiagnosticCollector()
    read_deployment(spec, out)
    return {(d.code, d.path) for d in out.sink if d.severity == "error"}


class TestGeneratedFromTheTable:
    def test_base_spec_is_clean_and_touches_every_section(self):
        assert walk_errors(BASE) == set()
        for path, _ in section_paths():
            mutated(path + ("probe",), 1)  # KeyError if BASE lacks it

    @pytest.mark.parametrize("case", list(mutations()), ids=mutation_id)
    def test_build_refuses_exactly_what_check_calls_an_error(
        self, case, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)  # "dir" mutations land here
        spec = mutated(*case)
        # The analyzer returns for every input; it never raises.
        found = analyze_deployment(spec)
        errors = walk_errors(spec)
        structural = {
            (d.code, d.path) for d in found
            if d.severity == "error" and d.code < "W008" or d.code == "W016"
        }
        assert errors <= structural
        if errors:
            with pytest.raises(ConfigError) as refused:
                build_deployment(spec)
            assert {
                (d.code, d.path) for d in refused.value.diagnostics
            } == errors
        else:
            assert build_deployment(spec) is not None

    def test_defaults_are_the_components_own(self, tmp_path):
        view = read_deployment({"cluster": {}, "network": {}})
        pusher = Pusher("p", Broker(), TaskScheduler())
        spill = view.network.spill
        assert spill.capacity == pusher._spill.capacity == 8192
        assert spill.policy == pusher._spill.policy
        assert spill.retry_base_ns == pusher._backoff.base_ns == NS_PER_SEC // 2
        assert spill.retry_max_ns == pusher._backoff.max_ns == 30 * NS_PER_SEC
        assert view.monitoring.cache_window_ns == pusher.cache_window_ns
        backend = TieredStorageBackend(tmp_path)
        assert view.storage.flush_bytes == backend.flush_bytes == 64 * MIB
        assert (
            view.storage.flush_interval_ns
            == backend.maintenance_interval_ns == 30 * NS_PER_SEC
        )
        assert view.storage.rollups.after_ns == backend.rollup_after_ns
        assert view.storage.retention.raw_ns == backend.retention_raw_ns
        operator = OPERATOR.read({}, DiagnosticCollector())
        assert operator_config("x", operator) == OperatorConfig(name="x")
        # No section at all says the same as an empty one.
        assert read_deployment({"cluster": {}}).storage == view.storage


def codes_at(spec):
    return {(d.code, d.path) for d in analyze_deployment(spec)}


def spec_with(**sections):
    return {"cluster": {"nodes": 2, "cpus": 2}, **sections}


class TestAnalyzerNeverRaises:
    """Each of these threw TypeError, or blamed the wrong section."""

    def test_monitoring_plugins_not_a_list(self):
        found = codes_at(spec_with(monitoring={"plugins": 5}))
        assert ("W005", "monitoring.plugins") in found

    def test_job_node_paths_not_a_list(self):
        found = codes_at(spec_with(
            jobs=[{"app": "hpl", "end_s": 5, "node_paths": 7}]
        ))
        assert ("W005", "jobs[0].node_paths") in found

    def test_facility_not_a_mapping_is_blamed_on_facility(self):
        found = codes_at(spec_with(facility=3))
        assert ("W005", "facility") in found
        assert not any(path.startswith("cluster") for _, path in found)


class TestBuildAndCheckAgree:
    def test_total_nodes_is_not_a_key(self):
        spec = {"cluster": {"racks": 2, "nodes_per_chassis": 2,
                            "total_nodes": 3}}
        assert ("W003", "cluster.total_nodes") in codes_at(spec)
        with pytest.raises(ConfigError):
            build_deployment(spec)
        spec["cluster"]["nodes"] = spec["cluster"].pop("total_nodes")
        assert len(build_deployment(spec).pushers) == 3

    @pytest.mark.parametrize("interval", [0, 1.5e-7])
    def test_operator_interval_is_positive_in_ns(self, interval):
        with pytest.raises(ConfigError) as refused:
            parse_operator_config("x", {"interval_ms": interval})
        assert [(d.code, d.path) for d in refused.value.diagnostics] == [
            ("W005", "operators.x.interval_ms")
        ]
        assert parse_operator_config("x", {"window_ms": 0, "delay_s": 0})

    @pytest.mark.parametrize("section, block, path", [
        ("monitoring", {"cache_window_s": 0}, "monitoring.cache_window_s"),
        ("monitoring", {"tester_sensors": -3}, "monitoring.tester_sensors"),
        ("facility", {"interval_s": 0}, "facility.interval_s"),
        ("facility", {"enabled": "yes"}, "facility.enabled"),
        ("cluster", {"seed": 1.5}, "cluster.seed"),
        ("cluster", {"racks": 1, "chassis_per_rack": 0},
         "cluster.chassis_per_rack"),
        ("cluster", {"racks": 1, "nodes": 5}, "cluster.nodes"),
        ("cluster", {"anomalies": {"/rack00": "hot"}},
         "cluster.anomalies./rack00"),
        ("network", {"seed": -1}, "network.seed"),
        ("network", {"spill": {"seed": "x"}}, "network.spill.seed"),
        ("jobs", [{"app": "hpl", "start_s": 9, "end_s": 3}], "jobs[0]"),
        ("jobs", [{"app": "hpl", "end_s": "soon"}], "jobs[0].end_s"),
        ("jobs", [{"app": "hpl", "end_s": 5, "nodes": 0}], "jobs[0].nodes"),
    ])
    def test_rows_the_analyzer_lacked(self, section, block, path):
        spec = spec_with(**{section: block})
        assert ("W016", path) in codes_at(spec)
        with pytest.raises(ConfigError) as refused:
            build_deployment(spec)
        assert ("W016", path) in {
            (d.code, d.path) for d in refused.value.diagnostics
        }

    @pytest.mark.parametrize("section, block", [
        ("cluster", {"seed": "abc"}),
        ("network", {"seed": "x"}),
        ("storage", {"rollups": 5}),
        ("cluster", {"anomalies": [1]}),
    ])
    def test_builder_leaks_no_bare_exception(self, section, block):
        with pytest.raises(ConfigError) as refused:
            build_deployment(spec_with(**{section: block}))
        assert refused.value.diagnostics

    def test_unplaceable_job_stays_the_schedulers_error(self):
        spec = spec_with(jobs=[{"app": "hpl", "end_s": 5, "nodes": 3}])
        assert walk_errors(spec) == set()
        with pytest.raises(ConfigError) as refused:
            build_deployment(spec)
        assert refused.value.diagnostics == []


#: The shape of the ledger's generated specs: perfevent-only nodes, a
#: Pusher operator whose output the agent's operators consume.
FED_BY_PUSHERS = {
    "cluster": {"racks": 2, "nodes_per_chassis": 2, "cpus": 2},
    "monitoring": {"plugins": ["perfevent"],
                   "perfevent_counters": ["cpu-cycles", "instructions"]},
    "jobs": [{"app": "hpl", "start_s": 0, "end_s": 100,
              "node_paths": ["/rack00/chassis00/node00"]}],
    "analytics": {
        "pushers": [{"plugin": "perfmetrics", "operators": {"cpi": {
            "window_s": 5,
            "inputs": ["<bottomup>cpu-cycles", "<bottomup>instructions"],
            "outputs": ["<bottomup>cpi"],
        }}}],
        "agent": [
            {"plugin": "persyst", "operators": {"job-cpi": {
                "window_s": 5, "inputs": ["<bottomup>cpi"],
            }}},
            {"plugin": "aggregator", "operators": {"node-cpi": {
                "window_s": 10, "inputs": ["<bottomup>cpi"],
                "outputs": ["<bottomup-1>node-cpi"], "params": {"op": "mean"},
            }}},
        ],
    },
}


class TestAnalyzerGaps:
    def test_agent_sees_the_pushers_operator_outputs(self):
        """W010 called ``cpi`` dangling on the agent although every
        Pusher publishes it (the ledger specs had to set ``relaxed``)."""
        found = analyze_deployment(FED_BY_PUSHERS)
        assert [d for d in found if d.severity == "error"] == []
        units = {d.path: d.message for d in found if d.code == "W013"}
        assert "4 unit(s)" in units[
            "analytics.agent[1].operators.node-cpi"
        ]

    def test_an_unpublished_name_still_dangles(self):
        spec = copy.deepcopy(FED_BY_PUSHERS)
        agent = spec["analytics"]["agent"][1]["operators"]["node-cpi"]
        agent["inputs"] = ["<bottomup>ipc"]
        assert ("W010", "analytics.agent[1].operators.node-cpi.inputs[0]") \
            in codes_at(spec)

    def test_node_paths_of_a_node_without_sensors_of_its_own(self):
        """W016 asked the sensor tree for node paths, and a perfevent-
        only node carries no sensor itself — only its CPUs do."""
        assert not any(code == "W016" for code, _ in codes_at(FED_BY_PUSHERS))
        spec = copy.deepcopy(FED_BY_PUSHERS)
        spec["jobs"][0]["node_paths"] = ["/rack09/chassis00/node00"]
        assert ("W016", "jobs[0].node_paths") in codes_at(spec)


class TestRefusedSpecOnTheCommandLine:
    def test_run_prints_the_findings_and_exits_2(self, tmp_path, capsys):
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(
            spec_with(netwrok={}, network={"latency": 5})
        ))
        assert cli_main(["run", "--config", str(path), "--duration", "1"]) == 2
        err = capsys.readouterr().err
        assert "error W003 netwrok: unknown deployment section" in err
        assert "error W003 network.latency: unknown network key" in err
        assert "Traceback" not in err


def test_key_tables_in_the_docs_are_rendered_from_the_table():
    """Regenerate with: PYTHONPATH=src python -c "import pathlib,
    repro.spec as s; p = pathlib.Path('docs/CONFIGURATION.md');
    p.write_text(s.render_docs(p.read_text()))"."""
    doc = (REPO_ROOT / "docs" / "CONFIGURATION.md").read_text()
    assert doc.count("<!-- spec:") >= 10
    assert render_docs(doc) == doc
