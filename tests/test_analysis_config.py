"""Tests for the static configuration analyzer and its diagnostics."""

import pytest

from repro.analysis import (
    Diagnostic,
    DiagnosticCollector,
    analyze_deployment,
    analyze_pipeline_blocks,
    count_by_severity,
    has_errors,
    sort_key,
)
from repro.analysis.config import resolve_deployment
from repro.common.errors import ConfigError
from repro.core.configurator import Configurator, parse_operator_config
from repro.core.tree import SensorTree
from repro.spec import PLUGIN_BLOCK, read_deployment


def analyze_plugin_block(cfg, **kwargs):
    """One plugin block on its own: a pipeline of one."""
    return analyze_pipeline_blocks([cfg], **kwargs)


def trees_from_deployment(spec):
    """(agent_tree, pusher_tree) the analyzers synthesize for a spec."""
    resolved = resolve_deployment(read_deployment(spec))
    return resolved.agent_tree, resolved.pusher_tree


def collect_block_diagnostics(cfg):
    """The schema walk's findings for one plugin block."""
    out = DiagnosticCollector()
    PLUGIN_BLOCK.read(cfg, out)
    return out.sink


def codes(diags, severity=None):
    return [
        d.code for d in diags
        if severity is None or d.severity == severity
    ]


def small_tree():
    """Two nodes under one rack, power/temp sensors each."""
    return SensorTree.from_topics([
        "/rack00/node00/power",
        "/rack00/node00/temp",
        "/rack00/node01/power",
        "/rack00/node01/temp",
    ])


def block(operators, plugin="aggregator"):
    return {"plugin": plugin, "operators": operators}


class TestDiagnostics:
    def test_format_and_location(self):
        diag = Diagnostic("W010", "error", "boom", path="operators.x")
        assert diag.location == "operators.x"
        assert diag.format() == "error W010 operators.x: boom"
        lint = Diagnostic("L003", "error", "boom", file="a.py", line=7)
        assert lint.location == "a.py:7"

    def test_to_dict_omits_empty_fields(self):
        diag = Diagnostic("W001", "warning", "m", path="p")
        assert diag.to_dict() == {
            "code": "W001", "severity": "warning", "message": "m",
            "path": "p",
        }

    def test_rejects_unknown_severity(self):
        with pytest.raises(ValueError):
            Diagnostic("W001", "fatal", "m")

    def test_collector_prefix_chaining(self):
        out = DiagnosticCollector()
        out.at("analytics", "agent", 0).at("operators", "avg").error(
            "W005", "bad"
        )
        assert out.sink[0].path == "analytics.agent[0].operators.avg"

    def test_sorting_and_counts(self):
        diags = [
            Diagnostic("W013", "info", "i"),
            Diagnostic("W010", "error", "e"),
            Diagnostic("W011", "warning", "w"),
        ]
        ordered = sorted(diags, key=sort_key)
        assert [d.severity for d in ordered] == ["error", "warning", "info"]
        assert count_by_severity(diags) == {
            "error": 1, "warning": 1, "info": 1,
        }
        assert has_errors(diags)


class TestConfiguratorDiagnostics:
    def test_reports_all_errors_at_once(self):
        bad = {
            "mode": "sometimes",            # W005
            "interval_ms": 100,
            "interval_s": 1,                # W004 conflict
            "frobnicate": True,             # W003 unknown key
            "inputs": ["<sideways>x"],      # W006 malformed
        }
        with pytest.raises(ConfigError) as err:
            parse_operator_config("op", bad)
        got = sorted(d.code for d in err.value.diagnostics)
        assert got == ["W003", "W004", "W005", "W006"]

    def test_unknown_top_level_block_key_rejected(self):
        cfg = block({"a": {"outputs": ["<bottomup>x"]}})
        cfg["operator"] = {}  # typo of "operators"
        diags = collect_block_diagnostics(cfg)
        assert "W003" in codes(diags, "error")
        with pytest.raises(ConfigError) as err:
            Configurator(cfg)
        assert any(d.code == "W003" for d in err.value.diagnostics)

    def test_bare_first_output_rejected(self):
        diags = collect_block_diagnostics(
            block({"a": {"outputs": ["no-pattern"]}})
        )
        assert "W007" in codes(diags, "error")

    def test_valid_block_is_clean(self):
        diags = collect_block_diagnostics(block({
            "a": {
                "interval_ms": 500,
                "window_s": 5,
                "inputs": ["<bottomup>power"],
                "outputs": ["<bottomup-1>avg"],
                "params": {"op": "mean"},
            }
        }))
        assert diags == []


class TestAnalyzePluginBlock:
    def test_unknown_plugin_is_w001(self):
        diags = analyze_plugin_block(
            block({"a": {"outputs": ["<bottomup>x"]}}, plugin="zzz")
        )
        assert "W001" in codes(diags, "error")

    def test_known_plugins_extension(self):
        diags = analyze_plugin_block(
            block({"a": {"outputs": ["<bottomup>x"]}}, plugin="mine"),
            known_plugins=["mine"],
        )
        assert "W001" not in codes(diags)

    def test_dangling_input_with_tree(self):
        diags = analyze_plugin_block(
            block({"a": {
                "inputs": ["<bottomup>nonesuch"],
                "outputs": ["<bottomup>out"],
            }}),
            tree=small_tree(),
        )
        assert "W010" in codes(diags, "error")

    def test_relaxed_downgrades_dangling_to_warning(self):
        diags = analyze_plugin_block(
            block({"a": {
                "relaxed": True,
                "inputs": ["<bottomup>nonesuch"],
                "outputs": ["<bottomup>out"],
            }}),
            tree=small_tree(),
        )
        assert "W010" in codes(diags, "warning")
        assert not has_errors(diags)

    def test_level_outside_tree_is_w008(self):
        diags = analyze_plugin_block(
            block({"a": {
                "inputs": ["<bottomup>power"],
                "outputs": ["<topdown+7>avg"],
            }}),
            tree=small_tree(),
        )
        assert "W008" in codes(diags, "error")

    def test_empty_domain_is_w009(self):
        diags = analyze_plugin_block(
            block({"a": {
                "inputs": ["<bottomup>power"],
                "outputs": ["<bottomup, filter nomatch>out"],
            }}),
            tree=small_tree(),
        )
        assert "W009" in codes(diags, "error")

    def test_cardinality_info_and_threshold(self):
        cfg = block({"a": {
            "inputs": ["<bottomup>power"],
            "outputs": ["<bottomup>out"],
        }})
        diags = analyze_plugin_block(cfg, tree=small_tree())
        info = [d for d in diags if d.code == "W013"]
        assert len(info) == 1 and "2 unit(s)" in info[0].message
        diags = analyze_plugin_block(cfg, tree=small_tree(), max_units=1)
        assert "W014" in codes(diags, "warning")

    def test_no_tree_skips_resolution(self):
        diags = analyze_plugin_block(block({"a": {
            "inputs": ["<bottomup>whatever"],
            "outputs": ["<bottomup>out"],
        }}))
        assert codes(diags) == []


class TestPipelineRules:
    def test_staged_outputs_visible_downstream(self):
        blocks = [
            block({"s": {
                "inputs": ["<bottomup>power"],
                "outputs": ["<bottomup>power-smooth"],
            }}, plugin="smoother"),
            block({"h": {
                "inputs": ["<bottomup>power-smooth"],
                "outputs": ["<bottomup>power-ok"],
            }}, plugin="health"),
        ]
        diags = analyze_pipeline_blocks(blocks, tree=small_tree())
        assert "W010" not in codes(diags)

    def test_same_block_outputs_visible_downstream(self):
        # load_plugin declares after each operator, not after each block.
        diags = analyze_pipeline_blocks([block({
            "a": {"inputs": ["<bottomup>power"],
                  "outputs": ["<bottomup>avg-power"]},
            "b": {"inputs": ["<bottomup>avg-power"],
                  "outputs": ["<bottomup>peak-power"]},
        })], tree=small_tree())
        assert "W010" not in codes(diags)

    def test_unresolvable_producer_declares_nothing(self):
        # ... and, like load_plugin, only what resolved: a stage that
        # cannot build its units has no outputs for the next to read.
        diags = analyze_pipeline_blocks([block({
            "a": {"inputs": ["<bottomup>powr"],
                  "outputs": ["<bottomup>avg-power"]},
            "b": {"inputs": ["<bottomup>avg-power"],
                  "outputs": ["<bottomup>peak-power"]},
        })], tree=small_tree())
        assert codes(diags, "error") == ["W010", "W010"]

    def test_duplicate_output_topics_error(self):
        blocks = [block({
            "a": {"inputs": ["<bottomup>power"],
                  "outputs": ["<bottomup-1>agg"]},
            "b": {"inputs": ["<bottomup>temp"],
                  "outputs": ["<bottomup-1>agg"]},
        })]
        diags = analyze_pipeline_blocks(blocks, tree=small_tree())
        assert "W011" in codes(diags, "error")

    def test_filtered_duplicate_is_warning(self):
        blocks = [block({
            "a": {"inputs": ["<bottomup>power"],
                  "outputs": ["<bottomup, filter node00>agg"]},
            "b": {"inputs": ["<bottomup>temp"],
                  "outputs": ["<bottomup, filter node01>agg"]},
        })]
        diags = analyze_pipeline_blocks(blocks, tree=small_tree())
        assert "W011" in codes(diags, "warning")
        assert "W011" not in codes(diags, "error")

    def test_same_name_different_level_not_duplicate(self):
        blocks = [block({
            "a": {"inputs": ["<bottomup>power"],
                  "outputs": ["<bottomup>agg"]},
            "b": {"inputs": ["<bottomup>temp"],
                  "outputs": ["<bottomup-1>agg"]},
        })]
        diags = analyze_pipeline_blocks(blocks, tree=small_tree())
        assert "W011" not in codes(diags)

    def test_cycle_detection(self):
        blocks = [
            block({"a": {"inputs": ["<bottomup>sig-b"],
                         "outputs": ["<bottomup>sig-a"]}}),
            block({"b": {"inputs": ["<bottomup>sig-a"],
                         "outputs": ["<bottomup>sig-b"]}}),
        ]
        diags = analyze_pipeline_blocks(blocks, tree=small_tree())
        assert "W012" in codes(diags, "error")

    def test_aggregation_chain_is_not_a_cycle(self):
        # <bottomup>power -> <bottomup-1>power is legitimate upward
        # aggregation: same sensor name, different level.
        blocks = [block({"agg": {
            "inputs": ["<bottomup>power"],
            "outputs": ["<bottomup-1>power-sum"],
        }})]
        diags = analyze_pipeline_blocks(blocks, tree=small_tree())
        assert "W012" not in codes(diags)

    def test_symbolic_cycle_without_tree(self):
        blocks = [
            block({"a": {"inputs": ["<bottomup>x"],
                         "outputs": ["<bottomup>y"]}}),
            block({"b": {"inputs": ["<bottomup>y"],
                         "outputs": ["<bottomup>x"]}}),
        ]
        diags = analyze_pipeline_blocks(blocks)
        assert "W012" in codes(diags, "error")


class TestDeployment:
    def spec(self, **overrides):
        base = {
            "cluster": {"nodes": 2, "cpus": 2},
            "monitoring": {"plugins": ["sysfs"]},
            "analytics": {"agent": []},
        }
        base.update(overrides)
        return base

    def test_clean_spec(self):
        assert analyze_deployment(self.spec()) == []

    def test_unknown_section(self):
        diags = analyze_deployment(self.spec(extra={}))
        assert "W003" in codes(diags, "error")

    def test_unknown_monitoring_plugin(self):
        diags = analyze_deployment(
            self.spec(monitoring={"plugins": ["nope"]})
        )
        assert "W016" in codes(diags, "error")

    def test_unknown_perfevent_counter(self):
        diags = analyze_deployment(self.spec(
            monitoring={"plugins": ["perfevent"],
                        "perfevent_counters": ["zflops"]}
        ))
        assert "W016" in codes(diags, "error")

    def test_unknown_app_profile_and_missing_end(self):
        diags = analyze_deployment(
            self.spec(jobs=[{"app": "doom"}])
        )
        msgs = [d.message for d in diags if d.code == "W016"]
        assert any("doom" in m for m in msgs)
        assert any("end_s" in m for m in msgs)

    def test_job_unknown_node_path(self):
        diags = analyze_deployment(self.spec(jobs=[
            {"app": "hpl", "end_s": 10, "node_paths": ["/rack99/node99"]}
        ]))
        assert any(
            d.code == "W016" and "node path" in d.message for d in diags
        )

    def test_level_outside_tree_in_a_deployment_is_w008(self):
        # Failing-before: the static resolution let the TopicError out
        # and ``check --config`` ended in a traceback.
        bad = block({"a": {"inputs": ["<bottomup>power"],
                           "outputs": ["<topdown+7>x"]}})
        for context in ("pushers", "agent"):
            diags = analyze_deployment(self.spec(analytics={context: [bad]}))
            assert codes(diags, "error") == ["W008"]

    def test_unpublished_pusher_outputs_never_reach_the_agent(self):
        quiet = block({"a": {"inputs": ["<bottomup>power"],
                             "outputs": ["<bottomup>avg-power"],
                             "publish_outputs": False}})
        reader = block({"r": {"inputs": ["<bottomup>avg-power"],
                              "outputs": ["<bottomup>seen"]}})
        diags = analyze_deployment(self.spec(
            analytics={"pushers": [quiet], "agent": [reader]}
        ))
        assert codes(diags, "error") == ["W010"]

    def test_analytics_blocks_resolved_per_context(self):
        # temp exists on every node: fine for both pushers and agent.
        ok = block({"a": {"inputs": ["<bottomup>temp"],
                          "outputs": ["<bottomup>t2"]}})
        diags = analyze_deployment(self.spec(
            analytics={"pushers": [ok], "agent": [ok]}
        ))
        assert not has_errors(diags)

    def test_trees_from_deployment_shapes(self):
        agent, pusher = trees_from_deployment({
            "cluster": {"nodes": 3, "cpus": 2},
            "monitoring": {"plugins": ["sysfs", "perfevent"]},
        })
        # 3 nodes x (4 sysfs + 2 cpus x 6 perfevent counters)
        assert agent.n_sensors == 3 * (4 + 2 * 6)
        assert pusher.n_sensors == 4 + 2 * 6
        assert agent.max_level > pusher.max_level or (
            agent.max_level == pusher.max_level
        )

    def test_facility_sensors_in_agent_tree(self):
        agent, _ = trees_from_deployment({
            "cluster": {"nodes": 1, "cpus": 1},
            "monitoring": {"plugins": ["sysfs"]},
            "facility": {"enabled": True},
        })
        assert agent.has_sensor("/facility/cooling/inlet-temp")

    def test_cluster_preset_validation(self):
        diags = analyze_deployment(
            self.spec(cluster={"preset": "notacluster"})
        )
        assert "W016" in codes(diags, "error")


class TestNetworkSection:
    def spec(self, network):
        return {
            "cluster": {"nodes": 2, "cpus": 2},
            "monitoring": {"plugins": ["sysfs"]},
            "network": network,
        }

    def test_clean_network_section(self):
        diags = analyze_deployment(self.spec({
            "latency_ms": 5,
            "jitter_ms": 2,
            "drop_probability": 0.01,
            "seed": 7,
            "outages": [
                {"start_s": 10, "end_s": 20,
                 "destinations": ["/r0/c0/n0"]},
            ],
            "spill": {"capacity": 1000, "policy": "drop-oldest",
                      "retry_base_ms": 100, "retry_max_ms": 2000},
            "ingest": {"queue_capacity": 5000, "policy": "drop-newest"},
        }))
        assert diags == []

    def test_unknown_keys_flagged(self):
        diags = analyze_deployment(self.spec({
            "latency": 5,                       # W003: must be latency_ms
            "spill": {"cap": 10},               # W003 nested
            "ingest": {"policy": "drop-oldest", "qcap": 1},  # W003 nested
        }))
        # An unknown key is an error wherever it sits: the builder
        # refuses it rather than run with ``latency`` silently dropped.
        assert codes(diags, "error").count("W003") == 3

    def test_value_errors(self):
        diags = analyze_deployment(self.spec({
            "latency_ms": 1,
            "jitter_ms": 5,                     # W016: jitter > latency
            "drop_probability": 1.0,            # W016: must be < 1
        }))
        got = codes(diags, "error")
        assert got.count("W016") == 2

    def test_outage_shape_errors(self):
        diags = analyze_deployment(self.spec({
            "outages": [
                {"end_s": 5},                   # missing start_s
                {"start_s": 9, "end_s": 3},     # end before start
                {"start_s": 1, "end_s": 2, "destinations": []},
            ],
        }))
        assert codes(diags, "error").count("W016") == 3

    def test_spill_and_ingest_value_errors(self):
        diags = analyze_deployment(self.spec({
            "spill": {"capacity": 0, "policy": "drop-something",
                      "retry_base_ms": 500, "retry_max_ms": 100},
            "ingest": {"queue_capacity": -1},
        }))
        assert codes(diags, "error").count("W016") == 4

    def test_network_must_be_mapping(self):
        diags = analyze_deployment(self.spec([1, 2]))
        assert "W005" in codes(diags, "error")
