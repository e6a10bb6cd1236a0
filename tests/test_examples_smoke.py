"""Smoke tests for the example scripts.

Every example must at least byte-compile; the fastest ones run to
completion under a subprocess so API drift in the examples is caught by
the suite (the longer case-study examples are exercised through the
figure benchmarks instead).
"""

import pathlib
import py_compile
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
BENCHMARKS_DIR = EXAMPLES_DIR.parent / "benchmarks"
ALL_EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))
ALL_CONFIG_SOURCES = ALL_EXAMPLES + sorted(BENCHMARKS_DIR.glob("*.py"))

#: Examples fast enough to execute inside the test suite.
FAST_EXAMPLES = ["quickstart.py", "ondemand_scheduling.py"]


def test_examples_exist():
    names = {p.name for p in ALL_EXAMPLES}
    for expected in (
        "quickstart.py",
        "power_prediction.py",
        "job_analysis.py",
        "cluster_anomalies.py",
        "feedback_loop.py",
        "ondemand_scheduling.py",
        "app_fingerprinting.py",
        "infrastructure_cooling.py",
        "job_duration_prediction.py",
        "virtual_sensors.py",
    ):
        assert expected in names


@pytest.mark.parametrize("path", ALL_EXAMPLES, ids=lambda p: p.name)
def test_example_compiles(path):
    py_compile.compile(str(path), doraise=True)


@pytest.mark.parametrize(
    "path", ALL_CONFIG_SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}"
)
def test_static_analyzer_accepts_config_blocks(path):
    """Every config block shipped in examples/ and benchmarks/ must pass
    the static analyzer without errors (``wintermute-sim check``)."""
    from repro.analysis import (
        analyze_deployment,
        analyze_pipeline_blocks,
        extract_configs,
    )

    result = extract_configs(str(path))
    diags = []
    blocks = []
    for cfg in result.configs:
        if cfg.kind == "block":
            blocks.append(cfg.value)
        elif cfg.kind == "blocks":
            blocks.extend(cfg.value)
        else:  # full deployment spec: tree-based analysis
            diags.extend(
                analyze_deployment(
                    cfg.value, known_plugins=result.local_plugins
                )
            )
    diags.extend(
        analyze_pipeline_blocks(blocks, known_plugins=result.local_plugins)
    )
    errors = [d.format() for d in diags if d.severity == "error"]
    assert not errors, errors


ALL_JSON_SPECS = sorted(EXAMPLES_DIR.glob("*.json"))


def test_json_specs_exist():
    assert {p.name for p in ALL_JSON_SPECS} >= {
        "quickstart_deployment.json",
        "parallel_analytics.json",
    }


@pytest.mark.parametrize("path", ALL_JSON_SPECS, ids=lambda p: p.name)
def test_flow_analyzer_accepts_json_spec(path):
    """Every shipped JSON deployment spec must be F-error-free under the
    dataflow analyzer (``wintermute-sim check --flow``)."""
    import json

    from repro.analysis.flow import analyze_flow

    spec = json.loads(path.read_text())
    diags = analyze_flow(spec)
    errors = [d.format() for d in diags if d.severity == "error"]
    assert not errors, errors


@pytest.mark.parametrize(
    "path", ALL_CONFIG_SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}"
)
def test_flow_analyzer_accepts_config_deployments(path):
    """Deployment specs embedded in examples/ and benchmarks/ must also
    pass the dataflow pass (analyze_deployment with flow=True)."""
    from repro.analysis import analyze_deployment, extract_configs

    result = extract_configs(str(path))
    for cfg in result.configs:
        if cfg.kind in ("block", "blocks"):
            continue
        diags = analyze_deployment(
            cfg.value, known_plugins=result.local_plugins, flow=True
        )
        errors = [
            d.format() for d in diags
            if d.severity == "error" and d.code.startswith("F")
        ]
        assert not errors, errors


@pytest.mark.parametrize("name", FAST_EXAMPLES)
def test_fast_example_runs(name):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip(), "example produced no output"


#: Every spec the three verdicts must agree on: the shipped examples
#: plus the fixture that pins same-block visibility.
VERDICT_SPECS = ALL_JSON_SPECS + [
    EXAMPLES_DIR.parent / "tests" / "data" / "sameblock_pipeline.json",
]


def _unit_facts(units):
    return sorted(
        (u.name, sorted(u.inputs), sorted(s.topic for s in u.outputs))
        for u in units
    )


@pytest.mark.parametrize("path", VERDICT_SPECS, ids=lambda p: p.name)
def test_static_resolution_predicts_the_built_units(path, tmp_path):
    """``check --config``, ``check --flow`` and the builder answer "what
    can this operator see when it loads" alike: a spec both checks pass
    builds, and every operator holds exactly the units the static
    resolution predicted (Pusher blocks on the first node), computes
    and does not err."""
    import json

    from repro.analysis import analyze_deployment
    from repro.analysis.config import resolve_deployment
    from repro.analysis.flow import analyze_flow
    from repro.deploy import build_deployment
    from repro.spec import read_deployment

    spec = json.loads(path.read_text())
    if spec.get("storage", {}).get("tiers") == "tiered":
        spec["storage"]["dir"] = str(tmp_path)
    for analyze in (analyze_deployment, analyze_flow):
        errors = [d.format() for d in analyze(spec) if d.severity == "error"]
        assert not errors, errors
    resolved = resolve_deployment(read_deployment(spec))
    dep = build_deployment(spec)
    managers = [*dep.managers.values(), dep.agent_manager]
    trees = [m.engine.navigator.tree for m in managers]
    dep.run(8)
    first = dep.managers[resolved.node_paths[0]]
    for manager, pipeline in (
        (first, resolved.pushers), (dep.agent_manager, resolved.agent)
    ):
        assert [op.name for op in manager.operators()] == [
            op.name for op in pipeline.operators
        ]
        for predicted in pipeline.operators:
            op = manager.operator(predicted.name)
            stats = op.stats()
            assert stats["errors"] == 0, stats
            if predicted.config.mode == "online":
                assert stats["computes"] >= 1, stats
            if not predicted.is_job_plugin:
                assert _unit_facts(op.units) == _unit_facts(predicted.units)
    # Loading, declaring and eight seconds of passes grew every tree in
    # place: no engine ever swapped its tree for another.
    for manager, tree in zip(managers, trees):
        manager.engine.refresh_navigator()
        assert manager.engine.navigator.tree is tree
