"""The operator plugin registry: bundled plugins listed by name and
imported on the first lookup of that name, registered classes first."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.analysis import analyze_pipeline_blocks
from repro.common.errors import PluginError
from repro.core import registry
from repro.core.operator import OperatorBase, OperatorConfig
from repro.core.registry import (
    BUNDLED,
    available_plugins,
    create_operator,
    get_plugin_class,
    operator_plugin,
)

ELEVEN = [
    "aggregator", "classifier", "clustering", "correlation", "filesink",
    "health", "perfmetrics", "persyst", "regressor", "smoother", "tester",
]

SRC = str(pathlib.Path(repro.__file__).resolve().parents[1])


def run_fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter; it prints one JSON object."""
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture
def private_registry(monkeypatch):
    """Registrations made by a test stay in the test."""
    monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))


class TestBundled:
    def test_the_table_lists_the_eleven_plugins(self):
        assert sorted(BUNDLED) == ELEVEN

    @pytest.mark.parametrize("name", ELEVEN)
    def test_every_bundled_name_resolves(self, name):
        cls = get_plugin_class(name)
        assert isinstance(cls, type) and issubclass(cls, OperatorBase)
        assert cls.__module__ == BUNDLED[name]
        assert registry._REGISTRY[name] is cls

    def test_available_plugins_imports_nothing(self):
        got = run_fresh(
            "import json, sys\n"
            "from repro.core.registry import available_plugins\n"
            "names = available_plugins()\n"
            "print(json.dumps({'names': names, 'loaded': sorted(\n"
            "    m for m in sys.modules if m.startswith('repro.plugins.'))}))\n"
        )
        assert got == {"names": ELEVEN, "loaded": []}

    def test_a_lookup_imports_only_its_own_module(self):
        got = run_fresh(
            "import json, sys\n"
            "from repro.core.registry import get_plugin_class\n"
            "get_plugin_class('health')\n"
            "print(json.dumps(sorted(\n"
            "    m for m in sys.modules if m.startswith('repro.plugins.'))))\n"
        )
        assert got == ["repro.plugins.health"]


class TestThirdParty:
    def test_a_registered_plugin_resolves(self, private_registry):
        before = available_plugins()

        @operator_plugin("range")
        class RangeOperator(OperatorBase):
            def compute_unit(self, unit, ts):
                return {}

        assert get_plugin_class("range") is RangeOperator
        assert available_plugins() == sorted(before + ["range"])
        op = create_operator("range", OperatorConfig(name="r"), {})
        assert isinstance(op, RangeOperator)
        diags = analyze_pipeline_blocks([{
            "plugin": "range",
            "operators": {"r": {"outputs": ["<bottomup>r"]}},
        }])
        assert "W001" not in [d.code for d in diags]

    def test_a_registered_class_wins_over_the_table(self, private_registry):
        before = available_plugins()

        @operator_plugin("health")
        class Twin(OperatorBase):
            def compute_unit(self, unit, ts):
                return {}

        assert get_plugin_class("health") is Twin
        assert available_plugins() == before

    def test_an_unknown_name(self):
        assert get_plugin_class("no-such-plugin") is None
        with pytest.raises(PluginError, match="registered: .*'tester'"):
            create_operator("no-such-plugin", OperatorConfig(name="x"), {})
        diags = analyze_pipeline_blocks([{
            "plugin": "no-such-plugin",
            "operators": {"x": {"outputs": ["<bottomup>x"]}},
        }])
        assert "W001" in [d.code for d in diags if d.severity == "error"]


#: A tester-only deployment, the ``ingest_fanin`` shape at smoke size:
#: tester sensors on every node of the preset, one on-demand aggregator
#: on the Collect Agent loaded once the agent has seen the sensors.
DEPLOY_TESTER_ONLY = """
import json, sys
from repro.deploy import build_deployment
from repro.core.registry import get_plugin_class

dep = build_deployment({
    "cluster": {"preset": "coolmuc3", "seed": 1},
    "monitoring": {"plugins": ["tester"], "tester_sensors": 4,
                   "interval_ms": 1000, "cache_window_s": 30},
})
dep.run(3)
dep.agent_manager.load_plugin({"plugin": "aggregator", "operators": {
    "probe-avg": {"mode": "ondemand", "window_s": 30,
                  "inputs": ["tester0000", "tester0001"],
                  "outputs": ["<bottomup>probe-avg"],
                  "params": {"op": "mean"}}}})
dep.run(2)

def loaded():
    return sorted(m for m in sys.modules
                  if m == "scipy" or m.startswith(("scipy.", "repro.ml",
                                                    "repro.plugins.")))

before = loaded()
cls = get_plugin_class("clustering")
print(json.dumps({"before": before, "after": loaded(),
                  "clustering": cls.__name__,
                  "units": len(dep.agent_manager.operator("probe-avg").units)}))
"""


def test_a_tester_only_deployment_loads_no_ml():
    got = run_fresh(DEPLOY_TESTER_ONLY)
    assert got["units"] > 0
    assert got["before"] == ["repro.plugins.aggregator"]
    assert got["clustering"] == "ClusteringOperator"
    after = set(got["after"])
    assert {"repro.ml.bgmm", "repro.plugins.clustering"} <= after
    assert not any(m == "scipy" or m.startswith("scipy.") for m in after)
