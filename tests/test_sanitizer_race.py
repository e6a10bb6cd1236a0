"""Tests for unit-state race detection (R004) on bounded runs."""

import pytest

from repro.sanitizer import run_runtime_check


def spec(misbehave=None, unit_mode="parallel"):
    op = {
        "interval_s": 1,
        "unit_mode": unit_mode,
        "inputs": ["<bottomup>cpu-cycles"],
        "outputs": ["<bottomup>race-out"],
        "params": {"queries": 2},
    }
    if unit_mode == "parallel":
        op["max_workers"] = 4
    if misbehave is not None:
        op["params"]["misbehave"] = misbehave
    return {
        "cluster": {"nodes": 1, "cpus": 4, "seed": 5},
        "monitoring": {"plugins": ["perfevent"], "interval_ms": 1000},
        "analytics": {
            "pushers": [{"plugin": "tester", "operators": {"racer": op}}]
        },
    }


def codes(result):
    return [d.code for d in result.diagnostics]


class TestSharedModelRace:
    def test_r004_shared_model_across_parallel_units(self):
        result = run_runtime_check(spec("shared_model"), duration_s=4.0)
        assert "R004" in codes(result)
        r004 = next(d for d in result.diagnostics if d.code == "R004")
        # The four per-CPU units of the node appear by name.
        for cpu in range(4):
            assert f"cpu{cpu:02d}" in r004.message

    def test_finding_is_deduplicated_across_passes(self):
        result = run_runtime_check(spec("shared_model"), duration_s=4.0)
        assert codes(result).count("R004") == 1
        assert result.events["compute_passes"] > 1

    def test_sequential_shared_model_not_flagged(self):
        # Sequential unit mode processes units in order on one thread:
        # a shared model is the documented design, not a race.
        result = run_runtime_check(
            spec("shared_model", unit_mode="sequential"), duration_s=4.0
        )
        assert "R004" not in codes(result)


class TestCleanRuns:
    def test_clean_parallel_run_has_no_findings(self):
        result = run_runtime_check(spec(), duration_s=4.0)
        assert result.clean, codes(result)

    def test_events_prove_instrumentation_ran(self):
        result = run_runtime_check(spec(), duration_s=4.0)
        assert result.events["compute_passes"] > 0
        assert result.events["model_accesses"] == 0  # no models in use
        assert result.events["views_tracked"] > 0

    def test_programmatic_factory_path(self):
        from repro.deploy import build_deployment
        from repro.sanitizer import make_sanitizer, run_deployment_sanitized

        san = make_sanitizer()
        result = run_deployment_sanitized(
            lambda: build_deployment(spec()), duration_s=3.0, sanitizer=san
        )
        assert result.clean
        passes = san.telemetry.get("sanitizer_passes_total")
        assert passes is not None and passes.value > 0
