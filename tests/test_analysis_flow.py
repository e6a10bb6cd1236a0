"""Tests for the whole-deployment dataflow analyzer (F-rules).

Each ``tests/data/flowbad_*.json`` fixture seeds exactly one dataflow
defect; its golden file records the full ``check --flow`` JSON document.
On top of the golden comparisons this module exercises the flow model
builder directly (facts, unit algebra, report rendering) and pins the
performance contract: analysing the quickstart deployment must finish
well under the documented two-second budget without instantiating any
runtime component.
"""

import json
import pathlib
import time

import pytest

from repro.cli import main

DATA_DIR = pathlib.Path(__file__).resolve().parent / "data"
REPO_ROOT = DATA_DIR.parent.parent
EXAMPLES_DIR = REPO_ROOT / "examples"

FLOWBAD_FIXTURES = sorted(
    p for p in DATA_DIR.glob("flowbad_*.json")
    if not p.name.endswith(".golden.json")
)

#: fixture stem -> the one F-rule it is built to trigger.
EXPECTED_CODES = {
    "flowbad_f001_window_exceeds_cache": "F001",
    "flowbad_f002_window_near_cache": "F002",
    "flowbad_f003_window_below_period": "F003",
    "flowbad_f004_redundant_interval": "F004",
    "flowbad_f005_undersampled": "F005",
    "flowbad_f006_mixed_units": "F006",
    "flowbad_f007_unknown_unit": "F007",
    "flowbad_f008_memory": "F008",
    "flowbad_f009_spill_loss": "F009",
    "flowbad_f010_breaker_flap": "F010",
    "flowbad_f011_pipeline_delay": "F011",
    "flowbad_f012_ingest_burst": "F012",
    "flowbad_f013_blocked_fusion": "F013",
}


def run_check(capsys, *argv):
    code = main(["check", *argv])
    return code, capsys.readouterr().out


def test_every_rule_has_a_fixture():
    stems = {p.stem for p in FLOWBAD_FIXTURES}
    assert stems == set(EXPECTED_CODES), (
        "fixture set out of sync with EXPECTED_CODES"
    )
    assert sorted(EXPECTED_CODES.values()) == [
        f"F{i:03d}" for i in range(1, 14)
    ]


class TestSeededFixtures:
    @pytest.mark.parametrize(
        "fixture", FLOWBAD_FIXTURES, ids=lambda p: p.stem
    )
    def test_matches_golden(self, capsys, fixture):
        code, out = run_check(
            capsys, "--flow", str(fixture), "--format", "json"
        )
        got = json.loads(out)
        rel = f"tests/data/{fixture.name}"
        for diag in got["diagnostics"]:
            if diag.get("file"):
                assert diag["file"].endswith(fixture.name)
                diag["file"] = rel
        golden = fixture.with_name(fixture.stem + ".golden.json")
        expected = json.loads(golden.read_text())
        assert got == expected
        assert code == expected["exit_code"]

    @pytest.mark.parametrize(
        "fixture", FLOWBAD_FIXTURES, ids=lambda p: p.stem
    )
    def test_fires_exactly_its_rule(self, capsys, fixture):
        """Each fixture isolates one defect: only its own F code fires."""
        _, out = run_check(
            capsys, "--flow", str(fixture), "--format", "json"
        )
        got = json.loads(out)
        codes = {d["code"] for d in got["diagnostics"]}
        assert codes == {EXPECTED_CODES[fixture.stem]}


class TestCleanDeployments:
    @pytest.mark.parametrize(
        "name", ["quickstart_deployment.json", "parallel_analytics.json"]
    )
    def test_shipped_examples_are_flow_clean(self, capsys, name):
        code, out = run_check(
            capsys, "--flow", str(EXAMPLES_DIR / name), "--format", "json"
        )
        assert code == 0
        got = json.loads(out)
        assert [d for d in got["diagnostics"]
                if d["code"].startswith("F")] == []

    def test_clean_fixture_is_flow_clean(self, capsys):
        code, out = run_check(
            capsys, "--flow", str(DATA_DIR / "clean_deployment.json")
        )
        assert code == 0
        assert "F0" not in out


class TestCliIntegration:
    def test_schema_version_bumped(self, capsys):
        _, out = run_check(
            capsys, "--flow", str(DATA_DIR / "clean_deployment.json"),
            "--format", "json",
        )
        assert json.loads(out)["schema_version"] == 5

    def test_flow_report_json(self, capsys):
        spec = EXAMPLES_DIR / "quickstart_deployment.json"
        _, out = run_check(
            capsys, "--flow", str(spec), "--flow-report", "--format", "json"
        )
        got = json.loads(out)
        report = got["flow_report"][str(spec)]
        assert "flow plan" in report
        assert "memory:" in report and "resilience:" in report

    def test_flow_report_text(self, capsys):
        spec = EXAMPLES_DIR / "quickstart_deployment.json"
        code, out = run_check(capsys, "--flow", str(spec), "--flow-report")
        assert code == 0
        assert "flow " in out and "flow plan" in out

    def test_flow_composes_with_lint_and_config(self, capsys, tmp_path):
        src = tmp_path / "clean.py"
        src.write_text("x = 1\n")
        code, out = run_check(
            capsys,
            "--flow", str(DATA_DIR / "flowbad_f006_mixed_units.json"),
            "--config", str(DATA_DIR / "bad_deployment.json"),
            "--lint", "--lint-path", str(src),
            "--format", "json",
        )
        assert code == 1
        codes = {d["code"] for d in json.loads(out)["diagnostics"]}
        assert "F006" in codes and "W001" in codes

    def test_memory_budget_flag(self, capsys):
        fixture = str(DATA_DIR / "flowbad_f008_memory.json")
        _, out = run_check(
            capsys, "--flow", fixture,
            "--flow-memory-budget-mb", "1000000", "--format", "json",
        )
        assert json.loads(out)["diagnostics"] == []

    def test_unreadable_spec_reports_w005(self, capsys):
        code, out = run_check(
            capsys, "--flow", str(DATA_DIR / "no_such_spec.json"),
            "--format", "json",
        )
        assert code == 1
        got = json.loads(out)
        assert got["diagnostics"][0]["code"] == "W005"


class TestFlowModel:
    def test_quickstart_under_two_seconds(self):
        """Acceptance: the flow pass is pure analysis — no runtime
        components — and completes the quickstart spec in < 2 s."""
        from repro.analysis.flow import build_flow_model

        spec = json.loads(
            (EXAMPLES_DIR / "quickstart_deployment.json").read_text()
        )
        start = time.monotonic()
        model = build_flow_model(spec)
        elapsed = time.monotonic() - start
        assert elapsed < 2.0, f"flow pass took {elapsed:.2f}s"
        assert model.operators

    def test_monitoring_facts_have_units_and_period(self):
        from repro.analysis.flow import build_flow_model

        spec = {
            "cluster": {"nodes": 1, "cpus": 1, "seed": 1},
            "monitoring": {"plugins": ["sysfs"], "interval_ms": 500},
        }
        model = build_flow_model(spec)
        power = [f for t, f in model.facts.items() if t.endswith("/power")]
        assert power
        assert all(f.unit == "W" for f in power)
        assert all(f.period_ns == 500_000_000 for f in power)

    def test_unit_propagation_through_operators(self):
        from repro.analysis.flow import build_flow_model

        spec = {
            "cluster": {"nodes": 1, "cpus": 1, "seed": 1},
            "monitoring": {"plugins": ["sysfs"], "interval_ms": 1000},
            "analytics": {
                "pushers": [{
                    "plugin": "aggregator",
                    "operators": {
                        "avg": {
                            "interval_s": 1, "window_s": 10,
                            "inputs": ["<bottomup>power"],
                            "outputs": ["<bottomup>avg-power"],
                            "params": {"op": "mean"},
                        },
                    },
                }],
            },
        }
        model = build_flow_model(spec)
        avg = [f for t, f in model.facts.items()
               if t.endswith("/avg-power")]
        assert avg
        # mean pools same-unit inputs and preserves the unit.
        assert all(f.unit == "W" for f in avg)
        view = model.operators[0]
        assert view.output_units.get("avg-power") == "W"

    def test_per_second_unit_algebra(self):
        from repro.analysis.flow import _PER_SECOND

        assert _PER_SECOND["J"] == "W"
        assert _PER_SECOND["s"] == "1"

    def test_render_report_lists_operators(self):
        from repro.analysis.flow import build_flow_model, render_flow_report

        spec = json.loads(
            (EXAMPLES_DIR / "quickstart_deployment.json").read_text()
        )
        text = render_flow_report(build_flow_model(spec))
        assert "flow plan" in text
        assert "memory:" in text
        # the two quickstart operators appear with their inferred units
        assert "avg-power [W]" in text
        assert "avg-temp [C]" in text


class TestCatalogDrift:
    """Every W/L/F/S rule code the analysis package can emit must be
    documented in docs/STATIC_ANALYSIS.md — new rules cannot land
    without a catalog entry."""

    def test_all_emitted_codes_are_documented(self):
        import re

        sources = sorted(
            (REPO_ROOT / "src" / "repro" / "analysis").glob("*.py")
        ) + [REPO_ROOT / "src" / "repro" / "spec.py"]
        emitted = set()
        for src in sources:
            emitted |= set(re.findall(r"\b[WLFS]\d{3}\b", src.read_text()))
        assert emitted, "no rule codes found — scan went wrong"
        catalog = (REPO_ROOT / "docs" / "STATIC_ANALYSIS.md").read_text()
        documented = set(re.findall(r"\b[WLFS]\d{3}\b", catalog))
        missing = sorted(emitted - documented)
        assert not missing, (
            f"rule codes used in analysis/ but absent from "
            f"docs/STATIC_ANALYSIS.md: {missing}"
        )

    def test_flow_codes_complete(self):
        import re

        flow_src = (
            REPO_ROOT / "src" / "repro" / "analysis" / "flow.py"
        ).read_text()
        assert set(re.findall(r"\bF\d{3}\b", flow_src)) >= {
            f"F{i:03d}" for i in range(1, 14)
        }


class TestDeterministicOrdering:
    """Satellite: diagnostics are sorted by (file, location, code) in
    both output formats, independent of emission order."""

    def test_sort_key_orders_by_location_then_code(self):
        from repro.analysis.diagnostics import Diagnostic, sort_key

        diags = [
            Diagnostic(code="W010", severity="error", message="b",
                       path="z.late", file="b.json"),
            Diagnostic(code="F001", severity="error", message="a",
                       path="a.early", file="b.json"),
            Diagnostic(code="L002", severity="warning", message="c",
                       file="a.py", line=9),
            Diagnostic(code="L001", severity="info", message="d",
                       file="a.py", line=3),
        ]
        ordered = sorted(diags, key=sort_key)
        assert [d.code for d in ordered] == [
            "L001", "L002", "F001", "W010"
        ]

    def test_json_output_is_sorted(self, capsys):
        _, out = run_check(
            capsys, "--config", str(DATA_DIR / "bad_deployment.json"),
            "--flow", str(DATA_DIR / "flowbad_f001_window_exceeds_cache.json"),
            "--format", "json",
        )
        from repro.analysis.diagnostics import Diagnostic, sort_key

        got = json.loads(out)
        parsed = [
            Diagnostic(
                code=d["code"], severity=d["severity"],
                message=d["message"], path=d.get("path", ""),
                file=d.get("file", ""), line=d.get("line", 0),
            )
            for d in got["diagnostics"]
        ]
        keys = [sort_key(d) for d in parsed]
        assert keys == sorted(keys)

    def test_text_output_matches_json_order(self, capsys):
        _, text = run_check(
            capsys, "--config", str(DATA_DIR / "bad_deployment.json")
        )
        _, js = run_check(
            capsys, "--config", str(DATA_DIR / "bad_deployment.json"),
            "--format", "json",
        )
        json_codes = [d["code"] for d in json.loads(js)["diagnostics"]]
        text_codes = [
            line.split()[1] for line in text.splitlines()
            if line.split() and line.split()[0] in
            ("error", "warning", "info")
        ]
        assert text_codes == json_codes
