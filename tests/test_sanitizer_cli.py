"""Tests for `check --runtime`, --fail-on, schema_version and env gating."""

import json
import pathlib

from repro.cli import main

DATA_DIR = pathlib.Path(__file__).resolve().parent / "data"
RACY = DATA_DIR / "racy_deployment.json"
CLEAN = DATA_DIR / "clean_deployment.json"
RUNTIME_GOLDEN = DATA_DIR / "racy_deployment.runtime.golden.json"


def run_check(capsys, *argv):
    code = main(["check", *argv])
    return code, capsys.readouterr().out


class TestRuntimeCheck:
    def test_racy_fixture_matches_golden(self, capsys):
        code, out = run_check(
            capsys, "--runtime", str(RACY), "--format", "json"
        )
        assert code == 1
        got = json.loads(out)
        expected = json.loads(RUNTIME_GOLDEN.read_text())
        # Normalize the invocation path (absolute here, repo-relative in
        # the golden file) in both diagnostics and the runtime section.
        rel = "tests/data/racy_deployment.json"
        for diag in got["diagnostics"]:
            assert diag["file"].endswith("racy_deployment.json")
            diag["file"] = rel
        got["runtime"] = {
            rel: events for events in got["runtime"].values()
        }
        assert got == expected

    def test_clean_fixture_passes(self, capsys):
        code, out = run_check(capsys, "--runtime", str(CLEAN))
        assert code == 0
        assert "0 error(s)" in out
        assert "R00" not in out

    def test_racy_text_output_names_rules(self, capsys):
        code, out = run_check(capsys, "--runtime", str(RACY))
        assert code == 1
        assert "error R004" in out
        assert "runtime" in out  # event summary line

    def test_runtime_duration_flag(self, capsys):
        code, out = run_check(
            capsys, "--runtime", str(CLEAN), "--runtime-duration", "2",
            "--format", "json",
        )
        assert code == 0
        got = json.loads(out)
        events = next(iter(got["runtime"].values()))
        # 2 simulated seconds: far fewer passes than the default 10 s
        # run of the same fixture (22).
        assert 0 < events["compute_passes"] <= 8

    def test_combines_with_static_and_lint(self, capsys):
        code, out = run_check(
            capsys, "--config", str(RACY), "--runtime", str(CLEAN), "-q"
        )
        assert code == 0


class TestFailOn:
    def warn_config(self, tmp_path):
        path = tmp_path / "warn.json"
        path.write_text(json.dumps({
            "plugin": "aggregator",
            "operators": {
                "a": {"relaxed": True,
                      "inputs": ["<bottomup>power"],
                      "outputs": ["<bottomup>x"]},
                "b": {"relaxed": True,
                      "inputs": ["<bottomup>power"],
                      "outputs": ["<bottomup, filter z>x"]},
            },
        }))
        return path

    def test_default_passes_on_warnings(self, capsys, tmp_path):
        code, _ = run_check(capsys, "--config", str(self.warn_config(tmp_path)))
        assert code == 0

    def test_fail_on_warning(self, capsys, tmp_path):
        code, _ = run_check(
            capsys, "--config", str(self.warn_config(tmp_path)),
            "--fail-on", "warning",
        )
        assert code == 1

    def test_fail_on_info(self, capsys, tmp_path):
        # W013 unit-cardinality notes are info-severity.
        code, _ = run_check(
            capsys, "--config", str(CLEAN), "--fail-on", "info"
        )
        assert code == 1


class TestSchemaVersion:
    def test_json_carries_schema_version(self, capsys):
        code, out = run_check(
            capsys, "--config", str(CLEAN), "--format", "json"
        )
        got = json.loads(out)
        assert got["schema_version"] == 5
        assert "runtime" not in got  # only present for --runtime runs

    def test_nothing_to_do_mentions_runtime(self, capsys):
        code = main(["check"])
        assert code == 2
        assert "--runtime" in capsys.readouterr().err


class TestEnvActivation:
    def test_sanitized_run_reports_to_stderr(self, capsys, monkeypatch):
        monkeypatch.setenv("WINTERMUTE_SANITIZE", "1")
        code = main([
            "run", "--config", str(CLEAN), "--duration", "3",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "sanitizer: 0 finding(s)" in captured.err

    def test_findings_do_not_change_exit_code(self, capsys, monkeypatch):
        monkeypatch.setenv("WINTERMUTE_SANITIZE", "1")
        code = main([
            "run", "--config", str(RACY), "--duration", "3",
        ])
        assert code == 0  # observability switch, not a gate
        captured = capsys.readouterr()
        assert "R004" in captured.err
        assert "finding(s)" in captured.err

    def test_env_off_means_no_sanitizer_output(self, capsys, monkeypatch):
        monkeypatch.delenv("WINTERMUTE_SANITIZE", raising=False)
        code = main([
            "run", "--config", str(CLEAN), "--duration", "2",
        ])
        assert code == 0
        assert "sanitizer" not in capsys.readouterr().err
