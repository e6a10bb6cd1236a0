"""Tests for the ``wintermute-sim check`` subcommand."""

import json
import pathlib

import pytest

from repro.cli import main

DATA_DIR = pathlib.Path(__file__).resolve().parent / "data"
BAD_SPEC = DATA_DIR / "bad_deployment.json"
GOLDEN = DATA_DIR / "bad_deployment.golden.json"


def run_check(capsys, *argv):
    code = main(["check", *argv])
    return code, capsys.readouterr().out


class TestCheckConfigs:
    def test_bad_spec_fails_with_text_diagnostics(self, capsys):
        code, out = run_check(capsys, "--config", str(BAD_SPEC))
        assert code == 1
        assert "error W001" in out
        assert "error W012" in out
        assert "9 error(s)" in out

    def test_bad_spec_json_matches_golden(self, capsys):
        code, out = run_check(
            capsys, "--config", str(BAD_SPEC), "--format", "json"
        )
        assert code == 1
        got = json.loads(out)
        expected = json.loads(GOLDEN.read_text())
        # The CLI echoes whatever path it was invoked with; normalize to
        # the repo-relative form stored in the golden file.
        for diag in got["diagnostics"]:
            assert diag["file"].endswith("bad_deployment.json")
            diag["file"] = "tests/data/bad_deployment.json"
        assert got == expected

    def test_good_block_json_passes(self, capsys, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps({
            "plugin": "aggregator",
            "operators": {
                "avg": {
                    "inputs": ["<bottomup>power"],
                    "outputs": ["<bottomup-1>avg-power"],
                    "params": {"op": "mean"},
                }
            },
        }))
        code, out = run_check(capsys, "--config", str(path))
        assert code == 0
        assert "0 error(s)" in out

    def test_python_source_with_local_plugin(self, capsys):
        example = BAD_SPEC.parent.parent.parent / "examples" / "feedback_loop.py"
        code, out = run_check(capsys, "--config", str(example))
        assert code == 0

    def test_fail_on_warning_turns_warnings_into_failure(self, capsys, tmp_path):
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
        code, _ = run_check(capsys, "--config", str(path))
        assert code == 0  # filtered duplicate is only a warning
        code, _ = run_check(
            capsys, "--config", str(path), "--fail-on", "warning"
        )
        assert code == 1

    def test_quiet_hides_info(self, capsys, tmp_path):
        path = tmp_path / "dyn.py"
        path.write_text(
            "def f(n):\n"
            "    return {'plugin': 'aggregator', 'operators': g(n)}\n"
        )
        code, out = run_check(capsys, "--config", str(path))
        assert code == 0
        assert "W015" in out  # unevaluable block reported as info
        code, out = run_check(capsys, "--config", str(path), "-q")
        assert "W015" not in out

    def test_nothing_to_do_is_usage_error(self, capsys):
        code = main(["check"])
        assert code == 2


class TestCheckLint:
    def test_lint_clean_repo(self, capsys):
        code, out = run_check(capsys, "--lint")
        assert code == 0
        assert "0 error(s)" in out

    def test_lint_path_with_violation(self, capsys, tmp_path):
        bad = tmp_path / "plugins"
        bad.mkdir()
        (bad / "x.py").write_text(
            "try:\n    f()\nexcept Exception:\n    pass\n"
        )
        code, out = run_check(capsys, "--lint", "--lint-path", str(tmp_path))
        assert code == 1
        assert "L003" in out

    def test_lint_and_config_combine(self, capsys, tmp_path):
        (tmp_path / "clean.py").write_text("x = 1\n")
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"plugin": "nope", "operators": {
            "a": {"outputs": ["<bottomup>x"]},
        }}))
        code, out = run_check(
            capsys, "--lint", "--lint-path", str(tmp_path),
            "--config", str(cfg), "--format", "json",
        )
        assert code == 1
        got = json.loads(out)
        assert got["summary"]["error"] == 1
        assert got["diagnostics"][0]["code"] == "W001"


class TestEntryPoint:
    def test_check_registered_in_parser(self):
        from repro.cli import make_parser

        parser = make_parser()
        args = parser.parse_args(["check", "--lint"])
        assert args.lint is True
        assert args.fn.__name__ == "cmd_check"

    def test_max_units_threshold_flows_through(self, capsys, tmp_path):
        path = tmp_path / "many.json"
        path.write_text(json.dumps({
            "cluster": {"nodes": 4, "cpus": 2},
            "monitoring": {"plugins": ["sysfs"]},
            "analytics": {"agent": [{
                "plugin": "smoother",
                "operators": {"s": {
                    "inputs": ["<bottomup>power"],
                    "outputs": ["<bottomup>power-s"],
                }},
            }]},
        }))
        code, out = run_check(
            capsys, "--config", str(path), "--max-units", "2"
        )
        assert code == 0
        assert "W014" in out
