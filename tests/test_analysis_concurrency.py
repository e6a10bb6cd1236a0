"""Tests for the static concurrency analyzer (S-rules).

Each ``tests/data/concbad_s0XX.py`` fixture seeds exactly one
concurrency defect; its golden file records the full ``check
--concurrency`` JSON document.  On top of the golden comparisons this
module exercises the inference machinery directly (guarded-by claims,
annotations, suppression accounting), pins the full-repo analysis under
three seconds, and keeps the four rule catalogs, the docs and what
``check`` emits in step.
"""

import json
import pathlib
import re
import tempfile
import time

import pytest

from repro.analysis import analyze_concurrency, render_concurrency_report
from repro.analysis.concurrency import _SEVERITY as _S_SEVERITY
from repro.cli import main

DATA_DIR = pathlib.Path(__file__).resolve().parent / "data"
REPO_ROOT = DATA_DIR.parent.parent
SRC_REPRO = REPO_ROOT / "src" / "repro"
EXAMPLES_DIR = REPO_ROOT / "examples"

CONCBAD_FIXTURES = sorted(DATA_DIR.glob("concbad_*.py"))

#: fixture stem -> the one S-rule it is built to trigger.
EXPECTED_CODES = {
    # A tie (one guarded write, one not) claims: S001 on line 14.
    "concbad_s001_tie_vote": "S001",
    "concbad_s001_unguarded_write": "S001",
    "concbad_s002_unguarded_read": "S002",
    "concbad_s003_inconsistent_guard": "S003",
    "concbad_s004_check_then_act": "S004",
    "concbad_s005_bare_acquire": "S005",
    "concbad_s007_publish_then_mutate": "S007",
    "concbad_s008_percall_lock": "S008",
    "concbad_s009_callback_under_lock": "S009",
    "concbad_s010_stale_annotation": "S010",
}


#: Lock discipline kept: every guarded write locked, a locked write
#: nested in a branch, and a class with no lock at all.
CLEAN_SOURCES = {
    "locked": (
        "import threading\n"
        "class Buffer:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self._rows = []\n"
        "    def append(self, row):\n"
        "        with self._lock:\n"
        "            self._rows = self._rows + [row]\n"
        "    def clear(self):\n"
        "        with self._lock:\n"
        "            self._rows = []\n"
    ),
    "nested": (
        "class Buffer:\n"
        "    def maybe(self, flag):\n"
        "        if flag:\n"
        "            with self._lock:\n"
        "                self._rows = []\n"
    ),
    "plain": (
        "class Plain:\n"
        "    def set(self, v):\n"
        "        self.value = v\n"
    ),
}


def run_check(capsys, *argv):
    code = main(["check", *argv])
    return code, capsys.readouterr().out


def test_every_rule_has_a_fixture():
    stems = {p.stem for p in CONCBAD_FIXTURES}
    assert stems == set(EXPECTED_CODES), (
        "fixture set out of sync with EXPECTED_CODES"
    )
    assert sorted(set(EXPECTED_CODES.values())) == sorted(_S_SEVERITY)


class TestSeededFixtures:
    @pytest.mark.parametrize(
        "fixture", CONCBAD_FIXTURES, ids=lambda p: p.stem
    )
    def test_matches_golden(self, capsys, fixture):
        code, out = run_check(
            capsys, "--concurrency", str(fixture), "--format", "json"
        )
        got = json.loads(out)
        rel = f"tests/data/{fixture.name}"
        for diag in got["diagnostics"]:
            assert diag["file"].endswith(fixture.name)
            diag["file"] = rel
        golden = fixture.with_name(fixture.stem + ".golden.json")
        expected = json.loads(golden.read_text())
        assert got == expected
        assert code == expected["exit_code"]

    @pytest.mark.parametrize(
        "fixture", CONCBAD_FIXTURES, ids=lambda p: p.stem
    )
    def test_fires_exactly_its_rule(self, capsys, fixture):
        """Each fixture isolates one defect: only its own S code fires."""
        _, out = run_check(
            capsys, "--concurrency", str(fixture), "--format", "json"
        )
        got = json.loads(out)
        codes = {d["code"] for d in got["diagnostics"]}
        assert codes == {EXPECTED_CODES[fixture.stem]}


class TestRepoIsClean:
    def test_shipped_sources_pass(self, capsys):
        """Acceptance: the repo's own concurrent core analyses clean
        (the one intentional wrapper acquire is a counted suppression,
        not a silent pass)."""
        code, out = run_check(capsys, "--concurrency")
        assert code == 0
        assert "0 error(s), 0 warning(s)" in out
        assert "1 ignored" in out

    def test_full_repo_under_three_seconds(self):
        """CI perf pin: pre-commit-friendly means < 3 s for src/repro."""
        start = time.monotonic()
        model = analyze_concurrency([str(SRC_REPRO)])
        elapsed = time.monotonic() - start
        assert elapsed < 3.0, f"concurrency pass took {elapsed:.2f}s"
        assert any(ci.locks for fi in model.files for ci in fi.classes), (
            "no locks discovered — scan went wrong"
        )


class TestGuardedByInference:
    def analyze(self, tmp_path, source):
        path = tmp_path / "mod.py"
        path.write_text(source)
        return analyze_concurrency([str(path)])

    def test_majority_vote_claims_attribute(self, tmp_path):
        model = self.analyze(tmp_path, (
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.n = 0\n"
            "    def a(self):\n"
            "        with self._lock:\n"
            "            self.n += 1\n"
            "    def b(self):\n"
            "        with self._lock:\n"
            "            self.n += 2\n"
            "    def racy(self):\n"
            "        self.n = 0\n"
        ))
        assert [d.code for d in model.diagnostics] == ["S001"]
        ci = model.files[0].classes[0]
        assert ci.claims.get("n") == "_lock"
        assert ci.display("_lock") == "C._lock"

    def test_minority_guarded_attribute_is_unclaimed(self, tmp_path):
        model = self.analyze(tmp_path, (
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.n = 0\n"
            "    def a(self):\n"
            "        with self._lock:\n"
            "            self.n += 1\n"
            "    def b(self):\n"
            "        self.n = 1\n"
            "    def c(self):\n"
            "        self.n = 2\n"
        ))
        assert model.diagnostics == []

    def test_guarded_by_annotation_forces_claim(self, tmp_path):
        """A declared guard turns an otherwise-unclaimed attribute's
        bare write into S001."""
        model = self.analyze(tmp_path, (
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.x = 0  # guarded-by: _lock\n"
            "    def touch(self):\n"
            "        self.x = 1\n"
        ))
        assert [d.code for d in model.diagnostics] == ["S001"]

    def test_unguarded_annotation_waives_with_reason(self, tmp_path):
        model = self.analyze(tmp_path, (
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.n = 0\n"
            "    def a(self):\n"
            "        with self._lock:\n"
            "            self.n += 1\n"
            "    def b(self):\n"
            "        with self._lock:\n"
            "            self.n += 2\n"
            "    def peek(self):\n"
            "        return self.n  # unguarded: stale read tolerated\n"
        ))
        assert model.diagnostics == []
        # an intent declaration is not a suppression: nothing "ignored"
        assert model.ignored == 0

    def test_empty_unguarded_reason_is_s010(self, tmp_path):
        model = self.analyze(tmp_path, (
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.n = 0\n"
            "    def a(self):\n"
            "        with self._lock:\n"
            "            self.n += 1\n"
            "    def b(self):\n"
            "        with self._lock:\n"
            "            self.n += 2\n"
            "    def peek(self):\n"
            "        return self.n  # unguarded:\n"
        ))
        assert {d.code for d in model.diagnostics} == {"S010"}

    def test_interprocedural_helper_inherits_lockset(self, tmp_path):
        """A private helper called only with the lock held analyses as
        guarded — the intersection of its callers' locksets."""
        model = self.analyze(tmp_path, (
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.n = 0\n"
            "    def a(self):\n"
            "        with self._lock:\n"
            "            self._bump()\n"
            "    def b(self):\n"
            "        with self._lock:\n"
            "            self._bump()\n"
            "    def _bump(self):\n"
            "        self.n += 1\n"
        ))
        assert model.diagnostics == []
        ci = model.files[0].classes[0]
        assert ci.claims.get("n") == "_lock"

    def test_make_lock_alias_uses_seam_name(self, tmp_path):
        model = self.analyze(tmp_path, (
            "from repro.sanitizer import hooks\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._mu = hooks.make_lock('C.custom')\n"
            "    def a(self):\n"
            "        with self._mu:\n"
            "            pass\n"
        ))
        ci = model.files[0].classes[0]
        assert ci.locks["_mu"].display == "C.custom"

    @pytest.mark.parametrize("name", ["locked", "nested", "plain"])
    def test_clean_sources(self, tmp_path, name):
        """Lock discipline kept: no finding, and no stray claim."""
        model = self.analyze(tmp_path, CLEAN_SOURCES[name])
        assert model.diagnostics == []


class TestSuppressions:
    """Satellite: the uniform ``# wintermute: ignore[CODE]`` marker is
    honored by every source-reading pass and stays visible as a count."""

    def test_marker_suppresses_and_counts(self, capsys, tmp_path):
        src = DATA_DIR / "concbad_s001_unguarded_write.py"
        patched = tmp_path / "patched.py"
        patched.write_text(src.read_text().replace(
            "self.count = 0  # rebinds",
            "self.count = 0  # wintermute: ignore[S001] -- rebinds",
        ))
        code, out = run_check(
            capsys, "--concurrency", str(patched), "--format", "json"
        )
        assert code == 0
        got = json.loads(out)
        assert got["diagnostics"] == []
        assert got["ignored"] == 1

    def test_marker_is_per_line_and_per_code(self, capsys, tmp_path):
        src = DATA_DIR / "concbad_s001_unguarded_write.py"
        patched = tmp_path / "patched.py"
        patched.write_text(src.read_text().replace(
            "self.count = 0  # rebinds",
            "self.count = 0  # wintermute: ignore[S002] -- wrong code",
        ))
        code, out = run_check(
            capsys, "--concurrency", str(patched), "--format", "json"
        )
        assert code == 1
        got = json.loads(out)
        assert [d["code"] for d in got["diagnostics"]] == ["S001"]
        assert got["ignored"] == 0

    def test_astlint_honors_uniform_marker(self, capsys, tmp_path):
        bad = tmp_path / "plugins"
        bad.mkdir()
        (bad / "x.py").write_text(
            "try:\n"
            "    f()\n"
            "except Exception:  # wintermute: ignore[L003]\n"
            "    pass\n"
        )
        code, out = run_check(
            capsys, "--lint", "--lint-path", str(tmp_path),
            "--format", "json",
        )
        assert code == 0
        got = json.loads(out)
        assert got["diagnostics"] == []
        assert got["ignored"] == 1

    def test_flow_spec_ignore_list(self, capsys, tmp_path):
        spec = json.loads(
            (DATA_DIR / "flowbad_f006_mixed_units.json").read_text()
        )
        spec["ignore"] = ["F006"]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, out = run_check(
            capsys, "--flow", str(path), "--format", "json"
        )
        assert code == 0
        got = json.loads(out)
        assert [d for d in got["diagnostics"]
                if d["code"] == "F006"] == []
        assert got["ignored"] >= 1

    def test_text_summary_reports_ignored(self, capsys, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n")
        code, out = run_check(
            capsys, "--concurrency", str(tmp_path / "ok.py")
        )
        assert code == 0
        assert "0 ignored" in out


class TestCliIntegration:
    def test_schema_version_bumped(self, capsys):
        _, out = run_check(
            capsys,
            "--concurrency", str(DATA_DIR / "concbad_s002_unguarded_read.py"),
            "--format", "json",
        )
        assert json.loads(out)["schema_version"] == 5

    def test_concurrency_report_text(self, capsys):
        code, out = run_check(capsys, "--concurrency", "--concurrency-report")
        assert code == 0
        assert "guarded-by" in out
        assert "Pusher.spill" in out

    def test_concurrency_report_json(self, capsys):
        _, out = run_check(
            capsys, "--concurrency", "--concurrency-report",
            "--format", "json",
        )
        got = json.loads(out)
        assert "guarded-by" in got["concurrency_report"]

    def test_composes_with_other_passes(self, capsys, tmp_path):
        (tmp_path / "clean.py").write_text("x = 1\n")
        code, out = run_check(
            capsys,
            "--concurrency", str(DATA_DIR / "concbad_s003_inconsistent_guard.py"),
            "--config", str(DATA_DIR / "bad_deployment.json"),
            "--flow", str(DATA_DIR / "flowbad_f006_mixed_units.json"),
            "--lint", "--lint-path", str(tmp_path),
            "--format", "json",
        )
        assert code == 1
        codes = {d["code"] for d in json.loads(out)["diagnostics"]}
        assert "S003" in codes and "W001" in codes and "F006" in codes

    def test_warning_rules_respect_fail_on(self, capsys):
        fixture = str(DATA_DIR / "concbad_s002_unguarded_read.py")
        code, _ = run_check(capsys, "--concurrency", fixture)
        assert code == 0  # S002 is warning severity
        code, _ = run_check(
            capsys, "--concurrency", fixture, "--fail-on", "warning"
        )
        assert code == 1

    def test_report_render_direct(self):
        model = analyze_concurrency([str(SRC_REPRO)])
        text = render_concurrency_report(model)
        assert "guarded-by" in text
        assert "OperatorBase.breaker" in text


def _doc_rows():
    """code -> the headings of the docs tables that carry a row for it."""
    rows, heading = {}, ""
    for line in (REPO_ROOT / "docs" / "STATIC_ANALYSIS.md").read_text() \
            .splitlines():
        if line.startswith("#"):
            heading = line.lstrip("# ")
        m = re.match(r"\| `([WLSFR]\d{3})` \|", line)
        if m:
            rows.setdefault(m.group(1), []).append(heading)
    return rows


def _live_codes():
    """Every code a pass can emit, from the four families' catalogs."""
    from repro.analysis.astlint import LINT_CODES
    from repro.sanitizer import RUNTIME_RULES

    config_and_flow = set()
    for src in SRC_REPRO.rglob("*.py"):
        config_and_flow |= set(
            re.findall(r"[\"']([WF]\d{3})[\"']", src.read_text())
        )
    return ({"L000", *LINT_CODES} | set(_S_SEVERITY) | set(RUNTIME_RULES)
            | config_and_flow)


class TestCatalogDrift:
    """One catalog row per live code; a retired code is a row of the
    Retired table only, and nothing emits it (codes are never reused)."""

    RETIRED = "Retired codes"

    def test_concurrency_codes_complete(self):
        assert set(_S_SEVERITY) == {
            f"S{i:03d}" for i in range(1, 11)
        } - {"S006"}

    def test_all_s_codes_documented(self):
        rows = _doc_rows()
        assert all(code in rows for code in _S_SEVERITY)

    def test_every_live_code_is_one_catalog_row(self):
        rows = _doc_rows()
        live = _live_codes()
        assert {"W001", "F013", "L002", "S010", "R010"} <= live
        for code in sorted(live):
            assert len(rows.get(code, ())) == 1, code
            assert rows[code][0] != self.RETIRED, code
        retired = {c for c, where in rows.items() if self.RETIRED in where}
        assert retired >= {"L001", "L007", "R005", "R006", "R008", "R009",
                           "S006"}
        assert set(rows) == live | retired

    def test_retired_codes_appear_only_in_the_retired_table(self):
        rows = _doc_rows()
        retired = {c for c, where in rows.items() if self.RETIRED in where}
        doc = (REPO_ROOT / "docs" / "STATIC_ANALYSIS.md").read_text()
        for line in doc.splitlines():
            for code in retired & set(re.findall(r"\b[WLSFR]\d{3}\b", line)):
                assert line.startswith(f"| `{code}` |"), (code, line)

    def test_check_emits_no_retired_code(self, capsys, tmp_path, monkeypatch):
        """Over src/repro, every shipped spec and every tests/data
        fixture, through all five passes at once."""
        # A --runtime run of a tiered example makes a scratch segment
        # tier that deploy keeps for replay: make it under tmp_path.
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        rows = _doc_rows()
        retired = {c for c, where in rows.items() if self.RETIRED in where}
        specs = sorted(
            p for p in [*EXAMPLES_DIR.glob("*.json"), *DATA_DIR.glob("*.json")]
            if not p.name.endswith(".golden.json")
        )
        argv = ["--lint", "--concurrency", str(SRC_REPRO), str(DATA_DIR)]
        for path in [*specs, *sorted(EXAMPLES_DIR.glob("*.py"))]:
            argv += ["--config", str(path)]
        for path in specs:
            argv += ["--flow", str(path)]
        for path in [*EXAMPLES_DIR.glob("*.json"),
                     DATA_DIR / "clean_deployment.json",
                     DATA_DIR / "racy_deployment.json"]:
            argv += ["--runtime", str(path)]
        _, out = run_check(capsys, *argv, "--format", "json")
        emitted = {d["code"] for d in json.loads(out)["diagnostics"]}
        assert {"S001", "F001", "W001", "R004"} <= emitted
        assert emitted <= _live_codes()
        assert not emitted & retired
