"""Smoke test of the end-to-end ledger (outside tier-1 ``testpaths``)::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Runs all four workloads at ~1/10 size with tracing on and every
correctness check, then pins the benchmark's contract: what
``BENCHMARK.json`` declares is exactly what the benchmark emits.
"""

import json
import re
import subprocess
import sys

import pytest

from benchmarks.e2e import compare, run, workloads

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
RUN_PY = str(run.HERE / "run.py")


@pytest.fixture(scope="module")
def contract():
    return run.load_contract()


@pytest.fixture(scope="module")
def ledger(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger") / "smoke.json"
    code = run.main(["--all", "--smoke", "--trace", "--seed", "5", "--out", str(out)])
    assert code == 0, "a smoke workload failed its correctness checks"
    return json.loads(out.read_text()), out


def test_contract_declares_the_ledger(contract):
    assert [w["name"] for w in contract["workloads"]] == list(workloads.NAMES)
    assert contract["paths"] == ["benchmarks/e2e"]
    names = [m["name"] for m in contract["end_to_end"] + contract["per_layer"]]
    names += list(workloads.NAMES)
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME_RE.match(name), name
    setup = next(m for m in contract["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in contract["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in contract["end_to_end"])


def test_every_declared_metric_is_emitted_and_no_other(ledger, contract):
    doc, _ = ledger
    assert list(doc["workloads"]) == list(workloads.NAMES)
    end_to_end = {m["name"] for m in contract["end_to_end"]}
    per_layer = {m["name"] for m in contract["per_layer"]}
    for name, entry in doc["workloads"].items():
        assert set(entry["end_to_end"]) == end_to_end, name
        assert set(entry["per_layer"]) == per_layer, name
        assert entry["correct"] and entry["failed"] == 0, entry["errors"]
        assert entry["attempted"] >= 1
        for metric, values in entry["end_to_end"].items():
            assert all(v > 0 for v in values), (name, metric)
        assert entry["per_layer"]["trace.unattributed_share"] <= 0.10


def test_target_layers_are_exercised(ledger):
    """Each workload reaches the layers it exists for (counts, not
    shares: at smoke size the shares mean nothing)."""
    doc, _ = ledger
    layers = {n: e["per_layer"] for n, e in doc["workloads"].items()}
    assert layers["ingest_fanin"]["core.operator.passes"] == 0
    assert layers["inband_fused"]["core.fusion.passes"] > 0
    assert layers["inband_fused"]["core.fusion.fallbacks"] == 0
    assert layers["agent_holistic"]["core.fusion.passes"] == 0
    assert layers["agent_holistic"]["plugins.persyst.kernel_us_per_unit"] > 0
    assert layers["agent_holistic"]["core.operator.parallel4_vs_seq_ratio"] > 0
    tiered = layers["tiered_query_mix"]
    assert tiered["dcdb.segments.flushes"] > 0
    assert tiered["dcdb.segments.compactions"] > 0
    assert tiered["dcdb.segments.tier_hits_rollup"] > 0


@pytest.mark.parametrize("smoke", [True, False], ids=["smoke", "full"])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_generated_specs_pass_the_analyzers(name, smoke, tmp_path):
    from repro.cli import main as wintermute_sim

    spec = workloads.make(name, 5, smoke, storage_dir=str(tmp_path / "seg")).spec
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(spec))
    assert wintermute_sim(
        ["check", "--config", str(path), "--flow", str(path), "-q"]
    ) == 0


@pytest.mark.parametrize("trace", ["0", "1"])
def test_contract_form_prints_one_result_object(contract, trace):
    done = subprocess.run(
        [sys.executable, RUN_PY, "--workload", "tiered_query_mix", "--smoke",
         "--seed", "9", "--seconds", "0.5", "--trace", trace],
        cwd=run.ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = contract["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert not (run.ROOT / ".bench_e2e_tmp").exists(), "scratch left behind"


def test_refuses_to_run_under_the_sanitizer():
    done = subprocess.run(
        [sys.executable, RUN_PY, "--workload", "ingest_fanin", "--smoke"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=60,
        env={"WINTERMUTE_SANITIZE": "1", "PATH": ""},
    )
    assert done.returncode != 0
    assert "WINTERMUTE_SANITIZE" in done.stderr


def test_compare_flags_a_regression(ledger, contract, tmp_path, capsys):
    doc, path = ledger
    assert compare.main([str(path), str(path)]) == 0
    assert "regressed" not in capsys.readouterr().out
    worse = json.loads(json.dumps(doc))
    ticks = worse["workloads"]["inband_fused"]["end_to_end"]["tick_ms_p50"]
    worse["workloads"]["inband_fused"]["end_to_end"]["tick_ms_p50"] = [
        v * 1.5 for v in ticks
    ]
    slow = tmp_path / "slow.json"
    slow.write_text(json.dumps(worse))
    assert compare.main([str(path), str(slow)]) == 1
    out = capsys.readouterr().out
    assert re.search(r"inband_fused\s+tick_ms_p50.*regressed", out)
    assert compare.verdict([1.0, 1.5, 2.0], [3.0], "lower", 0.07)[2] == "unresolved"
