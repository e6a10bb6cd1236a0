"""End-to-end performance ledger — the one command.

Benchmark-contract form (what ``BENCHMARK.json`` names; one workload,
result as one JSON object on the last line of stdout)::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Ledger form (every workload, every metric printed by name with its
unit, all correctness checks, optional artifact for ``compare``)::

    PYTHONPATH=src python -m benchmarks.e2e.run --all --seed N \\
        [--trace] [--smoke] [--repeat R] [--out FILE] [--trace-out DIR]

Every workload runs in a fresh subprocess (``PYTHONHASHSEED=0``), so
``peak_rss_mb`` is per workload; set-up is timed from subprocess start
and repeated in set-up-only subprocesses, the median is reported.  End-
to-end metrics always come from an untraced subprocess; ``--trace``
adds a second, traced subprocess for the per-layer numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
if __package__ in (None, ""):
    # Run as a script: make `benchmarks.e2e` and `repro` importable the
    # way `PYTHONPATH=src python -m benchmarks.e2e.run` finds them.
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]

#: Set-ups per untraced run (one full run + set-up-only subprocesses).
SETUP_REPEATS = 3
#: Share of the ticks the untraced reference of a traced run covers
#: when no full untraced run of the same seed is at hand.
REFERENCE_SHARE = 1 / 3
SMOKE_SECONDS = 1.5
#: Scratch (tiered segments, child records); inside the checkout because
#: the benchmark may write nowhere else, removed on exit.
SCRATCH = ROOT / ".bench_e2e_tmp"


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def _child(args: List[str], scratch: Path) -> dict:
    """Run the driver in a fresh subprocess; return its JSON record."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    storage_dir = tempfile.mkdtemp(prefix="segments-", dir=scratch)
    cmd = [
        sys.executable, "-m", "benchmarks.e2e.driver",
        "--storage-dir", storage_dir,
        "--spawned-at", repr(time.monotonic()), *args,
    ]
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            check=False,
        )
    finally:
        shutil.rmtree(storage_dir, ignore_errors=True)
    if done.returncode != 0:
        raise SystemExit(
            f"driver subprocess failed ({done.returncode}): {' '.join(cmd)}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _driver_args(name: str, seed: int, seconds: float, smoke: bool) -> List[str]:
    args = ["--workload", name, "--seed", str(seed), "--seconds", repr(seconds)]
    return args + ["--smoke"] if smoke else args


def run_untraced(
    name: str, seed: int, seconds: float, smoke: bool, scratch: Path,
) -> dict:
    """One untraced run: set-up-only subprocesses, then the full one."""
    args = _driver_args(name, seed, seconds, smoke)
    setups = [
        _child(args + ["--setup-only"], scratch)["setup_s"]
        for _ in range(SETUP_REPEATS - 1)
    ]
    record = _child(args, scratch)
    setups.append(record["end_to_end"]["setup_s"])
    record["setup_s_samples"] = setups
    record["end_to_end"]["setup_s"] = statistics.median(setups)
    return record


def run_traced(
    name: str, seed: int, seconds: float, smoke: bool, scratch: Path,
    reference: Optional[dict] = None, trace_out: Optional[str] = None,
) -> dict:
    """One traced run, its wrapper cost scaled against ``reference`` (an
    untraced record of the same seed; a prefix run is made if absent)."""
    if reference is None:
        reference = _child(
            _driver_args(name, seed, seconds * REFERENCE_SHARE, smoke), scratch
        )
    fd, ref_path = tempfile.mkstemp(prefix="reference-", suffix=".json", dir=scratch)
    with os.fdopen(fd, "w", encoding="utf-8") as fh:
        json.dump({"tick_ms": reference["tick_ms"]}, fh)
    args = _driver_args(name, seed, seconds, smoke)
    args += ["--trace", "--reference", ref_path]
    if trace_out:
        args += ["--trace-out", trace_out]
    return _child(args, scratch)


def contract_result(record: dict, metrics: Dict[str, float], declared: List[dict]) -> dict:
    """The contract's last-line object: exactly the declared metrics."""
    return {
        "correct": bool(record["correct"]),
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }


def provenance(seed: int, seconds: float, smoke: bool) -> dict:
    """Who made these numbers: the schema-v2 idea of benchmarks/harness.py
    (commit, dirty flag, settings), plus the interpreter and the box."""
    def git(*args: str) -> str:
        try:
            return subprocess.run(
                ["git", *args], cwd=ROOT, capture_output=True, text=True,
                timeout=10, check=False,
            ).stdout.strip()
        except OSError:
            return ""

    import numpy

    return {
        "git_sha": git("rev-parse", "HEAD") or "unknown",
        "git_dirty": bool(git("status", "--porcelain")),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "setup_repeats": SETUP_REPEATS,
    }


def _print_metrics(title: str, values: Dict[str, float], declared: List[dict]) -> None:
    print(f"  {title}")
    for m in declared:
        print(f"    {m['name']:<46} {values[m['name']]:>16.6g} {m['unit']}")


def run_ledger(args, seconds: float, contract: dict, scratch: Path) -> int:
    from benchmarks.e2e import workloads

    ledger = {
        "provenance": provenance(args.seed, seconds, args.smoke),
        "workloads": {},
    }
    ok = True
    for name in workloads.NAMES:
        print(f"== {name}: {workloads.WHY[name]}")
        runs = [
            run_untraced(name, args.seed, seconds, args.smoke, scratch)
            for _ in range(args.repeat)
        ]
        first = runs[0]
        entry = {
            "spec_digest": first["spec_digest"],
            "result_digest": first["result_digest"],
            "attempted": first["attempted"],
            "failed": max(r["failed"] for r in runs),
            "correct": all(r["correct"] for r in runs),
            "errors": first["errors"],
            "samples": first["samples"],
            "ticks": first["ticks"],
            "truncated": any(r["truncated"] for r in runs),
            "freshness_lag_ms": first["freshness_lag_ms"],
            "end_to_end": {
                m["name"]: [r["end_to_end"][m["name"]] for r in runs]
                for m in contract["end_to_end"]
            },
        }
        medians = {k: statistics.median(v) for k, v in entry["end_to_end"].items()}
        _print_metrics(
            f"end to end, at reference speed (median of {len(runs)} run(s); "
            f"{first['ticks']} ticks, {first['samples']['queries']} queries, "
            f"{first['samples']['triggers']} triggers; machine speed factor "
            f"{first['speed_factor']:.2f})",
            medians, contract["end_to_end"],
        )
        if any(r["result_digest"] != first["result_digest"] for r in runs):
            entry["correct"] = False
            entry["errors"] = entry["errors"] + ["result_digest differs between repeats"]
        if args.trace:
            trace_out = None
            if args.trace_out:
                os.makedirs(args.trace_out, exist_ok=True)
                trace_out = os.path.join(args.trace_out, f"{name}.trace.json")
            traced = run_traced(
                name, args.seed, seconds, args.smoke, scratch,
                reference=first, trace_out=trace_out,
            )
            entry["per_layer"] = traced["per_layer"]
            entry["layer_share"] = traced["layer_share"]
            if traced["result_digest"] != first["result_digest"] or not traced["correct"]:
                entry["correct"] = False
                entry["errors"] = entry["errors"] + traced["errors"] + [
                    "traced run: digest or checks differ from the untraced run"
                ]
            _print_metrics("per layer (traced run)", traced["per_layer"],
                           contract["per_layer"])
            print("  layer share of tick self time: " + ", ".join(
                f"{layer} {share:.1%}"
                for layer, share in traced["layer_share"].items() if share >= 0.0005
            ))
        print(
            f"  operations attempted {entry['attempted']}, failed {entry['failed']}; "
            f"checks {'PASS' if entry['correct'] else 'FAIL'}; "
            f"result_digest {entry['result_digest'][:16]}"
        )
        for error in entry["errors"]:
            print(f"    ! {error}")
        ok = ok and entry["correct"]
        ledger["workloads"][name] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(ledger, fh, indent=1)
            fh.write("\n")
        print(f"wrote {args.out}")
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", help="run one workload (contract form)")
    parser.add_argument("--all", action="store_true", help="run the whole ledger")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="timed-region budget (default: run_seconds)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1), help="add the traced per-layer run")
    parser.add_argument("--smoke", action="store_true",
                        help="~1/10 size, all checks on")
    parser.add_argument("--repeat", type=int, default=1,
                        help="untraced runs per workload (ledger form)")
    parser.add_argument("--out", help="write the ledger JSON here")
    parser.add_argument("--trace-out", help="directory for per-workload span dumps")
    args = parser.parse_args(argv)
    if bool(args.workload) == bool(args.all):
        parser.error("give exactly one of --workload NAME or --all")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2

    from benchmarks.e2e import workloads
    from benchmarks.e2e.driver import refuse_sanitizer

    refuse_sanitizer()
    contract = load_contract()
    seconds = args.seconds if args.seconds is not None else (
        SMOKE_SECONDS if args.smoke else float(contract["run_seconds"])
    )
    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    try:
        if args.all:
            return run_ledger(args, seconds, contract, scratch)
        if args.workload not in workloads.NAMES:
            parser.error(f"unknown workload {args.workload!r}")
        if args.trace:
            record = run_traced(args.workload, args.seed, seconds, args.smoke, scratch)
            result = contract_result(record, record["per_layer"], contract["per_layer"])
        else:
            record = run_untraced(args.workload, args.seed, seconds, args.smoke, scratch)
            result = contract_result(record, record["end_to_end"], contract["end_to_end"])
        for error in record["errors"]:
            print(f"! {error}", file=sys.stderr)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()  # only when no other run is using it
        except OSError:
            pass


if __name__ == "__main__":
    raise SystemExit(main())
