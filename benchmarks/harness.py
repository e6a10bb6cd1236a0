"""Shared infrastructure for the figure-reproduction benchmarks.

Each ``bench_fig*.py`` module regenerates one figure of the paper's
evaluation section (Section VI) on the simulated cluster and prints the
same rows/series the paper reports.  Absolute numbers differ from the
paper's CooLMUC-3 testbed — the substrate here is a simulator — but the
*shape* checks encoded in each bench (who wins, rough factors, where
crossovers fall) mirror the paper's conclusions.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from repro.dcdb import cache as cache_module
from repro.deploy import Deployment

__all__ = [
    "Deployment",
    "insert_passes",
    "passes",
    "print_header",
    "print_table",
    "print_heatmap",
    "shape_check",
    "store_passes",
    "write_bench_artifact",
]

#: Where ``write_bench_artifact`` drops its JSON files (the repo root;
#: ``BENCH_*.json`` is gitignored).
ARTIFACT_DIR = Path(__file__).resolve().parent.parent

#: Artifact schema: 1 = bare payload, 2 = payload + ``provenance`` key.
BENCH_SCHEMA_VERSION = 2


def _git_state() -> tuple:
    """(commit SHA, dirty flag) of the repo, or ("unknown", False)."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ARTIFACT_DIR, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
        dirty = bool(
            subprocess.run(
                ["git", "status", "--porcelain"],
                cwd=ARTIFACT_DIR, capture_output=True, text=True,
                timeout=10,
            ).stdout.strip()
        )
        return sha, dirty
    except Exception:
        return "unknown", False


def _config_digest(config: Optional[dict]) -> str:
    """Stable sha256 of the bench configuration (key-order independent)."""
    if not config:
        return ""
    canonical = json.dumps(config, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()


def passes(readings):
    """``(ts, keys, values)`` per run of consecutive ``(key, ts, value)``
    readings at one timestamp, in order — a sequence cut into one-instant
    passes as the Collect Agent's drain cuts its queue."""
    for ts, run in groupby(readings, key=itemgetter(1)):
        keys, _, values = zip(*run)
        yield int(ts), keys, np.array(values, dtype=np.float64)


def insert_passes(storage, readings) -> None:
    """Write ``(topic, ts, value)`` readings into ``storage`` one pass at
    a time (``insert_columns_at``)."""
    for ts, topics, values in passes(readings):
        storage.insert_columns_at(topics, ts, values)


def store_passes(readings) -> int:
    """Write ``(cache, ts, value)`` readings one pass at a time, by the
    hosts' memoised writer (``plan_write`` + ``write_columns_at``);
    returns how many were refused as stale."""
    memo = cache_module.PlanMemo()

    def compile(caches):
        return cache_module.WritePlan(caches, cache_module.plan_columns(caches))

    refused = 0
    for ts, caches, values in passes(readings):
        plan = cache_module.plan_write(memo, compile, caches)
        refused += cache_module.write_columns_at(plan.columns, ts, values)
    return refused


def print_header(title: str) -> None:
    line = "=" * max(60, len(title) + 4)
    print(f"\n{line}\n  {title}\n{line}")


def print_table(
    headers: Sequence[str], rows: Sequence[Sequence], fmt: str = "{:>12}"
) -> None:
    print("".join(fmt.format(str(h)) for h in headers))
    for row in rows:
        cells = [
            f"{c:.4f}" if isinstance(c, float) else str(c) for c in row
        ]
        print("".join(fmt.format(c) for c in cells))


def print_heatmap(
    title: str,
    row_labels: Sequence,
    col_labels: Sequence,
    values: np.ndarray,
    cell_fmt: str = "{:.2f}",
) -> None:
    """Print a Fig-5-style heatmap as an aligned text grid."""
    print(f"\n{title}")
    width = max(10, max(len(str(c)) for c in col_labels) + 2)
    header = " " * 12 + "".join(f"{str(c):>{width}}" for c in col_labels)
    print(header)
    for label, row in zip(row_labels, values):
        cells = "".join(f"{cell_fmt.format(v):>{width}}" for v in row)
        print(f"{str(label):>12}{cells}")


def write_bench_artifact(
    name: str, payload: dict, config: Optional[dict] = None
) -> Path:
    """Persist one benchmark's machine-readable results as JSON.

    Artifacts land in the repo root as ``BENCH_<name>.json`` so CI (or a
    later session) can diff numbers without re-parsing stdout.  NumPy
    scalars/arrays in ``payload`` are converted to plain Python types.

    Every artifact is stamped with a ``provenance`` block — schema
    version, producing git commit (plus a dirty-tree flag), and a
    digest of ``config`` (the bench's parameter dict) — so committed
    artifacts stay attributable to the code and settings that made
    them.
    """

    def _plain(obj):
        if isinstance(obj, dict):
            return {str(k): _plain(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [_plain(v) for v in obj]
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        if isinstance(obj, np.generic):
            return obj.item()
        return obj

    sha, dirty = _git_state()
    doc = _plain(payload)
    doc["provenance"] = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "git_sha": sha,
        "git_dirty": dirty,
        "config_digest": _config_digest(_plain(config) if config else None),
    }
    path = ARTIFACT_DIR / f"BENCH_{name}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"  artifact: {path.name}")
    return path


def shape_check(name: str, condition: bool, detail: str = "") -> bool:
    """Report a paper-shape expectation; prints PASS/FAIL and returns it."""
    status = "PASS" if condition else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"  [{status}] {name}{suffix}")
    return condition
