"""Offline static analysis for Wintermute configurations and sources.

Four passes (surfaced through ``wintermute-sim check``):

- :mod:`repro.analysis.config` — a **static configuration analyzer**:
  validates plugin blocks and whole deployment specs without
  instantiating a single operator.  It parses every pattern-unit
  expression, resolves sensor references against a sensor tree
  synthesized from the deployment's cluster/monitoring sections, detects
  inter-operator pipeline cycles and duplicate output topics, and
  reports per-operator unit-expansion cardinality — so a block that
  would instantiate 100k units (Section III-C's scaling property) is
  visible before anything runs.
- :mod:`repro.analysis.flow` — a **whole-deployment dataflow analyzer**
  (F rules): abstract interpretation over the resolved deployment that
  propagates per-topic production periods, physical units and producer
  schedules, checking window demand vs cache supply, unit dimension
  mixing, interval aliasing, per-host memory footprints and resilience
  budgets before anything runs.
- :mod:`repro.analysis.astlint` — a **repo-specific AST lint pass**
  enforcing invariants generic linters cannot express: simulation-clock
  purity, no silent broad excepts, no writes to shared unit state
  inside operator ``compute`` paths, thread lifecycle.
- :mod:`repro.analysis.concurrency` — a **static concurrency analyzer**
  (S rules): interprocedural lockset computation and guarded-by
  inference over the source tree, proving lock discipline on all paths
  (the runtime sanitizer's R rules only see observed executions).

All report :class:`~repro.analysis.diagnostics.Diagnostic` records with
stable rule codes; the catalog lives in ``docs/STATIC_ANALYSIS.md``.

Only the diagnostics primitives are imported eagerly: the configurator
in :mod:`repro.core` imports them at module load, so the heavier halves
(which themselves import :mod:`repro.core`) are resolved lazily to keep
the import graph acyclic.
"""

from repro.analysis.diagnostics import (
    ERROR,
    INFO,
    WARNING,
    Diagnostic,
    DiagnosticCollector,
    count_by_severity,
    has_errors,
    sort_key,
)

__all__ = [
    "ERROR",
    "INFO",
    "WARNING",
    "Diagnostic",
    "DiagnosticCollector",
    "count_by_severity",
    "has_errors",
    "sort_key",
    "analyze_deployment",
    "analyze_pipeline_blocks",
    "analyze_flow",
    "build_flow_model",
    "flow_report",
    "render_flow_report",
    "lint_paths",
    "lint_paths_counted",
    "lint_source",
    "lint_source_counted",
    "extract_configs",
    "analyze_concurrency",
    "render_concurrency_report",
    "InlineSuppressions",
]

_LAZY = {
    "analyze_deployment": "repro.analysis.config",
    "analyze_pipeline_blocks": "repro.analysis.config",
    "analyze_flow": "repro.analysis.flow",
    "build_flow_model": "repro.analysis.flow",
    "flow_report": "repro.analysis.flow",
    "render_flow_report": "repro.analysis.flow",
    "lint_paths": "repro.analysis.astlint",
    "lint_paths_counted": "repro.analysis.astlint",
    "lint_source": "repro.analysis.astlint",
    "lint_source_counted": "repro.analysis.astlint",
    "extract_configs": "repro.analysis.extract",
    "analyze_concurrency": "repro.analysis.concurrency",
    "render_concurrency_report": "repro.analysis.concurrency",
    "InlineSuppressions": "repro.analysis.suppress",
}


def __getattr__(name):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
