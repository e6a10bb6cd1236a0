"""Opt-in runtime concurrency sanitizer (R-series rules).

The dynamic counterpart of :mod:`repro.analysis`: where the static
passes read code (L- and S-rules), the sanitizer *observes* it — it
runs a bounded simulation with instrumentation injected at seams in the
operator base class, the Query Engine and the wall-clock driver, and
reports what actually happened as structured
:class:`~repro.analysis.diagnostics.Diagnostic` records with stable
``R`` codes (R001-R004, R007, R010; retired codes are never reused).

Three analysis families:

- **lock-order tracking** (:mod:`repro.sanitizer.locks`) — per-thread
  acquisition stacks feed a global lock-order graph; cycles are
  potential deadlocks (R001), plus hold-across-blocking-call (R002) and
  long-hold (R003) violations;
- **unit-state race detection** (:mod:`repro.sanitizer.race`) — a
  happens-before-lite checker over operator model accesses in parallel
  unit mode (R004);
- **invariant sanitizers** (:mod:`repro.sanitizer.invariants`) — query
  snapshot immutability (R007) and out-of-order data loss (R010).

Activation is strictly opt-in: ``wintermute-sim check --runtime
<config>`` or ``WINTERMUTE_SANITIZE=1``.  When off, every seam costs one
module-attribute load and an ``is None`` branch (see
:mod:`repro.sanitizer.hooks`) — the Fig 5 benchmark asserts this.

Only the dependency-free hook module is imported eagerly; everything
else resolves lazily so production modules importing
:mod:`repro.sanitizer.hooks` never pull in the analysis stack.
"""

from repro.sanitizer import hooks

__all__ = [
    "hooks",
    "RUNTIME_CODES",
    "RUNTIME_RULES",
    "Sanitizer",
    "make_sanitizer",
    "TrackedLock",
    "RuntimeCheckResult",
    "run_runtime_check",
    "run_deployment_sanitized",
    "DEFAULT_DURATION_S",
]

_LAZY = {
    "RUNTIME_CODES": "repro.sanitizer.core",
    "RUNTIME_RULES": "repro.sanitizer.core",
    "Sanitizer": "repro.sanitizer.core",
    "make_sanitizer": "repro.sanitizer.core",
    "TrackedLock": "repro.sanitizer.locks",
    "RuntimeCheckResult": "repro.sanitizer.runner",
    "run_runtime_check": "repro.sanitizer.runner",
    "run_deployment_sanitized": "repro.sanitizer.runner",
    "DEFAULT_DURATION_S": "repro.sanitizer.runner",
}


def __getattr__(name):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
