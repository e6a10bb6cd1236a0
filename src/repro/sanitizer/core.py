"""The runtime concurrency sanitizer (R-series rules).

:class:`Sanitizer` aggregates the three analysis families — lock-order
tracking (:mod:`repro.sanitizer.locks`), unit-state race detection
(:mod:`repro.sanitizer.race`) and invariant verification
(:mod:`repro.sanitizer.invariants`) — behind the hook interface that the
production seams call through :data:`repro.sanitizer.hooks.CURRENT`.

Findings are emitted as the same structured
:class:`~repro.analysis.diagnostics.Diagnostic` records the static pass
produces, under stable ``R001``–``R010`` codes (``R008`` is retired;
catalog below and in ``docs/STATIC_ANALYSIS.md``), so the CLI renders
text/JSON and computes exit codes with the exact same machinery.

Event volumes are counted in a dedicated telemetry registry
(``sanitizer_*`` metrics) that runtime checks absorb into the
deployment's Collect Agent registry, making sanitizer activity visible
on the same ``GET /metrics`` surface as everything else.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

from repro.analysis.diagnostics import (
    ERROR,
    INFO,
    WARNING,
    Diagnostic,
    sort_key,
)
from repro.sanitizer import hooks
from repro.sanitizer.invariants import (
    TimePatch,
    ViewTracker,
    iter_host_caches,
    scan_cache,
)
from repro.sanitizer.locks import LockTracker, TrackedLock
from repro.sanitizer.race import RaceTracker
from repro.telemetry import MetricRegistry

#: R-series rule catalog: code -> (severity, summary).  Messages carry
#: the finding detail; the summary here feeds docs and ``--explain``
#: style tooling.
RUNTIME_RULES: Dict[str, Tuple[str, str]] = {
    "R001": (ERROR, "lock-order cycle (potential deadlock)"),
    "R002": (ERROR, "lock held across a blocking call"),
    "R003": (WARNING, "lock held longer than the hold threshold"),
    "R004": (ERROR, "model shared across units in parallel unit mode"),
    "R005": (ERROR, "operator self-state mutated during parallel compute"),
    "R006": (ERROR, "cache timestamp order violated"),
    "R007": (ERROR, "query result mutated after hand-out"),
    "R009": (ERROR, "wall-clock read in clock-disciplined code"),
    "R010": (WARNING, "out-of-order readings dropped during the run"),
}

RUNTIME_CODES = tuple(sorted(RUNTIME_RULES))

#: Default R003 threshold: a lock held for more than this many
#: milliseconds of wall time stalls every contender noticeably at the
#: paper's 1 s sampling intervals.
DEFAULT_LONG_HOLD_MS = 50.0


def _relsite(site: str) -> Tuple[str, int]:
    """Split ``file:line`` and strip the path to repo-relative form."""
    file, _, line = site.rpartition(":")
    file = file.replace("\\", "/")
    for anchor in ("src/repro/", "repro/"):
        idx = file.find(anchor)
        if idx >= 0:
            file = "src/repro/" + file[idx + len(anchor):]
            break
    else:
        file = file.rsplit("/", 1)[-1]
    try:
        return file, int(line)
    except ValueError:
        return file, 0


class Sanitizer:
    """Collects runtime evidence and renders it as R-series diagnostics.

    Args:
        long_hold_ms: wall-clock threshold for rule R003.
        track_wall_clock: install the ``time.time``/``monotonic``/
            ``sleep`` shims while active (rule R009 + sleep-as-blocking).
    """

    def __init__(
        self,
        long_hold_ms: float = DEFAULT_LONG_HOLD_MS,
        track_wall_clock: bool = True,
    ) -> None:
        self.locks = LockTracker(long_hold_ns=int(long_hold_ms * 1e6))
        self.races = RaceTracker()
        self.views = ViewTracker()
        self.track_wall_clock = bool(track_wall_clock)
        self._timepatch = TimePatch(self)
        self._mutex = threading.Lock()
        self._passes = 0
        #: Extra diagnostics recorded directly (deployment scans).
        self._extra: List[Diagnostic] = []

        self.telemetry = MetricRegistry()
        self._m_locks = self.telemetry.counter(
            "sanitizer_lock_acquisitions_total"
        )
        self._m_blocking = self.telemetry.counter(
            "sanitizer_blocking_calls_total"
        )
        self._m_models = self.telemetry.counter(
            "sanitizer_model_accesses_total"
        )
        self._m_views = self.telemetry.counter("sanitizer_views_tracked_total")
        self._m_passes = self.telemetry.counter("sanitizer_passes_total")
        self._m_wall = self.telemetry.counter(
            "sanitizer_wall_clock_reads_total"
        )

    # ------------------------------------------------------------------
    # Activation
    # ------------------------------------------------------------------

    @contextmanager
    def activate(self):
        """Install this sanitizer as :data:`hooks.CURRENT` (exclusive)."""
        if hooks.CURRENT is not None:
            raise RuntimeError("another sanitizer is already active")
        hooks.CURRENT = self
        if self.track_wall_clock:
            self._timepatch.install()
        try:
            yield self
        finally:
            if self.track_wall_clock:
                self._timepatch.uninstall()
            hooks.CURRENT = None

    # ------------------------------------------------------------------
    # Hook interface (called from seams via hooks.CURRENT)
    # ------------------------------------------------------------------

    def make_lock(self, name: str) -> TrackedLock:
        """An instrumented lock participating in order tracking."""
        return TrackedLock(name, self)

    def on_lock_wait(self, lock: TrackedLock, site: str) -> bool:
        return self.locks.on_wait(lock, site)

    def on_lock_acquired(self, lock: TrackedLock, site: str) -> None:
        self.locks.on_acquired(lock, site)
        self._m_locks.inc()

    def on_lock_released(self, lock: TrackedLock) -> None:
        self.locks.on_released(lock)

    def on_blocking_call(self, description: str) -> None:
        self._m_blocking.inc()
        self.locks.on_blocking(description)

    def begin_pass(self, operator) -> None:
        """An operator starts a compute pass."""
        self._m_passes.inc()

    def end_pass(self, operator) -> None:
        """An operator finished a pass: settle per-pass trackers."""
        self.races.end_pass(operator.name)
        self.views.verify()
        with self._mutex:
            self._passes += 1

    def on_model_access(self, operator, unit, model) -> None:
        if model is None:
            return
        self._m_models.inc()
        self.races.on_model_access(
            operator.name,
            operator.config.unit_mode == "parallel",
            unit.name,
            id(model),
        )

    def watch_unit_compute(self, operator, unit, thunk):
        """Run ``thunk`` (a ``compute_unit`` call), diffing self-state.

        In parallel unit mode an operator's ``__dict__`` must not be
        rebound from inside a unit computation — that is exactly the
        unsynchronised shared write lint rule L004 warns about, observed
        live (rule R005).
        """
        if operator.config.unit_mode != "parallel":
            return thunk()
        before = {k: id(v) for k, v in operator.__dict__.items()}
        try:
            return thunk()
        finally:
            after = {k: id(v) for k, v in operator.__dict__.items()}
            changed = tuple(
                k for k in sorted(set(before) | set(after))
                if before.get(k) != after.get(k)
            )
            if changed:
                self.races.on_self_mutation(
                    operator.name, unit.name, changed
                )

    def on_query_view(self, topic: str, view) -> None:
        self._m_views.inc()
        self.views.on_view(topic, view)

    # ------------------------------------------------------------------
    # Deployment scans (post-run invariants)
    # ------------------------------------------------------------------

    def check_deployment(self, deployment) -> None:
        """Scan a deployment's caches for order violations and drops."""
        for host, topic, cache in iter_host_caches(deployment):
            order, stale = scan_cache(host, topic, cache)
            where = f"hosts.{host}.caches.{topic}"
            if order is not None:
                self._add_extra(
                    "R006",
                    f"cache timestamp order violated: {order.detail} "
                    "(binary-search invariant broken)",
                    path=where,
                )
            if stale is not None:
                self._add_extra(
                    "R010",
                    f"{stale.drops} out-of-order reading(s) dropped "
                    "(stale data discarded to protect cache ordering)",
                    path=where,
                )

    def _add_extra(self, code: str, message: str, *, path: str = "",
                   file: str = "", line: int = 0) -> None:
        severity = RUNTIME_RULES[code][0]
        with self._mutex:
            self._extra.append(Diagnostic(
                code=code, severity=severity, message=message,
                path=path, file=file, line=line,
            ))

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------

    def finish(self) -> List[Diagnostic]:
        """All findings as deduplicated, deterministically sorted
        diagnostics.

        Races and invariant breaches typically fire on every compute
        pass; findings are deduplicated on (code, path, file, message)
        so a 60-pass run reports each distinct defect once.
        """
        self.views.verify()
        out: List[Diagnostic] = []

        for cycle in self.locks.graph.cycles():
            chain = " -> ".join(cycle + [cycle[0]])
            edge = self.locks.graph.edge(cycle[0], cycle[1 % len(cycle)])
            file, line = (
                _relsite(edge.first_site) if edge is not None else ("", 0)
            )
            out.append(self._diag(
                "R001",
                f"lock-order cycle {chain}: threads acquire these locks "
                "in conflicting orders (potential deadlock)",
                path="locks." + ".".join(cycle),
                file=file, line=line,
            ))
        for name, site in self.locks.self_deadlocks:
            file, line = _relsite(site)
            out.append(self._diag(
                "R001",
                f"lock {name} re-acquired by the thread already holding "
                "it (guaranteed self-deadlock)",
                path=f"locks.{name}",
                file=file, line=line,
            ))
        for description, held, site in self.locks.blocking_under_lock:
            file, line = _relsite(site)
            out.append(self._diag(
                "R002",
                f"blocking call ({description}) while holding "
                f"lock(s) {', '.join(held)}",
                path="locks." + ".".join(held),
                file=file, line=line,
            ))
        for name, hold_ns, site in self.locks.long_holds:
            file, line = _relsite(site)
            out.append(self._diag(
                "R003",
                f"lock {name} held for {hold_ns / 1e6:.0f} ms "
                f"(threshold {self.locks.long_hold_ns / 1e6:.0f} ms)",
                path=f"locks.{name}",
                file=file, line=line,
            ))
        for race in self.races.model_races:
            out.append(self._diag(
                "R004",
                f"operator {race.operator}: one model instance shared by "
                f"units {', '.join(race.units)} in parallel unit mode "
                "(unsynchronised concurrent mutation)",
                path=f"operators.{race.operator}.model",
            ))
        mutated: Dict[Tuple[str, Tuple[str, ...]], set] = {}
        for mut in self.races.self_mutations:
            mutated.setdefault((mut.operator, mut.attrs), set()).add(mut.unit)
        for (op_name, attrs), units in sorted(mutated.items()):
            out.append(self._diag(
                "R005",
                f"operator {op_name}: attribute(s) {', '.join(attrs)} "
                f"rebound during parallel unit compute "
                f"({len(units)} unit(s) affected)",
                path=f"operators.{op_name}.state",
            ))
        for violation in self.views.violations:
            out.append(self._diag(
                "R007",
                f"query result for {violation.topic} mutated after "
                f"hand-out: {violation.detail}",
                path=f"views.{violation.topic}",
            ))
        for read in self._timepatch.reads:
            file, line = _relsite(f"{read.file}:{read.line}")
            out.append(self._diag(
                "R009",
                f"{read.func}() read from clock-disciplined code at "
                "runtime (simulation must use the simulated clock)",
                path="clock",
                file=file, line=line,
            ))
        with self._mutex:
            out.extend(self._extra)

        # Dedup: recurring per-pass findings collapse to one record.
        seen = set()
        unique: List[Diagnostic] = []
        for diag in out:
            key = (diag.code, diag.path, diag.file, diag.message)
            if key not in seen:
                seen.add(key)
                unique.append(diag)
        findings = self.telemetry.counter  # labels per code, lazily
        for diag in unique:
            findings("sanitizer_findings_total", code=diag.code).inc()
        return sorted(unique, key=sort_key)

    def _diag(self, code: str, message: str, *, path: str = "",
              file: str = "", line: int = 0) -> Diagnostic:
        return Diagnostic(
            code=code, severity=RUNTIME_RULES[code][0], message=message,
            path=path, file=file, line=line,
        )

    # ------------------------------------------------------------------

    def event_summary(self) -> Dict[str, int]:
        """Instrumentation volume (how much the run actually exercised)."""
        with self._mutex:
            passes = self._passes
        return {
            "lock_acquisitions": self.locks.acquisitions,
            "blocking_calls": int(self._m_blocking.value),
            "model_accesses": self.races.model_accesses,
            "views_tracked": self.views.views_seen,
            "compute_passes": passes,
            "wall_clock_reads": self._timepatch.wall_clock_reads,
        }

    def lockdep_export(self) -> Dict[str, list]:
        """The observed lockdep graph, comparable to the static one.

        Same shape as ``repro.analysis.concurrency
        .static_lock_order_graph``: every lock *name* this run acquired
        plus every nested-acquisition edge.  The cross-validation test
        asserts the static graph is a superset, so the two analyses
        cannot silently drift apart.
        """
        return {
            "locks": sorted(self.locks.names_seen()),
            "edges": sorted(
                [e.src, e.dst] for e in self.locks.graph.edges()
            ),
        }


def make_sanitizer(
    long_hold_ms: Optional[float] = None, track_wall_clock: bool = True
) -> Sanitizer:
    """Factory with defaulting, used by the CLI and the runner."""
    return Sanitizer(
        long_hold_ms=(
            DEFAULT_LONG_HOLD_MS if long_hold_ms is None else long_hold_ms
        ),
        track_wall_clock=track_wall_clock,
    )
