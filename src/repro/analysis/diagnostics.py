"""Structured diagnostics for the static analysis subsystem.

Every finding of the configuration analyzer (:mod:`repro.analysis.config`)
and the AST lint pass (:mod:`repro.analysis.astlint`) is reported as a
:class:`Diagnostic`: a stable rule code, a severity, a human-readable
message and a location — either a configuration *path* (for config
findings) or a *file:line* pair (for lint findings).  Keeping the record
structured lets the CLI render text and JSON from the same data, lets
tests golden-file the output, and lets CI gate on error counts.

Rule codes are stable across releases: ``Wxxx`` for configuration rules
and ``Lxxx`` for lint rules.  The full catalog lives in
``docs/STATIC_ANALYSIS.md``.

This module is intentionally dependency-free within the package (it only
uses the standard library) so that core modules — e.g. the configurator,
which reports its own parse errors as diagnostics — can import it
without pulling in the whole analysis subsystem.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List

#: Severity levels, ordered from most to least severe.
ERROR = "error"
WARNING = "warning"
INFO = "info"

SEVERITIES = (ERROR, WARNING, INFO)
_SEVERITY_RANK = {s: i for i, s in enumerate(SEVERITIES)}


@dataclass(frozen=True)
class Diagnostic:
    """One finding of the static analyzer or the lint pass.

    Attributes:
        code: stable rule code (``W001``..., ``L002``...).
        severity: ``error``, ``warning`` or ``info``.
        message: human-readable description of the finding.
        path: configuration location for config diagnostics, e.g.
            ``analytics.agent[0].operators.avg-power.inputs[1]``.
        file: source file for lint diagnostics (repo-relative when
            possible).
        line: 1-based source line for lint diagnostics (0 = unknown).
    """

    code: str
    severity: str
    message: str
    path: str = ""
    file: str = ""
    line: int = 0

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    @property
    def location(self) -> str:
        """The finding's location, whichever form(s) it carries."""
        if self.file:
            where = f"{self.file}:{self.line}" if self.line else self.file
            return f"{where} {self.path}" if self.path else where
        return self.path

    def to_dict(self) -> dict:
        """JSON-ready representation (stable key order, no empties)."""
        out = {"code": self.code, "severity": self.severity,
               "message": self.message}
        if self.path:
            out["path"] = self.path
        if self.file:
            out["file"] = self.file
            out["line"] = self.line
        return out

    def format(self) -> str:
        """One-line text rendering: ``severity CODE location: message``."""
        loc = self.location
        where = f" {loc}" if loc else ""
        return f"{self.severity} {self.code}{where}: {self.message}"

    def __str__(self) -> str:
        return self.format()


def sort_key(diag: Diagnostic):
    """Deterministic ordering: file, then location, then code.

    Grouping by location (not severity) keeps every finding about one
    file/config path adjacent in reports and makes output diffable
    across runs that add or reclassify rules; severity only breaks ties
    between co-located findings of the same code.
    """
    return (diag.file, diag.line, diag.path, diag.code,
            _SEVERITY_RANK.get(diag.severity, len(SEVERITIES)), diag.message)


def count_by_severity(diagnostics: Iterable[Diagnostic]) -> Dict[str, int]:
    """Map severity -> number of findings (all severities present)."""
    counts = {s: 0 for s in SEVERITIES}
    for diag in diagnostics:
        counts[diag.severity] = counts.get(diag.severity, 0) + 1
    return counts


def has_errors(diagnostics: Iterable[Diagnostic]) -> bool:
    """Whether any finding is error-severity."""
    return any(d.severity == ERROR for d in diagnostics)


@dataclass
class DiagnosticCollector:
    """Accumulates diagnostics while walking a configuration.

    The collector carries the current location *prefix*; :meth:`at`
    derives a child collector sharing the same sink with an extended
    prefix, so nested validation helpers never have to thread location
    strings manually.
    """

    prefix: str = ""
    sink: List[Diagnostic] = field(default_factory=list)

    def at(self, *segments) -> "DiagnosticCollector":
        """Child collector whose prefix is extended by ``segments``.

        Integer segments render as ``[i]`` indices, strings as
        dot-separated keys.
        """
        prefix = self.prefix
        for seg in segments:
            if isinstance(seg, int):
                prefix = f"{prefix}[{seg}]"
            else:
                prefix = f"{prefix}.{seg}" if prefix else str(seg)
        return DiagnosticCollector(prefix=prefix, sink=self.sink)

    def add(self, code: str, severity: str, message: str, *,
            path: str = "", file: str = "", line: int = 0) -> Diagnostic:
        """Record one finding at the collector's location."""
        where = path or self.prefix
        diag = Diagnostic(code=code, severity=severity, message=message,
                          path=where, file=file, line=line)
        self.sink.append(diag)
        return diag

    def error(self, code: str, message: str, **kw) -> Diagnostic:
        return self.add(code, ERROR, message, **kw)

    def warning(self, code: str, message: str, **kw) -> Diagnostic:
        return self.add(code, WARNING, message, **kw)

    def info(self, code: str, message: str, **kw) -> Diagnostic:
        return self.add(code, INFO, message, **kw)

    @property
    def diagnostics(self) -> List[Diagnostic]:
        """Everything recorded through this collector's shared sink."""
        return self.sink
