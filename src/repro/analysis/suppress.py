"""Uniform inline diagnostic suppression: ``# wintermute: ignore[CODE]``.

Every source-reading analysis pass (astlint L rules, concurrency S
rules) honours the same marker so a reviewer never has to learn
per-pass syntax::

    self.stats += 1  # wintermute: ignore[S001]
    handle = open(p)  # wintermute: ignore[L003,L006]

The marker suppresses only the listed codes and only on its own line;
suppressed diagnostics are *counted*, not silently dropped — ``check``
reports the total as ``N ignored`` in both text and JSON output so
suppressions stay visible in review.

The config analyzer (W rules) is exempt: its inputs are JSON deployment
specs, which have no comments.  Deployment specs suppress flow (F)
diagnostics through a top-level ``"ignore": ["F0xx", ...]`` list
instead, handled by the CLI.
"""

from __future__ import annotations

import re
from typing import Dict, Set

_MARKER = re.compile(r"#\s*wintermute:\s*ignore\[([A-Z0-9,\s]+)\]")


class InlineSuppressions:
    """Per-line ``# wintermute: ignore[...]`` markers for one source file.

    ``matched`` counts how many diagnostics were actually suppressed, so
    stale markers (ones that never fire) are distinguishable from live
    ones.
    """

    def __init__(self, source: str) -> None:
        self._by_line: Dict[int, Set[str]] = {}
        self.matched = 0
        for i, line in enumerate(source.splitlines(), start=1):
            m = _MARKER.search(line)
            if m is None:
                continue
            codes = {c.strip() for c in m.group(1).split(",") if c.strip()}
            if codes:
                self._by_line.setdefault(i, set()).update(codes)

    def active(self, line: int, code: str) -> bool:
        """True (and counted) when ``code`` is suppressed on ``line``."""
        if code in self._by_line.get(line, ()):
            self.matched += 1
            return True
        return False

    def __bool__(self) -> bool:
        return bool(self._by_line)
