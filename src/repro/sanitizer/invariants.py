"""Invariant sanitizers: query snapshots, stale drops, the sleep shim.

- **Snapshot immutability (R007)** — a :class:`~repro.dcdb.cache.CacheView`
  handed to an operator is a point-in-time snapshot; nobody (neither the
  operator nor a concurrent writer) may change it afterwards.  Each view
  returned by the Query Engine is fingerprinted (length, boundary
  timestamps, value checksum) when handed out and re-checked at the end
  of the compute pass.
- **Out-of-order drops (R010)** — the cache's stale-drop guard firing is
  not a bug in the cache, but it *is* data loss worth surfacing: a scan
  after the run reports caches that dropped readings.  The guard itself
  (``LockStep.stale`` and ``keep`` in ``dcdb/cache.py``, under every
  cache write) is what keeps a ring's timestamps sorted; the cache
  property suites pin it.

While the sanitizer is active ``time.sleep`` is wrapped, feeding the
R002 blocking-under-lock check.  Wall-clock reads are lint rule L002's.
"""

from __future__ import annotations

import threading
import time as _time
from dataclasses import dataclass
from typing import List, Optional, Tuple

#: Views fingerprinted per compute pass; beyond this they pass untracked
#: (bounds sanitizer memory on large unit sets).
MAX_TRACKED_VIEWS = 256

#: Marker attribute set on the patched ``time.sleep`` so the Fig 5
#: benchmark can assert the production path runs unpatched functions.
PATCH_MARKER = "_wintermute_sanitizer_patch"


def _fingerprint(view) -> Optional[Tuple[int, int, int, float]]:
    """(len, first ts, last ts, value sum) of a view; None if empty."""
    n = len(view)
    if n == 0:
        return None
    ts = view.timestamps()
    values = view.values()
    return (n, int(ts[0]), int(ts[-1]), float(values.sum()))


@dataclass
class ViewViolation:
    """A query result that changed after it was handed out."""

    topic: str
    detail: str


class ViewTracker:
    """Fingerprints Query Engine results; re-verified at pass end."""

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self._tracked: List[Tuple[str, object, Tuple[int, int, int, float]]] = []
        self.violations: List[ViewViolation] = []
        self.views_seen = 0

    def on_view(self, topic: str, view) -> None:
        """Fingerprint one freshly returned view."""
        fp = _fingerprint(view)
        with self._mutex:
            self.views_seen += 1
            if fp is not None and len(self._tracked) < MAX_TRACKED_VIEWS:
                self._tracked.append((topic, view, fp))

    def verify(self) -> None:
        """Re-fingerprint tracked views; mismatches become violations."""
        with self._mutex:
            tracked, self._tracked = self._tracked, []
        for topic, view, fp in tracked:
            now = _fingerprint(view)
            if now == fp:
                continue
            if now is None or now[0] != fp[0]:
                detail = (
                    f"length changed from {fp[0]} to "
                    f"{0 if now is None else now[0]}"
                )
            elif (now[1], now[2]) != (fp[1], fp[2]):
                detail = "timestamp window changed after hand-out"
            else:
                detail = "values changed after hand-out"
            with self._mutex:
                self.violations.append(ViewViolation(topic, detail))


def iter_host_caches(deployment):
    """Yield (host name, topic, cache) over a deployment's components.

    Any component exposing a ``caches`` mapping (Pushers and Collect
    Agents both hold ``topic -> SensorCache``) is scanned.
    """
    for host in getattr(deployment, "all_hosts", lambda: [])():
        caches = getattr(host, "caches", None)
        if not isinstance(caches, dict):
            continue
        name = getattr(host, "name", host.__class__.__name__)
        for topic in sorted(caches):
            yield name, topic, caches[topic]


class TimePatch:
    """Swaps ``time.sleep`` for a shim reporting each sleep as blocking.

    Only installed while a sanitizer is active; :meth:`uninstall`
    restores the original, and the shim carries :data:`PATCH_MARKER`
    so tests can prove the production path never sees a patched clock.
    """

    def __init__(self, sanitizer) -> None:
        self._san = sanitizer
        self._original = None

    def install(self) -> None:
        real_sleep = self._original = _time.sleep
        san = self._san

        def patched_sleep(seconds: float) -> None:
            if seconds > 0:
                san.on_blocking_call(f"time.sleep({seconds:g})")
            real_sleep(seconds)

        setattr(patched_sleep, PATCH_MARKER, True)
        _time.sleep = patched_sleep

    def uninstall(self) -> None:
        if self._original is not None:
            _time.sleep, self._original = self._original, None


def time_functions_patched() -> bool:
    """Whether any of the time functions currently carry a patch marker."""
    return any(
        hasattr(getattr(_time, name), PATCH_MARKER)
        for name in ("time", "monotonic", "sleep")
    )
