"""Invariant sanitizers: snapshots, cache order, clocks.

Three invariants underpin the Query Engine's lock-free read path and the
Fig 5 overhead claim; each gets a runtime verifier here:

- **Snapshot immutability (R007)** — a :class:`~repro.dcdb.cache.CacheView`
  handed to an operator is a point-in-time snapshot; nobody (neither the
  operator nor a concurrent writer) may change it afterwards.  Each view
  returned by the Query Engine is fingerprinted (length, boundary
  timestamps, value checksum) when handed out and re-checked at the end
  of the compute pass.
- **Cache write monotonicity (R006)** — the ring buffer's binary-search
  contract requires non-decreasing timestamps across its segments; a
  violation silently corrupts every absolute query.  Verified by a
  whole-deployment scan after the bounded run.
- **Out-of-order drops (R010)** — the cache's stale-drop guard firing is
  not a bug in the cache, but it *is* data loss worth surfacing: the
  scan reports caches that dropped readings during the run.

Rule R008 (sensor tree read-only after build) is retired: a host's tree
grows in place for as long as it lives, and resolved units hold topic
strings and sensors, never tree nodes, so there is nothing to freeze.

Wall-clock discipline (R009) also lives here: while the sanitizer is
active, ``time.time``/``time.monotonic`` are replaced with recording
wrappers that inspect the caller's frame — a read from simulator or
plugin code during the run breaks clock discipline (the runtime twin of
lint rule L002).  ``time.sleep`` is wrapped too, feeding the R002
blocking-under-lock check.
"""

from __future__ import annotations

import sys
import threading
import time as _time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: Views fingerprinted per compute pass; beyond this they pass untracked
#: (bounds sanitizer memory on large unit sets).
MAX_TRACKED_VIEWS = 256

#: Marker attribute set on patched time functions so the Fig 5 benchmark
#: can assert the production path runs unpatched functions.
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


# ---------------------------------------------------------------------------
# Cache scans (run once over the finished deployment, not per write)
# ---------------------------------------------------------------------------


@dataclass
class CacheOrderViolation:
    """Non-monotonic timestamps found inside a sensor cache."""

    host: str
    topic: str
    detail: str


@dataclass
class StaleDropReport:
    """A cache that dropped out-of-order readings during the run."""

    host: str
    topic: str
    drops: int


def scan_cache(host_name: str, topic: str, cache) -> Tuple[
    Optional[CacheOrderViolation], Optional[StaleDropReport]
]:
    """Verify one cache's ordering invariant and read its drop counter."""
    order: Optional[CacheOrderViolation] = None
    prev = None
    for ts, _ in cache._ordered_segments():
        for value in ts:
            value = int(value)
            if prev is not None and value < prev:
                order = CacheOrderViolation(
                    host_name, topic,
                    f"timestamp {value} follows {prev}",
                )
                break
            prev = value
        if order is not None:
            break
    drops = int(getattr(cache, "stale_drops", 0))
    stale = (
        StaleDropReport(host_name, topic, drops) if drops > 0 else None
    )
    return order, stale


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


# ---------------------------------------------------------------------------
# Wall-clock discipline (R009) and sleep interception
# ---------------------------------------------------------------------------

#: Path fragments marking clock-disciplined code: simulated components
#: and operator plugins must take time from the simulation clock.
CLOCK_DISCIPLINED_FRAGMENTS = ("simulator/", "plugins/")

#: Path fragments whose frames are skipped when attributing a wall-clock
#: read (the sanitizer's own code and the stdlib are not interesting).
_IGNORED_FRAGMENTS = ("sanitizer/", "threading.py", "concurrent/")


@dataclass
class WallClockRead:
    """A wall-clock read from clock-disciplined code."""

    func: str
    file: str
    line: int


class TimePatch:
    """Swaps ``time.time``/``monotonic``/``sleep`` for recording shims.

    Only installed while a sanitizer is active; :meth:`uninstall`
    restores the originals, and each shim carries :data:`PATCH_MARKER`
    so tests can prove the production path never sees a patched clock.
    """

    def __init__(self, sanitizer) -> None:
        self._san = sanitizer
        self._originals: Dict[str, object] = {}
        self._mutex = threading.Lock()
        self.reads: List[WallClockRead] = []
        self.wall_clock_reads = 0

    # -- frame attribution ---------------------------------------------

    def _record_read(self, func: str) -> None:
        frame = sys._getframe(2)
        while frame is not None:
            filename = frame.f_code.co_filename.replace("\\", "/")
            if any(frag in filename for frag in _IGNORED_FRAGMENTS):
                frame = frame.f_back
                continue
            break
        if frame is None:
            return
        # Reads made while the import machinery is on the stack are
        # module-level initialisation of lazily imported libraries, not
        # behaviour of the run under test — and whether they happen at
        # all depends on which modules previous code already imported.
        caller = frame
        while caller is not None:
            if caller.f_code.co_filename.startswith("<frozen importlib"):
                return
            caller = caller.f_back
        filename = frame.f_code.co_filename.replace("\\", "/")
        with self._mutex:
            self.wall_clock_reads += 1
            if any(frag in filename for frag in CLOCK_DISCIPLINED_FRAGMENTS):
                self.reads.append(
                    WallClockRead(func, filename, frame.f_lineno)
                )

    # -- install / uninstall -------------------------------------------

    def install(self) -> None:
        real_time = _time.time
        real_monotonic = _time.monotonic
        real_sleep = _time.sleep
        self._originals = {
            "time": real_time,
            "monotonic": real_monotonic,
            "sleep": real_sleep,
        }
        patch = self

        def patched_time() -> float:
            patch._record_read("time.time")
            return real_time()

        def patched_monotonic() -> float:
            patch._record_read("time.monotonic")
            return real_monotonic()

        def patched_sleep(seconds: float) -> None:
            san = patch._san
            if san is not None and seconds > 0:
                san.on_blocking_call(f"time.sleep({seconds:g})")
            real_sleep(seconds)

        for shim in (patched_time, patched_monotonic, patched_sleep):
            setattr(shim, PATCH_MARKER, True)
        _time.time = patched_time
        _time.monotonic = patched_monotonic
        _time.sleep = patched_sleep

    def uninstall(self) -> None:
        if not self._originals:
            return
        _time.time = self._originals["time"]
        _time.monotonic = self._originals["monotonic"]
        _time.sleep = self._originals["sleep"]
        self._originals = {}


def time_functions_patched() -> bool:
    """Whether any of the time functions currently carry a patch marker."""
    return any(
        hasattr(getattr(_time, name), PATCH_MARKER)
        for name in ("time", "monotonic", "sleep")
    )
