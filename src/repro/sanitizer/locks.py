"""Lock-order tracking: instrumented locks and the global order graph.

Deadlocks need two ingredients: at least two locks, and two threads
acquiring them in opposite orders.  Rather than hoping the unlucky
interleaving shows up in a test, :class:`TrackedLock` records every
*nested* acquisition — "thread T acquired B while holding A" — as a
directed edge A→B in a process-global :class:`LockOrderGraph`.  Any
cycle in that graph is a potential deadlock (rule R001), regardless of
whether the fatal interleaving actually occurred during the run; this is
the classic lock-order (``lockdep``-style) discipline check.

Two further per-lock observations ride along:

- **hold time** — a lock held longer than the configured threshold
  (wall-clock) starves every thread contending on it (rule R003);
- **blocking calls under a lock** — recorded by the sanitizer when a
  blocking marker (``time.sleep``, ``Thread.join``, file I/O) fires
  while the calling thread holds tracked locks (rule R002).

All bookkeeping is guarded by one plain (untracked) internal mutex; the
per-thread held-lock stack lives in a ``threading.local`` so the fast
path never contends on shared state.
"""

from __future__ import annotations

import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple


def _caller_site(limit: int = 16) -> str:
    """``file:line`` of the nearest caller outside the sanitizer.

    Walks past every sanitizer-internal frame (including the patched
    ``time.sleep`` shim), so violations are attributed to the production
    call site that triggered them.
    """
    stack = traceback.extract_stack(limit=limit)
    for frame in reversed(stack):
        filename = frame.filename.replace("\\", "/")
        if "/sanitizer/" in filename:
            continue
        return f"{frame.filename}:{frame.lineno}"
    return "<unknown>"


@dataclass
class LockEdge:
    """Observed order: some thread took ``dst`` while holding ``src``."""

    src: str
    dst: str
    count: int = 0
    #: ``file:line`` of the first acquisition that created the edge.
    first_site: str = ""
    threads: Set[str] = field(default_factory=set)


class LockOrderGraph:
    """Directed graph over lock names; cycles are potential deadlocks."""

    def __init__(self) -> None:
        self._edges: Dict[Tuple[str, str], LockEdge] = {}
        self._mutex = threading.Lock()

    def add_edge(self, src: str, dst: str, thread_name: str, site: str) -> None:
        """Record one nested acquisition ``src`` → ``dst``."""
        with self._mutex:
            edge = self._edges.get((src, dst))
            if edge is None:
                edge = self._edges[(src, dst)] = LockEdge(
                    src, dst, first_site=site
                )
            edge.count += 1
            edge.threads.add(thread_name)

    def cycles(self) -> List[List[str]]:
        """Every elementary cycle, canonicalised and deduplicated.

        The graphs here are tiny (one node per lock *name*), so a plain
        DFS over all simple paths is ample.  Each cycle is rotated to
        start at its lexicographically smallest node so that ``A→B→A``
        and ``B→A→B`` report once.
        """
        with self._mutex:
            adjacency: Dict[str, List[str]] = {}
            for src, dst in self._edges:
                adjacency.setdefault(src, []).append(dst)
                adjacency.setdefault(dst, [])
        seen: Set[Tuple[str, ...]] = set()
        out: List[List[str]] = []

        def visit(node: str, path: List[str]) -> None:
            for nxt in sorted(adjacency.get(node, ())):
                if nxt in path:
                    cycle = path[path.index(nxt):]
                    i = cycle.index(min(cycle))
                    canon = tuple(cycle[i:] + cycle[:i])
                    if canon not in seen:
                        seen.add(canon)
                        out.append(list(canon))
                    continue
                visit(nxt, path + [nxt])

        for start in sorted(adjacency):
            visit(start, [start])
        return sorted(out)

    def edge(self, src: str, dst: str) -> Optional[LockEdge]:
        """The recorded edge ``src``→``dst``, if any."""
        with self._mutex:
            return self._edges.get((src, dst))


class _HeldLock:
    """One entry in a thread's held-lock stack."""

    __slots__ = ("lock", "acquired_ns", "site")

    def __init__(self, lock: "TrackedLock", acquired_ns: int, site: str):
        self.lock = lock
        self.acquired_ns = acquired_ns
        self.site = site


class TrackedLock:
    """Drop-in ``threading.Lock`` replacement feeding the sanitizer.

    Non-reentrant, like the lock it wraps: re-acquiring a TrackedLock
    the current thread already holds is reported as an immediate
    self-deadlock *before* the call blocks forever — the sanitizer's
    bounded runs must never hang on the bug they are hunting.
    """

    def __init__(self, name: str, sanitizer) -> None:
        self.name = name
        self._inner = threading.Lock()
        self._san = sanitizer

    # -- threading.Lock API --------------------------------------------

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        san = self._san
        site = _caller_site()
        if san is not None and san.on_lock_wait(self, site):
            # Self-deadlock: the sanitizer already reported it; refuse
            # to block forever so the bounded run can finish.
            return False
        ok = self._inner.acquire(blocking, timeout)  # wintermute: ignore[S005]
        if ok and san is not None:
            san.on_lock_acquired(self, site)
        return ok

    def release(self) -> None:
        if self._san is not None:
            self._san.on_lock_released(self)
        self._inner.release()

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> "TrackedLock":
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TrackedLock({self.name!r})"


class LockTracker:
    """Per-thread held-lock stacks plus the shared order graph.

    Owned by the sanitizer; :class:`TrackedLock` calls in through the
    sanitizer's ``on_lock_*`` hooks so all lock telemetry is in one
    place.
    """

    def __init__(self, long_hold_ns: int) -> None:
        self.graph = LockOrderGraph()
        self.long_hold_ns = int(long_hold_ns)
        self._tls = threading.local()
        self._mutex = threading.Lock()
        #: (lock name, hold ns, site) of holds exceeding the threshold.
        self.long_holds: List[Tuple[str, int, str]] = []
        #: (blocking description, held lock names, site) violations.
        self.blocking_under_lock: List[Tuple[str, Tuple[str, ...], str]] = []
        self.self_deadlocks: List[Tuple[str, str]] = []
        self.acquisitions = 0

    def _held(self) -> List[_HeldLock]:
        held = getattr(self._tls, "held", None)
        if held is None:
            held = self._tls.held = []
        return held

    # -- hooks ----------------------------------------------------------

    def on_wait(self, lock: TrackedLock, site: str) -> bool:
        """Record ordering intent; True means a self-deadlock was found."""
        held = self._held()
        thread = threading.current_thread().name
        for entry in held:
            if entry.lock is lock:
                with self._mutex:
                    self.self_deadlocks.append((lock.name, site))
                return True
            self.graph.add_edge(entry.lock.name, lock.name, thread, site)
        return False

    def on_acquired(self, lock: TrackedLock, site: str) -> None:
        self._held().append(_HeldLock(lock, time.perf_counter_ns(), site))
        with self._mutex:
            self.acquisitions += 1

    def on_released(self, lock: TrackedLock) -> None:
        held = self._held()
        for i in range(len(held) - 1, -1, -1):
            if held[i].lock is lock:
                entry = held.pop(i)
                hold_ns = time.perf_counter_ns() - entry.acquired_ns
                if hold_ns > self.long_hold_ns:
                    with self._mutex:
                        self.long_holds.append(
                            (lock.name, hold_ns, entry.site)
                        )
                return

    def on_blocking(self, description: str) -> None:
        held = self._held()
        if not held:
            return
        names = tuple(entry.lock.name for entry in held)
        site = _caller_site()
        with self._mutex:
            self.blocking_under_lock.append((description, names, site))

    def held_locks(self) -> Tuple[str, ...]:
        """Names of the locks the calling thread currently holds."""
        return tuple(entry.lock.name for entry in self._held())
