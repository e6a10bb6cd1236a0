"""Unit-state race detection: a happens-before-lite access checker.

Full vector-clock happens-before tracking (TSan) is overkill for the
simulator's structured concurrency: operator units either run
sequentially on one thread or fan out over a ``ThreadPoolExecutor`` for
exactly one compute pass, then join.  Within a pass there is *no*
synchronisation between unit workers, so any object reached from two
different units during the same pass is, by construction, accessed
without a happens-before edge — no clocks needed.

The tracker therefore keys accesses by *(pass epoch, object id)* and
records the set of unit names and thread ids that touched each object.
At the end of a pass, a **model object** accessed by two or more units
while the operator is in parallel mode is a shared-model race (rule
R004) — per-unit models exist precisely so workers never share mutable
state.  Writes to operator self-state inside a compute method are lint
rule L004's, statically, for every plugin.

Unit-name sets make detection deterministic: the same config produces
the same diagnostics whether or not the thread pool actually interleaved
this run, which keeps golden JSON stable under any scheduler.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple


@dataclass
class _ModelRecord:
    """Access record for one model object within one compute pass."""

    units: Set[str] = field(default_factory=set)
    threads: Set[int] = field(default_factory=set)


@dataclass
class ModelRace:
    """A model object shared by several units of a parallel operator."""

    operator: str
    units: Tuple[str, ...]
    thread_count: int


class RaceTracker:
    """Per-pass reader/writer sets over operator models."""

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        # (operator name, model id) -> record, for the *current* pass of
        # that operator only; cleared in end_pass.
        self._models: Dict[Tuple[str, int], _ModelRecord] = {}
        self.model_races: List[ModelRace] = []
        self.model_accesses = 0

    def on_model_access(self, op_name: str, parallel: bool,
                        unit_name: str, model_id: int) -> None:
        """Record that ``unit_name`` obtained model ``model_id``."""
        if not parallel:
            return
        tid = threading.get_ident()
        with self._mutex:
            self.model_accesses += 1
            rec = self._models.get((op_name, model_id))
            if rec is None:
                rec = self._models[(op_name, model_id)] = _ModelRecord()
            rec.units.add(unit_name)
            rec.threads.add(tid)

    def end_pass(self, op_name: str) -> None:
        """Close the operator's pass: flag models shared across units."""
        with self._mutex:
            keys = [k for k in self._models if k[0] == op_name]
            for key in keys:
                rec = self._models.pop(key)
                if len(rec.units) > 1:
                    self.model_races.append(ModelRace(
                        operator=op_name,
                        units=tuple(sorted(rec.units)),
                        thread_count=len(rec.threads),
                    ))
