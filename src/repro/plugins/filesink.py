"""Filesink operator plugin.

Exports sensor streams to CSV files — the production Wintermute ships a
file-sink plugin for exactly this purpose: feeding external tooling
(plotting, spreadsheets, offline analysis) without touching the storage
backend.  Each unit writes one CSV file named after the unit, one row per
pass: the newest value of every input sensor (sample-and-hold, blank
while a sensor has produced nothing) under the timestamp of the newest
of those readings.

Params:
    ``directory`` (str, required): output directory (created if absent).
    ``flush_every`` (int): write buffered rows to disk every N computes
        (default 10).
    ``timestamp_unit`` (str): ``s``, ``ms`` or ``ns`` (default ``s``).

The unit's output sensor receives the number of rows written so far, so
export progress is itself monitorable.
"""

from __future__ import annotations

import contextlib
import csv
import os
from typing import Dict, List, Sequence, TextIO

from repro.common.errors import ConfigError
from repro.core.operator import OperatorBase, OperatorConfig, WindowRow
from repro.core.registry import operator_plugin
from repro.core.units import Unit

_TS_DIVISORS = {"s": 1e9, "ms": 1e6, "ns": 1.0}


class _UnitSink:
    """Open CSV file plus write bookkeeping for one unit."""

    def __init__(self, path: str, columns: List[str]) -> None:
        self.path = path
        is_new = not os.path.exists(path)
        # Long-lived handle, closed via FileSinkOperator.close().
        self.handle: TextIO = open(  # noqa: SIM115
            path, "a", newline="", encoding="utf-8"
        )
        self.writer = csv.writer(self.handle)
        if is_new:
            self.writer.writerow(["timestamp"] + columns)
        self.rows_written = 0
        self.pending = 0

    def write(self, timestamp, values) -> None:
        self.writer.writerow([timestamp] + values)
        self.rows_written += 1
        self.pending += 1

    def flush(self) -> None:
        self.handle.flush()
        self.pending = 0

    def close(self) -> None:
        self.handle.close()


@operator_plugin("filesink")
class FileSinkOperator(OperatorBase):
    """Streams each unit's input sensors into a CSV file."""

    @classmethod
    def flow_transforms(cls, params: dict) -> Dict[str, object]:
        # Row counters, not physical quantities.
        return {"*": "dimensionless"}

    def __init__(self, config: OperatorConfig) -> None:
        super().__init__(config)
        directory = config.params.get("directory")
        if not directory:
            raise ConfigError(f"{config.name}: params.directory is required")
        self.directory = str(directory)
        self.flush_every = int(config.params.get("flush_every", 10))
        if self.flush_every < 1:
            raise ConfigError(f"{config.name}: flush_every must be >= 1")
        unit_name = config.params.get("timestamp_unit", "s")
        if unit_name not in _TS_DIVISORS:
            raise ConfigError(
                f"{config.name}: timestamp_unit must be one of "
                f"{sorted(_TS_DIVISORS)}"
            )
        self.ts_divisor = _TS_DIVISORS[unit_name]
        self._sinks: Dict[str, _UnitSink] = {}

    def _sink_for(self, unit: Unit) -> _UnitSink:
        sink = self._sinks.get(unit.name)
        if sink is None:
            os.makedirs(self.directory, exist_ok=True)
            fname = unit.name.strip("/").replace("/", "_") or "root"
            path = os.path.join(self.directory, f"{fname}.csv")
            columns = [t.strip("/").replace("/", "_") for t in unit.inputs]
            sink = self._sinks[unit.name] = _UnitSink(path, columns)
        return sink

    def compute_window(
        self, unit: Unit, rows: Sequence[WindowRow]
    ) -> Dict[str, float]:
        newest = [int(ts[-1]) for _topic, ts, _values in rows if len(ts)]
        if not newest:
            return {}  # no sensor producing yet: nothing to export
        sink = self._sink_for(unit)
        stamp = max(newest)
        sink.write(
            stamp / self.ts_divisor if self.ts_divisor != 1.0 else stamp,
            # A sensor not yet producing leaves a blank cell.
            [float(v[-1]) if len(v) else "" for _topic, _ts, v in rows],
        )
        if sink.pending >= self.flush_every:
            sink.flush()
        return {s.name: float(sink.rows_written) for s in unit.outputs}

    def stop(self) -> None:
        """Flush and close every file when the operator stops."""
        super().stop()
        for sink in self._sinks.values():
            sink.flush()

    def close(self) -> None:
        """Release file handles (idempotent)."""
        for sink in self._sinks.values():
            sink.close()
        self._sinks.clear()

    def __del__(self):  # pragma: no cover - interpreter shutdown path
        with contextlib.suppress(Exception):
            self.close()
