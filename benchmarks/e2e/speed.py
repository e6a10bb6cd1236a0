"""Machine speed, measured beside the work, so times can be compared.

The sandbox this ledger runs on is a shared micro-VM whose speed wanders
by 5-15 % within tens of seconds and by 30-40 % for minutes at a time
(measured: the same deterministic ticks, the same process, 34 ms each
at the start of a run and 52 ms a minute later).  The slowdown is
uniform — 6 us queries stretch as much as 40 ms ticks — so no median
inside one run removes it, and raw wall times from two runs cannot
resolve a 7 % change.

So every timed sample is divided by a *speed factor* taken at the same
moment: after each tick a fixed kernel of interpreter and NumPy-scalar
work (what the program's hot paths are made of) is timed, the factor of
a block of ticks is the block's median kernel time over a nominal one,
and end-to-end times are reported **at reference speed** — the wall
time the run would have shown on a machine on which the kernel takes
``NOMINAL_NS``.  Throughput is divided likewise.  The factor itself is
reported (``speed_factor`` in records, ``process.speed_factor`` per
layer): multiply by it to get this run's raw wall time back.

The kernel never changes with the program, so a change to the program
moves the reported times exactly as it moves wall time.
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

#: Kernel time on the defining sandbox at its usual speed, measured in
#: place (between ticks, caches as the workloads leave them).  It only
#: sets the unit: factor 1.0 is that sandbox on an ordinary minute.
NOMINAL_NS = 32_000.0
#: Ticks sharing one factor: long enough for a steady median (60 kernel
#: timings), short enough to follow the speed wandering.
BLOCK = 15
_TIMED_CALLS = 4


class SpeedGauge:
    """Times the reference kernel; one :meth:`sample` per tick."""

    def __init__(self) -> None:
        self._ts = np.zeros(256, dtype=np.int64)
        self._val = np.zeros(256, dtype=np.float64)
        self._table = [(i * 7) & 255 for i in range(256)]
        self.samples_ns: List[float] = []

    def _kernel(self) -> float:
        ts, val, table = self._ts, self._val, self._table
        acc = 0
        for j in range(256):
            ts[j] = j      # NumPy scalar stores, as a cache store does
            val[j] = acc
            acc = (acc + table[j]) & 255
        return float(val[:128].sum())

    def sample(self) -> None:
        self._kernel()  # untimed: refill the caches the tick evicted
        t0 = time.perf_counter_ns()
        for _ in range(_TIMED_CALLS):
            self._kernel()
        self.samples_ns.append((time.perf_counter_ns() - t0) / _TIMED_CALLS)

    def factors(self) -> np.ndarray:
        """Speed factor per sample, constant over blocks of ``BLOCK``."""
        samples = np.asarray(self.samples_ns)
        out = np.empty(len(samples))
        for start in range(0, len(samples), BLOCK):
            # A short last block borrows from the one before it.
            lo = max(0, min(start, len(samples) - BLOCK))
            out[start:start + BLOCK] = np.median(samples[lo:start + BLOCK])
        return out / NOMINAL_NS


def factor_now(samples: int = 2 * BLOCK) -> float:
    """One-off speed factor (used right after set-up)."""
    gauge = SpeedGauge()
    for _ in range(samples):
        gauge.sample()
    return float(np.median(gauge.samples_ns)) / NOMINAL_NS
