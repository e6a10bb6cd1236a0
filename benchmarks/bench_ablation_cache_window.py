"""Ablation M8 — sensor-cache window sizing.

The paper's deployments run 180 s caches; DCDB sizes them per sensor
from a time window and the sampling interval.  This ablation quantifies
the design trade-off behind that choice on the Fig 5 workload (1000
sensors at 1 s):

- memory grows linearly with the window (and must stay within the
  ~25 MB pusher budget even at generous windows);
- relative-mode query cost is independent of the window (the O(1)
  index arithmetic never touches more data than the query asks for);
- absolute-mode query cost grows only logarithmically.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from benchmarks.harness import (
    print_header,
    print_table,
    shape_check,
    store_passes,
)
from repro.common.timeutil import NS_PER_SEC
from repro.dcdb.cache import SensorCache

WINDOWS_S = (60, 180, 600, 3600)
N_SENSORS = 1000
QUERY_SPAN_S = 30


def build_caches(window_s):
    caches = []
    ts = np.arange(window_s, dtype=np.int64) * NS_PER_SEC
    values = ts.astype(np.float64)
    for _ in range(8):  # a sample of the 1000; memory extrapolates
        cache = SensorCache.for_duration(window_s * NS_PER_SEC, NS_PER_SEC)
        store_passes(zip([cache] * len(ts), ts, values))
        caches.append(cache)
    return caches


def mean_cost(fn, reps=3000):
    t0 = time.perf_counter_ns()
    for _ in range(reps):
        fn()
    return (time.perf_counter_ns() - t0) / reps


class TestCacheWindowAblation:
    def test_window_size_tradeoff(self, benchmark):
        print_header("M8 - cache window ablation (1000 sensors @ 1s)")
        rows = []
        mem = {}
        rel = {}
        absolute = {}
        for window_s in WINDOWS_S:
            caches = build_caches(window_s)
            cache = caches[0]
            newest = cache.latest().timestamp
            mem[window_s] = cache.memory_bytes() * N_SENSORS / 2**20
            rel[window_s] = mean_cost(
                lambda: cache.view_relative(QUERY_SPAN_S * NS_PER_SEC)
            )
            absolute[window_s] = mean_cost(
                lambda: cache.view_absolute(
                    newest - QUERY_SPAN_S * NS_PER_SEC, newest
                )
            )
            rows.append(
                (
                    f"{window_s}s",
                    mem[window_s],
                    rel[window_s],
                    absolute[window_s],
                )
            )
        print_table(
            ["window", "mem(1000) [MB]", "rel [ns]", "abs [ns]"], rows
        )
        assert shape_check(
            "paper's 180s window fits the 25MB pusher budget many times",
            mem[180] < 25.0 / 4,
            f"{mem[180]:.1f} MB",
        )
        assert shape_check(
            "relative query cost independent of window size",
            rel[WINDOWS_S[-1]] < rel[WINDOWS_S[0]] * 3.0,
            f"{rel[WINDOWS_S[0]]:.0f} -> {rel[WINDOWS_S[-1]]:.0f} ns",
        )
        assert shape_check(
            "absolute query cost sub-linear in window size",
            absolute[WINDOWS_S[-1]]
            < absolute[WINDOWS_S[0]] * (WINDOWS_S[-1] / WINDOWS_S[0]) / 4,
            f"{absolute[WINDOWS_S[0]]:.0f} -> {absolute[WINDOWS_S[-1]]:.0f} ns",
        )
        assert shape_check(
            "memory linear in window",
            mem[3600] == pytest.approx(mem[60] * 60, rel=0.3),
            f"{mem[60]:.2f} -> {mem[3600]:.1f} MB",
        )
        big = build_caches(3600)[0]
        newest = big.latest().timestamp
        benchmark(
            big.view_absolute, newest - QUERY_SPAN_S * NS_PER_SEC, newest
        )
