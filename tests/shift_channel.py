"""The shift-left fused channel, kept as a reference model.

:class:`ShiftChannel` is the ``FusedChannel`` that
:mod:`repro.core.fusion` used before its channels became rings: one
``(rows, width)`` matrix per channel, and every pass shifts each
produced row's whole window left by one slot and writes the new column
at the end.  Its ``append`` is that body with one fix: only
``rows=None`` means "every row, in row order"; a list, complete or not,
names the row of each value.

``tests/test_property_fused_channel.py`` checks the ring against it
and ``benchmarks/bench_pipeline_fusion.py`` times the two side by side.
"""

import numpy as np

from repro.core import fusion
from repro.core.queryengine import BatchWindow


class ShiftChannel:
    """The reference: one ``(rows, width)`` matrix shifted left on
    every pass."""

    def __init__(self, topics, width):
        self.topics = tuple(topics)
        self.row_of = {t: i for i, t in enumerate(self.topics)}
        self.width = max(1, int(width))
        rows = len(self.topics)
        self.values = np.full((rows, self.width), np.nan, dtype=np.float64)
        self.timestamps = np.zeros((rows, self.width), dtype=np.int64)
        self.counts = np.zeros(rows, dtype=np.int64)

    def seed(self, prev, cache_lookup):
        for r, topic in enumerate(self.topics):
            if prev is not None:
                pr = prev.row_of.get(topic)
                if pr is not None:
                    n = min(int(prev.counts[pr]), self.width)
                    if n:
                        self.timestamps[r, -n:] = (
                            prev.timestamps[pr, prev.width - n:]
                        )
                        self.values[r, -n:] = prev.values[pr, prev.width - n:]
                        self.counts[r] = n
                    continue
            cache = cache_lookup(topic)
            if cache is not None and len(cache):
                self.counts[r] = cache.tail_into(
                    self.timestamps[r], self.values[r], self.width
                )

    def append(self, ts, rows, vals):
        if rows is None:
            idx = slice(None)
        elif rows:
            idx = np.asarray(rows, dtype=np.intp)
        else:
            return
        if self.width > 1:
            self.values[idx, :-1] = self.values[idx, 1:]
            self.timestamps[idx, :-1] = self.timestamps[idx, 1:]
        self.values[idx, -1] = vals
        self.timestamps[idx, -1] = ts
        self.counts[idx] = np.minimum(self.counts[idx] + 1, self.width)

    def window(self, topics, window_ns):
        """What the channel serves, as the replaced code built it."""
        n = min(fusion._window_count(window_ns), self.width)
        if tuple(topics) == self.topics:
            return BatchWindow(
                topics, self.values, self.timestamps,
                np.minimum(self.counts, n),
            )
        rows = np.array([self.row_of.get(t, -1) for t in topics], dtype=np.intp)
        held = rows >= 0
        values = np.full((len(rows), self.width), np.nan)
        timestamps = np.zeros((len(rows), self.width), dtype=np.int64)
        counts = np.zeros(len(rows), dtype=np.int64)
        values[held] = self.values[rows[held]]
        timestamps[held] = self.timestamps[rows[held]]
        counts[held] = np.minimum(self.counts[rows[held]], n)
        return BatchWindow(topics, values, timestamps, counts)
