"""The seeded probe one closed-loop client plays after every tick.

One *round* is 20 range queries in a fixed interleaved mix plus 5
on-demand triggers; the seed draws the topics, the past offsets and the
trigger units.  Each call is timed on its own from the outside, its
answer is then checked by the oracle outside the timed interval.

The mix is 60 % last-30-s ranges, 10 % each of a 60 s range at a random
past offset, the whole history, 60 s-mean buckets over the whole
history, and a Query Engine ``query_absolute`` over the last 120 s
(storage fallback once the cache is shorter).  The shares are chosen so
the pooled percentiles sit inside one kind and not on the edge between
two — with exactly half the queries of the cheapest kind the median
would flip between clusters from run to run: p50 lands inside the
last-30-s ranges, p95 in the middle of the dearest 10 %.
"""

from __future__ import annotations

import random
import time
from typing import List

from benchmarks.e2e.oracle import NS, Oracle
from benchmarks.e2e.workloads import PROBE_OPERATOR, PROBE_WINDOW_S

RECENT, RANGE, HISTORY, AGGREGATE, ABSOLUTE = range(5)
KIND_NAMES = ("recent", "range", "history", "aggregate", "absolute")

#: One round, interleaved so no kind runs in a burst.
MIX = (
    RECENT, RANGE, RECENT, HISTORY, RECENT, AGGREGATE, RECENT, ABSOLUTE,
    RECENT, RECENT, RANGE, RECENT, HISTORY, RECENT, AGGREGATE, RECENT,
    ABSOLUTE, RECENT, RECENT, RECENT,
)
TRIGGERS_PER_ROUND = 5
BUCKET_NS = 60 * NS
_MAX_LOGGED = 8


class Probe:
    """Plays the probe against a deployment's Collect Agent."""

    def __init__(self, dep, oracle: Oracle, topics: List[str],
                 rounds: int, seed: int) -> None:
        self.dep = dep
        self.oracle = oracle
        self.topics = topics
        self.rounds = rounds
        self.rng = random.Random(seed)
        self.storage = dep.agent.storage
        self.manager = dep.agent_manager
        self.units = self.manager.operator(PROBE_OPERATOR).units
        #: Wall ns of every query (all kinds pooled) and every trigger.
        self.query_ns: List[int] = []
        self.trigger_ns: List[int] = []
        self.failed = 0
        self.errors: List[str] = []

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < _MAX_LOGGED:
            self.errors.append(message)

    def play(self) -> None:
        """One tick's worth: ``rounds`` x (20 queries + 5 triggers)."""
        now = self.dep.now
        rng, clock, storage = self.rng, time.perf_counter_ns, self.storage
        engine = self.manager.engine
        check = self.oracle.check_range
        for _ in range(self.rounds):
            for kind in MIX:
                topic = rng.choice(self.topics)
                error = None
                try:
                    if kind == AGGREGATE:
                        t0 = clock()
                        bts, means = storage.query_aggregate(
                            topic, 0, now, BUCKET_NS, "mean"
                        )
                        dt = clock() - t0
                        error = self.oracle.check_aggregate(
                            topic, now, BUCKET_NS, bts, means, storage
                        )
                    elif kind == ABSOLUTE:
                        lo = max(0, now - 120 * NS)
                        t0 = clock()
                        view = engine.query_absolute(topic, lo, now)
                        dt = clock() - t0
                        error = check(topic, lo, now, now,
                                      view.timestamps(), view.values())
                    else:
                        if kind == RECENT:
                            lo, hi = max(0, now - 30 * NS), now
                        elif kind == RANGE:
                            lo = rng.randrange(max(1, now // NS - 60)) * NS
                            hi = lo + 60 * NS
                        else:
                            lo, hi = 0, now
                        t0 = clock()
                        ts, val = storage.query(topic, lo, hi)
                        dt = clock() - t0
                        error = check(topic, lo, hi, now, ts, val)
                except Exception as exc:  # a raising probe call is a failed op
                    dt = clock() - t0
                    error = f"{KIND_NAMES[kind]} {topic}: raised {exc!r}"
                self.query_ns.append(dt)
                if error is not None:
                    self._fail(error)
            for _ in range(TRIGGERS_PER_ROUND):
                unit = rng.choice(self.units)
                t0 = clock()
                try:
                    result = self.manager.trigger(PROBE_OPERATOR, unit.name)
                    dt = clock() - t0
                    error = self.oracle.check_trigger(
                        storage, unit.inputs, PROBE_WINDOW_S * NS, now, result
                    )
                except Exception as exc:
                    dt = clock() - t0
                    error = f"trigger {unit.name}: raised {exc!r}"
                self.trigger_ns.append(dt)
                if error is not None:
                    self._fail(error)
