"""Correctness oracle: what every probe answer and the final state must be.

Runs on every invocation, outside every timed interval.  The checks lean
on what the benchmark itself knows about its inputs rather than on the
program's answers:

- every sensor and every operator output is a gapless 1 Hz series, so
  the exact timestamp grid of any range is known (``first + k s`` up to
  ``now - lag``, the lag being the series' measured freshness);
- a tester sensor is a counter incremented once per sample from t = 0,
  so its value at ``t`` seconds is ``t + 1`` — closed form for every
  range, aggregate bucket and trigger on the two tester workloads;
- operator outputs are recomputed in plain NumPy from the stored input
  series under the documented window rule (below).

**Window rule.**  An operator pass at time ``t`` with window ``W`` reads,
per input, the readings with timestamp in ``[newest - W, newest]``
(both ends included), ``newest`` being the input's most recent reading
on the operator's host: ``t`` on the Pusher that sampled or computed
it, ``t - lag`` on the Collect Agent.  The unit's inputs are pooled in
unit order, each oldest first, and reduced.  (Pusher caches reach the
same set by count — ``W // interval + 1`` newest readings.)

**Rollups.**  On the tiered workload readings older than the rollup
horizon may have been replaced by 10 s / 1 min bucket means stamped
with the bucket start, one entry per (segment, bucket), so two entries
can share a timestamp.  Ranges are checked exactly above the horizon
and by bound below it (``0 <= value - (ts/1s + 1) <= 59``, timestamps
non-decreasing); exact conservation of count and mass across rollups is
checked once, on the final state, from the segments' count columns.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

NS = 1_000_000_000
RTOL = 1e-9
_BUCKET_SPAN = 59  # a 1-min bucket mean sits at most 59 above its start


@dataclass(frozen=True)
class SeriesInfo:
    """What the oracle knows about one probed series."""

    first_ts: int   # timestamp of the first reading
    lag_ns: int     # now - newest stored timestamp, constant per series
    tester: bool    # value is the closed form ts/1s + 1


class Oracle:
    """Per-run expectations; every ``check_*`` returns an error string
    or ``None``."""

    def __init__(self, rollup_after_s: int = 0) -> None:
        self.series: Dict[str, SeriesInfo] = {}
        self.rollup_after_ns = rollup_after_s * NS

    def learn(self, storage, topics: Sequence[str], now: int) -> None:
        """Record first timestamp and lag of ``topics`` (end of warm-up,
        before any rollup has touched the series' head or tail)."""
        for topic in topics:
            ts, _ = storage.query(topic, 0, now)
            newest = storage.latest(topic)
            if len(ts) == 0 or newest is None:
                raise RuntimeError(f"probe topic {topic} has no data after warm-up")
            name = topic.rsplit("/", 1)[-1]
            self.series[topic] = SeriesInfo(
                int(ts[0]), now - newest.timestamp,
                name.startswith("tester"),
            )

    # ------------------------------------------------------------------
    # Range results
    # ------------------------------------------------------------------

    def _grid(self, info: SeriesInfo, lo: int, hi: int, now: int) -> Tuple[int, int]:
        """(first expected timestamp, count) of the 1 Hz grid in [lo, hi]."""
        lo = max(lo, info.first_ts)
        hi = min(hi, now - info.lag_ns)
        k_lo = -((info.first_ts - lo) // NS)  # ceil((lo - first) / NS)
        k_hi = (hi - info.first_ts) // NS
        if k_hi < k_lo:
            return 0, 0
        return info.first_ts + k_lo * NS, k_hi - k_lo + 1

    def check_range(
        self, topic: str, lo: int, hi: int, now: int,
        ts: np.ndarray, val: np.ndarray,
    ) -> Optional[str]:
        info = self.series[topic]
        if len(ts) != len(val):
            return f"{topic}: {len(ts)} timestamps for {len(val)} values"
        if self.rollup_after_ns:
            raw_from = now - self.rollup_after_ns
            cut = int(np.searchsorted(ts, raw_from, side="left"))
            old_ts, old_val = ts[:cut], val[:cut]
            if len(old_ts):
                if old_ts[0] < lo or np.any(np.diff(old_ts) < 0):
                    return f"{topic}: rolled-up range unsorted or out of bounds"
                excess = old_val - (old_ts // NS + 1)
                if excess.min() < 0 or excess.max() > _BUCKET_SPAN:
                    return f"{topic}: rolled-up value outside its bucket"
            ts, val, lo = ts[cut:], val[cut:], max(lo, raw_from)
        first, count = self._grid(info, lo, hi, now)
        if len(ts) != count:
            return f"{topic}: {len(ts)} readings in range, expected {count}"
        if count == 0:
            return None
        if ts[0] != first or np.any(np.diff(ts) != NS):
            return f"{topic}: timestamps off the 1 Hz grid from {first}"
        if info.tester and not np.array_equal(val, ts // NS + 1):
            return f"{topic}: tester values differ from the closed form"
        return None

    def check_aggregate(
        self, topic: str, now: int, bucket_ns: int,
        bts: np.ndarray, means: np.ndarray, storage,
    ) -> Optional[str]:
        """``query_aggregate(topic, 0, now, bucket_ns, "mean")``."""
        info = self.series[topic]
        if len(bts) and (np.any(np.diff(bts) <= 0) or np.any(bts % bucket_ns)):
            return f"{topic}: aggregate buckets unsorted or misaligned"
        if self.rollup_after_ns:
            excess = means - (bts // NS + 1)
            if len(bts) and (excess.min() < 0 or excess.max() > _BUCKET_SPAN):
                return f"{topic}: aggregate mean outside its bucket"
            return None
        if info.tester:
            first, count = self._grid(info, 0, now, now)
            ts = first + NS * np.arange(count, dtype=np.int64)
            val = (ts // NS + 1).astype(np.float64)
        else:
            ts, val = storage.query(topic, 0, now)
        idx = ts // bucket_ns
        starts = np.flatnonzero(np.r_[True, idx[1:] != idx[:-1]])
        want_ts = idx[starts] * bucket_ns
        want = np.add.reduceat(val, starts) / np.diff(np.r_[starts, len(val)])
        if not np.array_equal(bts, want_ts):
            return f"{topic}: aggregate bucket set differs from the reference"
        if not np.allclose(means, want, rtol=RTOL, atol=0.0):
            return f"{topic}: aggregate means differ from the reference"
        return None

    # ------------------------------------------------------------------
    # Operator results (window rule)
    # ------------------------------------------------------------------

    def _agent_window(self, storage, topic: str, t: int, window_ns: int) -> np.ndarray:
        """Values of ``topic`` an agent-side pass at ``t`` reads."""
        info = self.series[topic]
        newest = t - info.lag_ns
        if info.tester:
            lo = max(info.first_ts, newest - window_ns)
            return np.arange(lo // NS + 1, newest // NS + 2, dtype=np.float64)
        return storage.query(topic, newest - window_ns, newest)[1]

    def check_trigger(
        self, storage, unit_inputs: Sequence[str], window_ns: int,
        now: int, result: dict,
    ) -> Optional[str]:
        pooled = np.concatenate(
            [self._agent_window(storage, t, now, window_ns) for t in unit_inputs]
        )
        if len(result) != 1 or not len(pooled):
            return f"trigger returned {result!r} over {len(pooled)} readings"
        (got,) = result.values()
        if not np.isclose(got, pooled.mean(), rtol=RTOL, atol=0.0):
            return f"trigger {got!r} != reference {pooled.mean()!r}"
        return None


_REDUCERS: Dict[str, Callable[[np.ndarray], float]] = {
    "mean": np.mean, "sum": np.sum, "max": np.max,
}


def check_operator_outputs(
    oracle: Oracle, storage, op, op_kind: str, on_agent: bool,
    units: Sequence, until: int,
) -> List[str]:
    """Recompute every stored output of ``units`` of one mean/sum/max
    operator from the stored input series under the window rule."""
    reduce = _REDUCERS[op_kind]
    window_ns = op.config.window_ns
    errors = []
    for unit in units:
        out_topic = unit.outputs[0].topic
        ts, val = storage.query(out_topic, 0, until)
        if len(ts) == 0:
            errors.append(f"{out_topic}: operator output never stored")
            continue
        # Reference inputs come whole from storage once per unit.
        series = {t: storage.query(t, 0, until) for t in unit.inputs}
        lag = {
            t: (oracle.series[t].lag_ns if on_agent and t in oracle.series else 0)
            for t in unit.inputs
        }
        want = np.empty(len(ts))
        for i, t in enumerate(ts.tolist()):
            parts = []
            for topic in unit.inputs:
                its, ival = series[topic]
                newest = t - lag[topic]
                lo = np.searchsorted(its, newest - window_ns, side="left")
                hi = np.searchsorted(its, newest, side="right")
                parts.append(ival[lo:hi])
            want[i] = reduce(np.concatenate(parts))
        if not np.allclose(val, want, rtol=RTOL, atol=0.0):
            bad = int(np.flatnonzero(~np.isclose(val, want, rtol=RTOL, atol=0.0))[0])
            errors.append(
                f"{out_topic}@{int(ts[bad])}: {val[bad]!r} != reference {want[bad]!r}"
            )
    return errors


def check_fused_chain(
    storage, raw_topics: Sequence[str], out_topic: str,
    windows_s: Sequence[int], until: int,
) -> Optional[str]:
    """One node's in-band chain recomputed stage by stage from its raw
    per-cpu counters: per cpu ``smoother -> mean -> max``, every stage
    starting at t = 0 and reading the ``W + 1`` newest values of the
    stage before it, then the max over the cpus."""
    stage = np.stack([storage.query(t, 0, until)[1] for t in raw_topics])
    for w, reduce in zip(windows_s, (np.mean, np.mean, np.max)):
        stage = np.stack(
            [reduce(stage[:, max(0, i - w):i + 1], axis=1)
             for i in range(stage.shape[1])],
            axis=1,
        )
    want = stage.max(axis=0)
    ts, val = storage.query(out_topic, 0, until)
    if len(ts) != len(want):
        return f"{out_topic}: {len(ts)} outputs for {len(want)} raw readings"
    if not np.allclose(val, want, rtol=RTOL, atol=0.0):
        return f"{out_topic}: fused chain differs from the staged NumPy reference"
    return None


# ----------------------------------------------------------------------
# Final state
# ----------------------------------------------------------------------

def _sealed_counts(storage, topic: str) -> Tuple[int, float]:
    """(readings, value mass) ``topic`` has in sealed segments, rollup
    buckets weighted by their count column."""
    count, mass = 0, 0.0
    for seg in storage.store.segments:
        if topic not in seg.series:
            continue
        cols = seg.topic_columns(topic, seg.min_ts, seg.max_ts)
        if seg.level:
            count += int(cols["count"].sum())
            mass += float((cols["mean"] * cols["count"]).sum())
        else:
            count += len(cols["ts"])
            mass += float(cols["val"].sum())
    return count, mass


def _memory_tier(storage, topic: str) -> np.ndarray:
    """Values ``topic`` still holds in a tiered backend's memory tier."""
    from repro.dcdb.storage import StorageBackend

    return StorageBackend.query(storage, topic, 0, 2**62)[1]


def check_final_state(
    storage, raw_topics: Sequence[str], expected_readings: int,
) -> Tuple[str, int, List[str]]:
    """After the final flush: (result digest, readings missing, errors).

    Every raw topic must hold exactly one reading per sample taken
    (count-weighted across rollups, with the tester mass conserved),
    every series must be sorted (strictly, where raw), and the digest
    is sha256 over sorted (topic, timestamps, values) bytes so two
    commits can be diffed for the bit-identical invariant.
    """
    tiered = hasattr(storage, "store")
    raw = set(raw_topics)
    digest = hashlib.sha256()
    missing = 0
    errors: List[str] = []
    for topic in sorted(storage.topics()):
        ts, val = storage.query(topic, 0, 2**62)
        digest.update(topic.encode("utf-8"))
        digest.update(np.ascontiguousarray(ts).tobytes())
        digest.update(np.ascontiguousarray(val).tobytes())
        steps = np.diff(ts)
        if np.any(steps < 0) or (not tiered and np.any(steps == 0)):
            errors.append(f"{topic}: timestamps not sorted")
        if topic not in raw:
            continue
        if tiered:
            sealed, mass = _sealed_counts(storage, topic)
            mem_val = _memory_tier(storage, topic)
            stored = sealed + len(mem_val)
            mass += float(mem_val.sum())
            if topic.rsplit("/", 1)[-1].startswith("tester"):
                n = expected_readings
                if not np.isclose(mass, n * (n + 1) / 2, rtol=RTOL, atol=0.0):
                    errors.append(f"{topic}: mass {mass!r} not conserved across rollups")
        else:
            stored = len(ts)
        if stored != expected_readings:
            missing += max(0, expected_readings - stored)
            errors.append(f"{topic}: {stored} readings stored, {expected_readings} sampled")
    return digest.hexdigest(), missing, errors
