"""The four deployment workloads of the end-to-end ledger.

Each workload is a complete deployment spec for
:func:`repro.deploy.build_deployment` plus the shape of its run (warm-up
length, timed ticks per wall-clock second of budget, probe size).  The
seed sets the cluster noise, the job application mix and placement;
probe draws are seeded separately in :mod:`benchmarks.e2e.probe`.  The
program under test only ever sees the generated spec.

Why these four: every ROADMAP performance item touches one of four
paths — raw ingest (pusher cache → publish → broker trie → ingest queue
→ agent cache → storage append), fused in-band operator chains on the
Pushers, staged whole-system operators on the Collect Agent, and reads
beside writes on the segment tier.  Each workload makes one of those
paths the majority of a tick and keeps the others small, so a change to
one layer moves one workload and is predicted to leave the rest alone.

Sizes are set so one tick (plus its probe) costs 40-60 ms on the 2-core
sandbox: the benchmark contract caps a whole run — several set-ups plus
the timed region — at roughly half a minute, and a timed region needs
>= 240 ticks for its p95 to have >= 12 samples beyond it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

#: name -> one-line reason, in ledger order (mirrored in BENCHMARK.json).
WHY: Dict[str, str] = {
    "ingest_fanin": (
        "tester sensors only, no online operators: the dcdb ingest hops "
        "do the work, operators none"
    ),
    "inband_fused": (
        "fused per-cpu operator chains plus a scalar-only plugin on "
        "every Pusher: core.fusion, queryengine and kernels dominate"
    ),
    "agent_holistic": (
        "staged batch and job operators on the Collect Agent writing to "
        "storage: the path fusion never takes"
    ),
    "tiered_query_mix": (
        "tiered storage flushing and rolling up while a heavy probe "
        "reads memory, segment, rollup and cross-tier ranges"
    ),
}

NAMES = tuple(WHY)

_APPS = ("hpl", "lammps", "amg", "kripke", "nekbone")

#: Sim-seconds run before the Collect Agent's blocks load: agent
#: operators resolve their units against sensors the agent has *seen*,
#: so the Pushers must have published (and the agent drained) first.
FIRST_PHASE_S = 3

#: The on-demand operator every workload loads on the agent; costs
#: nothing online, serves the probe's triggers.
PROBE_OPERATOR = "probe-avg"
PROBE_WINDOW_S = 30

#: Warm-up of the memory-backed workloads: plans compile, ingest caches
#: size themselves, every operator has produced output.  The 30 s
#: windows finish filling some 20 ticks into the timed region, which the
#: medians do not see and every run repeats exactly.
WARM_S = 14


@dataclass(frozen=True)
class Workload:
    """One generated workload: the spec and the shape of its run."""

    name: str
    spec: dict
    #: Sim-seconds between build and the first timed tick (includes
    #: ``FIRST_PHASE_S``): caches fill, plans compile, channels warm.
    warm_s: int
    #: Timed ticks per second of ``--seconds`` budget, calibrated so the
    #: timed region (ticks + probe) lasts about that long at the commit
    #: that defined the benchmark.  Fixed, not adaptive: a fixed tick
    #: count is what lets digests and traced counts repeat exactly.
    ticks_per_second: float
    #: The probe mix (see probe.py) is played this many times per tick.
    #: Never once: the first calls after a tick run on cold CPU caches
    #: and cost twice the rest, so with one round every kind is bimodal
    #: and a pooled percentile sits between the modes.
    probe_rounds: int
    #: Sensor names whose published series the freshness gauge follows.
    fresh_sensors: tuple
    #: Rollup horizon of the storage tier in seconds (0 = no rollups):
    #: readings newer than this are guaranteed raw.
    rollup_after_s: int = 0

    def ticks(self, seconds: float) -> int:
        return max(8, round(seconds * self.ticks_per_second))


def _op(plugin: str, name: str, **fields) -> dict:
    fields.setdefault("interval_s", 1)
    return {"plugin": plugin, "operators": {name: fields}}


#: Agent operators fed by Pusher operator outputs are ``relaxed``: the
#: ``check --config`` pass does not carry Pusher outputs into the agent's
#: synthesized tree and would call the input dangling (W010 error); the
#: knob demotes that to a warning.  At run time every unit resolves.
_FED_BY_PUSHERS = {"relaxed": True}


def _probe_block(inputs: List[str], **fields) -> dict:
    return _op(
        "aggregator", PROBE_OPERATOR, mode="ondemand",
        window_s=PROBE_WINDOW_S, inputs=inputs,
        outputs=["<bottomup>probe-avg"], params={"op": "mean"}, **fields,
    )


def _jobs(rng: random.Random, n_nodes: int, n_jobs: int) -> List[dict]:
    """Seeded app mix over equal FCFS blocks of the nodes (which app
    lands on which block is the seeded placement); every job runs for
    the whole experiment so the unit set stays constant.

    Node counts, not ``node_paths``: ``check --config`` only knows nodes
    that carry a sensor of their own, which perfevent-only nodes do not.
    """
    share = n_nodes // n_jobs
    sizes = [share] * (n_jobs - 1) + [n_nodes - share * (n_jobs - 1)]
    return [
        {"id": f"job{j}", "app": rng.choice(_APPS), "nodes": size,
         "start_s": 0, "end_s": 10**6}
        for j, size in enumerate(sizes)
    ]


def _ingest_fanin(seed: int, smoke: bool) -> Workload:
    sensors = 4 if smoke else 40
    spec = {
        "cluster": {"preset": "coolmuc3", "seed": seed},
        "monitoring": {
            "plugins": ["tester"], "tester_sensors": sensors,
            "interval_ms": 1000, "cache_window_s": 30,
        },
        "analytics": {
            "pushers": [],
            "agent": [_probe_block(["tester0000", "tester0001"])],
        },
    }
    return Workload(
        "ingest_fanin", spec, warm_s=WARM_S, ticks_per_second=18.0,
        probe_rounds=3, fresh_sensors=("tester0000",),
    )


_COUNTERS = ["cpu-cycles", "instructions", "cache-misses", "cache-references"]

#: Window lengths (s) of the chain stages, one row per chain variant:
#: a long- and a short-horizon peak per counter.
CHAIN_WINDOWS_S = ((10, 20, 30), (5, 15, 25))


def _inband_fused(seed: int, smoke: bool) -> Workload:
    cluster = {"nodes": 2 if smoke else 4, "cpus": 16 if smoke else 64,
               "seed": seed}
    pushers = []
    for v, (w_smooth, w_avg, w_peak) in enumerate(CHAIN_WINDOWS_S):
        for c, counter in enumerate(_COUNTERS):
            # Per cpu: smoother -> mean -> max, then the node's max over
            # its cpus.  Only that terminal is published; the per-cpu
            # intermediates stay private so the planner fuses all four.
            i = f"{c}{'ab'[v]}"
            private = {"publish_outputs": False}
            pushers += [
                _op("smoother", f"smooth{i}", window_s=w_smooth, **private,
                    inputs=[f"<bottomup>{counter}"],
                    outputs=[f"<bottomup>smooth{i}"]),
                _op("aggregator", f"avg{i}", window_s=w_avg, **private,
                    inputs=[f"<bottomup>smooth{i}"],
                    outputs=[f"<bottomup>avg{i}"], params={"op": "mean"}),
                _op("aggregator", f"peak{i}", window_s=w_peak, **private,
                    inputs=[f"<bottomup>avg{i}"],
                    outputs=[f"<bottomup>peak{i}"], params={"op": "max"}),
                _op("aggregator", f"node-peak{i}", window_s=0,
                    inputs=[f"<bottomup>peak{i}"],
                    outputs=[f"<bottomup-1>node-peak{i}"],
                    params={"op": "max"}),
            ]
    pushers.append(_op(
        "perfmetrics", "cpi", window_s=5,
        inputs=["<bottomup>cpu-cycles", "<bottomup>instructions"],
        outputs=["<bottomup>cpi"],
    ))
    pushers.append(_op(
        "aggregator", "node-instr", window_s=5,
        inputs=["<bottomup>instructions"],
        outputs=["<bottomup-1>node-instr"], params={"op": "sum"},
    ))
    rng = random.Random(seed)
    spec = {
        "cluster": cluster,
        "monitoring": {
            "plugins": ["perfevent"], "perfevent_counters": _COUNTERS,
            "interval_ms": 1000, "cache_window_s": 30,
        },
        "jobs": _jobs(rng, cluster["nodes"], 1),
        "analytics": {
            "pushers": pushers,
            "agent": [_probe_block(["cpi"], **_FED_BY_PUSHERS)],
        },
    }
    return Workload(
        "inband_fused", spec, warm_s=WARM_S, ticks_per_second=34.0,
        probe_rounds=3, fresh_sensors=("node-peak0a", "node-peak3b", "cpi"),
    )


def _agent_holistic(seed: int, smoke: bool) -> Workload:
    per_rack = 2 if smoke else 6
    cluster = {
        "racks": 4, "chassis_per_rack": 1, "nodes_per_chassis": per_rack,
        "cpus": 4 if smoke else 16, "seed": seed,
    }
    pushers = [_op(
        "perfmetrics", "cpi", window_s=5,
        inputs=["<bottomup>cpu-cycles", "<bottomup>instructions"],
        outputs=["<bottomup>cpi"],
    )]
    agent = [
        _op("persyst", "job-cpi", window_s=5, inputs=["<bottomup>cpi"],
            **_FED_BY_PUSHERS),
        _op("smoother", "cpi-smooth", window_s=20,
            inputs=["<bottomup>cpi"], outputs=["<bottomup>cpi-smooth"],
            **_FED_BY_PUSHERS),
        _op("aggregator", "instr-rate", window_s=10,
            inputs=["<bottomup>instructions"],
            outputs=["<bottomup>instr-rate"], params={"op": "rate"}),
        _op("aggregator", "cycles-rate", window_s=10,
            inputs=["<bottomup>cpu-cycles"],
            outputs=["<bottomup>cycles-rate"], params={"op": "rate"}),
        _op("aggregator", "node-cpi", window_s=10,
            inputs=["<bottomup>cpi"], outputs=["<bottomup-1>node-cpi"],
            params={"op": "mean"}, **_FED_BY_PUSHERS),
        _op("aggregator", "rack-power", window_s=0,
            inputs=["<bottomup-1>power"], outputs=["<topdown>rack-power"],
            params={"op": "sum"}),
        _op("health", "node-health", window_s=10,
            inputs=["temp", "power"], outputs=["<bottomup-1>healthy"],
            params={"bounds": {"temp": [None, 95.0],
                               "power": [None, 2000.0]}}),
        _probe_block(["cpi"], **_FED_BY_PUSHERS),
    ]
    rng = random.Random(seed)
    spec = {
        "cluster": cluster,
        "monitoring": {
            "plugins": ["sysfs", "perfevent"],
            "perfevent_counters": ["cpu-cycles", "instructions"],
            "interval_ms": 1000, "cache_window_s": 30,
        },
        "jobs": _jobs(rng, 4 * per_rack, 3),
        "analytics": {"pushers": pushers, "agent": agent},
    }
    return Workload(
        "agent_holistic", spec, warm_s=WARM_S, ticks_per_second=19.0,
        probe_rounds=3,
        fresh_sensors=("cpi-smooth", "node-cpi", "rack-power"),
    )


def _tiered_query_mix(seed: int, smoke: bool, storage_dir: str) -> Workload:
    rollup_after_s = 30
    spec = {
        "cluster": {"preset": "coolmuc3", "seed": seed},
        "monitoring": {
            # Even at smoke size the series buffers (4 KiB each) must
            # exceed flush_mb, or nothing ever reaches the segment tier.
            "plugins": ["tester"], "tester_sensors": 4 if smoke else 10,
            "interval_ms": 1000, "cache_window_s": 30,
        },
        "storage": {
            "tiers": "tiered", "dir": storage_dir,
            "flush_mb": 2, "flush_interval_s": 10,
            "rollups": {"after_s": rollup_after_s, "minute_after_s": 120},
        },
        "analytics": {
            "pushers": [],
            "agent": [_probe_block(["tester0000", "tester0001"])],
        },
    }
    return Workload(
        "tiered_query_mix", spec, warm_s=64, ticks_per_second=26.0,
        probe_rounds=5, fresh_sensors=("tester0000",),
        rollup_after_s=rollup_after_s,
    )


def make(
    name: str, seed: int, smoke: bool = False,
    storage_dir: Optional[str] = None,
) -> Workload:
    """Generate workload ``name`` for ``seed`` (``smoke`` ~ 1/10 size)."""
    if name == "ingest_fanin":
        return _ingest_fanin(seed, smoke)
    if name == "inband_fused":
        return _inband_fused(seed, smoke)
    if name == "agent_holistic":
        return _agent_holistic(seed, smoke)
    if name == "tiered_query_mix":
        if not storage_dir:
            raise ValueError("tiered_query_mix needs a storage_dir")
        return _tiered_query_mix(seed, smoke, storage_dir)
    raise ValueError(f"unknown workload {name!r} (expected one of {NAMES})")
