"""Chaos benchmark — outage injection, store-and-forward recovery.

Resilience is what separates an operational data pipeline from a demo:
DCDB's Pushers must survive management-network outages without losing
telemetry, and Wintermute operators must not melt down when one unit's
computation keeps failing.  This bench injects both fault classes and
measures the recovery envelope:

- **Outage & recovery**: the MQTT link goes down mid-run; refused
  publishes land in each Pusher's spill queue and are replayed with
  exponential backoff once the link returns.  Reported: data loss
  (must be zero while the outage fits the spill capacity), link
  refusals, spill counters, and time-to-recover (first second after
  the outage with every spill queue drained — must be bounded by the
  retry backoff ceiling).
- **Circuit breaking**: a tester operator with injected per-unit
  failures trips its breaker, is quarantined (stops consuming compute
  passes), probes with backoff, and recovers once the failure clears —
  observed through the REST breaker endpoint and the telemetry gauge.

Run standalone (``python benchmarks/bench_fault_recovery.py [--smoke]``)
or under pytest.
"""

from __future__ import annotations

import sys
from pathlib import Path

if __package__ in (None, ""):  # script invocation: make repo-root imports work
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import pytest

from benchmarks.harness import (
    print_header,
    print_table,
    shape_check,
    write_bench_artifact,
)
from repro.common.timeutil import NS_PER_SEC
from repro.deploy import build_deployment

OUTAGE_START_S = 10


def _spec(run_s: int, outage_end_s: int) -> dict:
    return {
        "cluster": {"nodes": 2, "cpus": 2, "seed": 0xFA11},
        "monitoring": {"plugins": ["sysfs"], "interval_ms": 1000},
        "network": {
            # Constant latency: FIFO delivery, so a full in-order replay
            # can reach zero loss.  Jitter-induced reordering loss is the
            # subject of the out-of-order property tests, not this bench.
            "latency_ms": 5,
            "seed": 7,
            "outages": [{"start_s": OUTAGE_START_S, "end_s": outage_end_s}],
            "spill": {
                "capacity": 100_000,
                "retry_base_ms": 200,
                "retry_max_ms": 3000,
                "seed": 1,
            },
            "ingest": {"queue_capacity": 100_000},
        },
        "analytics": {
            "pushers": [
                {
                    "plugin": "smoother",
                    "operators": {
                        "sm": {
                            "interval_s": 1,
                            "window_s": 5,
                            "inputs": ["<bottomup>power"],
                            "outputs": ["<bottomup>power-smooth"],
                        }
                    },
                }
            ]
        },
    }


def _published_topics(dep):
    """(pusher, topic) pairs for every published sensor with traffic."""
    pairs = []
    for pusher in dep.pushers.values():
        for topic, sensor in sorted(pusher.sensors.items()):
            if sensor.publish and pusher.cache_for(topic) is not None:
                pairs.append((pusher, topic))
    return pairs


def run_outage_recovery(run_s: int, outage_end_s: int) -> dict:
    """Outage → spill → replay; measure loss and time-to-recover."""
    dep = build_deployment(_spec(run_s, outage_end_s))
    dep.run(outage_end_s)
    spilled_peak = sum(p.spill_depth for p in dep.pushers.values())

    # Time-to-recover: first whole second after the outage at which
    # every spill queue has drained.
    recover_s = None
    for t in range(outage_end_s + 1, run_s + 1):
        dep.run(1)
        if all(p.spill_depth == 0 for p in dep.pushers.values()):
            recover_s = t - outage_end_s
            break
    if recover_s is not None:
        dep.scheduler.run_until(run_s * NS_PER_SEC)
    # Let in-flight deliveries land and the agent drain them.
    dep.run(3)
    dep.agent.flush()

    # Compare only readings inside the run horizon: samples taken during
    # the drain margin are still in flight and are not losses.
    horizon_ns = run_s * NS_PER_SEC
    expected = stored = 0
    per_topic_loss = {}
    for pusher, topic in _published_topics(dep):
        local_ts = pusher.cache_for(topic).view_absolute(0, horizon_ns)
        ts, _ = dep.agent.storage.query(topic, 0, horizon_ns)
        loss = len(local_ts) - len(ts)
        expected += len(local_ts)
        stored += len(ts)
        if loss:
            per_topic_loss[topic] = loss
    state = dep.link.link_state()
    return {
        "run_s": run_s,
        "outage_s": outage_end_s - OUTAGE_START_S,
        "expected_readings": expected,
        "stored_readings": stored,
        "lost_readings": expected - stored,
        "per_topic_loss": per_topic_loss,
        "spilled_peak": spilled_peak,
        "recover_s": recover_s,
        "link_refused": state["refused"],
        "spill_buffered": sum(
            p._m_spill_buffered.value for p in dep.pushers.values()
        ),
        "spill_replayed": sum(
            p._m_spill_replayed.value for p in dep.pushers.values()
        ),
        "spill_dropped": sum(
            p._m_spill_dropped.value for p in dep.pushers.values()
        ),
        "ingest_dropped": dep.agent.ingest_dropped,
    }


def run_breaker(run_s: int) -> dict:
    """Failing unit → quarantine → probe → recovery, via the real stack."""
    spec = {
        "cluster": {"nodes": 1, "cpus": 2, "seed": 0xB4EA},
        "monitoring": {"plugins": ["sysfs"], "interval_ms": 1000},
        "analytics": {
            "pushers": [
                {
                    "plugin": "tester",
                    "operators": {
                        "t0": {
                            "interval_s": 1,
                            "inputs": ["<bottomup>power"],
                            "outputs": ["<bottomup>probe"],
                            "breaker_threshold": 2,
                            "breaker_cooldown": 2,
                            "breaker_max_cooldown": 4,
                            "params": {
                                "queries": 1,
                                "fail_filter": "node00",
                                "fail_passes": 4,
                            },
                        }
                    },
                }
            ]
        },
    }
    dep = build_deployment(spec)
    node = dep.sim.node_paths[0]
    pusher = dep.pushers[node]
    op = dep.managers[node].operator("t0")

    quarantine_seen = False
    timeline = []
    for t in range(1, run_s + 1):
        dep.run(1)
        quarantined = op.quarantined_units()
        if quarantined:
            quarantine_seen = True
        timeline.append((t, len(quarantined), op.error_count))

    # REST observability: breaker endpoint + telemetry gauge.
    rest = pusher.rest.get(f"/analytics/units/t0{node}/breaker")
    metrics = pusher.rest.get("/metrics", format="prometheus")
    gauge_line = next(
        (
            line
            for line in metrics.body["exposition"].splitlines()
            if line.startswith("operator_quarantined_units")
        ),
        "",
    )
    snap = rest.body
    stats = op.stats()
    return {
        "unit": node,
        "quarantine_seen": quarantine_seen,
        "final_state": snap["state"],
        "trips": snap["trips"],
        "probes": snap["probes"],
        "recoveries": snap["recoveries"],
        "errors": stats["errors"],
        "computes": stats["computes"],
        "quarantined_now": stats["quarantined"],
        "gauge_line": gauge_line,
        "rest_status": rest.status,
    }


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="short run for CI (same scenario, smaller horizon)",
    )
    args = parser.parse_args(argv)
    run_s, outage_end_s = (45, 22) if args.smoke else (120, 40)

    print_header("Chaos - outage, store-and-forward, time-to-recover")
    outage = run_outage_recovery(run_s, outage_end_s)
    print_table(
        ["outage [s]", "expected", "stored", "lost", "peak spill",
         "recover [s]"],
        [(
            outage["outage_s"], outage["expected_readings"],
            outage["stored_readings"], outage["lost_readings"],
            outage["spilled_peak"], outage["recover_s"],
        )],
    )
    ok = shape_check(
        "zero data loss for an outage within spill capacity",
        outage["lost_readings"] == 0,
        f"{outage['lost_readings']} lost of {outage['expected_readings']}",
    )
    ok &= shape_check(
        "bounded time-to-recover (retry ceiling 3s + drain)",
        outage["recover_s"] is not None and outage["recover_s"] <= 5,
        f"{outage['recover_s']}s",
    )
    ok &= shape_check(
        "spill fully replayed, nothing dropped",
        outage["spill_replayed"] == outage["spill_buffered"]
        and outage["spill_dropped"] == 0,
        f"{outage['spill_replayed']}/{outage['spill_buffered']} replayed",
    )

    print_header("Chaos - circuit breaker quarantine and recovery")
    breaker = run_breaker(max(20, run_s // 3))
    print_table(
        ["state", "trips", "probes", "recoveries", "errors", "computes"],
        [(
            breaker["final_state"], breaker["trips"], breaker["probes"],
            breaker["recoveries"], breaker["errors"], breaker["computes"],
        )],
    )
    ok &= shape_check(
        "failing unit was quarantined, then recovered",
        breaker["quarantine_seen"]
        and breaker["final_state"] == "closed"
        and breaker["recoveries"] >= 1,
        f"trips={breaker['trips']} recoveries={breaker['recoveries']}",
    )
    ok &= shape_check(
        "quarantine saved compute passes (errors < passes)",
        breaker["errors"] < breaker["computes"],
        f"{breaker['errors']} errors over {breaker['computes']} passes",
    )
    ok &= shape_check(
        "breaker observable over REST and /metrics",
        breaker["rest_status"] == 200
        and breaker["gauge_line"].startswith("operator_quarantined_units"),
        breaker["gauge_line"],
    )

    write_bench_artifact(
        "fault_recovery",
        {"outage": outage, "breaker": breaker},
    )
    return 0 if ok else 1


class TestFaultRecoveryBench:
    def test_outage_zero_loss_and_bounded_recovery(self, benchmark):
        print_header("Chaos - outage recovery (pytest)")
        r = run_outage_recovery(45, 22)
        assert r["lost_readings"] == 0, r
        assert r["recover_s"] is not None and r["recover_s"] <= 5
        assert r["spill_dropped"] == 0
        benchmark(lambda: None)

    def test_breaker_quarantine_recovery(self, benchmark):
        r = run_breaker(20)
        assert r["quarantine_seen"]
        assert r["final_state"] == "closed" and r["recoveries"] >= 1
        assert r["errors"] < r["computes"]
        benchmark(lambda: None)


if __name__ == "__main__":
    sys.exit(main())
