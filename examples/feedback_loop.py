#!/usr/bin/env python3
"""Feedback loop: pipeline ending in a control operator (Section IV-d).

"This method allows us to implement feedback loops in an HPC system, via
control operators at the end of the pipeline that use processed data to
tune system knobs."

This example builds a three-stage in-band loop on one node:

1. ``smoother`` turns the noisy node temperature into a stable signal;
2. ``health`` checks the smoothed temperature against a threshold (with
   hysteresis) and publishes a boolean ``thermal-ok`` sensor;
3. a custom ``ThrottleOperator`` — written here against the public
   plugin API, exactly how a site would extend Wintermute — consumes
   ``thermal-ok`` and adjusts a frequency-cap knob, which feeds back
   into the simulated node's power model.

The script runs a hot workload, shows the throttle engaging when the
smoothed temperature crosses the limit, and the temperature recovering.

Run:  python examples/feedback_loop.py
"""

from repro.common.timeutil import NS_PER_SEC
from repro.core import OperatorManager
from repro.core.operator import OperatorBase, OperatorConfig
from repro.core.registry import operator_plugin
from repro.dcdb import Broker, CollectAgent, Pusher
from repro.dcdb.plugins import SysfsPlugin
from repro.simulator import ClusterSimulator, ClusterSpec
from repro.simulator.clock import TaskScheduler
from repro.simulator.scheduler import Job

TEMP_LIMIT_C = 53.0


@operator_plugin("throttle")
class ThrottleOperator(OperatorBase):
    """Control operator: maps a health flag to a frequency-cap knob.

    Demonstrates the extension API: subclass OperatorBase, implement
    ``compute_unit``, register under a plugin name.  The knob setter is
    injected through host context, the same mechanism job operators use
    to reach the scheduler.
    """

    def __init__(self, config: OperatorConfig, knob=None) -> None:
        super().__init__(config)
        self.knob = knob
        self.engaged = False

    def compute_unit(self, unit, ts):
        view = self.engine.latest(unit.inputs[0])
        healthy = view.values()[-1] >= 0.5
        # Engage the throttle while unhealthy; release when healthy.
        target = 0.6 if not healthy else 1.0
        if self.knob is not None:
            self.knob(target)
        self.engaged = not healthy
        return {s.name: target for s in unit.outputs}


def main() -> None:
    sim = ClusterSimulator(ClusterSpec.small(nodes=1, cpus=8), seed=4)
    scheduler = TaskScheduler()
    broker = Broker()
    node = sim.node_paths[0]

    pusher = Pusher(node, broker, scheduler)
    pusher.add_plugin(SysfsPlugin(sim, node))
    agent = CollectAgent("agent", broker, scheduler)

    # The "knob": scale the node's dynamic power (a stand-in for a CPU
    # frequency cap acting on the same model the sensors read).
    cap_history = []

    def set_power_cap(fraction: float) -> None:
        if not cap_history or cap_history[-1] != fraction:
            cap_history.append(fraction)
        sim.set_power_factor(node, fraction)

    manager = OperatorManager(context={"knob": set_power_cap})
    pusher.attach_analytics(manager)

    # Hot workload for the whole run.
    sim.scheduler.add_job(Job("hot", "hpl", (node,), NS_PER_SEC,
                              400 * NS_PER_SEC))

    manager.load_plugin(
        {
            "plugin": "smoother",
            "operators": {
                "temp-smooth": {
                    "interval_s": 1,
                    "window_s": 10,
                    "inputs": ["<bottomup>temp"],
                    "outputs": ["<bottomup>temp-smooth"],
                }
            },
        }
    )
    scheduler.run_until(3 * NS_PER_SEC)
    manager.load_plugin(
        {
            "plugin": "health",
            "operators": {
                "thermal": {
                    "interval_s": 1,
                    "window_s": 3,
                    "delay_s": 2,
                    "inputs": ["<bottomup>temp-smooth"],
                    "outputs": ["<bottomup>thermal-ok"],
                    "params": {
                        "bounds": {"temp-smooth": [None, TEMP_LIMIT_C]},
                        "trip_count": 3,
                    },
                }
            },
        }
    )
    scheduler.run_until(6 * NS_PER_SEC)
    manager.load_plugin(
        {
            "plugin": "throttle",
            "operators": {
                "freq-cap": {
                    "interval_s": 1,
                    "delay_s": 2,
                    "inputs": ["<bottomup>thermal-ok"],
                    "outputs": ["<bottomup>freq-cap"],
                }
            },
        }
    )

    print(f"thermal limit: {TEMP_LIMIT_C} C (smoothed), hot HPL workload\n")
    print("time   temp[C]  smoothed  thermal-ok  freq-cap")
    for step in range(0, 40):
        scheduler.run_until((7 + step * 10) * NS_PER_SEC)
        temp = pusher.cache_for(f"{node}/temp").latest()
        smooth_cache = pusher.cache_for(f"{node}/temp-smooth")
        ok_cache = pusher.cache_for(f"{node}/thermal-ok")
        cap_cache = pusher.cache_for(f"{node}/freq-cap")
        smooth = smooth_cache.latest().value if smooth_cache else float("nan")
        ok = ok_cache.latest().value if ok_cache and len(ok_cache) else 1.0
        cap = cap_cache.latest().value if cap_cache and len(cap_cache) else 1.0
        if step % 4 == 0:
            print(
                f"{temp.timestamp / NS_PER_SEC:5.0f}  {temp.value:7.2f}  "
                f"{smooth:8.2f}  {ok:10.0f}  {cap:8.1f}"
            )
    engaged = any(cap < 1.0 for cap in cap_history)
    print(f"\nknob transitions: {cap_history}")
    print(f"throttle engaged at least once: {'yes' if engaged else 'no'}")
    print(
        "loop closed: monitoring -> smoother -> health -> control "
        "operator -> power model -> monitoring"
    )


if __name__ == "__main__":
    main()
