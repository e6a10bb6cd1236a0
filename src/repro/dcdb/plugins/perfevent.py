"""Perfevent monitoring plugin (synthetic).

Mirrors DCDB's perfevent plugin: per-CPU hardware counters (cycles,
instructions, cache misses/references, flops, vector ops) sampled as
monotonic values.  Readings come from the cluster simulator, which plays
the role of the kernel perf interface.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.common.timeutil import NS_PER_SEC
from repro.dcdb.plugins.base import MonitoringPlugin
from repro.dcdb.sensor import Sensor
from repro.simulator.engine import CPU_COUNTERS, ClusterSimulator


class PerfeventPlugin(MonitoringPlugin):
    """Per-CPU counter sampling for one compute node.

    Args:
        simulator: the hardware stand-in.
        node_path: which node's CPUs to sample.
        counters: subset of :data:`CPU_COUNTERS` to expose (all by
            default).
        interval_ns: sampling period.
    """

    SENSOR_UNITS = dict.fromkeys(CPU_COUNTERS, "#")
    PER_CPU = True

    @classmethod
    def for_node(cls, simulator, node_path, interval_ns, options):
        return cls(
            simulator, node_path, interval_ns=interval_ns,
            counters=list(cls.static_sensors(options)),
        )

    @classmethod
    def static_sensors(cls, options):
        chosen = options.perfevent_counters
        return cls.SENSOR_UNITS if chosen is None else dict.fromkeys(chosen, "#")

    def __init__(
        self,
        simulator: ClusterSimulator,
        node_path: str,
        counters: Sequence[str] = CPU_COUNTERS,
        interval_ns: int = NS_PER_SEC,
    ) -> None:
        super().__init__("perfevent", interval_ns)
        unknown = set(counters) - set(CPU_COUNTERS)
        if unknown:
            raise ValueError(f"unknown perfevent counters: {sorted(unknown)}")
        self._sim = simulator
        self._row = simulator.row(node_path)
        # The sensors are cpu-major: flat positions in the node's
        # cpus x counters matrix, read in that order.
        cols = [CPU_COUNTERS.index(name) for name in counters]
        self._flat = (
            np.arange(simulator.spec.cpus_per_node)[:, None] * len(CPU_COUNTERS)
            + np.array(cols, dtype=np.intp)
        ).ravel()
        for cpu in range(simulator.spec.cpus_per_node):
            for counter in counters:
                self._register(
                    Sensor(
                        topic=f"{node_path}/cpu{cpu:02d}/{counter}",
                        unit="#",
                        is_delta=True,
                    )
                )

    def sample(self, ts: int) -> np.ndarray:
        self._sim.advance(ts)
        return self._sim.counters[self._row].take(self._flat)
