"""Tester monitoring plugin.

Reproduces the monitoring side of the paper's overhead study (Section
VI-A): "a tester plugin producing a total of 1000 monotonic sensors with
negligible overhead, so as to provide a reliable baseline".  Each sensor
is a counter incremented by one per sample.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.common.timeutil import NS_PER_SEC
from repro.dcdb.plugins.base import MonitoringPlugin
from repro.dcdb.sensor import Sensor


class TesterMonitoringPlugin(MonitoringPlugin):
    """Produces ``n_sensors`` monotonic counters under a component path.

    Args:
        component_topic: path under which the sensors live.
        n_sensors: number of counters (the paper uses 1000).
        interval_ns: sampling period (the paper uses 1 s).
        publish: whether readings go out over MQTT as well as into the
            local cache.
    """

    __test__ = False  # not a pytest test class despite the name

    @classmethod
    def for_node(cls, simulator, node_path, interval_ns, options):
        return cls(
            node_path, n_sensors=options.tester_sensors, interval_ns=interval_ns
        )

    @classmethod
    def static_sensors(cls, options):
        # Synthetic values: their unit stays unknown to the flow pass.
        return dict.fromkeys(cls.sensor_names(options.tester_sensors), "")

    @staticmethod
    def sensor_names(n_sensors: int) -> List[str]:
        return [f"tester{i:04d}" for i in range(n_sensors)]

    def __init__(
        self,
        component_topic: str,
        n_sensors: int = 1000,
        interval_ns: int = NS_PER_SEC,
        publish: bool = True,
    ) -> None:
        super().__init__("tester", interval_ns)
        if n_sensors <= 0:
            raise ValueError(f"n_sensors must be positive: {n_sensors}")
        base = component_topic.rstrip("/")
        self._counters = np.zeros(n_sensors, dtype=np.float64)
        for name in self.sensor_names(n_sensors):
            self._register(
                Sensor(
                    topic=f"{base}/{name}",
                    unit="#",
                    is_delta=True,
                    publish=publish,
                )
            )

    def sample(self, ts: int) -> np.ndarray:
        self._counters += 1
        return self._counters.copy()
