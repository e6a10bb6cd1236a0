"""Omni-Path (OPA) monitoring plugin (synthetic).

Mirrors DCDB's opa plugin: per-node fabric port counters (transmitted
and received bytes), monotonic like the real port counters.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from repro.common.timeutil import NS_PER_SEC
from repro.dcdb.plugins.base import MonitoringPlugin, PluginSample
from repro.dcdb.sensor import Sensor
from repro.simulator.engine import ClusterSimulator

_SENSORS: Tuple[Tuple[str, str], ...] = (
    ("xmit-bytes", "B"),
    ("rcv-bytes", "B"),
)


class OpaPlugin(MonitoringPlugin):
    """Fabric counter sampling for one compute node."""

    SENSOR_UNITS = dict(_SENSORS)

    def __init__(
        self,
        simulator: ClusterSimulator,
        node_path: str,
        interval_ns: int = NS_PER_SEC,
    ) -> None:
        super().__init__("opa", interval_ns)
        self._sim = simulator
        self._node_path = node_path
        self._bindings: List[Tuple[str, Sensor]] = []
        for name, unit in _SENSORS:
            sensor = self._register(
                Sensor(topic=f"{node_path}/{name}", unit=unit, is_delta=True)
            )
            self._bindings.append((name, sensor))

    def sample(self, ts: int) -> Iterable[PluginSample]:
        for name, sensor in self._bindings:
            yield PluginSample(
                sensor, self._sim.read_node(self._node_path, name, ts)
            )
