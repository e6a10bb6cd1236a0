"""SysFS monitoring plugin (synthetic).

Mirrors DCDB's sysfs plugin on node-level hardware sensors: whole-node
power at the power supply, node temperature, cumulative energy and core
frequency.  These are the signals the power-prediction (Fig 6) and
clustering (Fig 8) case studies consume.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from repro.common.timeutil import NS_PER_SEC
from repro.dcdb.plugins.base import MonitoringPlugin, PluginSample
from repro.dcdb.sensor import Sensor
from repro.simulator.engine import ClusterSimulator

_SENSORS: Tuple[Tuple[str, str, bool], ...] = (
    # (name, unit, is_delta)
    ("power", "W", False),
    ("temp", "C", False),
    ("energy", "J", True),
    ("freq", "Hz", False),
)


class SysfsPlugin(MonitoringPlugin):
    """Node-level electrical/thermal sampling for one compute node."""

    SENSOR_UNITS = {name: unit for name, unit, _ in _SENSORS}

    def __init__(
        self,
        simulator: ClusterSimulator,
        node_path: str,
        interval_ns: int = NS_PER_SEC,
    ) -> None:
        super().__init__("sysfs", interval_ns)
        self._sim = simulator
        self._node_path = node_path
        self._bindings: List[Tuple[str, Sensor]] = []
        for name, unit, is_delta in _SENSORS:
            sensor = self._register(
                Sensor(topic=f"{node_path}/{name}", unit=unit, is_delta=is_delta)
            )
            self._bindings.append((name, sensor))

    def sample(self, ts: int) -> Iterable[PluginSample]:
        for name, sensor in self._bindings:
            yield PluginSample(
                sensor, self._sim.read_node(self._node_path, name, ts)
            )
