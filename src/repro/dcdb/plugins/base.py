"""Monitoring plugin interface.

A monitoring plugin declares the sensors it produces and implements one
``sample`` call invoked by the Pusher at the plugin's interval.  Plugins
are bound to a *component* (a node path) at construction, and their
sensor topics live under that component — exactly how DCDB's plugin
configuration attaches e.g. a perfevent group to each CPU.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Sequence

from repro.common.timeutil import NS_PER_SEC
from repro.dcdb.sensor import Sensor


class PluginSample(NamedTuple):
    """One sampled value paired with its sensor."""

    sensor: Sensor
    value: float


class MonitoringPlugin:
    """Base class for Pusher monitoring plugins.

    Args:
        name: plugin name (used in task names and the REST API).
        interval_ns: sampling period.  The paper's production setup runs
            most plugins at 1 s; the power-prediction case study samples
            at 250 ms.
    """

    #: Static sensor table: name -> physical unit ("" = unknown) of the
    #: sensors the plugin attaches to a node, or — with ``PER_CPU`` — to
    #: each of its CPUs.  What the static analyzers know of a plugin.
    SENSOR_UNITS: Dict[str, str] = {}
    PER_CPU = False

    @classmethod
    def for_node(cls, simulator, node_path: str, interval_ns: int, options):
        """The instance a deployment attaches to one node's Pusher;
        ``options`` is the spec's ``monitoring`` view."""
        return cls(simulator, node_path, interval_ns=interval_ns)

    @classmethod
    def static_sensors(cls, options) -> Dict[str, str]:
        """``SENSOR_UNITS`` under the given ``monitoring`` options."""
        return cls.SENSOR_UNITS

    def __init__(self, name: str, interval_ns: int = NS_PER_SEC) -> None:
        if interval_ns <= 0:
            raise ValueError(f"sampling interval must be positive: {interval_ns}")
        self.name = name
        self.interval_ns = int(interval_ns)
        self._sensors: List[Sensor] = []

    def _register(self, sensor: Sensor) -> Sensor:
        """Record a produced sensor; subclasses call this in __init__."""
        self._sensors.append(sensor)
        return sensor

    def sensors(self) -> Sequence[Sensor]:
        """All sensors this plugin produces."""
        return tuple(self._sensors)

    def sample(self, ts: int) -> Iterable[PluginSample]:
        """Produce one reading per sensor at time ``ts``."""
        raise NotImplementedError
