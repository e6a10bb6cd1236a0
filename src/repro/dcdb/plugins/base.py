"""Monitoring plugin interface.

A monitoring plugin declares the sensors it produces and implements one
``sample`` call invoked by the Pusher at the plugin's interval.  Plugins
are bound to a *component* (a node path) at construction, and their
sensor topics live under that component — exactly how DCDB's plugin
configuration attaches e.g. a perfevent group to each CPU.

The contract: ``sensors()`` is a fixed tuple, and ``sample(ts)`` reads
the whole group at once and returns a fresh float64 array aligned with
it — one value per sensor, in ``sensors()`` order.  A pass is all or
nothing: a plugin that raises stores nothing for that pass.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.common.timeutil import NS_PER_SEC
from repro.dcdb.sensor import Sensor


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

    def sample(self, ts: int) -> np.ndarray:
        """One float64 value per sensor at time ``ts``, in ``sensors()``
        order, in an array no other pass shares."""
        raise NotImplementedError


class NodePlugin(MonitoringPlugin):
    """A plugin of node-level sensors, read as its node's columns of the
    simulator's sensor matrix: ``SENSORS`` is its table of ``(name,
    unit, is_delta)``, ``NAME`` the plugin's name."""

    NAME = ""
    SENSORS: Tuple[Tuple[str, str, bool], ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.SENSOR_UNITS = {name: unit for name, unit, _ in cls.SENSORS}

    def __init__(self, simulator, node_path: str, interval_ns: int = NS_PER_SEC) -> None:
        super().__init__(self.NAME, interval_ns)
        self._sim = simulator
        self._row = simulator.row(node_path)
        self._cols = simulator.node_columns([name for name, _, _ in self.SENSORS])
        for name, unit, is_delta in self.SENSORS:
            self._register(
                Sensor(topic=f"{node_path}/{name}", unit=unit, is_delta=is_delta)
            )

    def sample(self, ts: int) -> np.ndarray:
        self._sim.advance(ts)
        return self._sim.node_values[self._row, self._cols]
