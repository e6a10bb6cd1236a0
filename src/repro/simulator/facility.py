"""Facility cooling substrate.

The paper's framing is *holistic* monitoring and analytics "from the
facility infrastructure down to the compute node level", with
infrastructure management (e.g. liquid cooling optimisation) as one of
the six ODA use-case classes.  This module provides the facility side:
a warm-water cooling loop serving the whole cluster.

Model (deliberately first-order, like the node thermal model):

- the *supply (inlet) temperature* relaxes toward the chiller setpoint
  plus a load-dependent offset — a loaded loop cannot quite hold its
  setpoint;
- node ambient temperatures follow the inlet temperature through
  :attr:`PowerModel.ambient_offset_c`, so facility decisions feed back
  into every node's thermal state (and hence Fig-8-style analyses);
- the *chiller power* needed to remove the IT heat load falls as the
  setpoint rises (warm-water cooling's efficiency argument): the
  coefficient of performance grows with setpoint.

The knob a Wintermute control operator can drive is
:meth:`CoolingSystem.set_setpoint`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.common.timeutil import NS_PER_SEC
from repro.dcdb.plugins.base import MonitoringPlugin
from repro.dcdb.sensor import Sensor


@dataclass(frozen=True)
class CoolingParams:
    """Constants of the cooling loop."""

    #: Default chiller setpoint (supply temperature target).
    setpoint_c: float = 40.0
    #: Allowed setpoint range for the control knob.
    setpoint_min_c: float = 30.0
    setpoint_max_c: float = 50.0
    #: Supply temperature rise per watt of IT load on the loop.
    load_c_per_w: float = 1.2e-4
    #: Thermal time constant of the loop.
    tau_s: float = 120.0
    #: COP model: cop = cop_base + cop_slope * (setpoint - 30C).
    cop_base: float = 3.0
    cop_slope: float = 0.25


class CoolingSystem:
    """Facility cooling loop coupled to a :class:`ClusterSimulator`.

    Args:
        simulator: the cluster whose nodes this loop serves.
        params: loop constants.
        nominal_ambient_c: the ambient the node models were built with;
            the loop drives node ambient as
            ``inlet - nominal_ambient`` offsets.
    """

    def __init__(
        self,
        simulator,
        params: CoolingParams = CoolingParams(),
        nominal_ambient_c: float = 40.0,
    ) -> None:
        self.sim = simulator
        self.params = params
        self.nominal_ambient_c = float(nominal_ambient_c)
        self.setpoint_c = params.setpoint_c
        self.inlet_temp_c = params.setpoint_c
        self.chiller_power_w = 0.0
        self.it_power_w = 0.0
        self._last_ts: int = -1
        self.setpoint_changes: List[Tuple[int, float]] = []

    # ------------------------------------------------------------------
    # Control knob
    # ------------------------------------------------------------------

    def set_setpoint(self, setpoint_c: float, ts: int = 0) -> float:
        """Adjust the chiller setpoint (clamped to the allowed range)."""
        p = self.params
        clamped = float(np.clip(setpoint_c, p.setpoint_min_c, p.setpoint_max_c))
        if clamped != self.setpoint_c:
            self.setpoint_changes.append((ts, clamped))
        self.setpoint_c = clamped
        return clamped

    # ------------------------------------------------------------------
    # Dynamics
    # ------------------------------------------------------------------

    def update(self, ts: int) -> None:
        """Advance the loop to ``ts`` and push ambients into the nodes.

        A ``ts`` before the last update raises ``ValueError`` and
        changes nothing."""
        if ts < self._last_ts:
            raise ValueError("cooling model time moved backwards")
        p = self.params
        power = self.sim.power
        self.it_power_w = float(power.power_w.sum())
        target = self.setpoint_c + p.load_c_per_w * self.it_power_w
        if self._last_ts < 0:
            self.inlet_temp_c = target
        else:
            dt_s = (ts - self._last_ts) / NS_PER_SEC
            alpha = 1.0 - np.exp(-dt_s / p.tau_s)
            self.inlet_temp_c += alpha * (target - self.inlet_temp_c)
        self._last_ts = ts
        cop = p.cop_base + p.cop_slope * (self.setpoint_c - 30.0)
        self.chiller_power_w = self.it_power_w / max(cop, 0.5)
        power.ambient_offset_c = self.inlet_temp_c - self.nominal_ambient_c

    @property
    def total_facility_power_w(self) -> float:
        """IT power plus the cooling power spent removing it."""
        return self.it_power_w + self.chiller_power_w


#: Sensors the facility plugin attaches to its component path, name ->
#: physical unit (the static analyzers' view), in the order it samples.
FACILITY_SENSOR_UNITS = {
    "inlet-temp": "C",
    "setpoint": "C",
    "chiller-power": "W",
    "it-power": "W",
}


class FacilityPlugin(MonitoringPlugin):
    """Monitoring plugin exposing the cooling loop as sensors.

    Publishes under a facility component path (default
    ``/facility/cooling``): ``inlet-temp``, ``setpoint``,
    ``chiller-power``, ``it-power`` — the out-of-band facility data of
    the paper's taxonomy.  Sampling also advances the loop dynamics.
    """

    def __init__(
        self,
        cooling: CoolingSystem,
        component_topic: str = "/facility/cooling",
        interval_ns: int = 10 * NS_PER_SEC,
    ) -> None:
        super().__init__("facility", interval_ns)
        self.cooling = cooling
        base = component_topic.rstrip("/")
        for name, unit in FACILITY_SENSOR_UNITS.items():
            self._register(Sensor(f"{base}/{name}", unit=unit))

    def sample(self, ts: int) -> np.ndarray:
        cooling = self.cooling
        cooling.update(ts)
        return np.array([
            cooling.inlet_temp_c, cooling.setpoint_c,
            cooling.chiller_power_w, cooling.it_power_w,
        ], dtype=np.float64)
