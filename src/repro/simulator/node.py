"""Node power, thermal and idle-time model, for every node at once.

Produces the node-level signals the paper's case studies consume: whole
node power at the power supply (Fig 6), inlet/node temperature and the
cumulative CPU idle time counter (Fig 8).  State is one array per
quantity with one entry per node.  Three effects matter for the
reproduction and are modelled explicitly:

- **Manufacturing variability**: each node draws a frozen efficiency
  factor from its own seed, so identical workloads yield slightly
  different power — the spread Fig 8's clusters rely on.
- **Unpredictable short spikes**: turbo bursts and electrical/sensor
  noise make power prediction imperfect at the top of the distribution,
  which is exactly the error structure Fig 6b reports.  They are drawn
  once per (stream, time bin) for all nodes, one value per node.
- **Thermal inertia**: temperature follows power through a first-order
  lag toward ``ambient + k * power``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.common.timeutil import NS_PER_SEC
from repro.simulator.workload import binned_uniform, value_noise


@dataclass(frozen=True)
class NodePowerParams:
    """Electrical and thermal constants of a node model.

    Defaults approximate a Xeon Phi 7210-F node: ~75 W idle, up to
    ~280 W under full vectorised load, temperatures in the high 40s to
    mid 50s Celsius (cf. Fig 8's axes).
    """

    idle_w: float = 75.0
    dynamic_w: float = 185.0
    turbo_w: float = 45.0
    turbo_probability: float = 0.06
    noise_w: float = 2.0
    ambient_c: float = 40.0
    c_per_watt: float = 0.065
    thermal_tau_s: float = 90.0


class PowerModel:
    """Electrical/thermal state of a set of nodes, one array entry each.

    Args:
        n_cores: cores per node (drives the idle-time counter scale).
        node_seeds: one frozen seed per node, for its efficiency factor.
        seed: the noise seed: turbo bursts and measurement noise are
            drawn once per time bin for all nodes.
        params: shared electrical constants.
        power_factor: per-node multiplicative power factor, all 1 by
            default.  It plants anomalies (Fig 8 discusses a node
            drawing ~20 % more power than peers with similar idle time;
            pass 1.2 for it) and may be changed while running.
    """

    def __init__(
        self,
        n_cores: int,
        node_seeds: Sequence[int],
        seed: int,
        params: NodePowerParams = NodePowerParams(),
        power_factor: Optional[Sequence[float]] = None,
    ) -> None:
        n = len(node_seeds)
        self.n_cores = int(n_cores)
        self.seed = int(seed)
        self.params = params
        self.power_factor = (
            np.ones(n) if power_factor is None else np.array(power_factor, float)
        )
        #: Frozen manufacturing-variability factors, ~N(1, 0.03).
        self.efficiency = np.array([
            np.clip(np.random.default_rng(s).normal(1.0, 0.03), 0.9, 1.1)
            for s in node_seeds
        ])
        #: Facility coupling: offset on the ambient (inlet) temperature
        #: of every node, set by the cooling model when one is attached.
        self.ambient_offset_c = 0.0
        # Mutable state, advanced by update():
        self.temperature_c = np.full(n, params.ambient_c + 5.0)
        self.energy_j = np.zeros(n)
        self.idle_time_s = np.zeros(n)
        self.power_w = params.idle_w * self.efficiency
        self._last_ts: int = -1

    # ------------------------------------------------------------------

    def instantaneous_power(self, t_s: float, activity) -> np.ndarray:
        """Every node's power draw at time ``t_s``.

        ``activity`` is each node's workload activity in [0, 1] (see
        ``AppInstance.node_activity``).  Adds turbo bursts and measurement
        noise on top of the deterministic idle + dynamic model.
        """
        p, n = self.params, len(self.efficiency)
        base = (p.idle_w + p.dynamic_w * activity) * self.efficiency
        # Turbo bursts: held for 1 s bins, only meaningful under load.
        roll = binned_uniform(self.seed, t_s, 1.0, n, stream=11)
        mag = binned_uniform(self.seed, t_s, 1.0, n, stream=12)
        turbo = (activity > 0.3) & (roll < p.turbo_probability)
        base = base + np.where(turbo, p.turbo_w * (0.4 + 0.6 * mag), 0.0)
        noise = p.noise_w * value_noise(self.seed, t_s, 0.5, n, stream=13)
        return np.maximum(0.0, (base + noise) * self.power_factor)

    def update(self, ts_ns: int, activity, mean_util) -> None:
        """Advance every node to ``ts_ns``.

        Integrates energy and idle time over the elapsed interval and
        relaxes temperature toward its power-driven target.  A
        timestamp before the last update raises ``ValueError`` and
        changes nothing.
        """
        if ts_ns < self._last_ts:
            raise ValueError(
                f"power model time moved backwards: {ts_ns} < {self._last_ts}"
            )
        p = self.params
        self.power_w = self.instantaneous_power(ts_ns / NS_PER_SEC, activity)
        target = p.ambient_c + self.ambient_offset_c + p.c_per_watt * self.power_w
        if self._last_ts < 0:
            self._last_ts = ts_ns
            self.temperature_c = target
            return
        dt_s = (ts_ns - self._last_ts) / NS_PER_SEC
        self._last_ts = ts_ns
        self.energy_j += self.power_w * dt_s
        self.idle_time_s += (1.0 - np.minimum(1.0, mean_util)) * self.n_cores * dt_s
        alpha = 1.0 - np.exp(-dt_s / p.thermal_tau_s)
        self.temperature_c += alpha * (target - self.temperature_c)
