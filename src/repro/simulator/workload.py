"""Phase-structured application workload models.

The paper's case studies run HPL and the CORAL-2 applications Kripke,
AMG, Nekbone and LAMMPS on Knights Landing nodes.  We reproduce the
*signal structure* Section VI reports for each application:

- **HPL**: steady, compute-bound, near-full utilisation (baseline for
  the overhead measurements of Fig 5).
- **LAMMPS**: low CPI around 1.6 with minimal spread (compute-bound).
- **AMG**: low CPI bulk, but heavy upper-decile spikes up to ~30 caused
  by network latency (network-bound).
- **Kripke**: clearly separable iterations — CPI rises and falls
  periodically across *all* deciles (network/memory-bound).
- **Nekbone**: compute-bound first half; in the second half ≥20 % of
  cores blow up to high CPI as the working set exceeds the 16 GB HBM.

Every profile produces *per-core rate* arrays (cycles/s, instructions/s,
cache misses/s, flops/s, network bytes/s, utilisation) as pure functions
of time relative to job start.  Temporal noise is *value noise*: random
values anchored at fixed time bins and linearly interpolated, generated
from hashed (instance seed, bin) keys.  Rates are therefore independent
of the sampling cadence, deterministic under a seed, and smooth.
Each bin's draw is memoised (a bounded LRU of read-only arrays): the
samplers ask for the same few bins tick after tick, and building a
generator costs more than its draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Optional, Type

import numpy as np

#: Nominal KNL core clock in cycles per second (1.3 GHz).
CORE_FREQ_HZ = 1.3e9

#: Cache line size used to convert miss rates into memory bandwidth.
CACHE_LINE_BYTES = 64


@dataclass
class CoreRates:
    """Instantaneous per-core rates of a running application.

    All array attributes have one entry per core.  ``net_bytes_per_s``
    is a node-level aggregate (a scalar), since the OPA fabric is shared
    by all cores of a node.
    """

    utilization: np.ndarray
    cpi: np.ndarray
    cycles_per_s: np.ndarray
    instr_per_s: np.ndarray
    cache_miss_per_s: np.ndarray
    cache_ref_per_s: np.ndarray
    flops_per_s: np.ndarray
    vector_ops_per_s: np.ndarray
    net_bytes_per_s: float

    @property
    def mem_bw_bytes_per_s(self) -> np.ndarray:
        """Per-core memory bandwidth implied by cache misses."""
        return self.cache_miss_per_s * CACHE_LINE_BYTES


#: Bin draws memoised.  About four per simulated node are live at once
#: (a 24-node facility thrashes below 128); a draw is one value per core.
BIN_MEMO_SIZE = 512


@lru_cache(maxsize=BIN_MEMO_SIZE)
def _bin_draw(seed: int, bin_index: int, n: int, normal: bool) -> np.ndarray:
    """The ``n`` standard-normal (or uniform[0,1)) values of one (seed,
    time bin), from a generator keyed by both; read-only, since the same
    array is handed to every caller."""
    mixed = (seed * 0x9E3779B97F4A7C15 + bin_index * 0xBF58476D1CE4E5B9) & (
        (1 << 63) - 1
    )
    rng = np.random.default_rng(mixed)
    draw = rng.standard_normal(n) if normal else rng.random(n)
    draw.flags.writeable = False
    return draw


def value_noise(
    seed: int, t_s: float, bin_s: float, n: int, stream: int = 0
) -> np.ndarray:
    """Smooth standard-normal noise: linear interpolation between values
    anchored at ``bin_s``-spaced grid points.

    Pure in ``(seed, t_s, stream)``: resampling at any cadence sees the
    same underlying signal.  The result is read-only.
    """
    pos = t_s / bin_s
    lo = int(np.floor(pos))
    frac = pos - lo
    a = _bin_draw(seed + 7919 * stream, lo, n, True)
    if frac == 0.0:  # on a grid point the upper bin weighs nothing
        return a
    b = _bin_draw(seed + 7919 * stream, lo + 1, n, True)
    out = a * (1.0 - frac) + b * frac
    out.flags.writeable = False
    return out


def binned_uniform(
    seed: int, t_s: float, bin_s: float, n: int, stream: int = 0
) -> np.ndarray:
    """Piecewise-constant uniform[0,1) noise held for each time bin.

    Used for event-like behaviour (spike schedules) where values should
    persist for a whole bin rather than interpolate.  The result is
    read-only.
    """
    lo = int(np.floor(t_s / bin_s))
    return _bin_draw(seed + 104729 * stream, lo, n, False)


class AppInstance:
    """One application running on one node's cores.

    Subclass instances freeze their random per-core parameters at
    construction; :meth:`rates` is then a pure function of elapsed time.
    """

    #: Relative node power intensity of the app in [0, 1].
    power_intensity: float = 0.9

    def __init__(self, n_cores: int, seed: int) -> None:
        self.n_cores = int(n_cores)
        self.seed = int(seed)
        self._rng = np.random.default_rng(seed)

    # -- to be provided by subclasses ----------------------------------

    def _cpi(self, t_s: float) -> np.ndarray:
        raise NotImplementedError

    def _utilization(self, t_s: float) -> np.ndarray:
        return np.full(self.n_cores, 0.97)

    def _net_bytes_per_s(self, t_s: float) -> float:
        return 0.0

    def _flop_fraction(self, t_s: float) -> float:
        """Fraction of instructions that are floating-point."""
        return 0.3

    def _vector_fraction(self, t_s: float) -> float:
        """Fraction of FP instructions that are vectorised."""
        return 0.5

    # -- common machinery ----------------------------------------------

    def activity(self, t_s: float) -> float:
        """Scalar activity in [0, 1] driving the node power model.

        Mean utilisation modulated by the app's power intensity; high-CPI
        (stalled) phases draw slightly less dynamic power.
        """
        cpi, util = self._cpi_utilization(t_s)
        stall_discount = np.clip(1.0 - 0.004 * (cpi - 1.0), 0.7, 1.0)
        return float(np.mean(util * stall_discount) * self.power_intensity)

    def _cpi_utilization(self, t_s: float):
        """Per-core CPI and utilisation, clamped to their ranges."""
        return (
            np.maximum(self._cpi(t_s), 0.25),
            np.clip(self._utilization(t_s), 0.0, 1.0),
        )

    def rates(self, t_s: float) -> CoreRates:
        """Per-core rates at elapsed job time ``t_s`` seconds."""
        cpi, util = self._cpi_utilization(t_s)
        cycles = CORE_FREQ_HZ * util
        instr = cycles / cpi
        # Memory-bound (high-CPI) phases miss more per instruction: map
        # CPI in [1, 30] to a miss ratio in [2e-3, 6e-2] of references.
        miss_ratio = np.clip(2e-3 + (cpi - 1.0) * 2e-3, 2e-3, 6e-2)
        refs = instr * 0.30  # ~30% of instructions touch memory
        misses = refs * miss_ratio
        flop_frac = self._flop_fraction(t_s)
        vec_frac = self._vector_fraction(t_s)
        flops = instr * flop_frac * (1.0 + 7.0 * vec_frac)  # AVX-512 width
        vec_ops = instr * flop_frac * vec_frac
        return CoreRates(
            utilization=util,
            cpi=cpi,
            cycles_per_s=cycles,
            instr_per_s=instr,
            cache_miss_per_s=misses,
            cache_ref_per_s=refs,
            flops_per_s=flops,
            vector_ops_per_s=vec_ops,
            net_bytes_per_s=self._net_bytes_per_s(t_s),
        )


class AppProfile:
    """Factory for :class:`AppInstance` objects of one application."""

    name: str = "app"
    instance_cls: Type[AppInstance] = AppInstance
    #: Nominal run length used by duration-aware profiles (seconds).
    nominal_duration_s: float = 600.0

    def make_instance(
        self, n_cores: int, seed: int, duration_s: Optional[float] = None
    ) -> AppInstance:
        """Instantiate the app on ``n_cores`` cores with a frozen seed.

        ``duration_s`` is the scheduled job length; duration-aware
        profiles (Nekbone's phase split) use it, others ignore it.
        """
        return self.instance_cls(n_cores, seed)


# ----------------------------------------------------------------------
# Idle
# ----------------------------------------------------------------------


class IdleInstance(AppInstance):
    """Background OS noise on an unallocated node."""

    power_intensity = 0.03

    def _cpi(self, t_s: float) -> np.ndarray:
        return 1.5 + 0.1 * value_noise(self.seed, t_s, 5.0, self.n_cores)

    def _utilization(self, t_s: float) -> np.ndarray:
        jitter = value_noise(self.seed, t_s, 3.0, self.n_cores, stream=1)
        # OS background activity never fully vanishes: keep a tiny floor.
        return np.clip(0.015 + 0.01 * jitter, 0.002, 0.1)

    def _flop_fraction(self, t_s: float) -> float:
        return 0.02


class IdleProfile(AppProfile):
    name = "idle"
    instance_cls = IdleInstance


# ----------------------------------------------------------------------
# HPL — steady compute-bound baseline
# ----------------------------------------------------------------------


class HplInstance(AppInstance):
    power_intensity = 1.0

    def _cpi(self, t_s: float) -> np.ndarray:
        base = 0.9 + 0.02 * value_noise(self.seed, t_s, 10.0, self.n_cores)
        return base

    def _utilization(self, t_s: float) -> np.ndarray:
        return np.full(self.n_cores, 0.99)

    def _flop_fraction(self, t_s: float) -> float:
        return 0.55

    def _vector_fraction(self, t_s: float) -> float:
        return 0.9

    def _net_bytes_per_s(self, t_s: float) -> float:
        return 2e8


class HplProfile(AppProfile):
    name = "hpl"
    instance_cls = HplInstance
    nominal_duration_s = 900.0


# ----------------------------------------------------------------------
# LAMMPS — low CPI (~1.6), tight spread
# ----------------------------------------------------------------------


class LammpsInstance(AppInstance):
    power_intensity = 0.95

    def __init__(self, n_cores: int, seed: int) -> None:
        super().__init__(n_cores, seed)
        # Frozen per-core offsets give a small, persistent spread.
        self._core_offset = self._rng.normal(0.0, 0.05, n_cores)

    def _cpi(self, t_s: float) -> np.ndarray:
        wobble = 0.06 * value_noise(self.seed, t_s, 8.0, self.n_cores)
        return 1.6 + self._core_offset + wobble

    def _utilization(self, t_s: float) -> np.ndarray:
        return np.full(self.n_cores, 0.98)

    def _flop_fraction(self, t_s: float) -> float:
        return 0.45

    def _vector_fraction(self, t_s: float) -> float:
        return 0.6

    def _net_bytes_per_s(self, t_s: float) -> float:
        return 5e8


class LammpsProfile(AppProfile):
    name = "lammps"
    instance_cls = LammpsInstance
    nominal_duration_s = 650.0


# ----------------------------------------------------------------------
# AMG — low bulk CPI with heavy upper-tail spikes (network-bound)
# ----------------------------------------------------------------------


class AmgInstance(AppInstance):
    power_intensity = 0.85

    #: Fraction of cores that may spike in any 5 s window.
    SPIKE_FRACTION = 0.12
    SPIKE_BIN_S = 5.0

    def __init__(self, n_cores: int, seed: int) -> None:
        super().__init__(n_cores, seed)
        self._core_offset = self._rng.normal(0.0, 0.25, n_cores)

    def _cpi(self, t_s: float) -> np.ndarray:
        base = 2.3 + self._core_offset
        base = base + 0.2 * value_noise(self.seed, t_s, 6.0, self.n_cores)
        # Spikes: in each window a random subset of cores stalls on
        # network latency, pushing CPI up to ~30.
        roll = binned_uniform(self.seed, t_s, self.SPIKE_BIN_S, self.n_cores, 2)
        magnitude = binned_uniform(
            self.seed, t_s, self.SPIKE_BIN_S, self.n_cores, 3
        )
        spiking = roll < self.SPIKE_FRACTION
        spike_cpi = 8.0 + 24.0 * magnitude
        return np.where(spiking, spike_cpi, base)

    def _utilization(self, t_s: float) -> np.ndarray:
        return np.full(self.n_cores, 0.95)

    def _flop_fraction(self, t_s: float) -> float:
        return 0.25

    def _vector_fraction(self, t_s: float) -> float:
        return 0.35

    def _net_bytes_per_s(self, t_s: float) -> float:
        burst = binned_uniform(self.seed, t_s, self.SPIKE_BIN_S, 1, 4)[0]
        return 3e9 * (0.6 + 0.8 * burst)


class AmgProfile(AppProfile):
    name = "amg"
    instance_cls = AmgInstance
    nominal_duration_s = 550.0


# ----------------------------------------------------------------------
# Kripke — separable iterations: periodic CPI swing across all deciles
# ----------------------------------------------------------------------


class KripkeInstance(AppInstance):
    power_intensity = 0.88

    #: Sweep-iteration period in seconds (Fig 7 shows ~10 iterations).
    ITERATION_S = 45.0

    def __init__(self, n_cores: int, seed: int) -> None:
        super().__init__(n_cores, seed)
        self._core_offset = self._rng.normal(0.0, 0.6, n_cores)
        self._phase = self._rng.random() * 0.1  # small start offset

    def _iteration_pos(self, t_s: float) -> float:
        """Position within the current iteration in [0, 1)."""
        return ((t_s / self.ITERATION_S) + self._phase) % 1.0

    def _cpi(self, t_s: float) -> np.ndarray:
        # Each iteration ramps communication pressure up then releases:
        # a raised-cosine bump repeated every iteration.
        pos = self._iteration_pos(t_s)
        bump = 0.5 * (1.0 - np.cos(2.0 * np.pi * pos))
        base = 4.0 + 9.0 * bump
        noise = 0.5 * value_noise(self.seed, t_s, 4.0, self.n_cores)
        return base + self._core_offset + noise

    def _utilization(self, t_s: float) -> np.ndarray:
        pos = self._iteration_pos(t_s)
        # Brief dip at iteration boundaries (synchronisation).
        dip = 0.15 if pos > 0.92 else 0.0
        return np.full(self.n_cores, 0.93 - dip)

    def _flop_fraction(self, t_s: float) -> float:
        return 0.3

    def _vector_fraction(self, t_s: float) -> float:
        return 0.45

    def _net_bytes_per_s(self, t_s: float) -> float:
        pos = self._iteration_pos(t_s)
        return 2.5e9 * (0.3 + 0.7 * (1.0 - np.cos(2.0 * np.pi * pos)) / 2.0)


class KripkeProfile(AppProfile):
    name = "kripke"
    instance_cls = KripkeInstance
    nominal_duration_s = 470.0


# ----------------------------------------------------------------------
# Nekbone — compute-bound, then memory-limited blow-up past HBM capacity
# ----------------------------------------------------------------------


class NekboneInstance(AppInstance):
    power_intensity = 0.9

    #: Fraction of run time before the working set exceeds the 16 GB HBM.
    PHASE_SPLIT = 0.5
    #: Fraction of cores that become memory-limited in phase 2.
    AFFECTED_FRACTION = 0.25

    def __init__(
        self, n_cores: int, seed: int, duration_s: float = 800.0
    ) -> None:
        super().__init__(n_cores, seed)
        self.duration_s = float(duration_s)
        self._core_offset = self._rng.normal(0.0, 0.15, n_cores)
        n_affected = max(1, int(round(self.AFFECTED_FRACTION * n_cores)))
        affected = self._rng.choice(n_cores, size=n_affected, replace=False)
        self._affected_mask = np.zeros(n_cores, dtype=bool)
        self._affected_mask[affected] = True

    def _cpi(self, t_s: float) -> np.ndarray:
        base = 2.0 + self._core_offset
        base = base + 0.1 * value_noise(self.seed, t_s, 6.0, self.n_cores)
        split = self.PHASE_SPLIT * self.duration_s
        if t_s <= split:
            return base
        # Problem sizes grow through the batch: the blow-up intensifies
        # over the second half of the run.
        progress = min(1.0, (t_s - split) / max(1.0, self.duration_s - split))
        surge = binned_uniform(self.seed, t_s, 10.0, self.n_cores, 5)
        blowup = 4.0 + (10.0 + 26.0 * progress) * surge
        return np.where(self._affected_mask, base + blowup * progress, base)

    def _utilization(self, t_s: float) -> np.ndarray:
        return np.full(self.n_cores, 0.96)

    def _flop_fraction(self, t_s: float) -> float:
        return 0.5

    def _vector_fraction(self, t_s: float) -> float:
        return 0.7

    def _net_bytes_per_s(self, t_s: float) -> float:
        return 8e8


class NekboneProfile(AppProfile):
    name = "nekbone"
    instance_cls = NekboneInstance
    nominal_duration_s = 800.0

    def make_instance(
        self, n_cores: int, seed: int, duration_s: Optional[float] = None
    ) -> NekboneInstance:
        return NekboneInstance(
            n_cores,
            seed,
            duration_s=duration_s if duration_s else self.nominal_duration_s,
        )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

APP_PROFILES: Dict[str, AppProfile] = {
    p.name: p
    for p in (
        IdleProfile(),
        HplProfile(),
        LammpsProfile(),
        AmgProfile(),
        KripkeProfile(),
        NekboneProfile(),
    )
}


def profile_by_name(name: str) -> AppProfile:
    """Look up a registered application profile by name."""
    try:
        return APP_PROFILES[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown application profile {name!r}; "
            f"known: {sorted(APP_PROFILES)}"
        ) from None
