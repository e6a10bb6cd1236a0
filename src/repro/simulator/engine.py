"""The cluster simulation engine.

:class:`ClusterSimulator` ties together topology, the nodes' power
model, application workload instances and the job scheduler.  Monitoring
plugins (``repro.dcdb.plugins``) read from it the same way DCDB's
perfevent/sysfs/procfs/opa plugins read from hardware interfaces.

The cluster has one state and one clock.  The first read at a timestamp
brings every node there in one step (:meth:`ClusterSimulator.advance`),
integrating the workload's midpoint rates over the elapsed interval; a
repeat read at the same timestamp costs nothing.  Nodes are grouped by
the job they run: each running job is one :class:`AppInstance` over all
its nodes' cores, idle nodes read their rows of one cluster-wide idle
instance, so noise is drawn per job and per cluster, never per node.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.common.rng import derive_seed
from repro.common.timeutil import NS_PER_SEC
from repro.simulator.cluster import ClusterSpec, ClusterTopology
from repro.simulator.node import NodePowerParams, PowerModel
from repro.simulator.scheduler import JobScheduler
from repro.simulator.workload import IdleProfile, profile_by_name

#: Column layout of the per-core counter matrix.
CPU_COUNTERS = (
    "cpu-cycles",
    "instructions",
    "cache-misses",
    "cache-references",
    "flops",
    "vector-ops",
)
_COUNTER_INDEX = {name: i for i, name in enumerate(CPU_COUNTERS)}

#: Column layout of the per-node sensor matrix: instantaneous gauges,
#: then monotonic counters.
NODE_SENSORS = (
    "power", "temp", "memfree", "freq",
    "energy", "idle-time", "xmit-bytes", "rcv-bytes",
)
_NODE_INDEX = {name: i for i, name in enumerate(NODE_SENSORS)}


class ClusterSimulator:
    """Synthetic cluster producing hardware-like sensor values.

    State is per-node arrays: ``counters`` (nodes x cpus x
    :data:`CPU_COUNTERS`), ``node_values`` (nodes x :data:`NODE_SENSORS`)
    and ``power`` (the :class:`PowerModel`), all as of :attr:`now`.

    Args:
        spec: cluster shape; defaults to the CooLMUC-3-like layout.
        seed: master seed; every job, idle and power stream derives
            from it.
        scheduler: optional externally built job table.  When omitted an
            empty one over the topology's nodes is created.
        anomalies: mapping of node path -> power multiplier used to
            plant anomalous nodes (Fig 8's +20 % power outlier).
        power_params: shared node electrical constants.
    """

    def __init__(
        self,
        spec: Optional[ClusterSpec] = None,
        seed: int = 0xDCDB,
        scheduler: Optional[JobScheduler] = None,
        anomalies: Optional[Dict[str, float]] = None,
        power_params: NodePowerParams = NodePowerParams(),
    ) -> None:
        self.spec = spec if spec is not None else ClusterSpec()
        self.topology = ClusterTopology(self.spec)
        self.seed = int(seed)
        self.scheduler = scheduler or JobScheduler(self.topology.node_paths)
        anomalies = anomalies or {}
        paths = self.topology.node_paths
        n, cpus = len(paths), self.spec.cpus_per_node
        self.power = PowerModel(
            cpus,
            [derive_seed(self.seed, f"node:{path}") for path in paths],
            derive_seed(self.seed, "power"),
            params=power_params,
            power_factor=[anomalies.get(path, 1.0) for path in paths],
        )
        self.counters = np.zeros((n, cpus, len(CPU_COUNTERS)))
        self.node_values = np.zeros((n, len(NODE_SENSORS)))
        self._net = np.zeros((n, 2))  # xmit, rcv bytes
        self._idle = IdleProfile().make_instance(
            n * cpus, derive_seed(self.seed, "idle")
        )
        #: Timestamp every node is at; -1 before the first read.
        self.now = -1
        # (rows, instance, start_ts, instance rows to read) per group.
        self._groups: list = []
        self._job_of_row: List[Optional[str]] = [None] * n
        self._regroup_at = -1
        self._revision = -1

    # ------------------------------------------------------------------
    # Advancement
    # ------------------------------------------------------------------

    def _regroup(self, ts: int) -> None:
        """Group the nodes by the job running on them at ``ts``."""
        n, cpus = self.counters.shape[:2]
        self._job_of_row = [None] * n
        groups = []
        for job in self.scheduler.running_jobs(ts):
            inst = profile_by_name(job.app_name).make_instance(
                len(job.node_paths) * cpus,
                derive_seed(self.seed, f"job:{job.job_id}"),
                duration_s=(job.end_ts - job.start_ts) / NS_PER_SEC,
            )
            rows = np.array([self.row(path) for path in job.node_paths])
            for r in rows:
                self._job_of_row[r] = job.job_id
            groups.append((rows, inst, job.start_ts, slice(None)))
        idle = np.array(
            [r for r, job in enumerate(self._job_of_row) if job is None], int
        )
        if idle.size:
            groups.append((idle, self._idle, 0, idle))
        self._groups = groups
        self._regroup_at = min(
            (t for job in self.scheduler.all_jobs()
             for t in (job.start_ts, job.end_ts) if t > ts),
            default=float("inf"),
        )
        self._revision = self.scheduler.revision

    def advance(self, ts: int) -> None:
        """Bring every node's counters and sensors up to time ``ts``.

        A read at :attr:`now` draws nothing; an earlier ``ts`` raises
        ``ValueError``.
        """
        if ts == self.now:
            return
        if ts < self.now:
            raise ValueError(f"simulator sampled backwards: {ts} < {self.now}")
        if ts >= self._regroup_at or self.scheduler.revision != self._revision:
            self._regroup(ts)
        dt_s = 0.0 if self.now < 0 else (ts - self.now) / NS_PER_SEC
        n, cpus = self.counters.shape[:2]
        activity, mean_util = np.empty(n), np.empty(n)
        for rows, inst, start_ts, take in self._groups:
            # Midpoint rates approximate the integral over the interval.
            t_mid = max(0.0, (ts - start_ts) / NS_PER_SEC - dt_s / 2.0)
            rates = inst.rates(t_mid)
            k = rates.utilization.size // cpus
            activity[rows] = inst.node_activity(rates, k)[take]
            mean_util[rows] = rates.utilization.reshape(k, cpus).mean(axis=1)[take]
            if dt_s > 0.0:
                per_core = np.stack((
                    rates.cycles_per_s, rates.instr_per_s,
                    rates.cache_miss_per_s, rates.cache_ref_per_s,
                    rates.flops_per_s, rates.vector_ops_per_s,
                ), axis=1).reshape(k, cpus, len(CPU_COUNTERS))
                self.counters[rows] += per_core[take] * dt_s
                net = rates.net_bytes_per_s
                self._net[rows] += (net * dt_s, net * 0.96 * dt_s)
        power = self.power
        power.update(ts, activity, mean_util)
        # Busy nodes hold larger working sets and clock up.
        used_frac = 0.1 + 0.6 * mean_util
        self.node_values = np.column_stack((
            power.power_w, power.temperature_c, (1.0 - used_frac) * 96e9,
            1.3e9 * (1.0 + np.where(mean_util > 0.5, 0.1, 0.0)),
            power.energy_j, power.idle_time_s, self._net,
        ))
        self.now = ts

    # ------------------------------------------------------------------
    # Sensor reads (used by monitoring plugins)
    # ------------------------------------------------------------------

    def row(self, node_path: str) -> int:
        """The row of a node in the state arrays."""
        return self.topology.node_index[node_path]

    @staticmethod
    def node_columns(names: Sequence[str]) -> np.ndarray:
        """The ``node_values`` columns of node sensor names."""
        try:
            return np.array([_NODE_INDEX[name] for name in names], dtype=np.intp)
        except KeyError as exc:
            raise KeyError(f"unknown node sensor {exc.args[0]!r}") from None

    def read_cpu_counter(
        self, node_path: str, cpu_index: int, counter: str, ts: int
    ) -> float:
        """Monotonic per-core counter value at ``ts``."""
        return float(self.read_cpu_counters(node_path, counter, ts)[cpu_index])

    def read_cpu_counters(
        self, node_path: str, counter: str, ts: int
    ) -> np.ndarray:
        """All cores' values of one counter at ``ts`` (view, no copy)."""
        self.advance(ts)
        return self.counters[self.row(node_path), :, _COUNTER_INDEX[counter]]

    def read_node(self, node_path: str, name: str, ts: int) -> float:
        """Node-level gauge or counter value at ``ts``.

        Gauges: ``power`` (W), ``temp`` (C), ``memfree`` (bytes),
        ``freq`` (Hz).  Counters: ``energy`` (J), ``idle-time``
        (core-seconds), ``xmit-bytes``, ``rcv-bytes``.
        """
        col = self.node_columns((name,))[0]
        self.advance(ts)
        return float(self.node_values[self.row(node_path), col])

    def set_power_factor(self, node_path: str, factor: float) -> None:
        """Scale one node's power draw from the next advance on (a
        planted anomaly, or a power cap acting on the model)."""
        self.power.power_factor[self.row(node_path)] = factor

    def current_job(self, node_path: str) -> Optional[str]:
        """Job id the node runs as of :attr:`now`."""
        return self._job_of_row[self.row(node_path)]

    @property
    def node_paths(self) -> List[str]:
        """All node component paths."""
        return self.topology.node_paths
