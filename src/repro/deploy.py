"""Declarative deployment of a full simulated DCDB+Wintermute system.

Production DCDB is configured through files read at daemon start-up;
this module provides the equivalent for the reproduction: one JSON-able
specification describes the cluster, the monitoring plugins each Pusher
loads, the Wintermute plugin blocks per host, the job schedule, the
network link and the storage tier — and :func:`build_deployment`
materialises the whole system on a shared simulation clock.

The format of that specification — every section and key, its type,
range, default and meaning — is the schema table of :mod:`repro.spec`,
rendered into ``docs/CONFIGURATION.md``.  The builder walks a spec
through the table, refuses it with a :class:`ConfigError` carrying the
diagnostics ``wintermute-sim check --config`` would print, and
otherwise reads nothing but the walk's typed view.
"""

from __future__ import annotations

import json
import tempfile
from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.diagnostics import DiagnosticCollector
from repro.common.errors import ConfigError
from repro.common.timeutil import NS_PER_SEC
from repro.core.manager import OperatorManager
from repro.dcdb import Broker, CollectAgent, Pusher
from repro.dcdb.network import NetworkConditions
from repro.dcdb.plugins import MONITORING_PLUGINS
from repro.dcdb.segments import TieredStorageBackend
from repro.dcdb.storage import StorageBackend
from repro.simulator import ClusterSimulator, ClusterSpec
from repro.simulator.clock import TaskScheduler
from repro.simulator.scheduler import Job
from repro.spec import DEPLOYMENT, MIB, cluster_spec, read_deployment, refuse

#: The typed view of a spec that says nothing: every default there is.
_DEFAULTS = DEPLOYMENT.read({}, DiagnosticCollector())


def _storage_backend(storage) -> StorageBackend:
    """The Collect Agent's backend of a ``storage`` view."""
    if storage.tiers == "memory":
        return StorageBackend(ttl_ns=storage.ttl_ns)
    # A scratch tier is intentionally not auto-deleted, so a restarted
    # process pointed at the printed path can replay it.
    directory = storage.dir or tempfile.mkdtemp(prefix="wintermute-segments-")
    return TieredStorageBackend(
        directory,
        flush_mb=storage.flush_bytes / MIB,
        rollup_after_ns=storage.rollups.after_ns,
        rollup_minute_after_ns=storage.rollups.minute_after_ns,
        retention_raw_ns=storage.retention.raw_ns,
        retention_rollup_ns=storage.retention.rollup_ns,
        ttl_ns=storage.ttl_ns,
        maintenance_interval_ns=storage.flush_interval_ns,
    )


class Deployment:
    """A running simulated system: simulator, pushers, agent, analytics.

    Build directly for programmatic use, or via :func:`build_deployment`
    from a declarative spec.  The benchmark harness and the examples are
    both thin layers over this class.
    """

    def __init__(
        self,
        spec: ClusterSpec,
        seed: int = _DEFAULTS.cluster.seed,
        monitoring: Sequence[str] = tuple(_DEFAULTS.monitoring.plugins),
        perfevent_counters: Optional[Sequence[str]] = None,
        sampling_interval_ns: int = _DEFAULTS.monitoring.interval_ns,
        cache_window_ns: int = _DEFAULTS.monitoring.cache_window_ns,
        anomalies: Optional[Dict[str, float]] = None,
        tester_sensors: int = _DEFAULTS.monitoring.tester_sensors,
        network=None,
        storage=None,
    ) -> None:
        """``network`` and ``storage`` are the typed views of the spec
        sections of those names (see :mod:`repro.spec`); None keeps the
        plain broker and the agent's in-memory backend."""
        unknown = set(monitoring) - set(MONITORING_PLUGINS)
        if unknown:
            raise ConfigError(f"unknown monitoring plugins: {sorted(unknown)}")
        self.sim = ClusterSimulator(spec, seed=seed, anomalies=anomalies)
        self.scheduler = TaskScheduler()
        self.broker = Broker()
        self.link: Optional[NetworkConditions] = None
        self._transport = self.broker
        self._pusher_kwargs: Dict[str, object] = {}
        agent_kwargs: Dict[str, object] = {}
        if network is not None:
            self.link = NetworkConditions(
                self.broker,
                self.scheduler,
                latency_ns=network.latency_ns,
                jitter_ns=network.jitter_ns,
                drop_probability=network.drop_probability,
                seed=network.seed,
            )
            self._transport = self.link
            for outage in network.outages:
                self.link.schedule_outage(
                    outage.start_ns, outage.end_ns,
                    destinations=outage.destinations,
                )
            spill, ingest = network.spill, network.ingest
            self._pusher_kwargs = dict(
                spill_capacity=spill.capacity,
                spill_policy=spill.policy,
                retry_base_ns=spill.retry_base_ns,
                retry_max_ns=spill.retry_max_ns,
                retry_seed=spill.seed,
            )
            agent_kwargs = dict(
                ingest_queue_capacity=ingest.queue_capacity,
                ingest_policy=ingest.policy,
            )
        options = SimpleNamespace(
            perfevent_counters=perfevent_counters,
            tester_sensors=tester_sensors,
        )
        self.pushers: Dict[str, Pusher] = {}
        self.managers: Dict[str, OperatorManager] = {}
        for node in self.sim.node_paths:
            pusher = Pusher(
                node, self._transport, self.scheduler,
                cache_window_ns=cache_window_ns,
                **self._pusher_kwargs,
            )
            for name, plugin in MONITORING_PLUGINS.items():
                if name in monitoring:
                    pusher.add_plugin(
                        plugin.for_node(
                            self.sim, node, sampling_interval_ns, options
                        )
                    )
            manager = OperatorManager(
                context={"job_source": self.sim.scheduler}
            )
            pusher.attach_analytics(manager)
            self.pushers[node] = pusher
            self.managers[node] = manager
        if storage is not None:
            agent_kwargs["storage"] = _storage_backend(storage)
        self.agent = CollectAgent(
            "agent", self.broker, self.scheduler,
            cache_window_ns=cache_window_ns,
            **agent_kwargs,
        )
        self.agent_manager = OperatorManager(
            context={"job_source": self.sim.scheduler}
        )
        self.agent.attach_analytics(self.agent_manager)
        self.cooling = None
        self.facility_pusher: Optional[Pusher] = None

    def attach_facility(
        self,
        setpoint_c: Optional[float] = None,
        interval_ns: int = _DEFAULTS.facility.interval_ns,
    ):
        """Attach a cooling loop plus its facility Pusher.

        Returns the :class:`~repro.simulator.facility.CoolingSystem`,
        which is also injected as ``cooling`` context into every
        analytics manager (for control operators).
        """
        from repro.simulator.facility import CoolingSystem, FacilityPlugin

        if self.cooling is not None:
            raise ConfigError("facility already attached")
        self.cooling = CoolingSystem(self.sim)
        if setpoint_c is not None:
            self.cooling.set_setpoint(setpoint_c)
        self.facility_pusher = Pusher(
            "facility", self._transport, self.scheduler,
            **self._pusher_kwargs,
        )
        self.facility_pusher.add_plugin(
            FacilityPlugin(self.cooling, interval_ns=interval_ns)
        )
        for manager in list(self.managers.values()) + [self.agent_manager]:
            manager._context.setdefault("cooling", self.cooling)
        return self.cooling

    # ------------------------------------------------------------------

    def all_hosts(self):
        """Every cache-holding component: node pushers, the facility
        pusher (when attached) and the collect agent.  Used by the
        runtime sanitizer's whole-deployment cache scans."""
        hosts = list(self.pushers.values())
        if self.facility_pusher is not None:
            hosts.append(self.facility_pusher)
        hosts.append(self.agent)
        return hosts

    def published_topics(self) -> List[str]:
        """What the Pushers send the Collect Agent: every published
        sensor their plugins sample and every published output of the
        operators loaded on them so far."""
        topics: List[str] = []
        for pusher in self.all_hosts()[:-1]:  # the agent comes last
            topics += [t for t, s in pusher.sensors.items() if s.publish]
            if pusher.analytics is not None:
                topics += [
                    s.topic for op in pusher.analytics.operators()
                    for u in op.units for s in u.outputs if s.publish
                ]
        return topics

    @property
    def now(self) -> int:
        """Current simulation time in nanoseconds."""
        return self.scheduler.clock.now

    def run(self, seconds: float) -> None:
        """Advance the whole deployment by simulated seconds."""
        self.scheduler.run_until(self.now + int(seconds * NS_PER_SEC))

    def series(self, topic: str):
        """(timestamps_s, values) of a topic from the agent's storage,
        both the caller's own (``storage.query`` returns views that a
        later expiry or flush overwrites)."""
        self.agent.flush()
        ts, val = self.agent.storage.query(topic, 0, 2**62)
        return np.asarray(ts) / NS_PER_SEC, np.array(val)

    def latest(self, topic: str):
        """Most recent reading of a topic from the agent's view."""
        self.agent.flush()
        cache = self.agent.cache_for(topic)
        if cache is not None and len(cache):
            return cache.latest()
        return self.agent.storage.latest(topic)


def build_deployment(config: dict) -> Deployment:
    """Materialise a deployment from a declarative specification.

    Refuses exactly the specs whose table walk reports an error: the
    raised :class:`ConfigError` carries those diagnostics.
    """
    out = DiagnosticCollector()
    view = read_deployment(config, out)
    refuse("deployment spec", out.sink)
    cluster, monitoring = view.cluster, view.monitoring
    dep = Deployment(
        cluster_spec(cluster),
        seed=cluster.seed,
        monitoring=monitoring.plugins,
        perfevent_counters=monitoring.perfevent_counters,
        sampling_interval_ns=monitoring.interval_ns,
        cache_window_ns=monitoring.cache_window_ns,
        anomalies=cluster.anomalies,
        tester_sensors=monitoring.tester_sensors,
        network=view.network,
        storage=view.storage,
    )
    jobs = dep.sim.scheduler
    for i, job in enumerate(view.jobs):
        if job.node_paths is not None:
            jobs.add_job(
                Job(
                    job.id or f"job{i}", job.app, tuple(job.node_paths),
                    job.start_ns, job.end_ns,
                )
            )
        else:
            jobs.submit(
                job.app, job.nodes, job.start_ns, job.end_ns, job_id=job.id
            )
    if view.facility.enabled:
        dep.attach_facility(
            setpoint_c=view.facility.setpoint_c,
            interval_ns=view.facility.interval_ns,
        )
    for block in view.analytics.pushers:
        for manager in dep.managers.values():
            manager.load_plugin(block)
    if view.analytics.agent:
        # The agent's sensor space is what has arrived, and before the
        # first tick nothing has: its blocks resolve against what the
        # Pushers are going to publish (as check --config assumes).
        dep.agent_manager.engine.declare_topics(dep.published_topics())
    for block in view.analytics.agent:
        dep.agent_manager.load_plugin(block)
    # With every block loaded, plan pipeline fusion once per host.  The
    # planner is conservative: hosts with no eligible chain (agent
    # storage, published intermediates, period mismatches) simply keep
    # their staged per-operator schedule.
    for manager in dep.managers.values():
        manager.refresh_fusion()
    dep.agent_manager.refresh_fusion()
    return dep


def load_deployment(path: str) -> Deployment:
    """Build a deployment from a JSON specification file."""
    with open(path, "r", encoding="utf-8") as fh:
        return build_deployment(json.load(fh))
