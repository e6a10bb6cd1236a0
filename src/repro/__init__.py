"""Reproduction of *DCDB Wintermute: Enabling Online and Holistic
Operational Data Analytics on HPC Systems* (Netti et al., HPDC 2020).

Package layout:

- :mod:`repro.core` -- the Wintermute framework: Unit System, Query
  Engine, operators, Operator Manager, pipelines.
- :mod:`repro.dcdb` -- the DCDB monitoring substrate: sensors, caches,
  MQTT-style broker, storage backend, Pushers, Collect Agents, REST.
- :mod:`repro.simulator` -- the synthetic CooLMUC-3 stand-in: cluster
  topology, node power/thermal models, CORAL-2 workload generators, job
  scheduler, simulation clock.
- :mod:`repro.plugins` -- operator plugin library (tester, aggregator,
  smoother, perfmetrics, persyst, regressor, classifier, clustering,
  health, correlation, filesink), each module imported on the first
  lookup of its name in :mod:`repro.core.registry`.
- :mod:`repro.ml` -- from-scratch ML substrate (random forests,
  variational Bayesian GMM, window statistics, error metrics).

Quickstart::

    from repro.simulator import ClusterSimulator, ClusterSpec
    from repro.simulator.clock import TaskScheduler
    from repro.dcdb import Broker, Pusher
    from repro.dcdb.plugins import SysfsPlugin
    from repro.core import OperatorManager
    from repro.common.timeutil import NS_PER_SEC

    sim = ClusterSimulator(ClusterSpec.small())
    sched, broker = TaskScheduler(), Broker()
    node = sim.node_paths[0]
    pusher = Pusher(node, broker, sched)
    pusher.add_plugin(SysfsPlugin(sim, node))
    manager = OperatorManager()
    pusher.attach_analytics(manager)
    manager.load_plugin({
        "plugin": "aggregator",
        "operators": {
            "avgpower": {
                "interval_s": 1, "window_s": 5,
                "inputs": ["<bottomup>power"],
                "outputs": ["<bottomup>avg-power"],
                "params": {"op": "mean"},
            }
        },
    })
    sched.run_until(30 * NS_PER_SEC)
    print(pusher.cache_for(node + "/avg-power").latest())
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
