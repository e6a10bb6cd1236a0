"""Monitoring plugins for the Pusher.

Each plugin samples a family of sensors on one monitored component,
mirroring the plugins the paper's deployment runs on CooLMUC-3
(perfevent, sysFS, ProcFS and OPA) plus the ``tester`` plugin used for
the overhead study of Section VI-A.  All hardware-facing plugins read
from the cluster simulator instead of real interfaces; the sampling code
path (plugin -> cache -> MQTT) is identical to production.
"""

from repro.dcdb.plugins.base import MonitoringPlugin, NodePlugin
from repro.dcdb.plugins.tester import TesterMonitoringPlugin
from repro.dcdb.plugins.perfevent import PerfeventPlugin
from repro.dcdb.plugins.sysfs import SysfsPlugin
from repro.dcdb.plugins.procfs import ProcfsPlugin
from repro.dcdb.plugins.opa import OpaPlugin

#: Every monitoring plugin a deployment spec can name, in the order a
#: Pusher loads them.  The builder, the static sensor-tree synthesis and
#: the flow pass's unit facts all go through this table (and the
#: ``for_node`` / ``static_sensors`` / ``PER_CPU`` of its classes).
MONITORING_PLUGINS = {
    "sysfs": SysfsPlugin,
    "procfs": ProcfsPlugin,
    "perfevent": PerfeventPlugin,
    "opa": OpaPlugin,
    "tester": TesterMonitoringPlugin,
}

__all__ = [
    "MONITORING_PLUGINS",
    "MonitoringPlugin",
    "NodePlugin",
    "TesterMonitoringPlugin",
    "PerfeventPlugin",
    "SysfsPlugin",
    "ProcfsPlugin",
    "OpaPlugin",
]
