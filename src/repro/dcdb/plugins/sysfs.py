"""SysFS monitoring plugin (synthetic).

Mirrors DCDB's sysfs plugin on node-level hardware sensors: whole-node
power at the power supply, node temperature, cumulative energy and core
frequency.  These are the signals the power-prediction (Fig 6) and
clustering (Fig 8) case studies consume.
"""

from repro.dcdb.plugins.base import NodePlugin


class SysfsPlugin(NodePlugin):
    """Node-level electrical/thermal sampling for one compute node."""

    NAME = "sysfs"
    SENSORS = (
        # (name, unit, is_delta)
        ("power", "W", False),
        ("temp", "C", False),
        ("energy", "J", True),
        ("freq", "Hz", False),
    )
