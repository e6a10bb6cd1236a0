"""ProcFS monitoring plugin (synthetic).

Mirrors DCDB's procfs plugin: OS-level node statistics — cumulative CPU
idle time (the Fig 8 clustering input) and free memory.
"""

from repro.dcdb.plugins.base import NodePlugin


class ProcfsPlugin(NodePlugin):
    """OS-statistics sampling for one compute node."""

    NAME = "procfs"
    SENSORS = (
        ("idle-time", "s", True),
        ("memfree", "B", False),
    )
