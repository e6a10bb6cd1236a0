"""Omni-Path (OPA) monitoring plugin (synthetic).

Mirrors DCDB's opa plugin: per-node fabric port counters (transmitted
and received bytes), monotonic like the real port counters.
"""

from repro.dcdb.plugins.base import NodePlugin


class OpaPlugin(NodePlugin):
    """Fabric counter sampling for one compute node."""

    NAME = "opa"
    SENSORS = (
        ("xmit-bytes", "B", True),
        ("rcv-bytes", "B", True),
    )
