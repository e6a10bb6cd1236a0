"""The Configurator (Section V-C-2).

A configurator reads a plugin's configuration block — a plain dict,
trivially loadable from JSON — and instantiates operators accordingly,
together with their units.  One small block may instantiate an operator
whose pattern unit expands to thousands of concrete units: the scaling
property Section III-C is after.

Which keys a block may carry, their types, ranges and defaults are rows
of the schema table in :mod:`repro.spec` (rendered, with an example
block, in ``docs/CONFIGURATION.md``); this module walks a block through
it.  The walk reports *every* problem as a
:class:`~repro.analysis.diagnostics.Diagnostic` and a refused block
raises one :class:`ConfigError` carrying the full list, so three typos
surface as three findings in one failure instead of one per deploy
attempt.  The offline analyzer (``wintermute-sim check``) runs the same
walk, which is what keeps the static and runtime paths from drifting.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Dict, List, Optional

# Bound as a module: repro.spec imports repro.core while it loads.
import repro.spec as schema
from repro.analysis.diagnostics import DiagnosticCollector
from repro.core.operator import OperatorBase, OperatorConfig
from repro.core.registry import create_operator


def parse_operator_config(name: str, block: dict) -> OperatorConfig:
    """Turn one operator's configuration block into an OperatorConfig.

    All problems in the block are validated up front; a raised
    :class:`ConfigError` carries the complete diagnostic list in its
    ``diagnostics`` attribute.
    """
    out = DiagnosticCollector(prefix=f"operators.{name}")
    view = schema.OPERATOR.read(block, out)
    schema.refuse(f"operator {name!r}", out.sink)
    return schema.operator_config(name, view)


class Configurator:
    """Builds the operators of one plugin configuration block."""

    def __init__(self, config, context: Optional[Dict[str, object]] = None):
        """``config`` is a plugin block, or the typed view a walk of the
        schema already made of one (a deployment's blocks are walked
        once, not once per host)."""
        view = config
        if not isinstance(config, SimpleNamespace):
            out = DiagnosticCollector()
            view = schema.PLUGIN_BLOCK.read(config, out)
            schema.refuse(f"plugin {view.plugin!r}", out.sink)
        self.plugin_name: str = view.plugin
        self._operators = view.operators
        self._context = dict(context or {})

    def operator_configs(self) -> List[OperatorConfig]:
        """Parsed configurations, one per declared operator."""
        return [
            schema.operator_config(name, view)
            for name, view in self._operators.items()
        ]

    def build(self) -> List[OperatorBase]:
        """Instantiate every operator declared in the block.

        Unit resolution happens later (``OperatorManager.load_plugin``),
        once the operator is bound to a host whose sensor tree is known.
        """
        return [
            create_operator(self.plugin_name, cfg, self._context)
            for cfg in self.operator_configs()
        ]
