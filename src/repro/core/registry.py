"""Operator plugin registry.

The production framework loads operator plugins as shared libraries, only
those a configuration names; the Python reproduction registers operator
classes under plugin names instead.  A bundled plugin's module is
imported on the first lookup of its name (:data:`BUNDLED`); a class
registered under a name (``@operator_plugin``) wins over the table.  The
Operator Manager instantiates operators by looking up the plugin name
from a configuration block, passing host context (e.g. the job source
for job operator plugins) to constructors that declare it.
"""

from __future__ import annotations

import importlib
import inspect
from typing import Callable, Dict, List, Optional, Type

from repro.common.errors import PluginError
from repro.core.operator import OperatorBase, OperatorConfig

_REGISTRY: Dict[str, Type[OperatorBase]] = {}

#: Bundled plugin name -> the module whose import registers it.
BUNDLED: Dict[str, str] = {
    name: f"repro.plugins.{name}"
    for name in (
        "aggregator", "classifier", "clustering", "correlation", "filesink",
        "health", "perfmetrics", "persyst", "regressor", "smoother", "tester",
    )
}


def register_operator_plugin(name: str, cls: Type[OperatorBase]) -> None:
    """Register an operator class under a plugin name."""
    if not (isinstance(cls, type) and issubclass(cls, OperatorBase)):
        raise PluginError(f"plugin {name!r} must be an OperatorBase subclass")
    _REGISTRY[name] = cls


def operator_plugin(name: str) -> Callable[[Type[OperatorBase]], Type[OperatorBase]]:
    """Class decorator registering an operator plugin::

        @operator_plugin("aggregator")
        class AggregatorOperator(OperatorBase): ...
    """

    def deco(cls: Type[OperatorBase]) -> Type[OperatorBase]:
        register_operator_plugin(name, cls)
        return cls

    return deco


def available_plugins() -> List[str]:
    """Names of all bundled and registered operator plugins (imports
    nothing)."""
    return sorted(BUNDLED.keys() | _REGISTRY.keys())


def get_plugin_class(name: str) -> Optional[Type[OperatorBase]]:
    """The registered operator class for a plugin name, or None.

    A bundled plugin not registered yet is imported here.  Used by the
    static analyzer to check plugin references and to tell job operator
    plugins (dynamic per-job units) from pattern-unit ones without
    instantiating anything.
    """
    if name not in _REGISTRY and name in BUNDLED:
        importlib.import_module(BUNDLED[name])
    return _REGISTRY.get(name)


def create_operator(
    plugin_name: str, config: OperatorConfig, context: Dict[str, object]
) -> OperatorBase:
    """Instantiate one operator of ``plugin_name``.

    Constructor parameters beyond ``config`` are filled from ``context``
    by name (e.g. ``job_source``); missing context for a required
    parameter is a configuration error.
    """
    cls = get_plugin_class(plugin_name)
    if cls is None:
        raise PluginError(
            f"unknown operator plugin {plugin_name!r}; "
            f"registered: {available_plugins()}"
        )
    sig = inspect.signature(cls.__init__)
    kwargs = {}
    for pname, param in list(sig.parameters.items())[2:]:  # skip self, config
        if pname in context:
            kwargs[pname] = context[pname]
        elif param.default is inspect.Parameter.empty:
            raise PluginError(
                f"plugin {plugin_name!r} requires context {pname!r} "
                f"which the host did not provide"
            )
    return cls(config, **kwargs)
