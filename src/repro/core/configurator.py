"""The Configurator (Section V-C-2).

A configurator reads a plugin's configuration block and instantiates
operators accordingly, together with their units.  Configuration is a
plain dict (trivially loadable from JSON), shaped like::

    {
        "plugin": "aggregator",
        "operators": {
            "avgpower": {
                "interval_ms": 1000,
                "mode": "online",
                "unit_mode": "sequential",
                "window_ms": 5000,
                "inputs": ["<bottomup-1, filter node>power"],
                "outputs": ["<topdown>avg-power"],
                "params": {"op": "mean"}
            }
        }
    }

Time quantities accept ``*_ms``, ``*_s`` or ``*_ns`` suffixes.  The
small configuration block above instantiates one operator whose pattern
unit may expand to thousands of concrete units — the scaling property
Section III-C is after.

Validation is diagnostic-based: :func:`collect_operator_diagnostics`
walks one operator block and reports *every* problem it finds as
:class:`~repro.analysis.diagnostics.Diagnostic` records (unknown keys,
conflicting time spellings, bad values, malformed pattern expressions).
:func:`parse_operator_config` raises a :class:`ConfigError` carrying the
full list, so a block with three typos surfaces three findings in one
failure instead of one per deploy attempt.  The offline analyzer
(``wintermute-sim check``) reuses the same collector, which keeps the
static and runtime validation paths from drifting apart.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis.diagnostics import Diagnostic, DiagnosticCollector
from repro.common.errors import ConfigError
from repro.common.timeutil import NS_PER_MS, NS_PER_SEC
from repro.core.operator import MODES, UNIT_MODES, OperatorBase, OperatorConfig
from repro.core.pattern import PatternExpression
from repro.core.registry import create_operator

_TIME_FIELDS = ("interval", "window", "delay")
_BOOL_FIELDS = ("relaxed", "publish_outputs")
_TIME_SUFFIXES = (("ns", 1), ("ms", NS_PER_MS), ("s", NS_PER_SEC))

#: Every key an operator block may carry.
KNOWN_OPERATOR_KEYS = frozenset(
    {
        "mode",
        "unit_mode",
        "inputs",
        "outputs",
        "operator_outputs",
        "params",
        "max_workers",
        "unit_cadence",
        "fusion",
        "relaxed",
        "publish_outputs",
        "breaker_threshold",
        "breaker_cooldown",
        "breaker_max_cooldown",
    }
    | {f"{b}_{s}" for b in _TIME_FIELDS for s, _ in _TIME_SUFFIXES}
)

#: Every key a plugin configuration block may carry at the top level.
KNOWN_BLOCK_KEYS = frozenset({"plugin", "operators"})


def _collect_time(block: dict, base: str, out: DiagnosticCollector) -> None:
    """Validate one time field's spellings and value."""
    found = [f"{base}_{s}" for s, _ in _TIME_SUFFIXES if f"{base}_{s}" in block]
    if len(found) > 1:
        out.at(found[1]).error(
            "W004", f"conflicting time spellings for {base!r}: {found}"
        )
        return
    if not found:
        return
    key = found[0]
    value = block[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value < 0:
        out.at(key).error("W005", f"{key} must be a non-negative number")


def _read_time(block: dict, base: str, default_ns: int) -> int:
    """Read a validated time field accepting _ns/_ms/_s spellings."""
    for suffix, mult in _TIME_SUFFIXES:
        key = f"{base}_{suffix}"
        if key in block:
            return int(block[key] * mult)
    return default_ns


def collect_operator_diagnostics(
    name: str, block: dict, collector: Optional[DiagnosticCollector] = None
) -> List[Diagnostic]:
    """Statically validate one operator block, reporting every problem.

    Returns the diagnostics recorded for this block (also appended to
    ``collector``'s sink when one is passed in).  Error-severity
    findings mean :func:`parse_operator_config` would refuse the block.
    """
    out = collector if collector is not None else DiagnosticCollector()
    start = len(out.sink)
    if not isinstance(block, dict):
        out.error("W005", f"operator {name!r}: block must be a mapping")
        return out.sink[start:]
    unknown = set(block) - KNOWN_OPERATOR_KEYS
    for key in sorted(unknown):
        out.at(key).error(
            "W003", f"operator {name!r}: unknown config key {key!r}"
        )
    for base in _TIME_FIELDS:
        _collect_time(block, base, out)
    if "mode" in block and block["mode"] not in MODES:
        out.at("mode").error(
            "W005", f"mode must be one of {list(MODES)}, got {block['mode']!r}"
        )
    if "unit_mode" in block and block["unit_mode"] not in UNIT_MODES:
        out.at("unit_mode").error(
            "W005",
            f"unit_mode must be one of {list(UNIT_MODES)}, "
            f"got {block['unit_mode']!r}",
        )
    for key in ("max_workers", "unit_cadence", "breaker_cooldown", "breaker_max_cooldown"):
        value = block.get(key)
        if value is not None and (
            isinstance(value, bool) or not isinstance(value, int) or value < 1
        ):
            out.at(key).error("W005", f"{key} must be an integer >= 1")
    threshold = block.get("breaker_threshold")
    if threshold is not None and (
        isinstance(threshold, bool)
        or not isinstance(threshold, int)
        or threshold < 0
    ):
        out.at("breaker_threshold").error(
            "W005", "breaker_threshold must be an integer >= 0"
        )
    for key in _BOOL_FIELDS:
        if key in block and not isinstance(block[key], bool):
            out.at(key).error("W005", f"{key} must be a bool")
    if "fusion" in block and not (
        isinstance(block["fusion"], bool) or block["fusion"] == "auto"
    ):
        out.at("fusion").error(
            "W005",
            f"fusion must be true, false or 'auto', got {block['fusion']!r}",
        )
    for key in ("inputs", "outputs", "operator_outputs"):
        if key not in block:
            continue
        value = block[key]
        if not isinstance(value, list) or not all(
            isinstance(v, str) for v in value
        ):
            out.at(key).error("W005", f"{key} must be a list of strings")
            continue
        if key == "operator_outputs":
            continue  # bare sensor names, not pattern expressions
        for i, text in enumerate(value):
            try:
                expr = PatternExpression.parse(text)
            except ConfigError as exc:
                out.at(key, i).error("W006", str(exc))
                continue
            if key == "outputs" and i == 0 and expr.anchor == "unit":
                out.at(key, i).error(
                    "W007",
                    f"the unit-defining output expression must carry a "
                    f"level pattern, got bare {text!r}",
                )
    if "params" in block and not isinstance(block["params"], dict):
        out.at("params").error("W005", "params must be a dict")
    return out.sink[start:]


def parse_operator_config(name: str, block: dict) -> OperatorConfig:
    """Turn one operator's configuration block into an OperatorConfig.

    All problems in the block are validated up front; a raised
    :class:`ConfigError` carries the complete diagnostic list in its
    ``diagnostics`` attribute.
    """
    diagnostics = collect_operator_diagnostics(
        name, block, DiagnosticCollector(prefix=f"operators.{name}")
    )
    errors = [d for d in diagnostics if d.severity == "error"]
    if errors:
        raise ConfigError(
            f"operator {name!r}: {len(errors)} configuration error(s)\n"
            + "\n".join(f"  {d}" for d in errors),
            diagnostics=errors,
        )
    kwargs = dict(
        name=name,
        interval_ns=_read_time(block, "interval", NS_PER_SEC),
        window_ns=_read_time(block, "window", 0),
        delay_ns=_read_time(block, "delay", 0),
    )
    for key in (
        "mode",
        "unit_mode",
        "max_workers",
        "unit_cadence",
        "fusion",
        "breaker_threshold",
        "breaker_cooldown",
        "breaker_max_cooldown",
    ):
        if key in block:
            kwargs[key] = block[key]
    for key in _BOOL_FIELDS:
        if key in block:
            kwargs[key] = block[key]
    for key in ("inputs", "outputs", "operator_outputs"):
        if key in block:
            kwargs[key] = list(block[key])
    if "params" in block:
        kwargs["params"] = dict(block["params"])
    return OperatorConfig(**kwargs)


def collect_block_diagnostics(
    config: dict, collector: Optional[DiagnosticCollector] = None
) -> List[Diagnostic]:
    """Statically validate one whole plugin block (all operators).

    Structural checks only — plugin-name existence and sensor-tree
    resolution belong to :mod:`repro.analysis.config`, which layers them
    on top of this collector.
    """
    out = collector if collector is not None else DiagnosticCollector()
    start = len(out.sink)
    if not isinstance(config, dict):
        out.error("W005", "plugin configuration must be a mapping")
        return out.sink[start:]
    if "plugin" not in config:
        out.error("W001", "plugin configuration must name its 'plugin'")
    elif not isinstance(config["plugin"], str):
        out.at("plugin").error("W005", "'plugin' must be a string")
    for key in sorted(set(config) - KNOWN_BLOCK_KEYS):
        out.at(key).error(
            "W003", f"unknown top-level config key {key!r} "
            f"(expected {sorted(KNOWN_BLOCK_KEYS)})"
        )
    operators = config.get("operators")
    if not isinstance(operators, dict) or not operators:
        out.at("operators").error(
            "W002", "'operators' must be a non-empty mapping"
        )
        return out.sink[start:]
    for name, block in operators.items():
        collect_operator_diagnostics(name, block, out.at("operators", name))
    return out.sink[start:]


class Configurator:
    """Builds the operators of one plugin configuration block."""

    def __init__(self, config: dict, context: Optional[Dict[str, object]] = None):
        diagnostics = collect_block_diagnostics(config)
        errors = [d for d in diagnostics if d.severity == "error"]
        if errors:
            plugin = config.get("plugin") if isinstance(config, dict) else None
            raise ConfigError(
                f"plugin {plugin!r}: {len(errors)} configuration error(s)\n"
                + "\n".join(f"  {d}" for d in errors),
                diagnostics=errors,
            )
        self.plugin_name: str = config["plugin"]
        self._blocks: Dict[str, dict] = config["operators"]
        self._context = dict(context or {})

    def operator_configs(self) -> List[OperatorConfig]:
        """Parsed configurations, one per declared operator."""
        return [
            parse_operator_config(name, block)
            for name, block in self._blocks.items()
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
