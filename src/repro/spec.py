"""The configuration schema: one table for every key of a plugin block
and of a deployment spec.

Each :class:`Section` lists its keys as :class:`Key` rows — kind (type
and range), default, one-line meaning — plus the few cross-field rules
a row cannot express.  One walk of a section (:meth:`Section.read`)
reports the structural diagnostics (W001–W007, W016) *and* returns a
typed view: a namespace in which every key is present, defaulted and in
canonical units.  A key named ``<stem>_ns|_ms|_s`` is a time, stored as
``<stem>_ns``; ``<stem>_mb`` is stored as ``<stem>_bytes``.  ``null``
counts as absent; a malformed value is reported once and replaced by
its default.

The Configurator, :func:`repro.deploy.build_deployment`, the static
analyzers and the key tables of ``docs/CONFIGURATION.md`` all read this
table, so they cannot disagree about the format.  A default that
belongs to a component (Pusher spill queue, tiered storage,
:class:`OperatorConfig`) is looked up on the component.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import json
import math
import re
from types import SimpleNamespace
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.analysis.diagnostics import ERROR, DiagnosticCollector
from repro.common.errors import ConfigError
from repro.common.rng import DEFAULT_SEED
from repro.common.timeutil import NS_PER_MS, NS_PER_SEC
from repro.core.operator import FUSION_MODES, MODES, UNIT_MODES, OperatorConfig
from repro.core.pattern import PatternExpression
from repro.core.registry import available_plugins
from repro.dcdb.collectagent import CollectAgent
from repro.dcdb.mqtt import QUEUE_POLICIES
from repro.dcdb.network import NetworkConditions
from repro.dcdb.plugins import MONITORING_PLUGINS, MonitoringPlugin
from repro.dcdb.plugins.perfevent import CPU_COUNTERS
from repro.dcdb.pusher import Pusher
from repro.dcdb.resilience import SPILL_POLICIES
from repro.dcdb.segments import TieredStorageBackend
from repro.dcdb.storage import StorageBackend
from repro.simulator.cluster import ClusterSpec, ClusterTopology
from repro.simulator.facility import FacilityPlugin
from repro.simulator.workload import APP_PROFILES

MIB = 2**20

#: key suffix -> (scale to the canonical unit, canonical suffix).
_UNITS = {"ns": (1, "ns"), "ms": (NS_PER_MS, "ns"), "s": (NS_PER_SEC, "ns"),
          "mb": (MIB, "bytes")}

#: What ``read`` returns for a value it has reported.
BAD = object()


def canonical(name: str) -> Tuple[str, int]:
    """(view attribute, scale) of a key: ``latency_ms`` -> ``latency_ns``,
    10**6; a key without a unit suffix is its own attribute."""
    stem, _, unit = name.rpartition("_")
    if unit in _UNITS:
        scale, suffix = _UNITS[unit]
        return f"{stem}_{suffix}", scale
    return name, 1


# ----------------------------------------------------------------------
# Kinds: the type and range of one value
# ----------------------------------------------------------------------
#
# ``read(value, out, what, code)`` returns the value for the typed view,
# or reports it at ``out`` and returns BAD.  A wrong container shape is
# always W005; a bad scalar carries the section's ``code``.

class Kind:
    """A scalar kind: ``test`` accepts a value, or says what is wrong
    with it by raising :class:`ConfigError`; ``name`` says what a value
    must be, in messages and in the docs; ``code`` overrides the
    section's rule code."""

    def __init__(self, name: str, test: Callable[[object], bool],
                 code: str = "") -> None:
        self.name, self.test, self.code = name, test, code

    def read(self, value, out, what, code):
        try:
            if self.test(value):
                return value
            message = f"{what} must be {self.name}, got {value!r:.40}"
        except ConfigError as exc:
            message = str(exc)
        out.error(self.code or code, message)
        return BAD


def number(lo=None, above=None, below=None, integer=False) -> Kind:
    """A finite number (never a bool): ``lo`` is an inclusive bound,
    ``above`` and ``below`` are exclusive ones."""
    bounds = " and ".join(
        f"{sign} {bound:g}" for sign, bound in
        ((">=", lo), (">", above), ("<", below)) if bound is not None
    )
    types = int if integer else (int, float)
    return Kind(
        f"{'an integer' if integer else 'a number'} {bounds}".strip(),
        lambda v: not isinstance(v, bool) and isinstance(v, types)
        and -math.inf < v < math.inf
        and (lo is None or v >= lo) and (above is None or v > above)
        and (below is None or v < below),
    )


def choice(values: Sequence, fold: bool = False) -> Kind:
    """One of ``values``, matched by type as well as by equality (0 is
    not ``False``); ``fold`` compares strings case-insensitively."""
    def test(v):
        v = v.lower() if fold and isinstance(v, str) else v
        return any(v == c and type(v) is type(c) for c in values)

    return Kind("one of " + ", ".join(json.dumps(c) for c in values), test)


NUMBER, POSITIVE, NON_NEGATIVE = number(), number(above=0), number(lo=0)
INT, COUNT, NATURAL = (number(lo=lo, integer=True) for lo in (None, 1, 0))
BOOL = Kind("a bool", lambda v: isinstance(v, bool))
STR = Kind("a non-empty string", lambda v: isinstance(v, str) and v != "")


PATTERN = Kind(
    "a pattern expression",
    lambda v: isinstance(v, str) and bool(PatternExpression.parse(v)),
    code="W006",
)


class Each:
    """A list (``of=list``) or a string-keyed mapping (``of=dict``)
    whose elements all read as ``elem`` (None: anything goes)."""

    def __init__(self, of: type, elem=None, non_empty: bool = False) -> None:
        self.of, self.elem, self.non_empty = of, elem, non_empty
        inner = "any" if elem is None else elem.name
        self.name = f"[{inner}, ...]" if of is list else f"{{string: {inner}}}"

    def read(self, value, out, what, code):
        if not isinstance(value, self.of) or not all(
            isinstance(k, str) for k in (value if self.of is dict else ())
        ):
            shape = "list" if self.of is list else "mapping with string keys"
            out.error("W005", f"{what} must be a {shape}")
            return BAD
        if self.non_empty and not value:
            out.error(code, f"{what} must not be empty")
            return BAD
        items = list(value.items() if self.of is dict else enumerate(value))
        if self.elem is not None:
            items = [
                (k, self.elem.read(v, out.at(k), f"{what}[{k!r}]", code))
                for k, v in items
            ]
        if any(v is BAD for _, v in items):
            return BAD
        return dict(items) if self.of is dict else [v for _, v in items]


# ----------------------------------------------------------------------
# Rows and sections
# ----------------------------------------------------------------------

class Key(NamedTuple):
    """One row of the table.  ``default`` is in canonical units; a
    :class:`Section` kind defaults to its own all-defaults view, or —
    when ``default`` is None — stays None when absent."""

    name: str
    kind: object
    default: object = None
    doc: str = ""
    required: bool = False

    def fresh_default(self):
        if isinstance(self.kind, Section) and self.default is not None:
            return self.kind.read({}, DiagnosticCollector())
        return copy.copy(self.default)


class Section:
    """A mapping with a fixed key set.

    Args:
        label: how diagnostics and the docs name the section.
        keys: its rows.
        rules: cross-field checks ``rule(view, block, out)``, run after
            the rows; they may also settle derived values on the view.
        code: rule code of a bad scalar value in this section.
        noun: what W003 messages call a key of the section.
    """

    def __init__(self, label: str, keys: Sequence[Key],
                 rules: Sequence[Callable] = (), code: str = "W016",
                 noun: str = "key") -> None:
        self.label, self.noun, self.code = label, noun, code
        self.name = f"{label} mapping"
        self.keys, self.rules = list(keys), list(rules)
        self._names = frozenset(row.name for row in keys)
        # A short section names the alternatives in its W003 messages.
        self._expected = (
            f" (expected {sorted(self._names)})" if len(keys) <= 8 else ""
        )

    def read(self, block, out: DiagnosticCollector, what="", code=""):
        """Walk ``block``: report into ``out``, return the typed view."""
        if not isinstance(block, dict):
            out.error("W005", f"{self.label} must be a mapping")
            return self.read({}, DiagnosticCollector())
        for key in sorted((k for k in block if k not in self._names), key=str):
            out.at(key).error(
                "W003",
                f"unknown {self.label} {self.noun} {key!r}{self._expected}",
            )
        values: Dict[str, object] = {}
        spelled: Dict[str, str] = {}
        for row in self.keys:
            attr, scale = canonical(row.name)
            raw = block.get(row.name)
            if raw is None:
                if row.required:
                    out.error(self.code, f"{self.label} needs {row.name!r}")
                values.setdefault(attr, row.fresh_default())
                continue
            if attr in spelled:
                out.at(row.name).error(
                    "W004",
                    f"conflicting time spellings for "
                    f"{attr.rpartition('_')[0]!r}: {[spelled[attr], row.name]}",
                )
                continue
            spelled[attr] = row.name
            what = f"{self.label} {row.name}"
            value = row.kind.read(raw, out.at(row.name), what, self.code)
            if scale != 1 and value is not BAD:
                # Ranges hold after conversion too: 1e-7 ms is not > 0 ns.
                value *= scale
                value = row.kind.read(
                    int(value) if abs(value) != math.inf else value,
                    out.at(row.name), f"{what}, in {attr.rpartition('_')[2]},",
                    self.code,
                )
            values[attr] = row.fresh_default() if value is BAD else value
        view = SimpleNamespace(**values)
        for rule in self.rules:
            rule(view, block, out)
        return view


def _arg(fn, name: str):
    """The default a component declares for one of its parameters: the
    component owns it, the table points at it."""
    return inspect.signature(fn).parameters[name].default


# ----------------------------------------------------------------------
# Operator plugin blocks
# ----------------------------------------------------------------------

_OPERATOR_DEFAULTS = {
    f.name: f.default_factory() if f.default is dataclasses.MISSING else f.default
    for f in dataclasses.fields(OperatorConfig) if f.name != "name"
}


def _op(name: str, kind, doc: str) -> Key:
    return Key(name, kind, _OPERATOR_DEFAULTS[canonical(name)[0]], doc)


def _unit_defining_output(view, block, out) -> None:
    if view.outputs and PatternExpression.parse(view.outputs[0]).anchor == "unit":
        out.at("outputs", 0).error(
            "W007",
            f"the unit-defining output expression must carry a level "
            f"pattern, got bare {view.outputs[0]!r}",
        )


OPERATOR = Section("operator", [
    *(
        _op(f"{stem}_{unit}", kind, doc)
        for stem, kind, doc in (
            ("interval", POSITIVE, "computation period of online operators"),
            ("window", NON_NEGATIVE,
             "history each computation queries (0 = latest value only)"),
            ("delay", NON_NEGATIVE,
             "defers the first online computation (lets upstream stages "
             "produce their sensors first)"),
        )
        for unit in ("ns", "ms", "s")
    ),
    _op("mode", choice(MODES),
        "`online` = periodic, stored output; `ondemand` = computed only on "
        "`PUT /analytics/operators/<name>/compute?unit=<path>`, never stored"),
    _op("unit_mode", choice(UNIT_MODES),
        "`sequential` = units share one model and run in order; `parallel` = "
        "one model per unit, computed by `max_workers` threads"),
    _op("max_workers", COUNT, "worker threads of `parallel` unit mode"),
    _op("unit_cadence", COUNT,
        "compute each unit only every Nth pass, staggered by index"),
    _op("fusion", choice(FUSION_MODES),
        "join a fused pipeline group: `\"auto\"` when the chain is eligible, "
        "`false` never, `true` also without a window kernel or as the job "
        "operator ending a chain"),
    _op("relaxed", BOOL,
        "skip units whose inputs do not resolve instead of failing the block"),
    _op("publish_outputs", BOOL,
        "forward outputs over MQTT (cross-host pipelines need it)"),
    _op("inputs", Each(list, PATTERN), "pattern expressions of the unit inputs"),
    _op("outputs", Each(list, PATTERN),
        "pattern expressions of the unit outputs; the first defines the units"),
    _op("operator_outputs", Each(list, STR),
        "operator-level aggregate sensors, `/analytics/<operator>/<name>`"),
    _op("params", Each(dict), "plugin-specific parameters (`docs/PLUGINS.md`)"),
    _op("breaker_threshold", NATURAL,
        "consecutive failed passes before a unit is quarantined (0 = never)"),
    _op("breaker_cooldown", COUNT,
        "passes a quarantined unit sits out before a half-open probe"),
    _op("breaker_max_cooldown", COUNT,
        "ceiling of the cooldown, which doubles on every failed probe"),
], rules=[_unit_defining_output], code="W005")


def _named_and_populated(view, block, out) -> None:
    if block.get("plugin") is None:
        out.error("W001", "plugin configuration must name its 'plugin'")
    if block.get("operators") in (None, {}):
        out.at("operators").error(
            "W002", "'operators' must be a non-empty mapping"
        )


PLUGIN_BLOCK = Section("plugin block", [
    Key("plugin", STR, None, "name of a registered operator plugin"),
    Key("operators", Each(dict, OPERATOR), {},
        "operator name -> operator block (at least one)"),
], rules=[_named_and_populated], code="W005")


def check_plugin_name(view, out, known_plugins: Sequence[str] = ()) -> None:
    """W001 unless the plugin a block's view names is registered or
    among ``known_plugins``.  (A bare block walk leaves the registry to
    :func:`create_operator`.)"""
    known = set(available_plugins()) | set(known_plugins)
    if view.plugin is not None and view.plugin not in known:
        out.at("plugin").error(
            "W001",
            f"unknown operator plugin {view.plugin!r}; "
            f"registered: {sorted(known)}",
        )


def operator_config(name: str, view) -> OperatorConfig:
    """The :class:`OperatorConfig` of one operator's typed view (its
    lists and ``params`` copied: one view may configure many hosts)."""
    return OperatorConfig(
        name=name, **{k: copy.copy(v) for k, v in vars(view).items()}
    )


def refuse(what: str, diagnostics) -> None:
    """Raise a :class:`ConfigError` carrying the error-severity findings
    among ``diagnostics``, if there are any."""
    errors = [d for d in diagnostics if d.severity == ERROR]
    if errors:
        raise ConfigError(
            f"{what}: {len(errors)} configuration error(s)\n"
            + "\n".join(f"  {d}" for d in errors),
            diagnostics=errors,
        )


# ----------------------------------------------------------------------
# Deployment specs
# ----------------------------------------------------------------------

def _cluster_nodes(view, block, out) -> None:
    grid = view.racks and (
        view.racks * view.chassis_per_rack * view.nodes_per_chassis
    )
    if grid and view.nodes and view.nodes > grid:
        out.at("nodes").error(
            "W016", f"cluster nodes {view.nodes} exceed the {grid}-slot grid"
        )
        view.nodes = None
    view.nodes = view.nodes or grid or _arg(ClusterSpec.small, "nodes")


def cluster_spec(cluster) -> ClusterSpec:
    """The simulator's :class:`ClusterSpec` of a ``cluster`` view."""
    if cluster.racks is not None:
        return ClusterSpec(
            cluster.racks, cluster.chassis_per_rack,
            cluster.nodes_per_chassis, cluster.cpus, cluster.nodes,
        )
    if cluster.preset is not None:
        return ClusterSpec.coolmuc3()
    return ClusterSpec.small(nodes=cluster.nodes, cpus=cluster.cpus)


def _at_most(low: str, high: str) -> Callable:
    """Rule: the value of key ``low`` may not exceed that of ``high``."""
    def rule(view, block, out) -> None:
        if getattr(view, canonical(low)[0]) > getattr(view, canonical(high)[0]):
            out.at(low).error("W016", f"{low} cannot exceed {high}")

    return rule


def _ends_after_start(view, block, out) -> None:
    if view.end_ns is not None and view.end_ns <= view.start_ns:
        out.error("W016", f"{out.prefix} must end after it starts")


CLUSTER = Section("cluster", [
    Key("nodes", COUNT, None,
        "compute nodes: 4 in one rack, or a grid's slots (fewer truncates it)"),
    Key("cpus", COUNT, _arg(ClusterSpec.small, "cpus"), "cores per node"),
    Key("seed", INT, DEFAULT_SEED, "seed of the simulated hardware and workloads"),
    Key("anomalies", Each(dict, NUMBER), {},
        "node path -> power multiplier (planted faults)"),
    Key("racks", COUNT, None,
        "lay nodes out as `racks` x `chassis_per_rack` x `nodes_per_chassis`"),
    Key("chassis_per_rack", COUNT, 1, "grid dimension (with `racks`)"),
    Key("nodes_per_chassis", COUNT, 1, "grid dimension (with `racks`)"),
    Key("preset", choice(("coolmuc3",)), None,
        "a named shape instead: 148 nodes x 64 cores, the paper's testbed"),
], rules=[_cluster_nodes])

MONITORING = Section("monitoring", [
    Key("plugins", Each(list, choice(tuple(MONITORING_PLUGINS))), ["sysfs"],
        "monitoring plugins every node's Pusher loads"),
    Key("perfevent_counters", Each(list, choice(CPU_COUNTERS), non_empty=True),
        None, "the per-CPU counters `perfevent` samples (default: all)"),
    Key("interval_ms", POSITIVE, _arg(MonitoringPlugin, "interval_ns"),
        "sampling period of every plugin"),
    Key("cache_window_s", POSITIVE, _arg(Pusher, "cache_window_ns"),
        "history the sensor caches of Pushers and agent retain"),
    Key("tester_sensors", COUNT, 100,
        "monotonic counters per node the `tester` plugin produces"),
])

FACILITY = Section("facility", [
    Key("enabled", BOOL, False,
        "attach the cooling loop and its Pusher under `/facility/cooling`"),
    Key("setpoint_c", NUMBER, None, "initial chiller setpoint"),
    Key("interval_s", POSITIVE, _arg(FacilityPlugin, "interval_ns"),
        "sampling period of the facility sensors"),
])

JOB = Section("job", [
    Key("app", choice(tuple(APP_PROFILES), fold=True), None,
        "application profile the job runs", required=True),
    Key("nodes", COUNT, 1, "node count, allocated first-come-first-served"),
    Key("node_paths", Each(list, STR, non_empty=True), None,
        "explicit allocation instead of `nodes`"),
    Key("start_s", NON_NEGATIVE, 0, "start time"),
    Key("end_s", NON_NEGATIVE, None, "end time, after `start_s`", required=True),
    Key("id", STR, None, "job id (default: generated)"),
], rules=[_ends_after_start])

OUTAGE = Section("outage", [
    Key("start_s", NON_NEGATIVE, 0, "start of the down-window", required=True),
    Key("end_s", NON_NEGATIVE, None, "its end, after `start_s`", required=True),
    Key("destinations", Each(list, STR, non_empty=True), None,
        "topic prefixes the outage cuts off (default: the whole link)"),
], rules=[_ends_after_start])

SPILL = Section("spill", [
    Key("capacity", COUNT, _arg(Pusher, "spill_capacity"),
        "refused readings one Pusher buffers for replay"),
    Key("policy", choice(SPILL_POLICIES), _arg(Pusher, "spill_policy"),
        "which reading a full spill queue sheds"),
    Key("retry_base_ms", POSITIVE, _arg(Pusher, "retry_base_ns"),
        "first reconnect delay; doubles per failed attempt"),
    Key("retry_max_ms", POSITIVE, _arg(Pusher, "retry_max_ns"),
        "ceiling of the reconnect delay"),
    Key("seed", NATURAL, _arg(Pusher, "retry_seed"), "seed of the reconnect jitter"),
], rules=[_at_most("retry_base_ms", "retry_max_ms")])

INGEST = Section("ingest", [
    Key("queue_capacity", COUNT, _arg(CollectAgent, "ingest_queue_capacity"),
        "bound of the agent's MQTT ingest queue (default: unbounded)"),
    Key("policy", choice(QUEUE_POLICIES), _arg(CollectAgent, "ingest_policy"),
        "which message a full ingest queue sheds"),
])

NETWORK = Section("network", [
    Key("latency_ms", NON_NEGATIVE, _arg(NetworkConditions, "latency_ns"),
        "constant delivery delay of every message"),
    Key("jitter_ms", NON_NEGATIVE, _arg(NetworkConditions, "jitter_ns"),
        "uniform +/- jitter on the delay (reorders messages in flight)"),
    Key("drop_probability", number(lo=0, below=1),
        _arg(NetworkConditions, "drop_probability"),
        "fraction of messages silently lost"),
    Key("seed", NATURAL, _arg(NetworkConditions, "seed"), "seed of jitter and loss"),
    Key("outages", Each(list, OUTAGE), [],
        "windows in which the link refuses publishes (they spill)"),
    Key("spill", SPILL, {}, "the Pushers' store-and-forward queue"),
    Key("ingest", INGEST, {}, "the Collect Agent's ingest queue"),
], rules=[_at_most("jitter_ms", "latency_ms")])

ROLLUPS = Section("rollups", [
    Key("after_s", NON_NEGATIVE, _arg(TieredStorageBackend, "rollup_after_ns"),
        "age at which raw segments become 10 s min/mean/max/count buckets"),
    Key("minute_after_s", NON_NEGATIVE,
        _arg(TieredStorageBackend, "rollup_minute_after_ns"),
        "age at which 10 s buckets become 1 min ones (0 = never, both)"),
])

RETENTION = Section("retention", [
    Key("raw_s", NON_NEGATIVE, _arg(TieredStorageBackend, "retention_raw_ns"),
        "drop raw segments wholly older than this (0 = keep forever)"),
    Key("rollup_s", NON_NEGATIVE,
        _arg(TieredStorageBackend, "retention_rollup_ns"),
        "the same for rollup segments"),
])


def _storage_horizons(view, block, out) -> None:
    after = view.rollups.after_ns
    if 0 < view.rollups.minute_after_ns <= after:
        out.at("rollups", "minute_after_s").warning(
            "W016",
            "minute_after_s should exceed after_s — 1-minute compaction "
            "would chase the 10s rollup immediately",
        )
    if 0 < view.retention.raw_ns <= after:
        out.at("retention", "raw_s").warning(
            "W016",
            "retention raw_s <= rollups after_s: raw segments expire "
            "before they can roll up, losing history the rollup tier "
            "was meant to keep",
        )
    if view.tiers == "memory":
        for key in ("dir", "flush_mb", "flush_interval_s", "rollups",
                    "retention"):
            if block.get(key):
                out.at(key).warning(
                    "W003", f"storage {key} has no effect with tiers='memory'"
                )


STORAGE = Section("storage", [
    Key("tiers", choice(("memory", "tiered")), "memory",
        "`memory` = in-memory backend; `tiered` = hot memory tier plus "
        "on-disk segment files"),
    Key("dir", STR, None,
        "segment directory; reopening it replays every sealed segment "
        "(default: a fresh scratch directory)"),
    Key("flush_mb", POSITIVE, int(_arg(TieredStorageBackend, "flush_mb") * MIB),
        "memory-tier budget: a sweep past it seals all series into a segment"),
    Key("flush_interval_s", POSITIVE,
        _arg(TieredStorageBackend, "maintenance_interval_ns"),
        "cadence of the maintenance sweep (flush check, rollups, retention)"),
    Key("ttl_s", NON_NEGATIVE, _arg(StorageBackend, "ttl_ns"),
        "expiry sweep over the memory tier (0 = off)"),
    Key("rollups", ROLLUPS, {}, "age-based downsampling of sealed segments"),
    Key("retention", RETENTION, {}, "age-based deletion of sealed segments"),
], rules=[_storage_horizons])

ANALYTICS = Section("analytics", [
    Key("pushers", Each(list, PLUGIN_BLOCK), [],
        "plugin blocks loaded into every node Pusher's manager"),
    Key("agent", Each(list, PLUGIN_BLOCK), [],
        "plugin blocks loaded into the Collect Agent's manager; they "
        "resolve against what the Pushers publish (sampled sensors and "
        "published operator outputs of every node, the facility's), "
        "known at build time — no traffic has to arrive first"),
])


def _job_nodes_exist(view, block, out) -> None:
    if any(job.node_paths for job in view.jobs):
        nodes = set(ClusterTopology(cluster_spec(view.cluster)).node_paths)
        for i, job in enumerate(view.jobs):
            for path in set(job.node_paths or ()) - nodes:
                out.at("jobs", i, "node_paths").error(
                    "W016", f"job names unknown node path {path!r}"
                )


DEPLOYMENT = Section("deployment", [
    Key("cluster", CLUSTER, {}, "shape and seed of the simulated cluster",
        required=True),
    Key("monitoring", MONITORING, {}, "what every node's Pusher samples"),
    Key("jobs", Each(list, JOB), [], "the job schedule"),
    Key("facility", FACILITY, {}, "the cooling loop"),
    Key("analytics", ANALYTICS, {}, "operator plugin blocks per host kind"),
    Key("network", NETWORK, None,
        "interpose a simulated link between Pushers and broker (default: none)"),
    Key("storage", STORAGE, {}, "the Collect Agent's persistence tier"),
    Key("ignore", Each(list, STR), [],
        "flow (F) rule codes `check --flow` suppresses for this spec"),
], rules=[_job_nodes_exist], noun="section")


def read_deployment(
    spec, out: Optional[DiagnosticCollector] = None,
    known_plugins: Sequence[str] = (),
):
    """Walk a whole deployment spec: every structural diagnostic goes to
    ``out``; returns the typed view, or None when ``spec`` is no mapping.

    This is all :func:`repro.deploy.build_deployment` validates and all
    it reads, so it refuses exactly what ``check --config`` reports as
    a structural error."""
    out = out if out is not None else DiagnosticCollector()
    if not isinstance(spec, dict):
        out.error("W005", "deployment spec must be a mapping")
        return None
    view = DEPLOYMENT.read(spec, out)
    for context, blocks in vars(view.analytics).items():
        for i, block in enumerate(blocks):
            check_plugin_name(
                block, out.at("analytics", context, i), known_plugins
            )
    return view


# ----------------------------------------------------------------------
# Documentation
# ----------------------------------------------------------------------

#: marker name -> section, for ``<!-- spec:NAME -->`` blocks in the docs.
SECTIONS = {
    s.label.split()[0]: s for s in (
        OPERATOR, PLUGIN_BLOCK, DEPLOYMENT, CLUSTER, MONITORING, FACILITY,
        JOB, ANALYTICS, NETWORK, OUTAGE, SPILL, INGEST, STORAGE, ROLLUPS,
        RETENTION,
    )
}


def render_table(section: Section) -> str:
    """Markdown key table of one section.  Spellings of one quantity
    share a row; its default is in the unit of the key named first."""
    grouped: Dict[str, List[Key]] = {}
    for row in section.keys:
        grouped.setdefault(canonical(row.name)[0], []).insert(0, row)
    lines = ["| key | type | default | meaning |", "|---|---|---|---|"]
    for row, *others in grouped.values():
        name = f"`{row.name}`"
        if others:
            name += " (or " + ", ".join(
                f"`_{r.name.rpartition('_')[2]}`" for r in others
            ) + ")"
        default, scale = row.default, canonical(row.name)[1]
        if isinstance(row.kind, Section):
            default = None
        elif scale != 1 and default is not None:
            default = float(f"{default / scale:g}")
            default = int(default) if default.is_integer() else default
        cell = "—" if default is None else f"`{json.dumps(default)}`"
        need = " (required)" if row.required else ""
        lines.append(f"| {name} | {row.kind.name}{need} | {cell} | {row.doc} |")
    return "\n".join(lines)


def render_docs(text: str) -> str:
    """``text`` with every ``<!-- spec:NAME -->…<!-- /spec -->`` block
    filled with the named section's key table."""
    return re.sub(
        r"(<!-- spec:(\w+) -->\n).*?(<!-- /spec -->)",
        lambda m: f"{m[1]}{render_table(SECTIONS[m[2]])}\n{m[3]}",
        text, flags=re.DOTALL,
    )
