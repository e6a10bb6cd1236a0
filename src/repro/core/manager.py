"""The Operator Manager (Section V-A).

The central entity responsible for reading Wintermute configuration,
loading operator plugins and managing their life cycle.  It is the main
interface between Wintermute and DCDB: once bound to a host (Pusher or
Collect Agent) it owns that host's Query Engine, schedules online
operators on the host's task scheduler, and registers the ODA RESTful
routes (start/stop/reload, on-demand triggering) on the host's API.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from repro.common.errors import ConfigError, PluginError
from repro.core.configurator import Configurator
from repro.core.fusion import FusedGroup
from repro.core.operator import JobOperatorBase, OperatorBase
from repro.core.pipeline import FusionSpec, plan_fusion
from repro.core.queryengine import QueryEngine
from repro.dcdb.restapi import RestResponse
from repro.telemetry import MetricRegistry


class OperatorManager:
    """Plugin lifecycle and scheduling for one analytics host.

    Args:
        context: host-level context injected into operator constructors
            that declare matching parameters — most importantly
            ``job_source`` for job operator plugins.
    """

    def __init__(self, context: Optional[Dict[str, object]] = None) -> None:
        self.host = None
        self.engine: Optional[QueryEngine] = None
        self._context: Dict[str, object] = dict(context or {})
        self._operators: Dict[str, OperatorBase] = {}
        self._plugin_of: Dict[str, str] = {}
        self._tasks: Dict[str, object] = {}
        self._fused_groups: Dict[str, FusedGroup] = {}
        self._telemetry = MetricRegistry()
        self._init_metrics(self._telemetry)

    def _init_metrics(self, registry: MetricRegistry) -> None:
        self._m_busy = registry.counter("analytics_busy_ns_total")
        self._m_fusion_pass = registry.histogram("fusion_pass_seconds")
        registry.gauge("fused_groups", fn=lambda: len(self._fused_groups))
        registry.gauge("fused_chains", fn=lambda: sum(
            len(g.lanes) for g in self._fused_groups.values()))

    @property
    def analytics_busy_ns(self) -> int:
        """Wall-clock ns spent in operator computations on this host."""
        return self._m_busy.value

    # ------------------------------------------------------------------
    # Host binding
    # ------------------------------------------------------------------

    def bind_host(self, host) -> None:
        """Attach to a Pusher or Collect Agent (its ``attach_analytics``
        calls this)."""
        self.host = host
        registry = getattr(host, "telemetry", None)
        if registry is not None and registry is not self._telemetry:
            registry.absorb(self._telemetry)
            self._telemetry = registry
            self._init_metrics(registry)
        self.engine = QueryEngine(host)
        self._context.setdefault("host", host)
        host.rest.register("GET", "/analytics/operators", self._route_list)
        host.rest.register("PUT", "/analytics/operators", self._route_action)
        host.rest.register("GET", "/analytics/plugins", self._route_plugins)
        host.rest.register("GET", "/analytics/units", self._route_breaker_get)
        host.rest.register("PUT", "/analytics/units", self._route_breaker_put)

    def _require_host(self) -> None:
        if self.host is None or self.engine is None:
            raise PluginError("OperatorManager is not bound to a host")

    # ------------------------------------------------------------------
    # Plugin loading
    # ------------------------------------------------------------------

    def load_plugin(self, config, start: bool = True) -> List[OperatorBase]:
        """Load one plugin configuration block (or its typed view, see
        :class:`Configurator`).

        Builds its operators, resolves their units against the host's
        current sensor tree, schedules the online ones and (optionally)
        starts them.  Returns the created operators.
        """
        self._require_host()
        assert self.engine is not None
        configurator = Configurator(config, self._context)
        operators = configurator.build()
        for op in operators:
            if op.name in self._operators:
                raise ConfigError(f"duplicate operator name {op.name!r}")
        # Pipelines: upstream stages may have created sensors after this
        # engine was built — bring the sensor space up to date first.
        self.engine.refresh_navigator()
        tree = self.engine.navigator.tree
        for op in operators:
            op.bind(self.host, self.engine)
            op.init_units(tree)
            # Announce this stage's outputs so later stages (this block
            # or the next) resolve against them before any pass stored.
            self.engine.declare_topics(
                s.topic for u in op.units for s in u.outputs
            )
            self._operators[op.name] = op
            self._plugin_of[op.name] = configurator.plugin_name
            if op.config.mode == "online":
                task = self.host.scheduler.add_callback(
                    f"{self.host.name}:analytics:{op.name}",
                    lambda ts, o=op: self._run_operator(o, ts),
                    op.config.interval_ns,
                    first_due=self.host.scheduler.clock.now + op.config.delay_ns,
                )
                self._tasks[op.name] = task
            if start:
                op.start()
        if self._fused_groups:
            # A live fusion plan may gain members (or lose eligibility —
            # the new block could subscribe to a fused intermediate).
            self.refresh_fusion()
        return operators

    def _run_operator(self, op: OperatorBase, ts: int) -> None:
        t0 = time.perf_counter_ns()
        op.run(ts)
        self._m_busy.inc(time.perf_counter_ns() - t0)

    def unload_operator(self, name: str) -> None:
        """Stop and forget one operator: its task is retired from the
        scheduler and its query plan dropped, so nothing keeps the
        operator, or the rings it read, alive."""
        op = self._operators.pop(name, None)
        if op is None:
            raise PluginError(f"no operator {name!r}")
        replan = bool(self._fused_groups)
        op.stop()
        task = self._tasks.pop(name, None)
        if task is not None:
            self.host.scheduler.retire(task)
        self._plugin_of.pop(name, None)
        self.engine.forget_plan(op.plan_key)
        if replan:
            self.refresh_fusion()

    # ------------------------------------------------------------------
    # Pipeline fusion
    # ------------------------------------------------------------------

    def fused_groups(self) -> List[FusedGroup]:
        """The live fused groups (one per stack), in registration order."""
        return list(self._fused_groups.values())

    def _fusion_specs(self) -> List[FusionSpec]:
        """Planner input for the live operators, registration order."""
        return [
            FusionSpec.of(
                op.name, f"{self._plugin_of.get(op.name, '?')}/{op.name}",
                op.config, type(op), op.units,
                phase=getattr(self._tasks.get(op.name), "next_due", None),
            )
            for op in self._operators.values()
        ]

    def refresh_fusion(self) -> List[List[str]]:
        """(Re)plan fused groups over the currently loaded operators.

        Dissolves any existing groups first — member tasks were only
        *disabled* (they stay in the scheduler heap with their phase
        preserved), so dissolving re-enables them and restores the
        leader's per-operator callback.  Each planned stack then runs
        as one scheduled pass at its first leader's slot: the leader
        task's callback is rebound to the group driver and the other
        members' tasks are disabled.  Returns the planned member-name
        groups.
        """
        self._require_host()
        assert self.engine is not None
        for group in self._fused_groups.values():
            leader = group.ops[0]
            task = self._tasks.get(leader.name)
            if task is not None:
                task.fn = lambda ts, o=leader: self._run_operator(o, ts)
            for member in group.ops[1:]:
                task = self._tasks.get(member.name)
                if task is not None:
                    task.enabled = True
        dissolved = {g.plan_key for g in self._fused_groups.values()}
        self._fused_groups.clear()
        plan = plan_fusion(
            self._fusion_specs(),
            host_has_storage=getattr(self.host, "storage", None) is not None,
        )
        for stack in plan.stacks:
            # A lane whose leader lost its schedule slot stays staged.
            lanes = [[self._operators[n] for n in names]
                     for names in stack if names[0] in self._tasks]
            if not lanes:
                continue
            group = FusedGroup(
                f"{self.host.name}:fused:{'+'.join(op.name for op in lanes[0])}",
                lanes, self.host, self.engine,
            )
            leader = group.ops[0]
            self._tasks[leader.name].fn = lambda ts, g=group: self._run_fused_group(g, ts)
            for member in group.ops[1:]:
                task = self._tasks.get(member.name)
                if task is not None:
                    task.enabled = False
            self._fused_groups[leader.name] = group
        # A group not planned again leaves its query plan behind.
        for key in dissolved - {g.plan_key for g in self._fused_groups.values()}:
            self.engine.forget_plan(key)
        return plan.groups

    def _run_fused_group(self, group: FusedGroup, ts: int) -> None:
        t0 = time.perf_counter_ns()
        group.run(ts)
        elapsed = time.perf_counter_ns() - t0
        self._m_busy.inc(elapsed)
        self._m_fusion_pass.observe(elapsed / 1e9)

    # ------------------------------------------------------------------
    # Operator access and control
    # ------------------------------------------------------------------

    def operator(self, name: str) -> OperatorBase:
        """Look up an operator by instance name."""
        try:
            return self._operators[name]
        except KeyError:
            raise PluginError(f"no operator {name!r}") from None

    def operators(self) -> List[OperatorBase]:
        """All managed operators."""
        return list(self._operators.values())

    def start_operator(self, name: str) -> None:
        """Enable an operator's computation."""
        self.operator(name).start()

    def stop_operator(self, name: str) -> None:
        """Disable an operator's computation."""
        self.operator(name).stop()

    def trigger(self, name: str, unit_name: str, ts: Optional[int] = None) -> dict:
        """Invoke an on-demand operator for one unit (Section IV-b)."""
        self._require_host()
        assert self.engine is not None
        op = self.operator(name)
        when = ts if ts is not None else self.host.scheduler.clock.now
        if isinstance(op, JobOperatorBase):
            op.refresh_units(when)
        t0 = time.perf_counter_ns()
        try:
            return op.trigger(unit_name, when, self.engine.navigator.tree)
        finally:
            self._m_busy.inc(time.perf_counter_ns() - t0)

    # ------------------------------------------------------------------
    # REST routes
    # ------------------------------------------------------------------

    def _route_plugins(self, request) -> RestResponse:
        return RestResponse.json({"plugins": sorted(set(self._plugin_of.values()))})

    def _route_list(self, request) -> RestResponse:
        return RestResponse.json(
            {"operators": [op.stats() for op in self._operators.values()]}
        )

    def _route_action(self, request) -> RestResponse:
        parts = request.path.strip("/").split("/")
        # /analytics/operators/<name>/<action>
        if len(parts) != 4:
            return RestResponse.error(
                "expected /analytics/operators/<name>/<action>", 400
            )
        name, action = parts[2], parts[3]
        try:
            if action == "start":
                self.start_operator(name)
                return RestResponse.json({"operator": name, "action": "start"})
            if action == "stop":
                self.stop_operator(name)
                return RestResponse.json({"operator": name, "action": "stop"})
            if action == "unload":
                self.unload_operator(name)
                return RestResponse.json({"operator": name, "action": "unload"})
            if action == "compute":
                unit = request.param("unit")
                if unit is None:
                    return RestResponse.error("missing 'unit' parameter", 400)
                values = self.trigger(name, unit)
                return RestResponse.json({"unit": unit, "values": values})
        except PluginError as exc:
            return RestResponse.error(str(exc), 404)
        except Exception as exc:  # bad unit names, resolution failures
            return RestResponse.error(str(exc), 400)
        return RestResponse.error(f"unknown action {action!r}", 400)

    def _parse_breaker_path(self, request):
        """``/analytics/units/<operator>/<unit path...>/breaker`` →
        ``(operator, unit_name)`` or an error response.

        Unit names are tree paths with slashes of their own, so the unit
        part is everything between the operator segment and the trailing
        ``breaker`` segment; the leading slash tree units carry is
        restored when the bare form doesn't name a unit.
        """
        parts = request.path.strip("/").split("/")
        if len(parts) < 5 or parts[:2] != ["analytics", "units"] or parts[-1] != "breaker":
            return None, RestResponse.error(
                "expected /analytics/units/<operator>/<unit>/breaker", 400
            )
        name, unit = parts[2], "/".join(parts[3:-1])
        try:
            op = self.operator(name)
        except PluginError as exc:
            return None, RestResponse.error(str(exc), 404)
        if op.unit_named(unit) is None and op.unit_named("/" + unit):
            unit = "/" + unit
        return (op, unit), None

    def _route_breaker_get(self, request) -> RestResponse:
        target, err = self._parse_breaker_path(request)
        if err is not None:
            return err
        op, unit = target
        try:
            return RestResponse.json(op.breaker_state(unit))
        except PluginError as exc:
            return RestResponse.error(str(exc), 404)

    def _route_breaker_put(self, request) -> RestResponse:
        target, err = self._parse_breaker_path(request)
        if err is not None:
            return err
        op, unit = target
        action = request.param("action")
        if action is None:
            return RestResponse.error("missing 'action' parameter", 400)
        try:
            return RestResponse.json(op.set_breaker(unit, action))
        except PluginError as exc:
            return RestResponse.error(str(exc), 404)
        except ConfigError as exc:
            return RestResponse.error(str(exc), 400)
