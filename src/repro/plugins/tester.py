"""Tester operator plugin (Section VI-A).

The overhead study instantiates operators that "simply perform a certain
number of queries over the input sensors of their units".  This plugin
reproduces that driver: at each computation interval it issues a
configurable number of Query Engine requests, in relative or absolute
mode, over a configurable time range, and reports how many readings the
queries returned.

Params:
    ``queries`` (int): queries per computation interval (default 10).
    ``query_mode`` (str): ``relative`` or ``absolute`` (default
        ``relative``); selects the O(1) vs O(log N) engine path.
    ``range_ns`` / ``range_ms`` (number): temporal range per query;
        0 retrieves only the most recent value of each sensor.
    ``fail_filter`` (str): **failure injection** for circuit-breaker
        testing; a regular expression matched against unit names whose
        computations then raise :class:`PluginError`.
    ``fail_passes`` (int): how many computation attempts of a matching
        unit fail before it heals; ``-1`` (default) fails forever.
    ``misbehave`` (str): **fault injection** for sanitizer validation;
        deliberately violates one concurrency invariant per computation:
        ``shared_model`` (one model object aliased across parallel
        units, rule R004) or ``mutate_view`` (writes into a query
        result after hand-out, rule R007).  Default off.
"""

from __future__ import annotations

from typing import Dict

import re

from repro.common.errors import ConfigError, PluginError
from repro.common.timeutil import NS_PER_MS
from repro.core.operator import OperatorBase, OperatorConfig
from repro.core.registry import operator_plugin
from repro.core.units import Unit

#: Deliberate invariant violations the tester can inject on request.
MISBEHAVE_MODES = ("shared_model", "mutate_view")


@operator_plugin("tester")
class TesterOperator(OperatorBase):
    """Issues synthetic Query Engine load and counts retrieved readings."""

    @classmethod
    def flow_transforms(cls, params: dict) -> Dict[str, object]:
        # Reading counts are pure numbers.
        return {"*": "dimensionless"}

    __test__ = False  # not a pytest test class despite the name

    def __init__(self, config: OperatorConfig) -> None:
        super().__init__(config)
        params = config.params
        self.n_queries = int(params.get("queries", 10))
        if self.n_queries < 1:
            raise ConfigError(f"{config.name}: queries must be >= 1")
        self.query_mode = params.get("query_mode", "relative")
        if self.query_mode not in ("relative", "absolute"):
            raise ConfigError(
                f"{config.name}: query_mode must be relative|absolute"
            )
        if "range_ns" in params:
            self.range_ns = int(params["range_ns"])
        else:
            self.range_ns = int(params.get("range_ms", 0) * NS_PER_MS)
        if self.range_ns < 0:
            raise ConfigError(f"{config.name}: range must be >= 0")
        self.misbehave = params.get("misbehave")
        if self.misbehave is not None and self.misbehave not in MISBEHAVE_MODES:
            raise ConfigError(
                f"{config.name}: misbehave must be one of "
                f"{', '.join(MISBEHAVE_MODES)}"
            )
        fail_filter = params.get("fail_filter")
        try:
            self.fail_filter = (
                re.compile(fail_filter) if fail_filter is not None else None
            )
        except re.error as exc:
            raise ConfigError(
                f"{config.name}: bad fail_filter regex: {exc}"
            ) from exc
        self.fail_passes = int(params.get("fail_passes", -1))
        self._fail_counts: Dict[str, int] = {}
        # The aliased "model" behind the shared_model fault: every unit
        # receives this same dict, reproducing the classic bug of a model
        # cached on the plugin instead of placed per-unit.
        self._bug_model: Dict[str, int] = {}

    def make_model(self):
        if self.misbehave == "shared_model":
            return self._bug_model
        return None

    def compute_unit(self, unit: Unit, ts: int) -> Dict[str, float]:
        assert self.engine is not None
        self._maybe_fail(unit)
        retrieved = 0
        n_inputs = len(unit.inputs)
        if n_inputs == 0:
            return {}
        view = None
        for q in range(self.n_queries):
            topic = unit.inputs[q % n_inputs]
            if self.query_mode == "relative":
                view = self.engine.query_relative(topic, self.range_ns)
            else:
                view = self.engine.query_absolute(
                    topic, ts - self.range_ns, ts
                )
            retrieved += len(view)
        self._inject_fault(unit, ts, view)
        return {sensor.name: float(retrieved) for sensor in unit.outputs}

    def _maybe_fail(self, unit: Unit) -> None:
        """Raise for units matching ``fail_filter``, ``fail_passes`` times.

        Exercises the operator error path (and the circuit breaker built
        on it) through the real compute stack rather than a mock.
        """
        if self.fail_filter is None or not self.fail_filter.search(unit.name):
            return
        count = self._fail_counts.get(unit.name, 0)
        if self.fail_passes >= 0 and count >= self.fail_passes:
            return
        self._fail_counts[unit.name] = count + 1
        raise PluginError(
            f"injected failure for unit {unit.name} "
            f"(attempt {count + 1})"
        )

    def _inject_fault(self, unit: Unit, ts: int, view) -> None:
        """Deliberately violate the invariant selected by ``misbehave``.

        Each branch is a *bug on purpose*, kept for sanitizer validation.
        """
        if self.misbehave is None:
            return
        if self.misbehave == "shared_model":
            model = self.model_for(unit)
            model[unit.name] = ts  # concurrent writes to the aliased dict
        elif self.misbehave == "mutate_view" and view is not None and len(view):
            view.values()[0] += 1.0
