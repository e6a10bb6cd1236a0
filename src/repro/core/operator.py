"""Operator interface (Sections IV and V-C).

Operators are the computational entities performing ODA tasks.  Each
operator owns a set of units; when computation is invoked it iterates
through them, queries the input sensors through the Query Engine,
processes the readings, and stores results in the output sensors.

Configuration knobs follow the paper's workflow options:

- **mode**: ``online`` operators are invoked at regular intervals and
  produce time-series-like output; ``ondemand`` operators compute only
  when triggered through the REST API, returning (not storing) results.
- **unit management**: ``sequential`` units share one model and are
  processed in order (race-free); ``parallel`` units each get their own
  model instance and may be computed by a worker pool.
- **delay**: online operators can defer their first invocation, useful
  for pipeline stages that must wait for upstream data.
- **operator-level outputs**: aggregate sensors computed across all
  unit results (e.g. the average error of a model over its units).
"""

from __future__ import annotations

import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import repeat
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import ConfigError, PluginError, QueryError
from repro.common.timeutil import NS_PER_SEC
from repro.dcdb.sensor import Sensor, SensorColumns
from repro.core.breaker import CLOSED, OPEN, UnitBreaker, default_snapshot
from repro.core.queryengine import BatchWindow, QueryEngine
from repro.core.tree import SensorTree
from repro.core.units import Unit, UnitResolver, kept_units, same_units
from repro.sanitizer import hooks
from repro.telemetry import Histogram, MetricRegistry

MODES = ("online", "ondemand")
UNIT_MODES = ("sequential", "parallel")
FUSION_MODES = (False, "auto")


@dataclass
class OperatorConfig:
    """Declarative configuration of one operator.

    ``name`` is the operator instance name, unique within its manager.
    Every other field is a key of an operator block, times in ns: what
    it means and which values it takes are its row of the ``OPERATOR``
    table in :mod:`repro.spec` (rendered in ``docs/CONFIGURATION.md``),
    which takes its default from here.
    """

    name: str
    interval_ns: int = NS_PER_SEC
    mode: str = "online"
    unit_mode: str = "sequential"
    window_ns: int = 0
    delay_ns: int = 0
    relaxed: bool = False
    publish_outputs: bool = True
    max_workers: int = 1
    unit_cadence: int = 1
    fusion: object = "auto"
    breaker_threshold: int = 0
    breaker_cooldown: int = 4
    breaker_max_cooldown: int = 64
    inputs: List[str] = field(default_factory=list)
    outputs: List[str] = field(default_factory=list)
    operator_outputs: List[str] = field(default_factory=list)
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"operator {self.name}: bad mode {self.mode!r}")
        if self.unit_mode not in UNIT_MODES:
            raise ConfigError(
                f"operator {self.name}: bad unit_mode {self.unit_mode!r}"
            )
        if self.interval_ns <= 0:
            raise ConfigError(
                f"operator {self.name}: interval must be positive"
            )
        if self.window_ns < 0 or self.delay_ns < 0:
            raise ConfigError(
                f"operator {self.name}: window/delay must be non-negative"
            )
        if self.max_workers < 1:
            raise ConfigError(f"operator {self.name}: max_workers must be >= 1")
        if self.unit_cadence < 1:
            raise ConfigError(
                f"operator {self.name}: unit_cadence must be >= 1"
            )
        if self.fusion not in FUSION_MODES:
            raise ConfigError(
                f"operator {self.name}: fusion must be false or 'auto', "
                f"not {self.fusion!r}"
            )
        if self.breaker_threshold < 0:
            raise ConfigError(
                f"operator {self.name}: breaker_threshold must be >= 0"
            )
        if self.breaker_cooldown < 1:
            raise ConfigError(
                f"operator {self.name}: breaker_cooldown must be >= 1"
            )
        # The ceiling can never undercut the base cooldown.
        self.breaker_max_cooldown = max(
            self.breaker_max_cooldown, self.breaker_cooldown
        )


class UnitResult(NamedTuple):
    """Output of one unit computation: output-name -> value."""

    unit: Unit
    values: Dict[str, float]


#: One gathered input window: ``(topic, timestamps, values)``, oldest
#: first; both arrays are empty where the input holds no data.
WindowRow = Tuple[str, np.ndarray, np.ndarray]

_NO_TIMESTAMPS = np.empty(0, dtype=np.int64)
_NO_VALUES = np.empty(0, dtype=np.float64)

#: What a unit's computation may raise and stay one unit's failure: it
#: is counted against that unit and the pass goes on.
UNIT_ERRORS = (QueryError, PluginError, ValueError, KeyError)


@lru_cache(maxsize=16)
def unit_rows(units: int, m: int) -> Tuple[range, ...]:
    """Each unit's rows when every unit has ``m``, one tuple per shape."""
    return tuple(range(j * m, j * m + m) for j in range(units))


def require_data(row: WindowRow) -> np.ndarray:
    """The values of a gathered row, or the :class:`QueryError` a
    relative query of that input raises when it holds no data."""
    topic, _timestamps, values = row
    if not len(values):
        raise QueryError(f"no data available for sensor {topic}")
    return values


class PassResult:
    """What one pass produced, before it goes anywhere.

    A ragged pass carries its per-unit results as a list.  A pass a
    matrix kernel computed for every unit at once (typically a uniform
    one) carries ``units`` and ``column_of`` instead:
    ``column_of(name)`` is the float64 column of the output sensor
    called ``name``, aligned with ``units``.  Per-unit dicts are derived
    from the columns only when a consumer asks for them
    (:meth:`results`); the host gets the columns themselves
    (:meth:`OperatorBase.store_results_batch`), a fused intermediate
    appends the column to its channel as it is.
    """

    __slots__ = ("units", "column_of", "_results")

    def __init__(
        self,
        results: Optional[List[UnitResult]] = None,
        units: Sequence[Unit] = (),
        column_of: Optional[Callable[[str], np.ndarray]] = None,
    ) -> None:
        self.units = units
        self.column_of = column_of
        self._results = results

    def __len__(self) -> int:
        """Units that produced a result."""
        if self._results is not None:
            return len(self._results)
        return len(self.units)

    def results(self) -> List[UnitResult]:
        """The per-unit view, in unit order."""
        if self._results is None:
            # tolist() converts a column to plain floats once; boxing
            # one np.float64 per unit costs more than the kernels
            # themselves at 1000s of units.
            columns: Dict[str, list] = {}
            out = []
            for j, unit in enumerate(self.units):
                values = {}
                for sensor in unit.outputs:
                    column = columns.get(sensor.name)
                    if column is None:
                        column = columns[sensor.name] = self.column_of(
                            sensor.name
                        ).tolist()
                    values[sensor.name] = column[j]
                out.append(UnitResult(unit, values))
            self._results = out
        return self._results


class OperatorBase:
    """Base class for all Wintermute operator plugins.

    The framework reads, the plugin computes.  In this order:

    - implement :meth:`compute_window` — one unit's outputs from the
      windows of its :meth:`kernel_inputs`, which the framework gathers
      for every due unit in one batched query per pass
      (:meth:`batch_window`) and hands over read-only;
    - add a :meth:`compute_batch` *matrix kernel* when the arithmetic is
      the same for every unit: it is handed the pass's gathered window
      and reduces the stacked rows of a uniform pass along axis 1,
      :meth:`compute_ragged` for the rest;
    - override :meth:`compute_unit` only to issue queries yourself.  A
      class that does and has no kernel makes no gather: its pass loops
      it unit by unit (:meth:`compute_per_unit`) and gives up the
      compiled plan and fusion.

    Optional hooks are :meth:`check_unit`, :meth:`make_model` and
    :meth:`compute_operator_outputs`.  The base class handles unit
    resolution, model placement (shared vs per-unit), scheduling hooks,
    result storage and bookkeeping.
    """

    #: :meth:`compute_batch` reads a uniform pass's rows and the params
    #: only (no model, nothing across units): congruent fused chains
    #: then share one kernel call per stage (:mod:`repro.core.fusion`).
    row_wise_kernel = False

    @classmethod
    def flow_transforms(cls, params: dict) -> Dict[str, object]:
        """Declarative output-unit metadata for the static dataflow
        analyzer (``wintermute-sim check --flow``).

        Returns a mapping from output-sensor-name glob (``fnmatch``
        style, ``"*"`` for all) to a *transform* describing how the
        output's physical unit derives from the unit inputs:

        - ``"preserve"`` — same unit as the (pooled) inputs; pooling
          inputs of different physical dimensions is a configuration
          error the analyzer reports (rule F006).
        - ``"per-second"`` — input unit divided by time (``delta``/
          ``rate`` style computations: J becomes W, B becomes B/s).
        - ``"dimensionless"`` — ratios, labels, booleans, counts.
        - ``("input", <sensor-name>)`` — the unit of the named input
          sensor (e.g. a regression target), with no pooling check.

        The default declares nothing: third-party plugins degrade to
        "unknown" output units gracefully (the analyzer reports rule
        F007 as info and skips downstream unit checks).  Implementations
        must stay pure — they are consulted with the raw ``params``
        block, before (and without) operator instantiation.
        """
        return {}

    def __init__(self, config: OperatorConfig) -> None:
        self.config = config
        self.units: List[Unit] = []
        self._unit_by_name: Dict[str, Unit] = {}
        self.host = None
        self.engine: Optional[QueryEngine] = None
        self.enabled = False
        self._shared_model = None
        self._unit_models: Dict[str, object] = {}
        self._operator_output_sensors: List[Sensor] = []
        self._pool: Optional[ThreadPoolExecutor] = None
        self.last_errors: List[str] = []
        # Per-unit circuit breakers, allocated lazily on first failure
        # (or manual trip).  The lock is a sanitizer seam: parallel unit
        # mode records failures from pool worker threads.
        self._breakers: Dict[str, UnitBreaker] = {}
        self._breaker_lock = hooks.make_lock("OperatorBase.breaker")
        # Memoized batch-query layout: (units, topics, slices, m) from
        # the last batch_window call (see rows_per_unit).
        self._batch_layout: Optional[tuple] = None
        # Memoized output layout of a uniform pass: (units, sensors,
        # output names, index) — see _output_columns.  Both memos hold
        # the units list object they were built for (see kept_units).
        self._output_layout: Optional[tuple] = None
        self.plan_key = f"operator:{config.name}"
        # Unbound operators instrument against a private registry; bind()
        # migrates the accrued values into the host's registry so every
        # operator shows up under the host's GET /metrics.
        self._telemetry = MetricRegistry()
        self._init_metrics(self._telemetry)

    def _init_metrics(self, registry: MetricRegistry) -> None:
        labels = {"operator": self.config.name}
        self._m_computes = registry.counter("operator_computes_total", **labels)
        self._m_errors = registry.counter("operator_errors_total", **labels)
        self._m_busy = registry.counter("operator_busy_ns_total", **labels)
        self._m_unit_results = registry.counter(
            "operator_unit_results_total", **labels
        )
        self._m_latency = registry.histogram(
            "operator_compute_latency_ns", **labels
        )
        self._m_breaker_trips = registry.counter(
            "breaker_trips_total", **labels
        )
        self._m_breaker_recoveries = registry.counter(
            "breaker_recoveries_total", **labels
        )
        # Weakly: the host's registry outlives an unloaded operator and
        # must not keep it alive (the gauge reads 0 once it is gone).
        ref = weakref.ref(self)
        registry.gauge(
            "operator_quarantined_units",
            fn=lambda: 0 if (op := ref()) is None else len(op.quarantined_units()),
            **labels,
        )

    # ------------------------------------------------------------------
    # Telemetry-backed counters (kept as attributes for compatibility)
    # ------------------------------------------------------------------

    @property
    def compute_count(self) -> int:
        """Completed computation passes."""
        return self._m_computes.value

    @property
    def error_count(self) -> int:
        """Failed unit computations (the operator kept running)."""
        return self._m_errors.value

    @property
    def busy_ns(self) -> int:
        """Cumulative wall-clock nanoseconds spent in compute passes."""
        return self._m_busy.value

    @property
    def unit_results_count(self) -> int:
        """Total unit results produced (unit throughput numerator)."""
        return self._m_unit_results.value

    @property
    def compute_latency(self) -> Histogram:
        """Latency histogram of full compute passes (telemetry view)."""
        return self._m_latency

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def name(self) -> str:
        """The operator instance name."""
        return self.config.name

    def bind(self, host, engine: QueryEngine) -> None:
        """Attach the operator to its hosting component.

        Operator metrics migrate into the host's metric registry (when
        it has one), carrying over anything accrued before binding.
        """
        self.host = host
        self.engine = engine
        registry = getattr(host, "telemetry", None)
        if registry is not None and registry is not self._telemetry:
            registry.absorb(self._telemetry)
            self._telemetry = registry
            self._init_metrics(registry)

    def make_resolver(self) -> UnitResolver:
        """The resolver for this operator's pattern unit."""
        return UnitResolver(
            inputs=self.config.inputs,
            outputs=self.config.outputs,
            relaxed=self.config.relaxed,
            publish_outputs=self.config.publish_outputs,
        )

    def init_units(self, tree: SensorTree) -> None:
        """Resolve the pattern unit against ``tree`` (Section V-C-2)."""
        self.set_units(self.make_resolver().resolve(tree))

    def set_units(self, units: Sequence[Unit]) -> None:
        """Install pre-built units (used by tests and job operators),
        each one through :meth:`check_unit` first."""
        units = list(units)
        for unit in units:
            self.check_unit(unit)
        self._install_units(units)
        self._unit_models.clear()
        self._shared_model = None
        self._init_operator_outputs()

    def _install_units(self, units: List[Unit]) -> None:
        self.units = units
        self._unit_by_name = {unit.name: unit for unit in units}

    def check_unit(self, unit: Unit) -> None:
        """Raise :class:`ConfigError`, naming the operator and the unit,
        for a unit this plugin cannot compute whatever the data — an
        output it does not know, an input it needs and the unit lacks.

        Runs where a unit enters the operator, never in a pass: on
        :meth:`set_units` (so ``load_plugin`` refuses the block) and on
        a unit built on the fly for :meth:`trigger`.  :meth:`compute_window`
        may rely on what it established.
        """

    def unit_named(self, name: str) -> Optional[Unit]:
        """The resolved unit called ``name``, if any (O(1))."""
        return self._unit_by_name.get(name)

    def _init_operator_outputs(self) -> None:
        self._operator_output_sensors = [
            Sensor(
                topic=f"/analytics/{self.name}/{out_name}",
                publish=self.config.publish_outputs,
                is_operator_output=True,
            )
            for out_name in self.config.operator_outputs
        ]

    def start(self) -> None:
        """Enable computation (the manager schedules the task).

        Parallel operators acquire their worker pool here: one
        persistent :class:`ThreadPoolExecutor` owned for the operator's
        whole enabled lifetime, not one per pass — the M4 ablation showed
        per-pass pool construction costing more than the work it ran.
        """
        self.enabled = True
        if self._uses_pool() and self._pool is None:
            self._pool = self._make_pool()

    def stop(self) -> None:
        """Disable computation; the task stays registered but idle."""
        self.enabled = False
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def _uses_pool(self) -> bool:
        return self.config.unit_mode == "parallel" and self.config.max_workers > 1

    def _make_pool(self) -> ThreadPoolExecutor:
        return ThreadPoolExecutor(
            self.config.max_workers,
            thread_name_prefix=f"op-{self.name}",
        )

    # ------------------------------------------------------------------
    # Models
    # ------------------------------------------------------------------

    def make_model(self):
        """Create one analysis model instance (None for stateless ops)."""
        return None

    def model_for(self, unit: Unit):
        """The model bound to ``unit`` under the configured unit mode.

        Sequential operators share a single model across units;
        parallel operators keep one model per unit (Section IV-c).
        """
        if self.config.unit_mode == "sequential":
            if self._shared_model is None:
                self._shared_model = self.make_model()
            model = self._shared_model
        else:
            model = self._unit_models.get(unit.name)
            if model is None:
                model = self._unit_models[unit.name] = self.make_model()
        san = hooks.CURRENT
        if san is not None:
            san.on_model_access(self, unit, model)
        return model

    # ------------------------------------------------------------------
    # Computation
    # ------------------------------------------------------------------

    def compute_unit(self, unit: Unit, ts: int) -> Dict[str, float]:
        """Analyse one unit at time ``ts``; map output names to values.

        Output names must match the short names of the unit's output
        sensors.  Returning an empty dict stores nothing for the unit
        (useful while a model is still training).

        The default is a plan-free, matrix-free gather — one relative
        query per kernel input, no :class:`QueryPlan` touched — handed
        to :meth:`compute_window`.  On-demand triggers come through
        here.
        """
        assert self.engine is not None
        if self.unit_named(unit.name) is not unit:
            self.check_unit(unit)  # built on the fly, never installed
        rows: List[WindowRow] = []
        for topic in self.kernel_inputs(unit):
            try:
                view = self.engine.query_relative(topic, self.config.window_ns)
            except QueryError:
                rows.append((topic, _NO_TIMESTAMPS, _NO_VALUES))
            else:
                rows.append((topic, view.timestamps(), view.values()))
        return self.compute_window(unit, rows)

    def kernel_inputs(self, unit: Unit) -> List[str]:
        """The input topics a window kernel reads for ``unit``, in row
        order (all of them unless the plugin narrows it)."""
        return unit.inputs

    def compute_window(
        self, unit: Unit, rows: Sequence[WindowRow]
    ) -> Dict[str, float]:
        """One unit's outputs from its gathered windows — the analysis.

        ``rows`` holds one :data:`WindowRow` per :meth:`kernel_inputs`
        topic, in that order, empty where the input holds no data
        (:func:`require_data` raises what the scalar query would have).
        Implementations must not write into them; one that also has a
        matrix kernel hands them to the same axis-1 arithmetic as 1×n
        views (``values[None, :]``).
        """
        raise NotImplementedError

    def compute(self, ts: int) -> List[UnitResult]:
        """One full pass over the due units: gather, kernel, store; the
        per-unit results are returned."""
        return self.run(ts).results()

    def run(self, ts: int, source=None) -> PassResult:
        """One scheduled pass: gather, kernel, store — what the
        Operator Manager runs, with no per-unit view of the result."""
        return self.run_pass(ts, self._store, source)

    def run_pass(
        self, ts: int, sink: Callable[[int, PassResult], None], source=None,
        units: Optional[List[Unit]] = None,
    ) -> PassResult:
        """Gather from ``source``, run the kernel, hand the result to
        ``sink``.

        Every pass comes through here.  A staged pass reads the host's
        engine and sinks into the host (:meth:`run`); a member of a
        fused group after the first reads the channel of the member
        before it (:class:`~repro.core.fusion.FusedChannel`), and an
        intermediate one sinks into the channel feeding the next stage —
        where the window comes from and where the result goes are the
        only differences between the two.  ``units`` are due units taken already.
        """
        if not self.enabled:
            return PassResult([])
        san = hooks.CURRENT
        if san is not None:
            san.begin_pass(self)
        t0 = time.perf_counter_ns()
        result = (self._compute_results(ts, source) if units is None
                  else self._compute_over(units, ts, source))
        if not isinstance(result, PassResult):
            result = PassResult(result)
        self.close_pass(ts, result, sink, t0)
        return result

    def close_pass(self, ts: int, result: PassResult, sink, t0: int) -> None:
        """Settle a pass begun at ``t0``: breakers, sink, counters."""
        self._record_unit_successes(result)
        if sink is not None:
            sink(ts, result)
        elapsed = time.perf_counter_ns() - t0
        self._m_computes.inc()
        self._m_busy.inc(elapsed)
        self._m_latency.observe(elapsed)
        self._m_unit_results.inc(len(result))
        san = hooks.CURRENT
        if san is not None:
            san.end_pass(self)

    def _due_units(self) -> List[Unit]:
        """Units owed a computation this pass (cadence staggering,
        then circuit-breaker quarantine filtering)."""
        cadence = self.config.unit_cadence
        if cadence > 1:
            phase = self.compute_count % cadence
            units = [
                u for i, u in enumerate(self.units) if i % cadence == phase
            ]
        else:
            units = self.units
        return self._breaker_filter(units)

    # ------------------------------------------------------------------
    # Circuit breaker
    # ------------------------------------------------------------------

    def breaker_enabled(self) -> bool:
        """Whether failures trip unit breakers automatically."""
        return self.config.breaker_threshold > 0

    def _breaker_for(self, unit_name: str) -> UnitBreaker:
        """Get-or-create a unit's breaker (callers hold _breaker_lock)."""
        breaker = self._breakers.get(unit_name)
        if breaker is None:
            breaker = self._breakers[unit_name] = UnitBreaker(
                self.config.breaker_threshold,
                self.config.breaker_cooldown,
                self.config.breaker_max_cooldown,
            )
        return breaker

    def _breaker_filter(self, units: List[Unit]) -> List[Unit]:
        """Drop quarantined units from a pass.

        Open breakers age toward their next probe here (skipped passes
        are the quarantine clock).  With no breakers allocated and
        automatic tripping disabled this is a no-op.  A pass that drops
        no unit gets ``units`` itself back, so the layout memos see the
        list they hold.
        """
        if not self._breakers:  # unguarded: emptiness fast-path; a stale read only delays quarantine by one pass
            return units
        allowed = []
        with self._breaker_lock:
            for unit in units:
                breaker = self._breakers.get(unit.name)
                if breaker is None or breaker.allow():
                    allowed.append(unit)
        return units if len(allowed) == len(units) else allowed

    def _record_unit_successes(self, result: PassResult) -> None:
        """Close/clear breakers of units that produced results."""
        if not self._breakers:  # unguarded: emptiness fast-path; a missed close is retried next pass
            return
        with self._breaker_lock:
            for unit, _values in result.results():
                breaker = self._breakers.get(unit.name)
                if breaker is None:
                    continue
                recovered = breaker.state != CLOSED
                breaker.record_success()
                if recovered:
                    self._m_breaker_recoveries.inc()

    def quarantined_units(self) -> List[str]:
        """Names of units currently skipped by an open breaker."""
        with self._breaker_lock:
            return sorted(
                name
                for name, b in self._breakers.items()
                if b.state == OPEN
            )

    def breaker_state(self, unit_name: str) -> dict:
        """REST view of one unit's breaker."""
        self._require_unit(unit_name)
        with self._breaker_lock:
            breaker = self._breakers.get(unit_name)
            snap = (
                breaker.snapshot()
                if breaker is not None
                else default_snapshot(self.config.breaker_threshold)
            )
        return {"operator": self.name, "unit": unit_name, **snap}

    def set_breaker(self, unit_name: str, action: str) -> dict:
        """Manual breaker control (REST ``PUT ...?action=trip|reset``)."""
        self._require_unit(unit_name)
        if action not in ("trip", "reset"):
            raise ConfigError(
                f"breaker action must be 'trip' or 'reset', got {action!r}"
            )
        with self._breaker_lock:
            breaker = self._breaker_for(unit_name)
            if action == "trip":
                if breaker.state != OPEN:
                    breaker.trip()
                    self._m_breaker_trips.inc()
            else:
                breaker.reset()
            snap = breaker.snapshot()
        return {"operator": self.name, "unit": unit_name, **snap}

    def _require_unit(self, unit_name: str) -> None:
        if self.unit_named(unit_name) is not None:
            return
        if unit_name in self._breakers:  # unguarded: racy probe; REST readers tolerate staleness
            return  # job units may have rotated out; state still readable
        raise PluginError(
            f"operator {self.name!r} has no unit {unit_name!r}"
        )

    def _compute_results(self, ts: int, source):
        """Produce the pass's results (a :class:`PassResult` or a plain
        ``List[UnitResult]``): the pass's one gather from ``source``
        (see :meth:`batch_window`), handed to :meth:`compute_batch`.

        A plugin that overrides :meth:`compute_unit` and has no kernel
        of its own queries for itself: its pass skips the gather and
        runs :meth:`compute_per_unit`.
        """
        return self._compute_over(self._due_units(), ts, source)

    def _compute_over(self, units: List[Unit], ts: int, source):
        """:meth:`_compute_results` over the pass's due ``units``."""
        cls = type(self)
        if (
            cls.compute_unit is not OperatorBase.compute_unit
            and cls.compute_batch is OperatorBase.compute_batch
        ):
            return self.compute_per_unit(units, ts)
        window, slices, _n = self.batch_window(units, source)
        try:
            return self.compute_batch(units, window, slices)
        except UNIT_ERRORS:
            # The kernel failed on the whole pass.  Run it again one
            # unit at a time over the same window, so only the unit
            # owning the failing row is counted and advanced toward
            # quarantine.
            return self.compute_ragged(units, window, slices)

    def compute_batch(
        self, units: Sequence[Unit], window: BatchWindow, slices: List[range]
    ):
        """Compute every due unit of a pass from its gathered window
        (:meth:`batch_window`: unit ``j`` owns rows ``slices[j]``).

        Inherited: :meth:`compute_ragged`.  A matrix kernel overrides
        it and returns a columnar :class:`PassResult` for a uniform pass
        (:meth:`batch_window`, :meth:`rows_per_unit`).
        """
        return self.compute_ragged(units, window, slices)

    def compute_per_unit(self, units: Sequence[Unit], ts: int) -> List[UnitResult]:
        """:meth:`compute_unit` for each unit in turn: scalar queries
        only, no plan — the pass of a plugin that queries for itself,
        and the reference the gathered paths are checked against."""
        return self._compute_each(units, self.compute_unit, repeat(ts))

    def _compute_each(self, units: Sequence[Unit], fn, args) -> List[UnitResult]:
        """``fn(unit, arg)`` for every unit and its arg, each unit's
        failure isolated; in parallel unit mode spread over the pool.

        One contiguous chunk per worker keeps the future count at
        ``max_workers`` instead of U, and collecting chunks in
        submission order preserves unit order in the result list exactly
        like the sequential loop.
        """
        jobs = list(zip(units, args))

        def run(chunk) -> List[UnitResult]:
            out = []
            for unit, arg in chunk:
                try:
                    values = fn(unit, arg)
                except UNIT_ERRORS as exc:
                    # A failing unit must not take down the operator:
                    # count it and move on, like the production
                    # framework's error path.
                    self._record_unit_error(unit, exc)
                else:
                    if values:
                        out.append(UnitResult(unit, values))
            return out

        n = len(jobs)
        if not (self._uses_pool() and n > 1):
            return run(jobs)
        pool = self._pool
        if pool is None:
            # Enabled without start() (tests drive compute directly).
            pool = self._pool = self._make_pool()
        workers = min(self.config.max_workers, n)
        size = (n + workers - 1) // workers
        futures = [
            pool.submit(run, jobs[lo:lo + size]) for lo in range(0, n, size)
        ]
        results: List[UnitResult] = []
        for future in futures:
            results.extend(future.result())
        return results

    def batch_window(
        self, units: Sequence[Unit], source=None
    ) -> Tuple[BatchWindow, List[range], int]:
        """Fetch all the units' kernel inputs in one batched query of
        ``source`` (the operator's engine unless given).

        Returns ``(window, slices, n)``.  ``slices[j]`` is the
        ``range(lo, hi)`` of rows in ``window`` holding unit ``j``'s
        :meth:`kernel_inputs`, in order.  ``n`` is non-zero when the
        pass is *uniform* — every unit has exactly one row (so row ``j``
        is unit ``j``) and at least one output, and all rows hold the
        same ``n`` readings: the kernel may then reduce
        ``window.values[:, window.width - n:]`` along axis 1 in one go.

        The underlying query plan is cached per operator and invalidated
        by sensor-space generation moves, so steady-state passes resolve
        zero topic names.
        """
        _, topics, slices, m = self._layout(units)
        window = (source or self.engine).query_relative_batch(
            topics, self.config.window_ns, key=self.plan_key
        )
        return window, slices, window.uniform_count() if m == 1 else 0

    def _layout(self, units: Sequence[Unit]) -> tuple:
        """``(units, topics, slices, m)`` of a gather over ``units``,
        memoised on the unit identities."""
        cached = self._batch_layout
        if cached is not None:
            held = kept_units(cached[0], units)
            if held is not cached[0]:
                cached = self._batch_layout = (
                    None if held is None else (held,) + cached[1:]
                )
        if cached is None:
            flat: List[str] = []
            slices = []
            for unit in units:
                lo = len(flat)
                flat.extend(self.kernel_inputs(unit))
                slices.append(range(lo, len(flat)))
            sizes = {len(rows) for rows in slices}
            m = (
                sizes.pop()
                if len(sizes) == 1 and all(unit.outputs for unit in units)
                else 0
            )
            if m:  # shared by every layout of this shape
                slices = unit_rows(len(units), m)
            cached = self._batch_layout = (units, tuple(flat), slices, m)
        return cached

    def rows_per_unit(self) -> int:
        """The number ``m >= 1`` of kernel rows every unit of the last
        :meth:`batch_window` has — its window then holds unit ``j`` in
        rows ``[j * m, (j + 1) * m)`` — or 0 when the units differ or
        one of them has no output."""
        return self._batch_layout[3]

    def compute_ragged(
        self, units: Sequence[Unit], window: BatchWindow, slices: List[range]
    ) -> List[UnitResult]:
        """:meth:`compute_window` one unit at a time over an already
        gathered window — every pass of a plugin without a matrix
        kernel and, for one that has it, the passes that are not uniform
        (units with different numbers of inputs, windows of different
        lengths, missing data).  A failing unit is counted and skipped
        exactly like a failing :meth:`compute_unit`."""
        return self._compute_each(
            units, self.compute_window, map(window.rows, slices)
        )

    def _note_error(self, label: str, exc: Exception) -> None:
        """Count one error into the bounded log.

        ``last_errors`` is rebound, not mutated in place (readers keep
        a stable snapshot), so concurrent notes from pool workers would
        lose entries without the lock.
        """
        self._m_errors.inc()
        with self._breaker_lock:
            self.last_errors = (self.last_errors + [f"{label}: {exc}"])[-16:]

    def _record_unit_error(self, unit: Unit, exc: Exception) -> None:
        """Count one failed unit without aborting the pass."""
        self._note_error(unit.name, exc)
        if self.breaker_enabled() or self._breakers:  # unguarded: fast-path pre-check; the mutation below re-checks under the lock
            with self._breaker_lock:
                breaker = self._breaker_for(unit.name)
                trips_before = breaker.trips
                breaker.record_failure()
                if breaker.trips != trips_before:
                    self._m_breaker_trips.inc()

    def _store(self, ts: int, result: PassResult) -> None:
        """The staged pass's sink: the host's caches, broker, storage —
        the pass's readings, then the operator-level aggregates, each
        one ``store_readings_batch``."""
        if self.host is None:
            return
        self.store_results_batch(ts, result)
        if self._operator_output_sensors:
            aggregates = self.compute_operator_outputs(ts, result.results())
            sensors = tuple(
                s for s in self._operator_output_sensors
                if aggregates.get(s.name) is not None
            )
            if sensors:
                self.host.store_readings_batch(ts, SensorColumns(
                    sensors, [aggregates[s.name] for s in sensors]
                ))

    def store_results_batch(self, ts: int, result: PassResult) -> None:
        """Hand a whole pass's readings to the host in one call, as two
        columns in (unit, output) emission order — cache contents and
        MQTT publish order are those of per-reading stores."""
        readings = self._output_columns(result)
        if len(readings):
            self.host.store_readings_batch(ts, readings)

    def _output_columns(self, result: PassResult) -> SensorColumns:
        """The pass's readings as (sensors, values) columns.

        A uniform pass is taken straight from ``column_of``: which output
        of which unit each reading is depends only on the units, so the
        sensor tuple and the index into the stacked output columns are
        memoised with them.  A ragged pass is flattened from its per-unit
        dicts, outputs a unit did not produce left out.
        """
        if result.column_of is None:
            sensors, values = [], []
            for unit, produced in result.results():
                for sensor in unit.outputs:
                    value = produced.get(sensor.name)
                    if value is not None:
                        sensors.append(sensor)
                        values.append(float(value))
            return SensorColumns(tuple(sensors), values)
        units = result.units
        layout = self._output_layout
        if layout is not None:
            held = kept_units(layout[0], units)
            if held is not layout[0]:
                layout = self._output_layout = (
                    None if held is None else (held,) + layout[1:]
                )
        if layout is None:
            outputs = [(j, s) for j, unit in enumerate(units) for s in unit.outputs]
            names = list(dict.fromkeys(s.name for _, s in outputs))
            index = None
            if len(names) > 1 or len(outputs) != len(units):
                at = {name: q for q, name in enumerate(names)}
                index = (
                    np.array([at[s.name] for _, s in outputs], dtype=np.intp),
                    np.array([j for j, _ in outputs], dtype=np.intp),
                )
            layout = self._output_layout = (
                units, tuple(s for _, s in outputs), names, index
            )
        _, sensors, names, index = layout
        if index is None:  # one output per unit, all of one name
            return SensorColumns(sensors, result.column_of(names[0]))
        stacked = np.stack([result.column_of(name) for name in names])
        return SensorColumns(sensors, stacked[index])

    def compute_operator_outputs(
        self, ts: int, results: List[UnitResult]
    ) -> Dict[str, float]:
        """Aggregate across unit results for operator-level outputs.

        The default averages each output name over all units that
        produced it — e.g. the mean model error of Section V-C-2.
        Subclasses may override for other aggregates.
        """
        sums: Dict[str, float] = {}
        counts: Dict[str, int] = {}
        for _, values in results:
            for key, value in values.items():
                sums[key] = sums.get(key, 0.0) + value
                counts[key] = counts.get(key, 0) + 1
        return {k: sums[k] / counts[k] for k in sums}

    # ------------------------------------------------------------------
    # On-demand path
    # ------------------------------------------------------------------

    def trigger(self, unit_name: str, ts: int, tree: SensorTree) -> Dict[str, float]:
        """Compute one unit on demand and return (not store) the result.

        This is the REST-triggered path of Section IV-b: the output is
        propagated only as a response to the request.  Units already
        resolved are reused; otherwise the unit is built on the fly.
        """
        unit = self.unit_named(unit_name)
        if unit is None:
            unit = self.make_resolver().resolve_for_name(tree, unit_name)
        return self.compute_unit(unit, ts)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Bookkeeping counters for the REST API and benchmarks."""
        return {
            "name": self.name,
            "units": len(self.units),
            "mode": self.config.mode,
            "unit_mode": self.config.unit_mode,
            "computes": self.compute_count,
            "errors": self.error_count,
            "busy_ns": self.busy_ns,
            "unit_results": self.unit_results_count,
            "quarantined": len(self.quarantined_units()),
            "mean_compute_ns": (
                self._m_latency.mean if self._m_latency.count else 0.0
            ),
        }


class JobOperatorBase(OperatorBase):
    """Operator whose units are jobs rather than tree nodes.

    At each computation interval the operator queries the set of running
    jobs and rebuilds one unit per job (Section VI-C: the persyst plugin
    "queries the set of running jobs ... and for each of them it
    instantiates a unit").  Subclasses provide ``job_output_names``.

    Args:
        config: standard operator config; ``inputs`` are resolved
            against each allocated node's subtree.
        job_source: object with ``running_jobs(ts)`` returning jobs with
            ``job_id`` and ``node_paths`` — the scheduler substrate.
    """

    def __init__(self, config: OperatorConfig, job_source=None) -> None:
        super().__init__(config)
        self.job_source = job_source
        self._tree: Optional[SensorTree] = None
        # {tree generation: {(job_id, node_paths): unit}} of the last pass.
        self._job_units: Dict[int, Dict[tuple, Unit]] = {}

    def job_output_names(self) -> List[str]:
        """Names of the per-job output sensors."""
        raise NotImplementedError

    def init_units(self, tree: SensorTree) -> None:
        """Job units are dynamic; stash the tree and start empty."""
        self._tree = tree
        self._job_units = {}
        self.set_units([])

    def refresh_units(self, ts: int) -> None:
        """Rebuild units from the jobs running at ``ts``.

        A job keeps its unit while the sensor tree's generation stands
        still, so a steady pass resolves nothing.  If a job fails to
        resolve, the sensor space is refreshed once for the pass and the
        job retried — job operators typically load before the upstream
        pipeline stages (or the monitoring itself) have produced the
        sensors their inputs name.  A job that still fails is counted and
        retried next pass.
        """
        from repro.core.units import resolve_job_unit

        if self.job_source is None or self._tree is None:
            return
        generation = self._tree.generation
        known = self._job_units.get(generation, {})
        refreshed = False
        units, resolved = [], {}
        for job in self.job_source.running_jobs(ts):
            key = (job.job_id, tuple(job.node_paths))
            unit = known.get(key)
            for attempt in (0, 1) if unit is None else ():
                try:
                    unit = resolve_job_unit(
                        self._tree,
                        job.job_id,
                        job.node_paths,
                        self.config.inputs,
                        self.job_output_names(),
                        publish_outputs=self.config.publish_outputs,
                        relaxed=self.config.relaxed,
                    )
                    break
                except Exception as exc:  # unresolvable job
                    if attempt == 0 and not refreshed and self.engine is not None:
                        self.engine.refresh_navigator()
                        refreshed = True
                        if self._tree.generation != generation:
                            known = {}  # later jobs see the new tree
                        continue
                    self._note_error(job.job_id, exc)
                    break
            if unit is not None:
                units.append(unit)
                resolved[key] = unit
        # Kept under the generation the pass began with: if a refresh
        # moved it, the next pass resolves every job afresh.
        self._job_units = {generation: resolved}
        # Preserve per-job models across refreshes in parallel mode.
        kept = {u.name for u in units}
        self._unit_models = {
            name: m for name, m in self._unit_models.items() if name in kept
        }
        # An unchanged job set keeps its list: the pass's memos then
        # find the very object they hold.
        if not same_units(self.units, units):
            self._install_units(units)

    def run(self, ts: int, source=None) -> PassResult:
        if self.enabled:
            self.refresh_units(ts)
        return super().run(ts, source)
