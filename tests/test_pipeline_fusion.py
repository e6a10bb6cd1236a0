"""Pipeline fusion: planner, fused runtime, parity, analysis.

The fusion contract is *strict semantics preservation*: a fused group
must store bit-for-bit what the staged pipeline would have stored, under
missing data, quarantined units, hot-plugged sensor spaces and an active
sanitizer (which instruments the fused pass, it does not reroute it).
Staged and fused are two schedulings of the same kernels, so every
parity test here runs the same pipeline twice — staged computes vs one
:class:`~repro.core.fusion.FusedGroup` — over identical input streams
and compares the terminal stores exactly; the first test also anchors
the terminal series on a plain-NumPy reference of the chain.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.flow import analyze_flow
from repro.common.errors import ConfigError
from repro.common.timeutil import NS_PER_SEC
from repro.core import operator, units as units_module
from repro.core.fusion import FusedGroup
from repro.core.fusion import FusedChannel
from repro.core.operator import OperatorConfig
from repro.core.pipeline import FusionSpec, plan_fusion
from repro.core.queryengine import QueryEngine
from repro.core.units import Unit
from repro.dcdb.cache import SensorCache
from repro.dcdb.sensor import Sensor
from repro.deploy import build_deployment
from repro.plugins.aggregator import AggregatorOperator
from repro.plugins.health import HealthOperator
from repro.plugins.persyst import PerSystOperator
from repro.plugins.smoother import SmootherOperator
from repro.sanitizer.core import Sanitizer
from tests.hosts import store

N_UNITS = 8
CACHE_WINDOW_NS = 180 * NS_PER_SEC


class Host:
    """Pusher-shaped test host: caches, no storage, recorded stores."""

    def __init__(self, input_topics) -> None:
        self.name = "host"
        self.cache_window_ns = CACHE_WINDOW_NS
        self.caches = {
            t: SensorCache.for_duration(self.cache_window_ns, NS_PER_SEC)
            for t in input_topics
        }
        self.stored: dict = {}

    @property
    def storage(self):
        return None

    def sensor_topics(self):
        return list(self.caches)

    def cache_for(self, topic):
        return self.caches.get(topic)

    def feed(self, ts, topic, value):
        store(self.caches[topic], ts, value)

    def store_readings_batch(self, ts, readings):
        for sensor, value in zip(readings.sensors, readings.values.tolist()):
            self.stored.setdefault(sensor.topic, []).append((ts, value))
            cache = self.caches.get(sensor.topic)
            if cache is None:
                cache = self.caches[sensor.topic] = SensorCache.for_duration(
                    self.cache_window_ns, NS_PER_SEC
                )
            store(cache, ts, value)


def unit_for(i: int, in_name: str, out_name: str) -> Unit:
    return Unit(
        name=f"/n{i}",
        level=0,
        inputs=[f"/n{i}/{in_name}"],
        outputs=[Sensor(f"/n{i}/{out_name}", is_operator_output=True)],
    )


class PoisonableAggregator(AggregatorOperator):
    """The aggregator refusing any window holding a reading above 100:
    its kernel fails the whole pass, the re-run only the unit whose
    rows hold one."""

    def _check(self, rows):
        for topic, _timestamps, values in rows:
            if (values > 100.0).any():
                raise ValueError(f"poisoned window {topic}")

    def compute_batch(self, units, window, slices):
        self._check(window.rows(range(len(window.topics))))
        return super().compute_batch(units, window, slices)

    def compute_window(self, unit, rows):
        self._check(rows)
        return super().compute_window(unit, rows)


def build_chain(n_units: int = N_UNITS, middle=AggregatorOperator):
    """One pipeline instance: smoother -> ``middle`` (an aggregator) ->
    aggregator."""
    host = Host([f"/n{i}/power" for i in range(n_units)])
    engine = QueryEngine(host)
    stages = [
        (SmootherOperator, OperatorConfig(
            name="sm", window_ns=5 * NS_PER_SEC, publish_outputs=False,
        ), "power", "sm"),
        (middle, OperatorConfig(
            name="ag", window_ns=10 * NS_PER_SEC, publish_outputs=False,
            params={"ops": {"*": "mean"}},
        ), "sm", "ag"),
        (AggregatorOperator, OperatorConfig(
            name="mx", window_ns=20 * NS_PER_SEC,
            params={"ops": {"*": "max"}},
        ), "ag", "mx"),
    ]
    ops = []
    for cls, config, in_name, out_name in stages:
        op = cls(config)
        op.bind(host, engine)
        op.set_units([unit_for(i, in_name, out_name) for i in range(n_units)])
        op.start()
        ops.append(op)
    return host, engine, ops


def run_both(
    ticks, feed=None, skip=(), n_units: int = N_UNITS,
    middle=AggregatorOperator, configure=None,
):
    """Run staged and fused executions over one input stream.

    ``feed(tick, i)`` produces unit ``i``'s reading (None = no reading);
    ``skip`` unit indices never produce at all (missing-data parity);
    ``configure(ops)`` adjusts each chain before the first tick.
    Returns (staged_host, fused_host, staged_ops, fused_ops, group).
    """
    rng = np.random.default_rng(7)
    staged_host, _, staged_ops = build_chain(n_units, middle)
    fused_host, fused_engine, fused_ops = build_chain(n_units, middle)
    if configure is not None:
        configure(staged_ops)
        configure(fused_ops)
    group = FusedGroup(
        name="t:fused", ops=fused_ops, host=fused_host, engine=fused_engine
    )
    for tick in range(1, ticks + 1):
        ts = tick * NS_PER_SEC
        for i in range(n_units):
            if i in skip:
                continue
            value = feed(tick, i) if feed else float(rng.random())
            if value is None:
                continue
            staged_host.feed(ts, f"/n{i}/power", value)
            fused_host.feed(ts, f"/n{i}/power", value)
        for op in staged_ops:
            op.compute(ts)
        group.run(ts)
    return staged_host, fused_host, staged_ops, fused_ops, group


def final_series(host, n_units: int = N_UNITS, out: str = "mx"):
    return {
        f"/n{i}/{out}": host.stored.get(f"/n{i}/{out}")
        for i in range(n_units)
    }


# ----------------------------------------------------------------------
# The fusion knob
# ----------------------------------------------------------------------

class TestFusionKnob:
    def test_invalid_value_rejected(self):
        with pytest.raises(ConfigError, match="fusion must be"):
            OperatorConfig(name="x", fusion="sometimes")

    def test_modes_accepted(self):
        for mode in (False, "auto"):
            assert OperatorConfig(name="x", fusion=mode).fusion == mode

    def test_analyzer_flags_bad_fusion_value(self):
        from repro.core.configurator import parse_operator_config

        with pytest.raises(ConfigError) as err:
            parse_operator_config("op", {
                "interval_s": 1, "fusion": "bogus",
                "inputs": ["<bottomup>p"], "outputs": ["<bottomup>q"],
            })
        assert any(d.code == "W005" for d in err.value.diagnostics)

    def test_fusion_is_a_known_key(self):
        from repro.core.configurator import parse_operator_config

        config = parse_operator_config("op", {
            "interval_s": 1, "fusion": False,
            "inputs": ["<bottomup>p"], "outputs": ["<bottomup>q"],
        })
        assert config.fusion is False


# ----------------------------------------------------------------------
# The planner
# ----------------------------------------------------------------------

def spec(
    name,
    inputs=(),
    outputs=(),
    interval=1,
    delay=0,
    mode="online",
    fusion="auto",
    kernel=True,
    job=False,
    publish=False,
    op_outputs=(),
):
    return FusionSpec(
        name=name,
        config=OperatorConfig(
            name=name,
            interval_ns=interval * NS_PER_SEC,
            delay_ns=delay * NS_PER_SEC,
            mode=mode,
            fusion=fusion,
            publish_outputs=publish,
            operator_outputs=list(op_outputs),
        ),
        has_kernel=kernel,
        is_job_plugin=job,
        input_topics=frozenset(inputs),
        output_topics=frozenset(outputs),
    )


class TestFusionPlanner:
    def chain(self, **kw2):
        a = spec("a", inputs=["/p"], outputs=["/x"])
        b = spec("b", inputs=["/x"], outputs=["/y"], **kw2)
        return a, b

    def test_linear_chain_fuses(self):
        a, b = self.chain()
        c = spec("c", inputs=["/y"], outputs=["/z"], publish=True)
        plan = plan_fusion([a, b, c])
        assert plan.groups == [["a", "b", "c"]]
        assert plan.blocked == []

    def test_unchained_operators_stay_single(self):
        a = spec("a", inputs=["/p"], outputs=["/x"])
        b = spec("b", inputs=["/q"], outputs=["/y"])
        plan = plan_fusion([a, b])
        assert plan.groups == [] and plan.blocked == []

    def test_period_mismatch_blocks_and_reports(self):
        a, b = self.chain(interval=2)
        plan = plan_fusion([a, b])
        assert plan.groups == []
        assert [blk.reason for blk in plan.blocked] == ["period-mismatch"]

    def test_delay_mismatch_is_a_period_mismatch(self):
        a, b = self.chain(delay=3)
        plan = plan_fusion([a, b])
        assert [blk.reason for blk in plan.blocked] == ["period-mismatch"]

    def test_plugin_without_kernel_blocks_and_reports(self):
        a, b = self.chain(kernel=False)
        plan = plan_fusion([a, b])
        assert [blk.reason for blk in plan.blocked] == ["no-kernel"]

    def test_kernel_is_read_off_the_plugin_class(self):
        from repro.core.pipeline import has_kernel
        from repro.plugins.clustering import ClusteringOperator
        from repro.plugins.perfmetrics import PerfMetricsOperator

        for cls in (AggregatorOperator, SmootherOperator, HealthOperator,
                    PerSystOperator):
            assert has_kernel(cls)
        assert has_kernel(PerfMetricsOperator)
        assert has_kernel(ClusteringOperator)

    def test_published_intermediate_blocks(self):
        a = spec("a", inputs=["/p"], outputs=["/x"], publish=True)
        b = spec("b", inputs=["/x"], outputs=["/y"])
        plan = plan_fusion([a, b])
        assert [blk.reason for blk in plan.blocked] == ["external-subscriber"]

    def test_host_storage_blocks(self):
        plan = plan_fusion(list(self.chain()), host_has_storage=True)
        assert [blk.reason for blk in plan.blocked] == ["external-subscriber"]

    def test_operator_outputs_block(self):
        a = spec("a", inputs=["/p"], outputs=["/x"], op_outputs=["err"])
        b = spec("b", inputs=["/x"], outputs=["/y"])
        plan = plan_fusion([a, b])
        assert [blk.reason for blk in plan.blocked] == ["external-subscriber"]

    def test_outside_consumer_blocks(self):
        a, b = self.chain()
        other = spec("other", inputs=["/x"], outputs=["/w"])
        plan = plan_fusion([a, b, other])
        assert plan.groups == []
        assert [blk.reason for blk in plan.blocked] == ["external-subscriber"]

    def test_fusion_false_opts_out_silently(self):
        a, b = self.chain(fusion=False)
        plan = plan_fusion([a, b])
        assert plan.groups == [] and plan.blocked == []

    def test_ondemand_breaks_chain_silently(self):
        a, b = self.chain(mode="ondemand")
        plan = plan_fusion([a, b])
        assert plan.groups == [] and plan.blocked == []

    def test_job_terminal_stays_staged(self):
        a, b = self.chain(job=True)
        plan = plan_fusion([a, b])
        assert plan.groups == [] and plan.blocked == []

    def test_job_cannot_produce_intermediates(self):
        a = spec("a", inputs=["/p"], outputs=["/x"], job=True)
        b = spec("b", inputs=["/x"], outputs=["/y"])
        plan = plan_fusion([a, b])
        assert plan.groups == [] and plan.blocked == []

    def test_raw_input_beside_upstream_is_mixed(self):
        a = spec("a", inputs=["/p"], outputs=["/x"])
        b = spec("b", inputs=["/x", "/p"], outputs=["/y"])
        plan = plan_fusion([a, b])
        assert plan.groups == []
        assert [blk.reason for blk in plan.blocked] == ["mixed-inputs"]

    def test_stage_two_back_is_mixed(self):
        a, b = self.chain()
        c = spec("c", inputs=["/y", "/x"], outputs=["/z"])
        plan = plan_fusion([a, b, c])
        # c reads a's outputs: a -> b would hide them from c, and b -> c
        # would leave c a second source.
        assert plan.groups == []
        assert [blk.reason for blk in plan.blocked] == [
            "external-subscriber", "mixed-inputs",
        ]

    def test_group_restarts_after_block(self):
        a, b = self.chain(kernel=False)
        c = spec("c", inputs=["/y"], outputs=["/z"])
        d = spec("d", inputs=["/z"], outputs=["/w"], publish=True)
        plan = plan_fusion([a, b, c, d])
        # a|b breaks (reported); b cannot lead (no kernel); c starts a
        # fresh group that d joins.
        assert plan.groups == [["c", "d"]]
        assert [blk.reason for blk in plan.blocked] == ["no-kernel"]


# ----------------------------------------------------------------------
# Fused vs staged parity
# ----------------------------------------------------------------------

class TestFusedParity:
    def test_three_stage_bitwise_parity(self):
        staged, fused, s_ops, f_ops, _ = run_both(30)
        assert final_series(staged) == final_series(fused)
        assert any(v for v in final_series(fused).values())
        # Anchor: the chain recomputed stage by stage in plain NumPy
        # (each stage reads the W + 1 newest values of the one before).
        rng = np.random.default_rng(7)
        stage = rng.random((30, N_UNITS)).T  # unit x tick, as fed
        for w, reduce in ((5, np.mean), (10, np.mean), (20, np.max)):
            stage = np.array([
                [reduce(row[max(0, t - w):t + 1]) for t in range(len(row))]
                for row in stage
            ])
        for i in range(N_UNITS):
            assert [v for _, v in fused.stored[f"/n{i}/mx"]] == stage[i].tolist()
        # Fused intermediates never touch the host: no cache, no store.
        assert "/n0/sm" in staged.stored and "/n0/sm" not in fused.stored
        assert fused.cache_for("/n0/sm") is None

    def test_missing_units_and_error_accounting(self):
        staged, fused, s_ops, f_ops, _ = run_both(12, skip={2, 5})
        assert final_series(staged) == final_series(fused)
        assert final_series(staged)["/n2/mx"] is None
        for s_op, f_op in zip(s_ops, f_ops):
            assert s_op.error_count == f_op.error_count
        assert s_ops[0].error_count > 0  # the skipped units did error

    def test_poisoned_intermediate_parity(self):
        # One 666 reading of unit 3 lifts its smoothed value above 100
        # for six ticks; the middle stage's kernel then raises on every
        # pass whose window holds one, and the pass is re-run unit by
        # unit over the window it was handed, fused as staged.
        def feed(tick, i):
            if (tick, i) == (6, 3):
                return 666.0
            return float((tick * 31 + i * 7) % 11) / 11.0

        staged, fused, s_ops, f_ops, _ = run_both(
            25, feed=feed, middle=PoisonableAggregator
        )
        assert final_series(staged) == final_series(fused)
        for s_op, f_op in zip(s_ops, f_ops):
            assert s_op.error_count == f_op.error_count
            assert s_op.last_errors == f_op.last_errors
        # Counted under unit 3 only, once per pass from tick 6 to 21.
        assert f_ops[1].error_count == 16
        assert all(e.startswith("/n3: ") for e in f_ops[1].last_errors)
        assert "/n3/ag" not in fused.stored  # the channel, not the host

    def test_short_window_warmup_parity(self):
        # Windows larger than the data seen so far: both paths serve the
        # short tail; already at tick 1 stores must agree.
        staged, fused, *_ = run_both(3)
        assert final_series(staged) == final_series(fused)

    def test_intermittent_readings_parity(self):
        # Misses from the very first tick on: a staged plan binds an
        # intermediate that has no cache yet as a miss row and picks the
        # cache up on the pass after its first store, just as the fused
        # channel has the row from then on.
        def feed(tick, i):
            if (tick + i) % 3 == 0:
                return None  # sensor skipped a beat
            return float((tick * 31 + i * 7) % 11) / 11.0

        staged, fused, *_ = run_both(25, feed=feed)
        assert final_series(staged) == final_series(fused)

    def test_quarantined_units_parity(self):
        staged, fused, s_ops, f_ops, group = run_both(10)
        # Quarantine the middle stage's unit 3 on both executions.
        for ops in (s_ops, f_ops):
            ops[1].set_breaker("/n3", "trip")
        rng = np.random.default_rng(99)
        for tick in range(11, 25):
            ts = tick * NS_PER_SEC
            for i in range(N_UNITS):
                v = float(rng.random())
                staged.feed(ts, f"/n{i}/power", v)
                fused.feed(ts, f"/n{i}/power", v)
            if tick == 18:
                for ops in (s_ops, f_ops):
                    ops[1].set_breaker("/n3", "reset")
            for op in s_ops:
                op.compute(ts)
            group.run(ts)
        assert s_ops[1].quarantined_units() == f_ops[1].quarantined_units()
        assert final_series(staged) == final_series(fused)

    def test_staggered_consumer_parity(self):
        # The middle stage computes half its units a pass, so it reads
        # half of the smoother's channel: rows copied out, not the
        # channel itself.
        def stagger(ops):
            ops[1].config.unit_cadence = 2

        staged, fused, s_ops, f_ops, _ = run_both(25, configure=stagger)
        assert final_series(staged) == final_series(fused)
        assert all(final_series(fused).values())

    def test_staggered_producer_parity(self):
        # The smoother computes half its units a pass: each pass shifts
        # only the channel rows it produced.
        def stagger(ops):
            ops[0].config.unit_cadence = 2

        staged, fused, s_ops, f_ops, _ = run_both(25, configure=stagger)
        assert final_series(staged) == final_series(fused)
        assert all(final_series(fused).values())

    def test_dropped_producer_unit_parity(self):
        # The smoother has no unit 3, yet the middle stage reads
        # /n3/sm: an empty row, counted as that unit's error on every
        # pass, fused as staged — and the pass goes on.
        def drop(ops):
            ops[0].set_units(
                [unit_for(i, "power", "sm") for i in range(N_UNITS) if i != 3]
            )

        staged, fused, s_ops, f_ops, _ = run_both(12, configure=drop)
        assert final_series(staged) == final_series(fused)
        assert final_series(fused)["/n3/mx"] is None
        assert final_series(fused)["/n2/mx"]
        for s_op, f_op in zip(s_ops, f_ops):
            assert s_op.error_count == f_op.error_count
            assert s_op.last_errors == f_op.last_errors
        assert f_ops[1].error_count == 12
        assert all(e.startswith("/n3: ") for e in f_ops[1].last_errors)

    def test_health_terminal_parity(self):
        def stack():
            host = Host([f"/n{i}/power" for i in range(N_UNITS)])
            engine = QueryEngine(host)
            sm = SmootherOperator(OperatorConfig(
                name="sm", window_ns=5 * NS_PER_SEC, publish_outputs=False,
            ))
            hc = HealthOperator(OperatorConfig(
                name="hc", window_ns=10 * NS_PER_SEC,
                params={"bounds": {"sm": [0.25, 0.75]}},
            ))
            for op, in_name, out_name in ((sm, "power", "sm"), (hc, "sm", "flag")):
                op.bind(host, engine)
                op.set_units(
                    [unit_for(i, in_name, out_name) for i in range(N_UNITS)]
                )
                op.start()
            return host, engine, [sm, hc]

        s_host, _, s_ops = stack()
        f_host, f_engine, f_ops = stack()
        group = FusedGroup("t:health", f_ops, f_host, f_engine)
        rng = np.random.default_rng(3)
        for tick in range(1, 40):
            ts = tick * NS_PER_SEC
            for i in range(N_UNITS):
                v = float(rng.random())
                s_host.feed(ts, f"/n{i}/power", v)
                f_host.feed(ts, f"/n{i}/power", v)
            for op in s_ops:
                op.compute(ts)
            group.run(ts)
        assert final_series(s_host, out="flag") == final_series(f_host, out="flag")
        assert any(final_series(f_host, out="flag").values())


# ----------------------------------------------------------------------
# Plan invalidation and fallback
# ----------------------------------------------------------------------

class TestPlanLifecycle:
    def test_hot_plug_recompiles_and_keeps_history(self):
        staged, fused, s_ops, f_ops, group = run_both(15)
        plan_before = group._plan
        assert plan_before is not None
        # Hot-plug: a new sensor appears on both hosts; navigators move.
        for host in (staged, fused):
            host.caches["/n99/power"] = SensorCache.for_duration(
                CACHE_WINDOW_NS, NS_PER_SEC
            )
        for ops in (s_ops, f_ops):
            ops[0].engine.refresh_navigator()
        rng = np.random.default_rng(5)
        for tick in range(16, 30):
            ts = tick * NS_PER_SEC
            for i in range(N_UNITS):
                v = float(rng.random())
                staged.feed(ts, f"/n{i}/power", v)
                fused.feed(ts, f"/n{i}/power", v)
            for op in s_ops:
                op.compute(ts)
            group.run(ts)
        assert group._plan is not plan_before  # generation bump recompiled
        # Window history survived the recompile: series stay identical,
        # including the passes right after the hot-plug.
        assert final_series(staged) == final_series(fused)

    def test_unit_churn_recompiles(self):
        staged, fused, s_ops, f_ops, group = run_both(5)
        plan_before = group._plan
        f_ops[0].set_units(
            [unit_for(i, "power", "sm") for i in range(N_UNITS)]
        )
        group.run(6 * NS_PER_SEC)
        assert group._plan is not plan_before

    def test_sanitizer_instruments_the_fused_pass(self):
        rng = np.random.default_rng(13)
        staged_host, _, staged_ops = build_chain()
        fused_host, fused_engine, fused_ops = build_chain()
        group = FusedGroup("t:san", fused_ops, fused_host, fused_engine)

        def one_tick(tick):
            ts = tick * NS_PER_SEC
            for i in range(N_UNITS):
                v = float(rng.random())
                staged_host.feed(ts, f"/n{i}/power", v)
                fused_host.feed(ts, f"/n{i}/power", v)
            for op in staged_ops:
                op.compute(ts)
            group.run(ts)

        for tick in range(1, 10):
            one_tick(tick)
        san = Sanitizer(track_wall_clock=False)
        with san.activate():
            for tick in range(10, 14):
                one_tick(tick)
        for tick in range(14, 22):
            one_tick(tick)
        # The group stayed fused under the sanitizer: intermediates
        # never reached the host, and the unsanitized twin agrees bit
        # for bit on every pass — before, under and after.
        assert "/n0/sm" not in fused_host.stored
        assert fused_host.cache_for("/n0/sm") is None
        assert final_series(staged_host) == final_series(fused_host)
        # Every gathered row of both executions was fingerprinted — the
        # fused ones are live channel rows — and nothing wrote to one.
        events = san.event_summary()
        assert events["views_tracked"] == 2 * 4 * 3 * N_UNITS
        assert events["compute_passes"] == 2 * 4 * 3
        assert san.finish() == []

# ----------------------------------------------------------------------
# Manager + deployment integration
# ----------------------------------------------------------------------

def deployment_spec(fusion_mode):
    return {
        "cluster": {"nodes": 2, "cpus": 1, "seed": 42},
        "monitoring": {"plugins": ["sysfs"], "interval_ms": 1000},
        "analytics": {
            "pushers": [
                {
                    "plugin": "smoother",
                    "operators": {
                        "sm1": {
                            "interval_s": 1,
                            "window_s": 5,
                            "publish_outputs": False,
                            "fusion": fusion_mode,
                            "inputs": ["<bottomup>power"],
                            "outputs": ["<bottomup>ps"],
                        }
                    },
                },
                {
                    "plugin": "smoother",
                    "operators": {
                        "sm2": {
                            "interval_s": 1,
                            "window_s": 5,
                            "inputs": ["<bottomup>ps"],
                            "outputs": ["<bottomup>pss"],
                        }
                    },
                },
            ]
        },
    }


def mixed_block(name):
    """A second stage reading raw power beside the first stage's ``ps``."""
    return {
        "plugin": "aggregator",
        "operators": {name: {
            "interval_s": 1,
            "window_s": 5,
            "inputs": ["<bottomup>ps", "<bottomup>power"],
            "outputs": ["<bottomup>pss"],
            "params": {"op": "max"},
        }},
    }


class TestManagerFusion:
    def test_deployment_forms_groups_and_matches_staged(self):
        stores = {}
        for mode in ("auto", False):
            dep = build_deployment(deployment_spec(mode))
            managers = list(dep.managers.values())
            groups = [g for m in managers for g in m.fused_groups()]
            if mode == "auto":
                assert groups and groups[0].members() == ["sm1", "sm2"]
                assert all(
                    m._m_fusion_pass.count == 0 for m in managers
                )
            else:
                assert not groups
            dep.run(20)
            dep.agent.flush()
            if mode == "auto":
                # The group driver ran and timed its passes.
                assert any(m._m_fusion_pass.count > 0 for m in managers)
            out = {}
            for topic in dep.agent.storage.topics():
                if topic.endswith("pss"):
                    ts, vals = dep.agent.storage.query(topic, 0, 2**62)
                    out[topic] = (list(ts), list(vals))
            stores[mode] = out
        assert stores["auto"] == stores[False]
        assert stores["auto"]  # the pipeline did publish data

    def test_agent_chains_never_fuse(self):
        dep = build_deployment(deployment_spec("auto"))
        # Agent analytics load once data flows (the agent's sensor tree
        # is fed by the pushers' published topics).
        dep.run(3)
        dep.agent.flush()
        dep.agent_manager.load_plugin({
            "plugin": "aggregator",
            "operators": {
                "ag1": {
                    "interval_s": 1,
                    "window_s": 5,
                    "publish_outputs": False,
                    "inputs": ["<bottomup>power"],
                    "outputs": ["<bottomup>apow"],
                    "params": {"ops": {"*": "mean"}},
                }
            },
        })
        dep.agent_manager.load_plugin({
            "plugin": "smoother",
            "operators": {
                "ag2": {
                    "interval_s": 1,
                    "window_s": 5,
                    "inputs": ["<bottomup>apow"],
                    "outputs": ["<bottomup>apows"],
                }
            },
        })
        # The Collect Agent persists everything: external subscriber.
        assert dep.agent_manager.refresh_fusion() == []
        assert dep.agent_manager.fused_groups() == []
        blocked = plan_fusion(
            dep.agent_manager._fusion_specs(), host_has_storage=True
        ).blocked
        assert [b.reason for b in blocked] == ["external-subscriber"]

    def test_mixed_inputs_chain_stays_staged(self):
        # The second stage reads raw power beside the smoother's output:
        # no group forms, and its series are the fusion: false run's.
        def mixed(fusion_mode):
            doc = deployment_spec(fusion_mode)
            doc["analytics"]["pushers"][1] = mixed_block("ag")
            return doc

        stores = {}
        for mode in ("auto", False):
            dep = build_deployment(mixed(mode))
            assert not [g for m in dep.managers.values()
                        for g in m.fused_groups()]
            dep.run(20)
            dep.agent.flush()
            stores[mode] = {
                topic: [a.tolist() for a in dep.series(topic)]
                for topic in dep.agent.storage.topics()
                if topic.endswith("pss")
            }
        assert stores["auto"] == stores[False]
        assert stores["auto"]

    def test_unload_dissolves_group(self):
        dep = build_deployment(deployment_spec("auto"))
        manager = next(iter(dep.managers.values()))
        assert manager.fused_groups()
        manager.unload_operator("sm2")
        assert manager.fused_groups() == []
        dep.run(5)  # staged sm1 keeps running on its own slot


# ----------------------------------------------------------------------
# Static flow analysis (F013 + F011 refinement)
# ----------------------------------------------------------------------

def flow_spec(**first_stage_overrides):
    first = {
        "interval_s": 1,
        "window_s": 5,
        "publish_outputs": False,
        "inputs": ["<bottomup>power"],
        "outputs": ["<bottomup>ps"],
    }
    first.update(first_stage_overrides)
    return {
        "cluster": {"nodes": 2, "cpus": 1, "seed": 1},
        "monitoring": {"plugins": ["sysfs"], "interval_ms": 1000},
        "analytics": {
            "pushers": [
                {"plugin": "smoother", "operators": {"s1": first}},
                {
                    "plugin": "smoother",
                    "operators": {
                        "s2": {
                            "interval_s": first["interval_s"],
                            "window_s": 5,
                            "inputs": ["<bottomup>ps"],
                            "outputs": ["<bottomup>pss"],
                        }
                    },
                },
            ]
        },
    }


class TestFlowFusion:
    def test_eligible_chain_emits_no_f013_and_no_f011(self):
        codes = [d.code for d in analyze_flow(flow_spec())]
        assert "F013" not in codes
        # Same-tick tie inside a fused group: the fused driver orders
        # the members, so the old first-pass warning would be wrong.
        assert "F011" not in codes

    def test_published_intermediate_reports_f013_and_keeps_f011(self):
        diags = analyze_flow(flow_spec(publish_outputs=True))
        f013 = [d for d in diags if d.code == "F013"]
        assert len(f013) == 1
        assert "external-subscriber" in f013[0].message
        assert f013[0].severity == "info"
        assert any(d.code == "F011" for d in diags)

    def test_period_mismatch_reports_f013(self):
        spec_doc = flow_spec()
        spec_doc["analytics"]["pushers"][1]["operators"]["s2"][
            "interval_s"
        ] = 2
        diags = analyze_flow(spec_doc)
        f013 = [d for d in diags if d.code == "F013"]
        assert len(f013) == 1 and "period-mismatch" in f013[0].message

    def test_plugin_without_kernel_reports_f013(self):
        spec_doc = flow_spec()
        spec_doc["analytics"]["pushers"][1]["plugin"] = "tester"
        f013 = [
            d for d in analyze_flow(spec_doc) if d.code == "F013"
        ]
        assert len(f013) == 1 and "no-kernel" in f013[0].message

    def test_batch_key_is_unknown_to_the_config_check(self):
        from repro.analysis.config import analyze_deployment

        spec_doc = flow_spec(batch=False)
        w003 = [d for d in analyze_deployment(spec_doc) if d.code == "W003"]
        assert len(w003) == 1 and "'batch'" in w003[0].message
        assert w003[0].severity == "error"

    def test_report_shows_fused_groups(self):
        from repro.analysis.flow import build_flow_model, render_flow_report

        model = build_flow_model(flow_spec())
        assert model.fused_groups == [
            ("pushers", ["smoother/s1", "smoother/s2"])
        ]
        report = render_flow_report(model)
        assert "fusion: [pushers] smoother/s1 + smoother/s2" in report

    def test_mixed_inputs_reports_f013(self):
        from repro.analysis.flow import build_flow_model, render_flow_report

        spec_doc = flow_spec()
        spec_doc["analytics"]["pushers"][1] = mixed_block("s2")
        f013 = [d for d in analyze_flow(spec_doc) if d.code == "F013"]
        assert len(f013) == 1 and "mixed-inputs" in f013[0].message
        model = build_flow_model(spec_doc)
        assert model.fused_groups == []
        assert "stays staged (mixed-inputs)" in render_flow_report(model)

    def test_report_shows_blocked_chains(self):
        from repro.analysis.flow import build_flow_model, render_flow_report

        model = build_flow_model(flow_spec(publish_outputs=True))
        assert model.fused_groups == []
        assert [b[3] for b in model.fusion_blocked] == ["external-subscriber"]
        assert "stays staged (external-subscriber)" in render_flow_report(model)


# ----------------------------------------------------------------------
# The ring channel and the identity-checked memos
# ----------------------------------------------------------------------


def same_units_refused(a, b):
    raise AssertionError("same_units compared units on a steady pass")


class TestChannelAppend:
    def test_a_complete_permuted_pass_lands_each_value_on_its_row(self):
        """Regression: a complete row list took the row-order path, so
        a permuted one wrote each value on the wrong row."""
        channel = FusedChannel([unit_for(i, "x", "y") for i in range(2)], 3)
        channel.append(NS_PER_SEC, [1, 0], [10.0, 20.0])
        assert channel.values[:, -1].tolist() == [20.0, 10.0]
        assert channel.counts.tolist() == [1, 1]


class TestIdentityMemos:
    def test_steady_fused_passes_never_compare_units(self, monkeypatch):
        monkeypatch.setattr(units_module, "same_units", same_units_refused)
        monkeypatch.setattr(operator, "same_units", same_units_refused)
        staged, fused, s_ops, f_ops, group = run_both(20)
        assert final_series(staged) == final_series(fused)
        assert all(f_op.error_count == 0 for f_op in f_ops)
        assert len(final_series(fused)["/n0/mx"]) == 20

    def test_new_units_of_the_same_length_recompile_every_memo(self):
        staged, fused, s_ops, f_ops, group = run_both(8)
        plan_before = group._plan
        # Every stage gets new units in a new order: the same length,
        # other objects — each memo must notice and recompile.
        for ops in (s_ops, f_ops):
            for op, (in_name, out_name) in zip(
                ops, (("power", "sm"), ("sm", "ag"), ("ag", "mx"))
            ):
                op.set_units([
                    unit_for(i, in_name, out_name)
                    for i in reversed(range(N_UNITS))
                ])
        rng = np.random.default_rng(11)
        for tick in range(9, 20):
            ts = tick * NS_PER_SEC
            for i in range(N_UNITS):
                v = float(rng.random())
                staged.feed(ts, f"/n{i}/power", v)
                fused.feed(ts, f"/n{i}/power", v)
            for op in s_ops:
                op.compute(ts)
            group.run(ts)
        assert group._plan is not plan_before
        assert all(a is op.units for a, op in zip(group._plan.units, f_ops))
        for op in f_ops:
            assert op._batch_layout[0] is op.units
        terminal = f_ops[-1]
        assert terminal._output_layout[0] is terminal.units
        assert terminal._output_layout[1] == tuple(
            u.outputs[0] for u in terminal.units
        )
        assert final_series(staged) == final_series(fused)

    def test_mid_run_quarantine_gets_its_layout_and_recovers(self):
        def configure(ops):
            ops[1].config.breaker_cooldown = 2

        staged, fused, s_ops, f_ops, group = run_both(6, configure=configure)
        rng = np.random.default_rng(17)
        seen = []
        for tick in range(7, 20):
            if tick == 9:
                for ops in (s_ops, f_ops):
                    ops[1].set_breaker("/n3", "trip")
            ts = tick * NS_PER_SEC
            for i in range(N_UNITS):
                v = float(rng.random())
                staged.feed(ts, f"/n{i}/power", v)
                fused.feed(ts, f"/n{i}/power", v)
            for op in s_ops:
                op.compute(ts)
            group.run(ts)
            seen.append(len(f_ops[1]._batch_layout[0]))
        # Quarantined passes gathered the seven other units; the probe
        # brought the full list back, the operator's own by identity.
        assert N_UNITS - 1 in seen and seen[-1] == N_UNITS
        assert f_ops[1]._batch_layout[0] is f_ops[1].units
        assert f_ops[1].quarantined_units() == []
        assert final_series(staged) == final_series(fused)


# ----------------------------------------------------------------------
# A producer that drops a unit mid-run
# ----------------------------------------------------------------------


class TestProducerDropsAUnit:
    def test_consumer_reads_the_last_window_as_staged_reads_the_cache(self):
        """Regression: after a fused producer's ``set_units`` dropped a
        unit, the recompiled channel lost that unit's row, so the
        consumer got an empty row and a unit error on every pass, while
        staged keeps serving the cache the producer last wrote."""
        staged, fused, s_ops, f_ops, group = run_both(12)
        for ops in (s_ops, f_ops):
            ops[0].set_units([
                unit_for(i, "power", "sm") for i in range(1, N_UNITS)
            ])
        rng = np.random.default_rng(5)
        for tick in range(13, 40):
            ts = tick * NS_PER_SEC
            for i in range(N_UNITS):
                v = float(rng.random())
                staged.feed(ts, f"/n{i}/power", v)
                fused.feed(ts, f"/n{i}/power", v)
            for op in s_ops:
                op.compute(ts)
            group.run(ts)
        assert final_series(staged) == final_series(fused)
        assert len(final_series(fused)["/n0/mx"]) == 39
        for s_op, f_op in zip(s_ops, f_ops):
            assert f_op.error_count == s_op.error_count == 0
            assert f_op.last_errors == s_op.last_errors
            assert f_op.unit_results_count == s_op.unit_results_count


# ----------------------------------------------------------------------
# Stacks: congruent chains side by side
# ----------------------------------------------------------------------


def lane(tag, window=5, params=None, interval=1, delay=0, cadence=1,
         plugin=AggregatorOperator, phase=None):
    """A two-stage private chain ``/p<tag> -> /x<tag> -> /y<tag>`` whose
    first stage takes the given settings."""
    first = FusionSpec(
        name=f"a{tag}", plugin=plugin, phase=phase, has_kernel=True,
        config=OperatorConfig(
            name=f"a{tag}", window_ns=window * NS_PER_SEC,
            interval_ns=interval * NS_PER_SEC, delay_ns=delay * NS_PER_SEC,
            unit_cadence=cadence, publish_outputs=False,
            params=params or {"op": "mean"},
        ),
        input_topics=frozenset({f"/p{tag}"}),
        output_topics=frozenset({f"/x{tag}"}),
    )
    second = FusionSpec(
        name=f"b{tag}", plugin=AggregatorOperator, phase=phase,
        has_kernel=True,
        config=OperatorConfig(
            name=f"b{tag}", window_ns=10 * NS_PER_SEC,
            interval_ns=interval * NS_PER_SEC, delay_ns=delay * NS_PER_SEC,
            params={"op": "max"},
        ),
        input_topics=frozenset({f"/x{tag}"}),
        output_topics=frozenset({f"/y{tag}"}),
    )
    return [first, second]


class TestStackPlanner:
    def test_congruent_adjacent_chains_stack(self):
        plan = plan_fusion(lane(1) + lane(2) + lane(3))
        assert plan.groups == [["a1", "b1"], ["a2", "b2"], ["a3", "b3"]]
        assert plan.stacks == [[["a1", "b1"], ["a2", "b2"], ["a3", "b3"]]]

    def test_a_lone_chain_is_a_stack_of_one_lane(self):
        assert plan_fusion(lane(1)).stacks == [[["a1", "b1"]]]
        assert plan_fusion([]).stacks == []

    @pytest.mark.parametrize("differs", [
        {"window": 6},
        {"params": {"op": "sum"}},
        {"interval": 2},
        {"delay": 1},
        {"phase": 7 * NS_PER_SEC},
        {"cadence": 2},
        {"plugin": SmootherOperator},
    ], ids=["window", "params", "interval", "phase", "due", "cadence",
            "plugin"])
    def test_chains_that_differ_never_stack(self, differs):
        plan = plan_fusion(lane(1) + lane(2, **differs) + lane(3))
        assert len(plan.groups) == 3
        assert plan.stacks == [[["a1", "b1"]], [["a2", "b2"]], [["a3", "b3"]]]

    def test_a_plugin_whose_kernel_is_not_row_wise_never_stacks(self):
        # Health keeps a trip counter per unit in its model.
        plan = plan_fusion(
            lane(1, plugin=HealthOperator) + lane(2, plugin=HealthOperator)
        )
        assert plan.stacks == [[["a1", "b1"]], [["a2", "b2"]]]

    def test_chains_with_an_operator_between_them_do_not_stack(self):
        between = spec("x", inputs=["/q"], outputs=["/r"], publish=True)
        plan = plan_fusion(lane(1) + [between] + lane(2))
        assert plan.stacks == [[["a1", "b1"]], [["a2", "b2"]]]

    def test_a_lane_reading_another_lanes_output_does_not_stack(self):
        second = lane(2)
        second[0].input_topics = frozenset({"/y1"})
        plan = plan_fusion(lane(1) + second)
        assert plan.stacks == [[["a1", "b1"]], [["a2", "b2"]]]

    def test_the_static_default_phase_is_the_delay(self):
        assert lane(1, delay=3)[0].phase == 3 * NS_PER_SEC
        assert lane(1, phase=5)[0].phase == 5


EXAMPLE = "examples/fused_pipeline.json"


def example_spec():
    import json
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    return json.loads((root / EXAMPLE).read_text())


class TestExampleStack:
    def test_static_stacks_equal_the_runtime_stacks(self):
        from repro.analysis.config import resolve_deployment
        from repro.spec import read_deployment

        doc = example_spec()
        static = resolve_deployment(read_deployment(doc)).pushers.fusion_plan()
        assert static.stacks == [[
            ["smooth-power", "avg-power", "peak-power"],
            ["smooth-temp", "avg-temp", "peak-temp"],
        ]]
        dep = build_deployment(doc)
        for pusher, manager in dep.managers.items():
            runtime = [
                [[op.name for op in lane] for lane in group.lanes]
                for group in manager.fused_groups()
            ]
            assert runtime == static.stacks
            registry = dep.pushers[pusher].telemetry
            assert registry.gauge("fused_groups").value == 1
            assert registry.gauge("fused_chains").value == 2

    def test_f013_names_the_stack(self):
        f013 = [d for d in analyze_flow(example_spec()) if d.code == "F013"]
        assert len(f013) == 1 and f013[0].severity == "info"
        assert "2 lanes" in f013[0].message
        assert "smoother/smooth-temp" in f013[0].message

    def test_the_stack_stores_what_staged_stores(self):
        def series(fusion_mode):
            doc = example_spec()
            for block in doc["analytics"]["pushers"]:
                for op in block["operators"].values():
                    op["fusion"] = fusion_mode
            dep = build_deployment(doc)
            dep.run(40)
            storage = dep.agent.storage
            topics = sorted(
                t for t in storage.topics() if t.endswith(("peak-power", "peak-temp"))
            )
            return {t: storage.query(t, 0, dep.now) for t in topics}, dep

        staged, _ = series(False)
        stacked, dep = series("auto")
        assert all(len(m.fused_groups()) == 1 for m in dep.managers.values())
        assert len(staged) == 8 and staged.keys() == stacked.keys()
        for topic, (ts, vals) in staged.items():
            assert ts.tobytes() == stacked[topic][0].tobytes()
            assert vals.tobytes() == stacked[topic][1].tobytes()


def build_stack(lanes: int, n_units: int = N_UNITS):
    """``lanes`` copies of :func:`build_chain`'s pipeline on one host,
    lane ``j`` reading ``/n<i>/p<j>``."""
    host = Host([f"/n{i}/p{j}" for j in range(lanes) for i in range(n_units)])
    engine = QueryEngine(host)
    chains = []
    for j in range(lanes):
        stages = [
            (SmootherOperator, dict(window_ns=5 * NS_PER_SEC,
                                    publish_outputs=False), f"p{j}", f"sm{j}"),
            (AggregatorOperator, dict(window_ns=10 * NS_PER_SEC,
                                      publish_outputs=False,
                                      params={"ops": {"*": "mean"}}),
             f"sm{j}", f"ag{j}"),
            (AggregatorOperator, dict(window_ns=20 * NS_PER_SEC,
                                      params={"ops": {"*": "max"}}),
             f"ag{j}", f"mx{j}"),
        ]
        chain = []
        for cls, fields, in_name, out_name in stages:
            op = cls(OperatorConfig(name=out_name, **fields))
            op.bind(host, engine)
            op.set_units([unit_for(i, in_name, out_name) for i in range(n_units)])
            op.start()
            chain.append(op)
        chains.append(chain)
    return host, engine, chains


class TestStackUnderTheSanitizer:
    def test_every_lane_passes_and_the_stacked_window_is_fingerprinted(self):
        host, engine, chains = build_stack(2)
        group = FusedGroup("t:stack", chains, host, engine)
        rng = np.random.default_rng(3)
        san = Sanitizer(track_wall_clock=False)
        with san.activate():
            for tick in range(1, 5):
                ts = tick * NS_PER_SEC
                for topic in list(host.caches):
                    if "/p" in topic:
                        host.feed(ts, topic, float(rng.random()))
                group.run(ts)
        events = san.event_summary()
        # One begin/end per lane and stage; one view per gathered row.
        assert events["compute_passes"] == 4 * 2 * 3
        assert events["views_tracked"] == 4 * 3 * 2 * N_UNITS
        assert all(op.compute_count == 4 for chain in chains for op in chain)
        assert san.finish() == []

    def test_a_kernel_writing_into_the_stacked_window_is_r007(self):
        class Scribbling(AggregatorOperator):
            def compute_batch(self, units, window, slices):
                result = super().compute_batch(units, window, slices)
                window.values[:, -1] += 1.0
                return result

        host, engine, chains = build_stack(2)
        for chain in chains:
            scribbler = Scribbling(chain[1].config)
            scribbler.bind(host, engine)
            scribbler.set_units(chain[1].units)
            scribbler.start()
            chain[1] = scribbler
        group = FusedGroup("t:scribble", chains, host, engine)
        san = Sanitizer(track_wall_clock=False)
        with san.activate():
            for tick in range(1, 3):
                for topic in list(host.caches):
                    if "/p" in topic:
                        host.feed(tick * NS_PER_SEC, topic, 1.0)
                group.run(tick * NS_PER_SEC)
        assert {d.code for d in san.finish()} == {"R007"}
