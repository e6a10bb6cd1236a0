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
from repro.core.fusion import FusedGroup
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
        self.caches[topic].store_batch(
            np.asarray([ts], dtype=np.int64), np.asarray([value])
        )

    def store_reading(self, sensor, ts, value):
        self.stored.setdefault(sensor.topic, []).append((ts, float(value)))
        cache = self.caches.get(sensor.topic)
        if cache is None:
            cache = self.caches[sensor.topic] = SensorCache.for_duration(
                self.cache_window_ns, NS_PER_SEC
            )
        cache.store_batch(
            np.asarray([ts], dtype=np.int64), np.asarray([value])
        )

    def store_readings_batch(self, ts, readings):
        for sensor, value in zip(readings.sensors, readings.values.tolist()):
            self.store_reading(sensor, ts, value)


def unit_for(i: int, in_name: str, out_name: str) -> Unit:
    return Unit(
        name=f"/n{i}",
        level=0,
        inputs=[f"/n{i}/{in_name}"],
        outputs=[Sensor(f"/n{i}/{out_name}", is_operator_output=True)],
    )


def build_chain(n_units: int = N_UNITS):
    """One pipeline instance: smoother -> aggregator -> aggregator."""
    host = Host([f"/n{i}/power" for i in range(n_units)])
    engine = QueryEngine(host)
    stages = [
        (SmootherOperator, OperatorConfig(
            name="sm", window_ns=5 * NS_PER_SEC, publish_outputs=False,
        ), "power", "sm"),
        (AggregatorOperator, OperatorConfig(
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


def run_both(ticks, feed=None, skip=(), n_units: int = N_UNITS):
    """Run staged and fused executions over one input stream.

    ``feed(tick, i)`` produces unit ``i``'s reading (None = no reading);
    ``skip`` unit indices never produce at all (missing-data parity).
    Returns (staged_host, fused_host, staged_ops, fused_ops, group).
    """
    rng = np.random.default_rng(7)
    staged_host, _, staged_ops = build_chain(n_units)
    fused_host, fused_engine, fused_ops = build_chain(n_units)
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
        for mode in (True, False, "auto"):
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

    def test_forced_fusion_admits_a_per_unit_plugin(self):
        a, b = self.chain(kernel=False, fusion=True)
        assert plan_fusion([a, b]).groups == [["a", "b"]]

    def test_kernel_is_read_off_the_plugin_class(self):
        from repro.core.pipeline import has_kernel
        from repro.plugins.clustering import ClusteringOperator
        from repro.plugins.perfmetrics import PerfMetricsOperator

        for cls in (AggregatorOperator, SmootherOperator, HealthOperator,
                    PerSystOperator):
            assert has_kernel(cls)
        assert has_kernel(PerfMetricsOperator)
        assert not has_kernel(ClusteringOperator)

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

    def test_job_terminal_needs_forced_fusion(self):
        a, b = self.chain(job=True)
        assert plan_fusion([a, b]).groups == []
        a2, b2 = self.chain(job=True, fusion=True)
        assert plan_fusion([a2, b2]).groups == [["a", "b"]]

    def test_job_cannot_produce_intermediates(self):
        a = spec("a", inputs=["/p"], outputs=["/x"], job=True, fusion=True)
        b = spec("b", inputs=["/x"], outputs=["/y"])
        plan = plan_fusion([a, b])
        assert plan.groups == [] and plan.blocked == []

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

    def test_persyst_forced_job_terminal_parity(self):
        deciles = [0.0, 0.5, 1.0]

        def stack():
            host = Host([f"/n{i}/power" for i in range(N_UNITS)])
            engine = QueryEngine(host)
            ag = AggregatorOperator(OperatorConfig(
                name="ag", window_ns=5 * NS_PER_SEC, publish_outputs=False,
                params={"ops": {"*": "mean"}},
            ))
            ps = PerSystOperator(OperatorConfig(
                name="ps", window_ns=5 * NS_PER_SEC, fusion=True,
                params={"quantiles": deciles},
            ))
            ag.bind(host, engine)
            ag.set_units(
                [unit_for(i, "power", "ag") for i in range(N_UNITS)]
            )
            ag.start()
            ps.bind(host, engine)
            ps.set_units([
                Unit(
                    name="job1",
                    level=0,
                    inputs=[f"/n{i}/ag" for i in range(N_UNITS)],
                    outputs=[
                        Sensor(f"/job1/decile{d}", is_operator_output=True)
                        for d in (0, 5, 10)
                    ],
                )
            ])
            ps.start()
            return host, engine, [ag, ps]

        # The planner admits the job plugin only as a forced terminal.
        plan = plan_fusion([
            spec("ag", inputs=["/p"], outputs=["/x"]),
            spec("ps", inputs=["/x"], outputs=["/d"], job=True, fusion=True),
        ])
        assert plan.groups == [["ag", "ps"]]

        s_host, _, s_ops = stack()
        f_host, f_engine, f_ops = stack()
        group = FusedGroup("t:persyst", f_ops, f_host, f_engine)
        rng = np.random.default_rng(11)
        for tick in range(1, 20):
            ts = tick * NS_PER_SEC
            for i in range(N_UNITS):
                v = float(rng.random())
                s_host.feed(ts, f"/n{i}/power", v)
                f_host.feed(ts, f"/n{i}/power", v)
            for op in s_ops:
                op.compute(ts)
            group.run(ts)
        s_out = {t: v for t, v in s_host.stored.items() if t.startswith("/job1/")}
        f_out = {t: v for t, v in f_host.stored.items() if t.startswith("/job1/")}
        assert s_out == f_out and len(f_out) == 3


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

    def test_report_shows_blocked_chains(self):
        from repro.analysis.flow import build_flow_model, render_flow_report

        model = build_flow_model(flow_spec(publish_outputs=True))
        assert model.fused_groups == []
        assert [b[3] for b in model.fusion_blocked] == ["external-subscriber"]
        assert "stays staged (external-subscriber)" in render_flow_report(model)
