"""Tests for the persyst plugin (per-job quantile aggregation)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigError
from repro.common.timeutil import NS_PER_SEC
from repro.core.operator import OperatorConfig, PassResult
from repro.core.queryengine import BatchWindow, QueryEngine
from repro.core.tree import SensorTree
from repro.core.units import Unit
from repro.dcdb.sensor import Sensor
from repro.ml.stats import quantiles
from repro.plugins.persyst import PerSystOperator, quantile_output_name
from tests.hosts import RecordingHost


class Host(RecordingHost):
    capacity = 8

    def set_latest(self, topic, value):
        cache = self.caches.get(topic)
        ts = cache.latest().timestamp + NS_PER_SEC if cache else 0
        self.push(topic, ts, value)


class FakeJob:
    def __init__(self, jid, nodes, start=0, end=10**18):
        self.job_id = jid
        self.node_paths = nodes
        self._range = (start, end)

    def is_running(self, ts):
        return self._range[0] <= ts < self._range[1]


class FakeJobSource:
    def __init__(self, jobs):
        self.jobs = jobs

    def running_jobs(self, ts):
        return [j for j in self.jobs if j.is_running(ts)]


def build_rig(core_values_by_node):
    """Host + tree where each node has per-cpu 'cpi' sensors."""
    host = Host()
    topics = []
    for node, values in core_values_by_node.items():
        for k, v in enumerate(values):
            topic = f"{node}/cpu{k}/cpi"
            host.set_latest(topic, v)
            topics.append(topic)
    tree = SensorTree.from_topics(topics)
    return host, tree


def make_op(job_source, window_s=2, **params):
    cfg = OperatorConfig(
        name="ps",
        window_ns=window_s * NS_PER_SEC,
        inputs=["<bottomup, filter cpu>cpi"],
        params=params,
    )
    return PerSystOperator(cfg, job_source=job_source)


class TestQuantileNaming:
    def test_deciles(self):
        assert quantile_output_name(0.0) == "decile0"
        assert quantile_output_name(0.5) == "decile5"
        assert quantile_output_name(1.0) == "decile10"

    def test_non_decile_quantiles(self):
        assert quantile_output_name(0.25) == "q25"
        assert quantile_output_name(0.99) == "q99"


class TestPerSyst:
    def test_deciles_across_job_cores(self):
        host, tree = build_rig(
            {"/r0/n0": list(range(0, 11)), "/r0/n1": list(range(100, 111))}
        )
        job = FakeJob("j1", ["/r0/n0", "/r0/n1"])
        op = make_op(FakeJobSource([job]))
        op.bind(host, QueryEngine(host))
        op.init_units(tree)
        op.start()
        results = op.compute(0)
        assert len(results) == 1
        values = results[0].values
        # 22 samples: min 0, max 110.
        assert values["decile0"] == 0.0
        assert values["decile10"] == 110.0
        assert values["decile5"] == pytest.approx(np.percentile(
            list(range(11)) + list(range(100, 111)), 50))

    def test_one_unit_per_running_job(self):
        host, tree = build_rig(
            {"/r0/n0": [1.0], "/r0/n1": [2.0], "/r0/n2": [3.0]}
        )
        jobs = FakeJobSource(
            [
                FakeJob("j1", ["/r0/n0"], 0, 100),
                FakeJob("j2", ["/r0/n1", "/r0/n2"], 0, 50),
            ]
        )
        op = make_op(jobs)
        op.bind(host, QueryEngine(host))
        op.init_units(tree)
        op.start()
        assert {r.unit.tag for r in op.compute(10)} == {"j1", "j2"}
        assert {r.unit.tag for r in op.compute(60)} == {"j1"}

    def test_outputs_stored_under_jobs_tree(self):
        host, tree = build_rig({"/r0/n0": [1.0, 2.0]})
        op = make_op(FakeJobSource([FakeJob("j7", ["/r0/n0"])]))
        op.bind(host, QueryEngine(host))
        op.init_units(tree)
        op.start()
        op.compute(0)
        topics = {t for t, _, _ in host.stored}
        assert "/jobs/j7/decile0" in topics
        assert "/jobs/j7/decile10" in topics

    def test_extra_statistics(self):
        host, tree = build_rig({"/r0/n0": [1.0, 3.0]})
        op = make_op(
            FakeJobSource([FakeJob("j1", ["/r0/n0"])]),
            quantiles=[0.5],
            statistics=["mean", "std"],
        )
        op.bind(host, QueryEngine(host))
        op.init_units(tree)
        op.start()
        values = op.compute(0)[0].values
        assert values["mean"] == pytest.approx(2.0)
        assert values["std"] == pytest.approx(1.0)

    def test_custom_quantiles(self):
        host, tree = build_rig({"/r0/n0": list(range(101))})
        op = make_op(
            FakeJobSource([FakeJob("j1", ["/r0/n0"])]), quantiles=[0.25, 0.75]
        )
        op.bind(host, QueryEngine(host))
        op.init_units(tree)
        op.start()
        values = op.compute(0)[0].values
        assert values["q25"] == pytest.approx(25.0)
        assert values["q75"] == pytest.approx(75.0)

    def test_missing_metric_sensors_skip_silently(self):
        # Node n1 has no cpi sensors at all: unit still aggregates n0.
        host, tree = build_rig({"/r0/n0": [5.0]})
        tree.add_component("/r0/n1")
        op = make_op(FakeJobSource([FakeJob("j1", ["/r0/n0", "/r0/n1"])]))
        op.config.relaxed = True
        op.bind(host, QueryEngine(host))
        op.init_units(tree)
        op.start()
        values = op.compute(0)[0].values
        assert values["decile5"] == 5.0

    @pytest.mark.parametrize(
        "params",
        [
            {"quantiles": []},
            {"quantiles": [1.5]},
            {"statistics": ["variance"]},
        ],
    )
    def test_validation(self, params):
        with pytest.raises(ConfigError):
            make_op(FakeJobSource([]), **params)


# ---------------------------------------------------------------------
# Job units persist across passes
# ---------------------------------------------------------------------


class ParentPerSyst(PerSystOperator):
    """The parent commit's ``refresh_units``, frozen: every job resolved
    afresh on every pass.  The reference for what the memo may change —
    nothing but the number of resolutions."""

    def refresh_units(self, ts):
        from repro.core.units import resolve_job_unit

        if self.job_source is None or self._tree is None:
            return
        refreshed = False
        units = []
        for job in self.job_source.running_jobs(ts):
            for attempt in (0, 1):
                try:
                    units.append(
                        resolve_job_unit(
                            self._tree,
                            job.job_id,
                            job.node_paths,
                            self.config.inputs,
                            self.job_output_names(),
                            publish_outputs=self.config.publish_outputs,
                            relaxed=self.config.relaxed,
                        )
                    )
                    break
                except Exception as exc:
                    if attempt == 0 and not refreshed and self.engine is not None:
                        self.engine.refresh_navigator()
                        refreshed = True
                        continue
                    self._note_error(job.job_id, exc)
                    break
        kept = {u.name for u in units}
        self._unit_models = {
            name: m for name, m in self._unit_models.items() if name in kept
        }
        self._install_units(units)


NODES = {f"/r0/n{i}": [float(i), 10.0 + i] for i in range(4)}


def job_rig(cls, jobs):
    host, tree = build_rig(NODES)
    cfg = OperatorConfig(
        name="ps", window_ns=2 * NS_PER_SEC,
        inputs=["<bottomup, filter cpu>cpi"],
    )
    op = cls(cfg, job_source=FakeJobSource(jobs))
    op.bind(host, QueryEngine(host))
    op.init_units(tree)
    op.start()
    return host, tree, op


@pytest.fixture
def resolutions(monkeypatch):
    """Every ``resolve_job_unit`` call, by job id."""
    import repro.core.units as units

    calls = []
    real = units.resolve_job_unit

    def counted(tree, job_id, *args, **kwargs):
        calls.append(job_id)
        return real(tree, job_id, *args, **kwargs)

    monkeypatch.setattr(units, "resolve_job_unit", counted)
    return calls


def plan_compiles(op):
    return op.engine.telemetry.get("qe_plan_compiles_total").value


class TestJobUnitsPersist:
    def test_a_steady_pass_resolves_nothing(self, resolutions):
        jobs = [FakeJob("j1", ["/r0/n0", "/r0/n1"]), FakeJob("j2", ["/r0/n2"])]
        _host, _tree, op = job_rig(PerSystOperator, jobs)
        op.compute(0)
        assert resolutions == ["j1", "j2"]
        units, compiles = list(op.units), plan_compiles(op)
        for step in range(1, 6):
            op.compute(step * NS_PER_SEC)
        assert resolutions == ["j1", "j2"]
        assert all(a is b for a, b in zip(op.units, units))
        assert plan_compiles(op) == compiles

    def test_a_job_start_or_end_resolves_only_the_new_job(self, resolutions):
        jobs = [
            FakeJob("j1", ["/r0/n0"], 0, 100),
            FakeJob("j2", ["/r0/n1"], 50, 200),
            FakeJob("j3", ["/r0/n2"], 0, 80),
        ]
        _host, _tree, op = job_rig(PerSystOperator, jobs)
        op.compute(10)
        j1 = op.unit_named("/jobs/j1")
        op.compute(60)  # j2 starts
        assert resolutions == ["j1", "j3", "j2"]
        op.compute(90)  # j3 ends
        assert resolutions == ["j1", "j3", "j2"]
        assert [u.tag for u in op.units] == ["j1", "j2"]
        assert op.unit_named("/jobs/j1") is j1

    def test_a_generation_move_resolves_every_job(self, resolutions):
        jobs = [FakeJob("j1", ["/r0/n0"]), FakeJob("j2", ["/r0/n1"])]
        _host, tree, op = job_rig(PerSystOperator, jobs)
        op.compute(0)
        stale = list(op.units)
        tree.add_sensor("/r0/n1/cpu9/cpi")
        op.compute(NS_PER_SEC)
        assert resolutions == ["j1", "j2", "j1", "j2"]
        assert not any(a is b for a, b in zip(op.units, stale))
        assert "/r0/n1/cpu9/cpi" in op.unit_named("/jobs/j2").inputs

    def test_units_errors_and_results_match_the_parent(self):
        """An unresolvable job is retried and counted every pass, as
        before; the rest is the same too, across start, end and a
        sensor-space change."""
        def jobs():
            return [
                FakeJob("j1", ["/r0/n0", "/r0/n1"], 0, 10 * NS_PER_SEC),
                FakeJob("bad", ["/r0/nope"]),
                FakeJob("j2", ["/r0/n2"], 3 * NS_PER_SEC),
                FakeJob("j3", ["/r0/n3"], 5 * NS_PER_SEC, 8 * NS_PER_SEC),
            ]

        rigs = [job_rig(cls, jobs()) for cls in (PerSystOperator, ParentPerSyst)]
        for step in range(12):
            ts = step * NS_PER_SEC
            for host, tree, op in rigs:
                for node, values in NODES.items():
                    host.set_latest(f"{node}/cpu0/cpi", values[0] + step)
                if step == 6:
                    tree.add_sensor("/r0/n2/cpu7/cpi")
                    host.set_latest("/r0/n2/cpu7/cpi", 3.5)
            (_, _, op), (_, _, parent) = rigs
            got, want = op.compute(ts), parent.compute(ts)
            assert [(r.unit.name, r.unit.inputs, r.values) for r in got] == [
                (r.unit.name, r.unit.inputs, r.values) for r in want
            ], step
            assert op.error_count == parent.error_count == step + 1
            assert op.last_errors == parent.last_errors
        assert "bad: job bad: unknown node /r0/nope" in op.last_errors


# ----------------------------------------------------------------------
# One quantile call per pass: bit-equal to one call per job
# ----------------------------------------------------------------------


def per_job_reference(op, last, live, slices):
    """Each job's outputs as one ``ml.stats.quantiles`` call per job made
    them: the live rows' newest values, quantiles over the finite ones,
    ``mean``/``std`` over all of them; a job with no live row left out."""
    out = []
    for rows in slices:
        samples = last[rows.start:rows.stop][live[rows.start:rows.stop]]
        if not samples.size:
            continue
        values = dict(zip(
            [quantile_output_name(q) for q in op.quantiles],
            (float(v) for v in quantiles(samples, op.quantiles)),
        ))
        if "mean" in op.extra_stats:
            values["mean"] = float(samples.mean())
        if "std" in op.extra_stats:
            values["std"] = float(samples.std())
        out.append(values)
    return out


SAMPLE = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False, width=64),
    st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0]),
)


@st.composite
def persyst_passes(draw):
    """``(quantiles, statistics, per-job values, per-job counts)``: jobs
    of one row count or of several, rows live or empty, finite or not."""
    jobs = draw(st.integers(1, 5))
    ragged = draw(st.booleans())
    lengths = draw(st.lists(
        st.integers(1, 12), min_size=jobs, max_size=jobs,
    )) if ragged else [draw(st.integers(1, 12))] * jobs
    finite = draw(st.booleans())
    sample = st.floats(-1e6, 1e6, allow_nan=False, width=64) if finite else SAMPLE
    values = [draw(st.lists(sample, min_size=n, max_size=n)) for n in lengths]
    all_live = draw(st.booleans())
    counts = [
        [1] * n if all_live else draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        for n in lengths
    ]
    qs = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12))
    stats = draw(st.lists(st.sampled_from(["mean", "std"]), unique=True))
    return qs, stats, values, counts


def check_one_call(qs, stats, values, counts):
    """One pass over jobs of ``values`` (rows live where ``counts`` > 0)
    is bit-equal to :func:`per_job_reference`, and takes the one-call
    path exactly when every job holds as many live samples, all finite."""
    op = make_op(FakeJobSource([]), quantiles=qs, statistics=stats)
    names = op.job_output_names()
    units, slices, row = [], [], 0
    for j, job in enumerate(values):
        units.append(Unit(
            name=f"/jobs/j{j}", level=0,
            inputs=[f"/n/cpu{k}/cpi" for k in range(len(job))],
            outputs=[Sensor(f"/jobs/j{j}/{name}", is_operator_output=True)
                     for name in names],
        ))
        slices.append(range(row, row + len(job)))
        row += len(job)
    lengths = {len(job) for job in values}
    m = lengths.pop() if len(lengths) == 1 else 0
    op.rows_per_unit = lambda: m  # the layout a gather would have left
    flat_counts = np.array([c for job in counts for c in job], dtype=np.int64)
    newest = np.array([v for job in values for v in job], dtype=np.float64)
    last = np.where(flat_counts > 0, newest, np.nan)
    window = BatchWindow(
        [f"/t{i}" for i in range(row)], last[:, None],
        np.zeros((row, 1), dtype=np.int64), np.minimum(flat_counts, 1),
    )
    result = op.compute_batch(units, window, slices)
    got = result.results() if isinstance(result, PassResult) else result
    want = per_job_reference(op, last, flat_counts > 0, slices)
    assert len(got) == len(want)
    for (unit, produced), expected in zip(got, want):
        assert sorted(produced) == sorted(expected)  # stored in output order
        assert all(
            np.float64(produced[k]).tobytes() == np.float64(v).tobytes()
            for k, v in expected.items()
        ), unit.name
    held = (flat_counts > 0).reshape(len(units), -1) if m else None
    uniform = (
        m and np.isfinite(last).sum() == (flat_counts > 0).sum()
        and len({int(h.sum()) for h in held}) == 1 and held[0].any()
    )
    assert isinstance(result, PassResult) == bool(uniform)
    return result


@settings(max_examples=300, deadline=None)
@given(case=persyst_passes())
def test_one_quantile_call_is_one_call_per_job(case):
    check_one_call(*case)


@pytest.mark.parametrize("jobs, cpus", [(3, 128), (2, 129), (3, 300), (1, 1000)])
def test_one_quantile_call_at_the_served_shapes(jobs, cpus):
    """``agent_holistic``'s 3 jobs x 128 cpus, and jobs past NumPy's
    128-element summation blocks, with ``mean`` and ``std``: the
    row-wise reductions are bit-equal to the per-job ones."""
    rng = np.random.default_rng(cpus)
    values = (rng.standard_normal((jobs, cpus)) * 1e3 + 2.5).tolist()
    qs = [i / 10 for i in range(11)] + [0.25, 0.333]
    counts = [[1] * cpus] * jobs
    result = check_one_call(qs, ["mean", "std"], values, counts)
    assert isinstance(result, PassResult)
    values[-1][cpus // 2] = np.nan  # one NaN sample: per job again
    assert not isinstance(check_one_call(qs, ["mean", "std"], values, counts), PassResult)
