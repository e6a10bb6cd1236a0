"""The cluster simulator's one state and one clock.

:class:`ClusterSimulator` advances every node at once on arrays.  The
twin below is the per-node loop it replaces, kept here frozen: the same
profiles and the same draws (one instance per running job over all its
nodes' cores, one idle instance over the cluster, power noise drawn per
time bin for all nodes), but one node row at a time with scalar power
arithmetic.  Every counter and node sensor must match it bit for bit
over drawn seeds, job mixes and sample times.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigError
from repro.common.rng import derive_seed
from repro.common.timeutil import NS_PER_MS, NS_PER_SEC
from repro.dcdb.plugins import OpaPlugin, PerfeventPlugin, ProcfsPlugin, SysfsPlugin
from repro.simulator import (
    ClusterSimulator,
    ClusterSpec,
    ClusterTopology,
    CoolingSystem,
    workload,
)
from repro.simulator.engine import CPU_COUNTERS, NODE_SENSORS
from repro.simulator.node import NodePowerParams, PowerModel
from repro.simulator.scheduler import Job
from repro.simulator.workload import (
    IdleProfile,
    binned_uniform,
    profile_by_name,
    value_noise,
)

APPS = ("hpl", "lammps", "amg", "kripke", "nekbone")


class PerNodeTwin:
    """The simulator as a loop over nodes, one row of state each."""

    def __init__(self, spec, seed, scheduler, anomalies):
        self.paths = list(scheduler.node_paths)
        self.cpus = spec.cpus_per_node
        self.seed = seed
        self.scheduler = scheduler
        self.params = NodePowerParams()
        n = len(self.paths)
        self.counters = np.zeros((n, self.cpus, len(CPU_COUNTERS)))
        self.values = np.zeros((n, len(NODE_SENSORS)))
        self.net = [[0.0, 0.0] for _ in range(n)]
        self.power_seed = derive_seed(seed, "power")
        self.efficiency = [
            float(np.clip(np.random.default_rng(
                derive_seed(seed, f"node:{p}")).normal(1.0, 0.03), 0.9, 1.1))
            for p in self.paths
        ]
        self.factor = [anomalies.get(p, 1.0) for p in self.paths]
        self.temp = [self.params.ambient_c + 5.0] * n
        self.energy = [0.0] * n
        self.idle_time = [0.0] * n
        self.idle = IdleProfile().make_instance(
            n * self.cpus, derive_seed(seed, "idle"))
        self.last_ts = [-1] * n
        self.jobs = [None] * n

    def instance(self, job):
        return profile_by_name(job.app_name).make_instance(
            len(job.node_paths) * self.cpus,
            derive_seed(self.seed, f"job:{job.job_id}"),
            duration_s=(job.end_ts - job.start_ts) / NS_PER_SEC,
        )

    def advance(self, ts):
        for r, path in enumerate(self.paths):
            self.advance_row(r, path, ts)

    def advance_row(self, r, path, ts):
        if ts == self.last_ts[r]:
            return  # a repeat read
        p, c = self.params, self.cpus
        job = self.scheduler.job_on_node(path, ts)
        self.jobs[r] = job.job_id if job else None
        if job is None:
            inst, pos, start_ts = self.idle, r, 0
        else:
            inst, pos, start_ts = (
                self.instance(job), job.node_paths.index(path), job.start_ts)
        dt_s = 0.0 if self.last_ts[r] < 0 else (ts - self.last_ts[r]) / NS_PER_SEC
        t_mid = max(0.0, (ts - start_ts) / NS_PER_SEC - dt_s / 2.0)
        rates = inst.rates(t_mid)
        cores = slice(pos * c, (pos + 1) * c)
        util = rates.utilization[cores]
        stall = np.clip(1.0 - 0.004 * (rates.cpi[cores] - 1.0), 0.7, 1.0)
        activity = float(np.mean(util * stall) * inst.power_intensity)
        mean_util = float(np.mean(util))
        if dt_s > 0.0:
            per_counter = (
                rates.cycles_per_s, rates.instr_per_s, rates.cache_miss_per_s,
                rates.cache_ref_per_s, rates.flops_per_s,
                rates.vector_ops_per_s,
            )
            for col, rate in enumerate(per_counter):
                self.counters[r, :, col] += rate[cores] * dt_s
            self.net[r][0] += rates.net_bytes_per_s * dt_s
            self.net[r][1] += rates.net_bytes_per_s * 0.96 * dt_s
        # The power model, one node's scalars out of the cluster's draws.
        n, t_s = len(self.paths), ts / NS_PER_SEC
        base = (p.idle_w + p.dynamic_w * activity) * self.efficiency[r]
        roll = binned_uniform(self.power_seed, t_s, 1.0, n, stream=11)[r]
        if activity > 0.3 and roll < p.turbo_probability:
            mag = binned_uniform(self.power_seed, t_s, 1.0, n, stream=12)[r]
            base += p.turbo_w * (0.4 + 0.6 * mag)
        noise = p.noise_w * value_noise(self.power_seed, t_s, 0.5, n, stream=13)[r]
        power = max(0.0, (base + noise) * self.factor[r])
        target = p.ambient_c + p.c_per_watt * power
        if self.last_ts[r] < 0:
            self.temp[r] = target
        else:
            self.energy[r] += power * dt_s
            self.idle_time[r] += (1.0 - min(1.0, mean_util)) * c * dt_s
            alpha = 1.0 - np.exp(-dt_s / p.thermal_tau_s)
            self.temp[r] += alpha * (target - self.temp[r])
        self.last_ts[r] = ts
        used_frac = 0.1 + 0.6 * mean_util
        self.values[r] = (
            power, self.temp[r], (1.0 - used_frac) * 96e9,
            1.3e9 * (1.0 + (0.1 if mean_util > 0.5 else 0.0)),
            self.energy[r], self.idle_time[r], self.net[r][0], self.net[r][1],
        )


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

#: Steps between sample times: the 125 ms cadence, the usual ones, gaps
#: of several seconds, and a repeat read at the same instant.
STEPS_NS = st.one_of(
    st.sampled_from([0, 125 * NS_PER_MS, 250 * NS_PER_MS, NS_PER_SEC]),
    st.integers(2, 9).map(lambda s: s * NS_PER_SEC),
    st.integers(1, 4000).map(lambda ms: ms * NS_PER_MS),
)


@st.composite
def scenarios(draw):
    nodes = draw(st.integers(1, 4))
    cpus = draw(st.integers(1, 3))
    steps = draw(st.lists(STEPS_NS, min_size=1, max_size=24))
    times = list(np.cumsum([draw(st.integers(0, 3)) * NS_PER_SEC] + steps))
    horizon_s = max(1, int(times[-1] // NS_PER_SEC) + 2)
    jobs = []
    for j in range(draw(st.integers(0, 5))):
        start = draw(st.integers(0, horizon_s))
        end = start + draw(st.integers(1, horizon_s))
        members = draw(st.lists(st.integers(0, nodes - 1), min_size=1,
                                max_size=nodes, unique=True))
        # Added before the first read, or before the k-th one.
        added_before = draw(st.integers(0, len(times) - 1))
        jobs.append((f"j{j}", draw(st.sampled_from(APPS)), members,
                     start * NS_PER_SEC, end * NS_PER_SEC, added_before))
    if jobs and draw(st.booleans()):
        # Back to back: a job that starts exactly where the first ends.
        first = jobs[0]
        jobs.append(("next", draw(st.sampled_from(APPS)), first[2], first[4],
                     first[4] + NS_PER_SEC * draw(st.integers(1, 5)), first[5]))
    return dict(
        seed=draw(st.integers(0, 2**32 - 1)), nodes=nodes, cpus=cpus,
        times=[int(t) for t in times], jobs=jobs,
        hot=draw(st.one_of(st.none(), st.integers(0, nodes - 1))),
    )


def _build(sc):
    spec = ClusterSpec.small(nodes=sc["nodes"], cpus=sc["cpus"])
    hot = sc["hot"]
    anomalies = (
        {} if hot is None else {ClusterTopology(spec).node_paths[hot]: 1.2}
    )
    sim = ClusterSimulator(spec, seed=sc["seed"], anomalies=anomalies)
    twin = PerNodeTwin(spec, sc["seed"], sim.scheduler, anomalies)
    return sim, twin


def _add_jobs(sim, jobs):
    for jid, app, members, start, end, _ in jobs:
        paths = tuple(sim.node_paths[m] for m in members)
        try:
            sim.scheduler.add_job(Job(jid, app, paths, start, end))
        except ConfigError:
            pass  # overlaps an earlier draw on some node: not placed


# ----------------------------------------------------------------------
# The twin property
# ----------------------------------------------------------------------


class TestArraysEqualThePerNodeLoop:
    @settings(max_examples=120, deadline=None)
    @given(sc=scenarios())
    def test_every_counter_and_node_sensor_bit_for_bit(self, sc):
        sim, twin = _build(sc)
        for k, ts in enumerate(sc["times"]):
            _add_jobs(sim, [j for j in sc["jobs"] if j[5] == k])
            sim.advance(ts)
            twin.advance(ts)
            assert sim.counters.tobytes() == twin.counters.tobytes()
            assert sim.node_values.tobytes() == twin.values.tobytes()
            for r, path in enumerate(sim.node_paths):
                assert sim.current_job(path) == twin.jobs[r]
                for c, name in enumerate(NODE_SENSORS):
                    assert sim.read_node(path, name, ts) == twin.values[r, c]


# ----------------------------------------------------------------------
# One clock
# ----------------------------------------------------------------------


def _busy_sim():
    sim = ClusterSimulator(ClusterSpec.small(nodes=3, cpus=4), seed=3)
    sim.scheduler.add_job(
        Job("a", "amg", tuple(sim.node_paths[:2]), 0, 60 * NS_PER_SEC))
    return sim


def _plugins(sim):
    return [
        cls(sim, node) for node in sim.node_paths
        for cls in (SysfsPlugin, ProcfsPlugin, OpaPlugin, PerfeventPlugin)
    ]


class TestOneClock:
    def test_a_second_read_at_the_clock_draws_nothing(self):
        sim = _busy_sim()
        plugins = _plugins(sim)
        for t in (0, 1, 2, 7):
            ts = t * NS_PER_SEC
            first = [p.sample(ts) for p in plugins]
            misses = workload._bin_draw.cache_info().misses
            again = [p.sample(ts) for p in plugins]
            for node in sim.node_paths:
                for name in NODE_SENSORS:
                    sim.read_node(node, name, ts)
                for cpu in range(sim.spec.cpus_per_node):
                    for counter in CPU_COUNTERS:
                        sim.read_cpu_counter(node, cpu, counter, ts)
            assert workload._bin_draw.cache_info().misses == misses
            for a, b in zip(first, again):
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("reader", ["read_node", "read_cpu_counters", "sample"])
    def test_an_earlier_read_raises_for_any_node(self, reader):
        sim = _busy_sim()
        plugins = [SysfsPlugin(sim, node) for node in sim.node_paths]
        sim.advance(0)
        # Only the first node is read at 5 s; the clock is the cluster's.
        sim.read_node(sim.node_paths[0], "power", 5 * NS_PER_SEC)
        counters, values = sim.counters.copy(), sim.node_values.copy()
        for node, plugin in zip(sim.node_paths, plugins):
            with pytest.raises(ValueError):
                if reader == "read_node":
                    sim.read_node(node, "temp", 4 * NS_PER_SEC)
                elif reader == "read_cpu_counters":
                    sim.read_cpu_counters(node, "flops", 4 * NS_PER_SEC)
                else:
                    plugin.sample(4 * NS_PER_SEC)
        assert sim.now == 5 * NS_PER_SEC
        assert sim.counters.tobytes() == counters.tobytes()
        assert sim.node_values.tobytes() == values.tobytes()

    def test_regroups_only_when_a_job_boundary_is_crossed_or_added(self):
        sim = _busy_sim()
        seen = []
        regroup = sim._regroup
        sim._regroup = lambda ts: (seen.append(ts), regroup(ts))
        for t in range(0, 70, 5):
            sim.advance(t * NS_PER_SEC)
        assert seen == [0, 60 * NS_PER_SEC]
        sim.scheduler.add_job(
            Job("b", "hpl", (sim.node_paths[2],), 80 * NS_PER_SEC,
                90 * NS_PER_SEC))
        for t in range(70, 100, 5):
            sim.advance(t * NS_PER_SEC)
        assert seen[2:] == [70 * NS_PER_SEC, 80 * NS_PER_SEC, 90 * NS_PER_SEC]
        assert sim.current_job(sim.node_paths[2]) is None


# ----------------------------------------------------------------------
# A rejected backwards update changes nothing
# ----------------------------------------------------------------------


def _state(obj):
    return {
        name: np.copy(value) for name, value in vars(obj).items()
        if isinstance(value, (int, float, np.ndarray))
    }


class TestRejectedUpdateChangesNothing:
    def test_power_model(self):
        m = PowerModel(64, [1, 2, 3], 7)
        busy = np.full(3, 0.9)
        m.update(0, busy, busy)
        m.update(10 * NS_PER_SEC, busy, busy)
        before = _state(m)
        with pytest.raises(ValueError):
            m.update(5 * NS_PER_SEC, np.zeros(3), np.zeros(3))
        after = _state(m)
        assert after.keys() == before.keys()
        for name, was in before.items():
            assert np.array_equal(after[name], was), name

    def test_cooling_loop(self):
        sim = _busy_sim()
        cooling = CoolingSystem(sim)
        for t in (0, 10):
            for node in sim.node_paths:
                sim.read_node(node, "power", t * NS_PER_SEC)
            cooling.update(t * NS_PER_SEC)
        # The nodes move on (the job on two of them ends at 60 s) while
        # the loop stays at 10 s; then an update from the past arrives.
        for node in sim.node_paths:
            sim.read_node(node, "power", 70 * NS_PER_SEC)
        before = _state(cooling)
        with pytest.raises(ValueError):
            cooling.update(5 * NS_PER_SEC)
        assert _state(cooling) == before
        assert cooling.total_facility_power_w == (
            before["it_power_w"] + before["chiller_power_w"])
