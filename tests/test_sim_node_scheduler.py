"""Tests for the node power model and job scheduler."""

import numpy as np
import pytest

from repro.common.errors import ConfigError
from repro.common.timeutil import NS_PER_SEC
from repro.simulator.node import NodePowerParams, PowerModel
from repro.simulator.scheduler import Job, JobScheduler


class TestNodeModel:
    """The power model of one node: a one-row :class:`PowerModel`."""

    def make(self, seed=1, anomaly=1.0):
        return PowerModel(64, [seed], seed, power_factor=[anomaly])

    @staticmethod
    def power(m, t_s, activity):
        return float(m.instantaneous_power(t_s, np.array([activity]))[0])

    @staticmethod
    def update(m, ts, activity, mean_util):
        m.update(ts, np.array([activity]), np.array([mean_util]))

    def test_idle_power_near_idle_constant(self):
        m = self.make()
        p = self.power(m, 10.0, activity=0.0)
        assert 0.8 * 75 < p < 1.2 * 75

    def test_power_rises_with_activity(self):
        m = self.make()
        idle = np.mean([self.power(m, t, 0.0) for t in range(50)])
        busy = np.mean([self.power(m, t, 0.9) for t in range(50)])
        assert busy > idle + 100

    def test_anomaly_scales_power(self):
        base = self.power(self.make(seed=1), 5.0, 0.5)
        hot = self.power(self.make(seed=1, anomaly=1.2), 5.0, 0.5)
        assert hot == pytest.approx(base * 1.2)

    def test_efficiency_varies_between_nodes(self):
        effs = set(PowerModel(64, range(20), 0).efficiency)
        assert len(effs) > 10
        assert all(0.9 <= e <= 1.1 for e in effs)

    def test_update_integrates_energy(self):
        m = self.make()
        self.update(m, 0, 0.5, 0.5)
        self.update(m, 10 * NS_PER_SEC, 0.5, 0.5)
        assert m.energy_j[0] > 0
        # Energy ≈ power * 10 s within noise.
        assert m.energy_j[0] == pytest.approx(m.power_w[0] * 10, rel=0.3)

    def test_update_accumulates_idle_time(self):
        m = self.make()
        self.update(m, 0, 0.0, 0.0)
        self.update(m, 10 * NS_PER_SEC, 0.0, 0.0)
        # Fully idle: 64 cores * 10 s of idle time.
        assert m.idle_time_s[0] == pytest.approx(640.0)

    def test_temperature_lags_toward_target(self):
        params = NodePowerParams()
        m = self.make()
        self.update(m, 0, 0.9, 0.9)
        t0 = m.temperature_c[0]
        for k in range(1, 60):
            self.update(m, k * 10 * NS_PER_SEC, 0.9, 0.9)
        # After ~10 thermal time constants the temperature approaches
        # ambient + c * power.
        target = params.ambient_c + params.c_per_watt * m.power_w[0]
        assert abs(m.temperature_c[0] - target) < 3.0
        assert m.temperature_c[0] > t0

    def test_update_rejects_backwards_time(self):
        m = self.make()
        self.update(m, 10, 0.5, 0.5)
        with pytest.raises(ValueError):
            self.update(m, 5, 0.5, 0.5)

    def test_turbo_spikes_occur_under_load(self):
        m = self.make()
        powers = [self.power(m, t * 1.0, 0.9) for t in range(400)]
        base = np.median(powers)
        assert max(powers) > base + 15  # occasional turbo burst


def mk_job(jid, nodes, start, end, app="hpl"):
    return Job(jid, app, tuple(nodes), start, end)


class TestJob:
    def test_validation(self):
        with pytest.raises(ConfigError):
            mk_job("j1", ["/n0"], 10, 10)
        with pytest.raises(ConfigError):
            mk_job("j1", [], 0, 10)

    def test_is_running_half_open(self):
        j = mk_job("j1", ["/n0"], 10, 20)
        assert not j.is_running(9)
        assert j.is_running(10)
        assert j.is_running(19)
        assert not j.is_running(20)


class TestJobScheduler:
    def setup_method(self):
        self.nodes = [f"/r0/c0/n{i}" for i in range(4)]
        self.sched = JobScheduler(self.nodes)

    def test_add_and_query(self):
        self.sched.add_job(mk_job("j1", self.nodes[:2], 0, 100))
        assert [j.job_id for j in self.sched.running_jobs(50)] == ["j1"]
        assert self.sched.running_jobs(100) == []

    def test_rejects_unknown_node(self):
        with pytest.raises(ConfigError):
            self.sched.add_job(mk_job("j1", ["/bogus"], 0, 10))

    def test_rejects_overlap(self):
        self.sched.add_job(mk_job("j1", self.nodes[:2], 0, 100))
        with pytest.raises(ConfigError):
            self.sched.add_job(mk_job("j2", self.nodes[1:3], 50, 150))

    def test_adjacent_jobs_allowed(self):
        self.sched.add_job(mk_job("j1", self.nodes[:2], 0, 100))
        self.sched.add_job(mk_job("j2", self.nodes[:2], 100, 200))

    def test_rejects_duplicate_id(self):
        self.sched.add_job(mk_job("j1", self.nodes[:1], 0, 10))
        with pytest.raises(ConfigError):
            self.sched.add_job(mk_job("j1", self.nodes[1:2], 20, 30))

    def test_job_on_node(self):
        self.sched.add_job(mk_job("j1", self.nodes[:2], 0, 100))
        assert self.sched.job_on_node(self.nodes[0], 50).job_id == "j1"
        assert self.sched.job_on_node(self.nodes[3], 50) is None
        assert self.sched.job_on_node(self.nodes[0], 200) is None

    def test_submit_fcfs(self):
        j1 = self.sched.submit("hpl", 2, 0, 100)
        j2 = self.sched.submit("amg", 2, 0, 100)
        assert set(j1.node_paths).isdisjoint(j2.node_paths)
        with pytest.raises(ConfigError):
            self.sched.submit("lammps", 1, 50, 60)

    def test_submit_reuses_after_completion(self):
        self.sched.submit("hpl", 4, 0, 100)
        j = self.sched.submit("amg", 4, 100, 200)
        assert j.n_nodes == 4

    def test_utilization(self):
        self.sched.add_job(mk_job("j1", self.nodes[:2], 0, 100))
        assert self.sched.utilization(50) == pytest.approx(0.5)
        assert self.sched.utilization(150) == 0.0

    def test_all_jobs_and_lookup(self):
        j = self.sched.submit("hpl", 1, 0, 10)
        assert self.sched.job(j.job_id) is j
        assert self.sched.job("nope") is None
        assert len(self.sched.all_jobs()) == 1


class TestSubmitEarliest:
    def setup_method(self):
        self.nodes = [f"/r0/c0/n{i}" for i in range(4)]
        self.sched = JobScheduler(self.nodes)

    def test_immediate_when_free(self):
        job = self.sched.submit_earliest("hpl", 2, duration_ns=100,
                                         not_before_ts=10)
        assert job.start_ts == 10
        assert job.end_ts == 110

    def test_backfills_after_blocking_job(self):
        self.sched.add_job(mk_job("block", self.nodes, 0, 500))
        job = self.sched.submit_earliest("amg", 2, duration_ns=100)
        assert job.start_ts == 500

    def test_picks_earliest_partial_release(self):
        # Two nodes free at t=100, the others at t=500.
        self.sched.add_job(mk_job("a", self.nodes[:2], 0, 100))
        self.sched.add_job(mk_job("b", self.nodes[2:], 0, 500))
        job = self.sched.submit_earliest("amg", 2, duration_ns=50)
        assert job.start_ts == 100
        assert set(job.node_paths) == set(self.nodes[:2])

    def test_whole_cluster_waits_for_everything(self):
        self.sched.add_job(mk_job("a", self.nodes[:2], 0, 100))
        self.sched.add_job(mk_job("b", self.nodes[2:], 0, 500))
        job = self.sched.submit_earliest("hpl", 4, duration_ns=50)
        assert job.start_ts == 500

    def test_respects_not_before(self):
        job = self.sched.submit_earliest("hpl", 1, duration_ns=10,
                                         not_before_ts=42)
        assert job.start_ts == 42

    def test_infeasible_raises(self):
        with pytest.raises(ConfigError):
            self.sched.submit_earliest("hpl", 99, duration_ns=10)
