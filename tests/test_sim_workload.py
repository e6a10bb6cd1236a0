"""Tests for the application workload models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator import workload
from repro.simulator.workload import (
    APP_PROFILES,
    AmgProfile,
    HplProfile,
    IdleProfile,
    KripkeProfile,
    LammpsProfile,
    NekboneProfile,
    binned_uniform,
    profile_by_name,
    value_noise,
)


class TestNoise:
    def test_value_noise_deterministic(self):
        a = value_noise(7, 12.3, 5.0, 8)
        b = value_noise(7, 12.3, 5.0, 8)
        assert (a == b).all()

    def test_value_noise_continuous_at_bins(self):
        # Approaching a bin boundary from both sides converges.
        lo = value_noise(7, 9.999, 5.0, 4)
        hi = value_noise(7, 10.001, 5.0, 4)
        assert np.abs(lo - hi).max() < 0.05

    def test_value_noise_streams_independent(self):
        a = value_noise(7, 1.0, 5.0, 8, stream=0)
        b = value_noise(7, 1.0, 5.0, 8, stream=1)
        assert not np.allclose(a, b)

    def test_binned_uniform_constant_within_bin(self):
        a = binned_uniform(3, 10.1, 5.0, 4)
        b = binned_uniform(3, 14.9, 5.0, 4)
        assert (a == b).all()

    def test_binned_uniform_changes_across_bins(self):
        a = binned_uniform(3, 10.1, 5.0, 16)
        b = binned_uniform(3, 15.1, 5.0, 16)
        assert not np.allclose(a, b)

    def test_binned_uniform_in_range(self):
        v = binned_uniform(3, 0.0, 1.0, 100)
        assert (v >= 0).all() and (v < 1).all()


def _frozen_rng(seed, bin_index):
    """The generator the noise functions built on every call before
    their draws were memoised, frozen as the reference."""
    mixed = (seed * 0x9E3779B97F4A7C15 + bin_index * 0xBF58476D1CE4E5B9) & (
        (1 << 63) - 1
    )
    return np.random.default_rng(mixed)


def _frozen_value_noise(seed, t_s, bin_s, n, stream=0):
    pos = t_s / bin_s
    lo = int(np.floor(pos))
    frac = pos - lo
    a = _frozen_rng(seed + 7919 * stream, lo).standard_normal(n)
    b = _frozen_rng(seed + 7919 * stream, lo + 1).standard_normal(n)
    return a * (1.0 - frac) + b * frac


def _frozen_binned_uniform(seed, t_s, bin_s, n, stream=0):
    lo = int(np.floor(t_s / bin_s))
    return _frozen_rng(seed + 104729 * stream, lo).random(n)


class TestMemoisedDraws:
    """The per-bin memo changes nothing but the cost: the same bits as
    a fresh generator per call, arrays nobody can write into, and a
    memo that stays within its bound."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        # Whole and half seconds too: on a grid point the upper bin is
        # not drawn at all.
        t_s=st.one_of(
            st.floats(0.0, 5e4, allow_nan=False),
            st.integers(0, 20000).map(lambda k: k / 2.0),
        ),
        bin_s=st.sampled_from([0.5, 1.0, 3.0, 5.0, 6.0, 10.0]),
        n=st.integers(1, 64),
        stream=st.integers(0, 13),
    )
    def test_draws_equal_a_fresh_generator_bit_for_bit(
        self, seed, t_s, bin_s, n, stream
    ):
        for got, want in (
            (value_noise(seed, t_s, bin_s, n, stream),
             _frozen_value_noise(seed, t_s, bin_s, n, stream)),
            (binned_uniform(seed, t_s, bin_s, n, stream),
             _frozen_binned_uniform(seed, t_s, bin_s, n, stream)),
        ):
            assert got.tobytes() == want.tobytes()
            assert not got.flags.writeable
            with pytest.raises(ValueError):
                got[0] = 0.0
        # Asked again (now from the memo): still the same bits.
        again = value_noise(seed, t_s, bin_s, n, stream)
        assert again.tobytes() == _frozen_value_noise(
            seed, t_s, bin_s, n, stream
        ).tobytes()
        info = workload._bin_draw.cache_info()
        assert info.currsize <= info.maxsize == workload.BIN_MEMO_SIZE

    def test_the_memo_is_bounded(self):
        for k in range(3 * workload.BIN_MEMO_SIZE):
            binned_uniform(1, float(k), 1.0, 4)
        info = workload._bin_draw.cache_info()
        assert info.currsize == workload.BIN_MEMO_SIZE

    def test_activity_is_what_the_rates_imply(self):
        for name in sorted(APP_PROFILES):
            inst = APP_PROFILES[name].make_instance(8, seed=2)
            for t in (0.0, 7.5, 301.0):
                rates = inst.rates(t)
                stall = np.clip(1.0 - 0.004 * (rates.cpi - 1.0), 0.7, 1.0)
                want = float(
                    np.mean(rates.utilization * stall) * inst.power_intensity
                )
                assert inst.activity(t) == want


class TestRegistry:
    def test_all_registered(self):
        assert set(APP_PROFILES) == {
            "idle", "hpl", "lammps", "amg", "kripke", "nekbone",
        }

    def test_lookup_case_insensitive(self):
        assert profile_by_name("HPL").name == "hpl"

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            profile_by_name("doom")


class TestRatesSanity:
    @pytest.mark.parametrize("name", sorted(APP_PROFILES))
    def test_rates_are_finite_and_positive(self, name):
        inst = APP_PROFILES[name].make_instance(8, seed=11)
        for t in (0.0, 10.0, 100.0, 500.0):
            rates = inst.rates(t)
            assert np.isfinite(rates.cpi).all()
            assert (rates.cpi >= 0.25).all()
            assert (rates.utilization >= 0).all()
            assert (rates.utilization <= 1).all()
            assert (rates.instr_per_s > 0).all()
            assert (rates.cycles_per_s >= rates.instr_per_s * 0.2).all()
            assert rates.net_bytes_per_s >= 0.0

    @pytest.mark.parametrize("name", sorted(APP_PROFILES))
    def test_instances_reproducible(self, name):
        a = APP_PROFILES[name].make_instance(4, seed=5).rates(42.0)
        b = APP_PROFILES[name].make_instance(4, seed=5).rates(42.0)
        assert np.allclose(a.cpi, b.cpi)

    def test_activity_ranges(self):
        idle = IdleProfile().make_instance(8, 1)
        hpl = HplProfile().make_instance(8, 1)
        assert idle.activity(10.0) < 0.1
        assert hpl.activity(10.0) > 0.7


class TestSignalShapes:
    """The per-app structure Fig 6/7 depends on."""

    def _cpi_series(self, inst, times, agg):
        return np.array([agg(inst.rates(t).cpi) for t in times])

    def test_lammps_low_and_tight(self):
        inst = LammpsProfile().make_instance(64, seed=3)
        cpi = inst.rates(100.0).cpi
        assert 1.0 < cpi.mean() < 2.2
        assert cpi.std() < 0.5

    def test_hpl_steady(self):
        inst = HplProfile().make_instance(64, seed=3)
        series = self._cpi_series(inst, np.arange(0, 300, 10.0), np.mean)
        assert series.std() < 0.1

    def test_amg_upper_tail_spikes(self):
        inst = AmgProfile().make_instance(64, seed=3)
        maxima, medians = [], []
        for t in np.arange(0, 300, 5.0):
            cpi = inst.rates(t).cpi
            maxima.append(cpi.max())
            medians.append(np.median(cpi))
        # Median stays low while the max decile spikes high.
        assert np.median(medians) < 4.0
        assert np.max(maxima) > 15.0

    def test_kripke_iterations_visible(self):
        inst = KripkeProfile().make_instance(64, seed=3)
        times = np.arange(0, 4 * inst.ITERATION_S, 1.0)
        series = self._cpi_series(inst, times, np.mean)
        # Strong within-iteration swing: peak clearly above trough.
        assert series.max() - series.min() > 5.0
        # Periodicity: autocorrelation at one iteration lag is high.
        lag = int(inst.ITERATION_S)
        a = series[:-lag] - series[:-lag].mean()
        b = series[lag:] - series[lag:].mean()
        corr = (a @ b) / (np.linalg.norm(a) * np.linalg.norm(b) + 1e-12)
        assert corr > 0.6

    def test_nekbone_second_half_blowup(self):
        profile = NekboneProfile()
        inst = profile.make_instance(64, seed=3)
        early = inst.rates(0.2 * inst.duration_s).cpi
        late = inst.rates(0.9 * inst.duration_s).cpi
        assert early.std() < 1.0
        assert late.max() > 10.0
        # At least ~20% of cores affected late in the run.
        assert (late > 5.0).mean() >= 0.15

    def test_nekbone_affected_set_is_stable(self):
        inst = NekboneProfile().make_instance(64, seed=3)
        hot1 = inst.rates(0.95 * inst.duration_s).cpi > 5.0
        hot2 = inst.rates(0.96 * inst.duration_s).cpi > 5.0
        assert (hot1 == hot2).mean() > 0.9
