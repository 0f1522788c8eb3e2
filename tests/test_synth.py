"""Unit tests for the telemetry workload generators (synth_data.py)."""
import numpy as np
import pytest

from repro.core.quantile import exact_quantiles, kth_largest_count
from repro.synth_data import (
    ar1,
    inject_burst,
    netmon,
    normal_ds,
    pareto_ds,
    search,
    uniform_ds,
)


class TestNetmon:
    def test_deterministic(self):
        np.testing.assert_array_equal(netmon(1000, seed=1), netmon(1000, seed=1))
        assert not np.array_equal(netmon(1000, seed=1), netmon(1000, seed=2))

    def test_calibration_matches_paper(self):
        # Section 1: Q0.5 ~ 798us, ~90% below ~1,247us, heavy tail with
        # values up to ~74,265us.
        v = netmon(500_000, seed=0)
        q = exact_quantiles(v, [0.5, 0.9, 0.99, 0.999])
        assert 700 < q[0] < 900  # median ~798
        assert 1_100 < q[1] < 1_450  # Q0.9 ~1,247
        assert 1_500 < q[2] < 2_600  # Q0.99 ~1,874
        assert q[3] > 2 * q[2]  # heavy tail: Q0.999 >> Q0.99
        assert v.max() <= 80_000
        assert v.max() > 40_000

    def test_high_duplicate_density(self):
        # The insight QLOVE's compression exploits: a 16K sub-window holds
        # only a few thousand unique integer values.
        v = netmon(16_384, seed=3)
        assert len(np.unique(v)) < 4_500

    def test_positive_integers(self):
        v = netmon(10_000, seed=4)
        assert (v >= 1).all()
        np.testing.assert_array_equal(v, np.rint(v))


class TestSearch:
    def test_sla_cap(self):
        v = search(200_000, seed=0)
        assert v.max() == 200_000
        # ~2% of mass at the cap -> dense tail (footnote 1).
        at_cap = (v == 200_000).mean()
        assert 0.005 < at_cap < 0.06

    def test_tail_density_makes_high_quantiles_stable(self):
        v = search(200_000, seed=1)
        q = exact_quantiles(v, [0.99, 0.999])
        assert q[1] / q[0] < 1.2  # tail quantiles close together

    def test_deterministic(self):
        np.testing.assert_array_equal(search(500, seed=9), search(500, seed=9))


class TestPareto:
    def test_paper_constraints(self):
        # Q0.5 = 20, Q0.999 = 10,000 by construction (alpha=1, x_m=10).
        v = pareto_ds(2_000_000, seed=0)
        q = exact_quantiles(v, [0.5, 0.999])
        assert q[0] == pytest.approx(20, rel=0.05)
        assert q[1] == pytest.approx(10_000, rel=0.15)

    def test_heavy_tail(self):
        v = pareto_ds(1_000_000, seed=1)
        assert v.max() > 1e6

    def test_min_is_xm(self):
        v = pareto_ds(100_000, seed=2)
        assert v.min() >= 10


class TestNormalUniform:
    def test_normal_moments(self):
        v = normal_ds(200_000, seed=0)
        assert abs(v.mean() - 1e6) < 1_000
        assert abs(v.std() - 5e4) < 1_000

    def test_uniform_range_and_redundancy(self):
        v = uniform_ds(100_000, seed=0)
        assert v.min() == 90 and v.max() == 110
        assert len(np.unique(v)) == 21


class TestAr1:
    def test_psi_zero_is_iid_normal(self):
        v = ar1(100_000, psi=0.0, seed=0)
        assert abs(v.mean() - 1e6) < 2_000
        assert abs(v.std() - 5e4) < 2_000
        lag1 = np.corrcoef(v[:-1], v[1:])[0, 1]
        assert abs(lag1) < 0.02

    @pytest.mark.parametrize("psi", [0.2, 0.8])
    def test_lag1_correlation(self, psi):
        v = ar1(100_000, psi=psi, seed=1)
        lag1 = np.corrcoef(v[:-1], v[1:])[0, 1]
        assert lag1 == pytest.approx(psi, abs=0.03)

    def test_stationary_marginals(self):
        v = ar1(200_000, psi=0.8, seed=2)
        assert abs(v.std() - 5e4) < 2_500  # variance unchanged by psi

    def test_invalid_psi(self):
        with pytest.raises(ValueError):
            ar1(10, psi=1.0)


class TestInjectBurst:
    def test_exactly_one_bursty_subwindow_per_window(self):
        stream = np.ones(8_000)
        out = inject_burst(stream, window_size=4_000, period=1_000, phi=0.999)
        changed = [
            (out[s * 1_000 : (s + 1) * 1_000] != 1.0).sum() for s in range(8)
        ]
        big_k = kth_largest_count(0.999, 4_000)
        assert changed == [big_k, 0, 0, 0, big_k, 0, 0, 0]

    def test_factor_applied_to_top_values(self):
        g = np.random.default_rng(0)
        stream = g.normal(1000, 10, 4_000)
        out = inject_burst(stream, window_size=4_000, period=1_000, phi=0.99)
        big_k = kth_largest_count(0.99, 4_000)
        sub = stream[:1_000]
        top = np.sort(sub)[::-1][:big_k]
        np.testing.assert_allclose(np.sort(out[:1_000])[::-1][:big_k], np.sort(top * 10)[::-1])

    def test_whole_subwindow_scaled_when_k_exceeds_period(self):
        # K = 1,001 > P: each burst sub-window has fewer values than K, so
        # all of them are its top K.
        stream = np.ones(2_000_000)
        out = inject_burst(stream, window_size=1_000_000, period=1_000, phi=0.999)
        changed = (out != 1.0).reshape(-1, 1_000).sum(axis=1)
        want = np.zeros(2_000, dtype=changed.dtype)
        want[[0, 1_000]] = 1_000
        np.testing.assert_array_equal(changed, want)

    def test_original_untouched(self):
        stream = np.ones(4_000)
        inject_burst(stream, window_size=4_000, period=1_000, phi=0.999)
        assert (stream == 1.0).all()
