"""Unit tests for the Mann-Whitney burst detector (core/burst.py)."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.burst import BurstDetector, mann_whitney_u


def _midranks_loop(pooled):
    """Per-element midrank loop: the reference for mann_whitney_u's rank sum."""
    order = np.argsort(pooled, kind="mergesort")
    ranks = np.empty(len(pooled), dtype=np.float64)
    sorted_vals = pooled[order]
    i = 0
    while i < len(sorted_vals):
        j = i
        while j + 1 < len(sorted_vals) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def _z_reference(x, y):
    """The z-score from loop midranks and np.unique tie counts, with the tie
    term summed in Python integers (numpy's float ``t ** 3`` is 1 ulp off
    for some t, e.g. 77)."""
    n1, n2 = len(x), len(y)
    pooled = np.concatenate([x, y])
    u = _midranks_loop(pooled)[:n1].sum() - n1 * (n1 + 1) / 2.0
    n = n1 + n2
    _, counts = np.unique(pooled, return_counts=True)
    tie_term = float(sum(t**3 - t for t in counts.tolist()))
    var_u = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    return u, (0.0 if var_u <= 0 else float((u - n1 * n2 / 2.0) / np.sqrt(var_u)))


class TestMannWhitneyU:
    def test_known_u_statistic(self):
        # Classic textbook example: U = r1 - n1(n1+1)/2.
        x = np.array([7.0, 3.0, 6.0, 2.0])
        y = np.array([5.0, 1.0, 4.0])
        # pooled sorted: 1,2,3,4,5,6,7 -> ranks of x: 7,3,6,2 -> r1 = 18
        res = mann_whitney_u(x, y)
        assert res.u == pytest.approx(18 - 4 * 5 / 2)

    def test_identical_distributions_not_greater(self):
        g = np.random.default_rng(0)
        x, y = g.normal(0, 1, 50), g.normal(0, 1, 50)
        assert not mann_whitney_u(x, y).greater

    def test_clearly_larger_detected(self):
        g = np.random.default_rng(1)
        x, y = g.normal(10, 1, 30), g.normal(0, 1, 30)
        assert mann_whitney_u(x, y).greater

    def test_smaller_not_flagged(self):
        g = np.random.default_rng(2)
        x, y = g.normal(-10, 1, 30), g.normal(0, 1, 30)
        res = mann_whitney_u(x, y)
        assert not res.greater and res.z < 0

    def test_empty_inputs(self):
        res = mann_whitney_u(np.array([]), np.array([1.0]))
        assert not res.greater

    def test_all_ties_zero_variance(self):
        res = mann_whitney_u(np.ones(10), np.ones(10))
        assert not res.greater

    def test_tie_correction_midranks(self):
        # x = {2, 2}, y = {1, 3}: midranks 2.5, 2.5 for x -> U = 5 - 3 = 2.
        res = mann_whitney_u(np.array([2.0, 2.0]), np.array([1.0, 3.0]))
        assert res.u == pytest.approx(2.0)

    def test_level_is_one_percent(self):
        # Two shifted runs of integers; z is set by (n1, n2, shift) alone.
        def z_test(n1, n2, shift):
            x = np.arange(n1, dtype=np.float64) + shift + 0.5
            return mann_whitney_u(x, np.arange(n2, dtype=np.float64))

        below = z_test(29, 39, 11)  # significant at 0.05, not at 0.01
        assert 1.6449 < below.z < 2.3263 and not below.greater
        above = z_test(19, 22, 6)  # just past the 0.01 critical value
        assert 2.3263 < above.z < 2.33 and above.greater

    def test_z_sign_convention(self):
        g = np.random.default_rng(3)
        big = mann_whitney_u(g.normal(5, 1, 40), g.normal(0, 1, 40))
        assert big.z > 0

    def test_agrees_with_normal_approx_pvalue(self):
        # A 10x burst in the tail (the paper's injection) must be flagged.
        base = np.linspace(1_800, 2_500, 20)
        burst = base * 10
        assert mann_whitney_u(burst, base).greater


    @given(
        st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=80),
        st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=80),
    )
    @settings(max_examples=200, deadline=None)
    @example(xs=[0] * 77, ys=[1])  # a tie group of 77
    def test_vectorized_midranks_match_loop(self, xs, ys):
        # Values from 7 integers: nearly every value is tied.
        x, y = np.array(xs, dtype=np.float64) * 1.5, np.array(ys, dtype=np.float64) * 1.5
        res = mann_whitney_u(x, y)
        assert (res.u, res.z) == _z_reference(x, y)


class TestBurstDetector:
    def test_first_observation_never_bursty(self):
        d = BurstDetector()
        assert d.observe(np.arange(10.0)) is False

    def test_detects_10x_jump(self):
        d = BurstDetector()
        base = np.linspace(1_800, 2_500, 16)
        assert d.observe(base) is False
        assert d.observe(base * 10) is True

    def test_steady_traffic_not_flagged(self):
        d = BurstDetector()
        g = np.random.default_rng(4)
        flags = [d.observe(np.sort(g.normal(2_000, 100, 16))[::-1]) for _ in range(20)]
        assert sum(flags) <= 2  # ~1% false-positive rate at alpha=0.01

    def test_recovers_after_burst(self):
        d = BurstDetector()
        base = np.linspace(1_800, 2_500, 16)
        d.observe(base)
        assert d.observe(base * 10) is True
        # back to normal: not "stochastically larger" than the burst window
        assert d.observe(base) is False

    def test_empty_samples_safe(self):
        d = BurstDetector()
        assert d.observe(np.array([])) is False
        assert d.observe(np.arange(5.0)) is False

