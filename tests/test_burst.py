"""Unit tests for the Mann-Whitney burst detector (core/burst.py)."""
import numpy as np
import pytest

from repro.core.burst import BurstDetector, flag_bursts, mann_whitney_u
from repro.core.fewk import FewKConfig
from repro.core.subwindow import SubWindowBuilder
from repro.synth_data import inject_burst, netmon


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
        assert not mann_whitney_u(x, y, alpha=0.01).greater

    def test_clearly_larger_detected(self):
        g = np.random.default_rng(1)
        x, y = g.normal(10, 1, 30), g.normal(0, 1, 30)
        assert mann_whitney_u(x, y, alpha=0.01).greater

    def test_smaller_not_flagged(self):
        g = np.random.default_rng(2)
        x, y = g.normal(-10, 1, 30), g.normal(0, 1, 30)
        res = mann_whitney_u(x, y, alpha=0.01)
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

    def test_unsupported_alpha(self):
        with pytest.raises(ValueError):
            mann_whitney_u(np.arange(5.0), np.arange(5.0), alpha=0.42)

    def test_z_sign_convention(self):
        g = np.random.default_rng(3)
        big = mann_whitney_u(g.normal(5, 1, 40), g.normal(0, 1, 40))
        assert big.z > 0

    def test_agrees_with_normal_approx_pvalue(self):
        # A 10x burst in the tail (the paper's injection) must be flagged.
        base = np.linspace(1_800, 2_500, 20)
        burst = base * 10
        assert mann_whitney_u(burst, base, alpha=0.01).greater


class TestBurstDetector:
    def test_first_observation_never_bursty(self):
        d = BurstDetector()
        assert d.observe(np.arange(10.0)) is False

    def test_detects_10x_jump(self):
        d = BurstDetector(alpha=0.01)
        base = np.linspace(1_800, 2_500, 16)
        assert d.observe(base) is False
        assert d.observe(base * 10) is True

    def test_steady_traffic_not_flagged(self):
        d = BurstDetector(alpha=0.01)
        g = np.random.default_rng(4)
        flags = [d.observe(np.sort(g.normal(2_000, 100, 16))[::-1]) for _ in range(20)]
        assert sum(flags) <= 2  # ~1% false-positive rate at alpha=0.01

    def test_recovers_after_burst(self):
        d = BurstDetector(alpha=0.01)
        base = np.linspace(1_800, 2_500, 16)
        d.observe(base)
        assert d.observe(base * 10) is True
        # back to normal: not "stochastically larger" than the burst window
        assert d.observe(base) is False

    def test_empty_samples_safe(self):
        d = BurstDetector()
        assert d.observe(np.array([])) is False
        assert d.observe(np.arange(5.0)) is False


class TestFlagBursts:
    def test_matches_sequential_detector(self):
        size, period, phi = 4_000, 500, 0.99
        stream = inject_burst(netmon(12_000, seed=8), window_size=size, period=period, phi=phi)
        cfg = FewKConfig.from_fraction(
            window_size=size, period=period, phis=[0.9, phi], sample_fraction=0.5
        )
        builder = SubWindowBuilder((0.5, phi), fewk=cfg)
        summaries = []
        for lo in range(0, len(stream), period):
            builder.accumulate_chunk(stream[lo : lo + period])
            summaries.append(builder.finalize())
        detector = BurstDetector(alpha=0.01)
        expected = [detector.observe(s.sample_k[cfg.burst_phi]) for s in summaries]
        flagged = flag_bursts(reversed(summaries), cfg, 0.01)
        assert [s.sub_id for s in flagged] == list(range(len(summaries)))
        assert [s.bursty for s in flagged] == expected
        assert cfg.burst_phi == phi and any(expected)
