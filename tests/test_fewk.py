"""Unit tests for few-k budgeting and merging (core/fewk.py)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fewk import (
    STAT_INEFFICIENCY_THRESHOLD,
    FewKConfig,
    PhiBudget,
    interval_sample,
    samplek_merge,
    topk_merge,
)
from repro.core.quantile import exact_quantiles, kth_largest_count


class TestBudgets:
    def test_paper_table3_topk_sizes(self):
        # 128K window, Q0.999: K = 132; fraction 0.1 -> k_t = 14 (ceil).
        cfg = FewKConfig.from_fraction(
            window_size=131_072, period=8_192, phis=[0.999], top_fraction=0.1
        )
        b = cfg.budget_for(0.999)
        assert b.big_k == 132
        assert b.k_t == 14
        assert b.k_s == 0

    def test_paper_table4_samplek_sizes(self):
        cfg = FewKConfig.from_fraction(
            window_size=131_072, period=16_384, phis=[0.99, 0.999], sample_fraction=0.1
        )
        assert cfg.budget_for(0.99).big_k == kth_largest_count(0.99, 131_072)
        assert cfg.budget_for(0.999).k_s == 14

    def test_auto_topk_threshold(self):
        # P=16K: P*(1-0.999) = 16.4 >= 10 -> no top-k; P=4K: 4.1 < 10 -> on.
        on = FewKConfig.from_fraction(
            window_size=131_072, period=4_096, phis=[0.999], auto_topk=True
        )
        off = FewKConfig.from_fraction(
            window_size=131_072, period=16_384, phis=[0.999], auto_topk=True
        )
        assert on.budget_for(0.999).k_t == kth_largest_count(0.999, 4_096)
        assert off.budget_for(0.999) is None

    def test_threshold_constant(self):
        assert STAT_INEFFICIENCY_THRESHOLD == 10

    def test_budget_clamped_to_big_k(self):
        cfg = FewKConfig.from_fraction(
            window_size=1000, period=500, phis=[0.99], top_fraction=5.0
        )
        b = cfg.budget_for(0.99)
        assert b.k_t == b.big_k

    def test_max_tail(self):
        cfg = FewKConfig(
            budgets=(
                PhiBudget(phi=0.99, big_k=1311, k_t=20, k_s=0),
                PhiBudget(phi=0.999, big_k=132, k_t=0, k_s=14),
            )
        )
        # top-k needs 20; sample-k needs the full big_k prefix (132).
        assert cfg.max_tail == 132

    def test_empty_config(self):
        cfg = FewKConfig()
        assert cfg.budget_for(0.5) is None
        assert cfg.max_tail == 0


class TestIntervalSample:
    def test_alpha_one_full_prefix(self):
        ranked = np.array([9.0, 8.0, 7.0, 6.0, 5.0])
        np.testing.assert_array_equal(interval_sample(ranked, 5, 5), ranked)

    def test_every_second(self):
        ranked = np.arange(10, 0, -1, dtype=np.float64)
        np.testing.assert_array_equal(interval_sample(ranked, 5, 10), [9, 7, 5, 3, 1])

    def test_zero_ks(self):
        assert len(interval_sample(np.arange(5.0), 0, 5)) == 0

    @given(
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=1, max_value=200),
    )
    @settings(max_examples=50)
    def test_size_bounded_by_ks(self, k_s, big_k):
        ranked = np.sort(np.random.default_rng(0).random(big_k))[::-1]
        out = interval_sample(ranked, k_s, big_k)
        assert 1 <= len(out) <= min(k_s, big_k)


class TestTopkMerge:
    def test_exact_when_full_budget(self):
        # With k_t = K per sub-window, top-k merging is exact (Section 4.2).
        g = np.random.default_rng(3)
        window = g.random(1000)
        parts = np.split(window, 4)
        phi, n = 0.99, len(window)
        big_k = kth_largest_count(phi, n)
        caches = [np.sort(p)[::-1][:big_k] for p in parts]
        assert topk_merge(caches, big_k) == exact_quantiles(window, [phi])[0]

    def test_best_effort_when_underfull(self):
        caches = [np.array([5.0, 4.0]), np.array([3.0])]
        assert topk_merge(caches, 10) == 3.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            topk_merge([], 5)

    @given(st.integers(min_value=2, max_value=8))
    @settings(max_examples=20)
    def test_merge_of_split_equals_concat(self, n_parts):
        g = np.random.default_rng(n_parts)
        window = g.random(n_parts * 100)
        big_k = 17
        caches = [np.sort(p)[::-1][:big_k] for p in np.split(window, n_parts)]
        want = np.sort(window)[::-1][big_k - 1]
        assert topk_merge(caches, big_k) == want


class TestSamplekMerge:
    def test_alpha_one_is_exact(self):
        g = np.random.default_rng(4)
        window = g.random(800)
        phi = 0.99
        big_k = kth_largest_count(phi, len(window))
        parts = np.split(window, 4)
        samples = [interval_sample(np.sort(p)[::-1], big_k, big_k) for p in parts]
        assert samplek_merge(samples, big_k) == exact_quantiles(window, [phi])[0]

    def test_alpha_one_is_exact_when_k_exceeds_period(self):
        # 200K / 1K at phi = 0.99: K = 2,001 > P, so each sample holds the
        # whole sub-window, thinned from P values rather than K.
        g = np.random.default_rng(8)
        window = g.integers(100, 80_000, 200_000).astype(np.float64)
        phi, period = 0.99, 1_000
        big_k = kth_largest_count(phi, len(window))
        assert big_k == 2_001
        parts = np.split(window, len(window) // period)
        samples = [interval_sample(np.sort(p)[::-1], big_k, big_k) for p in parts]
        want = exact_quantiles(window, [phi])[0]
        assert samplek_merge(samples, big_k, period=period) == want

    def test_half_fraction_close(self):
        g = np.random.default_rng(5)
        window = g.normal(1000, 100, 4000)
        phi = 0.99
        big_k = kth_largest_count(phi, len(window))
        k_s = big_k // 2
        parts = np.split(window, 4)
        samples = [interval_sample(np.sort(p)[::-1], k_s, big_k) for p in parts]
        est = samplek_merge(samples, big_k)
        exact = exact_quantiles(window, [phi])[0]
        assert abs(est - exact) / exact < 0.05

    def test_bursty_subwindow_dominates_correctly(self):
        # All top-K of the window sit in one bursty part (pattern E1 of
        # Figure 3); sample-k at half fraction must still land inside the
        # burst's value range.
        g = np.random.default_rng(6)
        parts = [g.normal(1000, 50, 500) for _ in range(4)]
        parts[1] = parts[1] * 1.0
        big_k = 20
        parts[1][:big_k] *= 10  # burst
        window = np.concatenate(parts)
        k_s = big_k // 2
        samples = [interval_sample(np.sort(p)[::-1], k_s, big_k) for p in parts]
        est = samplek_merge(samples, big_k)
        exact = np.sort(window)[::-1][big_k - 1]
        assert abs(est - exact) / exact < 0.15

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            samplek_merge([], 5)


class TestMergesMatchSortReference:
    """Both merges select their rank by partition; the reference reads it
    from a full descending sort, and the floats must be identical."""

    @staticmethod
    def _sorted_kth(caches, rank):
        merged = np.sort(np.concatenate(caches))[::-1]
        return float(merged[min(rank, len(merged)) - 1])

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_caches=st.integers(min_value=1, max_value=6),
        max_len=st.integers(min_value=1, max_value=40),
        distinct=st.sampled_from([3, 1_000_000]),  # 3: heavy ties
        big_k=st.integers(min_value=1, max_value=120),
    )
    @settings(max_examples=200, deadline=None)
    def test_identical_to_full_sort(self, seed, n_caches, max_len, distinct, big_k):
        g = np.random.default_rng(seed)
        caches = [
            g.integers(0, distinct, g.integers(1, max_len + 1)).astype(np.float64) / 7
            for _ in range(n_caches)
        ]
        assert topk_merge(caches, big_k) == self._sorted_kth(caches, big_k)
        merged_len = sum(len(c) for c in caches)
        rank = max(1, -(-merged_len // n_caches))
        assert samplek_merge(caches, big_k) == self._sorted_kth(caches, rank)

    def test_ties_underfull_and_single_cache(self):
        ties = [np.array([2.0, 2.0, 1.0]), np.array([2.0, 1.0])]
        assert topk_merge(ties, 3) == 2.0
        assert topk_merge(ties, 4) == 1.0
        assert samplek_merge(ties, 99) == 2.0  # rank ceil(5/2) = 3
        assert topk_merge(ties, 50) == 1.0  # merged length 5 < big_k
        single = [np.array([4.0, 9.0, 1.0, 9.0])]
        assert topk_merge(single, 2) == 9.0
        assert topk_merge(single, 3) == 4.0
        assert samplek_merge(single, 1) == 1.0  # rank = |merged| / 1


class TestPivotSelection:
    """Level 2 restarts a selection from its last answer; the pivot must
    never change the selected float."""

    @given(
        values=st.lists(
            st.one_of(
                st.integers(min_value=-3, max_value=3).map(float),
                st.floats(allow_nan=True, allow_infinity=True),
            ),
            min_size=1,
            max_size=40,
        ),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_pivot_free_selection(self, values, data):
        from repro.core.fewk import _kth_largest

        v = np.array(values)
        rank = data.draw(st.integers(min_value=1, max_value=len(v)))
        pivot = data.draw(
            st.one_of(st.sampled_from(values), st.floats(allow_nan=True, allow_infinity=True))
        )
        np.testing.assert_array_equal(_kth_largest(v, rank, pivot), _kth_largest(v, rank))
