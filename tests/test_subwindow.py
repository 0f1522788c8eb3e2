"""Unit tests for the Level-1 sub-window builder (core/subwindow.py)."""
import numpy as np
import pytest

from repro.core.fewk import FewKConfig, PhiBudget
from repro.core.quantile import exact_quantiles
from repro.core.subwindow import SubWindowBuilder


def _builder(phis=(0.5, 0.9, 0.99), **kw):
    return SubWindowBuilder(phis, **kw)


class TestAccumulate:
    def test_unique_tracking(self):
        b = _builder()
        b.accumulate_chunk(np.array([1.0, 1.0, 2.0, 3.0, 3.0, 3.0]))
        assert b.in_flight_count == 6
        assert b.in_flight_unique == 3

    def test_quantization_applied(self):
        b = _builder(sig_digits=2)
        b.accumulate_chunk(np.array([74_265.0, 74_123.0]))  # both quantize to 74,000
        assert b.in_flight_unique == 1

    def test_tree_mode_matches_lazy(self):
        g = np.random.default_rng(7)
        values = np.rint(g.normal(500, 40, 700))
        lazy, tree = _builder(), _builder(l1_mode="tree")
        lazy.accumulate_chunk(values)
        tree.accumulate_chunk(values)
        s_lazy, s_tree = lazy.finalize(), tree.finalize()
        np.testing.assert_array_equal(s_lazy.quantiles, s_tree.quantiles)
        assert s_lazy.count == s_tree.count

    @pytest.mark.parametrize(
        "parts",
        [
            [[3.0, 1.0, 3.0, 2.0, 1.0, 3.0]],  # ties
            [[7.0]],  # a single value
            [[4.0] * 5],  # a single unique value
            [[2.0, 1.0], [1.0, 5.0, 2.0], [-0.0, 0.0, 5.0]],  # several parts
            [[1.0, np.nan, 2.0], [np.nan, 1.0]],  # NaN: np.unique folds it
        ],
    )
    @pytest.mark.parametrize("l1_mode", ["lazy", "tree"])
    def test_compressed_state_equals_np_unique(self, parts, l1_mode):
        b = _builder(l1_mode=l1_mode)
        for part in parts:
            b.accumulate_chunk(np.array(part))
        uniq, counts = b._compressed_state()
        want_uniq, want_counts = np.unique(np.concatenate(parts), return_counts=True)
        if l1_mode == "lazy":  # bit for bit, the sign of zero included
            np.testing.assert_array_equal(uniq.view(np.int64), want_uniq.view(np.int64))
        else:  # the tree's dict keeps the first of -0.0 and 0.0 it saw
            np.testing.assert_array_equal(uniq, want_uniq)
        np.testing.assert_array_equal(counts, want_counts)
        assert counts.dtype == want_counts.dtype

    def test_invalid_l1_mode(self):
        with pytest.raises(ValueError):
            _builder(l1_mode="bogus")


class TestFinalize:
    def test_quantiles_match_numpy(self):
        g = np.random.default_rng(2)
        values = np.rint(g.normal(500, 50, 2048))
        phis = (0.5, 0.9, 0.99, 0.999)
        b = _builder(phis)
        b.accumulate_chunk(values)
        np.testing.assert_array_equal(b.finalize().quantiles, exact_quantiles(values, phis))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            _builder().finalize()

    def test_resets_state(self):
        b = _builder()
        b.accumulate_chunk(np.arange(10, dtype=np.float64))
        s0 = b.finalize()
        assert b.in_flight_count == 0 and b.in_flight_unique == 0
        b.accumulate_chunk(np.arange(10, 20, dtype=np.float64))
        s1 = b.finalize()
        assert s0.sub_id == 0 and s1.sub_id == 1
        assert s1.quantiles[0] != s0.quantiles[0]

    def test_consecutive_sub_ids(self):
        b = _builder()
        for i in range(5):
            b.accumulate_chunk(np.arange(4, dtype=np.float64))
            assert b.finalize().sub_id == i


class TestTailCaches:
    def _fewk(self, k_t=3, k_s=0, big_k=10, phi=0.99):
        return FewKConfig(budgets=(PhiBudget(phi=phi, big_k=big_k, k_t=k_t, k_s=k_s),))

    def test_topk_descending_with_multiplicity(self):
        b = _builder((0.99,), fewk=self._fewk(k_t=4))
        b.accumulate_chunk(np.array([5.0, 9.0, 9.0, 1.0, 7.0, 3.0]))
        s = b.finalize()
        np.testing.assert_array_equal(s.top_k[0.99], [9.0, 9.0, 7.0, 5.0])

    def test_topk_smaller_than_subwindow(self):
        b = _builder((0.99,), fewk=self._fewk(k_t=100, big_k=100))
        b.accumulate_chunk(np.array([2.0, 1.0, 3.0]))
        s = b.finalize()
        np.testing.assert_array_equal(s.top_k[0.99], [3.0, 2.0, 1.0])

    def test_samplek_full_fraction_is_topk(self):
        # alpha = 1 (k_s == big_k) degenerates to the full top-K prefix.
        b = _builder((0.99,), fewk=self._fewk(k_t=0, k_s=5, big_k=5))
        values = np.array([10.0, 40.0, 20.0, 50.0, 30.0, 5.0, 1.0])
        b.accumulate_chunk(values)
        s = b.finalize()
        np.testing.assert_array_equal(s.sample_k[0.99], [50.0, 40.0, 30.0, 20.0, 10.0])

    def test_samplek_interval(self):
        # big_k=6, k_s=3 -> i=2 -> even ranked values (2nd, 4th, 6th largest).
        b = _builder((0.99,), fewk=self._fewk(k_t=0, k_s=3, big_k=6))
        b.accumulate_chunk(np.array([60.0, 50.0, 40.0, 30.0, 20.0, 10.0, 1.0]))
        s = b.finalize()
        np.testing.assert_array_equal(s.sample_k[0.99], [50.0, 30.0, 10.0])

    @pytest.mark.parametrize(
        "values, k",
        [
            ([2.0, 1.0, 3.0], 10),  # max_tail larger than the sub-window
            ([9.0, 7.0, 1.0, 7.0, 7.0], 3),  # the 7s straddle the k boundary
            ([4.0] * 6, 3),  # a single unique value
        ],
    )
    def test_tail_prefix_edge_cases(self, values, k):
        b = _builder((0.99,), fewk=self._fewk(k_t=k, k_s=k, big_k=k))
        b.accumulate_chunk(np.array(values))
        s = b.finalize()
        expected = np.sort(values)[::-1][:k]
        np.testing.assert_array_equal(s.top_k[0.99], expected)
        np.testing.assert_array_equal(s.sample_k[0.99], expected)  # alpha = 1

    def test_no_fewk_no_caches(self):
        b = _builder((0.5,))
        b.accumulate_chunk(np.arange(20, dtype=np.float64))
        s = b.finalize()
        assert s.top_k == {} and s.sample_k == {}

    def test_space_accounting(self):
        b = _builder((0.5, 0.99), fewk=self._fewk(k_t=4, k_s=2, big_k=10))
        b.accumulate_chunk(np.arange(100, dtype=np.float64))
        s = b.finalize()
        assert s.space() == 2 + 4 + 2
