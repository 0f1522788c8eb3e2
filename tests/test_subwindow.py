"""Unit tests for the Level-1 sub-window builder (core/subwindow.py)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fewk import FewKConfig, PhiBudget, interval_sample
from repro.core.quantile import exact_quantiles, exact_quantiles_freq
from repro.core.subwindow import SubWindowBuilder, summarize
from repro.core.summary import SubWindowSummary


def _builder(phis=(0.5, 0.9, 0.99), **kw):
    return SubWindowBuilder(phis, **kw)


class TestAccumulate:
    def test_unique_tracking(self):
        b = _builder()
        b.accumulate_chunk(np.array([1.0, 1.0, 2.0, 3.0, 3.0, 3.0]))
        assert len(b._sorted_state()) == 6
        b.finalize()
        assert b.last_unique == 3

    def test_quantization_applied(self):
        b = _builder(sig_digits=2)
        b.accumulate_chunk(np.array([74_265.0, 74_123.0]))  # both quantize to 74,000
        assert b._sorted_state().tolist() == [74_000.0, 74_000.0]
        b.finalize()
        assert b.last_unique == 1

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
        s = b._sorted_state()
        values = np.concatenate(parts)
        if l1_mode == "lazy":  # bit for bit, the sign of zero included
            np.testing.assert_array_equal(s.view(np.int64), np.sort(values).view(np.int64))
        else:  # the tree's dict keeps the first of -0.0 and 0.0 it saw
            np.testing.assert_array_equal(s, np.sort(values))
        # Its frequency state is np.unique's, and so is the unique count
        # space accounting reads: ties, -0.0 == 0.0 and one NaN.
        uniq, counts = np.unique(s, return_counts=True)
        want_uniq, want_counts = np.unique(values, return_counts=True)
        np.testing.assert_array_equal(uniq, want_uniq)
        np.testing.assert_array_equal(counts, want_counts)
        b.finalize()
        assert b.last_unique == len(want_uniq)

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
        assert len(b._sorted_state()) == 0
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


def _summarize_freq(uniq, counts, phis, fewk, sub_id):
    """The run-length form of :func:`summarize`, kept as its reference:
    ascending ``uniq`` with ``counts``; the tail prefix is rebuilt from the
    largest uniques whose counts cover ``max_tail``."""
    top_k, sample_k = {}, {}
    k = fewk.max_tail
    if k > 0:
        tail_vals = uniq[::-1][:k]
        tail_counts = counts[::-1][:k]
        m = int(np.searchsorted(np.cumsum(tail_counts), k)) + 1
        ranked_desc = np.repeat(tail_vals[:m], tail_counts[:m])[:k]
        for b in fewk.budgets:
            if b.k_t > 0:
                top_k[b.phi] = ranked_desc[: b.k_t].copy()
            if b.k_s > 0:
                sample_k[b.phi] = interval_sample(ranked_desc, b.k_s, b.big_k)
    return SubWindowSummary(
        sub_id=sub_id,
        count=int(counts.sum()),
        quantiles=exact_quantiles_freq(uniq, counts, phis),
        top_k=top_k,
        sample_k=sample_k,
    )


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


class TestSummarizeSorted:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_unique=st.integers(min_value=1, max_value=60),  # 1: a single unique value
        max_count=st.sampled_from([1, 3, 50]),  # 50: heavy ties
        budgets=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=40),  # k_t
                st.integers(min_value=0, max_value=40),  # k_s
                st.integers(min_value=1, max_value=400),  # big_k, past P for small P
            ),
            min_size=0,
            max_size=2,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_run_length_reference(self, seed, n_unique, max_count, budgets):
        g = np.random.default_rng(seed)
        uniq = np.unique(g.normal(0, 1e3, n_unique).round(1))
        counts = g.integers(1, max_count + 1, len(uniq))
        phis = (0.01, 0.5, 0.9, 0.99, 0.999, 1.0)
        fewk = FewKConfig(
            budgets=tuple(
                PhiBudget(phi=phi, big_k=big_k, k_t=min(k_t, big_k), k_s=min(k_s, big_k))
                for phi, (k_t, k_s, big_k) in zip((0.99, 0.999), budgets)
            )
        )
        got = summarize(np.repeat(uniq, counts), phis, fewk, 7)
        want = _summarize_freq(uniq, counts, phis, fewk, 7)
        assert got.sub_id == want.sub_id and got.count == want.count
        np.testing.assert_array_equal(_bits(got.quantiles), _bits(want.quantiles))
        for caches, want_caches in ((got.top_k, want.top_k), (got.sample_k, want.sample_k)):
            assert caches.keys() == want_caches.keys()
            for phi in caches:
                np.testing.assert_array_equal(_bits(caches[phi]), _bits(want_caches[phi]))
