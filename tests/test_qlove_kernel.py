"""Unit tests for the QLOVE operator (core/qlove.py)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fewk import FewKConfig
from repro.core.qlove import QloveOperator
from repro.core.quantile import exact_quantiles, kth_largest_count
from repro.streams.windows import WindowSpec
from repro.synth_data import inject_burst, netmon


PHIS = (0.5, 0.9, 0.99)


def _brute_force_level2(stream, spec, phis):
    """Reference: mean of exact sub-window quantiles over each window."""
    n_evals = spec.n_evaluations(len(stream))
    sub_q = []
    for s in range(len(stream) // spec.period):
        sub = stream[s * spec.period : (s + 1) * spec.period]
        sub_q.append(exact_quantiles(sub, phis))
    sub_q = np.array(sub_q)
    out = []
    for e in range(n_evals):
        out.append(sub_q[e : e + spec.n_subwindows].mean(axis=0))
    return np.array(out)


class TestLevel2Mean:
    def test_matches_brute_force(self):
        g = np.random.default_rng(0)
        stream = np.rint(g.normal(1000, 100, 4000))
        spec = WindowSpec(size=800, period=200)
        op = QloveOperator(spec, PHIS)
        results = op.observe_chunk(stream)
        want = _brute_force_level2(stream, spec, PHIS)
        got = np.array([[r[p] for p in PHIS] for r in results])
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_eval_count(self):
        spec = WindowSpec(size=400, period=100)
        op = QloveOperator(spec, PHIS)
        results = op.observe_chunk(np.arange(1000, dtype=np.float64))
        assert len(results) == spec.n_evaluations(1000)

    def test_misaligned_chunks_match(self):
        g = np.random.default_rng(2)
        stream = np.rint(g.normal(0, 10, 900))
        spec = WindowSpec(size=300, period=100)
        op1, op2 = QloveOperator(spec, PHIS), QloveOperator(spec, PHIS)
        r1 = op1.observe_chunk(stream)
        r2 = []
        for lo in range(0, 900, 77):
            r2.extend(op2.observe_chunk(stream[lo : lo + 77]))
        assert r1 == r2

    def test_tumbling_window_is_exact(self):
        # n = 1: the Level-2 mean of one exact sub-window quantile IS exact.
        g = np.random.default_rng(3)
        stream = np.rint(g.normal(1000, 100, 1000))
        spec = WindowSpec(size=250, period=250)
        op = QloveOperator(spec, PHIS)
        results = op.observe_chunk(stream)
        for e, r in enumerate(results):
            lo, hi = spec.window_bounds(e)
            np.testing.assert_array_equal(
                [r[p] for p in PHIS], exact_quantiles(stream[lo:hi], PHIS)
            )

    def test_deaccumulation_only_drops_oldest(self):
        # After many slides the running sums must not drift from a fresh
        # recomputation (catches incremental-sum bugs).
        g = np.random.default_rng(4)
        stream = g.random(5000) * 1e6
        spec = WindowSpec(size=500, period=100)
        op = QloveOperator(spec, PHIS)
        results = op.observe_chunk(stream)
        want = _brute_force_level2(stream, spec, PHIS)
        got = np.array([[r[p] for p in PHIS] for r in results])
        np.testing.assert_allclose(got, want, rtol=1e-9)


class TestAccuracy:
    def test_netmon_median_close(self):
        stream = netmon(64_000, seed=5)
        spec = WindowSpec(size=8_000, period=1_000)
        op = QloveOperator(spec, PHIS)
        results = op.observe_chunk(stream)
        errs = []
        for e, r in enumerate(results):
            lo, hi = spec.window_bounds(e)
            exact = exact_quantiles(stream[lo:hi], [0.5])[0]
            errs.append(abs(r[0.5] - exact) / exact)
        assert np.mean(errs) < 0.01  # paper Table 2: Q0.5 errors < 0.4%

    def test_quantization_error_small(self):
        stream = netmon(32_000, seed=6)
        spec = WindowSpec(size=8_000, period=2_000)
        plain = QloveOperator(spec, PHIS).observe_chunk(stream)
        quant = QloveOperator(spec, PHIS, sig_digits=3).observe_chunk(stream)
        for rp, rq in zip(plain, quant):
            for p in PHIS:
                assert abs(rp[p] - rq[p]) / rp[p] < 0.011  # <1% quantization


class TestFewK:
    def test_topk_full_budget_exact_high_quantile(self):
        g = np.random.default_rng(7)
        stream = g.random(4000) * 1e4
        spec = WindowSpec(size=1000, period=250)
        phi = 0.99
        cfg = FewKConfig.from_fraction(
            window_size=spec.size, period=spec.period, phis=[phi], top_fraction=1.0
        )
        op = QloveOperator(spec, (phi,), fewk=cfg)
        results = op.observe_chunk(stream)
        for e, r in enumerate(results):
            lo, hi = spec.window_bounds(e)
            assert r[phi] == exact_quantiles(stream[lo:hi], [phi])[0]

    def test_topk_beats_mean_at_small_period(self):
        stream = netmon(128_000, seed=8)
        spec = WindowSpec(size=16_000, period=1_000)
        phi = 0.999
        plain = QloveOperator(spec, (phi,)).observe_chunk(stream)
        cfg = FewKConfig.from_fraction(
            window_size=spec.size, period=spec.period, phis=[phi], top_fraction=0.5
        )
        fewk = QloveOperator(spec, (phi,), fewk=cfg).observe_chunk(stream)

        def mean_err(results):
            errs = []
            for e, r in enumerate(results):
                lo, hi = spec.window_bounds(e)
                exact = exact_quantiles(stream[lo:hi], [phi])[0]
                errs.append(abs(r[phi] - exact) / exact)
            return np.mean(errs)

        assert mean_err(fewk) < mean_err(plain)

    def test_samplek_handles_burst(self):
        base = netmon(96_000, seed=9)
        spec = WindowSpec(size=16_000, period=4_000)
        phi = 0.999
        stream = inject_burst(
            base, window_size=spec.size, period=spec.period, phi=phi
        )
        plain = QloveOperator(spec, (phi,)).observe_chunk(stream)
        cfg = FewKConfig.from_fraction(
            window_size=spec.size, period=spec.period, phis=[phi], sample_fraction=0.5
        )
        fewk = QloveOperator(spec, (phi,), fewk=cfg).observe_chunk(stream)

        def mean_err(results):
            errs = []
            for e, r in enumerate(results):
                lo, hi = spec.window_bounds(e)
                exact = exact_quantiles(stream[lo:hi], [phi])[0]
                errs.append(abs(r[phi] - exact) / exact)
            return np.mean(errs)

        assert mean_err(fewk) < mean_err(plain) / 2

    def test_low_quantiles_unaffected_by_fewk(self):
        stream = netmon(48_000, seed=10)
        spec = WindowSpec(size=8_000, period=2_000)
        cfg = FewKConfig.from_fraction(
            window_size=spec.size, period=spec.period, phis=[0.999], top_fraction=0.5
        )
        plain = QloveOperator(spec, (0.5, 0.999)).observe_chunk(stream)
        fewk = QloveOperator(spec, (0.5, 0.999), fewk=cfg).observe_chunk(stream)
        for rp, rf in zip(plain, fewk):
            assert rp[0.5] == rf[0.5]


class TestWindowResult:
    """Direct tests of the shared Level-2 selection logic."""

    def _summaries(self, n=4, bursty=None):
        from repro.core.summary import SubWindowSummary

        out = []
        for i in range(n):
            out.append(
                SubWindowSummary(
                    sub_id=i,
                    count=100,
                    quantiles=np.array([10.0 + i, 100.0 + i]),
                    top_k={0.99: np.array([200.0 - i, 150.0 - i])},
                    sample_k={0.99: np.array([200.0 - i, 100.0 - i])},
                    bursty=bool(bursty and i in bursty),
                )
            )
        return out

    def test_plain_mean(self):
        from repro.core.fewk import FewKConfig
        from repro.core.qlove import window_result

        res = window_result(self._summaries(), (0.5, 0.99), FewKConfig())
        assert res[0.5] == pytest.approx(11.5)  # mean of 10..13
        assert res[0.99] == pytest.approx(101.5)

    def test_topk_outcome_when_enabled(self):
        from repro.core.fewk import FewKConfig, PhiBudget
        from repro.core.qlove import window_result

        cfg = FewKConfig(budgets=(PhiBudget(phi=0.99, big_k=3, k_t=2, k_s=0),))
        res = window_result(self._summaries(), (0.5, 0.99), cfg)
        # merged top-k = [200,199,198,197,150,149,148,147]; 3rd largest = 198
        assert res[0.99] == 198.0
        assert res[0.5] == pytest.approx(11.5)  # untouched

    def test_samplek_outcome_on_burst(self):
        from repro.core.fewk import FewKConfig, PhiBudget
        from repro.core.qlove import window_result

        cfg = FewKConfig(budgets=(PhiBudget(phi=0.99, big_k=2, k_t=1, k_s=2),))
        res = window_result(self._summaries(bursty={2}), (0.99,), cfg)
        # burst present -> sample-k path: merged samples, rank ceil(8/4)=2
        assert res[0.99] == 199.0

    def test_means_override_consistent(self):
        from repro.core.fewk import FewKConfig
        from repro.core.qlove import window_result

        s = self._summaries()
        means = np.mean([x.quantiles for x in s], axis=0)
        a = window_result(s, (0.5, 0.99), FewKConfig())
        b = window_result(s, (0.5, 0.99), FewKConfig(), means=means)
        assert a == b

    def test_sliding_merge_takes_summaries_in_order(self):
        from repro.core.fewk import FewKConfig
        from repro.core.qlove import SlidingMerge

        s = self._summaries()
        merge = SlidingMerge(WindowSpec(size=200, period=100), (0.5, 0.99), FewKConfig())
        assert merge.push(s[0]) is None
        with pytest.raises(ValueError):
            merge.push(s[2])  # sub-window 1 missing
        with pytest.raises(ValueError):
            merge.push(s[0])  # already merged
        assert merge.push(s[1]) == {0.5: 10.5, 0.99: 100.5}


class TestPlainSlideCost:
    """A plain slide (no few-k budget) must cost O(l), never O(n)."""

    class _NoIter(list):
        def __iter__(self):
            raise AssertionError("plain Level 2 iterated the summaries")

    def test_plain_window_result_never_iterates_summaries(self):
        from repro.core.qlove import window_result

        summaries = self._NoIter(TestWindowResult()._summaries())
        res = window_result(summaries, (0.5, 0.99), FewKConfig(), means=np.array([1.5, 2.5]))
        assert res == {0.5: 1.5, 0.99: 2.5}

    def test_1m_window_equals_running_sum_means(self):
        from collections import deque

        class NoIterDeque(deque):
            def __iter__(self):
                raise AssertionError("plain Level 2 iterated the summaries")

        spec = WindowSpec(size=1_000_000, period=1_000)
        stream = netmon(1_050_000, seed=21)
        op = QloveOperator(spec, PHIS)
        op._merge.summaries = NoIterDeque(maxlen=spec.n_subwindows)
        got = [[r[p] for p in PHIS] for r in op.observe_chunk(stream)]
        # The running sums, in the operator's order of adds and subtracts.
        sub_q = [
            exact_quantiles(stream[i : i + spec.period], PHIS)
            for i in range(0, len(stream), spec.period)
        ]
        sums, want = np.zeros(len(PHIS)), []
        for i, q in enumerate(sub_q):
            if i >= spec.n_subwindows:
                sums -= sub_q[i - spec.n_subwindows]
            sums += q
            if i >= spec.n_subwindows - 1:
                want.append(sums / spec.n_subwindows)
        assert len(got) == 51
        np.testing.assert_array_equal(got, want)


class TestSpace:
    def test_analytical_formula(self):
        spec = WindowSpec(size=131_072, period=16_384)
        op = QloveOperator(spec, (0.5, 0.9, 0.99, 0.999))
        # Paper Table 1: l*(N/P) + O(P) = 4*8 + 16384 = 16,416.
        assert op.space_analytical() == 16_416

    def test_observed_below_analytical_on_redundant_data(self):
        stream = netmon(262_144, seed=11)
        spec = WindowSpec(size=131_072, period=16_384)
        op = QloveOperator(spec, (0.5, 0.9, 0.99, 0.999))
        op.observe_chunk(stream)
        assert 0 < op.space_observed() < op.space_analytical()

    def test_sliding_merge_space_tracks_retained_summaries(self):
        from repro.core.qlove import SlidingMerge
        from repro.core.summary import SubWindowSummary

        spec = WindowSpec(size=400, period=100)
        merge = SlidingMerge(spec, (0.5, 0.99), FewKConfig())
        for i in range(3 * spec.n_subwindows + 1):
            # Caches of varying length, as a short sub-window's tail gives.
            merge.push(
                SubWindowSummary(
                    sub_id=i,
                    count=100,
                    quantiles=np.array([1.0, 2.0]),
                    top_k={0.99: np.arange(i % 5, dtype=np.float64)},
                    sample_k={0.99: np.arange((3 * i) % 7, dtype=np.float64)},
                )
            )
            assert merge.space == sum(s.space() for s in merge.summaries)
        assert len(merge.summaries) == spec.n_subwindows


class TestWholeNumberQuantization:
    def test_table_path_changes_no_estimate_or_space(self, monkeypatch):
        # Integer NetMon-sim: the periods below 2^18 take quantize_sig's
        # whole-number table, the 10x burst periods its float path.
        import repro.core.compression as compression

        spec = WindowSpec(size=16_000, period=4_000)
        phis = (0.5, 0.9, 0.99, 0.999)
        stream = inject_burst(
            netmon(96_000, seed=12), window_size=spec.size, period=spec.period, phi=0.999
        )
        assert (stream == np.rint(stream)).all() and stream.max() >= compression._TABLE_SIZE
        cfg = FewKConfig.from_fraction(
            window_size=spec.size,
            period=spec.period,
            phis=[0.99, 0.999],
            sample_fraction=0.5,
            auto_topk=True,
        )

        def run():
            op = QloveOperator(spec, phis, sig_digits=3, fewk=cfg)
            estimates, space = [], []
            for chunk in np.array_split(stream, 96):
                for r in op.observe_chunk(chunk):
                    estimates.append([r[p] for p in phis])
                    space.append(op.space_observed())
            return np.array(estimates), space

        with_table = run()
        monkeypatch.setattr(compression, "_TABLE_SIZE", 0)  # every array floats
        without_table = run()
        assert len(with_table[0]) == spec.n_evaluations(len(stream))
        np.testing.assert_array_equal(with_table[0], without_table[0])
        assert with_table[1] == without_table[1]


class TestFewKTailState:
    """SlidingMerge answers few-k quantiles from counts against the last
    answer; every window must equal a stateless window_result."""

    class _Flags:
        """Stands in for the burst detector: hands out the drawn flags."""

        def __init__(self, flags):
            self._flags = iter(flags)

        def observe(self, samples):
            return next(self._flags)

    @staticmethod
    def _summary(i, g, phis, budgets, distinct, nan_rate, max_len):
        from repro.core.summary import SubWindowSummary

        def cache():
            size = g.integers(0, max_len + 1)
            v = g.integers(0, distinct, size) / 4 if distinct else g.random(size)
            v[g.random(size) < nan_rate] = np.nan
            return v

        return SubWindowSummary(
            sub_id=i,
            count=100,
            quantiles=g.random(len(phis)),
            top_k={b.phi: cache() for b in budgets if b.k_t > 0},
            sample_k={b.phi: cache() for b in budgets if b.k_s > 0},
        )

    @staticmethod
    def _outcome(f):
        try:
            return f()
        except ValueError:  # a window with no cached value at all
            return "ValueError"

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=1, max_value=8),
        distinct=st.sampled_from([2, 5, None]),  # None: continuous values
        nan_rate=st.sampled_from([0.0, 0.2]),
        max_len=st.integers(min_value=1, max_value=12),
        sizes=st.tuples(*[st.integers(min_value=0, max_value=6)] * 4),
        big_k=st.integers(min_value=1, max_value=40),
        flags=st.lists(st.booleans(), min_size=30, max_size=30),
    )
    @settings(max_examples=300, deadline=None)
    def test_push_equals_stateless_window_result(
        self, seed, n, distinct, nan_rate, max_len, sizes, big_k, flags
    ):
        from repro.core.fewk import PhiBudget
        from repro.core.qlove import SlidingMerge, window_result

        phis = (0.5, 0.99, 0.999)
        budgets = tuple(
            PhiBudget(phi=phi, big_k=big_k, k_t=k_t, k_s=k_s)
            for phi, k_t, k_s in ((0.99, *sizes[:2]), (0.999, *sizes[2:]))
            if k_t or k_s
        )
        cfg = FewKConfig(budgets=budgets)
        merge = SlidingMerge(WindowSpec(size=100 * n, period=100), phis, cfg)
        merge._detector = self._Flags(flags)
        g = np.random.default_rng(seed)
        for i in range(len(flags)):
            s = self._summary(i, g, phis, budgets, distinct, nan_rate, max_len)
            got = self._outcome(lambda: merge.push(s))
            if len(merge.summaries) < n:
                assert got is None
                continue
            want = self._outcome(
                lambda: window_result(
                    list(merge.summaries), phis, cfg, means=merge.sums / merge.n
                )
            )
            if "ValueError" in (got, want):
                assert got == want
            else:
                np.testing.assert_array_equal(
                    [got[p] for p in phis], [want[p] for p in phis]
                )

    def test_no_merge_or_selection_while_the_answer_holds(self, monkeypatch):
        import repro.core.fewk as fewk
        from repro.core.fewk import PhiBudget
        from repro.core.qlove import SlidingMerge
        from repro.core.summary import SubWindowSummary

        class NumpySpy:
            calls: list[str] = []

            def __getattr__(self, name):
                if name in ("concatenate", "partition"):
                    def spy(*args, **kwargs):
                        NumpySpy.calls.append(name)
                        return getattr(np, name)(*args, **kwargs)

                    return spy
                return getattr(np, name)

        cfg = FewKConfig(
            budgets=(
                PhiBudget(phi=0.99, big_k=3, k_t=2, k_s=0),
                PhiBudget(phi=0.999, big_k=2, k_t=0, k_s=2),
            )
        )
        merge = SlidingMerge(WindowSpec(size=300, period=100), (0.99, 0.999), cfg)
        merge._detector = self._Flags([True] * 20)

        def push(i, top, sample):
            return merge.push(
                SubWindowSummary(
                    sub_id=i,
                    count=100,
                    quantiles=np.zeros(2),
                    top_k={0.99: np.array(top)},
                    sample_k={0.999: np.array(sample)},
                )
            )

        for i in range(3):
            assert push(i, [5.0, 5.0], [7.0, 7.0]) in (None, {0.99: 5.0, 0.999: 7.0})
        monkeypatch.setattr(fewk, "np", NumpySpy())
        # Top-k: the 3rd largest of six stays 5; sample-k: the 2nd largest
        # of six stays 7, while the caches around them change.
        for i, (top, sample) in enumerate(
            [([5.0, 5.0], [7.0, 3.0]), ([9.0, 5.0], [9.0, 7.0]), ([5.0, 4.0], [7.0, 7.0])], 3
        ):
            assert push(i, top, sample) == {0.99: 5.0, 0.999: 7.0}
        assert NumpySpy.calls == []
        assert push(6, [9.0, 9.0], [9.0, 9.0]) == {0.99: 9.0, 0.999: 9.0}
        assert "partition" in NumpySpy.calls  # the spy sees a moved answer

    def test_pickled_operator_continues_identically(self):
        import pickle
        from collections import deque

        spec = WindowSpec(size=8 * 512, period=512)
        stream = inject_burst(
            netmon(40 * 512, seed=17), window_size=spec.size, period=spec.period, phi=0.99
        )
        cfg = FewKConfig.from_fraction(
            window_size=spec.size,
            period=spec.period,
            phis=[0.99],
            sample_fraction=0.5,
            auto_topk=True,
        )
        op = QloveOperator(spec, PHIS + (0.999,), sig_digits=3, fewk=cfg)
        cut = 13 * 512 + 100  # mid-stream and mid-sub-window
        op.observe_chunk(stream[:cut])
        clone = pickle.loads(pickle.dumps(op))
        tails = clone._merge.tail_counts
        # Both kinds have answered (a burst is in the window) and kept counts.
        assert tails["sample_k"][0.99].g is not None and tails["top_k"][0.99].g is not None
        assert clone._merge.bursty == 1
        # The counts are scalars: the caches stay in the summaries only.
        for tail in (*tails["sample_k"].values(), *tails["top_k"].values()):
            assert not any(isinstance(v, (np.ndarray, deque)) for v in vars(tail).values())
        want = op.observe_chunk(stream[cut:])
        got = clone.observe_chunk(stream[cut:])
        assert len(got) == 27
        np.testing.assert_array_equal(
            [list(r.values()) for r in got], [list(r.values()) for r in want]
        )
