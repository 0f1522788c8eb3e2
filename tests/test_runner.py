"""Unit tests for the stream runner (streams/runner.py) and the period cut
every policy shares (streams/windows.py::PeriodBuffer)."""
import numpy as np
import pytest

from repro.baselines.am import AmPolicy
from repro.baselines.cmqs import CmqsPolicy
from repro.baselines.exact import ExactPolicy
from repro.baselines.moment import MomentPolicy
from repro.baselines.random_sampling import RandomPolicy
from repro.core.qlove import QloveOperator
from repro.streams.runner import run_policy
from repro.streams.windows import PeriodBuffer, WindowSpec
from repro.synth_data import netmon

PHIS = (0.5, 0.9)

POLICIES = {
    "QLOVE": lambda spec: QloveOperator(spec, PHIS, sig_digits=3),
    "Exact": lambda spec: ExactPolicy(spec, PHIS),
    "CMQS": lambda spec: CmqsPolicy(spec, PHIS, epsilon=0.1),
    "AM": lambda spec: AmPolicy(spec, PHIS, epsilon=0.1),
    "Random": lambda spec: RandomPolicy(spec, PHIS, epsilon=0.2, seed=3),
    "Moment": lambda spec: MomentPolicy(spec, PHIS),
}


class TestRunPolicy:
    def test_evaluation_count(self):
        spec = WindowSpec(size=400, period=100)
        res = run_policy(QloveOperator(spec, PHIS), netmon(2_000, seed=0))
        assert len(res.evaluations) == spec.n_evaluations(2_000)
        assert res.n_elements == 2_000

    def test_trailing_partial_period_dropped(self):
        spec = WindowSpec(size=400, period=100)
        res = run_policy(QloveOperator(spec, PHIS), netmon(2_050, seed=1))
        assert res.n_elements == 2_000

    def test_estimates_matrix_shape(self):
        spec = WindowSpec(size=300, period=100)
        res = run_policy(ExactPolicy(spec, PHIS), netmon(1_200, seed=2))
        m = res.estimates_matrix(PHIS)
        assert m.shape == (spec.n_evaluations(1_200), 2)
        assert (m > 0).all()

    def test_space_recorded(self):
        spec = WindowSpec(size=300, period=100)
        res = run_policy(ExactPolicy(spec, PHIS), netmon(1_200, seed=3))
        assert res.mean_space > 0
        assert all(e.space > 0 for e in res.evaluations)

    def test_throughput_positive(self):
        spec = WindowSpec(size=200, period=100)
        res = run_policy(QloveOperator(spec, PHIS), netmon(1_000, seed=4))
        assert res.throughput_eps > 0
        assert res.elapsed_s > 0

    def test_same_results_as_direct_call(self):
        spec = WindowSpec(size=400, period=200)
        stream = netmon(1_600, seed=5)
        res = run_policy(QloveOperator(spec, PHIS), stream)
        direct = QloveOperator(spec, PHIS).observe_chunk(stream)
        assert [e.estimates for e in res.evaluations] == direct

    def test_indices_sequential(self):
        spec = WindowSpec(size=200, period=50)
        res = run_policy(ExactPolicy(spec, PHIS), netmon(1_000, seed=6))
        assert [e.index for e in res.evaluations] == list(range(len(res.evaluations)))


def _feed(policy, stream, sizes, reuse_buffer=False):
    """Feed ``stream`` in chunks of the cycled ``sizes``; with
    ``reuse_buffer`` every chunk is copied into one array that is then
    overwritten, so a policy that keeps a view of its input goes wrong."""
    out, lo, i = [], 0, 0
    while lo < len(stream):
        chunk = stream[lo : lo + sizes[i % len(sizes)]]
        if reuse_buffer:
            buf = np.array(chunk)
            out.extend(policy.observe_chunk(buf))
            buf[:] = -1.0
        else:
            out.extend(policy.observe_chunk(chunk))
        lo += len(chunk)
        i += 1
    return out, policy.space_observed()


class TestChunking:
    @pytest.mark.parametrize("name", list(POLICIES))
    def test_results_independent_of_chunking(self, name):
        spec = WindowSpec(size=400, period=100)
        stream = netmon(2_050, seed=8)  # ends inside a period
        whole = _feed(POLICIES[name](spec), stream, [len(stream)])
        assert len(whole[0]) == spec.n_evaluations(len(stream))
        assert _feed(POLICIES[name](spec), stream, [77]) == whole
        # Chunks spanning several periods, and exactly one period.
        assert _feed(POLICIES[name](spec), stream, [250, 100, 333]) == whole
        assert _feed(POLICIES[name](spec), stream, [100, 77], reuse_buffer=True) == whole


class TestPeriodBuffer:
    def test_empty_chunk(self):
        calls = []
        cut = PeriodBuffer(4)
        assert cut.feed(np.empty(0), calls.append) == []
        assert cut.feed([1, 2, 3], calls.append) == []
        assert cut.feed(np.empty(0), calls.append) == []
        assert calls == []
        cut.feed([4, 5], calls.append)
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], [1.0, 2.0, 3.0, 4.0])
        assert calls[0].dtype == np.float64

    def test_none_results_skipped_in_order(self):
        seen = []

        def complete(values):
            seen.append(values[0])
            return None if values[0] % 2 else values[0]

        cut = PeriodBuffer(3)
        assert cut.feed(np.arange(10.0), complete) == [0.0, 6.0]
        assert seen == [0.0, 3.0, 6.0]
        assert cut.feed(np.arange(10.0, 12.0), complete) == []
        assert seen == [0.0, 3.0, 6.0, 9.0]

    def test_one_piece_passed_without_copy(self):
        values = np.arange(8.0)
        got = []
        PeriodBuffer(4).feed(values, got.append)
        assert all(np.shares_memory(g, values) for g in got)
