"""Unit tests for the windowing model (streams/windows.py)."""
import pytest

from repro.streams.windows import WindowSpec


class TestWindowSpec:
    def test_tumbling(self):
        spec = WindowSpec(size=100, period=100)
        assert spec.is_tumbling
        assert spec.n_subwindows == 1

    def test_sliding(self):
        spec = WindowSpec(size=131_072, period=16_384)
        assert not spec.is_tumbling
        assert spec.n_subwindows == 8

    @pytest.mark.parametrize("size,period", [(0, 1), (10, 0), (10, 20), (10, 3)])
    def test_invalid(self, size, period):
        with pytest.raises(ValueError):
            WindowSpec(size=size, period=period)

    def test_n_evaluations_exact_window(self):
        spec = WindowSpec(size=8, period=4)
        assert spec.n_evaluations(7) == 0
        assert spec.n_evaluations(8) == 1
        assert spec.n_evaluations(11) == 1
        assert spec.n_evaluations(12) == 2

    def test_n_evaluations_tumbling(self):
        spec = WindowSpec(size=4, period=4)
        assert spec.n_evaluations(16) == 4

    def test_window_bounds(self):
        spec = WindowSpec(size=8, period=4)
        assert spec.window_bounds(0) == (0, 8)
        assert spec.window_bounds(1) == (4, 12)
        assert spec.window_bounds(2) == (8, 16)

    def test_bounds_cover_stream(self):
        spec = WindowSpec(size=12, period=3)
        n = 60
        for i in range(spec.n_evaluations(n)):
            lo, hi = spec.window_bounds(i)
            assert 0 <= lo < hi <= n
            assert hi - lo == spec.size
