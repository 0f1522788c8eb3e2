"""Unit tests for significant-digit value compression (core/compression.py)."""
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compression import (
    _TABLE_SIZE,
    _whole_number_table,
    max_relative_error,
    quantize_sig,
)


class TestQuantizeSig:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (74_265.0, 74_200.0),  # the paper's NetMon max
            (1_247.0, 1_240.0),
            (798.0, 798.0),
            (1_874.0, 1_870.0),
            (0.012345, 0.0123),
            (999.0, 999.0),
            (1000.0, 1000.0),
            (1001.0, 1000.0),
            (0.0, 0.0),
        ],
    )
    def test_examples(self, value, expected):
        assert quantize_sig(np.array([value]))[0] == pytest.approx(expected, rel=1e-12)

    def test_negative_values_truncate_toward_zero(self):
        assert quantize_sig(np.array([-74_265.0]))[0] == pytest.approx(-74_200.0)

    def test_two_digits(self):
        assert quantize_sig(np.array([74_265.0]), digits=2)[0] == pytest.approx(74_000.0)

    def test_one_digit(self):
        assert quantize_sig(np.array([74_265.0]), digits=1)[0] == pytest.approx(70_000.0)

    def test_invalid_digits(self):
        with pytest.raises(ValueError):
            quantize_sig(np.array([1.0]), digits=0)

    @pytest.mark.parametrize("digits", [1, 3, 17])
    def test_subnormal_whose_scale_underflows_is_unchanged(self, digits):
        tiny = np.array([5e-324, -1e-323, 1e-322, -9.9e-322, 1e-321, 1e-320])
        underflows = np.power(10.0, np.floor(np.log10(np.abs(tiny))) - (digits - 1)) == 0
        assert underflows[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # Without and with a zero: the fast path's case and the masked one.
            for values in (tiny, np.append(tiny, 0.0)):
                got = quantize_sig(values, digits)[: len(tiny)]
                assert not np.isnan(got).any()
                np.testing.assert_array_equal(got[underflows], tiny[underflows])

    def test_all_zero(self):
        np.testing.assert_array_equal(quantize_sig(np.zeros(4)), np.zeros(4))

    def test_increases_duplicates(self):
        g = np.random.default_rng(0)
        v = np.rint(g.normal(10_000, 500, 50_000))
        q = quantize_sig(v, 3)
        assert len(np.unique(q)) < len(np.unique(v))

    @given(st.floats(min_value=1e-6, max_value=1e12))
    def test_relative_error_bound(self, x):
        # Section 3.1: 3 significant digits keep values within <1% rel error.
        q = quantize_sig(np.array([x]), 3)[0]
        assert abs(q - x) / x < max_relative_error(3)

    @given(
        digits=st.integers(min_value=1, max_value=8),
        k=st.integers(min_value=-15, max_value=15),
        sign=st.sampled_from([1, -1]),
        data=st.data(),
    )
    def test_kept_decimal_is_unchanged(self, digits, k, sign, data):
        # A value with at most `digits` significant digits is its own
        # quantization, below 10^(digits - 1) too (58 stays 58, not
        # 57.99999999999999). With a zero it takes the masked path.
        m = data.draw(st.integers(min_value=1, max_value=10**digits - 1))
        x = sign * float(f"{m}e{k}")
        for values in ([x], [x, 0.0]):
            assert quantize_sig(np.array(values), digits)[0] == x

    @given(
        st.floats(min_value=1e-6, max_value=1e12),
        st.integers(min_value=1, max_value=8),
    )
    def test_idempotent(self, x, digits):
        q1 = quantize_sig(np.array([x]), digits)
        q2 = quantize_sig(q1, digits)
        np.testing.assert_allclose(q1, q2, rtol=1e-12)

    @given(st.lists(st.floats(min_value=1.0, max_value=1e9), min_size=2, max_size=50))
    def test_monotone(self, values):
        # Quantization preserves order (so quantiles of quantized data are
        # quantized quantiles).
        v = np.sort(np.array(values))
        q = quantize_sig(v, 3)
        assert (np.diff(q) >= 0).all()


def test_max_relative_error_values():
    assert max_relative_error(3) == pytest.approx(0.01)
    assert max_relative_error(1) == pytest.approx(1.0)


def _masked_quantize(values, digits=3):
    """The masked quantization with a per-element np.power: the reference
    the table-driven fast path of quantize_sig must match bit for bit."""
    v = np.asarray(values, dtype=np.float64)
    out = np.zeros_like(v)
    nz = v != 0
    if not nz.any():
        return out
    a = np.abs(v[nz])
    e = np.floor(np.log10(a)) - (digits - 1)
    # 10^e is inexact for e < 0; 10^-e is exact up to 10^22.
    inverse = (e < 0) & (e >= -22)
    with np.errstate(all="ignore"):
        scale = np.power(10.0, np.where(inverse, -e, e))
        ratio = np.where(inverse, a * scale, a / scale) * (1.0 + 1e-10)
        q = np.where(inverse, np.trunc(ratio) / scale, np.trunc(ratio) * scale)
    out[nz] = np.where(scale == 0, v[nz], np.sign(v[nz]) * q)
    return out


def _fast_path_inputs():
    decades = 10.0 ** np.arange(-307, 309)
    tiny = np.array([5e-324, 1e-320, 1e-310, np.nextafter(2.2250738585072014e-308, 0)])
    g = np.random.default_rng(4)
    regular = np.concatenate(
        [
            decades,
            np.nextafter(decades, 0),  # just below each decade boundary
            tiny,
            [2.2250738585072014e-308, 1.7976931348623157e308],
            g.lognormal(5, 4, 2_000),
            np.rint(g.normal(1_000, 300, 2_000)),
        ]
    )
    regular = np.concatenate([regular, -regular])
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
    return {
        "no-zero-finite": regular,
        "subnormal-only": tiny,
        "mixed": np.concatenate([regular, specials]),
        **{f"alone-{x!r}": np.array([x]) for x in specials.tolist()},
    }


@pytest.mark.parametrize("digits", range(1, 18))
def test_fast_path_bit_identical_to_masked_reference(digits):
    with np.errstate(all="ignore"):
        for name, values in _fast_path_inputs().items():
            got, want = quantize_sig(values, digits), _masked_quantize(values, digits)
            # int64 views compare bits: the sign of zero and NaN included.
            np.testing.assert_array_equal(
                got.view(np.int64), want.view(np.int64), err_msg=name
            )


# Whole numbers around every decade and the table's edge, 0 and -0.0
# included: the table path must equal the float path bit for bit.
_WHOLE_EDGES = [0.0, -0.0, 1.0, 58.0, _TABLE_SIZE - 1.0, float(_TABLE_SIZE)] + [
    float(10**k + d) for k in range(1, 7) for d in (-1, 0)
]
_whole_numbers = st.lists(
    st.one_of(
        st.sampled_from(_WHOLE_EDGES),
        st.integers(min_value=0, max_value=_TABLE_SIZE - 1).map(float),
        st.integers(min_value=-_TABLE_SIZE, max_value=-1).map(float),
    ),
    min_size=1,
    max_size=60,
)


def _assert_bits_equal(got, want):
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("digits", range(1, 18))
@given(values=_whole_numbers)
@settings(max_examples=40, deadline=None)
def test_whole_numbers_bit_identical_to_masked_reference(digits, values):
    v = np.array(values)
    _assert_bits_equal(quantize_sig(v, digits), _masked_quantize(v, digits))
    in_table = v[(v >= 0) & (v < _TABLE_SIZE)]
    _assert_bits_equal(quantize_sig(in_table, digits), _masked_quantize(in_table, digits))


@pytest.mark.parametrize("digits", range(1, 18))
@given(
    values=_whole_numbers,
    odd=st.sampled_from([0.5, 99_999.25, 1e-300, np.nan, np.inf, -np.inf]),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_whole_numbers_with_a_fraction_or_non_finite_take_float_path(
    digits, values, odd, data
):
    v = np.array(values)
    v = np.insert(v, data.draw(st.integers(min_value=0, max_value=len(v))), odd)
    with np.errstate(all="ignore"):
        _assert_bits_equal(quantize_sig(v, digits), _masked_quantize(v, digits))


def test_whole_number_table_is_read_only():
    table = _whole_number_table(3)
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[58] = 58.0
    out = quantize_sig(np.array([58.0, 1_247.0]), 3)
    out[:] = 0.0  # a lookup returns a new array
    assert table[1_247] == 1_240.0
    assert table[58] == _masked_quantize(np.array([58.0]), 3)[0]
