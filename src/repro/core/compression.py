"""Value compression by significant-digit quantization (Section 3.1).

"To increase data duplicates, some insignificant low-order digits of
streamed values may be zeroed out. Often, we consider only the three most
significant digits of the original value, which ensures the quantized value
within less than 1% relative error."

Quantization keeps the ``digits`` most significant decimal digits and zeroes
the rest (truncation toward zero, matching "zeroed out"). For ``digits=3``
the relative error is ``< 10^-(3-1) = 1%``.
"""
from __future__ import annotations

import functools

import numpy as np

__all__ = ["quantize_sig", "max_relative_error"]

# 10^e for every exponent the masked path can ask for: a finite non-zero
# float64 has floor(log10|v|) in [-324, 308], less digits - 1 for
# digits <= _POW10_DIGITS. It is built with the same np.power the masked
# path calls, so a lookup returns the same bits (0.0 and subnormals
# included, at the bottom).
_POW10_DIGITS = 17
_POW10_LO = -324 - (_POW10_DIGITS - 1)
_POW10 = np.power(10.0, np.arange(_POW10_LO, 309, dtype=np.float64))
# Below this magnitude a scale 10^(floor(log10|v|) - digits + 1) can
# underflow to 0.0 (for digits <= _POW10_DIGITS); such values take the
# masked path, which keeps them unchanged.
_FAST_MIN = 1e-290
# Whole numbers below this are quantized by lookup (see quantize_sig): 2^18
# covers NetMon-sim (<= 80,000) and Search-sim (<= 200,000) latencies.
_TABLE_SIZE = 2**18
# 10^k is exact in float64 for k <= 22 (5^22 < 2^53).
_EXACT_POW10 = 22


def quantize_sig(values: np.ndarray, digits: int = 3) -> np.ndarray:
    """Zero out all but the ``digits`` most significant decimal digits.

    Works element-wise on positive/negative/zero float or int arrays and
    returns float64. Examples (digits=3): 74265 -> 74200, 1247 -> 1240,
    798 -> 798, 0.012345 -> 0.0123. A subnormal too small to scale
    (``10^(floor(log10|v|) - digits + 1)`` underflows to 0.0, e.g. 5e-324)
    is returned unchanged.

    Whole-number telemetry (microsecond latencies) is quantized by table
    lookup: when every value is an integer in ``[0, _TABLE_SIZE)``, the
    result is read from this function's float path applied once to
    ``0 .. _TABLE_SIZE - 1``, so it is bit-identical to that path. Any
    other array (a negative, a fraction, NaN, +-inf, a value past the
    table, a 0-d or empty input) takes the float path.
    """
    if digits < 1:
        raise ValueError(f"need digits >= 1, got {digits}")
    v = np.asarray(values, dtype=np.float64)
    if not (v.ndim and v.size):
        # A 0-d input takes the masked path, which keeps it an array.
        return _quantize_masked(v, digits)
    # NaN makes both NaN, which fails every test below.
    lo, hi = v.min(), v.max()
    if 0 <= lo and hi < _TABLE_SIZE:
        idx = v.astype(np.intp)
        if (idx == v).all():
            return _whole_number_table(digits)[idx]
    return _quantize_float(v, digits, lo, hi)


def _quantize_float(v: np.ndarray, digits: int, lo: float, hi: float) -> np.ndarray:
    """The float path of :func:`quantize_sig` for a non-empty 1-d or wider
    ``v`` whose minimum is ``lo`` and maximum ``hi``."""
    if digits <= _POW10_DIGITS and -np.inf < lo and hi < np.inf:
        # Fast path: no zero, no non-finite value and no scale that
        # underflows, so no mask is needed and the scale is a table lookup.
        if lo > 0:
            a, a_min = v, lo
        else:
            a = np.abs(v)
            a_min = -hi if hi < 0 else a.min()
        if a_min >= _FAST_MIN:
            e = np.floor(np.log10(a)).astype(np.intp)
            e -= digits - 1
            inverse = (e < 0) & (e >= -_EXACT_POW10)
            # _truncate is odd-symmetric, so passing v rather than |v| gives
            # the masked path's sign(v) * _truncate(|v|) exactly.
            return _truncate(v, inverse, _POW10[np.where(inverse, -e, e) - _POW10_LO])
    return _quantize_masked(v, digits)


def _quantize_masked(v: np.ndarray, digits: int) -> np.ndarray:
    """The float path with a mask for zeros and a per-element np.power:
    any zero, +-inf or NaN, or digits past the power table."""
    out = np.zeros_like(v)
    nz = v != 0
    if not nz.any():
        return out
    a = np.abs(v[nz])
    e = np.floor(np.log10(a)) - (digits - 1)
    inverse = (e < 0) & (e >= -_EXACT_POW10)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.power(10.0, np.where(inverse, -e, e))
        q = _truncate(a, inverse, scale)
    # Where the scale underflows to 0.0 (the smallest subnormals), the ratio
    # is inf and trunc(inf) * 0.0 NaN: such a value is kept unchanged.
    out[nz] = np.where(scale == 0, v[nz], np.sign(v[nz]) * q)
    return out


def _truncate(v: np.ndarray, inverse: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """``trunc(v / 10^e) * 10^e`` per element, with ``scale = 10^e``, or
    ``10^-e`` where ``inverse``.

    For e < 0, 10^e is inexact, and scaling by it leaves the kept decimal
    1 ulp low (58 -> 57.99999999999999 at 3 digits). 10^-e is exact for
    -e <= _EXACT_POW10, so there the ratio is ``v * 10^-e`` and the result
    ``trunc(...) / 10^-e``: a correctly rounded quotient of two exact
    numbers, which is the kept decimal itself. Odd-symmetric in ``v``.
    """
    # The tiny relative inflation guards against float division landing an
    # exact decade boundary just below its integer ratio (e.g. 1.0 / 0.1 =
    # 9.999...), which would otherwise truncate away a significant digit.
    ratio = v / scale
    # where= rather than np.where: the branch not taken would overflow.
    np.multiply(v, scale, out=ratio, where=inverse)
    ratio *= 1.0 + 1e-10
    np.trunc(ratio, out=ratio)
    out = ratio * scale
    np.divide(ratio, scale, out=out, where=inverse)
    return out


@functools.lru_cache(maxsize=8)
def _whole_number_table(digits: int) -> np.ndarray:
    """``quantize_sig``'s float path over ``0 .. _TABLE_SIZE - 1``: the
    whole-number lookup table for ``digits``, 2 MB, built on first use.
    Read-only, as every caller shares it."""
    table = np.empty(_TABLE_SIZE, dtype=np.float64)
    # Built in 32 KB pieces: built whole, its ~20 MB of temporaries left
    # the process 12 MB larger, not 2 MB, once the build was done.
    step = 4096
    for lo in range(0, _TABLE_SIZE, step):
        whole = np.arange(lo, lo + step, dtype=np.float64)
        table[lo : lo + step] = _quantize_float(whole, digits, float(lo), lo + step - 1.0)
    table.flags.writeable = False
    return table


def max_relative_error(digits: int = 3) -> float:
    """Worst-case relative error of :func:`quantize_sig`.

    Truncating to ``d`` significant digits drops at most one unit in the
    ``d``-th digit relative to a leading digit of at least 1, i.e. strictly
    less than ``10^-(d-1)``.
    """
    return 10.0 ** -(digits - 1)
