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


def quantize_sig(values: np.ndarray, digits: int = 3) -> np.ndarray:
    """Zero out all but the ``digits`` most significant decimal digits.

    Works element-wise on positive/negative/zero float or int arrays and
    returns float64. Examples (digits=3): 74265 -> 74200, 1247 -> 1240,
    798 -> 798, 0.012345 -> 0.0123. A subnormal too small to scale
    (``10^(floor(log10|v|) - digits + 1)`` underflows to 0.0, e.g. 5e-324)
    is returned unchanged.
    """
    if digits < 1:
        raise ValueError(f"need digits >= 1, got {digits}")
    v = np.asarray(values, dtype=np.float64)
    a = np.abs(v)
    # Fast path: no zero, no non-finite value (NaN fails both tests) and no
    # scale that underflows, so no mask is needed and the scale is a table
    # lookup. A 0-d input takes the masked path, which keeps it an array.
    if digits <= _POW10_DIGITS and v.ndim and v.size and a.min() >= _FAST_MIN and a.max() < np.inf:
        idx = np.floor(np.log10(a)).astype(np.intp)
        idx -= digits - 1 + _POW10_LO
        scale = _POW10[idx]
        # Every step below is odd-symmetric, so dividing v rather than |v|
        # gives the masked path's sign(v) * trunc(ratio) * scale exactly.
        out = v / scale
        out *= 1.0 + 1e-10  # the masked path's inflation, see below
        np.trunc(out, out=out)
        out *= scale
        return out
    out = np.zeros_like(v)
    nz = v != 0
    if not nz.any():
        return out
    mag = np.floor(np.log10(np.abs(v[nz])))
    scale = np.power(10.0, mag - (digits - 1))
    # The tiny relative inflation guards against float division landing an
    # exact decade boundary just below its integer ratio (e.g. 1.0 / 0.1 =
    # 9.999...), which would otherwise truncate away a significant digit.
    ratio = np.abs(v[nz]) / scale * (1.0 + 1e-10)
    # Where the scale underflows to 0.0 (the smallest subnormals), the ratio
    # is inf and trunc(inf) * 0.0 NaN: such a value is kept unchanged.
    out[nz] = np.where(scale == 0, v[nz], np.sign(v[nz]) * np.trunc(ratio) * scale)
    return out


def max_relative_error(digits: int = 3) -> float:
    """Worst-case relative error of :func:`quantize_sig`.

    Truncating to ``d`` significant digits drops at most one unit in the
    ``d``-th digit relative to a leading digit of at least 1, i.e. strictly
    less than ``10^-(d-1)``.
    """
    return 10.0 ** -(digits - 1)
