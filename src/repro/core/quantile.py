"""Exact quantiles under the paper's rank convention.

The paper (Section 1) defines the phi-quantile of ``N`` sorted elements
``{e_1..e_N}`` as the element of rank ``r = ceil(phi * N)`` (1-indexed from
the smallest). Equivalently it is the ``K``-th *largest* element with
``K = N - ceil(phi*N) + 1`` — the form Section 4 uses for few-k merging
(the paper approximates ``K ~= N*(1-phi)``).

All helpers here use that convention so the kernel operators, the Spark
pipeline, and the DuckDB oracle SQL agree bit-for-bit.
"""
from __future__ import annotations

import functools
import math
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "rank_of",
    "kth_largest_count",
    "exact_quantiles_sorted",
    "exact_quantiles",
    "exact_quantiles_freq",
    "rank_error",
    "sorted_runs",
]


def rank_of(phi: float, n: int) -> int:
    """1-indexed rank ``ceil(phi * n)`` of the phi-quantile among n elements.

    Clamped to ``[1, n]`` so phi values that round to 0 (tiny phi) or past n
    (phi=1 with float error) stay valid.
    """
    if n <= 0:
        raise ValueError(f"need n >= 1, got {n}")
    if not (0.0 < phi <= 1.0):
        raise ValueError(f"need 0 < phi <= 1, got {phi}")
    return min(max(1, math.ceil(phi * n)), n)


def kth_largest_count(phi: float, n: int) -> int:
    """How many of the largest elements the phi-quantile answer needs.

    ``K = n - rank_of(phi, n) + 1``: the phi-quantile is the K-th largest
    element. This is the exact form of the paper's ``N(1-phi)`` space bound
    for few-k merging (Section 4.2).
    """
    return n - rank_of(phi, n) + 1


@functools.lru_cache(maxsize=128)
def _quantile_index(phis: tuple[float, ...], n: int) -> np.ndarray:
    """0-based positions of the phi-quantiles among n sorted elements.

    Cached because a stream asks for the same quantiles of equally sized
    sub-windows over and over; the array is read-only as every caller
    shares it.
    """
    idx = np.array([rank_of(p, n) - 1 for p in phis], dtype=np.int64)
    idx.flags.writeable = False
    return idx


def exact_quantiles_sorted(sorted_values: np.ndarray, phis: Sequence[float]) -> np.ndarray:
    """Exact phi-quantiles of an ascending-sorted array, paper convention.

    Returns a new array: it shares no memory with ``sorted_values``.
    """
    idx = _quantile_index(tuple(phis), len(sorted_values))
    return np.asarray(sorted_values, dtype=np.float64)[idx]


def exact_quantiles(values: np.ndarray, phis: Sequence[float]) -> np.ndarray:
    """Exact phi-quantiles of an unsorted array, paper convention."""
    return exact_quantiles_sorted(np.sort(np.asarray(values)), phis)


def exact_quantiles_freq(
    unique_sorted: np.ndarray, counts: np.ndarray, phis: Sequence[float]
) -> np.ndarray:
    """Exact phi-quantiles from a frequency-compressed state.

    This is ``ComputeResult`` of Algorithm 1: an in-order traversal of the
    sorted (value, frequency) state, answering all quantiles in one pass.
    ``unique_sorted`` must be ascending and ``counts`` the per-value
    frequencies; vectorized with a cumulative sum + searchsorted instead of
    the paper's explicit node walk (identical result).
    """
    unique_sorted = np.asarray(unique_sorted)
    counts = np.asarray(counts, dtype=np.int64)
    if unique_sorted.shape != counts.shape:
        raise ValueError("unique_sorted and counts must align")
    cum = np.cumsum(counts)
    total = int(cum[-1]) if len(cum) else 0
    ranks = np.array([rank_of(p, total) for p in phis], dtype=np.int64)
    idx = np.searchsorted(cum, ranks, side="left")
    return unique_sorted[idx].astype(np.float64, copy=False)


def sorted_runs(sorted_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start index and length of each run of equal values in an ascending
    array: the frequency state of a sorted sub-window is
    ``(sorted_values[starts], counts)``. NaN never equals itself, so each
    NaN is a run of its own.
    """
    s = sorted_values
    new_run = np.empty(len(s), dtype=bool)
    new_run[:1] = True
    np.not_equal(s[1:], s[:-1], out=new_run[1:])
    starts = np.flatnonzero(new_run)
    counts = np.empty_like(starts)
    counts[:-1] = starts[1:]
    counts[-1:] = len(s)
    counts -= starts
    return starts, counts


def rank_error(estimate: float, window_sorted: np.ndarray, phi: float) -> float:
    """Normalized rank error ``|r - r'|/N`` of one estimate (Section 5.2).

    ``r`` is the exact rank of phi; ``r'`` the rank the estimated value
    occupies in the window's sorted data. A duplicated value occupies a
    *range* of ranks, and a value absent from the window sits between two
    ranks; in both cases ``r'`` is the feasible rank nearest to ``r`` (so
    returning the exact quantile value always scores zero, even under
    heavy duplication).
    """
    n = len(window_sorted)
    r = rank_of(phi, n)
    left = int(np.searchsorted(window_sorted, estimate, side="left"))
    right = int(np.searchsorted(window_sorted, estimate, side="right"))
    if right > left:  # present: occupies ranks [left+1, right]
        lo, hi = left + 1, right
    else:  # absent: sits between ranks left and left+1
        lo, hi = left, left + 1
    lo, hi = min(max(lo, 1), n), min(max(hi, 1), n)
    r_prime = min(max(r, lo), hi)
    return abs(r - r_prime) / n


def value_error(estimate: float, exact: float) -> float:
    """Relative value error ``|a - b|/|b|`` (Section 5.1 Metrics), in ratio."""
    if exact == 0:
        return 0.0 if estimate == 0 else float("inf")
    return abs(estimate - exact) / abs(exact)
