"""Correctness gate: every expected window exactly once, finite, and equal to
its reference.

``failed`` counts windows that are missing, extra (duplicates or ids no
evaluation has), non-finite, or off their reference; ``attempted`` is the
number of windows expected. Any failure makes the run exit non-zero.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

RTOL = 1e-9  # the experiment harness's cross-layer tolerance


@dataclass
class GateResult:
    attempted: int = 0
    failed: int = 0
    reasons: Counter = field(default_factory=Counter)

    def add(self, other: "GateResult") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.reasons.update(other.reasons)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def check_windows(
    got: Iterable[tuple[int, Sequence[float]]],
    reference: np.ndarray,
    first_w: int,
    *,
    compare: "np.ndarray | None" = None,
) -> GateResult:
    """Gate one run's windows.

    ``got`` holds ``(w, estimates)`` pairs in any order; window ``w``
    should appear once for each row ``w - first_w`` of ``reference``
    (shape ``(windows, phis)``). ``compare`` masks the phis whose
    estimates must match the reference; the others need only be finite.
    """
    reference = np.asarray(reference, dtype=np.float64)
    n_windows, n_phis = reference.shape
    mask = np.ones(n_phis, dtype=bool) if compare is None else np.asarray(compare, dtype=bool)
    res = GateResult(attempted=n_windows)
    seen: dict[int, np.ndarray] = {}
    for w, est in got:
        w = int(w)
        i = w - first_w
        if not (0 <= i < n_windows) or w in seen:
            res.failed += 1
            res.reasons["extra"] += 1
            continue
        seen[w] = np.asarray(est, dtype=np.float64)
    for i in range(n_windows):
        est = seen.get(first_w + i)
        if est is None:
            res.failed += 1
            res.reasons["missing"] += 1
        elif est.shape != (n_phis,) or not np.all(np.isfinite(est)):
            res.failed += 1
            res.reasons["non_finite"] += 1
        elif not np.allclose(est[mask], reference[i, mask], rtol=RTOL, atol=0.0):
            res.failed += 1
            res.reasons["off_reference"] += 1
    return res


def matrix_windows(estimates: np.ndarray, first_w: int) -> list[tuple[int, np.ndarray]]:
    """Kernel estimates matrix -> ``(w, estimates)`` pairs."""
    return [(first_w + i, row) for i, row in enumerate(np.asarray(estimates))]


def mean_of_subwindow_quantiles(
    quantized: np.ndarray, size: int, period: int, phis: Sequence[float]
) -> np.ndarray:
    """Independent Level-1/Level-2 reference: exact per-sub-window quantiles
    (rank ``ceil(phi * P)`` of each sorted sub-window) averaged over every
    window of ``size / period`` consecutive sub-windows."""
    n_sub = len(quantized) // period
    subs = np.sort(np.asarray(quantized[: n_sub * period]).reshape(n_sub, period), axis=1)
    idx = [min(max(1, math.ceil(p * period)), period) - 1 for p in phis]
    q = subs[:, idx]
    n = size // period
    windows = np.lib.stride_tricks.sliding_window_view(q, n, axis=0)
    return windows.mean(axis=-1)


def rows_matrix(rows: Iterable[tuple[int, Sequence[float]]], n_windows: int, first_w: int) -> np.ndarray:
    """``(w, estimates)`` pairs of a gated run (each window once) -> matrix."""
    by_w = {int(w): est for w, est in rows}
    return np.array([by_w[first_w + i] for i in range(n_windows)], dtype=np.float64)


def value_errors(estimates: np.ndarray, exact: np.ndarray, phis: Sequence[float]) -> dict:
    """Mean relative value error at Q0.5 and Q0.999, in percent (Section
    5.1), over every window scored."""
    estimates = np.asarray(estimates, dtype=np.float64)
    exact = np.asarray(exact, dtype=np.float64)
    if estimates.shape != exact.shape:
        raise ValueError(f"estimates {estimates.shape} vs exact {exact.shape}")
    err = np.mean(np.abs(estimates - exact) / np.abs(exact), axis=0) * 100.0
    phis = list(phis)
    return {
        "value_err_q50_pct": float(err[phis.index(0.5)]),
        "value_err_q999_pct": float(err[phis.index(0.999)]),
    }
