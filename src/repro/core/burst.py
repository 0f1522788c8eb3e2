"""Bursty-traffic detection (Section 4.3).

"To detect bursty traffic, we identify if the sampled largest values in the
current sub-window are distributionally different and stochastically larger
than those in the adjacent former sub-window. We use an existing methodology
for it [Mann & Whitney 1947]."

scipy is not available in this container, so the one-sided Mann-Whitney U
test is implemented directly: the U statistic via midranks (tie-aware) and a
normal approximation with tie-corrected variance — the standard large-sample
form of the test, adequate for the sample sizes few-k produces (>= ~8).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.quantile import sorted_runs

__all__ = ["mann_whitney_u", "BurstDetector", "MannWhitneyResult"]

# One-sided normal critical value at significance level alpha = 0.01.
Z_CRIT = 2.3263


@dataclass(frozen=True)
class MannWhitneyResult:
    """U statistic of the first sample, z-score, and one-sided decision."""

    u: float
    z: float
    greater: bool


def mann_whitney_u(x: np.ndarray, y: np.ndarray) -> MannWhitneyResult:
    """One-sided Mann-Whitney U test of H1: ``x`` stochastically larger than ``y``.

    Returns the U statistic for ``x``, the tie-corrected normal z-score, and
    ``greater=True`` when H0 is rejected at level 0.01 (``z > Z_CRIT``).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n1, n2 = len(x), len(y)
    if n1 == 0 or n2 == 0:
        return MannWhitneyResult(u=0.0, z=0.0, greater=False)
    pooled = np.concatenate([x, y])
    order = np.argsort(pooled, kind="mergesort")
    # Tie groups: runs of equal values in sorted order. A group that starts
    # at 0-based position i with t members has the midrank (2i + t + 1) / 2,
    # an exact half, so x's rank sum is exact from its count per group.
    starts, t = sorted_runs(pooled[order])
    nx = np.add.reduceat(order < n1, starts, dtype=np.int64)
    r1 = (nx @ (2 * starts + t + 1)) / 2.0
    u = r1 - n1 * (n1 + 1) / 2.0
    mean_u = n1 * n2 / 2.0
    n = n1 + n2
    # Tie correction: sum over tie groups of (t^3 - t), exact in int64.
    tie_term = float((t * t - 1) @ t)
    var_u = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1))) if n > 1 else 0.0
    if var_u <= 0:
        return MannWhitneyResult(u=u, z=0.0, greater=False)
    z = (u - mean_u) / np.sqrt(var_u)
    return MannWhitneyResult(u=u, z=float(z), greater=bool(z > Z_CRIT))


class BurstDetector:
    """Flags a sub-window whose sampled tail is stochastically larger than
    its predecessor's (Section 4.3).

    Stateless across streams apart from the previous sub-window's samples.
    """

    def __init__(self):
        self._prev: np.ndarray | None = None

    def observe(self, samples: np.ndarray) -> bool:
        """Feed the current sub-window's tail samples; return burst flag."""
        samples = np.asarray(samples, dtype=np.float64)
        prev, self._prev = self._prev, samples
        if prev is None or len(prev) == 0 or len(samples) == 0:
            return False
        return mann_whitney_u(samples, prev).greater
