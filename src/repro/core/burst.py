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
from typing import Iterable

import numpy as np

from repro.core.fewk import FewKConfig
from repro.core.summary import SubWindowSummary

__all__ = ["mann_whitney_u", "BurstDetector", "MannWhitneyResult", "flag_bursts"]

# Normal-approximation one-sided critical values for common alphas.
_Z = {0.10: 1.2816, 0.05: 1.6449, 0.025: 1.9600, 0.01: 2.3263, 0.005: 2.5758}


@dataclass(frozen=True)
class MannWhitneyResult:
    """U statistic of the first sample, z-score, and one-sided decision."""

    u: float
    z: float
    greater: bool


def _midranks(pooled: np.ndarray) -> np.ndarray:
    """Midranks of ``pooled`` (average rank over ties), 1-indexed."""
    order = np.argsort(pooled, kind="mergesort")
    ranks = np.empty(len(pooled), dtype=np.float64)
    sorted_vals = pooled[order]
    i = 0
    while i < len(sorted_vals):
        j = i
        while j + 1 < len(sorted_vals) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def mann_whitney_u(x: np.ndarray, y: np.ndarray, alpha: float = 0.01) -> MannWhitneyResult:
    """One-sided Mann-Whitney U test of H1: ``x`` stochastically larger than ``y``.

    Returns the U statistic for ``x``, the tie-corrected normal z-score, and
    ``greater=True`` when H0 is rejected at level ``alpha``.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n1, n2 = len(x), len(y)
    if n1 == 0 or n2 == 0:
        return MannWhitneyResult(u=0.0, z=0.0, greater=False)
    pooled = np.concatenate([x, y])
    ranks = _midranks(pooled)
    r1 = ranks[:n1].sum()
    u = r1 - n1 * (n1 + 1) / 2.0
    mean_u = n1 * n2 / 2.0
    n = n1 + n2
    # Tie correction: sum over tie groups of (t^3 - t).
    _, counts = np.unique(pooled, return_counts=True)
    tie_term = float(((counts.astype(np.float64) ** 3) - counts).sum())
    var_u = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1))) if n > 1 else 0.0
    if var_u <= 0:
        return MannWhitneyResult(u=u, z=0.0, greater=False)
    z = (u - mean_u) / np.sqrt(var_u)
    z_crit = _Z.get(alpha)
    if z_crit is None:
        raise ValueError(f"unsupported alpha {alpha}; choose from {sorted(_Z)}")
    return MannWhitneyResult(u=u, z=float(z), greater=bool(z > z_crit))


class BurstDetector:
    """Flags a sub-window whose sampled tail is stochastically larger than
    its predecessor's (Section 4.3).

    Stateless across streams apart from the previous sub-window's samples.
    """

    def __init__(self, alpha: float = 0.01):
        self.alpha = alpha
        self._prev: np.ndarray | None = None

    def observe(self, samples: np.ndarray) -> bool:
        """Feed the current sub-window's tail samples; return burst flag."""
        samples = np.asarray(samples, dtype=np.float64)
        prev, self._prev = self._prev, samples
        if prev is None or len(prev) == 0 or len(samples) == 0:
            return False
        return mann_whitney_u(samples, prev, alpha=self.alpha).greater


def flag_bursts(
    summaries: Iterable[SubWindowSummary], fewk: FewKConfig, alpha: float
) -> list[SubWindowSummary]:
    """Run one :class:`BurstDetector` over ``summaries`` in ``sub_id`` order.

    Sets each summary's ``bursty`` flag from the samples of
    ``fewk.burst_phi`` and returns the summaries in ``sub_id`` order. The
    first summary only primes the detector, so its flag is always False;
    without a sampled budget every flag stays as it was.
    """
    ordered = sorted(summaries, key=lambda s: s.sub_id)
    phi = fewk.burst_phi
    if phi is not None:
        detector = BurstDetector(alpha=alpha)
        for s in ordered:
            s.bursty = detector.observe(s.sample_k.get(phi, np.empty(0)))
    return ordered
