"""Few-k merging (Section 4): top-k and sample-k caching of tail values.

Budgeting (Section 4.2): the exact answer for the phi-quantile over a
window of ``N`` needs each sub-window to return ``K = N - ceil(phi*N) + 1``
largest elements (the paper writes ``N(1-phi)``). Under a space budget
``B < K * (N/P)``, each sub-window gets ``k = B/(N/P)`` values, split as
``k = k_t + k_s``:

  - ``k_t`` (top-k merging, statistical inefficiency): the paper sets
    ``k_t = P*(1-phi)`` — the per-sub-window share of K assuming the evenly
    spread pattern E4 — exactly ``kth_largest_count(phi, P)`` scaled to the
    sub-window. Enabled per-quantile only when ``P*(1-phi) < T_s`` (=10).
  - ``k_s`` (sample-k merging, bursty traffic): the remaining budget, spent
    on interval samples of the sub-window's top-K values at fraction
    ``alpha = k_s / K`` (every ``i``-th ranked value, ``i ~ 1/alpha``).

Merging (window level):
  - top-k: concatenate all in-window top-k caches, answer = K-th largest.
  - sample-k: concatenate all in-window samples, answer = ceil(alpha*K)-th
    largest (rank scaled down by the sampling fraction).

The experiment tables parameterize both by a *fraction* ``f`` of the exact
guarantee: ``k_t = ceil(f*K)`` (Table 3) or ``k_s = ceil(f*K)`` (Table 4);
:meth:`FewKConfig.from_fraction` builds those configurations.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.quantile import kth_largest_count

__all__ = [
    "STAT_INEFFICIENCY_THRESHOLD",
    "PhiBudget",
    "FewKConfig",
    "topk_merge",
    "samplek_merge",
    "interval_sample",
]

# T_s in Section 4.3: top-k merging turns on for a quantile when the
# sub-window contributes fewer than this many tail data points.
STAT_INEFFICIENCY_THRESHOLD = 10


@dataclass(frozen=True)
class PhiBudget:
    """Per-quantile few-k budget.

    Attributes:
        phi: the target (high) quantile.
        big_k: ``K = N - ceil(phi*N) + 1``, the exact-guarantee cache size.
        k_t: per-sub-window top-k cache size (0 disables top-k merging).
        k_s: per-sub-window sample count (0 disables sample-k merging).
    """

    phi: float
    big_k: int
    k_t: int
    k_s: int

    @property
    def alpha(self) -> float:
        """Sampling fraction ``k_s / K`` of sample-k merging."""
        return self.k_s / self.big_k if self.big_k else 0.0


@dataclass(frozen=True)
class FewKConfig:
    """Few-k configuration for a window spec: one :class:`PhiBudget` per phi."""

    budgets: tuple[PhiBudget, ...] = field(default_factory=tuple)

    def budget_for(self, phi: float) -> PhiBudget | None:
        for b in self.budgets:
            if b.phi == phi:
                return b
        return None

    @property
    def max_tail(self) -> int:
        """Largest raw-tail prefix any budget needs from a sub-window."""
        m = 0
        for b in self.budgets:
            m = max(m, b.k_t, b.big_k if b.k_s > 0 else 0)
        return m

    @property
    def burst_phi(self) -> float | None:
        """The phi whose interval samples feed the burst test (Section 4.3):
        the highest phi that keeps samples, or None when none does."""
        return max((b.phi for b in self.budgets if b.k_s > 0), default=None)

    @staticmethod
    def from_fraction(
        *,
        window_size: int,
        period: int,
        phis: "list[float] | tuple[float, ...]",
        top_fraction: float = 0.0,
        sample_fraction: float = 0.0,
        auto_topk: bool = False,
    ) -> "FewKConfig":
        """Build budgets from fractions of the exact-guarantee cache size.

        ``top_fraction`` / ``sample_fraction`` give ``k_t = ceil(f*K)`` and
        ``k_s = ceil(f*K)`` for every phi in ``phis``. With ``auto_topk``,
        the paper's runtime rule applies instead of ``top_fraction``: top-k
        is enabled at ``k_t = kth_largest_count(phi, period)`` only for
        quantiles with ``P*(1-phi) < T_s``.
        """
        budgets = []
        for phi in phis:
            big_k = kth_largest_count(phi, window_size)
            if auto_topk:
                tail_pts = period * (1.0 - phi)
                k_t = kth_largest_count(phi, period) if tail_pts < STAT_INEFFICIENCY_THRESHOLD else 0
            else:
                k_t = math.ceil(top_fraction * big_k) if top_fraction > 0 else 0
            k_s = math.ceil(sample_fraction * big_k) if sample_fraction > 0 else 0
            k_t = min(k_t, big_k)
            k_s = min(k_s, big_k)
            if k_t or k_s:
                budgets.append(PhiBudget(phi=phi, big_k=big_k, k_t=k_t, k_s=k_s))
        return FewKConfig(budgets=tuple(budgets))


def interval_sample(ranked_desc: np.ndarray, k_s: int, big_k: int) -> np.ndarray:
    """Interval-sample ``k_s`` of the top-``big_k`` ranked values.

    ``ranked_desc`` holds a sub-window's values sorted descending (at least
    the top-``big_k`` prefix). Picks every ``i``-th ranked value with
    ``i = floor(big_k / k_s)`` starting at rank ``i`` (1-indexed) — for
    ``i=2`` that is "all even ranked values" as in Section 4.2, and for
    ``alpha = 1`` it degenerates to the full top-``big_k`` prefix.
    """
    if k_s <= 0 or big_k <= 0:
        return np.empty(0, dtype=np.float64)
    prefix = np.asarray(ranked_desc, dtype=np.float64)[:big_k]
    if k_s >= len(prefix):
        return prefix.copy()
    # Rounded stride: taking the top-k_s consecutively (floor would give
    # i=1 whenever k_s > big_k/2) is not interval sampling and biases the
    # merged estimate upward; ranks i, 2i, 3i, ... keep the thinning even.
    i = max(1, round(big_k / k_s))
    return prefix[i - 1 :: i][:k_s]


def topk_merge(caches: "list[np.ndarray]", big_k: int) -> float:
    """Window answer by top-k merging: K-th largest of all cached values.

    Best effort when fewer than ``big_k`` values were cached in total (small
    fractions): returns the smallest cached value, the closest available
    rank.
    """
    merged = np.concatenate([np.asarray(c, dtype=np.float64) for c in caches]) if caches else np.empty(0)
    if merged.size == 0:
        raise ValueError("topk_merge needs at least one cached value")
    merged = np.sort(merged)[::-1]
    return float(merged[min(big_k, len(merged)) - 1])


def samplek_merge(samples: "list[np.ndarray]", big_k: int) -> float:
    """Window answer by sample-k merging (Section 4.2).

    Merges all in-window interval samples and reads the
    ``ceil(alpha * K)``-th largest to factor in the data reduction by
    sampling. ``alpha`` is the *effective* sampled fraction
    ``|merged| / (n * K)`` (the stride rounding in
    :func:`interval_sample` can make it differ slightly from the
    configured ``k_s / K``), so the scaled rank simplifies to
    ``ceil(|merged| / n)``. With ``alpha = 1`` this is the exact K-th
    largest of all candidates.
    """
    if not samples:
        raise ValueError("samplek_merge needs at least one sampled value")
    merged = np.concatenate([np.asarray(s, dtype=np.float64) for s in samples])
    if merged.size == 0:
        raise ValueError("samplek_merge needs at least one sampled value")
    merged = np.sort(merged)[::-1]
    rank = max(1, math.ceil(len(merged) / len(samples)))
    return float(merged[min(rank, len(merged)) - 1])
