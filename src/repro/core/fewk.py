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
    ``alpha = k_s / K`` (every ``i``-th ranked value, ``i = round(K / k_s)``).

Merging (window level):
  - top-k: the K-th largest of all in-window top-k caches.
  - sample-k: the ceil(alpha*K)-th largest of all in-window samples (rank
    scaled down by the sampling fraction).

Level 2 does not re-merge the window on every slide. Cached values are
quantized (Section 3.1) and heavily tied, so the answer rarely moves from
one window to the next. For each cache kind of each phi, a
:class:`TailCounts` keeps the last answer ``g`` and the window's count of
cached values, of those ``<= g`` and of those ``== g``; a slide recounts
only the entering and the leaving cache, in O(k). While the new rank still
lands among the values equal to ``g`` the answer is ``g`` and no cache is
read; otherwise the caches are read from the window's summaries, merged
once, and the selection starts from ``g``. The selected float is the one a
full selection gives, so estimates do not change. Level 2
(:class:`~repro.core.qlove.SlidingMerge`) holds these counts beside its
summaries, and :func:`topk_merge` / :func:`samplek_merge` without them do
the full selection.

The experiment tables parameterize both by a *fraction* ``f`` of the exact
guarantee: ``k_t = ceil(f*K)`` (Table 3) or ``k_s = ceil(f*K)`` (Table 4);
:meth:`FewKConfig.from_fraction` builds those configurations.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.core.quantile import kth_largest_count

__all__ = [
    "STAT_INEFFICIENCY_THRESHOLD",
    "PhiBudget",
    "FewKConfig",
    "TailCounts",
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
    ``i = max(1, round(big_k / k_s))`` starting at rank ``i`` (1-indexed)
    — for ``i=2`` that is "all even ranked values" as in Section 4.2, and
    for ``alpha = 1`` it degenerates to the full top-``big_k`` prefix. The
    result is a new array, so a cached sample never keeps ``ranked_desc``
    alive.
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
    return prefix[i - 1 :: i][:k_s].copy()


def _kth_largest(values: np.ndarray, rank: int, pivot: float | None = None) -> float:
    """The ``rank``-th largest (1-based) of ``values``, by selection.

    With a ``pivot``, only the values above it or only those below it are
    partitioned, or the pivot itself is the answer; the result is the float
    a full selection gives. "Above" is "not ``<= pivot``", so NaN ranks
    above every number, as in ``np.partition``, and a NaN pivot selects
    over all values.
    """
    if pivot is not None:
        above = values[~(values <= pivot)]
        if rank <= len(above):
            values = above
        else:
            below = values[values < pivot]
            rank -= len(values) - len(below)
            if rank <= 0:
                return float(pivot)
            values = below
    i = len(values) - rank
    return float(np.partition(values, i)[i])


class TailCounts:
    """One few-k cache kind (top-k or sample-k) of one phi over a sliding
    window: the last answer ``g`` and how many in-window cached values
    there are in all (``total``), ``<= g`` (``le``) and ``== g`` (``eq``).
    The caches themselves stay in the window's summaries.
    """

    def __init__(self):
        self.g: float | None = None
        self.total = 0
        self.le = 0
        self.eq = 0

    def count(self, cache: np.ndarray, sign: int) -> None:
        """Count a cache into (``sign=1``) or out of (``-1``) the window, in O(k)."""
        cache = np.asarray(cache, dtype=np.float64)
        self.total += sign * len(cache)
        if self.g is not None:
            self.le += sign * np.count_nonzero(cache <= self.g)
            self.eq += sign * np.count_nonzero(cache == self.g)

    def kth_largest(self, rank: int, caches: "Iterable[np.ndarray]") -> float:
        """The ``rank``-th largest of the in-window ``caches``. ``g`` again
        while the rank lands among the values equal to it (``above < rank
        <= above + eq``), with no cache read; else one merge, a selection
        that starts from ``g``, and the counts rebuilt against the new
        answer."""
        above = self.total - self.le
        if self.g is not None and above < rank <= above + self.eq:
            return self.g
        merged = _merged(caches)
        g = _kth_largest(merged, rank, self.g)
        self.g = g
        self.le = np.count_nonzero(merged <= g)
        self.eq = np.count_nonzero(merged == g)
        return g


def _merged(caches: "Iterable[np.ndarray]") -> np.ndarray:
    return np.concatenate([np.asarray(c, dtype=np.float64) for c in caches])


def _total(caches, tail: TailCounts | None) -> int:
    total = tail.total if tail is not None else sum(len(c) for c in caches)
    if total == 0:
        raise ValueError("a few-k merge needs at least one cached value")
    return total


def _select(caches, rank: int, tail: TailCounts | None) -> float:
    if tail is not None:
        return tail.kth_largest(rank, caches)
    return _kth_largest(_merged(caches), rank)


def topk_merge(
    caches: "Sequence[np.ndarray]", big_k: int, tail: TailCounts | None = None
) -> float:
    """Window answer by top-k merging: K-th largest of all cached values.

    Best effort when fewer than ``big_k`` values were cached in total (small
    fractions): returns the smallest cached value, the closest available
    rank. ``tail``, when given, is the :class:`TailCounts` that counts
    these ``caches``; the answer then comes from its counts, and
    ``caches`` is read only when the answer moves.
    """
    total = _total(caches, tail)
    return _select(caches, min(big_k, total), tail)


def samplek_merge(
    samples: "Sequence[np.ndarray]",
    big_k: int,
    tail: TailCounts | None = None,
    *,
    period: int | None = None,
) -> float:
    """Window answer by sample-k merging (Section 4.2).

    Merges all in-window interval samples and reads the
    ``ceil(alpha * K)``-th largest to factor in the data reduction by
    sampling. Each sample is thinned from the sub-window's top
    ``m = min(K, P)`` values (all ``P`` of them when ``K`` exceeds the
    period ``P``), so ``alpha`` is the *effective* sampled fraction
    ``|merged| / (n * m)`` (the stride rounding in :func:`interval_sample`
    can make it differ slightly from the configured ``k_s / K``) and the
    rank is ``ceil(|merged| * K / (n * m))``, which is ``ceil(|merged| /
    n)`` when ``K <= P``. With ``alpha = 1`` this is the exact K-th
    largest of all candidates. ``period`` is ``P``; None takes ``P >= K``.
    ``tail`` is as in :func:`topk_merge`.
    """
    total = _total(samples, tail)
    drawn = big_k if period is None else min(big_k, period)
    rank = max(1, -(-total * big_k // (len(samples) * drawn)))
    return _select(samples, min(rank, total), tail)
