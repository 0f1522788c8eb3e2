"""Equally-spaced-order-statistic (EOS) weighted quantile summaries.

The mergeable building block for the CMQS-lite and AM-lite baselines
(DESIGN.md section 4). A summary of a weight-``W`` population compressed to
capacity ``c`` keeps the values at cumulative-weight targets
``(j + 0.5) * W / c``; each stored point carries weight ``W/c``. This is
the classic deterministic epsilon-summary: within one summary the rank of
any value is off by at most ``W / (2c)``, and summaries merge by weighted
concatenation (errors add across merged summaries).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["WeightedSummary"]


@dataclass(frozen=True)
class WeightedSummary:
    """Ascending values with positive weights; total weight = population size."""

    values: np.ndarray
    weights: np.ndarray

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())

    @property
    def size(self) -> int:
        """Stored-variable count (values + weights)."""
        return 2 * len(self.values)

    @staticmethod
    def from_values(values: np.ndarray, capacity: int) -> "WeightedSummary":
        """Summarize raw (unweighted) values at the given capacity."""
        v = np.sort(np.asarray(values, dtype=np.float64))
        w = np.ones(len(v), dtype=np.float64)
        return WeightedSummary(v, w).compress(capacity)

    def compress(self, capacity: int) -> "WeightedSummary":
        """Re-compress to at most ``capacity`` points at equally spaced
        cumulative-weight targets."""
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if len(self.values) <= capacity:
            return self
        total = self.total_weight
        cum = np.cumsum(self.weights)
        targets = (np.arange(capacity) + 0.5) * total / capacity
        idx = np.searchsorted(cum, targets, side="left")
        idx = np.minimum(idx, len(self.values) - 1)
        vals = self.values[idx]
        weights = np.full(capacity, total / capacity, dtype=np.float64)
        return WeightedSummary(vals, weights)

    @staticmethod
    def merge(parts: "list[WeightedSummary]") -> "WeightedSummary":
        """Weighted concatenation of summaries (values kept sorted)."""
        if not parts:
            raise ValueError("merge needs at least one summary")
        vals = np.concatenate([p.values for p in parts])
        weights = np.concatenate([p.weights for p in parts])
        order = np.argsort(vals, kind="mergesort")
        return WeightedSummary(vals[order], weights[order])

    def query(self, phi: float) -> float:
        """phi-quantile under the paper's rank convention: the stored value
        whose *bucket midpoint* is nearest to ``ceil(phi * W)``.

        Each stored point summarizes a bucket of ``w`` ranks and sits (by
        construction in :meth:`compress`) at the bucket's middle, so rank
        lookups compare against ``cum - w/2``. Comparing against the
        bucket *end* instead would bias every lookup half a bucket low —
        a systematic error that adds coherently across merged summaries.

        Taking the nearest midpoint (not the first one at or above the
        target) keeps the lookup's own discretization within ``w/2``, so a
        merge of ``n`` summaries of weight ``W`` at capacity ``c`` stays
        within ``n * W / (2c)`` ranks: ``W/(2c)`` from each of the other
        ``n - 1`` summaries plus ``W/(2c)`` for the lookup. Rounding up
        instead can cost a whole bucket, ``W/c``.
        """
        total = self.total_weight
        rank = min(max(1.0, math.ceil(phi * total)), total)
        mid = np.cumsum(self.weights) - self.weights / 2.0
        # rank - 0.5 keeps the unweighted case exact: unit-weight midpoints
        # sit at i - 0.5, so the element of rank r has its midpoint exactly
        # at r - 0.5.
        target = rank - 0.5
        idx = int(np.searchsorted(mid, target - 1e-9, side="left"))
        idx = min(idx, len(self.values) - 1)
        if idx > 0 and target - mid[idx - 1] < mid[idx] - target:
            idx -= 1
        return float(self.values[idx])
