"""AM-lite: Arasu-Manku sliding-window quantile summaries [PODS'04].

The structural idea of Arasu & Manku reproduced over sub-window blocks: a
multi-resolution family of dyadic *levels*. Level ``l`` summarizes aligned
blocks of ``2^l`` consecutive sub-windows at ``ceil(8/eps)`` stored points
(rank spacing ``eps * W / 8`` for block weight ``W`` — constant relative
precision per level, built by merging+compressing the two child blocks;
the worst-case rank error of a query cover is ``sum_b eps*W_b/16 =
eps*N/16``). A query covers
the window's sub-window range greedily with the coarsest completed aligned
blocks (O(log n) blocks instead of CMQS's n), so fewer summary errors
accumulate — lower error than CMQS at the price of more total space,
matching their ordering in the paper's Table 1.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.baselines.eos import WeightedSummary
from repro.streams.windows import PeriodBuffer, WindowSpec

__all__ = ["AmPolicy"]


class AmPolicy:
    """Dyadic multi-level sliding-window quantile summaries."""

    name = "AM"

    def __init__(self, spec: WindowSpec, phis: Sequence[float], *, epsilon: float = 0.02):
        if not (0 < epsilon < 1):
            raise ValueError(f"need 0 < epsilon < 1, got {epsilon}")
        self.spec = spec
        self.phis = tuple(phis)
        self.epsilon = epsilon
        self.n_levels = max(1, int(math.floor(math.log2(spec.n_subwindows))) + 1)
        # blocks[(level, block_index)] -> summary of sub-windows
        # [block_index * 2^level, (block_index + 1) * 2^level)
        self._blocks: dict[tuple[int, int], WeightedSummary] = {}
        self._next_sub = 0
        self._cut = PeriodBuffer(spec.period)

    def _capacity(self, level: int) -> int:
        return min(self.spec.period * 2**level, max(1, math.ceil(8.0 / self.epsilon)))

    def observe_chunk(self, values: np.ndarray) -> list[dict[float, float]]:
        return self._cut.feed(values, self._complete_subwindow)

    def _complete_subwindow(self, chunk: np.ndarray) -> dict[float, float] | None:
        s = self._next_sub
        self._blocks[(0, s)] = WeightedSummary.from_values(chunk, self._capacity(0))
        # Roll up every level whose aligned block just completed.
        for level in range(1, self.n_levels):
            width = 2**level
            if (s + 1) % width != 0:
                break
            b = s // width
            left = self._blocks.get((level - 1, 2 * b))
            right = self._blocks.get((level - 1, 2 * b + 1))
            if left is None or right is None:
                break
            self._blocks[(level, b)] = WeightedSummary.merge([left, right]).compress(
                self._capacity(level)
            )
        self._next_sub += 1
        self._expire()
        return self._maybe_query()

    def _expire(self) -> None:
        """Drop blocks that can never intersect a future window."""
        oldest_live = self._next_sub - self.spec.n_subwindows  # next window's first sub
        for (level, b) in [k for k in self._blocks]:
            if (b + 1) * (2**level) - 1 < oldest_live:
                del self._blocks[(level, b)]

    def _cover(self, lo: int, hi: int) -> list[WeightedSummary]:
        """Greedy coarsest-aligned dyadic cover of sub-window range [lo, hi]."""
        parts: list[WeightedSummary] = []
        p = lo
        while p <= hi:
            chosen = None
            for level in range(self.n_levels - 1, -1, -1):
                width = 2**level
                if p % width == 0 and p + width - 1 <= hi:
                    block = self._blocks.get((level, p // width))
                    if block is not None:
                        chosen = (block, width)
                        break
            if chosen is None:
                raise RuntimeError(f"no completed block covering sub-window {p}")
            parts.append(chosen[0])
            p += chosen[1]
        return parts

    def _maybe_query(self) -> dict[float, float] | None:
        n = self.spec.n_subwindows
        if self._next_sub < n:
            return None
        merged = WeightedSummary.merge(self._cover(self._next_sub - n, self._next_sub - 1))
        return {p: merged.query(p) for p in self.phis}

    def space_observed(self) -> int:
        return sum(s.size for s in self._blocks.values())

    def space_analytical(self) -> int:
        """All levels fully covering one window: ``sum_l (n/2^l) * c_l`` points,
        two variables each."""
        n = self.spec.n_subwindows
        pts = sum(
            math.ceil(n / 2**level) * self._capacity(level) for level in range(self.n_levels)
        )
        return 2 * pts
