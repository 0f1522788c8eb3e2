"""Exact sliding-window quantiles with per-element deaccumulation.

The paper's baseline (1) in Section 5.1: Algorithm 1 extended with a
deaccumulation logic — "the node representing the expired element's value
decrements its frequency by one, and is deleted from the red-black tree if
the frequency becomes zero". Here the ordered tree is a hash map
``{value -> count}`` sorted once per ComputeResult; per-slide costs are the
same shape (accumulate P new elements, deaccumulate P expired elements,
sort all unique window values per evaluation), which is what degrades with
window size in the paper's Figure 5.

Accumulation is chunk-vectorized (Trill's columnar batches amortize the
insert side for every policy), but deaccumulation is deliberately
per-element: the paper attributes Exact's scalability collapse precisely
to "paying deaccumulation cost to search and eliminate the oldest [P]
elements from the tree state for every windowing period" (Figure 5
analysis), and batch-discarding the expired state wholesale is exactly the
optimization that distinguishes QLOVE — an Exact that did the same would
no longer be the paper's baseline.
"""
from __future__ import annotations

from collections import deque
from typing import Sequence

import numpy as np

from repro.core.compression import quantize_sig
from repro.core.quantile import exact_quantiles_freq
from repro.streams.windows import PeriodBuffer, WindowSpec

__all__ = ["ExactPolicy"]


class ExactPolicy:
    """Exact sliding-window quantiles over a frequency-compressed state."""

    name = "Exact"

    def __init__(
        self,
        spec: WindowSpec,
        phis: Sequence[float],
        *,
        sig_digits: int | None = None,
    ):
        self.spec = spec
        self.phis = tuple(phis)
        self.sig_digits = sig_digits
        self._freq: dict[float, int] = {}
        self._count = 0
        # Raw composition of each live sub-window, for per-element expiry.
        self._chunks: deque[np.ndarray] = deque()
        self._cut = PeriodBuffer(spec.period)

    def observe_chunk(self, values: np.ndarray) -> list[dict[float, float]]:
        return self._cut.feed(values, self._complete_subwindow)

    def _complete_subwindow(self, chunk: np.ndarray) -> dict[float, float] | None:
        if self.sig_digits is not None:
            chunk = quantize_sig(chunk, self.sig_digits)
        else:
            chunk = chunk.copy()  # kept until expiry; may view the caller's input
        uniq, counts = np.unique(chunk, return_counts=True)
        freq = self._freq
        for v, c in zip(uniq.tolist(), counts.tolist()):  # Accumulate
            freq[v] = freq.get(v, 0) + c
        self._count += len(chunk)
        self._chunks.append(chunk)
        if self._count > self.spec.size:
            # Deaccumulate each expired element: decrement its node, delete
            # it when the frequency reaches zero (Section 5.1, policy (1)).
            expired = self._chunks.popleft()
            for v in expired.tolist():
                left = freq[v] - 1
                if left:
                    freq[v] = left
                else:
                    del freq[v]
            self._count -= len(expired)
        if self._count < self.spec.size:
            return None
        return self._compute_result()

    def _compute_result(self) -> dict[float, float]:
        uniq = np.fromiter(self._freq.keys(), dtype=np.float64, count=len(self._freq))
        counts = np.fromiter(self._freq.values(), dtype=np.int64, count=len(self._freq))
        order = np.argsort(uniq)
        q = exact_quantiles_freq(uniq[order], counts[order], self.phis)
        return dict(zip(self.phis, q.tolist()))

    def space_observed(self) -> int:
        """Window state: unique values with their counts (the paper's Exact
        tracks expiry via event timestamps the engine supplies, so only the
        tree state counts as operator memory)."""
        return 2 * len(self._freq)
