"""CMQS-lite: Continuously Maintaining Quantile Summaries [Lin et al., ICDE'04].

Structure reproduced from the paper's own description of CMQS in Section
5.2: "each sub-window creates a data structure, namely a sketch, and all
active sketches are combined to compute approximate quantiles over a
sliding window. The capacity of each sub-window is floor(eps*P/2) to ensure
the rank error bound by eps-approximation."

``floor(eps * P / 2)`` is the sketch's *rank spacing*: one order statistic
is retained per ``eps*P/2`` elements, i.e. ``ceil(2/eps)`` stored points
per sub-window (per-sketch rank error ``eps*P/4``; summed over the
``n = N/P`` in-window sketches that stays within ``eps*N/4 < eps*N``).
Each per-sub-window sketch is an equally-spaced-order-statistic
:class:`~repro.baselines.eos.WeightedSummary` at that size; querying
merges the in-window sketches by weighted rank selection. Deterministic
rank bound, with the trade-off the paper measures in Figure 4: smaller
eps means bigger sketches and slower merges.
"""
from __future__ import annotations

import math
from collections import deque
from typing import Sequence

import numpy as np

from repro.baselines.eos import WeightedSummary
from repro.streams.windows import PeriodBuffer, WindowSpec

__all__ = ["CmqsPolicy"]


class CmqsPolicy:
    """Per-sub-window eps-sketches merged over the sliding window."""

    name = "CMQS"

    def __init__(self, spec: WindowSpec, phis: Sequence[float], *, epsilon: float = 0.02):
        if not (0 < epsilon < 1):
            raise ValueError(f"need 0 < epsilon < 1, got {epsilon}")
        self.spec = spec
        self.phis = tuple(phis)
        self.epsilon = epsilon
        # Points per sketch: one per eps*P/2 elements of the sub-window,
        # capped at the sub-window size itself.
        self.capacity = min(spec.period, max(1, math.ceil(2.0 / epsilon)))
        self._sketches: deque[WeightedSummary] = deque(maxlen=spec.n_subwindows)
        self._cut = PeriodBuffer(spec.period)

    def observe_chunk(self, values: np.ndarray) -> list[dict[float, float]]:
        return self._cut.feed(values, self._complete_subwindow)

    def _complete_subwindow(self, values: np.ndarray) -> dict[float, float] | None:
        self._sketches.append(WeightedSummary.from_values(values, self.capacity))
        if len(self._sketches) < self.spec.n_subwindows:
            return None
        merged = WeightedSummary.merge(list(self._sketches))
        return {p: merged.query(p) for p in self.phis}

    def space_observed(self) -> int:
        return sum(s.size for s in self._sketches)

    def space_analytical(self) -> int:
        """``(N/P) * ceil(2/eps)`` stored points, two variables each."""
        return self.spec.n_subwindows * self.capacity * 2
