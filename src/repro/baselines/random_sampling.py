"""Random-lite: sampling-based sliding-window quantiles [Luo et al.,
VLDBJ'16].

The paper's baseline (4): "a state of the art using sampling to bound rank
error with constant probabilities". Reproduced as per-sub-window uniform
random samples (without replacement) merged over the window — the
windowed form of the classic bounded-space sampler: a total budget of
``ceil(c / eps^2)`` sampled elements per window gives rank error
``O(eps)`` with constant probability, split evenly across the ``N/P``
sub-windows so expiry drops one sub-window's sample at a time.

Deterministic in ``seed`` so experiment tables are reproducible.
"""
from __future__ import annotations

import math
from collections import deque
from typing import Sequence

import numpy as np

from repro.streams.windows import PeriodBuffer, WindowSpec

__all__ = ["RandomPolicy"]


class RandomPolicy:
    """Merged per-sub-window uniform samples with probabilistic rank bound."""

    name = "Random"

    def __init__(
        self,
        spec: WindowSpec,
        phis: Sequence[float],
        *,
        epsilon: float = 0.02,
        budget_constant: float = 1.0,
        seed: int = 7,
    ):
        if not (0 < epsilon < 1):
            raise ValueError(f"need 0 < epsilon < 1, got {epsilon}")
        self.spec = spec
        self.phis = tuple(phis)
        self.epsilon = epsilon
        total = math.ceil(budget_constant / epsilon**2)
        self.sample_per_sub = max(1, min(spec.period, math.ceil(total / spec.n_subwindows)))
        self._rng = np.random.default_rng(seed)
        self._samples: deque[np.ndarray] = deque(maxlen=spec.n_subwindows)
        self._cut = PeriodBuffer(spec.period)

    def observe_chunk(self, values: np.ndarray) -> list[dict[float, float]]:
        return self._cut.feed(values, self._complete_subwindow)

    def _complete_subwindow(self, values: np.ndarray) -> dict[float, float] | None:
        idx = self._rng.choice(len(values), size=self.sample_per_sub, replace=False)
        self._samples.append(np.sort(values[idx]))
        if len(self._samples) < self.spec.n_subwindows:
            return None
        merged = np.sort(np.concatenate(list(self._samples)))
        return {
            p: float(merged[min(max(1, math.ceil(p * len(merged))), len(merged)) - 1])
            for p in self.phis
        }

    def space_observed(self) -> int:
        return sum(len(s) for s in self._samples)

    def space_analytical(self) -> int:
        return self.spec.n_subwindows * self.sample_per_sub
