"""The QLOVE incremental operator (Sections 3-4).

Two-level hierarchical processing over a sliding window of ``N`` elements
with period ``P`` (Figure 2):

  - **Level 1** (tumbling): :class:`~repro.core.subwindow.SubWindowBuilder`
    accumulates the in-flight sub-window into a frequency-compressed state
    and, at each period boundary, emits a tiny
    :class:`~repro.core.summary.SubWindowSummary` (exact sub-window
    quantiles + optional few-k tail caches). No per-element deaccumulation.
  - **Level 2** (sliding): keeps the last ``n = N/P`` summaries and
    incrementally maintains per-phi running sums, so each slide
    deaccumulates *one summary* (two adds + a division per quantile, the
    paper's "static cost").

Few-k merging (Section 4) overrides the Level-2 mean per quantile: sample-k
when a burst was detected inside the window, else top-k when the quantile is
statistically inefficient at this period (``P*(1-phi) < T_s``).
"""
from __future__ import annotations

from collections import deque
from typing import Sequence

import numpy as np

from repro.core.burst import BurstDetector
from repro.core.fewk import FewKConfig, samplek_merge, topk_merge
from repro.core.subwindow import SubWindowBuilder
from repro.core.summary import SubWindowSummary
from repro.streams.windows import WindowSpec

__all__ = ["QloveOperator", "window_result"]


def window_result(
    summaries: Sequence[SubWindowSummary],
    phis: Sequence[float],
    fewk: FewKConfig,
    *,
    means: np.ndarray | None = None,
) -> dict[float, float]:
    """Level-2 ComputeResult + few-k outcome selection (Section 4.3) for one
    window's worth of summaries.

    Shared by the incremental operator (which passes its running-sum
    ``means``) and the Spark pipeline's driver-side merge (which lets the
    means be recomputed from the summaries). Per quantile: sample-k result
    if any member sub-window was flagged bursty, else top-k when enabled
    (statistical inefficiency), else the plain Level-2 mean.
    """
    if means is None:
        means = np.mean([s.quantiles for s in summaries], axis=0)
    result: dict[float, float] = {}
    any_burst = any(s.bursty for s in summaries)
    for i, phi in enumerate(phis):
        budget = fewk.budget_for(phi)
        if budget is not None and budget.k_s > 0 and any_burst:
            result[phi] = samplek_merge(
                [s.sample_k[phi] for s in summaries], budget.big_k
            )
        elif budget is not None and budget.k_t > 0:
            result[phi] = topk_merge([s.top_k[phi] for s in summaries], budget.big_k)
        else:
            result[phi] = float(means[i])
    return result


class QloveOperator:
    """QLOVE sliding-window quantile estimator.

    Drive it either per element (:meth:`observe`) or per sub-window chunk
    (:meth:`observe_chunk`); both paths cross the same period boundaries and
    produce identical results. A completed evaluation (window full) is
    returned as ``{phi: estimate}`` from the call that crossed the boundary,
    else ``None``.
    """

    name = "QLOVE"

    def __init__(
        self,
        spec: WindowSpec,
        phis: Sequence[float],
        *,
        sig_digits: int | None = None,
        fewk: FewKConfig | None = None,
        burst_alpha: float = 0.01,
        l1_mode: str = "lazy",
    ):
        self.spec = spec
        self.phis = tuple(phis)
        self.fewk = fewk or FewKConfig()
        self._builder = SubWindowBuilder(
            self.phis, sig_digits=sig_digits, fewk=self.fewk, l1_mode=l1_mode
        )
        self._summaries: deque[SubWindowSummary] = deque(maxlen=spec.n_subwindows)
        # Level-2 incremental state: one running sum per phi (the paper's l
        # instances of the average operator's {sum, count}).
        self._sums = np.zeros(len(self.phis), dtype=np.float64)
        # Running stored-variable count of the retained summaries, updated
        # on append/expire so space_observed() is O(1) — the runner polls
        # it per evaluation, and an O(n) walk would distort throughput at
        # large windows (n = 1000 sub-windows at a 1M/1K query).
        self._summary_space = 0
        self._detector = BurstDetector(alpha=burst_alpha)

    # ------------------------------------------------------------------ #
    def observe(self, value: float) -> dict[float, float] | None:
        """Accumulate one element; returns estimates at period boundaries."""
        self._builder.accumulate(value)
        if self._builder.in_flight_count == self.spec.period:
            return self._complete_subwindow()
        return None

    def observe_chunk(self, values: np.ndarray) -> list[dict[float, float]]:
        """Accumulate a batch (any length); returns estimates for every
        period boundary the batch crossed."""
        values = np.asarray(values, dtype=np.float64)
        out = []
        pos = 0
        while pos < len(values):
            room = self.spec.period - self._builder.in_flight_count
            take = min(room, len(values) - pos)
            self._builder.accumulate_chunk(values[pos : pos + take])
            pos += take
            if self._builder.in_flight_count == self.spec.period:
                res = self._complete_subwindow()
                if res is not None:
                    out.append(res)
        return out

    # ------------------------------------------------------------------ #
    def _complete_subwindow(self) -> dict[float, float] | None:
        summary = self._builder.finalize()
        burst_phi = self.fewk.burst_phi
        if burst_phi is not None:
            summary.bursty = self._detector.observe(summary.sample_k[burst_phi])
        if len(self._summaries) == self._summaries.maxlen:
            expired = self._summaries[0]
            self._sums -= expired.quantiles  # Level-2 Deaccumulate
            self._summary_space -= expired.space()
        self._summaries.append(summary)
        self._sums += summary.quantiles  # Level-2 Accumulate
        self._summary_space += summary.space()
        if len(self._summaries) < self.spec.n_subwindows:
            return None  # window not yet full
        return self._compute_result()

    def _compute_result(self) -> dict[float, float]:
        """Level-2 ComputeResult via the shared selection logic, with the
        means taken from the incremental running sums."""
        means = self._sums / self.spec.n_subwindows
        return window_result(
            list(self._summaries), self.phis, self.fewk, means=means
        )

    # ------------------------------------------------------------------ #
    def space_observed(self) -> int:
        """Stored-variable count (the paper's space metric): retained
        summaries + the Level-1 frequency state. The in-flight state is
        empty exactly at evaluation instants (the sub-window just
        finalized), so its steady-state size is taken as the unique count
        of the most recently completed sub-window."""
        inflight = (
            self._builder.last_unique
            if self._builder.in_flight_count == 0
            else self._builder.in_flight_unique
        )
        return self._summary_space + inflight

    def space_analytical(self) -> int:
        """The paper's analytical bound ``l*(N/P) + O(P)`` (Section 3.2),
        plus the configured few-k budget ``(k_t + k_s) * N/P``."""
        n = self.spec.n_subwindows
        fewk = sum((b.k_t + b.k_s) * n for b in self.fewk.budgets)
        return len(self.phis) * n + self.spec.period + fewk
