"""The QLOVE incremental operator (Sections 3-4).

Two-level hierarchical processing over a sliding window of ``N`` elements
with period ``P`` (Figure 2):

  - **Level 1** (tumbling): :class:`~repro.core.subwindow.SubWindowBuilder`
    accumulates the in-flight sub-window into a frequency-compressed state
    and, at each period boundary, emits a tiny
    :class:`~repro.core.summary.SubWindowSummary` (exact sub-window
    quantiles + optional few-k tail caches). No per-element deaccumulation.
  - **Level 2** (sliding): :class:`SlidingMerge` keeps the last ``n = N/P``
    summaries and incrementally maintains per-phi running sums, so each
    slide deaccumulates *one summary* (two adds + a division per quantile,
    the paper's "static cost"), and runs the burst test on the newcomer.

Few-k merging (Section 4) overrides the Level-2 mean per quantile: sample-k
when a burst was detected inside the window, else top-k when the quantile is
statistically inefficient at this period (``P*(1-phi) < T_s``).

:class:`SlidingMerge` is the one Level 2 of the kernel, the Spark few-k
driver merge and the streaming handler: each feeds it the same summaries in
``sub_id`` order, so their window estimates are bit-identical. Only the
plain (no few-k) Spark path sums in SQL and agrees to ``rtol=1e-12``.
"""
from __future__ import annotations

from collections import deque
from typing import Sequence

import numpy as np

from repro.core.burst import BurstDetector
from repro.core.fewk import FewKConfig, samplek_merge, topk_merge
from repro.core.subwindow import SubWindowBuilder
from repro.core.summary import SubWindowSummary
from repro.streams.windows import PeriodBuffer, WindowSpec

__all__ = ["QloveOperator", "SlidingMerge", "window_result"]


def window_result(
    summaries: Sequence[SubWindowSummary],
    phis: Sequence[float],
    fewk: FewKConfig,
    *,
    means: np.ndarray | None = None,
) -> dict[float, float]:
    """Level-2 ComputeResult + few-k outcome selection (Section 4.3) for one
    window's worth of summaries.

    :class:`SlidingMerge` passes its running-sum ``means``; without them
    the means are recomputed from the summaries. Per quantile: sample-k
    result if any member sub-window was flagged bursty, else top-k when
    enabled (statistical inefficiency), else the plain Level-2 mean. With
    no few-k budget and ``means`` given, ``summaries`` is never read, so a
    plain slide costs O(l) whatever the window's ``n``.
    """
    if means is None:
        means = np.mean([s.quantiles for s in summaries], axis=0)
    if not fewk.budgets:
        return dict(zip(phis, means.tolist()))
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


class SlidingMerge:
    """Level 2 (sliding) of Figure 2: merges sub-window summaries into
    window estimates, one slide per summary.

    Holds the last ``n`` summaries, their per-phi running sums, their
    stored-variable count and the burst detector. Summaries must arrive in
    ``sub_id`` order starting at 0; ``next_sub_id`` is the one expected.
    """

    def __init__(
        self,
        spec: WindowSpec,
        phis: Sequence[float],
        fewk: FewKConfig,
        burst_alpha: float = 0.01,
    ):
        self.n = spec.n_subwindows
        self.phis = tuple(phis)
        self.fewk = fewk
        self.summaries: deque[SubWindowSummary] = deque(maxlen=self.n)
        # One running sum per phi (the paper's l instances of the average
        # operator's {sum, count}).
        self.sums = np.zeros(len(self.phis), dtype=np.float64)
        # Stored-variable count of the retained summaries, updated on
        # append/expire so the kernel's space_observed() is O(1): the runner
        # polls it per evaluation, and an O(n) walk would distort throughput
        # at large windows (n = 1000 sub-windows at a 1M/1K query).
        self.space = 0
        self.next_sub_id = 0
        self._burst_phi = fewk.burst_phi
        self._detector = BurstDetector(alpha=burst_alpha)

    def push(self, summary: SubWindowSummary) -> dict[float, float] | None:
        """Slide by one sub-window; returns ``{phi: estimate}`` for the
        window ending at ``summary`` once ``n`` summaries are in, else None."""
        if summary.sub_id != self.next_sub_id:
            raise ValueError(
                f"expected sub-window {self.next_sub_id}, got {summary.sub_id}"
            )
        self.next_sub_id += 1
        if self._burst_phi is not None:
            summary.bursty = self._detector.observe(
                summary.sample_k.get(self._burst_phi, np.empty(0))
            )
        if len(self.summaries) == self.n:
            expired = self.summaries[0]
            self.sums -= expired.quantiles  # Level-2 Deaccumulate
            self.space -= expired.space()
        self.summaries.append(summary)
        self.sums += summary.quantiles  # Level-2 Accumulate
        self.space += summary.space()
        if len(self.summaries) < self.n:
            return None  # window not yet full
        return window_result(
            self.summaries, self.phis, self.fewk, means=self.sums / self.n
        )


class QloveOperator:
    """QLOVE sliding-window quantile estimator.

    Drive it per chunk of any length (:meth:`observe_chunk`): a
    :class:`~repro.streams.windows.PeriodBuffer` cuts the periods, a
    :class:`SubWindowBuilder` summarizes each completed sub-window and a
    :class:`SlidingMerge` turns the summaries into window estimates.
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
        self._merge = SlidingMerge(spec, self.phis, self.fewk, burst_alpha)
        self._cut = PeriodBuffer(spec.period)

    def observe_chunk(self, values: np.ndarray) -> list[dict[float, float]]:
        """Accumulate a batch (any length); returns estimates for every
        period boundary the batch crossed."""
        return self._cut.feed(values, self._complete_subwindow)

    def _complete_subwindow(self, values: np.ndarray) -> dict[float, float] | None:
        self._builder.accumulate_chunk(values)
        return self._merge.push(self._builder.finalize())

    def space_observed(self) -> int:
        """Stored-variable count (the paper's space metric): retained
        summaries + the Level-1 frequency state. The runner polls at
        evaluation instants, where the sub-window has just been finalized,
        so the state's steady-state size is taken as the unique count of
        the most recently completed sub-window."""
        return self._merge.space + self._builder.last_unique

    def space_analytical(self) -> int:
        """The paper's analytical bound ``l*(N/P) + O(P)`` (Section 3.2),
        plus the configured few-k budget ``(k_t + k_s) * N/P``."""
        n = self.spec.n_subwindows
        fewk = sum((b.k_t + b.k_s) * n for b in self.fewk.budgets)
        return len(self.phis) * n + self.spec.period + fewk
