"""Windowing model (Section 2): tumbling and sliding count-based windows.

A window is defined by ``size`` (N elements) and ``period`` (K/P elements
between query evaluations). ``size == period`` is a tumbling window;
``size > period`` is a sliding window. Like the paper we require the window
size to be a multiple of the period so sub-windows align with periods
(Section 3.1: "the size of each sub-window is aligned with window period").
:class:`PeriodBuffer` is that tumbling cut, shared by QLOVE and every
baseline.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, TypeVar

import numpy as np

__all__ = ["WindowSpec", "PeriodBuffer"]

T = TypeVar("T")


@dataclass(frozen=True)
class WindowSpec:
    """Count-based window: ``size`` elements evaluated every ``period``."""

    size: int
    period: int

    def __post_init__(self) -> None:
        if self.size <= 0 or self.period <= 0:
            raise ValueError(f"size and period must be positive: {self}")
        if self.period > self.size:
            raise ValueError(f"period larger than size: {self}")
        if self.size % self.period != 0:
            raise ValueError(f"size must be a multiple of period: {self}")

    @property
    def n_subwindows(self) -> int:
        """Number of sub-windows per window, ``n = N / P``."""
        return self.size // self.period

    @property
    def is_tumbling(self) -> bool:
        return self.size == self.period

    def n_evaluations(self, stream_len: int) -> int:
        """How many full-window evaluations a stream of this length yields.

        The first evaluation fires when sub-window ``n-1`` completes; one
        more per completed period after that.
        """
        complete_subwindows = stream_len // self.period
        return max(0, complete_subwindows - self.n_subwindows + 1)

    def window_bounds(self, eval_index: int) -> tuple[int, int]:
        """Half-open element range ``[start, stop)`` of the ``eval_index``-th
        evaluation's window (0-based)."""
        stop = (self.n_subwindows + eval_index) * self.period
        return stop - self.size, stop


class PeriodBuffer:
    """Cuts chunks of any length into the stream's consecutive periods.

    Holds the pieces of the in-flight period between :meth:`feed` calls,
    as copies, so a caller may overwrite an array once it is fed.
    """

    def __init__(self, period: int):
        self.period = period
        self._pieces: list[np.ndarray] = []
        self._buffered = 0

    def feed(
        self, values: np.ndarray, complete: Callable[[np.ndarray], T | None]
    ) -> list[T]:
        """Buffer ``values``; call ``complete(period_values)`` for every
        period they finish, in order, and return its non-None results.

        When one piece fills a period, ``complete`` gets a view of
        ``values`` (no copy); a policy that keeps it must copy it.
        """
        values = np.asarray(values, dtype=np.float64)
        out: list[T] = []
        pos = 0
        while pos < len(values):
            take = min(self.period - self._buffered, len(values) - pos)
            self._pieces.append(values[pos : pos + take])
            self._buffered += take
            pos += take
            if self._buffered == self.period:
                pieces = self._pieces
                self._pieces, self._buffered = [], 0
                res = complete(pieces[0] if len(pieces) == 1 else np.concatenate(pieces))
                if res is not None:
                    out.append(res)
        if self._buffered and len(values):  # outlives the call: own it
            self._pieces[-1] = self._pieces[-1].copy()
        return out
