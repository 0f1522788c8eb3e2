"""Level-1 tumbling sub-windows (Algorithm 1).

:func:`summarize` turns a sub-window's values, sorted ascending with their
multiplicity, into its :class:`SubWindowSummary`: the exact phi-quantiles
plus the raw-tail caches few-k merging needs. The sorted array is the
in-order traversal of the paper's ``{value -> count}`` tree, so every
answer is an index or a slice into it. It is the one Level-1
``ComputeResult`` of the repository: the kernel's :class:`SubWindowBuilder`
(which the streaming state handler runs) and the Spark batch driver's
finalization of the Level-1 state both call it, so their summaries are
bit-identical on the same input.

:class:`SubWindowBuilder` maintains the in-flight state of the kernel. The
paper keeps the state in a red-black tree to stay sorted under per-element
inserts; in Python buffering the values and sorting them once at
``ComputeResult`` gives the identical output, so that is what the default
``lazy`` mode does. Values arrive in chunks
(:meth:`SubWindowBuilder.accumulate_chunk`).
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.compression import quantize_sig
from repro.core.fewk import FewKConfig, interval_sample
from repro.core.quantile import exact_quantiles_sorted
from repro.core.summary import SubWindowSummary

__all__ = ["SubWindowBuilder", "summarize"]


def summarize(
    sorted_values: np.ndarray,
    phis: Sequence[float],
    fewk: FewKConfig,
    sub_id: int,
) -> SubWindowSummary:
    """Summary of one sub-window from its ascending sorted values.

    ``sorted_values`` holds every value of the sub-window, duplicates
    included, in ascending order. Returns the exact phi-quantiles plus, per
    few-k budget, the top-``k_t`` cache and the interval samples of the
    top-``K`` values (both descending, with multiplicity). No returned
    array shares memory with ``sorted_values``, so a retained summary never
    keeps the whole sub-window alive.
    """
    top_k: dict[float, np.ndarray] = {}
    sample_k: dict[float, np.ndarray] = {}
    k = fewk.max_tail
    if k > 0:
        ranked_desc = sorted_values[: -k - 1 : -1]  # a view: the k largest, descending
        for b in fewk.budgets:
            if b.k_t > 0:
                top_k[b.phi] = ranked_desc[: b.k_t].copy()
            if b.k_s > 0:
                sample_k[b.phi] = interval_sample(ranked_desc, b.k_s, b.big_k)
    return SubWindowSummary(
        sub_id=sub_id,
        count=len(sorted_values),
        quantiles=exact_quantiles_sorted(sorted_values, phis),
        top_k=top_k,
        sample_k=sample_k,
    )


def _unique_count(sorted_values: np.ndarray) -> int:
    """Number of distinct values in an ascending array, as ``np.unique``
    counts them: ``-0.0`` equals ``0.0`` and all NaNs (sorted last) are one
    value."""
    s = sorted_values
    n = len(s)
    if n and np.isnan(s[-1]):
        n = int(np.searchsorted(s, np.nan))  # the first NaN
        return _unique_count(s[:n]) + 1
    return int(np.count_nonzero(s[1:] != s[:-1])) + (n > 0)


class SubWindowBuilder:
    """Builds :class:`SubWindowSummary` objects from a stream of values.

    One instance handles consecutive sub-windows: callers accumulate values
    and call :meth:`finalize` at each sub-window boundary, which emits the
    summary and resets the state (the tumbling Level-1 of Figure 2 — no
    deaccumulation ever happens here).
    """

    def __init__(
        self,
        phis: Sequence[float],
        *,
        sig_digits: int | None = None,
        fewk: FewKConfig | None = None,
        l1_mode: str = "lazy",
    ):
        if l1_mode not in ("lazy", "tree"):
            raise ValueError(f"l1_mode must be 'lazy' or 'tree', got {l1_mode}")
        self.phis = tuple(phis)
        self.sig_digits = sig_digits
        self.fewk = fewk or FewKConfig()
        self.l1_mode = l1_mode
        self._freq: dict[float, int] = {}
        # "lazy" mode: chunked arrivals are buffered raw and sorted once at
        # finalize — the tumbling Level-1 never needs a running ordered
        # state, and skipping it is QLOVE's batch-discard advantage. "tree"
        # mode keeps the paper's running {value -> count} map instead, whose
        # per-chunk cost scales with the number of *unique* values — the
        # redundancy-sensitive cost model of Sections 3.2 / 5.4.
        self._pending: list[np.ndarray] = []
        self._count = 0
        self._next_sub_id = 0
        # Unique-value count of the most recently completed sub-window:
        # the steady-state size of the in-flight tree (the O(P) term),
        # reported by space accounting — at the evaluation instant the
        # in-flight state has just been reset, which would otherwise make
        # the observed space misleadingly omit it.
        self.last_unique = 0

    # -- InitialState -----------------------------------------------------
    def _reset(self) -> None:
        self._freq = {}
        self._pending = []
        self._count = 0

    # -- Accumulate -------------------------------------------------------
    def accumulate_chunk(self, values: np.ndarray) -> None:
        """Accumulate of Algorithm 1 over a batch of values (with optional
        quantization)."""
        values = np.asarray(values, dtype=np.float64)
        if self.sig_digits is not None:
            values = quantize_sig(values, self.sig_digits)
        if self.l1_mode == "tree":
            uniq, counts = np.unique(values, return_counts=True)
            freq = self._freq
            for v, c in zip(uniq.tolist(), counts.tolist()):
                freq[v] = freq.get(v, 0) + c
        else:
            self._pending.append(values)
        self._count += len(values)

    def _sorted_state(self) -> np.ndarray:
        """Current sub-window's values, sorted ascending with multiplicity."""
        parts = list(self._pending)
        if self._freq:
            keys = np.fromiter(self._freq.keys(), dtype=np.float64, count=len(self._freq))
            cnts = np.fromiter(self._freq.values(), dtype=np.int64, count=len(self._freq))
            parts.append(np.repeat(keys, cnts))
        if not parts:
            return np.empty(0)
        return np.sort(parts[0] if len(parts) == 1 else np.concatenate(parts))

    # -- ComputeResult ----------------------------------------------------
    def finalize(self) -> SubWindowSummary:
        """Complete the in-flight sub-window: exact quantiles + tail caches."""
        if self._count == 0:
            raise ValueError("finalize() on an empty sub-window")
        s = self._sorted_state()
        summary = summarize(s, self.phis, self.fewk, self._next_sub_id)
        self.last_unique = _unique_count(s)
        self._next_sub_id += 1
        self._reset()
        return summary
