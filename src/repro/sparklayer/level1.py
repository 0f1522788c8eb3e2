"""Level-1 sub-window summaries as a Spark dataflow (Section 3.1).

The paper's frequency-compressed Level-1 state ``{value -> count}`` is
exactly a relational group-by: ``events.groupBy(sub_id, value).count()``.
Summaries (exact per-sub-window quantiles plus few-k tail caches) are then
computed per sub-window with ``applyInPandas`` over that state — one tiny
pandas group per sub-window, embarrassingly parallel across sub-windows.

The group function calls the kernel's
:func:`repro.core.subwindow.summarize`, so every summary is bit-identical
to the one :class:`repro.core.subwindow.SubWindowBuilder` emits for the
same sub-window (tested in ``tests/test_spark_level1.py``). This module
alone knows the row format of :data:`SUMMARY_SCHEMA`:
:func:`row_to_summary` decodes what the group function encodes.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql.types import (
    ArrayType,
    DoubleType,
    LongType,
    StructField,
    StructType,
)

from repro.core.fewk import FewKConfig
from repro.core.subwindow import summarize
from repro.core.summary import SubWindowSummary
from repro.sparklayer.events import with_quantized_value, with_sub_id

__all__ = ["freq_state", "subwindow_summaries", "row_to_summary", "SUMMARY_SCHEMA"]

SUMMARY_SCHEMA = StructType(
    [
        StructField("sub_id", LongType(), False),
        StructField("count", LongType(), False),
        StructField("quantiles", ArrayType(DoubleType(), False), False),
        # Outer index aligns with FewKConfig.budgets order.
        StructField("top_k", ArrayType(ArrayType(DoubleType(), False), False), False),
        StructField("sample_k", ArrayType(ArrayType(DoubleType(), False), False), False),
    ]
)


def _summary_to_row(s: SubWindowSummary, fewk: FewKConfig) -> dict:
    """Encode a kernel summary as one :data:`SUMMARY_SCHEMA` row."""

    def caches(per_phi: dict[float, np.ndarray]) -> list[list[float]]:
        return [per_phi[b.phi].tolist() if b.phi in per_phi else [] for b in fewk.budgets]

    return {
        "sub_id": s.sub_id,
        "count": s.count,
        "quantiles": s.quantiles.tolist(),
        "top_k": caches(s.top_k),
        "sample_k": caches(s.sample_k),
    }


def row_to_summary(row, fewk: FewKConfig) -> SubWindowSummary:
    """Decode one :data:`SUMMARY_SCHEMA` row into a kernel summary."""

    def caches(lists) -> dict[float, np.ndarray]:
        return {
            b.phi: np.asarray(vals, dtype=np.float64)
            for b, vals in zip(fewk.budgets, lists)
            if len(vals)
        }

    return SubWindowSummary(
        sub_id=int(row["sub_id"]),
        count=int(row["count"]),
        quantiles=np.asarray(row["quantiles"], dtype=np.float64),
        top_k=caches(row["top_k"]),
        sample_k=caches(row["sample_k"]),
    )


def freq_state(events: DataFrame, period: int, *, sig_digits: int | None = None) -> DataFrame:
    """The Level-1 state, relationally: ``(sub_id, value, freq)``.

    This is the paper's red-black-tree state expressed as a group-by — the
    degree of duplicates in the workload directly shrinks this relation
    (the ``O(P)`` term of Section 3.2).
    """
    ev = with_quantized_value(events, sig_digits)
    return (
        with_sub_id(ev, period)
        .groupBy("sub_id", "value")
        .agg(F.count(F.lit(1)).alias("freq"))
    )


def subwindow_summaries(
    events: DataFrame,
    period: int,
    phis: Sequence[float],
    *,
    sig_digits: int | None = None,
    fewk: FewKConfig | None = None,
) -> DataFrame:
    """Per-sub-window summaries: ``(sub_id, count, quantiles, top_k, sample_k)``.

    Equivalent to running :class:`repro.core.subwindow.SubWindowBuilder`
    over every sub-window, but data-parallel: the frequency state is built
    by Spark's shuffle and each summary by one ``applyInPandas`` group.
    """
    phis = tuple(phis)
    cfg = fewk or FewKConfig()
    state = freq_state(events, period, sig_digits=sig_digits)

    def group_summary(pdf: pd.DataFrame) -> pd.DataFrame:
        values = pdf["value"].to_numpy(dtype=np.float64)
        freqs = pdf["freq"].to_numpy(dtype=np.int64)
        order = np.argsort(values)
        s = summarize(values[order], freqs[order], phis, cfg, int(pdf["sub_id"].iloc[0]))
        return pd.DataFrame([_summary_to_row(s, cfg)])

    return state.groupBy("sub_id").applyInPandas(group_summary, SUMMARY_SCHEMA)
