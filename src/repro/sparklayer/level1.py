"""Level-1 sub-window summaries as a Spark dataflow (Section 3.1).

The paper's frequency-compressed Level-1 state ``{value -> count}`` is
exactly a relational group-by: ``events.groupBy(sub_id, value).count()``.
Summaries (exact per-sub-window quantiles plus few-k tail caches) are then
computed per sub-window with ``applyInArrow`` over that state — one Arrow
group per sub-window, embarrassingly parallel across sub-windows.

The group function expands the group's raw ``(value, freq)`` rows
(``np.repeat``, at most ``P`` floats), then quantizes, sorts and summarizes
them as :class:`repro.core.subwindow.SubWindowBuilder` does, with the
kernel's :func:`~repro.core.compression.quantize_sig` and
:func:`~repro.core.subwindow.summarize`. So every summary is bit-identical
to the kernel's on any data (tested in ``tests/test_spark_level1.py``).
This module alone knows the row format of :data:`SUMMARY_SCHEMA`:
:func:`row_to_summary` decodes what the group function encodes.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np
import pyarrow as pa
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql.pandas.types import to_arrow_schema
from pyspark.sql.types import (
    ArrayType,
    DoubleType,
    LongType,
    StructField,
    StructType,
)

from repro.core.compression import quantize_sig
from repro.core.fewk import FewKConfig
from repro.core.subwindow import summarize
from repro.core.summary import SubWindowSummary
from repro.sparklayer.events import with_sub_id

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
_SUMMARY_ARROW_SCHEMA = to_arrow_schema(SUMMARY_SCHEMA)


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


def freq_state(events: DataFrame, period: int) -> DataFrame:
    """The Level-1 state, relationally: ``(sub_id, value, freq)``.

    This is the paper's red-black-tree state expressed as a group-by over
    raw values — the degree of duplicates in the workload directly shrinks
    this relation (the ``O(P)`` term of Section 3.2); quantization, applied
    later per sub-window, does not.
    """
    return (
        with_sub_id(events, period)
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
    by Spark's shuffle and each summary by one ``applyInArrow`` group.
    """
    if sig_digits is not None and sig_digits < 1:
        raise ValueError(f"need sig_digits >= 1, got {sig_digits}")
    phis = tuple(phis)
    cfg = fewk or FewKConfig()
    state = freq_state(events, period)

    # Unannotated on purpose: with ``from __future__ import annotations`` the
    # hints are strings, and PySpark 4.1's applyInArrow then fails to infer
    # the function form (UnboundLocalError: eval_type).
    def group_summary(table):
        values = np.repeat(
            table.column("value").to_numpy().astype(np.float64, copy=False),
            table.column("freq").to_numpy().astype(np.int64, copy=False),
        )
        if sig_digits is not None:
            values = quantize_sig(values, sig_digits)
        sub_id = table.column("sub_id")[0].as_py()
        s = summarize(np.sort(values), phis, cfg, sub_id)
        return pa.Table.from_pylist([_summary_to_row(s, cfg)], schema=_SUMMARY_ARROW_SCHEMA)

    return state.groupBy("sub_id").applyInArrow(group_summary, SUMMARY_SCHEMA)
