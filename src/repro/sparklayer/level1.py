"""Level-1 sub-window summaries: a Spark state query finalized on the
driver (Section 3.1).

The paper's frequency-compressed Level-1 state ``{value -> count}`` is
exactly a relational group-by: ``events.groupBy(sub_id, value).count()``
over raw values (:func:`freq_state`). That aggregation is the
data-parallel part of Level 1 and stays in Spark. Its rows come to the
driver in one ``toArrow()``, and :func:`collect_summaries` finalizes every
sub-window with the kernel's own code: it quantizes the state's values
once with :func:`~repro.core.compression.quantize_sig` (element by
element, so as the kernel does per chunk), expands them by ``freq``
(``np.repeat``) and calls :func:`~repro.core.subwindow.summarize` over each
sub-window's sorted slice. So every summary is bit-identical to the
kernel's on any data (tested in ``tests/test_spark_level1.py``), and no
Python worker runs.

The trade-off: the driver holds the whole state (one row per distinct
value per sub-window) and runs the ``P``-sized sorts on one thread
(DESIGN.md section 3).
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

__all__ = ["freq_state", "collect_summaries", "subwindow_summaries", "SUMMARY_SCHEMA"]

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


def freq_state(events: DataFrame, period: int) -> DataFrame:
    """The Level-1 state, relationally: ``(sub_id, value, freq)``.

    This is the paper's red-black-tree state expressed as a group-by over
    raw values — the degree of duplicates in the workload directly shrinks
    this relation (the ``O(P)`` term of Section 3.2); quantization, applied
    later on the driver, does not.
    """
    return (
        with_sub_id(events, period)
        .groupBy("sub_id", "value")
        .agg(F.count(F.lit(1)).alias("freq"))
    )


def collect_summaries(
    events: DataFrame,
    period: int,
    phis: Sequence[float],
    *,
    sig_digits: int | None = None,
    fewk: FewKConfig | None = None,
) -> list[SubWindowSummary]:
    """Every sub-window's summary in ``sub_id`` order, a trailing partial
    one included: :func:`freq_state` runs in Spark, and the driver
    finalizes its rows as :class:`repro.core.subwindow.SubWindowBuilder`
    finalizes a period."""
    if sig_digits is not None and sig_digits < 1:
        raise ValueError(f"need sig_digits >= 1, got {sig_digits}")
    phis = tuple(phis)
    cfg = fewk or FewKConfig()
    state = freq_state(events, period).toArrow()
    sub = state.column("sub_id").to_numpy()
    raw = state.column("value").to_numpy()
    order = np.lexsort((raw, sub))
    sub, raw = sub[order], raw[order]
    freq = state.column("freq").to_numpy()[order]
    if sig_digits is not None:
        raw = quantize_sig(raw, sig_digits)
    values = np.repeat(raw, freq)
    # The first state row of each sub-window, and where its values start.
    first = np.flatnonzero(np.diff(sub, prepend=sub[:1] - 1))
    bounds = np.append(np.concatenate(([0], np.cumsum(freq)))[first], len(values))
    return [
        summarize(np.sort(values[a:b]), phis, cfg, int(s))
        for s, a, b in zip(sub[first], bounds[:-1], bounds[1:])
    ]


def subwindow_summaries(
    events: DataFrame,
    period: int,
    phis: Sequence[float],
    *,
    sig_digits: int | None = None,
    fewk: FewKConfig | None = None,
) -> DataFrame:
    """Per-sub-window summaries: ``(sub_id, count, quantiles, top_k, sample_k)``.

    The rows of :func:`collect_summaries`, as a DataFrame over a local
    Arrow table (the driver already holds them).
    """
    cfg = fewk or FewKConfig()
    summaries = collect_summaries(events, period, phis, sig_digits=sig_digits, fewk=cfg)
    table = pa.Table.from_pylist(
        [_summary_to_row(s, cfg) for s in summaries], schema=_SUMMARY_ARROW_SCHEMA
    )
    return events.sparkSession.createDataFrame(table)
