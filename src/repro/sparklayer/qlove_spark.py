"""End-to-end QLOVE over an events DataFrame (DESIGN.md section 3).

The heavy, data-parallel part — building per-sub-window summaries over
millions of events — runs as a Spark dataflow (:mod:`.level1`). What
remains per window is tiny (``n`` summaries of ``l + k`` floats), so:

  - without few-k merging, Level 2 stays in Spark SQL as one window-frame
    pass over the summaries
    (:func:`repro.sparklayer.level2.sliding_mean_estimates`), so the query
    evaluates Level 1 once;
  - with few-k merging, the collected summaries (a few KB) are pushed in
    ``sub_id`` order through the kernel's own Level 2,
    :class:`repro.core.qlove.SlidingMerge` (burst detection is inherently
    sequential over sub-window order — the paper's Level 2 is likewise a
    "static cost" serial stage).

The sub-window summaries are bit-identical to the kernel's (one function,
:func:`repro.core.subwindow.summarize`, computes both), and so are the
few-k window estimates (one Level 2 merges both). The plain SQL path agrees
with :class:`repro.core.qlove.QloveOperator` to ``rtol=1e-12``, not bit for
bit: the window frame sums each window afresh, while the kernel keeps
running sums (tested in ``tests/test_spark_qlove.py``).
"""
from __future__ import annotations

from typing import Sequence

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.fewk import FewKConfig
from repro.core.qlove import SlidingMerge
from repro.sparklayer.level1 import row_to_summary, subwindow_summaries
from repro.sparklayer.level2 import sliding_mean_estimates
from repro.streams.windows import WindowSpec

__all__ = ["qlove_estimates"]


def qlove_estimates(
    spark: SparkSession,
    events: DataFrame,
    spec: WindowSpec,
    phis: Sequence[float],
    *,
    sig_digits: int | None = None,
    fewk: FewKConfig | None = None,
    burst_alpha: float = 0.01,
) -> DataFrame:
    """QLOVE estimates per complete window: ``(w, estimates ARRAY<DOUBLE>)``.

    ``w`` is the sub_id of the window's last sub-window; ``estimates`` is
    aligned with ``phis``.
    """
    phis = tuple(phis)
    cfg = fewk or FewKConfig()
    summaries = subwindow_summaries(
        events, spec.period, phis, sig_digits=sig_digits, fewk=cfg
    )
    # A trailing partial sub-window never completes a period, so no query
    # evaluation sees it (count-based windows, Section 2).
    summaries = summaries.where(F.col("count") == spec.period)
    if not cfg.budgets:
        return sliding_mean_estimates(summaries, spec.n_subwindows)

    # Few-k path: driver-side merge over the (tiny) collected summaries.
    merge = SlidingMerge(spec, phis, cfg, burst_alpha)
    records = []
    for row in sorted(summaries.collect(), key=lambda r: r["sub_id"]):
        summary = row_to_summary(row, cfg)
        res = merge.push(summary)
        if res is not None:
            records.append((summary.sub_id, [res[p] for p in phis]))
    pdf = pd.DataFrame(records, columns=["w", "estimates"])
    return spark.createDataFrame(pdf, schema="w BIGINT, estimates ARRAY<DOUBLE>")
