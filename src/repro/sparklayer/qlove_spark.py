"""End-to-end QLOVE over an events DataFrame (DESIGN.md section 3).

The heavy, data-parallel part — building per-sub-window summaries over
millions of events — runs as a Spark dataflow (:mod:`.level1`). What
remains per window is tiny (``n`` summaries of ``l + k`` floats), so:

  - without few-k merging, Level 2 stays in Spark SQL
    (:func:`repro.sparklayer.level2.sliding_mean_estimates`);
  - with few-k merging, the collected summaries (a few KB) are merged on
    the driver with the *same* kernel code the incremental operator uses:
    :func:`repro.core.burst.flag_bursts` (burst detection is inherently
    sequential over sub-window order — the paper's Level 2 is likewise a
    "static cost" serial stage) and :func:`repro.core.qlove.window_result`.

The sub-window summaries are bit-identical to the kernel's (one function,
:func:`repro.core.subwindow.summarize`, computes both). Window estimates
agree with :class:`repro.core.qlove.QloveOperator` to ``rtol=1e-12``, not
bit for bit: the kernel keeps the Level-2 mean as a running sum, while here
it is summed afresh per window, in another order (tested in
``tests/test_spark_qlove.py``).
"""
from __future__ import annotations

from typing import Sequence

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.burst import flag_bursts
from repro.core.fewk import FewKConfig
from repro.core.qlove import window_result
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
    kernel_summaries = flag_bursts(
        (row_to_summary(row, cfg) for row in summaries.collect()), cfg, burst_alpha
    )
    n = spec.n_subwindows
    records = []
    for i in range(n - 1, len(kernel_summaries)):
        window = kernel_summaries[i - n + 1 : i + 1]
        if [s.sub_id for s in window] != list(range(i - n + 1, i + 1)):
            raise RuntimeError("non-contiguous sub-window ids in summaries")
        res = window_result(window, phis, cfg)
        records.append((i, [res[p] for p in phis]))
    pdf = pd.DataFrame(records, columns=["w", "estimates"])
    return spark.createDataFrame(pdf, schema="w BIGINT, estimates ARRAY<DOUBLE>")
