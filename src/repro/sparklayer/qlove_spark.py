"""End-to-end QLOVE over an events DataFrame (DESIGN.md section 3).

The heavy, data-parallel part — the Level-1 ``{value -> count}`` state
over millions of events — is a Spark aggregation, and the driver finalizes
its rows into sub-window summaries with the kernel's code
(:mod:`.level1`). What remains per window is tiny (``n`` summaries of
``l + k`` floats), so:

  - without few-k merging, Level 2 stays in Spark SQL as one window-frame
    pass over the summaries
    (:func:`repro.sparklayer.level2.sliding_mean_estimates`);
  - with few-k merging, the driver's summaries are pushed in ``sub_id``
    order through the kernel's own Level 2,
    :class:`repro.core.qlove.SlidingMerge` (burst detection is inherently
    sequential over sub-window order — the paper's Level 2 is likewise a
    "static cost" serial stage).

A sub-window whose count is not the period (a trailing partial one, or one
with a lost or duplicated event) is dropped, and so is every window that
contains it; few-k restarts its Level 2 at the next complete sub-window.

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
from repro.sparklayer.level1 import collect_summaries, subwindow_summaries
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
) -> DataFrame:
    """QLOVE estimates per complete window: ``(w, estimates ARRAY<DOUBLE>)``.

    ``w`` is the sub_id of the window's last sub-window; ``estimates`` is
    aligned with ``phis``.
    """
    phis = tuple(phis)
    cfg = fewk or FewKConfig()
    if not cfg.budgets:
        summaries = subwindow_summaries(
            events, spec.period, phis, sig_digits=sig_digits, fewk=cfg
        )
        # A trailing partial sub-window never completes a period, so no
        # query evaluation sees it (count-based windows, Section 2).
        summaries = summaries.where(F.col("count") == spec.period)
        return sliding_mean_estimates(summaries, spec.n_subwindows)

    merge = None
    records = []
    for summary in collect_summaries(
        events, spec.period, phis, sig_digits=sig_digits, fewk=cfg
    ):
        if summary.count != spec.period:
            continue
        if merge is None or summary.sub_id != merge.next_sub_id:
            # No window spans a missing sub-window: Level 2 starts afresh.
            merge = SlidingMerge(spec, phis, cfg)
            merge.next_sub_id = summary.sub_id
        res = merge.push(summary)
        if res is not None:
            records.append((summary.sub_id, [res[p] for p in phis]))
    pdf = pd.DataFrame(records, columns=["w", "estimates"])
    return spark.createDataFrame(pdf, schema="w BIGINT, estimates ARRAY<DOUBLE>")
