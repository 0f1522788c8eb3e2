"""Level-2 sliding aggregation in Spark SQL (Section 3.1, Figure 2).

A window is identified by the ``sub_id`` of its *last* sub-window (window
``w`` covers sub-windows ``[w - n + 1, w]``). Level 2 is one window-frame
pass over the summaries ordered by ``sub_id``: the frame ``RANGE BETWEEN
n-1 PRECEDING AND CURRENT ROW`` holds window ``w``'s members, and the
element-wise mean of their quantile arrays is the Level-2 mean of the
paper (the incremental sum/count state of the kernel operator computes the
same numbers one slide at a time). The summaries are one small row per
sub-window, so the unpartitioned frame costs one tiny single-task sort,
and the query plan evaluates Level 1 once.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

__all__ = ["sliding_mean_estimates", "complete_windows"]


def complete_windows(summaries: DataFrame, n_subwindows: int) -> DataFrame:
    """Explode summaries into the windows they belong to and keep only
    windows that can complete (``n - 1 <= w <= max(sub_id)``).

    This is the window-membership relation ``(sub_id, ..., w)``. It is no
    longer on the query path (:func:`sliding_mean_estimates` uses a window
    frame); it is kept for the tests and for the benchmark's exploded-rows
    counter.
    """
    exploded = summaries.withColumn(
        "w",
        F.explode(F.sequence(F.col("sub_id"), F.col("sub_id") + F.lit(n_subwindows - 1))),
    )
    max_sub = summaries.agg(F.max("sub_id").alias("m"))
    return (
        exploded
        # the first complete window ends at sub-window n-1; windows past the
        # last observed sub-window never complete
        .where(F.col("w") >= F.lit(n_subwindows - 1))
        .join(F.broadcast(max_sub), F.col("w") <= F.col("m"), "inner")
        .drop("m")
    )


def sliding_mean_estimates(summaries: DataFrame, n_subwindows: int) -> DataFrame:
    """Level-2 mean estimates per window: ``(w, estimates ARRAY<DOUBLE>)``.

    ``estimates[i]`` is the mean over the window's sub-windows of the
    ``i``-th requested quantile — QLOVE's non-high-quantile answer
    ``y_a = (1/n) * sum(y_i)``. A window with a missing member sub-window
    has no row.
    """
    n = n_subwindows
    frame = Window.orderBy("sub_id").rangeBetween(-(n - 1), 0)
    windows = summaries.select(
        F.col("sub_id").alias("w"),
        F.collect_list("quantiles").over(frame).alias("members"),
    )
    # the frame holds the present sub-windows among w - n + 1 .. w, and
    # sub_ids are distinct, so n rows means none is missing.
    complete = windows.where(F.size("members") == n)
    mean = F.transform(
        F.col("members")[0],
        lambda _, i: F.aggregate("members", F.lit(0.0), lambda acc, q: acc + q[i]) / n,
    )
    return complete.select("w", mean.alias("estimates"))
