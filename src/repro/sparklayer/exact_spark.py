"""Exact sliding-window quantiles as a Spark dataflow.

The exact reference computed distributively: each event is exploded into
the ``n = N/P`` windows it participates in, the per-window frequency state
is a group-by over raw values, and the kernel's quantizer and the paper's
``ceil(phi * N)`` rank convention are applied per window with
``applyInPandas``. The data blow-up factor is ``n`` — this is the cost
QLOVE's summary reuse avoids, and it is what makes this module an
oracle-scale reference rather than a production path.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.compression import quantize_sig
from repro.core.fewk import FewKConfig
from repro.core.subwindow import summarize
from repro.sparklayer.events import with_sub_id
from repro.streams.windows import WindowSpec

__all__ = ["exact_window_quantiles"]


def exact_window_quantiles(
    events: DataFrame,
    spec: WindowSpec,
    phis: Sequence[float],
    *,
    sig_digits: int | None = None,
) -> DataFrame:
    """Exact per-window quantiles: ``(w, estimates ARRAY<DOUBLE>)``.

    Only complete windows (exactly ``N`` member events) are returned,
    matching the evaluation points of the stream runner.
    """
    if sig_digits is not None and sig_digits < 1:
        raise ValueError(f"need sig_digits >= 1, got {sig_digits}")
    phis = tuple(phis)
    n = spec.n_subwindows
    ev = with_sub_id(events, spec.period)
    member = ev.withColumn(
        "w", F.explode(F.sequence(F.col("sub_id"), F.col("sub_id") + F.lit(n - 1)))
    )
    state = member.groupBy("w", "value").agg(F.count(F.lit(1)).alias("freq"))

    def per_window(pdf: pd.DataFrame) -> pd.DataFrame:
        freqs = pdf["freq"].to_numpy(dtype=np.int64)
        if int(freqs.sum()) != spec.size:
            # Incomplete window (warm-up or stream tail): emit nothing. The
            # estimates column must be object-typed or Arrow rejects an
            # empty float64 column where list<double> is expected.
            return pd.DataFrame(
                {
                    "w": pd.Series([], dtype="int64"),
                    "estimates": pd.Series([], dtype="object"),
                }
            )
        # A whole window's exact quantiles are its summary as one sub-window.
        values = np.repeat(pdf["value"].to_numpy(dtype=np.float64), freqs)
        if sig_digits is not None:
            values = quantize_sig(values, sig_digits)
        w = int(pdf["w"].iloc[0])
        q = summarize(np.sort(values), phis, FewKConfig(), w).quantiles
        return pd.DataFrame({"w": [w], "estimates": [q.tolist()]})

    return state.groupBy("w").applyInPandas(
        per_window, "w BIGINT, estimates ARRAY<DOUBLE>"
    )
