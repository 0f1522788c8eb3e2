"""Table 2: QLOVE's average relative errors *without* few-k merging, for
period sizes from 64K down to 1K at a 128K window (Section 5.3).

Shows statistical inefficiency: Q0.5/Q0.9 stay flat while Q0.999 degrades
as the period (sub-window) shrinks.
"""
from __future__ import annotations

import pandas as pd

from repro.core.qlove import QloveOperator
from repro.experiments.harness import default_n_events, run_and_evaluate
from repro.streams.windows import WindowSpec
from repro.synth_data import netmon

PHIS = (0.5, 0.9, 0.99, 0.999)
WINDOW = 131_072
PERIODS = (65_536, 32_768, 16_384, 8_192, 4_096, 2_048, 1_024)


def run(
    n_events: int | None = None,
    *,
    seed: int = 0,
    periods=PERIODS,
    spark=None,
) -> pd.DataFrame:
    """Rows = quantiles, columns = period sizes (like the paper's layout)."""
    n = n_events or default_n_events()
    stream = netmon(n, seed=seed)
    cols: dict[str, list[float]] = {}
    for period in periods:
        spec = WindowSpec(size=WINDOW, period=period)
        report = run_and_evaluate(
            QloveOperator(spec, PHIS, sig_digits=3),
            stream,
            PHIS,
            with_rank_error=False,
            spark=spark,
        )
        cols[f"{period // 1024}K"] = [round(report.value_err_pct[p], 2) for p in PHIS]
    df = pd.DataFrame(cols, index=[str(p) for p in PHIS])
    df.index.name = "quantile"
    return df


def main(spark=None) -> pd.DataFrame:
    df = run(spark=spark)
    print(df.to_string())
    return df
