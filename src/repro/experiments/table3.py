"""Table 3: top-k merging accuracy/space trade-off for Q0.999 (Section 5.3).

128K window; period in {8K, 4K, 2K, 1K}; each sub-window caches a
*fraction* (0.1, 0.5) of the K = 132 largest entries that would guarantee
the exact Q0.999. Cells report average relative error % with the observed
few-k space usage in parentheses, as in the paper.
"""
from __future__ import annotations

import pandas as pd

from repro.core.fewk import FewKConfig
from repro.core.qlove import QloveOperator
from repro.experiments.harness import default_n_events, run_and_evaluate
from repro.streams.windows import WindowSpec
from repro.synth_data import netmon

PHI = 0.999
WINDOW = 131_072
PERIODS = (8_192, 4_096, 2_048, 1_024)
FRACTIONS = (0.1, 0.5)


def run(
    n_events: int | None = None,
    *,
    seed: int = 0,
    periods=PERIODS,
    fractions=FRACTIONS,
    spark=None,
) -> pd.DataFrame:
    from repro.experiments.exact_ref import exact_sliding_quantiles

    n = n_events or default_n_events()
    stream = netmon(n, seed=seed)
    # The exact reference depends only on the period, not the fraction.
    exact_by_period = {
        period: exact_sliding_quantiles(stream, WindowSpec(size=WINDOW, period=period), (PHI,))
        for period in periods
    }
    rows = []
    for fraction in fractions:
        row: dict = {"fraction": fraction}
        for period in periods:
            spec = WindowSpec(size=WINDOW, period=period)
            cfg = FewKConfig.from_fraction(
                window_size=WINDOW, period=period, phis=[PHI], top_fraction=fraction
            )
            report = run_and_evaluate(
                QloveOperator(spec, (PHI,), sig_digits=3, fewk=cfg),
                stream,
                (PHI,),
                exact=exact_by_period[period],
                with_rank_error=False,
                spark=spark,
            )
            budget = cfg.budget_for(PHI)
            space = budget.k_t * spec.n_subwindows
            row[f"{period // 1024}K"] = f"{report.value_err_pct[PHI]:.2f} ({space:,})"
        rows.append(row)
    return pd.DataFrame(rows)


def main(spark=None) -> pd.DataFrame:
    df = run(spark=spark)
    print(df.to_string(index=False))
    return df
