"""Table 4: sample-k merging under injected bursty traffic (Section 5.3).

128K window, periods {16K, 4K}. A burst is injected into NetMon so it
"affects Q0.999 and above and appears just once in every evaluation of the
sliding window": the top N*(1-0.999) values of every (N/P)-th sub-window
are multiplied by 10. Each sub-window keeps a fraction {0, 0.1, 0.5} of
the sample-k cache that would guarantee the exact answer; cells report
average relative error % for Q0.99 and Q0.999 with the observed sample-k
space in parentheses.
"""
from __future__ import annotations

import pandas as pd

from repro.core.fewk import FewKConfig
from repro.core.qlove import QloveOperator
from repro.experiments.harness import default_n_events, run_and_evaluate
from repro.streams.windows import WindowSpec
from repro.synth_data import inject_burst, netmon

PHIS = (0.99, 0.999)
BURST_PHI = 0.999
WINDOW = 131_072
PERIODS = (16_384, 4_096)
FRACTIONS = (0.0, 0.1, 0.5)


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
    base = netmon(n, seed=seed)
    # Burst injection and therefore the exact reference depend only on the
    # period; share them across fractions.
    streams = {
        period: inject_burst(base, window_size=WINDOW, period=period, phi=BURST_PHI)
        for period in periods
    }
    exact_by_period = {
        period: exact_sliding_quantiles(
            streams[period], WindowSpec(size=WINDOW, period=period), PHIS
        )
        for period in periods
    }
    rows = []
    for fraction in fractions:
        row: dict = {"fraction": fraction}
        for period in periods:
            spec = WindowSpec(size=WINDOW, period=period)
            stream = streams[period]
            cfg = (
                FewKConfig.from_fraction(
                    window_size=WINDOW,
                    period=period,
                    phis=list(PHIS),
                    sample_fraction=fraction,
                )
                if fraction > 0
                else FewKConfig()
            )
            report = run_and_evaluate(
                QloveOperator(spec, PHIS, sig_digits=3, fewk=cfg),
                stream,
                PHIS,
                exact=exact_by_period[period],
                with_rank_error=False,
                spark=spark,
            )
            for phi in PHIS:
                budget = cfg.budget_for(phi)
                space = budget.k_s * spec.n_subwindows if budget else 0
                row[f"{period // 1024}K Q{phi}"] = (
                    f"{report.value_err_pct[phi]:.2f} ({space:,})"
                )
        rows.append(row)
    return pd.DataFrame(rows)


def main(spark=None) -> pd.DataFrame:
    df = run(spark=spark)
    print(df.to_string(index=False))
    return df
