"""Table 5 + the Section 5.4 sensitivity studies on data distribution.

  - Table 5 proper: average relative errors of QLOVE's aggregated
    estimator on AR(1) data with correlation psi in {0, 0.2, 0.8} at
    quantiles {0.5, 0.9, 0.99} — errors must stay tiny (1e-5..1e-3 scale)
    and grow only mildly with psi. No value compression here: the paper's
    reported errors sit below the 3-digit quantization floor.
  - Pareto skewness study: Q0.999 value error of QLOVE vs AM vs Random on
    Pareto(1, 10) data (paper: 4.00% vs 29.22% vs 35.17%).

With a Spark session, both QLOVE runs are checked against the Spark
dataflow (``run_and_evaluate(..., spark=...)``).

Both use the Table-1 window configuration (128K window, 16K period).
"""
from __future__ import annotations

import pandas as pd

from repro.baselines.am import AmPolicy
from repro.baselines.random_sampling import RandomPolicy
from repro.core.qlove import QloveOperator
from repro.experiments.exact_ref import exact_sliding_quantiles
from repro.experiments.harness import default_n_events, run_and_evaluate
from repro.streams.windows import WindowSpec
from repro.synth_data import ar1, pareto_ds

SPEC = WindowSpec(size=131_072, period=16_384)
AR1_PHIS = (0.5, 0.9, 0.99)
AR1_PSIS = (0.0, 0.2, 0.8)
PARETO_PHI = 0.999
PARETO_EPSILON = 0.02


def run_ar1(
    n_events: int | None = None, *, seed: int = 0, psis=AR1_PSIS, spark=None
) -> pd.DataFrame:
    """Table 5: mean relative error (as a ratio, like the paper) per psi."""
    n = n_events or default_n_events()
    rows = []
    for psi in psis:
        stream = ar1(n, psi=psi, seed=seed)
        report = run_and_evaluate(
            QloveOperator(SPEC, AR1_PHIS),  # no quantization
            stream,
            AR1_PHIS,
            with_rank_error=False,
            spark=spark,
        )
        rows.append(
            {"psi": psi}
            | {str(p): report.value_err_pct[p] / 100.0 for p in AR1_PHIS}
        )
    return pd.DataFrame(rows)


def run_pareto(n_events: int | None = None, *, seed: int = 0, spark=None) -> pd.DataFrame:
    """Section 5.4 skewness: Q0.999 value error on Pareto data."""
    n = n_events or default_n_events()
    stream = pareto_ds(n, seed=seed)
    exact = exact_sliding_quantiles(stream, SPEC, (PARETO_PHI,))
    rows = []
    for pol in (
        QloveOperator(SPEC, (PARETO_PHI,), sig_digits=3),
        AmPolicy(SPEC, (PARETO_PHI,), epsilon=PARETO_EPSILON),
        RandomPolicy(SPEC, (PARETO_PHI,), epsilon=PARETO_EPSILON),
    ):
        report = run_and_evaluate(
            pol,
            stream,
            (PARETO_PHI,),
            exact=exact,
            with_rank_error=False,
            spark=spark if pol.name == "QLOVE" else None,
        )
        rows.append(
            {
                "policy": report.policy,
                "value_err%@0.999": round(report.value_err_pct[PARETO_PHI], 2),
            }
        )
    return pd.DataFrame(rows)


def main(spark=None) -> tuple[pd.DataFrame, pd.DataFrame]:
    ar1_df = run_ar1(spark=spark)
    print(ar1_df.to_string(index=False))
    pareto_df = run_pareto(spark=spark)
    print(pareto_df.to_string(index=False))
    return ar1_df, pareto_df
