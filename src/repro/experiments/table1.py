"""Table 1: accuracy and space usage of the five approximation algorithms.

Configuration (Section 5.2): NetMon dataset, 16K (16,384) window period,
128K (131,072) window size, quantiles {0.5, 0.9, 0.99, 0.999}; CMQS/AM/
Random at eps = 0.02, Moment at K = 12; QLOVE without few-k merging (it is
enabled only from Table 3 on) and with 3-significant-digit compression.
"""
from __future__ import annotations

import pandas as pd

from repro.baselines.am import AmPolicy
from repro.baselines.cmqs import CmqsPolicy
from repro.baselines.moment import MomentPolicy
from repro.baselines.random_sampling import RandomPolicy
from repro.core.qlove import QloveOperator
from repro.experiments.exact_ref import exact_sliding_quantiles
from repro.experiments.harness import default_n_events, run_and_evaluate
from repro.streams.windows import WindowSpec
from repro.synth_data import netmon

PHIS = (0.5, 0.9, 0.99, 0.999)
SPEC = WindowSpec(size=131_072, period=16_384)
EPSILON = 0.02
MOMENT_K = 12


def policies():
    return [
        QloveOperator(SPEC, PHIS, sig_digits=3),
        CmqsPolicy(SPEC, PHIS, epsilon=EPSILON),
        AmPolicy(SPEC, PHIS, epsilon=EPSILON),
        RandomPolicy(SPEC, PHIS, epsilon=EPSILON),
        MomentPolicy(SPEC, PHIS, k=MOMENT_K),
    ]


def run(n_events: int | None = None, *, seed: int = 0, spark=None) -> pd.DataFrame:
    """Reproduce Table 1; returns one row per policy."""
    n = n_events or default_n_events()
    stream = netmon(n, seed=seed)
    exact = exact_sliding_quantiles(stream, SPEC, PHIS)
    rows = []
    for pol in policies():
        report = run_and_evaluate(
            pol, stream, PHIS, exact=exact, spark=spark if pol.name == "QLOVE" else None
        )
        rows.append(report.row(PHIS))
    return pd.DataFrame(rows)


def main(spark=None) -> pd.DataFrame:
    df = run(spark=spark)
    print(df.to_string(index=False))
    return df
