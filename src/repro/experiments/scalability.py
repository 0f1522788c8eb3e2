"""Figure 5 (as a table; figures are out of scope): throughput vs window
size on the synthetic Normal and Uniform datasets, 1K period (Section 5.2).

The paper streams 1B entries and scales windows to 100M; container-scale
here streams ``REPRO_N`` entries (default 2M) and scales windows 1K -> 1M.
The shape to reproduce: Exact degrades sharply once the window slides
(deaccumulation + full-state evaluation cost grows with window size) while
QLOVE stays flat.

A "QLOVE few-k" row runs few-k merging (Section 4) at the same windows on
burst-injected NetMon-sim (``inject_burst``), with sample-k at 10% of the
exact-guarantee cache and the paper's top-k rule (``auto_topk``): there the
caches, and the merges over them, grow with the window.
"""
from __future__ import annotations

import pandas as pd

from repro.baselines.exact import ExactPolicy
from repro.core.fewk import FewKConfig
from repro.core.qlove import QloveOperator
from repro.experiments.harness import default_n_events
from repro.streams.runner import run_policy
from repro.streams.windows import WindowSpec
from repro.synth_data import inject_burst, netmon, normal_ds, uniform_ds

PERIOD = 1_000
WINDOWS = (1_000, 10_000, 100_000, 1_000_000)
PHIS = (0.5, 0.9, 0.99, 0.999)
FEWK_PHIS = (0.99, 0.999)


def _row(dataset: str, window: int, policy: str, pol, stream) -> dict:
    result = run_policy(pol, stream)
    return {
        "dataset": dataset,
        "window": window,
        "policy": policy,
        "throughput_Mev/s": round(result.throughput_eps / 1e6, 3),
    }


def run(n_events: int | None = None, *, seed: int = 0, windows=WINDOWS) -> pd.DataFrame:
    n = n_events or default_n_events()
    windows = [w for w in windows if w * 2 <= n]  # at least two windows' worth of data
    rows = []
    for dataset, gen in (("Normal", normal_ds), ("Uniform", uniform_ds)):
        stream = gen(n, seed=seed)
        for window in windows:
            spec = WindowSpec(size=window, period=PERIOD)
            for pol in (
                QloveOperator(spec, PHIS, sig_digits=3),
                ExactPolicy(spec, PHIS),
            ):
                rows.append(_row(dataset, window, pol.name, pol, stream))
    base = netmon(n, seed=seed)
    for window in windows:
        spec = WindowSpec(size=window, period=PERIOD)
        stream = inject_burst(base, window_size=window, period=PERIOD, phi=0.999)
        fewk = FewKConfig.from_fraction(
            window_size=window,
            period=PERIOD,
            phis=FEWK_PHIS,
            sample_fraction=0.1,
            auto_topk=True,
        )
        pol = QloveOperator(spec, PHIS, sig_digits=3, fewk=fewk)
        rows.append(_row("NetMon+burst", window, "QLOVE few-k", pol, stream))
    return pd.DataFrame(rows)


def main(spark=None) -> pd.DataFrame:
    df = run()
    print(df.to_string(index=False))
    return df
