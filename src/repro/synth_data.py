"""Synthetic QLOVE telemetry workloads (DESIGN.md section 2).

Streams are returned as numpy arrays in arrival order (the stream-runner
substrate consumes numpy; :func:`telemetry_events` wraps a stream as a
Spark events DataFrame). All are deterministic in ``seed`` so the DuckDB
oracle sees identical input.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
import pandas as pd

if TYPE_CHECKING:  # Spark is loaded only by callers of telemetry_events
    from pyspark.sql import DataFrame, SparkSession


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def netmon(n: int, *, seed: int = 10) -> np.ndarray:
    """NetMon-sim: datacenter RTTs in integer microseconds.

    Calibrated to the paper's published statistics (Section 1 / Figure 1):
    lognormal body with median ~798us and ~90% of mass below ~1,247us, plus
    a 0.2% Pareto(1.05) tail from ~1,874us clipped at 80,000us (paper max
    74,265us). The tail fraction matches the paper's own example — rank
    99K of 100K is still 1,874us while rank 101K is 74,265us, i.e. the
    distribution is smooth through ~Q0.995 and explodes only past ~Q0.998.
    Integer quantization yields the high duplicate density the paper
    reports (a few thousand unique values per 16K sub-window).
    """
    g = _rng(seed)
    body = np.exp(g.normal(np.log(798.0), 0.32, n))
    tail_mask = g.random(n) < 0.002
    n_tail = int(tail_mask.sum())
    # Pareto(alpha=1.05, x_m=1874) via inverse CDF, clipped at 80,000us.
    u = g.random(n_tail)
    tail = np.minimum(1874.0 * u ** (-1.0 / 1.05), 80_000.0)
    values = body
    values[tail_mask] = tail
    return np.maximum(np.rint(values), 1.0)


def search(n: int, *, seed: int = 11, sla_us: int = 200_000) -> np.ndarray:
    """Search-sim: ISN query response times in integer microseconds.

    Lognormal response times hard-capped at the serving SLA (footnote 1:
    "Search ISN limits query execution to take up to the pre-defined
    response time SLA, e.g., 200 ms"), which concentrates ~2% of the mass
    at the cap — the high tail density that makes all of the paper's Search
    relative errors fall below 1% without few-k merging.
    """
    g = _rng(seed)
    values = np.exp(g.normal(np.log(25_000.0), 1.0, n))
    return np.maximum(np.rint(np.minimum(values, float(sla_us))), 1.0)


def pareto_ds(n: int, *, seed: int = 12) -> np.ndarray:
    """Pareto-sim (Section 5.4): integers from Pareto(alpha=1, x_m=10).

    The two constraints the paper states (Q0.5 = 20, Q0.999 = 10,000) pin
    the distribution down in closed form: ``x_m * 2^(1/a) = 20`` and
    ``x_m * 1000^(1/a) = 10,000`` give ``a = 1, x_m = 10``.
    """
    g = _rng(seed)
    return np.floor(10.0 / np.maximum(g.random(n), 1e-12))


def normal_ds(n: int, *, seed: int = 13) -> np.ndarray:
    """Normal-sim (Section 5.2 scalability): integer draws from
    N(1e6, 5e4^2)."""
    g = _rng(seed)
    return np.rint(g.normal(1_000_000.0, 50_000.0, n))


def uniform_ds(n: int, *, seed: int = 14) -> np.ndarray:
    """Uniform-sim (Section 5.2 scalability): integers uniform on
    [90, 110] — only 21 distinct values, the extreme-redundancy case."""
    g = _rng(seed)
    return g.integers(90, 111, n).astype(np.float64)


def ar1(n: int, *, psi: float, seed: int = 15) -> np.ndarray:
    """AR(1)-sim (Section 5.4): autoregressive data with stationary
    N(1e6, 5e4^2) marginals and lag-1 correlation ``psi``.

    ``psi = 0`` reduces to the i.i.d. normal dataset the paper compares
    against. Values stay float (Table 5 reports errors at the 1e-5 scale,
    which integer rounding would mask).
    """
    if not (0.0 <= psi < 1.0):
        raise ValueError(f"need 0 <= psi < 1, got {psi}")
    g = _rng(seed)
    eps = g.normal(0.0, 50_000.0 * np.sqrt(1.0 - psi**2), n)
    z = np.empty(n)
    prev = g.normal(0.0, 50_000.0)
    for i in range(n):
        prev = psi * prev + eps[i]
        z[i] = prev
    return 1_000_000.0 + z


def inject_burst(
    stream: np.ndarray,
    *,
    window_size: int,
    period: int,
    phi: float,
    factor: float = 10.0,
    offset: int = 0,
) -> np.ndarray:
    """Burst injection of Section 5.3: "we increase the values of the top
    N(1-phi) elements in every (N/P)th sub-window of size P by 10x".

    Exactly one sub-window per window evaluation is made bursty. ``offset``
    selects which sub-window of each group of ``N/P`` bursts.
    """
    from repro.core.quantile import kth_largest_count

    out = np.array(stream, dtype=np.float64, copy=True)
    n_subs_per_window = window_size // period
    big_k = kth_largest_count(phi, window_size)
    n_subs = len(out) // period
    for s in range(offset, n_subs, n_subs_per_window):
        lo, hi = s * period, (s + 1) * period
        sub = out[lo:hi]
        top_idx = np.argpartition(sub, len(sub) - big_k)[len(sub) - big_k :]
        sub[top_idx] *= factor
    return out


def telemetry_events(spark: SparkSession, values: np.ndarray) -> DataFrame:
    """Wrap a stream as a Spark events DataFrame ``(seq BIGINT, value DOUBLE)``.

    ``seq`` is the 0-based arrival order — the timestamp of the paper's
    streaming model (Section 2) for count-based windows.
    """
    pdf = pd.DataFrame(
        {"seq": np.arange(len(values), dtype=np.int64), "value": np.asarray(values, dtype=np.float64)}
    )
    return spark.createDataFrame(pdf)
